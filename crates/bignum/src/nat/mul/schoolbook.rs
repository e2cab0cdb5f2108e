//! Schoolbook O(n²) multiplication — the basecase of the ladder, and the
//! granularity (Figure 4) whose intermediate explosion motivates the whole
//! paper.
//!
//! The kernel works on limb slices into one caller-owned output, two rows
//! of `b` per pass (`addmul_2`, GMP's `mpn_addmul_2`): each load of a
//! limb of `a` feeds both rows, and the output is read and written once
//! per pair of rows instead of once per row.

use crate::limb::{wide_parts, Limb};
use crate::nat::Nat;

/// Multiplies `a * b` by the schoolbook method.
pub fn mul(a: &Nat, b: &Nat) -> Nat {
    let (a, b) = (a.limbs(), b.limbs());
    let mut out: Vec<Limb> = vec![0; a.len() + b.len()];
    if a.len() >= b.len() {
        mul_basecase(&mut out, a, b);
    } else {
        mul_basecase(&mut out, b, a);
    }
    Nat::from_limbs(out)
}

/// `out = a · b` for `out.len() == a.len() + b.len()`; every limb of `out`
/// is overwritten. Rows of `b` go two per [`addmul_2`] pass, with one
/// [`addmul_1`] row when `b` has an odd length, so `a` should be the longer
/// operand.
pub(crate) fn mul_basecase(out: &mut [Limb], a: &[Limb], b: &[Limb]) {
    let n = a.len();
    debug_assert_eq!(out.len(), n + b.len(), "output sized for the full product");
    out.fill(0);
    let mut rows = b.chunks_exact(2);
    let mut i = 0;
    for pair in &mut rows {
        // Rows below i fill out[..n + i]; the two limbs above are still 0.
        out[n + i + 1] = addmul_2(&mut out[i..=n + i], a, pair[0], pair[1]);
        i += 2;
    }
    if let [last] = rows.remainder() {
        out[n + i] = addmul_1(&mut out[i..n + i], a, *last);
    }
}

/// `dst[..n] += a · scalar` for `n = a.len() == dst.len()`, returning the
/// high limb of the sum.
pub(crate) fn addmul_1(dst: &mut [Limb], a: &[Limb], scalar: Limb) -> Limb {
    debug_assert_eq!(dst.len(), a.len());
    let mut carry: u128 = 0;
    for (d, &ai) in dst.iter_mut().zip(a) {
        let (lo, hi) = wide_parts(u128::from(ai) * u128::from(scalar) + u128::from(*d) + carry);
        *d = lo;
        carry = u128::from(hi);
    }
    wide_parts(carry).0
}

/// `dst[..n] += a · (b0 + b1·B)` for `n = a.len()` and `dst.len() == n + 1`:
/// the sum's low `n + 1` limbs land in `dst` (`dst[n]` is written, not
/// added to) and its top limb is returned.
///
/// Two u128 carry chains share each load of `a`: `t` is the b0 row at limb
/// `i`, and `acc` is what the b1 row and both carries leave for limb `i + 1`.
/// Each stays below B² (B = 2⁶⁴): `t ≤ (B−1)² + 2(B−1)`, and `acc` is
/// `a[i]·b1` plus two high limbs, with the same bound.
pub(crate) fn addmul_2(dst: &mut [Limb], a: &[Limb], b0: Limb, b1: Limb) -> Limb {
    let n = a.len();
    debug_assert_eq!(dst.len(), n + 1);
    let (low, top) = dst.split_at_mut(n);
    let mut acc: u128 = 0;
    for (d, &ai) in low.iter_mut().zip(a) {
        let (acc_lo, acc_hi) = wide_parts(acc);
        let (lo, hi) =
            wide_parts(u128::from(ai) * u128::from(b0) + u128::from(*d) + u128::from(acc_lo));
        *d = lo;
        acc = u128::from(ai) * u128::from(b1) + u128::from(hi) + u128::from(acc_hi);
    }
    let (lo, hi) = wide_parts(acc);
    top[0] = lo;
    hi
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_limb_products() {
        let a = Nat::from(u64::MAX);
        let p = mul(&a, &a);
        // (2^64-1)^2 = 2^128 - 2^65 + 1
        let expect = Nat::power_of_two(128) - Nat::power_of_two(65) + Nat::one();
        assert_eq!(p, expect);
    }

    #[test]
    fn matches_u128_for_small_values() {
        for (x, y) in [(3u64, 5u64), (u64::MAX, 2), (12345, 67890)] {
            let p = mul(&Nat::from(x), &Nat::from(y));
            assert_eq!(p, Nat::from(u128::from(x) * u128::from(y)));
        }
    }

    #[test]
    fn commutative() {
        let a = Nat::from_limbs(vec![1, 2, 3]);
        let b = Nat::from_limbs(vec![u64::MAX, 7]);
        assert_eq!(mul(&a, &b), mul(&b, &a));
    }

    #[test]
    fn distributive_over_addition() {
        let a = Nat::from_limbs(vec![5, 9, 1]);
        let b = Nat::from_limbs(vec![3, 3]);
        let c = Nat::from_limbs(vec![8, 1, 1, 1]);
        let lhs = mul(&a, &(&b + &c));
        let rhs = &mul(&a, &b) + &mul(&a, &c);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn addmul_1_accumulates() {
        let mut dst = vec![0u64; 2];
        let top = addmul_1(&mut dst, &[u64::MAX, u64::MAX], 2);
        dst.push(top);
        // (2^128 - 1) * 2 = 2^129 - 2
        let got = Nat::from_limbs(dst);
        let expect = Nat::power_of_two(129) - Nat::from(2u64);
        assert_eq!(got, expect);
    }

    #[test]
    fn addmul_2_saturated_carries() {
        // {dst, 2} + (B² − 1)·(B² − 1) with dst = B² − 1: the largest sum
        // addmul_2 can be asked for, (B² − 1)·B², needs the returned limb.
        let mut dst = vec![u64::MAX, u64::MAX, 0];
        let top = addmul_2(&mut dst, &[u64::MAX, u64::MAX], u64::MAX, u64::MAX);
        dst.push(top);
        let m = Nat::power_of_two(128) - Nat::one();
        assert_eq!(Nat::from_limbs(dst), m.shl_bits(128));
    }
}
