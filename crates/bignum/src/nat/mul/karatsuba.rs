//! Karatsuba (Toom-2) multiplication: three half-size products,
//! O(n^1.585). This is the decomposition whose intermediate volume the
//! paper measures in §II-C (see
//! [`karatsuba_intermediate_bytes`](super::karatsuba_intermediate_bytes)).
//!
//! The recursion runs on limb slices, in the style of GMP's
//! `mpn_toom22_mul`: each node writes its product into the caller's output
//! and keeps its intermediates in one scratch buffer, allocated once per
//! top-level multiply, so no level allocates.

use super::schoolbook::mul_basecase;
use super::Thresholds;
use crate::limb::{sbb, usize_from, Limb};
use crate::nat::add::add_assign_at;
use crate::nat::Nat;
use std::cmp::Ordering;

/// Karatsuba multiplication, recursing as Karatsuba while the shorter
/// operand has at least `th.karatsuba` limbs (and at least 2), with the
/// schoolbook basecase below that.
///
/// Splitting the longer operand (`n` limbs) at `h = ⌈n/2⌉` limbs:
///
/// ```text
/// x·y = z2·B^2h + z1·B^h + z0
///   z0 = x0·y0
///   z2 = x1·y1
///   z1 = z0 + z2 − (x0 − x1)(y0 − y1)
/// ```
///
/// The subtractive form keeps `|x0 − x1|` and `|y0 − y1|` within `h` limbs.
/// When the shorter operand has at most `h` limbs, `y1` would be empty, so
/// only the longer operand is split: `x·y = x0·y + x1·y·B^h`.
pub fn mul(a: &Nat, b: &Nat, th: &Thresholds) -> Nat {
    let (a, b) = if a.limb_len() >= b.limb_len() {
        (a.limbs(), b.limbs())
    } else {
        (b.limbs(), a.limbs())
    };
    let mut out: Vec<Limb> = vec![0; a.len() + b.len()];
    let mut scratch: Vec<Limb> = vec![0; scratch_len(a.len())];
    mul_into(&mut out, a, b, &mut scratch, th.karatsuba.max(2));
    Nat::from_limbs(out)
}

/// Scratch limbs a product whose longer operand has `n` limbs needs. A
/// level holds `4h` limbs while its deepest child runs and `4h + 1` while
/// it combines, with `h = ⌈n/2⌉`; summed down the halvings that is below
/// `4(n + ⌈log₂ n⌉) + 1`, which also covers the split-only case.
fn scratch_len(n: usize) -> usize {
    let levels = usize_from(u64::from(n.next_power_of_two().trailing_zeros()));
    4 * (n + levels) + 1
}

/// `out = a · b` (`out.len() == a.len() + b.len()`, every limb written),
/// with the basecase below `cutoff` limbs in the shorter operand.
fn mul_into(out: &mut [Limb], a: &[Limb], b: &[Limb], scratch: &mut [Limb], cutoff: usize) {
    if a.len() < b.len() {
        return mul_into(out, b, a, scratch, cutoff);
    }
    let (n, m) = (a.len(), b.len());
    if m < cutoff {
        return mul_basecase(out, a, b);
    }
    // Low parts take h limbs, x1 the other hh (h = hh + 1 when n is odd).
    let h = n.div_ceil(2);
    let hh = n - h;
    let (a0, a1) = a.split_at(h);
    if m <= h {
        // out = a0·b + a1·b·B^h; a1·b is staged in scratch.
        mul_into(&mut out[..h + m], a0, b, scratch, cutoff);
        let (high, rest) = scratch.split_at_mut(hh + m);
        mul_into(high, a1, b, rest, cutoff);
        out[h + m..].copy_from_slice(&high[m..]);
        let carry = add_assign_at(&mut out[h..], &high[..m], 0);
        debug_assert_eq!(carry, 0, "output sized for the full product");
        return;
    }
    let (b0, b1) = b.split_at(h);
    // Scratch layout: [vm1: 2h | da: h | db: h | children's scratch].
    let (vm1, rest) = scratch.split_at_mut(2 * h);
    let (diffs, deeper) = rest.split_at_mut(2 * h);
    let (da, db) = diffs.split_at_mut(h);
    let negative = abs_diff_into(da, a0, a1) != abs_diff_into(db, b0, b1);
    mul_into(vm1, da, db, deeper, cutoff);
    // z0 and z2 go straight to their places in `out`; the differences are
    // spent, so the children may reuse their limbs.
    let (z0, z2) = out.split_at_mut(2 * h);
    mul_into(z0, a0, b0, rest, cutoff);
    mul_into(z2, a1, b1, rest, cutoff);
    // z1 = z0 + z2 ∓ vm1 takes 2h + 1 limbs.
    let z1 = &mut rest[..=2 * h];
    z1[..2 * h].copy_from_slice(z0);
    z1[2 * h] = 0;
    let carry = add_assign_at(z1, z2, 0);
    debug_assert_eq!(carry, 0, "z0 + z2 < 2·B^2h");
    if negative {
        let carry = add_assign_at(z1, vm1, 0);
        debug_assert_eq!(carry, 0, "z1 = x0·y1 + x1·y0 < 2·B^2h");
    } else {
        let borrow = sub_assign(z1, vm1);
        debug_assert_eq!(borrow, 0, "z1 = x0·y1 + x1·y0 is non-negative");
    }
    // z1·B^h < B^(n+m), so the limbs of z1 past the output are zero.
    let fits = z1.len().min(n + m - h);
    debug_assert!(
        z1[fits..].iter().all(|&l| l == 0),
        "z1 overflows the product"
    );
    let carry = add_assign_at(out, &z1[..fits], h);
    debug_assert_eq!(carry, 0, "output sized for the full product");
}

/// `dst = |x − y|` for `dst.len() == x.len() >= y.len()` (y zero-padded);
/// returns whether `x < y`.
fn abs_diff_into(dst: &mut [Limb], x: &[Limb], y: &[Limb]) -> bool {
    let (x_low, x_high) = x.split_at(y.len());
    let ord = if x_high.iter().any(|&l| l != 0) {
        Ordering::Greater
    } else {
        x_low.iter().rev().cmp(y.iter().rev())
    };
    let (big, small, negative) = match ord {
        Ordering::Less => (y, x_low, true),
        _ => (x, y, false),
    };
    let mut borrow = 0;
    for (i, d) in dst.iter_mut().enumerate() {
        let rhs = small.get(i).copied().unwrap_or(0);
        let (v, br) = sbb(big.get(i).copied().unwrap_or(0), rhs, borrow);
        *d = v;
        borrow = br;
    }
    debug_assert_eq!(borrow, 0, "subtracted the smaller operand");
    negative
}

/// `x −= y` in place (`x.len() >= y.len()`); returns the borrow out of `x`.
fn sub_assign(x: &mut [Limb], y: &[Limb]) -> Limb {
    let mut borrow = 0;
    for (i, d) in x.iter_mut().enumerate() {
        if i >= y.len() && borrow == 0 {
            break;
        }
        let (v, br) = sbb(*d, y.get(i).copied().unwrap_or(0), borrow);
        *d = v;
        borrow = br;
    }
    borrow
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nat::mul::schoolbook;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                x
            })
            .collect();
        Nat::from_limbs(v)
    }

    fn kara(a: &Nat, b: &Nat) -> Nat {
        // A cutoff of 2 recurses as deep as the split allows.
        let th = Thresholds {
            karatsuba: 2,
            ..Thresholds::default()
        };
        mul(a, b, &th)
    }

    #[test]
    fn matches_schoolbook_various_sizes() {
        for n in [2usize, 3, 10, 33, 64, 100] {
            let a = pattern(n, 1);
            let b = pattern(n, 2);
            assert_eq!(kara(&a, &b), schoolbook::mul(&a, &b), "n={n}");
        }
    }

    #[test]
    fn handles_zero_halves() {
        // x0 == 0: low half entirely zero.
        let a = Nat::power_of_two(64 * 8);
        let b = pattern(8, 3);
        assert_eq!(kara(&a, &b), schoolbook::mul(&a, &b));
        // x1 small relative to split.
        let c = pattern(2, 4);
        let d = pattern(16, 5);
        assert_eq!(kara(&c, &d), schoolbook::mul(&c, &d));
    }

    #[test]
    fn near_power_of_two_operands() {
        let a = Nat::power_of_two(64 * 20) - Nat::one();
        let b = Nat::power_of_two(64 * 20) - Nat::one();
        // (2^k - 1)^2 = 2^2k - 2^(k+1) + 1
        let k = 64 * 20;
        let expect = Nat::power_of_two(2 * k) - Nat::power_of_two(k + 1) + Nat::one();
        assert_eq!(kara(&a, &b), expect);
    }

    #[test]
    fn abs_diff_into_pads_the_short_operand() {
        let mut dst = [0u64; 2];
        assert!(abs_diff_into(&mut dst, &[1, 0], &[3]));
        assert_eq!(dst, [2, 0]);
        assert!(!abs_diff_into(&mut dst, &[0, 1], &[1]));
        assert_eq!(dst, [u64::MAX, 0]);
    }
}
