//! Division: schoolbook (Knuth Algorithm D, O(n²)) and Burnikel–Ziegler
//! divide-and-conquer ("Karatsuba division", O(n^m log n) — Table I).

use super::Nat;
use crate::int::Int;
use crate::limb::{mul_add_carry, Limb, LIMB_BITS};
use std::ops::{Div, Rem};

/// Limb count below which the divide-and-conquer division falls back to
/// schoolbook.
const BZ_THRESHOLD: usize = 40;

impl Nat {
    /// Divides by a single limb, returning `(quotient, remainder)`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor == 0`.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let (q, r) = Nat::from(1_000_003u64).divrem_limb(10);
    /// assert_eq!(q.to_u64(), Some(100_000));
    /// assert_eq!(r, 3);
    /// ```
    pub fn divrem_limb(&self, divisor: u64) -> (Nat, u64) {
        assert!(divisor != 0, "division by zero");
        let mut out: Vec<Limb> = vec![0; self.limb_len()];
        let mut rem: u64 = 0;
        for (i, &l) in self.limbs().iter().enumerate().rev() {
            let cur = (u128::from(rem) << 64) | u128::from(l);
            out[i] = (cur / u128::from(divisor)) as u64;
            rem = (cur % u128::from(divisor)) as u64;
        }
        (Nat::from_limbs(out), rem)
    }

    /// Divides `self` by `rhs`, returning `(quotient, remainder)`.
    ///
    /// Dispatches to Knuth Algorithm D for small divisors and to
    /// Burnikel–Ziegler divide-and-conquer from a divisor of `BZ_THRESHOLD` limbs up.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(10u64).pow(40);
    /// let d = Nat::from(10u64).pow(15) + Nat::one();
    /// let (q, r) = n.divrem(&d);
    /// assert_eq!(&(&q * &d) + &r, n);
    /// assert!(r < d);
    /// ```
    pub fn divrem(&self, rhs: &Nat) -> (Nat, Nat) {
        assert!(!rhs.is_zero(), "division by zero");
        if self < rhs {
            return (Nat::zero(), self.clone());
        }
        if rhs.limb_len() == 1 {
            let (q, r) = self.divrem_limb(rhs.limbs()[0]);
            return (q, Nat::from(r));
        }
        if rhs.limb_len() < BZ_THRESHOLD {
            return divrem_schoolbook(self, rhs);
        }
        divrem_block_bz(self, rhs)
    }

    /// Exact division: `self / rhs` when the remainder is known to be zero.
    ///
    /// # Panics
    ///
    /// Panics if the division is not exact or `rhs` is zero.
    pub fn div_exact(&self, rhs: &Nat) -> Nat {
        let (q, r) = self.divrem(rhs);
        assert!(r.is_zero(), "inexact division in div_exact");
        q
    }

    /// `self mod rhs`.
    pub fn rem(&self, rhs: &Nat) -> Nat {
        self.divrem(rhs).1
    }
}

/// Knuth Algorithm D. `u >= v`, `v` at least 2 limbs.
fn divrem_schoolbook(u: &Nat, v: &Nat) -> (Nat, Nat) {
    #[expect(
        clippy::expect_used,
        reason = "divrem dispatch rejects v == 0 before calling here"
    )]
    let shift = v.limbs().last().expect("v nonzero").leading_zeros();
    let un = u.shl_bits(u64::from(shift));
    let vn = v.shl_bits(u64::from(shift));
    let n = vn.limb_len();
    let mut ul = un.limbs().to_vec();
    // One extra high limb for the multiply-subtract window.
    ul.push(0);
    let m = ul.len() - 1 - n; // number of quotient limbs - 1
    let vl = vn.limbs();
    let vtop = vl[n - 1];
    let vsecond = vl[n - 2];
    let mut q: Vec<Limb> = vec![0; m + 1];

    for j in (0..=m).rev() {
        let numerator = (u128::from(ul[j + n]) << 64) | u128::from(ul[j + n - 1]);
        let mut qhat = numerator / u128::from(vtop);
        let mut rhat = numerator % u128::from(vtop);
        if qhat > u128::from(u64::MAX) {
            qhat = u128::from(u64::MAX);
            rhat = numerator - qhat * u128::from(vtop);
        }
        // Refine qhat using the second divisor limb.
        while rhat <= u128::from(u64::MAX)
            && qhat * u128::from(vsecond) > (rhat << 64) + u128::from(ul[j + n - 2])
        {
            qhat -= 1;
            rhat += u128::from(vtop);
        }
        let mut qhat = qhat as u64;
        // Multiply and subtract: ul[j..=j+n] -= qhat * vl.
        let mut borrow: u64 = 0;
        let mut carry: u64 = 0;
        for i in 0..n {
            let (plo, phi) = mul_add_carry(vl[i], qhat, carry, 0);
            carry = phi;
            let (d, b) = crate::limb::sbb(ul[j + i], plo, borrow);
            ul[j + i] = d;
            borrow = b;
        }
        let (d, b) = crate::limb::sbb(ul[j + n], carry, borrow);
        ul[j + n] = d;
        if b != 0 {
            // qhat was one too large: add back.
            qhat -= 1;
            let mut carry: u64 = 0;
            for i in 0..n {
                let (s, c) = crate::limb::adc(ul[j + i], vl[i], carry);
                ul[j + i] = s;
                carry = c;
            }
            ul[j + n] = ul[j + n].wrapping_add(carry);
        }
        q[j] = qhat;
    }

    let r = Nat::from_limbs(ul[..n].to_vec()).shr_bits(u64::from(shift));
    (Nat::from_limbs(q), r)
}

/// Top-level Burnikel–Ziegler: normalize the divisor, then consume the
/// dividend from the top in divisor-sized blocks via `div_2n_1n`.
fn divrem_block_bz(u: &Nat, v: &Nat) -> (Nat, Nat) {
    #[expect(
        clippy::expect_used,
        reason = "divrem dispatch rejects v == 0 before calling here"
    )]
    let shift = u64::from(v.limbs().last().expect("v nonzero").leading_zeros());
    let un = u.shl_bits(shift);
    let vn = v.shl_bits(shift);
    let n = vn.limb_len();
    let blocks = un.limb_len().div_ceil(n);
    let mut r = Nat::zero();
    let mut q_limbs: Vec<Limb> = vec![0; blocks * n];
    for b in (0..blocks).rev() {
        let lo = b * n;
        let hi = ((b + 1) * n).min(un.limb_len());
        let block = Nat::from_limbs(un.limbs()[lo..hi].to_vec());
        let a = &r.shl_bits(n as u64 * u64::from(LIMB_BITS)) + &block;
        let (qb, rb) = div_2n_1n(&a, &vn, n);
        r = rb;
        let ql = qb.limbs();
        debug_assert!(ql.len() <= n, "block quotient fits in n limbs");
        q_limbs[lo..lo + ql.len()].copy_from_slice(ql);
    }
    (
        Nat::from_limbs(q_limbs),
        r.shr_bits(shift),
    )
}

/// Divides a (≤2n)-limb value `a < b·B^n` by the normalized n-limb `b`.
fn div_2n_1n(a: &Nat, b: &Nat, n: usize) -> (Nat, Nat) {
    if n % 2 == 1 || n < BZ_THRESHOLD {
        return divrem_any(a, b);
    }
    let half = n / 2;
    let half_bits = half as u64 * u64::from(LIMB_BITS);
    // a = [a_high3, a4] where a4 is the bottom half-block.
    let (a4, a_high3) = a.split_at_bit(half_bits);
    let (q1, r1) = div_3n_2n(&a_high3, b, half);
    let lower = &r1.shl_bits(half_bits) + &a4;
    let (q2, r) = div_3n_2n(&lower, b, half);
    (&q1.shl_bits(half_bits) + &q2, r)
}

/// Divides a (≤3h)-limb value `a < b·B^h` by the normalized 2h-limb `b`.
fn div_3n_2n(a: &Nat, b: &Nat, h: usize) -> (Nat, Nat) {
    let h_bits = h as u64 * u64::from(LIMB_BITS);
    let (a3, a12) = a.split_at_bit(h_bits);
    let (b2, b1) = b.split_at_bit(h_bits);
    let (mut q, c) = if a12.shr_bits(h_bits) < b1 {
        div_2n_1n(&a12, &b1, h)
    } else {
        // q = B^h − 1; c = a12 − q·b1 = a12 − b1·B^h + b1.
        let q = Nat::power_of_two(h_bits) - Nat::one();
        let c = &(&a12 - &b1.shl_bits(h_bits)) + &b1;
        (q, c)
    };
    let d = &q * &b2;
    let mut r = Int::from_nat(&c.shl_bits(h_bits) + &a3) - Int::from_nat(d);
    let bi = Int::from_nat(b.clone());
    while r.is_negative() {
        r += &bi;
        q = q - Nat::one();
    }
    (q, r.into_nat())
}

/// Schoolbook entry that tolerates `a < b` and single-limb divisors.
fn divrem_any(a: &Nat, b: &Nat) -> (Nat, Nat) {
    if a < b {
        return (Nat::zero(), a.clone());
    }
    if b.limb_len() == 1 {
        let (q, r) = a.divrem_limb(b.limbs()[0]);
        return (q, Nat::from(r));
    }
    divrem_schoolbook(a, b)
}

impl Div<&Nat> for &Nat {
    type Output = Nat;

    fn div(self, rhs: &Nat) -> Nat {
        self.divrem(rhs).0
    }
}

impl Rem<&Nat> for &Nat {
    type Output = Nat;

    fn rem(self, rhs: &Nat) -> Nat {
        self.divrem(rhs).1
    }
}

impl Div<Nat> for Nat {
    type Output = Nat;

    fn div(self, rhs: Nat) -> Nat {
        &self / &rhs
    }
}

impl Rem<Nat> for Nat {
    type Output = Nat;

    fn rem(self, rhs: Nat) -> Nat {
        &self % &rhs
    }
}

impl Div<Nat> for &Nat {
    type Output = Nat;

    fn div(self, rhs: Nat) -> Nat {
        self / &rhs
    }
}

impl Rem<Nat> for &Nat {
    type Output = Nat;

    fn rem(self, rhs: Nat) -> Nat {
        self % &rhs
    }
}

impl Div<&Nat> for Nat {
    type Output = Nat;

    fn div(self, rhs: &Nat) -> Nat {
        &self / rhs
    }
}

impl Rem<&Nat> for Nat {
    type Output = Nat;

    fn rem(self, rhs: &Nat) -> Nat {
        &self % rhs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0x5851F42D4C957F2D) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x = x.wrapping_mul(0x5851F42D4C957F2D).wrapping_add(0x14057B7EF767814F);
                x ^ (x >> 33)
            })
            .collect();
        Nat::from_limbs(v)
    }

    fn check_divrem(u: &Nat, v: &Nat) {
        let (q, r) = u.divrem(v);
        assert!(&r < v, "remainder must be < divisor");
        assert_eq!(&(&q * v) + &r, *u, "q*v + r == u");
    }

    #[test]
    fn divrem_limb_roundtrip() {
        let u = pattern(10, 1);
        let (q, r) = u.divrem_limb(12345);
        assert_eq!(&q.mul_limb(12345) + &Nat::from(r), u);
    }

    #[test]
    fn small_divisions() {
        check_divrem(&Nat::from(100u64), &Nat::from(7u64));
        check_divrem(&Nat::from(7u64), &Nat::from(100u64));
        check_divrem(&Nat::from(100u64), &Nat::from(100u64));
    }

    #[test]
    fn schoolbook_various_shapes() {
        for (un, vn) in [(5usize, 2usize), (10, 3), (20, 10), (39, 38), (30, 29)] {
            let u = pattern(un, un as u64);
            let v = pattern(vn, vn as u64 + 100);
            check_divrem(&u, &v);
        }
    }

    #[test]
    fn knuth_d_add_back_case() {
        // Construct a case that exercises the rare add-back branch:
        // u = B^4 / 2 - 1 shaped values with v top limb = B/2.
        let u = Nat::from_limbs(vec![0, u64::MAX - 1, u64::MAX >> 1, u64::MAX >> 1]);
        let v = Nat::from_limbs(vec![u64::MAX, u64::MAX >> 1]);
        check_divrem(&u, &v);
    }

    #[test]
    fn burnikel_ziegler_large() {
        for (un, vn) in [(100usize, 50usize), (200, 64), (300, 128), (257, 101)] {
            let u = pattern(un, 7);
            let v = pattern(vn, 11);
            check_divrem(&u, &v);
        }
    }

    #[test]
    fn bz_exact_multiples() {
        let v = pattern(60, 3);
        let q = pattern(70, 5);
        let u = &v * &q;
        let (qq, rr) = u.divrem(&v);
        assert_eq!(qq, q);
        assert!(rr.is_zero());
    }

    #[test]
    fn quotient_all_ones() {
        // u = v * (B^k - 1) + (v - 1) stresses qhat = B-1 paths.
        let v = pattern(45, 9);
        let q = Nat::power_of_two(64 * 50) - Nat::one();
        let u = &(&v * &q) + &(&v - &Nat::one());
        let (qq, rr) = u.divrem(&v);
        assert_eq!(qq, q);
        assert_eq!(rr, &v - &Nat::one());
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_panics() {
        let _ = Nat::one().divrem(&Nat::zero());
    }

    #[test]
    fn div_exact_accepts_exact() {
        let a = pattern(50, 2);
        let b = pattern(20, 3);
        assert_eq!((&a * &b).div_exact(&b), a);
    }

    #[test]
    fn operators() {
        let a = Nat::from(1000u64);
        let b = Nat::from(7u64);
        assert_eq!((&a / &b).to_u64(), Some(142));
        assert_eq!((&a % &b).to_u64(), Some(6));
    }
}
