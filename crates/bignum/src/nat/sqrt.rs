//! Integer square root with remainder — Zimmermann's Karatsuba square root
//! (the algorithm GMP uses, cited by the paper as \[61\]).

use super::Nat;
use crate::int::Int;

impl Nat {
    /// Returns `floor(sqrt(self))`.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// assert_eq!(Nat::from(99u64).isqrt().to_u64(), Some(9));
    /// assert_eq!(Nat::from(100u64).isqrt().to_u64(), Some(10));
    /// ```
    pub fn isqrt(&self) -> Nat {
        self.sqrt_rem().0
    }

    /// Returns `(s, r)` with `s = floor(sqrt(self))` and `r = self − s²`
    /// (so `0 <= r <= 2s`).
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(10u64).pow(20) + Nat::from(12345u64);
    /// let (s, r) = n.sqrt_rem();
    /// assert_eq!(&(&s * &s) + &r, n);
    /// assert!(r <= &s + &s);
    /// ```
    pub fn sqrt_rem(&self) -> (Nat, Nat) {
        if self.is_zero() {
            return (Nat::zero(), Nat::zero());
        }
        // Normalize: shift left by an even amount so the bit length becomes
        // ≡ 0 or 3 (mod 4), guaranteeing the recursion's top quarter is
        // large enough. floor(sqrt(n·4^t)) = floor(2^t·sqrt(n)) and
        // floor(that / 2^t) = floor(sqrt(n)).
        let l = self.bit_len();
        let target = l.div_ceil(4) * 4;
        let shift = (target - l) & !1; // even
        let shifted = self.shl_bits(shift);
        let s_shifted = sqrt_normalized(&shifted);
        let s = s_shifted.shr_bits(shift / 2);
        let r = self - &(&s * &s);
        (s, r)
    }
}

/// Recursive floor-sqrt for values whose bit length keeps the top quarter
/// normalized (see the shift in `sqrt_rem`).
fn sqrt_normalized(n: &Nat) -> Nat {
    let l = n.bit_len();
    if l <= 64 {
        return Nat::from(isqrt_u64(n.low_u64()));
    }
    if l <= 126 {
        if let Some(v) = n.to_u128() {
            return Nat::from(isqrt_u128(v));
        }
    }
    // Split n = n_hi·2^{2k} + n1·2^k + n0 with k = floor(l/4) rounded so
    // 2k is limb-friendly; recursion follows Zimmermann's SqrtRem.
    let k = l / 4;
    let (low, high) = n.split_at_bit(2 * k);
    let (n0, n1) = low.split_at_bit(k);

    let s1 = sqrt_normalized(&high);
    let r1 = &high - &(&s1 * &s1);

    // (q, u) = divrem(r1·2^k + n1, 2·s1)
    let numerator = &r1.shl_bits(k) + &n1;
    let denominator = s1.shl_bits(1);
    let (q, u) = numerator.divrem(&denominator);

    let mut s = &s1.shl_bits(k) + &q;
    // r = u·2^k + n0 − q²  (may be negative: correct once)
    let r = Int::from_nat(&u.shl_bits(k) + &n0) - Int::from_nat(&q * &q);
    if r.is_negative() {
        // s was one too large.
        s = s - Nat::one();
    }
    // The correction above can only be needed once, but guard for the
    // rounding at non-multiple-of-4 lengths.
    loop {
        let sq = &s * &s;
        if sq <= *n {
            let next = &s + &Nat::one();
            if &(&next * &next) > n {
                return s;
            }
            s = next;
        } else {
            s = s - Nat::one();
        }
    }
}

fn isqrt_u64(v: u64) -> u64 {
    isqrt_u128(u128::from(v)) as u64
}

/// Integer Newton iteration started from an upper bound; the sequence
/// decreases monotonically to floor(sqrt(v)).
fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let bits = 128 - v.leading_zeros();
    let mut x = 1u128 << (bits / 2 + 1); // x ≥ sqrt(v)
    loop {
        let y = (x + v / x) >> 1;
        if y >= x {
            return x;
        }
        x = y;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values() {
        for v in 0u64..200 {
            let (s, r) = Nat::from(v).sqrt_rem();
            let s = s.to_u64().unwrap();
            let r = r.to_u64().unwrap();
            assert_eq!(s * s + r, v);
            assert!((s + 1) * (s + 1) > v, "v={v}");
        }
    }

    #[test]
    fn perfect_squares() {
        for bits in [50u64, 100, 321, 1000] {
            let s = Nat::power_of_two(bits) - Nat::from(3u64);
            let n = &s * &s;
            let (got, r) = n.sqrt_rem();
            assert_eq!(got, s, "bits={bits}");
            assert!(r.is_zero());
        }
    }

    #[test]
    fn squares_minus_one() {
        let s = Nat::from(10u64).pow(50);
        let n = &(&s * &s) - &Nat::one();
        let (got, r) = n.sqrt_rem();
        assert_eq!(got, &s - &Nat::one());
        // r = (s²−1) − (s−1)² = 2s − 2
        assert_eq!(r, &s.shl_bits(1) - &Nat::from(2u64));
    }

    #[test]
    fn large_random_shape() {
        let n = (Nat::power_of_two(2000) - Nat::from(987654321u64)).mul_limb(123456789);
        let (s, r) = n.sqrt_rem();
        assert_eq!(&(&s * &s) + &r, n);
        let next = &s + &Nat::one();
        assert!(&next * &next > n);
    }

    #[test]
    fn u128_helper() {
        for v in [0u128, 1, 2, 3, 4, u128::from(u64::MAX), 1 << 100, (1 << 100) + 12345] {
            let s = isqrt_u128(v);
            assert!(s * s <= v);
            assert!((s + 1).checked_mul(s + 1).map_or(true, |sq| sq > v));
        }
    }
}
