//! Montgomery modular arithmetic ("Montgomery reduction — modular
//! multiplication without trial division", the paper's reference \[47\]).
//!
//! This is the kernel RSA is built on: the paper notes "RSA is composed of
//! Montgomery reductions (implemented by pairs of multiply and add
//! operations) and squares" (§VII-C). MPApca exposes the same operator on
//! the accelerator side.

use super::Nat;
use crate::limb::{adc, mul_add_carry, Limb};

/// Precomputed context for Montgomery arithmetic modulo an odd modulus.
///
/// ```
/// use apc_bignum::nat::mont::MontgomeryCtx;
/// use apc_bignum::Nat;
///
/// let m = Nat::from(101u64);
/// let ctx = MontgomeryCtx::new(m.clone());
/// let a = Nat::from(55u64);
/// let b = Nat::from(77u64);
/// let got = ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b));
/// assert_eq!(ctx.from_mont(&got), (&a * &b) % m);
/// ```
#[derive(Debug, Clone)]
pub struct MontgomeryCtx {
    modulus: Nat,
    /// Number of limbs in the modulus; R = 2^(64·limbs).
    limbs: usize,
    /// −modulus⁻¹ mod 2^64.
    n0_inv: Limb,
    /// R² mod modulus, for conversion into Montgomery form.
    r2: Nat,
}

impl MontgomeryCtx {
    /// Builds a context for the given odd modulus.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or < 3.
    pub fn new(modulus: Nat) -> Self {
        assert!(!modulus.is_even(), "Montgomery modulus must be odd");
        assert!(modulus > Nat::from(2u64), "modulus must be at least 3");
        let limbs = modulus.limb_len();
        let n0 = modulus.limbs()[0];
        let n0_inv = inv_mod_b(n0).wrapping_neg();
        let r = Nat::power_of_two(64 * 2 * limbs as u64) % modulus.clone();
        MontgomeryCtx {
            limbs,
            n0_inv,
            r2: r,
            modulus,
        }
    }

    /// The modulus.
    pub fn modulus(&self) -> &Nat {
        &self.modulus
    }

    /// Converts into Montgomery form (`a·R mod m`).
    pub fn to_mont(&self, a: &Nat) -> Nat {
        let a = if a >= &self.modulus {
            a % self.modulus.clone()
        } else {
            a.clone()
        };
        self.mul(&a, &self.r2)
    }

    /// Converts out of Montgomery form (`a·R⁻¹ mod m`).
    pub fn from_mont(&self, a: &Nat) -> Nat {
        self.redc(a.limbs())
    }

    /// Montgomery product: `a·b·R⁻¹ mod m`.
    pub fn mul(&self, a: &Nat, b: &Nat) -> Nat {
        let t = a * b;
        self.redc(t.limbs())
    }

    /// Montgomery squaring.
    pub fn square(&self, a: &Nat) -> Nat {
        self.mul(a, a)
    }

    /// Modular exponentiation `base^exp mod m` using a 4-bit window over
    /// Montgomery products.
    ///
    /// ```
    /// use apc_bignum::nat::mont::MontgomeryCtx;
    /// use apc_bignum::Nat;
    ///
    /// let m = Nat::from(1_000_000_007u64);
    /// let ctx = MontgomeryCtx::new(m);
    /// let r = ctx.pow_mod(&Nat::from(2u64), &Nat::from(100u64));
    /// assert_eq!(r.to_u64(), Some(976_371_285)); // 2^100 mod p
    /// ```
    pub fn pow_mod(&self, base: &Nat, exp: &Nat) -> Nat {
        if exp.is_zero() {
            return Nat::one() % self.modulus.clone();
        }
        let mb = self.to_mont(base);
        // Window table: mb^0 .. mb^15 in Montgomery form.
        let one_mont = self.to_mont(&Nat::one());
        let mut table = Vec::with_capacity(16);
        table.push(one_mont);
        for i in 1..16 {
            let prev: &Nat = &table[i - 1];
            table.push(self.mul(prev, &mb));
        }
        let bits = exp.bit_len();
        let windows = bits.div_ceil(4);
        let mut acc = table[0].clone();
        let mut started = false;
        for w in (0..windows).rev() {
            if started {
                for _ in 0..4 {
                    acc = self.square(&acc);
                }
            }
            let mut idx = 0usize;
            for b in 0..4 {
                let bit_pos = w * 4 + (3 - b);
                idx <<= 1;
                if bit_pos < bits && exp.bit(bit_pos) {
                    idx |= 1;
                }
            }
            if started {
                if idx != 0 {
                    acc = self.mul(&acc, &table[idx]);
                }
            } else if idx != 0 {
                acc = table[idx].clone();
                started = true;
            }
        }
        self.from_mont(&acc)
    }

    /// Montgomery reduction of a (≤ 2·limbs)-limb value `t < m·R`:
    /// returns `t·R⁻¹ mod m`.
    fn redc(&self, t: &[Limb]) -> Nat {
        let n = self.limbs;
        let ml = self.modulus.limbs();
        let mut buf: Vec<Limb> = vec![0; 2 * n + 1];
        buf[..t.len()].copy_from_slice(t);
        for i in 0..n {
            let m = buf[i].wrapping_mul(self.n0_inv);
            // buf += m · modulus · B^i
            let mut carry: Limb = 0;
            for (j, &mj) in ml.iter().enumerate() {
                let (lo, hi) = mul_add_carry(m, mj, buf[i + j], carry);
                buf[i + j] = lo;
                carry = hi;
            }
            // Propagate the carry.
            let mut j = i + n;
            while carry != 0 {
                let (s, c) = adc(buf[j], carry, 0);
                buf[j] = s;
                carry = c;
                j += 1;
            }
        }
        let mut out = Nat::from_limbs(buf[n..].to_vec());
        if out >= self.modulus {
            out = out - self.modulus.clone();
        }
        out
    }
}

/// Inverse of an odd limb modulo 2^64 by Newton iteration.
fn inv_mod_b(n: Limb) -> Limb {
    debug_assert!(n & 1 == 1);
    let mut x: Limb = n; // correct to 3 bits
    for _ in 0..5 {
        x = x.wrapping_mul(2u64.wrapping_sub(n.wrapping_mul(x)));
    }
    debug_assert_eq!(n.wrapping_mul(x), 1);
    x
}

/// Convenience: `base^exp mod modulus` for odd moduli via a throwaway
/// context, or by binary exponentiation with plain division for even ones.
pub fn pow_mod(base: &Nat, exp: &Nat, modulus: &Nat) -> Nat {
    assert!(!modulus.is_zero(), "zero modulus");
    if modulus.is_one() {
        return Nat::zero();
    }
    if !modulus.is_even() && modulus > &Nat::from(2u64) {
        return MontgomeryCtx::new(modulus.clone()).pow_mod(base, exp);
    }
    // Plain MSB-first square-and-multiply fallback for even moduli.
    let mut acc = Nat::one() % modulus.clone();
    let b = base % modulus;
    for i in (0..exp.bit_len()).rev() {
        acc = &(&acc * &acc) % modulus;
        if exp.bit(i) {
            acc = &(&acc * &b) % modulus;
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inv_mod_b_random_odds() {
        for n in [1u64, 3, 5, 0xDEAD_BEEF | 1, u64::MAX] {
            let x = inv_mod_b(n);
            assert_eq!(n.wrapping_mul(x), 1, "n={n}");
        }
    }

    #[test]
    fn redc_identity() {
        let m = Nat::from(101u64);
        let ctx = MontgomeryCtx::new(m.clone());
        for v in 0u64..101 {
            let a = Nat::from(v);
            assert_eq!(ctx.from_mont(&ctx.to_mont(&a)), a, "v={v}");
        }
    }

    #[test]
    fn mont_mul_matches_plain() {
        let m = Nat::from(0xFFFF_FFFF_FFFF_FFC5u64); // largest 64-bit prime
        let ctx = MontgomeryCtx::new(m.clone());
        let a = Nat::from(0x1234_5678_9ABC_DEFFu64);
        let b = Nat::from(0xFEDC_BA98_7654_3211u64);
        let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        assert_eq!(got, (&a * &b) % m);
    }

    #[test]
    fn mont_multi_limb_modulus() {
        let m = (Nat::power_of_two(256) - Nat::one())
            .checked_sub(&Nat::from(188u64))
            .unwrap(); // odd 256-bit value
        let ctx = MontgomeryCtx::new(m.clone());
        let a = Nat::power_of_two(255) - Nat::from(12345u64);
        let b = Nat::power_of_two(200) + Nat::from(98765u64);
        let got = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        assert_eq!(got, (&a * &b) % m);
    }

    #[test]
    fn pow_mod_fermat_little() {
        // a^(p−1) ≡ 1 mod p for prime p
        let p = Nat::from(1_000_000_007u64);
        let ctx = MontgomeryCtx::new(p.clone());
        for a in [2u64, 3, 65537] {
            let r = ctx.pow_mod(&Nat::from(a), &(&p - &Nat::one()));
            assert!(r.is_one(), "a={a}");
        }
    }

    #[test]
    fn pow_mod_zero_exponent() {
        let p = Nat::from(97u64);
        let ctx = MontgomeryCtx::new(p);
        assert!(ctx.pow_mod(&Nat::from(5u64), &Nat::zero()).is_one());
    }

    #[test]
    fn pow_mod_large_exponent_matches_naive() {
        let m = Nat::from(999_999_937u64); // prime
        let ctx = MontgomeryCtx::new(m.clone());
        let base = Nat::from(123_456_789u64);
        let exp = Nat::from(0xDEAD_BEEF_u64);
        let got = ctx.pow_mod(&base, &exp);
        // Naive square-and-multiply oracle.
        let mut acc = Nat::one();
        for i in (0..exp.bit_len()).rev() {
            acc = &(&acc * &acc) % m.clone();
            if exp.bit(i) {
                acc = &(&acc * &base) % m.clone();
            }
        }
        assert_eq!(got, acc);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_modulus_rejected() {
        let _ = MontgomeryCtx::new(Nat::from(100u64));
    }

    #[test]
    fn helper_pow_mod_handles_even_modulus() {
        let got = pow_mod(&Nat::from(3u64), &Nat::from(10u64), &Nat::from(100u64));
        assert_eq!(got.to_u64(), Some(49)); // 3^10 = 59049
    }
}
