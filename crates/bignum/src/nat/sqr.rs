//! Dedicated squaring — roughly half the basecase work of a general
//! multiplication, at basecase sizes.
//!
//! GMP ships a distinct `sqr` path for exactly this reason, and the
//! paper's RSA analysis leans on it: "RSA is composed of Montgomery
//! reductions … and squares" (§VII-C).

use super::mul::{MulAlgorithm, Thresholds};
use super::Nat;
use crate::limb::{adc, mul_add_carry, shl_step, Limb};

/// Most limbs a square takes the dedicated basecase at.
pub(crate) const SQR_BASECASE_LIMIT: usize = 32;

impl Nat {
    /// Squares `self` via the dedicated squaring path.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let a = Nat::power_of_two(1000) - Nat::from(3u64);
    /// assert_eq!(a.square_fast(), &a * &a);
    /// ```
    pub fn square_fast(&self) -> Nat {
        sqr(self, &Thresholds::default())
    }
}

/// Squaring dispatch: the dedicated basecase up to
/// [`SQR_BASECASE_LIMIT`] limbs, the general ladder above (its
/// allocation-free Karatsuba beats a squaring split that allocates at
/// every node). The ladder's own squaring shortcut goes straight to
/// [`sqr_basecase`], so the two never call each other in a loop.
pub(crate) fn sqr(a: &Nat, th: &Thresholds) -> Nat {
    match a.limb_len() {
        0 => Nat::zero(),
        1 => {
            let v = u128::from(a.limbs()[0]);
            Nat::from(v * v)
        }
        n if n <= SQR_BASECASE_LIMIT => sqr_basecase(a.limbs()),
        _ => super::mul::mul_dispatch(a, a, MulAlgorithm::Auto, th),
    }
}

/// Basecase squaring using the cross-product doubling trick:
/// a² = 2·Σ_{i<j} aᵢaⱼ·B^{i+j} + Σ aᵢ²·B^{2i}.
pub(crate) fn sqr_basecase(a: &[Limb]) -> Nat {
    let n = a.len();
    let mut out: Vec<Limb> = vec![0; 2 * n];
    // Cross products (strictly upper triangle).
    for i in 0..n {
        let mut carry: Limb = 0;
        for j in (i + 1)..n {
            let (lo, hi) = mul_add_carry(a[i], a[j], out[i + j], carry);
            out[i + j] = lo;
            carry = hi;
        }
        // Store the final carry in the next free position.
        if i + n < 2 * n {
            let (s, c) = adc(out[i + n], carry, 0);
            out[i + n] = s;
            debug_assert_eq!(c, 0, "cross-product rows cannot overflow here");
        }
    }
    // Double the cross products.
    let mut carry: Limb = 0;
    for limb in out.iter_mut() {
        let (doubled, next) = shl_step(*limb, 1, carry);
        *limb = doubled;
        carry = next;
    }
    debug_assert_eq!(carry, 0, "top bit is free: cross products < 2^(128n-1)");
    // Add the diagonal squares.
    let mut carry: Limb = 0;
    for i in 0..n {
        let sq = u128::from(a[i]) * u128::from(a[i]);
        let (lo, c1) = adc(out[2 * i], sq as Limb, carry);
        out[2 * i] = lo;
        let (hi, c2) = adc(out[2 * i + 1], (sq >> 64) as Limb, c1);
        out[2 * i + 1] = hi;
        carry = c2;
    }
    debug_assert_eq!(carry, 0, "square fits in 2n limbs");
    Nat::from_limbs(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed.wrapping_mul(0xA24BAED4963EE407) | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                x.wrapping_mul(0x2545F4914F6CDD1D)
            })
            .collect();
        Nat::from_limbs(v)
    }

    #[test]
    fn basecase_matches_mul() {
        for n in 1..=32usize {
            let a = pattern(n, n as u64);
            assert_eq!(sqr_basecase(a.limbs()), &a * &a, "n={n}");
        }
    }

    #[test]
    fn basecase_saturated_limbs() {
        // All-ones operands stress the doubling carry chain.
        let a = Nat::from_limbs(vec![u64::MAX; 16]);
        assert_eq!(sqr_basecase(a.limbs()), &a * &a);
    }

    #[test]
    fn ladder_square_matches_mul() {
        for n in [33usize, 64, 95, 200, 500] {
            let a = pattern(n, 7);
            assert_eq!(a.square_fast(), &a * &a, "n={n}");
        }
    }

    #[test]
    fn square_of_edge_values() {
        assert!(Nat::zero().square_fast().is_zero());
        assert_eq!(Nat::one().square_fast(), Nat::one());
        let p = Nat::power_of_two(4096);
        assert_eq!(p.square_fast(), Nat::power_of_two(8192));
    }
}
