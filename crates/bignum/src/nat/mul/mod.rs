//! Long multiplication and its fast-algorithm ladder (Table I of the paper).
//!
//! The ladder mirrors GMP's `mpn` multiply stack: schoolbook O(n²),
//! Karatsuba O(n^1.585), Toom-3/4/6, and Schönhage–Strassen
//! O(n·log n·log log n). A runtime threshold table picks the algorithm from
//! the operand size, exactly as GMP and the paper's MPApca library do
//! ("selects at runtime which fast multiply algorithm is used by comparing
//! the bitwidth of operands to compile-time tuned thresholds", §V-C).

pub mod karatsuba;
pub mod schoolbook;
pub mod ssa;
pub mod toom3;
pub mod toom32;
pub mod toomk;

use super::Nat;
use crate::limb::{mul_add_carry, Limb};
use std::ops::{Mul, MulAssign};

/// Which multiplication routine to use.
///
/// [`MulAlgorithm::Auto`] consults [`Thresholds`]; the named variants force
/// one algorithm recursively down to the schoolbook basecase, which is what
/// the complexity-fit experiment (Table I) measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulAlgorithm {
    /// Pick by operand size using the threshold table (default).
    Auto,
    /// O(n²) basecase.
    Schoolbook,
    /// Toom-2: three half-size products.
    Karatsuba,
    /// Toom-3: five third-size products.
    Toom3,
    /// Toom-4: seven quarter-size products.
    Toom4,
    /// Toom-6: eleven sixth-size products.
    Toom6,
    /// Schönhage–Strassen (FFT over Z/(2^n + 1)).
    Ssa,
}

/// Size thresholds (in 64-bit limbs) at which each algorithm takes over.
///
/// A rung's band runs from its own field to the next rung's; a band
/// whose start equals the next start is empty, and `usize::MAX` keeps a
/// rung (and every rung above it) out of `Auto`.
///
/// Both tables come from the paired sweeps that the `bench_ablations`
/// bin writes to `BENCH_ablations.json`, one section per rung and host
/// thread count: see [`Thresholds::SEQUENTIAL`] and
/// [`Thresholds::PARALLEL`]. `Default` is the table for the build: with
/// the `parallel` feature, Toom-4, Toom-6 and SSA fork their
/// sub-products across the pool, which moves their crossovers down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Thresholds {
    /// Below this, schoolbook.
    pub karatsuba: usize,
    /// Below this (and at/above `karatsuba`), Karatsuba.
    pub toom3: usize,
    /// Below this, Toom-3.
    pub toom4: usize,
    /// Below this, Toom-4.
    pub toom6: usize,
    /// Below this, Toom-6; at/above, SSA.
    pub ssa: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        if crate::par::parallel_enabled() {
            Thresholds::PARALLEL
        } else {
            Thresholds::SEQUENTIAL
        }
    }
}

impl Thresholds {
    /// The ladder on one host thread, the default without the
    /// `parallel` feature.
    ///
    /// A sweep section times one level of its rung over this ladder
    /// against the rung `Auto` runs there when the rung's band is taken
    /// out. The rung clearly wins at a swept size when it is faster in at
    /// least three of four paired rounds (the third quartile of the
    /// per-round time ratio is below 1) and clearly loses when it is
    /// slower in three of four; anything else is a tie. A threshold
    /// stands while its rung only ties around it. Otherwise it moves to
    /// the crossover, the smallest swept size from which the rung clearly
    /// wins at every larger one. A rung that never clearly wins has no
    /// band.
    ///
    /// Measured on a shared 2-vCPU host (`BENCH_ablations.json`, the
    /// sections with `threads` = 1):
    ///
    /// - `karatsuba` = 44. The basecase clearly wins up to 32 limbs and
    ///   one Karatsuba level clearly from 64. From 40 to 56 limbs the two
    ///   are within about 6% of each other, so the threshold stands.
    /// - One Toom-3 level loses to Karatsuba up to 1536 limbs and is at
    ///   most 2.5% faster above. One Toom-4 level wins by 4–14% from 3072
    ///   limbs, and one Toom-6 level by 2% at 3072 and 13–26% from 6144.
    ///   Toom-6 takes over at 3072, which leaves Toom-3 and Toom-4 no
    ///   band.
    /// - SSA is 2.9–4.0× slower than Toom-6 at every swept size up to
    ///   24576 limbs, so it stays out of `Auto`.
    pub const SEQUENTIAL: Thresholds = Thresholds {
        karatsuba: 44,
        toom3: 3072,
        toom4: 3072,
        toom6: 3072,
        ssa: usize::MAX,
    };

    /// The ladder when Toom-4, Toom-6 and SSA fork their sub-products
    /// across a pool of two threads, the default with the `parallel`
    /// feature. It is swept as [`Thresholds::SEQUENTIAL`] is, with every
    /// fork taken.
    ///
    /// Measured on the same host (the sections with `threads` = 2):
    ///
    /// - Schoolbook and Karatsuba never fork, so `karatsuba` is the
    ///   sequential one.
    /// - One forked Toom-4 level ties Karatsuba at 1024 limbs (0.91) and
    ///   clearly beats it from 1536 (0.79 there, 0.54–0.62 from 3072).
    ///   Toom-3 does not fork and never clearly wins, so it has no band.
    /// - One forked Toom-6 level loses to forked Toom-4 up to 3072 limbs
    ///   and ties it from 6144 to 24576 (0.94–1.00). It clearly won at
    ///   24576 in the two runs before, which set the threshold there.
    /// - SSA is 4.1–5.7× slower than the forked Toom rungs up to 24576
    ///   limbs, so it stays out of `Auto`.
    pub const PARALLEL: Thresholds = Thresholds {
        karatsuba: 44,
        toom3: 1536,
        toom4: 1536,
        toom6: 24576,
        ssa: usize::MAX,
    };

    /// Chooses the algorithm for balanced operands of `limbs` limbs each.
    pub fn select(&self, limbs: usize) -> MulAlgorithm {
        if limbs < self.karatsuba {
            MulAlgorithm::Schoolbook
        } else if limbs < self.toom3 {
            MulAlgorithm::Karatsuba
        } else if limbs < self.toom4 {
            MulAlgorithm::Toom3
        } else if limbs < self.toom6 {
            MulAlgorithm::Toom4
        } else if limbs < self.ssa {
            MulAlgorithm::Toom6
        } else {
            MulAlgorithm::Ssa
        }
    }
}

impl Nat {
    /// Multiplies by a single limb.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// let n = Nat::from(u64::MAX).mul_limb(2);
    /// assert_eq!(n, Nat::power_of_two(65) - Nat::from(2u64));
    /// ```
    pub fn mul_limb(&self, rhs: u64) -> Nat {
        match rhs {
            0 => Nat::zero(),
            1 => self.clone(),
            _ => {
                let mut out = Vec::with_capacity(self.limb_len() + 1);
                let mut carry: Limb = 0;
                for &l in self.limbs() {
                    let (lo, hi) = mul_add_carry(l, rhs, 0, carry);
                    out.push(lo);
                    carry = hi;
                }
                if carry != 0 {
                    out.push(carry);
                }
                Nat::from_limbs(out)
            }
        }
    }

    /// Multiplies by a 128-bit scalar.
    pub fn mul_u128(&self, rhs: u128) -> Nat {
        let lo = rhs as u64;
        let hi = (rhs >> 64) as u64;
        let mut r = self.mul_limb(lo);
        if hi != 0 {
            r = &r + &self.mul_limb(hi).shl_bits(64);
        }
        r
    }

    /// Multiplies using a forced algorithm (recursively, down to the
    /// schoolbook basecase). Used for the Table I complexity fits and by the
    /// ablation benches.
    ///
    /// ```
    /// use apc_bignum::{MulAlgorithm, Nat};
    /// let a = Nat::power_of_two(10_000) - Nat::one();
    /// let b = Nat::power_of_two(9_000) - Nat::from(12345u64);
    /// let reference = a.mul_with(&b, MulAlgorithm::Schoolbook);
    /// for alg in [
    ///     MulAlgorithm::Karatsuba,
    ///     MulAlgorithm::Toom3,
    ///     MulAlgorithm::Ssa,
    /// ] {
    ///     assert_eq!(a.mul_with(&b, alg), reference);
    /// }
    /// ```
    pub fn mul_with(&self, rhs: &Nat, algorithm: MulAlgorithm) -> Nat {
        mul_dispatch(self, rhs, algorithm, &Thresholds::default())
    }

    /// Squares `self` (dispatches to the dedicated squaring path of
    /// [`Nat::square_fast`]).
    pub fn square(&self) -> Nat {
        self.square_fast()
    }
}

/// Top-level multiply with explicit algorithm choice and thresholds.
pub fn mul_dispatch(a: &Nat, b: &Nat, algorithm: MulAlgorithm, th: &Thresholds) -> Nat {
    if a.is_zero() || b.is_zero() {
        return Nat::zero();
    }
    if a.limb_len() == 1 {
        return b.mul_limb(a.limbs()[0]);
    }
    if b.limb_len() == 1 {
        return a.mul_limb(b.limbs()[0]);
    }
    // Squaring detection: at basecase sizes the dedicated squaring
    // basecase wins; above them the ladder below squares as fast as it
    // multiplies.
    if matches!(algorithm, MulAlgorithm::Auto)
        && a.limb_len() <= super::sqr::SQR_BASECASE_LIMIT
        && a == b
    {
        return super::sqr::sqr_basecase(a.limbs());
    }
    let (big, small) = if a.limb_len() >= b.limb_len() {
        (a, b)
    } else {
        (b, a)
    };
    // Severely unbalanced operands: process the long operand in blocks the
    // size of the short one so the balanced fast algorithms stay efficient.
    if matches!(algorithm, MulAlgorithm::Auto) && big.limb_len() > 2 * small.limb_len() {
        return mul_unbalanced(big, small, th);
    }
    // Moderately unbalanced (between ~1.4:1 and 2:1) above the basecase:
    // the dedicated Toom-3/2 split beats padding a balanced algorithm.
    if matches!(algorithm, MulAlgorithm::Auto)
        && small.limb_len() >= th.karatsuba
        && big.limb_len() * 5 > small.limb_len() * 7
    {
        return toom32::mul(big, small, algorithm, th);
    }
    let n = big.limb_len();
    let mut alg = match algorithm {
        MulAlgorithm::Auto => th.select(n),
        other => other,
    };
    // A k-way split needs at least k limbs (and SSA needs a few) to make
    // progress; degrade gracefully for tiny operands.
    let min_limbs = match alg {
        MulAlgorithm::Toom6 => 6,
        MulAlgorithm::Toom4 => 4,
        MulAlgorithm::Toom3 => 3,
        MulAlgorithm::Karatsuba | MulAlgorithm::Ssa => 2,
        _ => 1,
    };
    if n < min_limbs {
        alg = MulAlgorithm::Schoolbook;
    }
    match alg {
        MulAlgorithm::Schoolbook => schoolbook::mul(big, small),
        MulAlgorithm::Karatsuba => karatsuba::mul(big, small, th),
        MulAlgorithm::Toom3 => toom3::mul(big, small, algorithm, th),
        MulAlgorithm::Toom4 => toomk::mul(big, small, 4, algorithm, th),
        MulAlgorithm::Toom6 => toomk::mul(big, small, 6, algorithm, th),
        MulAlgorithm::Ssa => ssa::mul(big, small),
        MulAlgorithm::Auto => unreachable!("Auto resolved above"),
    }
}

/// Recursion helper: forced algorithms keep forcing themselves while the
/// operands stay above the schoolbook basecase; `Auto` re-selects.
pub(crate) fn mul_recursive(a: &Nat, b: &Nat, algorithm: MulAlgorithm, th: &Thresholds) -> Nat {
    let n = a.limb_len().max(b.limb_len());
    if n < th.karatsuba || a.limb_len().min(b.limb_len()) <= 1 {
        return mul_dispatch(a, b, MulAlgorithm::Schoolbook, th);
    }
    match algorithm {
        MulAlgorithm::Auto => mul_dispatch(a, b, MulAlgorithm::Auto, th),
        forced => {
            // A forced k-way split needs at least k limbs per part to make
            // progress; otherwise fall back down the ladder.
            let min_parts = match forced {
                MulAlgorithm::Toom6 => 6,
                MulAlgorithm::Toom4 => 4,
                MulAlgorithm::Toom3 => 3,
                MulAlgorithm::Karatsuba => 2,
                _ => 1,
            };
            if n < min_parts * 2 {
                mul_dispatch(a, b, MulAlgorithm::Schoolbook, th)
            } else {
                mul_dispatch(a, b, forced, th)
            }
        }
    }
}

fn mul_unbalanced(big: &Nat, small: &Nat, th: &Thresholds) -> Nat {
    let block = small.limb_len();
    let mut acc: Vec<Limb> = vec![0; big.limb_len() + small.limb_len()];
    let mut offset = 0;
    while offset < big.limb_len() {
        let end = (offset + block).min(big.limb_len());
        let chunk = Nat::from_limbs(big.limbs()[offset..end].to_vec());
        if !chunk.is_zero() {
            let p = mul_dispatch(&chunk, small, MulAlgorithm::Auto, th);
            let carry = super::add::add_assign_at(&mut acc, p.limbs(), offset);
            debug_assert_eq!(carry, 0, "accumulator sized to hold full product");
        }
        offset = end;
    }
    Nat::from_limbs(acc)
}

/// Analytic model of intermediate traffic when a Karatsuba multiplication of
/// `n_bits` is decomposed down to `base_bits` limbs (the experiment in §I and
/// §II-C of the paper: a 1,000,000-bit multiplication produces 7.68× more
/// intermediates at 32-bit limbs than at 1024-bit limbs).
///
/// At every recursion node of size `n`, Karatsuba materializes the two
/// half-sums (`n/2 + 1` bits each), three sub-products (`n + 2` bits total
/// each... accounted at the children), and the combination intermediates;
/// we count the bytes of every intermediate value created at that node
/// (the two sums, the three returned products, and the combined result),
/// matching the accounting of Figure 4.
///
/// ```
/// use apc_bignum::nat::mul::karatsuba_intermediate_bytes;
/// let coarse = karatsuba_intermediate_bytes(1_000_000, 1024);
/// let fine = karatsuba_intermediate_bytes(1_000_000, 32);
/// let ratio = fine as f64 / coarse as f64;
/// assert!(ratio > 6.5 && ratio < 9.0, "paper reports 7.68x, got {ratio}");
/// ```
pub fn karatsuba_intermediate_bytes(n_bits: u64, base_bits: u64) -> u128 {
    fn rec(n: u64, base: u64) -> u128 {
        if n <= base {
            // Basecase: the product itself is the only intermediate.
            return u128::from(2 * n);
        }
        let half = n / 2;
        // Intermediates at this node, in bits:
        //   x0+x1, y0+y1           : 2 * (half + 1)
        //   z0, z2 (n bits each), z1 (n + 2) : the children's outputs are
        //     counted here as stored intermediates of this node
        //   combined additions z0 + (z1 << half) + (z2 << n): 2n + 1 working value
        let local = u128::from(2 * (half + 1) + 2 * n + (n + 2) + (2 * n + 1));
        local + 2 * rec(half, base) + rec(half + 1, base)
    }
    rec(n_bits, base_bits).div_ceil(8)
}

impl Mul<&Nat> for &Nat {
    type Output = Nat;

    fn mul(self, rhs: &Nat) -> Nat {
        mul_dispatch(self, rhs, MulAlgorithm::Auto, &Thresholds::default())
    }
}

impl Mul<Nat> for Nat {
    type Output = Nat;

    fn mul(self, rhs: Nat) -> Nat {
        &self * &rhs
    }
}

impl Mul<&Nat> for Nat {
    type Output = Nat;

    fn mul(self, rhs: &Nat) -> Nat {
        &self * rhs
    }
}

impl Mul<Nat> for &Nat {
    type Output = Nat;

    fn mul(self, rhs: Nat) -> Nat {
        self * &rhs
    }
}

impl MulAssign<&Nat> for Nat {
    fn mul_assign(&mut self, rhs: &Nat) {
        *self = &*self * rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat_from_pattern(limbs: usize, seed: u64) -> Nat {
        // Deterministic pseudo-random limbs (splitmix64).
        let mut x = seed;
        let mut v = Vec::with_capacity(limbs);
        for _ in 0..limbs {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            v.push(z ^ (z >> 31));
        }
        Nat::from_limbs(v)
    }

    #[test]
    fn mul_limb_matches_schoolbook() {
        let a = nat_from_pattern(10, 1);
        assert_eq!(a.mul_limb(12345), &a * &Nat::from(12345u64));
        assert!(a.mul_limb(0).is_zero());
        assert_eq!(a.mul_limb(1), a);
    }

    #[test]
    fn mul_u128_matches() {
        let a = nat_from_pattern(5, 3);
        let s = 0x0123_4567_89ab_cdef_fedc_ba98_7654_3210u128;
        assert_eq!(a.mul_u128(s), &a * &Nat::from(s));
    }

    #[test]
    fn zero_and_one_identities() {
        let a = nat_from_pattern(50, 7);
        assert!((&a * &Nat::zero()).is_zero());
        assert_eq!(&a * &Nat::one(), a);
    }

    #[test]
    fn all_algorithms_agree_balanced() {
        for limbs in [2usize, 5, 13, 30, 64, 130, 260] {
            let a = nat_from_pattern(limbs, 11);
            let b = nat_from_pattern(limbs, 23);
            let reference = schoolbook::mul(&a, &b);
            for alg in [
                MulAlgorithm::Auto,
                MulAlgorithm::Karatsuba,
                MulAlgorithm::Toom3,
                MulAlgorithm::Toom4,
                MulAlgorithm::Toom6,
                MulAlgorithm::Ssa,
            ] {
                assert_eq!(
                    a.mul_with(&b, alg),
                    reference,
                    "alg={alg:?} limbs={limbs}"
                );
            }
        }
    }

    #[test]
    fn all_algorithms_agree_unbalanced() {
        let a = nat_from_pattern(100, 31);
        let b = nat_from_pattern(7, 41);
        let reference = schoolbook::mul(&a, &b);
        for alg in [
            MulAlgorithm::Auto,
            MulAlgorithm::Karatsuba,
            MulAlgorithm::Toom3,
            MulAlgorithm::Toom4,
            MulAlgorithm::Toom6,
            MulAlgorithm::Ssa,
        ] {
            assert_eq!(a.mul_with(&b, alg), reference, "alg={alg:?}");
        }
    }

    #[test]
    fn threshold_selection_is_monotone() {
        for th in [Thresholds::SEQUENTIAL, Thresholds::PARALLEL] {
            assert_eq!(th.select(1), MulAlgorithm::Schoolbook);
            let rungs = [
                (th.karatsuba, MulAlgorithm::Karatsuba),
                (th.toom3, MulAlgorithm::Toom3),
                (th.toom4, MulAlgorithm::Toom4),
                (th.toom6, MulAlgorithm::Toom6),
                (th.ssa, MulAlgorithm::Ssa),
            ];
            // An empty band (it starts where the next one does) is never
            // selected; every other rung runs from its own start.
            for (k, &(start, algorithm)) in rungs.iter().enumerate() {
                let next = rungs.get(k + 1).map_or(usize::MAX, |r| r.0);
                assert!(start <= next, "{th:?}");
                if start < next {
                    assert_eq!(th.select(start), algorithm, "{th:?}");
                }
            }
        }
    }

    #[test]
    fn karatsuba_intermediates_ratio_matches_paper() {
        let coarse = karatsuba_intermediate_bytes(1_000_000, 1024);
        let fine = karatsuba_intermediate_bytes(1_000_000, 32);
        let ratio = fine as f64 / coarse as f64;
        // The paper reports 7.68x (223.71 MB vs 1.72 GB).
        assert!((6.5..9.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn square_equals_self_times_self() {
        let a = nat_from_pattern(40, 99);
        assert_eq!(a.square(), &a * &a);
    }

    #[test]
    fn powers_of_two_times_anything() {
        let a = nat_from_pattern(70, 5);
        let p = Nat::power_of_two(1000);
        assert_eq!(&a * &p, a.shl_bits(1000));
    }
}
