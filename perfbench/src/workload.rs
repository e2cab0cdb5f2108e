//! Seeded inputs for the two workloads and their apc-bignum oracle
//! answers.
//!
//! Every input is a pure function of `(seed, index)`, so one seed always
//! gives the same job list. Operands have their top bit set: the modeled
//! cycle cost depends only on operand widths, so every round of a
//! workload costs the same number of modeled cycles.

use apc_bignum::Nat;
use apc_serve::{Job, JobOutput};

/// The workloads `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 2048×2048-bit `Job::Mul` over the wire stack; compute is a few µs
    /// of a ~70 µs round trip, so wire, admission and routing dominate.
    WireMul,
    /// `Device::mul_structural` at 1024..8192 bits, half with a reused
    /// left operand: the Fig. 9a kernels and the pattern cache.
    StructuralMul,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "wire-mul" => Some(Workload::WireMul),
            "structural-mul" => Some(Workload::StructuralMul),
            _ => None,
        }
    }

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireMul => "wire-mul",
            Workload::StructuralMul => "structural-mul",
        }
    }
}

/// SplitMix64: a tiny, fixed, dependency-free generator, so the inputs
/// of a seed never change with a library upgrade.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream)` pair.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random natural of exactly `bits` bits (top bit set).
    pub fn nat(&mut self, bits: u64) -> Nat {
        assert!(bits >= 1, "a natural needs at least one bit");
        let limbs = bits.div_ceil(64);
        let mut v: Vec<u64> = (0..limbs).map(|_| self.next_u64()).collect();
        let top_bits = bits - 64 * (limbs - 1);
        let top = v.last_mut().expect("at least one limb");
        if top_bits < 64 {
            *top &= (1u64 << top_bits) - 1;
        }
        *top |= 1u64 << (top_bits - 1);
        Nat::from_limbs(v)
    }
}

/// One wire-mul job with its precomputed oracle answer.
#[derive(Debug, Clone)]
pub struct Case {
    /// The operands of the `Job::Mul` submitted.
    pub a: Nat,
    pub b: Nat,
    /// The product apc-bignum computes, without any layer of the device
    /// stack.
    pub expected: Nat,
}

impl Case {
    /// The job as submitted.
    pub fn job(&self) -> Job {
        Job::Mul {
            a: self.a.clone(),
            b: self.b.clone(),
        }
    }

    /// Whether a layer's answer is the oracle's.
    pub fn answers(&self, output: &JobOutput) -> bool {
        matches!(output, JobOutput::Product(p) if *p == self.expected)
    }
}

/// Jobs per round of wire-mul: a run stops only at a round boundary.
pub const WIRE_MUL_ROUND: usize = 256;
/// Distinct wire-mul jobs, cycled through during a run.
pub const WIRE_MUL_POOL: usize = 4096;
/// wire-mul operand width.
pub const WIRE_MUL_BITS: u64 = 2048;

/// The wire-mul pool: seeded 2048×2048-bit multiplications.
pub fn wire_mul_pool(seed: u64) -> Vec<Case> {
    let mut rng = Rng::new(seed, 1);
    (0..WIRE_MUL_POOL)
        .map(|_| {
            let a = rng.nat(WIRE_MUL_BITS);
            let b = rng.nat(WIRE_MUL_BITS);
            let expected = &a * &b;
            Case { a, b, expected }
        })
        .collect()
}

/// structural-mul operand widths.
pub const STRUCTURAL_SIZES: [u64; 4] = [1024, 2048, 4096, 8192];
/// Calls per size in one structural-mul round, weighted so that each size
/// takes a similar share of host time (the Sliced64 kernels cost roughly
/// 1 : 3.7 : 13 : 42 across the sizes). Each count is even: half the calls
/// reuse the size's fixed left operand, half are fresh.
pub const STRUCTURAL_WEIGHTS: [usize; 4] = [80, 24, 6, 2];

/// One structural-mul call.
#[derive(Debug, Clone)]
pub struct MulCase {
    /// Index into [`STRUCTURAL_SIZES`].
    pub size: usize,
    /// Whether the left operand is the size's fixed, reused one.
    pub reused: bool,
    /// Left operand (the pattern-table source of Fig. 8).
    pub a: Nat,
    /// Right operand.
    pub b: Nat,
    /// The product apc-bignum computes.
    pub expected: Nat,
}

/// The fixed left operand of each size, reused by half the calls (the
/// RSA-modulus shape whose Fig. 8 pattern tables could be kept).
pub fn structural_fixed(seed: u64) -> Vec<Nat> {
    let mut rng = Rng::new(seed, 3);
    STRUCTURAL_SIZES.iter().map(|&bits| rng.nat(bits)).collect()
}

/// Round `round` of structural-mul: every size's calls, interleaved so
/// that each reused operand comes back before the pattern cache could
/// age it out. Fresh operands are new in every round.
pub fn structural_round(seed: u64, round: u64, fixed: &[Nat]) -> Vec<MulCase> {
    let mut rng = Rng::new(seed, 0x1_0000 + round);
    let total: usize = STRUCTURAL_WEIGHTS.iter().sum();
    let mut emitted = [0usize; 4];
    let mut calls = Vec::with_capacity(total);
    for step in 0..total {
        // Largest-remainder interleave: emit the size furthest behind its
        // share of the round so far.
        let size = (0..STRUCTURAL_SIZES.len())
            .filter(|&s| emitted[s] < STRUCTURAL_WEIGHTS[s])
            .max_by(|&x, &y| {
                let lag = |s: usize| {
                    (step + 1) as f64 * STRUCTURAL_WEIGHTS[s] as f64 / total as f64
                        - emitted[s] as f64
                };
                lag(x).total_cmp(&lag(y)).then(y.cmp(&x))
            })
            .expect("a size with calls left");
        let reused = emitted[size] % 2 == 0;
        emitted[size] += 1;
        let bits = STRUCTURAL_SIZES[size];
        let a = if reused {
            fixed[size].clone()
        } else {
            rng.nat(bits)
        };
        let b = rng.nat(bits);
        let expected = &a * &b;
        calls.push(MulCase {
            size,
            reused,
            a,
            b,
            expected,
        });
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_gives_one_job_list() {
        let a = wire_mul_pool(7);
        let b = wire_mul_pool(7);
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.a == y.a && x.b == y.b && x.expected == y.expected));
        let fixed = structural_fixed(7);
        let r1 = structural_round(7, 3, &fixed);
        let r2 = structural_round(7, 3, &structural_fixed(7));
        assert!(r1
            .iter()
            .zip(&r2)
            .all(|(x, y)| x.a == y.a && x.b == y.b && x.reused == y.reused));
        let other = wire_mul_pool(8);
        assert!(a.iter().zip(&other).any(|(x, y)| x.expected != y.expected));
    }

    #[test]
    fn operands_have_exact_widths() {
        let mut rng = Rng::new(1, 1);
        for bits in [1, 63, 64, 65, 2048] {
            assert_eq!(rng.nat(bits).bit_len(), bits);
        }
    }

    #[test]
    fn structural_round_has_its_weights_and_halves() {
        let fixed = structural_fixed(1);
        let round = structural_round(1, 0, &fixed);
        for (s, &w) in STRUCTURAL_WEIGHTS.iter().enumerate() {
            let calls: Vec<_> = round.iter().filter(|c| c.size == s).collect();
            assert_eq!(calls.len(), w);
            assert_eq!(calls.iter().filter(|c| c.reused).count(), w / 2);
            assert!(calls.iter().filter(|c| c.reused).all(|c| c.a == fixed[s]));
        }
    }
}
