//! MPApca — the Cambricon-P runtime library (§V-C).
//!
//! MPApca realizes the essential operators (addition, subtraction,
//! multiplication, bit-shifts) plus high-level operators (inner product,
//! division, square root, Montgomery exponentiation) on the device, and —
//! like GMP — selects fast multiplication algorithms at runtime by
//! comparing operand bitwidths against tuned thresholds. Because the
//! hardware multiplies monolithically up to `max_monolithic_bits`, the
//! schoolbook range disappears entirely and every fast-algorithm threshold
//! is *delayed* relative to GMP's (§VII-B) — that delay is the source of
//! the big speedups in Figure 11.
//!
//! [`Device`] is the application-facing handle: results are bit-exact
//! (computed with the `apc_bignum` oracle, which the structural model in
//! [`crate::accelerator`] is validated against), while cycles/energy come
//! from the calibrated analytic model.

use crate::accelerator::Accelerator;
use crate::config::ArchConfig;
use crate::stats::{DeviceStats, OpClass};
use apc_bignum::nat::mont::MontgomeryCtx;
use apc_bignum::Nat;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// MPApca's fast-multiplication thresholds, in operand bits.
///
/// Below `toom2` the hardware multiplies monolithically (no software
/// decomposition at all). Every boundary is half-open in the same way: a
/// size *below* a threshold uses the algorithm of the range beneath it,
/// and the threshold itself belongs to the range above. The defaults
/// scale the paper's narrative: native coverage below 35,904 bits, Toom
/// ranges above, SSA at the top (§VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MpapcaThresholds {
    /// Below this: monolithic hardware multiplication.
    pub toom2: u64,
    /// Below this (and ≥ `toom2`): Toom-2 (Karatsuba).
    pub toom3: u64,
    /// Below this: Toom-3.
    pub toom4: u64,
    /// Below this: Toom-4.
    pub toom6: u64,
    /// Below this: Toom-6; at or above: SSA (with 2^k padding).
    pub ssa: u64,
}

impl Default for MpapcaThresholds {
    fn default() -> Self {
        MpapcaThresholds {
            toom2: 35_904,
            toom3: 120_000,
            toom4: 420_000,
            toom6: 1_500_000,
            ssa: 6_000_000,
        }
    }
}

/// Which multiplication routine MPApca picks for a given size (§VII-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MpapcaAlgorithm {
    /// Monolithic hardware multiplication (no decomposition).
    Monolithic,
    /// Toom-2 (Karatsuba) over device sub-multiplications.
    Toom2,
    /// Toom-3.
    Toom3,
    /// Toom-4.
    Toom4,
    /// Toom-6.
    Toom6,
    /// Schönhage–Strassen with power-of-two padding.
    Ssa,
}

impl MpapcaThresholds {
    /// Selects the algorithm for `bits`-bit balanced operands (§VII-B).
    /// All five boundaries are strict: `bits` below a threshold selects
    /// the range beneath it, exactly as the field docs state.
    pub fn select(&self, bits: u64) -> MpapcaAlgorithm {
        if bits < self.toom2 {
            MpapcaAlgorithm::Monolithic
        } else if bits < self.toom3 {
            MpapcaAlgorithm::Toom2
        } else if bits < self.toom4 {
            MpapcaAlgorithm::Toom3
        } else if bits < self.toom6 {
            MpapcaAlgorithm::Toom4
        } else if bits < self.ssa {
            MpapcaAlgorithm::Toom6
        } else {
            MpapcaAlgorithm::Ssa
        }
    }
}

/// An MPApca device handle (§V-C): functional results plus accumulated
/// cycle/energy statistics.
#[derive(Debug)]
pub struct Device {
    config: ArchConfig,
    thresholds: MpapcaThresholds,
    stats: Mutex<DeviceStats>,
}

impl Device {
    /// A device with the given configuration (§VII-A) and default
    /// thresholds.
    pub fn new(config: ArchConfig) -> Device {
        Device {
            config,
            thresholds: MpapcaThresholds::default(),
            stats: Mutex::new(DeviceStats::default()),
        }
    }

    /// A device with the paper's configuration (§VII-A).
    pub fn new_default() -> Device {
        Device::new(ArchConfig::default())
    }

    /// Overrides the fast-algorithm thresholds (for §VII-B ablations).
    pub fn with_thresholds(mut self, thresholds: MpapcaThresholds) -> Device {
        self.thresholds = thresholds;
        self
    }

    /// The architecture configuration (§VII-A).
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The threshold table in use (§VII-B).
    pub fn thresholds(&self) -> &MpapcaThresholds {
        &self.thresholds
    }

    /// A copy of the accumulated statistics (§VII-B accounting), taken
    /// under the stats lock, so it is safe to call while other threads
    /// are issuing operations on the same handle. Take one before and
    /// one after a batch of operations, and [`DeviceStats::delta_since`]
    /// yields the batch's exact service cost.
    pub fn stats(&self) -> DeviceStats {
        self.lock_stats().clone()
    }

    /// Total device cycles accumulated so far (§VII-A clock), read under
    /// the stats lock like [`Device::stats`] but without copying the rest
    /// of them. The difference of two reads brackets the cycles charged
    /// in between.
    pub fn cycles(&self) -> u64 {
        self.lock_stats().cycles
    }

    /// Clears the accumulated statistics (§VII-B accounting).
    pub fn reset_stats(&self) {
        *self.lock_stats() = DeviceStats::default();
    }

    /// Seconds of device time accumulated so far (§VII-A clock).
    pub fn seconds(&self) -> f64 {
        self.lock_stats().seconds(&self.config)
    }

    /// Energy in joules accumulated so far (§VII-A power model).
    pub fn energy_joules(&self) -> f64 {
        self.lock_stats().energy_joules(&self.config)
    }

    fn lock_stats(&self) -> MutexGuard<'_, DeviceStats> {
        self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }

    // ------------------------------------------------------------------
    // Essential operators
    // ------------------------------------------------------------------

    /// Long addition: addends scattered across PEs, carries resolved by
    /// the chained Gather Units (§V-C).
    pub fn add(&self, a: &Nat, b: &Nat) -> Nat {
        let r = a + b;
        let cycles = self.linear_cycles(r.bit_len());
        self.record(OpClass::AddSub, cycles, (a.bit_len() + b.bit_len() + r.bit_len()) / 8);
        r
    }

    /// Long subtraction (`a − b`): the subtrahend's bitflow is inverted
    /// and an initial carry injected (§V-C).
    ///
    /// # Panics
    ///
    /// Panics if `b > a`.
    pub fn sub(&self, a: &Nat, b: &Nat) -> Nat {
        #[expect(
            clippy::expect_used,
            reason = "documented operator panic (see # Panics above)"
        )]
        let r = a.checked_sub(b).expect("device subtraction underflow");
        let cycles = self.linear_cycles(a.bit_len());
        self.record(OpClass::AddSub, cycles, (a.bit_len() + b.bit_len() + r.bit_len()) / 8);
        r
    }

    /// Bit-shift left: "translated into timing delays or advancements with
    /// no extra overhead" (§V-C) — one cycle of control.
    pub fn shl(&self, a: &Nat, bits: u64) -> Nat {
        self.record(OpClass::Shift, 1, 0);
        a.shl_bits(bits)
    }

    /// Bit-shift right, same cost model as [`Device::shl`] (§V-C).
    pub fn shr(&self, a: &Nat, bits: u64) -> Nat {
        self.record(OpClass::Shift, 1, 0);
        a.shr_bits(bits)
    }

    /// Long multiplication with runtime algorithm selection (§V-C, §VII-B).
    pub fn mul(&self, a: &Nat, b: &Nat) -> Nat {
        let cycles = self.mul_cycles(a.bit_len(), b.bit_len());
        let r = a * b;
        self.record(
            OpClass::Mul,
            cycles,
            (a.bit_len() + b.bit_len() + r.bit_len()) / 8,
        );
        r
    }

    /// Squaring — same cost model as multiplication (§V-C).
    pub fn square(&self, a: &Nat) -> Nat {
        self.mul(a, &a.clone())
    }

    /// Long multiplication through the *structural* Fig. 9a pipeline
    /// (Converter → IPUs → GU → Adder Tree) instead of the analytic cycle
    /// model: the result is bit-exact like [`Device::mul`], but the cycles
    /// come from the structural PE(b, w) schedule, and the per-stage
    /// busy-cycle attribution, PE-grid occupancy and bops tally are folded
    /// into the handle's statistics (§VII utilization analysis) — read
    /// them back via [`DeviceStats::pe_utilization`],
    /// `DeviceStats::stage_cycles` and `DeviceStats::bops`.
    /// Much slower than [`Device::mul`]; intended for calibration and
    /// observability runs, not application-scale workloads.
    pub fn mul_structural(&self, a: &Nat, b: &Nat) -> Nat {
        let out = Accelerator::new(self.config.clone()).multiply(a, b);
        let mut stats = self.lock_stats();
        stats.record_stages(&out.stages, out.pe_passes, out.pe_slots);
        stats.bops.merge(&out.tally);
        stats.record(
            OpClass::Mul,
            out.cycles,
            (a.bit_len() + b.bit_len() + out.product.bit_len()) / 8,
        );
        out.product
    }

    /// Arbitrary-precision inner product — the device's native primitive
    /// (§V-C): all element products run as one batch across the PE array.
    pub fn inner_product(&self, xs: &[Nat], ys: &[Nat]) -> Nat {
        assert_eq!(xs.len(), ys.len(), "inner product arity mismatch");
        let mut acc = Nat::zero();
        let mut cycles = 0;
        for (x, y) in xs.iter().zip(ys) {
            cycles += self.mul_cycles(x.bit_len(), y.bit_len());
            acc = &acc + &(x * y.clone());
        }
        cycles += self.linear_cycles(acc.bit_len());
        self.record(OpClass::InnerProduct, cycles, acc.bit_len() / 4);
        acc
    }

    /// Polynomial convolution of two coefficient vectors — one of the
    /// high-level operators MPApca provides directly (§V-C), and the form
    /// every monolithic multiplication takes internally (Eq. 1).
    ///
    /// # Panics
    ///
    /// Panics if either vector is empty.
    pub fn convolution(&self, xs: &[Nat], ys: &[Nat]) -> Vec<Nat> {
        assert!(!xs.is_empty() && !ys.is_empty(), "empty convolution");
        let out = crate::transform::convolve(xs, ys);
        // Cycle model: every coefficient pair is one multiplication,
        // batch-scheduled across the PE array (fill amortized), plus a
        // linear gather of each output coefficient.
        let mut cycles = self.config.pipeline_fill_cycles;
        for x in xs {
            for y in ys {
                cycles += self
                    .mul_cycles(x.bit_len().max(1), y.bit_len().max(1))
                    .saturating_sub(self.config.pipeline_fill_cycles);
            }
        }
        let out_bits: u64 = out.iter().map(Nat::bit_len).sum();
        cycles += self.linear_cycles(out_bits.max(1));
        let bytes: u64 = xs.iter().chain(ys).map(|v| v.bit_len() / 8).sum();
        self.record(OpClass::InnerProduct, cycles, bytes);
        out
    }

    /// Batch multiplication — the CGBN-style scenario of Table III. The
    /// PE array is partitioned across the batch via the Fig. 10 FA-disable
    /// combination modes; because the datapath is bit-serial and already
    /// streams back to back, the per-operation cost is the *same* as in
    /// monolithic mode (Table III: 1.60×10⁻⁸ s vs CGBN's amortized
    /// 1.56×10⁻⁸ — "the same throughput") — the device simply does not
    /// need batching, which is its generality advantage over CGBN.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty.
    pub fn batch_mul(&self, pairs: &[(Nat, Nat)]) -> Vec<Nat> {
        assert!(!pairs.is_empty(), "empty batch");
        let mut results = Vec::with_capacity(pairs.len());
        let mut cycles = 0u64;
        let mut bytes = 0u64;
        for (a, b) in pairs {
            cycles += self.mul_cycles(a.bit_len(), b.bit_len());
            bytes += (a.bit_len() + b.bit_len()) / 4;
            results.push(a * b);
        }
        self.record(OpClass::Mul, cycles, bytes);
        results
    }

    // ------------------------------------------------------------------
    // High-level operators (§V-C: division, square root, Montgomery)
    // ------------------------------------------------------------------

    /// Division with remainder (§V-C), by Newton–Raphson reciprocal
    /// iteration composed from device multiplications.
    ///
    /// # Panics
    ///
    /// Panics if `b` is zero.
    pub fn divrem(&self, a: &Nat, b: &Nat) -> (Nat, Nat) {
        let (q, r) = a.divrem(b);
        let cycles = self.div_cycles(a.bit_len(), b.bit_len());
        self.record(
            OpClass::Div,
            cycles,
            (a.bit_len() + b.bit_len() + q.bit_len()) / 8,
        );
        (q, r)
    }

    /// Integer square root with remainder (§V-C): Karatsuba square root
    /// over device multiplications.
    pub fn sqrt_rem(&self, a: &Nat) -> (Nat, Nat) {
        let (s, r) = a.sqrt_rem();
        let cycles = self.sqrt_cycles(a.bit_len());
        self.record(OpClass::Sqrt, cycles, (a.bit_len() + s.bit_len()) / 8);
        (s, r)
    }

    /// Modular exponentiation by Montgomery reduction (§V-C lists
    /// *Montgomery reduction* among MPApca's high-level operators).
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is even or < 3 (Montgomery requirement).
    pub fn pow_mod(&self, base: &Nat, exp: &Nat, modulus: &Nat) -> Nat {
        let ctx = MontgomeryCtx::new(modulus.clone());
        let r = ctx.pow_mod(base, exp);
        // Cost model: e squarings + ~e/4 windowed multiplies, each a
        // modular multiply = full multiply + REDC (another multiply's
        // worth of limb MACs).
        let n = modulus.bit_len();
        let e = exp.bit_len().max(1);
        let mont_mul = 2 * self.mul_cycles(n, n);
        let cycles = e * mont_mul + (e / 4 + 1) * mont_mul;
        self.record(OpClass::Mul, cycles, (2 * n + e) / 8);
        r
    }

    // ------------------------------------------------------------------
    // Cycle models
    // ------------------------------------------------------------------

    /// Cycles for an O(n) pass (addition, gather): the core data bus moves
    /// `2·q` bitflows per PE per cycle.
    fn linear_cycles(&self, bits: u64) -> u64 {
        let lanes = (self.config.n_pe as u64) * u64::from(self.config.q) * 2;
        bits.div_ceil(lanes).max(1) + 1
    }

    /// Cycles for one monolithic hardware multiplication.
    fn monolithic_cycles(&self, na: u64, nb: u64) -> u64 {
        let l = u64::from(self.config.limb_bits);
        let macs = na.div_ceil(l).max(1) * nb.div_ceil(l).max(1);
        (macs as f64 / self.config.peak_limb_macs_per_cycle()).ceil() as u64
            + self.config.pipeline_fill_cycles
    }

    /// Cycles for a multiplication of `na × nb` bits under MPApca's
    /// algorithm selection (recursive over the fast-algorithm ladder,
    /// §VII-B).
    pub fn mul_cycles(&self, na: u64, nb: u64) -> u64 {
        let n = na.max(nb).max(1);
        // Unbalanced operands: block the long one by the short one.
        let short = na.min(nb).max(1);
        if n > 2 * short && n >= self.thresholds.toom2 {
            let blocks = n.div_ceil(short);
            return blocks * self.mul_cycles(short, short) + self.linear_cycles(n);
        }
        match self.thresholds.select(n) {
            MpapcaAlgorithm::Monolithic => self.monolithic_cycles(na, nb),
            MpapcaAlgorithm::Toom2 => {
                3 * self.mul_cycles(n / 2 + 1, n / 2 + 1) + 8 * self.linear_cycles(n)
            }
            MpapcaAlgorithm::Toom3 => {
                5 * self.mul_cycles(n / 3 + 1, n / 3 + 1) + 16 * self.linear_cycles(n)
            }
            MpapcaAlgorithm::Toom4 => {
                7 * self.mul_cycles(n / 4 + 1, n / 4 + 1) + 24 * self.linear_cycles(n)
            }
            MpapcaAlgorithm::Toom6 => {
                11 * self.mul_cycles(n / 6 + 1, n / 6 + 1) + 40 * self.linear_cycles(n)
            }
            MpapcaAlgorithm::Ssa => self.ssa_cycles(n),
        }
    }

    /// SSA on the device: MPApca "always pads the bitwidth of inputs to
    /// the next 2^k and does calculations on the paddings" (§VII-B) —
    /// the padding is what produces Figure 11's zigzag.
    fn ssa_cycles(&self, n: u64) -> u64 {
        let padded = n.next_power_of_two();
        let total = 2 * padded; // product bits
        let log_k = (63 - total.leading_zeros() as u64) / 2;
        let k = 1u64 << log_k;
        let piece = total.div_ceil(k);
        let ring = (2 * piece + log_k + 2).next_multiple_of(k.max(64));
        // Every butterfly stage re-streams all K ring residues through the
        // Memory Agents: the device cannot keep the FFT working set
        // on-chip, so each of the 3·log K stages (2 forward + 1 inverse
        // transform) is bandwidth-bound at the effective LLC rate. This —
        // together with the 2^k padding — is why the paper's SSA-range
        // speedup falls to 3.87–14.89× (§VII-B).
        let bits_per_cycle = (self.config.effective_bandwidth_bytes() * 8.0
            / (self.config.clock_ghz * 1e9)) as u64; // 1024 at defaults
        let stream = ring.div_ceil(bits_per_cycle).max(1);
        // Each butterfly stage reads and writes every residue.
        let butterflies = 3 * k * log_k * 2 * stream;
        // K pointwise ring multiplications, each paying gather/scatter of
        // both operands and the result between the FFT layout and the PEs.
        let pointwise = k * (self.mul_cycles(ring, ring) + 4 * stream);
        // The paper's footnote 1: MPApca's SSA "lacks a fine-grained
        // policy" (always pads to 2^k, no tuned parameter table like
        // GMP's) — an implementation-maturity factor of ~2 on the whole
        // transform, which is what pulls the SSA-range speedup down to
        // the reported 3.87–14.89×.
        const SSA_SOFTWARE_FACTOR: u64 = 2;
        SSA_SOFTWARE_FACTOR * (butterflies + pointwise + self.linear_cycles(total) * 4)
    }

    /// Division cycle model: Newton reciprocal iterations double precision
    /// each step (two multiplies per step) plus the final quotient and
    /// remainder multiplies.
    fn div_cycles(&self, na: u64, nb: u64) -> u64 {
        let n = na.max(nb);
        let mut cycles = 0;
        let mut p = 64u64;
        while p < n {
            p *= 2;
            cycles += 2 * self.mul_cycles(p.min(n), p.min(n));
        }
        cycles + 2 * self.mul_cycles(n, n) + self.linear_cycles(n)
    }

    /// Square-root cycle model: one reciprocal-sqrt Newton ladder (~1.5
    /// multiplies per doubling) plus the final squaring check.
    fn sqrt_cycles(&self, n: u64) -> u64 {
        let mut cycles = 0;
        let mut p = 64u64;
        while p < n {
            p *= 2;
            cycles += 3 * self.mul_cycles(p.min(n) / 2 + 1, p.min(n) / 2 + 1);
        }
        cycles + self.mul_cycles(n / 2 + 1, n / 2 + 1) + self.linear_cycles(n)
    }

    fn record(&self, class: OpClass, cycles: u64, llc_bytes: u64) {
        self.lock_stats().record(class, cycles, llc_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bops::BopsTally;

    #[test]
    fn convolution_matches_polynomial_product() {
        // Convolving coefficient vectors == multiplying the polynomials:
        // check against recomposition at a wide-enough radix.
        let d = Device::new_default();
        let xs: Vec<Nat> = [3u64, 1, 4, 1, 5].iter().map(|&v| Nat::from(v)).collect();
        let ys: Vec<Nat> = [2u64, 7, 1].iter().map(|&v| Nat::from(v)).collect();
        let out = d.convolution(&xs, &ys);
        assert_eq!(out.len(), 7);
        // coefficient 0: 3·2 = 6; coefficient 6: 5·1 = 5.
        assert_eq!(out[0].to_u64(), Some(6));
        assert_eq!(out[6].to_u64(), Some(5));
        let lhs = Nat::from_chunks(&out, 64);
        let rhs = Nat::from_chunks(&xs, 64) * Nat::from_chunks(&ys, 64);
        assert_eq!(lhs, rhs);
        assert!(d.stats().ops_for(OpClass::InnerProduct) == 1);
    }

    #[test]
    fn batch_mul_is_correct_and_amortizes_fill() {
        let pairs: Vec<(Nat, Nat)> = (0..50u64)
            .map(|i| {
                (
                    Nat::power_of_two(4096) - Nat::from(i + 1),
                    Nat::power_of_two(4095) + Nat::from(3 * i + 1),
                )
            })
            .collect();
        let batched = Device::new_default();
        let results = batched.batch_mul(&pairs);
        for ((a, b), r) in pairs.iter().zip(&results) {
            assert_eq!(r, &(a * b));
        }
        let one_by_one = Device::new_default();
        for (a, b) in &pairs {
            let _ = one_by_one.mul(a, b);
        }
        // Bit-serial streaming means batch mode costs the same cycles as
        // issuing one by one (the device does not need batching).
        assert_eq!(batched.stats().cycles, one_by_one.stats().cycles);
        // Per-mul time sits at the Table III point: 1.60e-8 s, matching
        // CGBN's amortized 1.56e-8 s ("the same throughput").
        let per_mul = batched.seconds() / 50.0;
        assert!((per_mul - 1.6e-8).abs() < 1e-12, "per-mul {per_mul}");
    }

    #[test]
    fn threshold_selection() {
        let t = MpapcaThresholds::default();
        assert_eq!(t.select(64), MpapcaAlgorithm::Monolithic);
        assert_eq!(t.select(35_903), MpapcaAlgorithm::Monolithic);
        assert_eq!(t.select(35_904), MpapcaAlgorithm::Toom2);
        assert_eq!(t.select(200_000), MpapcaAlgorithm::Toom3);
        assert_eq!(t.select(1_000_000), MpapcaAlgorithm::Toom4);
        assert_eq!(t.select(3_000_000), MpapcaAlgorithm::Toom6);
        assert_eq!(t.select(10_000_000), MpapcaAlgorithm::Ssa);
    }

    #[test]
    fn every_threshold_boundary_is_strict() {
        // The field docs say "Below this: <algorithm>" — so a size exactly
        // at each threshold must already belong to the range above it,
        // consistently across all five boundaries.
        let t = MpapcaThresholds::default();
        for (threshold, below, at) in [
            (t.toom2, MpapcaAlgorithm::Monolithic, MpapcaAlgorithm::Toom2),
            (t.toom3, MpapcaAlgorithm::Toom2, MpapcaAlgorithm::Toom3),
            (t.toom4, MpapcaAlgorithm::Toom3, MpapcaAlgorithm::Toom4),
            (t.toom6, MpapcaAlgorithm::Toom4, MpapcaAlgorithm::Toom6),
            (t.ssa, MpapcaAlgorithm::Toom6, MpapcaAlgorithm::Ssa),
        ] {
            assert_eq!(t.select(threshold - 1), below, "below {threshold}");
            assert_eq!(t.select(threshold), at, "at {threshold}");
        }
    }

    #[test]
    fn device_is_send_and_sync() {
        // Compile-time assertion: the handle must be shareable across
        // threads (its stats sit behind a mutex, not in a RefCell).
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Device>();
    }

    #[test]
    fn one_handle_serves_concurrent_callers() {
        let d = Device::new_default();
        let a = Nat::power_of_two(2048) - Nat::from(19u64);
        let b = Nat::power_of_two(2047) + Nat::from(7u64);
        let threads = 4u64;
        let per_thread = 8u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        assert_eq!(d.mul(&a, &b), &a * &b);
                    }
                });
            }
        });
        let stats = d.stats();
        assert_eq!(stats.ops_for(OpClass::Mul), threads * per_thread);
        let expected_cycles = d.mul_cycles(a.bit_len(), b.bit_len()) * threads * per_thread;
        assert_eq!(stats.cycles, expected_cycles, "no increments lost");
    }

    #[test]
    fn structural_mul_feeds_stage_attribution() {
        let d = Device::new_default();
        let a = Nat::power_of_two(2048) - Nat::from(19u64);
        let b = Nat::power_of_two(2047) + Nat::from(7u64);
        assert_eq!(d.mul_structural(&a, &b), &a * &b);
        let s = d.stats();
        assert_eq!(s.ops_for(OpClass::Mul), 1);
        assert!(s.stage_cycles.converter > 0, "stage counters populated");
        assert!(s.stage_cycles.adder_tree > 0);
        let u = s.pe_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // The run's bops tally reaches the handle's statistics.
        assert_eq!(s.bops, Accelerator::new_default().multiply(&a, &b).tally);
        // The analytic path leaves stage and bops counters untouched.
        let analytic = Device::new_default();
        let _ = analytic.mul(&a, &b);
        assert_eq!(analytic.stats().pe_slots, 0);
        assert_eq!(analytic.stats().bops, BopsTally::default());
    }

    #[test]
    fn table_iii_calibration() {
        // 4096×4096-bit monolithic multiply = 32 cycles = 16 ns at 2 GHz.
        let d = Device::new_default();
        assert_eq!(d.mul_cycles(4096, 4096), 32);
    }

    #[test]
    fn functional_results_are_exact() {
        let d = Device::new_default();
        let a = Nat::power_of_two(5000) - Nat::from(17u64);
        let b = Nat::power_of_two(4999) + Nat::from(12345u64);
        assert_eq!(d.mul(&a, &b), &a * &b);
        assert_eq!(d.add(&a, &b), &a + &b);
        assert_eq!(d.sub(&a, &b), &a - &b);
        let (q, r) = d.divrem(&a, &b);
        assert_eq!(&(&q * &b) + &r, a);
        let (s, rem) = d.sqrt_rem(&b);
        assert_eq!(&(&s * &s) + &rem, b);
    }

    #[test]
    fn stats_accumulate_by_class() {
        let d = Device::new_default();
        let a = Nat::from(12345u64);
        let b = Nat::from(678u64);
        let _ = d.mul(&a, &b);
        let _ = d.add(&a, &b);
        let _ = d.shl(&a, 10);
        let s = d.stats();
        assert_eq!(s.ops_for(OpClass::Mul), 1);
        assert_eq!(s.ops_for(OpClass::AddSub), 1);
        assert_eq!(s.ops_for(OpClass::Shift), 1);
        assert!(s.cycles_for(OpClass::Mul) >= 17);
        d.reset_stats();
        assert_eq!(d.stats().cycles, 0);
    }

    #[test]
    fn mul_cycles_monotone_in_size() {
        let d = Device::new_default();
        let mut prev = 0;
        for bits in [1_000u64, 10_000, 35_904, 100_000, 500_000, 2_000_000, 8_000_000] {
            let c = d.mul_cycles(bits, bits);
            assert!(c > prev, "cycles must grow with size (bits={bits})");
            prev = c;
        }
    }

    #[test]
    fn ssa_padding_produces_zigzag() {
        // Just past a power of two, SSA pads up: cost is flat across the
        // padded range, then jumps.
        let d = Device::new_default();
        // 8.5M and 12M bits both pad to 2^24.
        let below = d.mul_cycles(8_500_000, 8_500_000);
        let above = d.mul_cycles(12_000_000, 12_000_000);
        assert_eq!(
            below, above,
            "both sizes pad to the same 2^k, so SSA cost is identical"
        );
        let next = d.mul_cycles(17_000_000, 17_000_000); // pads to 2^25
        assert!(next > below);
    }

    #[test]
    fn shifts_are_nearly_free() {
        let d = Device::new_default();
        let a = Nat::power_of_two(1_000_000);
        let _ = d.shl(&a, 123_456);
        assert_eq!(d.stats().cycles_for(OpClass::Shift), 1);
    }

    #[test]
    fn pow_mod_matches_software() {
        let d = Device::new_default();
        let m = Nat::from(1_000_000_007u64);
        let r = d.pow_mod(&Nat::from(2u64), &Nat::from(100u64), &m);
        assert_eq!(r.to_u64(), Some(976_371_285));
        assert!(d.stats().cycles > 0);
    }

    #[test]
    fn every_operator_call_counts_as_one_op_of_its_class() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // ModExp is accounted as a multiplication (as `apc_serve::Job`
        // classifies it); no operator may record a second, hidden op.
        let d = Device::new_default();
        let mut rng = StdRng::seed_from_u64(0x0B5C);
        let mut calls = Vec::new();
        for _ in 0..40 {
            let a = Nat::random_exact_bits(rng.gen_range(64..2048), &mut rng);
            let b = Nat::random_exact_bits(rng.gen_range(64..1024), &mut rng);
            let class = match rng.gen_range(0..4u32) {
                0 => {
                    assert_eq!(d.mul(&a, &b), &a * &b);
                    OpClass::Mul
                }
                1 => {
                    let (q, r) = d.divrem(&a, &b);
                    assert_eq!(&(&q * &b) + &r, a);
                    OpClass::Div
                }
                2 => {
                    let (s, r) = d.sqrt_rem(&a);
                    assert_eq!(&(&s * &s) + &r, a);
                    OpClass::Sqrt
                }
                _ => {
                    let modulus = b.with_bit(0, true);
                    let exp = Nat::random_exact_bits(64, &mut rng);
                    let _ = d.pow_mod(&a, &exp, &modulus);
                    OpClass::Mul
                }
            };
            calls.push(class);
        }
        let stats = d.stats();
        for class in OpClass::ALL {
            let made = calls.iter().filter(|&&c| c == class).count() as u64;
            assert_eq!(stats.ops_for(class), made, "{}", class.name());
        }
    }

    #[test]
    fn unbalanced_mul_blocks_by_short_side() {
        let d = Device::new_default();
        // 1M × 40k: should cost about 25 × (40k×40k) rather than a full
        // balanced 1M×1M.
        let unbal = d.mul_cycles(1_000_000, 40_000);
        let bal = d.mul_cycles(1_000_000, 1_000_000);
        assert!(unbal * 3 < bal, "unbalanced {unbal} vs balanced {bal}");
    }

    #[test]
    fn energy_tracks_cycles() {
        let d = Device::new_default();
        let a = Nat::power_of_two(100_000);
        let _ = d.mul(&a, &a);
        let e = d.energy_joules();
        let t = d.seconds();
        assert!(e > 0.0 && t > 0.0);
        // Power = E/t should be near the configured wattage plus LLC cost.
        assert!(e / t >= 3.0, "effective power {}", e / t);
    }
}
