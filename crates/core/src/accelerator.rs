//! The full device: 256 PEs + Adder Tree + two-level (CC/PEC) fractal
//! control (Fig. 9a, left).
//!
//! [`Accelerator::multiply`] is the *bit-exact structural model*: it really
//! routes every limb through Converter → IPUs → GU → Adder Tree and is
//! validated against the software oracle. The faster analytic cycle model
//! that MPApca uses for application-scale runs is calibrated against this
//! one (see `mpapca`).

use crate::bops::BopsTally;
use crate::config::ArchConfig;
use crate::converter::{generate_patterns, generate_patterns_sliced, Patterns};
use crate::pattern_cache;
use crate::pe::{pe_pass_sliced, pe_pass_with_patterns};
use crate::stats::StageCycles;
use crate::transform::{reversed_x_words, to_limb_vector, to_limb_words};
use apc_bignum::limb::{Limb, LIMB_BITS};
use apc_bignum::Nat;

/// Which host engine executes the Fig. 9a bitflow stages.
///
/// Both engines model the *same* machine: the modeled schedule, cycle
/// counts, [`StageCycles`] attribution and [`BopsTally`] are
/// bit-identical — only the host arithmetic that evaluates each PE pass
/// differs. `Sliced64` packs 64 bitflow steps into each 64-bit word op
/// (indicator-word IPU selection, word-at-a-time Converter reuse-tree
/// adds, sliced GU carry resolution). `Scalar` is the per-limb
/// big-integer oracle the paper's dataflow (§IV-B, Fig. 9) was first
/// validated against. The configuration alone decides which one
/// [`Accelerator::multiply`] runs (see
/// [`Accelerator::effective_backend`]); [`Accelerator::multiply_scalar`]
/// runs the oracle on any configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelBackend {
    /// Per-limb big-integer kernels — the validation oracle (§IV-B).
    Scalar,
    /// Word-parallel kernels: 64 bitflow steps per host op (§IV-B BIPS
    /// arithmetic restated over whole index words).
    Sliced64,
}

impl KernelBackend {
    /// Short stable name (`scalar` / `sliced64`) for the §VII reports and
    /// traces.
    pub fn name(self) -> &'static str {
        match self {
            KernelBackend::Scalar => "scalar",
            KernelBackend::Sliced64 => "sliced64",
        }
    }
}

/// Whether the Sliced64 engine executes `config` exactly: `q ≤ 16`
/// (pattern table addressability, as in
/// [`crate::converter::generate_patterns`]), `L + ⌈log₂ q⌉ ≤ 64` so every
/// subset-sum pattern fits one word, and `2L + ⌈log₂ q⌉ ≤ 127` so a whole
/// IPU partial sum fits the 128-bit MAC accumulator.
fn sliced_supports(config: &ArchConfig) -> bool {
    let l = u64::from(config.limb_bits);
    let growth = u64::from(config.q.max(1).next_power_of_two().trailing_zeros());
    config.q >= 1
        && config.q <= 16
        && config.limb_bits >= 1
        && config.limb_bits <= LIMB_BITS
        && l + growth <= u64::from(LIMB_BITS)
        && 2 * l + growth <= 127
}

/// A Cambricon-P device instance (structural model of Fig. 9a).
#[derive(Debug, Clone)]
pub struct Accelerator {
    config: ArchConfig,
}

impl Default for Accelerator {
    /// The §VII default configuration.
    fn default() -> Self {
        Accelerator::new(ArchConfig::default())
    }
}

/// Outcome of a structural run through the Fig. 9a pipeline.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The computed product.
    pub product: Nat,
    /// Structural cycle count (PE passes scheduled over the PE array).
    pub cycles: u64,
    /// Total PE passes executed.
    pub pe_passes: u64,
    /// bops accounting across all PEs.
    pub tally: BopsTally,
    /// Per-stage busy-cycle attribution: Converter / IPU / GU cycles scale
    /// with executed passes (skipped zero blocks leave them idle — the
    /// sparsity win), the Adder Tree with scheduled pass groups (§VII
    /// utilization analysis; Fig. 9a stages).
    pub stages: StageCycles,
    /// PE-grid slots scheduled (pass groups × N_PE, §III): the
    /// denominator of [`RunOutcome::pe_utilization`].
    pub pe_slots: u64,
}

impl RunOutcome {
    /// PE-grid utilization for this run: executed passes over scheduled
    /// slots (§VII utilization analysis; 0 for the degenerate zero run).
    pub fn pe_utilization(&self) -> f64 {
        if self.pe_slots == 0 {
            0.0
        } else {
            self.pe_passes as f64 / self.pe_slots as f64
        }
    }
}

/// The host kernel of one PE pass: pattern block `b` against the
/// flattened index words of its IPUs, or `None` when the block is all
/// zero (it has no table and every pass skips it).
type PassKernel<'a> = Box<dyn Fn(usize, &[Limb]) -> Option<(Nat, BopsTally)> + Sync + 'a>;

impl Accelerator {
    /// A device with the given configuration (Fig. 9a organization).
    pub fn new(config: ArchConfig) -> Self {
        Accelerator { config }
    }

    /// A device with the paper's default §VII configuration.
    pub fn new_default() -> Self {
        Accelerator::default()
    }

    /// The §VII configuration in use.
    pub fn config(&self) -> &ArchConfig {
        &self.config
    }

    /// The [`KernelBackend`] that executes this device's Fig. 9a PE
    /// passes. It follows from the configuration alone: Sliced64 inside
    /// its support envelope (`q ≤ 16`, `L + ⌈log₂ q⌉ ≤ 64` so every
    /// subset-sum pattern fits one word, `2L + ⌈log₂ q⌉ ≤ 127` so an IPU
    /// partial sum fits the 128-bit MAC accumulator), Scalar outside it.
    pub fn effective_backend(&self) -> KernelBackend {
        if sliced_supports(&self.config) {
            KernelBackend::Sliced64
        } else {
            KernelBackend::Scalar
        }
    }

    /// Multiplies two naturals through the full bitflow pipeline
    /// (Fig. 9a).
    ///
    /// Decomposition: operand `x` is cut into q-limb *pattern blocks*
    /// (Converter inputs); the convolution outputs are processed in
    /// windows of N_IPU positions; PE(b, w) computes block b's
    /// contribution to window w; the GU gathers each PE's strided outputs
    /// and the Adder Tree sums across blocks.
    ///
    /// ```
    /// use apc_bignum::Nat;
    /// use cambricon_p::accelerator::Accelerator;
    ///
    /// let acc = Accelerator::new_default();
    /// let a = Nat::from(0xFFFF_FFFF_FFFF_FFFFu64);
    /// let b = Nat::from(0x1234_5678_9ABC_DEF0u64);
    /// assert_eq!(acc.multiply(&a, &b).product, &a * &b);
    /// ```
    ///
    /// With the `parallel` cargo feature the independent PE(b, w) passes
    /// are dispatched across host threads — the §III inter-IPU/inter-PE
    /// parallelism realized in the model — and reduced in a fixed order,
    /// so product, cycles and tally are bit-identical to
    /// [`Accelerator::multiply_sequential`].
    ///
    /// # Panics
    ///
    /// Panics if the configured limb width L is outside `1..=64`.
    pub fn multiply(&self, x: &Nat, y: &Nat) -> RunOutcome {
        self.multiply_with(x, y, self.effective_backend(), cfg!(feature = "parallel"))
    }

    /// [`Accelerator::multiply`] with the PE(b, w) grid forced onto one
    /// host thread even when the `parallel` feature is compiled in — the
    /// reference schedule the parallel dispatch is validated against
    /// (§III; the results must be bit-identical).
    pub fn multiply_sequential(&self, x: &Nat, y: &Nat) -> RunOutcome {
        self.multiply_with(x, y, self.effective_backend(), false)
    }

    /// [`Accelerator::multiply_sequential`] on the Scalar engine — the
    /// §IV-B reference that the tests check [`Accelerator::multiply`]
    /// against and that `bench_bitsliced` / `bench_json` time it against.
    /// Every [`RunOutcome`] field is identical to `multiply`'s on every
    /// configuration. It never touches the pattern cache.
    pub fn multiply_scalar(&self, x: &Nat, y: &Nat) -> RunOutcome {
        self.multiply_with(x, y, KernelBackend::Scalar, false)
    }

    fn multiply_with(&self, x: &Nat, y: &Nat, engine: KernelBackend, parallel: bool) -> RunOutcome {
        if x.is_zero() || y.is_zero() {
            return RunOutcome {
                product: Nat::zero(),
                cycles: self.config.pipeline_fill_cycles,
                pe_passes: 0,
                tally: BopsTally::default(),
                stages: StageCycles::default(),
                pe_slots: 0,
            };
        }
        let l = self.config.limb_bits;
        let q = crate::cast::usize_from(u64::from(self.config.q));
        let n_ipu = self.config.n_ipu;

        // Both engines read the Eq. 1 limb streams as machine words; the
        // Scalar engine widens them to `Nat` at its kernel boundary.
        assert!(
            (1..=LIMB_BITS).contains(&l),
            "the structural model needs 1 <= L <= 64 (the GU sections are words)"
        );
        let xw = to_limb_words(x, l);
        let yw = to_limb_words(y, l);
        let outputs = xw.len() + yw.len() - 1;
        let blocks = xw.len().div_ceil(q);
        let windows = outputs.div_ceil(n_ipu);

        // Pattern block b (zero-padded to q limbs), or `None` when it is
        // all zero: every pass skips such a block, so it gets no table.
        let pattern_block = |b: usize| -> Option<Vec<Limb>> {
            let block: Vec<Limb> = (0..q)
                .map(|j| xw.get(b * q + j).copied().unwrap_or(0))
                .collect();
            block.iter().any(|&v| v != 0).then_some(block)
        };

        // The per-block Converter tables (Fig. 8) depend on x alone, so
        // they are hoisted out of the pass grid — generated once per
        // block (and, on the Sliced64 engine via the pattern cache, once
        // per *operand* across calls) instead of once per (w, b) pass.
        // The modeled machine is unchanged: each executed pass still
        // charges its block's full generation bops, exactly as if its
        // Converter had streamed the table afresh (§IV-A reuse is a
        // host-side win only; see `pattern_cache`).
        let sliced_tables;
        let scalar_tables: Vec<Option<Patterns>>;
        let kernel: PassKernel<'_> = match engine {
            KernelBackend::Sliced64 => {
                sliced_tables = pattern_cache::fetch_or_build(x.limbs(), self.config.q, l, || {
                    (0..blocks)
                        .map(|b| {
                            pattern_block(b)
                                .map(|block| generate_patterns_sliced(&block, u64::from(l)))
                        })
                        .collect()
                });
                let tables = &*sliced_tables;
                debug_assert_eq!(tables.len(), blocks);
                Box::new(move |b, ys_flat| {
                    let (patterns, generation_bops) = tables[b].as_ref()?;
                    Some(pe_pass_sliced(patterns, *generation_bops, q, ys_flat, l))
                })
            }
            KernelBackend::Scalar => {
                let widen =
                    |words: &[Limb]| -> Vec<Nat> { words.iter().map(|&v| Nat::from(v)).collect() };
                scalar_tables = (0..blocks)
                    .map(|b| {
                        pattern_block(b).map(|block| {
                            generate_patterns(&widen(&block), u64::from(l))
                                // apc-lint: allow(L2) -- q <= 16 (ArchConfig) and every limb <= L bits (to_limb_words), so the Converter preconditions hold by construction
                                .expect("Converter preconditions hold by construction")
                        })
                    })
                    .collect();
                let tables = &scalar_tables;
                Box::new(move |b, ys_flat| {
                    let patterns = tables[b].as_ref()?;
                    let ys_per_ipu: Vec<Vec<Nat>> = ys_flat.chunks_exact(q).map(widen).collect();
                    let pe = pe_pass_with_patterns(patterns, q, &ys_per_ipu, l)
                        // apc-lint: allow(L2) -- the index tuples are chunks of exactly q words, so the arity precondition holds by construction
                        .expect("PE pass preconditions hold by construction");
                    Some((pe.gathered, pe.tally))
                })
            }
        };

        // Every PE(b, w) pass reads only its own block/window slices, so
        // the whole grid is computed first — across threads when
        // requested — and folded afterwards. Task i is (w, b) in
        // row-major order, and both engines see the same skip predicate,
        // so pass counts, stage attribution and cycle totals cannot
        // diverge between them.
        let run_pass = |i: usize| -> Option<(Nat, BopsTally)> {
            let (w, b) = (i / blocks, i % blocks);
            // IPU k serves output position t = w·N_IPU + k with the
            // reversed y-slice, flattened k-major.
            let mut ys_flat: Vec<Limb> = Vec::with_capacity(n_ipu * q);
            for k in 0..n_ipu {
                let t = w * n_ipu + k;
                ys_flat.extend(reversed_x_words(&yw, t, b * q, q));
            }
            // Skip passes that cannot contribute to the window.
            if ys_flat.iter().all(|&v| v == 0) {
                return None;
            }
            kernel(b, &ys_flat)
        };
        let passes = apc_bignum::par::map_indexed(windows * blocks, parallel, &run_pass);

        // Deterministic reduce: merge tallies and fold the Adder Tree /
        // window recomposition in exactly the sequential nesting order,
        // so the parallel schedule cannot perturb any output.
        let mut tally = BopsTally::default();
        let mut pe_passes = 0u64;
        let mut product = Nat::zero();
        for w in 0..windows {
            // Adder Tree accumulator for this window (all PEs aligned).
            let mut window_acc = Nat::zero();
            for b in 0..blocks {
                if let Some((gathered, pass_tally)) = &passes[w * blocks + b] {
                    tally.merge(pass_tally);
                    pe_passes += 1;
                    window_acc = &window_acc + gathered;
                }
            }
            product = &product
                + &window_acc.shl_bits(w as u64 * n_ipu as u64 * u64::from(l));
        }

        // Structural timing: PE passes are scheduled N_PE at a time, each
        // pass streaming limb_bits index bits; output streams out behind
        // the pipeline. (The host-side dispatch above does not change the
        // modeled schedule.)
        let pass_groups = (blocks * windows).div_ceil(self.config.n_pe) as u64;
        let cycles = pass_groups * u64::from(l) + self.config.pipeline_fill_cycles;

        // Stage attribution (§VII utilization analysis): each *executed*
        // pass streams l index bits through its PE's Converter, IPUs and
        // GU (skipped zero passes leave them idle — sparsity), while the
        // shared Adder Tree is busy for every scheduled streaming group.
        let per_pe_busy = pe_passes * u64::from(l);
        let stages = StageCycles {
            converter: per_pe_busy,
            ipu: per_pe_busy,
            gu: per_pe_busy,
            adder_tree: pass_groups * u64::from(l),
        };
        let pe_slots = pass_groups * self.config.n_pe as u64;

        RunOutcome {
            product,
            cycles,
            pe_passes,
            tally,
            stages,
            pe_slots,
        }
    }
}

/// Outcome of a structural addition over the chained GUs (§V-C).
#[derive(Debug, Clone)]
pub struct AddOutcome {
    /// The computed sum.
    pub sum: Nat,
    /// L-bit sections processed by the chained Gather Units.
    pub sections: usize,
    /// Structural cycles.
    pub cycles: u64,
}

impl Accelerator {
    /// Long addition through the chained Gather Units: "MPApca scatters
    /// and maps the addends into different PEs to perform parallel
    /// addition, and leverages the chained Gather Units to deal carries
    /// afterward" (§V-C). Each PE adds one L-bit limb pair; the
    /// carry-select chain resolves all inter-limb carries in one wave.
    pub fn add(&self, a: &Nat, b: &Nat) -> AddOutcome {
        let l = self.config.limb_bits;
        let xs = to_limb_vector(a, l);
        let ys = to_limb_vector(b, l);
        let n = xs.len().max(ys.len());
        let partials: Vec<Nat> = (0..n)
            .map(|i| {
                let x = xs.get(i).cloned().unwrap_or_else(Nat::zero);
                let y = ys.get(i).cloned().unwrap_or_else(Nat::zero);
                &x + &y // ≤ L+1 bits: one summand per section + carry
            })
            .collect();
        let g = crate::gu::gather_carry_parallel(&partials, l);
        debug_assert!(g.carry_domain <= 2, "additions keep 1-bit carries");
        // All limb adds run concurrently across PEs; the select wave and
        // streaming dominate.
        let lanes = (self.config.n_pe * self.config.n_ipu) as u64;
        let cycles = (n as u64).div_ceil(lanes) * u64::from(l)
            + self.config.pipeline_fill_cycles;
        AddOutcome {
            sum: g.value,
            sections: g.sections,
            cycles,
        }
    }

    /// Long subtraction (`a − b`): the subtrahend's bitflows are inverted
    /// and an initial carry is injected at the start of the GU chain
    /// (§V-C). Implemented as the two's-complement identity
    /// `a − b = a + ~b + 1` over the padded limb width.
    ///
    /// # Panics
    ///
    /// Panics if `b > a`.
    pub fn sub(&self, a: &Nat, b: &Nat) -> AddOutcome {
        assert!(b <= a, "structural subtraction underflow");
        let l = self.config.limb_bits;
        let width = a.bit_len().max(b.bit_len()).div_ceil(u64::from(l)).max(1)
            * u64::from(l);
        // ~b over `width` bits, plus the injected initial carry.
        let mask = Nat::power_of_two(width) - Nat::one();
        let inverted = &mask - b;
        let raw = self.add(a, &inverted.add_limb(1));
        // Discard the wrap-around bit at 2^width.
        AddOutcome {
            sum: raw.sum.low_bits(width),
            sections: raw.sections,
            cycles: raw.cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern(limbs: usize, seed: u64) -> Nat {
        let mut x = seed | 1;
        let v: Vec<u64> = (0..limbs)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Nat::from_limbs(v)
    }

    #[test]
    fn small_products_match_oracle() {
        let acc = Accelerator::new_default();
        for (a, b) in [(3u64, 5u64), (u64::MAX, u64::MAX), (0, 12345), (1, 1)] {
            let (a, b) = (Nat::from(a), Nat::from(b));
            assert_eq!(acc.multiply(&a, &b).product, &a * &b);
        }
    }

    #[test]
    fn multi_limb_products_match_oracle() {
        let acc = Accelerator::new_default();
        for limbs in [2usize, 5, 9, 16] {
            let a = pattern(limbs, 0xAA);
            let b = pattern(limbs, 0x55);
            let out = acc.multiply(&a, &b);
            assert_eq!(out.product, &a * &b, "limbs={limbs}");
            assert!(out.pe_passes > 0);
        }
    }

    #[test]
    fn asymmetric_products() {
        let acc = Accelerator::new_default();
        let a = pattern(12, 7);
        let b = pattern(3, 9);
        assert_eq!(acc.multiply(&a, &b).product, &a * &b);
        assert_eq!(acc.multiply(&b, &a).product, &a * &b);
    }

    #[test]
    fn smaller_configs_still_correct() {
        // A 2-PE, 2-IPU, q=2 toy config exercises multi-window, multi-group
        // scheduling.
        let cfg = ArchConfig {
            n_pe: 2,
            n_ipu: 2,
            q: 2,
            limb_bits: 16,
            ..ArchConfig::default()
        };
        let acc = Accelerator::new(cfg);
        let a = pattern(6, 3);
        let b = pattern(4, 5);
        let out = acc.multiply(&a, &b);
        assert_eq!(out.product, &a * &b);
        assert!(out.cycles > 0);
    }

    #[test]
    fn bops_savings_materialize() {
        let acc = Accelerator::new_default();
        let a = pattern(8, 11);
        let b = pattern(8, 13);
        let out = acc.multiply(&a, &b);
        let lambda = out.tally.measured_lambda();
        assert!(
            lambda > 0.0 && lambda < 0.7,
            "BIPS should cut bops well below bit-serial: λ = {lambda}"
        );
    }

    #[test]
    fn structural_add_matches_oracle() {
        let acc = Accelerator::new_default();
        for (al, bl) in [(1usize, 1usize), (5, 3), (40, 40), (100, 7)] {
            let a = pattern(al, al as u64 + 1);
            let b = pattern(bl, bl as u64 + 2);
            let out = acc.add(&a, &b);
            assert_eq!(out.sum, &a + &b, "{al}+{bl}");
            assert!(out.cycles > 0);
        }
        // Worst-case carry chain: all-ones + 1 ripples end to end — the
        // exact pattern carry-select parallelizes.
        let ones = Nat::power_of_two(4096) - Nat::one();
        let out = acc.add(&ones, &Nat::one());
        assert_eq!(out.sum, Nat::power_of_two(4096));
    }

    #[test]
    fn structural_sub_matches_oracle() {
        let acc = Accelerator::new_default();
        let a = pattern(30, 5);
        let b = pattern(20, 7);
        let (hi, lo) = if a >= b { (a, b) } else {
            let c = pattern(30, 5);
            (c, pattern(20, 7))
        };
        let out = acc.sub(&hi, &lo);
        assert_eq!(out.sum, &hi - &lo);
        // Borrow ripple: 2^k − 1.
        let out = acc.sub(&Nat::power_of_two(2048), &Nat::one());
        assert_eq!(out.sum, Nat::power_of_two(2048) - Nat::one());
        // a − a = 0.
        let x = pattern(10, 9);
        assert!(acc.sub(&x, &x).sum.is_zero());
    }

    #[test]
    fn stage_attribution_is_consistent_with_the_schedule() {
        let acc = Accelerator::new_default();
        let a = pattern(8, 11);
        let b = pattern(8, 13);
        let out = acc.multiply(&a, &b);
        let l = u64::from(acc.config().limb_bits);
        // Per-PE stages scale with executed passes; the shared Adder Tree
        // with scheduled groups (= total cycles minus pipeline fill).
        assert_eq!(out.stages.converter, out.pe_passes * l);
        assert_eq!(out.stages.ipu, out.stages.converter);
        assert_eq!(out.stages.gu, out.stages.converter);
        assert_eq!(
            out.stages.adder_tree,
            out.cycles - acc.config().pipeline_fill_cycles
        );
        // Utilization is a ratio in (0, 1]: passes never exceed slots.
        assert!(out.pe_passes <= out.pe_slots);
        let u = out.pe_utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
        // The zero run schedules nothing.
        let zero = acc.multiply(&a, &Nat::zero());
        assert_eq!(zero.stages, StageCycles::default());
        assert_eq!(zero.pe_utilization(), 0.0);
    }

    #[test]
    fn sliced_engine_is_bit_identical_to_scalar() {
        // Product, schedule, stage attribution AND bops tally must match
        // word for word — the cycle model is host-independent.
        let a = pattern(16, 0xBEEF);
        let b = pattern(11, 0xF00D);
        for cfg in [
            ArchConfig::default(),
            ArchConfig {
                n_pe: 2,
                n_ipu: 2,
                q: 2,
                limb_bits: 16,
                ..ArchConfig::default()
            },
        ] {
            let acc = Accelerator::new(cfg);
            assert_eq!(acc.effective_backend(), KernelBackend::Sliced64);
            let s = acc.multiply_scalar(&a, &b);
            let v = acc.multiply(&a, &b);
            assert_eq!(v.product, s.product);
            assert_eq!(v.cycles, s.cycles);
            assert_eq!(v.pe_passes, s.pe_passes);
            assert_eq!(v.tally, s.tally);
            assert_eq!(v.stages, s.stages);
            assert_eq!(v.pe_slots, s.pe_slots);
        }
    }

    #[test]
    fn unsupported_envelope_runs_scalar() {
        // L = 64, q = 4: a subset sum needs 66 bits — no single word holds
        // it, so the config selects Scalar (and stays correct).
        for q in [4u32, 16] {
            let acc = Accelerator::new(ArchConfig {
                limb_bits: 64,
                q,
                ..ArchConfig::default()
            });
            assert_eq!(acc.effective_backend(), KernelBackend::Scalar);
            let a = pattern(6, 21);
            let b = pattern(6, 23);
            assert_eq!(acc.multiply(&a, &b).product, &a * &b);
        }
    }

    #[test]
    fn backend_names() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Sliced64.name(), "sliced64");
    }

    #[test]
    fn structural_cycles_track_analytic_model() {
        // 4096×4096 bits: analytic model says 32 cycles (Table III); the
        // structural scheduler should land within a small factor.
        let acc = Accelerator::new_default();
        let a = Nat::power_of_two(4096) - Nat::one();
        let b = Nat::power_of_two(4096) - Nat::from(3u64);
        let out = acc.multiply(&a, &b);
        assert_eq!(out.product, &a * &b);
        assert!(
            out.cycles >= 32 && out.cycles <= 96,
            "structural cycles {} should be near the 32-cycle calibration",
            out.cycles
        );
    }
}
