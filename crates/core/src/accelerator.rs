//! The full device: 256 PEs + Adder Tree (Fig. 9a, left).
//!
//! [`Accelerator::multiply`] is the *bit-exact structural model*: it really
//! routes every limb through Converter → IPUs → GU → Adder Tree and is
//! validated against the software oracle. [`Accelerator::schedule`] is
//! the §V-B3 mapping of that multiply onto the PE array in closed form:
//! the pass grid, its cycles and its PE slots from operand widths alone.
//! The faster analytic cycle model that MPApca uses for application-scale
//! runs is calibrated against this one (see `mpapca`).

use crate::bops::BopsTally;
use crate::config::ArchConfig;
use crate::converter::{generate_patterns, Patterns};
use crate::gu::add_shifted;
use crate::ipu::Indicators;
use crate::pattern_cache::{self, PatternTables};
use crate::pe::pe_pass_with_patterns;
use crate::stats::StageCycles;
use crate::transform::to_limb_vector;
use apc_bignum::limb::{extract_bits, wide_parts, Limb, LIMB_BITS};
use apc_bignum::Nat;
use std::ops::Range;
use std::sync::Arc;

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
/// IPU partial sum fits the 128-bit MAC accumulator. An indicator word
/// packs k = [`tuples_per_word`] adjacent tuples of L bits each; its
/// partial stays below 2^(kL+L+⌈log₂ q⌉), which is 2^(2L+⌈log₂ q⌉) at
/// k = 1 and at most 2^100 for k ≥ 2 (then L ≤ 32), so the envelope does
/// not depend on k.
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

/// How many adjacent index tuples k one Sliced64 indicator word carries:
/// the largest power of two with `k·L ≤ 64` that divides both q and
/// N_IPU. Block b reads the tuple starts `[bq, bq + span)` of a chunk of
/// `span` outputs, a multiple of N_IPU, so with k | q and k | N_IPU every
/// block reads either all of an aligned group of k tuples or none of
/// them, and one split and one MAC per reader serve the whole group (see
/// [`sliced_chunk`]). k = 1 is one tuple per word.
fn tuples_per_word(config: &ArchConfig) -> usize {
    let fits = (LIMB_BITS / config.limb_bits.max(1)).checked_ilog2().unwrap_or(0);
    1 << fits
        .min(config.q.trailing_zeros())
        .min(config.n_ipu.trailing_zeros())
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

/// The closed-form PE(b, w) pass grid of one multiplication (§V-B3: the
/// Core Controller maps the grid onto N_PE PEs, each PE Controller its
/// pass onto N_IPU IPUs of Fig. 9a), from [`Accelerator::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// q-limb pattern blocks (Converter inputs, Fig. 8), `⌈⌈na/L⌉/q⌉`.
    pub blocks: usize,
    /// Windows of N_IPU Eq. 1 outputs, `⌈(⌈na/L⌉ + ⌈nb/L⌉ − 1)/N_IPU⌉`.
    pub windows: usize,
    /// Groups of N_PE passes of L cycles each, `⌈blocks·windows/N_PE⌉` (§III).
    pub pass_groups: u64,
    /// Structural cycles, `pass_groups·L + fill` (§V-B3).
    pub cycles: u64,
    /// PE-grid slots scheduled, `pass_groups·N_PE` (§III).
    pub pe_slots: u64,
}

/// The per-block Converter tables (Fig. 8) of one multiplication, built
/// for the engine that runs it. `None` marks an all-zero block: it has no
/// table and every pass skips it.
enum BlockTables {
    Sliced(Arc<PatternTables>),
    Scalar(Vec<Option<Patterns>>),
}

/// The index operand y (its machine words) reversed, zero-padded and
/// packed `per_word` to a word: element `m` is `Σ_{s < per_word} y_{c − m −
/// s} << (L·(per_word − 1 − s))` over y's L-bit limbs, that is the
/// `per_word·L`-bit window of y at bit `L·(c − m − per_word + 1)`, zero
/// below bit 0. IPU k of PE(b, w) reads `y_{t − bq − i}` for i < q at
/// output t = w·N_IPU + k (the §V-B2 Memory Agent selection of "the 4
/// bitflows starting from different positions"), which at `per_word = 1`
/// is the plain slice `[c − t + bq ..][..q]` here. With `per_word = k`,
/// word i of the slice at m holds word i of the k tuples starting at m,
/// m + 1, …, the tuple at m in the top L bits.
fn reversed_words(y: &[Limb], c: usize, len: usize, (per_word, lb): (usize, u64)) -> Vec<Limb> {
    let (mut yr, whole) = (vec![0; len], c + 2 - per_word);
    let width = u32::try_from(per_word as u64 * lb).unwrap_or(LIMB_BITS);
    for (i, word) in yr[..whole].iter_mut().rev().enumerate() {
        *word = extract_bits(y, i as u64 * lb, width);
    }
    // Word whole + s keeps the top per_word − 1 − s limbs of its window.
    for (s, word) in yr[whole..=c].iter_mut().enumerate() {
        let kept = u32::try_from((per_word - 1 - s) as u64 * lb).unwrap_or(0);
        *word = extract_bits(y, 0, kept) << (width - kept);
    }
    yr
}

/// `live[m]` counts the nonzero words of `yr[..m]`, so whether a run of
/// `yr` holds a nonzero word is one subtraction.
fn nonzero_prefix(yr: &[Limb]) -> Vec<usize> {
    let mut count = 0;
    let counts = yr.iter().map(|&v| {
        count += usize::from(v != 0);
        count
    });
    std::iter::once(0).chain(counts).collect()
}

/// Adds one lane, `sum + overflow·2^128`, into `acc` at bit `offset` (the
/// GU gather of one output): its three words shifted into four, added as
/// two `u128`s, and the carry out of them.
#[inline]
fn add_lane(acc: &mut [Limb], (sum, overflow): (u128, u64), offset: u64) {
    let (word, bit) = apc_bignum::limb::bit_split(offset);
    // `(sum >> 1) >> (127 − bit)` is `sum >> (128 − bit)`, and 0 at bit 0.
    let high = u128::from(overflow) << bit | (sum >> 1) >> (127 - bit);
    let pair = |k: usize| u128::from(acc[k]) | u128::from(acc[k + 1]) << LIMB_BITS;
    let (low, carry) = pair(word).overflowing_add(sum << bit);
    let (high, carried) = pair(word + 2).overflowing_add(high);
    let (high, carried_in) = high.overflowing_add(u128::from(carry));
    (acc[word], acc[word + 1]) = wide_parts(low);
    (acc[word + 2], acc[word + 3]) = wide_parts(high);
    if carried || carried_in {
        add_shifted(&mut acc[word + 4..], &[1], 0);
    }
}

/// The pass-skip predicate (§VII sparsity): PE(b, w) with
/// `base = top + bq` reads exactly the unpacked words
/// `[base − (N_IPU − 1) .. base + q)`, so it contributes only if one of
/// them is nonzero. Word m of `yr`, packed `per_word` to a word, covers
/// the unpacked words `[m, m + per_word)` (`per_word ≤ q`). The Sliced64
/// walk reads the range's count off [`nonzero_prefix`] in O(1) instead.
fn pass_reads_nonzero(
    yr: &[Limb],
    base: usize,
    (q, n_ipu, per_word): (usize, usize, usize),
) -> bool {
    yr[base + 1 - n_ipu..base + q + 1 - per_word].iter().any(|&v| v != 0)
}

/// The Sliced64 passes of one chunk of output windows (Fig. 9a), walked
/// by index tuple: returns the executed pass count, adds the chunk's
/// outputs into `acc` (bit 0 is output `chunk.start·N_IPU`) and its
/// counts into `tally`.
///
/// IPU k of PE(b, w) reads the tuple `yr[m..][..q]` at `m = c − t + bq`
/// for output t = w·N_IPU + k, so a tuple is read by every block b whose
/// output `t = c + bq − m` falls in the chunk. The walk visits the tuples
/// in increasing m, in aligned groups of `per_word` = [`tuples_per_word`]
/// adjacent ones, each group one slice of `yr` packed `per_word` to a word
/// ([`reversed_words`]): it splits a nonzero group's indicators once
/// ([`Indicators::split`], BIPS stage 2) and multiplies them into the
/// table of every block that reads it ([`Indicators::mac`], stage 3).
/// That one MAC gives `Σ_s V_{m+s}·2^(L·(per_word − 1 − s))`, and since
/// the outputs of the tuples at m + s lie exactly L bits apart, it is
/// already their GU-weighted sum: it goes into the lane of the group's
/// last tuple, the lowest output. The lanes sum each output's partials
/// across blocks (the Adder Tree), and at chunk end one [`add_lane`] per
/// written lane at its `t·L` does the GU gather.
///
/// A lane is a `u128` plus an overflow word: one partial is below
/// 2^(per_word·L + L + ⌈log₂ q⌉) < 2^128 (see [`sliced_supports`]), but a
/// sum over blocks can pass 2^128.
///
/// Counts: a pass PE(b, w) is skipped exactly when every tuple it reads
/// is all zero ([`pass_reads_nonzero`], read off `live`, the
/// [`nonzero_prefix`] of `yr`), so every block with a table that reads a
/// *nonzero* tuple runs, and an all-zero tuple adds nothing
/// but skipped cycles. The skip rule, pass count and per-pass
/// `pattern_generation`, `bit_serial_reference` (N_IPU·q·L²) and
/// `skipped_zero` (N_IPU·L, every cycle) charges are therefore applied
/// per PE(b, w) before the walk, and each nonzero tuple takes back its
/// `L − popcount(I[0])` selecting cycles and charges its
/// `weighted_gather` once per reader. Both charges are sums over the
/// tuple's per-mask popcounts, so a group charges them once over its
/// whole word's popcounts, the sums of its tuples' own: an all-zero tuple
/// in a nonzero group adds L to `popcount(I[0])` and nothing else, so it
/// takes back and charges 0, as if skipped. So the tally is bit-identical
/// to the scalar [`crate::ipu::bit_indexed_inner_product`] counts of every
/// IPU k of every executed PE(b, w).
fn sliced_chunk<const Q: usize>(
    tables: &PatternTables,
    (yr, live): (&[Limb], &[usize]),
    (c, chunk): (usize, Range<usize>),
    (q, n_ipu, lb, per_word): (usize, usize, u64, usize),
    acc: &mut [Limb],
    tally: &mut BopsTally,
) -> u64 {
    // `Q` is q fixed at compile time, or 0 for "read q at run time".
    debug_assert!(Q == 0 || Q == q, "a constant-q copy runs only its own q");
    debug_assert!(q % per_word == 0 && n_ipu % per_word == 0, "groups align to blocks");
    let q = if Q == 0 { q } else { Q };
    let generation = &tables.generation;
    let mut passes = 0u64;
    for w in chunk.clone() {
        let top = c - w * n_ipu;
        for (b, generation_bops) in generation.iter().enumerate() {
            let base = top + b * q;
            let reads_nonzero = live[base + q + 1 - per_word] > live[base + 1 - n_ipu];
            debug_assert_eq!(reads_nonzero, pass_reads_nonzero(yr, base, (q, n_ipu, per_word)));
            if let (Some(generation_bops), true) = (generation_bops, reads_nonzero) {
                tally.pattern_generation += generation_bops;
                passes += 1;
            }
        }
    }
    let ipu_cycles = passes * n_ipu as u64 * lb;
    tally.bit_serial_reference += ipu_cycles * q as u64 * lb;
    tally.skipped_zero += ipu_cycles;
    let span = chunk.len() * n_ipu;
    let mut indicators = Indicators::new(q, per_word as u64 * lb);
    let mut lanes: Vec<(u128, u64)> = vec![(0, 0); span];
    // Tuple start m = first + d. Block b reads d in [bq, bq + span), at
    // chunk-local output j = bq + span − 1 − d; the group of tuples
    // d .. d + per_word lands in the lane of its last, bq + span − per_word − d.
    let first = c + 1 - chunk.end * n_ipu;
    for d in (0..(generation.len() - 1) * q + span).step_by(per_word) {
        if live[first + d + q] == live[first + d] {
            continue;
        }
        let (lo, hi) = (
            (d + 1).saturating_sub(span).div_ceil(q),
            (d / q + 1).min(generation.len()),
        );
        let mut readers = 0u64;
        for (b, table) in (lo..hi).zip(&generation[lo..hi]) {
            if table.is_none() {
                continue;
            }
            if readers == 0 {
                indicators.split(&yr[first + d..][..q]);
            }
            readers += 1;
            let partial = indicators.mac::<Q>(&tables.patterns[b << q..][..1 << q]);
            let lane = &mut lanes[b * q + span - per_word - d];
            let (sum, carried) = lane.0.overflowing_add(partial);
            *lane = (sum, lane.1 + u64::from(carried));
        }
        if readers > 0 {
            let ones = indicators.ones();
            tally.skipped_zero -= readers * (per_word as u64 * lb - u64::from(ones[0]));
            tally.weighted_gather += tables.gather::<Q>(ones, lo, hi);
        }
    }
    for (j, &lane) in lanes.iter().enumerate().step_by(per_word) {
        add_lane(acc, lane, j as u64 * lb);
    }
    passes
}

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

    /// The pass grid [`Accelerator::multiply`] runs for an
    /// `na_bits × nb_bits` product, in closed form over the configuration
    /// and the two widths (§V-B3 CC/PEC mapping onto Fig. 9a). No kernel
    /// runs. A zero operand schedules no pass, so `cycles` is then the
    /// pipeline fill alone.
    ///
    /// ```
    /// use cambricon_p::accelerator::Accelerator;
    ///
    /// let s = Accelerator::new_default().schedule(4096, 4096);
    /// assert_eq!((s.blocks, s.windows, s.pass_groups), (32, 8, 1));
    /// assert_eq!((s.cycles, s.pe_slots), (48, 256));
    /// ```
    pub fn schedule(&self, na_bits: u64, nb_bits: u64) -> Schedule {
        let c = &self.config;
        let l = u64::from(c.limb_bits);
        let (la, lb) = (na_bits.div_ceil(l), nb_bits.div_ceil(l));
        let (blocks, windows) = if la == 0 || lb == 0 {
            (0, 0)
        } else {
            (la.div_ceil(u64::from(c.q)), (la + lb - 1).div_ceil(c.n_ipu as u64))
        };
        let pass_groups = (blocks * windows).div_ceil(c.n_pe as u64);
        Schedule {
            blocks: crate::cast::usize_from(blocks),
            windows: crate::cast::usize_from(windows),
            pass_groups,
            cycles: pass_groups * l + c.pipeline_fill_cycles,
            pe_slots: pass_groups * c.n_pe as u64,
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
    /// On the Sliced64 engine the passes run by index tuple over a chunk
    /// of consecutive windows: IPU k of PE(b, w) reads the q index words
    /// at its own position (§V-B2), so one tuple serves every block whose
    /// output lands in the chunk. Groups of up to 64/L adjacent tuples share
    /// one indicator word; each group is split once per chunk and
    /// multiplied into every reading table, lanes sum each output across
    /// blocks (the Adder Tree), and one GU fold per lane lands it. Around
    /// that walk a call costs O(blocks + words), with no allocation per
    /// block: the tables and their gather prefix come from the pattern
    /// cache (or one pass over x's words), y is packed from its words, each
    /// pass-skip test is one difference of a prefix count, and a one-chunk
    /// run returns its accumulator as the product. Every count is still
    /// charged per PE(b, w) pass and IPU, as one call per IPU would.
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
    /// With the `parallel` cargo feature the windows are cut into one
    /// chunk per thread that a dispatch from here gets
    /// ([`apc_bignum::par::dispatch_width`]; one chunk, the whole
    /// product, inside `par::sequential` or a nested dispatch), and the
    /// chunks run across host threads — the §III inter-IPU/inter-PE
    /// parallelism realized in the model. Every sum is exact, so product,
    /// cycles and tally are bit-identical to
    /// [`Accelerator::multiply_sequential`].
    ///
    /// # Panics
    ///
    /// Panics if the configured limb width L is outside `1..=64`.
    pub fn multiply(&self, x: &Nat, y: &Nat) -> RunOutcome {
        let parallel = cfg!(feature = "parallel");
        let chunks = apc_bignum::par::dispatch_width(parallel);
        self.multiply_with(x, y, self.effective_backend(), chunks, parallel)
    }

    /// [`Accelerator::multiply`] on one host thread, with the whole
    /// product as one chunk, so each index tuple is split once — the
    /// reference schedule the parallel dispatch is validated against
    /// (§III; the results must be bit-identical).
    pub fn multiply_sequential(&self, x: &Nat, y: &Nat) -> RunOutcome {
        self.multiply_in_chunks(x, y, 1)
    }

    /// [`Accelerator::multiply`] with its output windows cut into
    /// `chunks` contiguous chunks of near-equal size (at most one per
    /// window), all run on the calling thread: the partition a
    /// `chunks`-thread dispatch of the PE(b, w) grid uses (§III). Every
    /// [`RunOutcome`] field is the same for every `chunks`.
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is 0 or the configured limb width L is outside
    /// `1..=64`.
    pub fn multiply_in_chunks(&self, x: &Nat, y: &Nat, chunks: usize) -> RunOutcome {
        assert!(chunks >= 1, "a multiplication runs in at least one chunk");
        self.multiply_with(x, y, self.effective_backend(), chunks, false)
    }

    /// [`Accelerator::multiply_sequential`] on the Scalar engine — the
    /// §IV-B reference that the tests check [`Accelerator::multiply`]
    /// against and that `bench_bitsliced` / `bench_json` time it against.
    /// Every [`RunOutcome`] field is identical to `multiply`'s on every
    /// configuration. It never touches the pattern cache.
    pub fn multiply_scalar(&self, x: &Nat, y: &Nat) -> RunOutcome {
        self.multiply_with(x, y, KernelBackend::Scalar, 1, false)
    }

    /// Runs the PE(b, w) grid on `engine`, with the windows cut into
    /// `chunks` chunks (at most one per window), dispatched across host
    /// threads when `parallel`.
    fn multiply_with(
        &self,
        x: &Nat,
        y: &Nat,
        engine: KernelBackend,
        chunks: usize,
        parallel: bool,
    ) -> RunOutcome {
        let l = self.config.limb_bits;
        let q = crate::cast::usize_from(u64::from(self.config.q));
        let n_ipu = self.config.n_ipu;

        // Both engines read the Eq. 1 limb streams as machine words; the
        // Scalar engine widens them to `Nat` at its kernel boundary.
        assert!(
            (1..=LIMB_BITS).contains(&l),
            "the structural model needs 1 <= L <= 64 (the GU sections are words)"
        );
        let schedule = self.schedule(x.bit_len(), y.bit_len());
        if schedule.pass_groups == 0 {
            return RunOutcome {
                product: Nat::zero(),
                cycles: schedule.cycles,
                pe_passes: 0,
                tally: BopsTally::default(),
                stages: StageCycles::default(),
                pe_slots: schedule.pe_slots,
            };
        }
        let Schedule { blocks, windows, .. } = schedule;
        let lb = u64::from(l);

        // The per-block Converter tables (Fig. 8) depend on x alone, so
        // they are hoisted out of the pass grid — generated once per
        // block (and, on the Sliced64 engine via the pattern cache, once
        // per *operand* across calls) instead of once per (w, b) pass.
        // The modeled machine is unchanged: each executed pass still
        // charges its block's full generation bops, exactly as if its
        // Converter had streamed the table afresh (§IV-A reuse is a
        // host-side win only; see `pattern_cache`). Both engines read the
        // Eq. 1 limbs straight from x's words; an all-zero block gets no
        // table, since every pass skips it.
        let tables = match engine {
            KernelBackend::Sliced64 => {
                let tables = pattern_cache::fetch_or_build(x, self.config.q, l);
                debug_assert_eq!(tables.generation.len(), blocks);
                BlockTables::Sliced(tables)
            }
            #[expect(
                clippy::expect_used,
                reason = "q <= 16 (ArchConfig) and every limb <= L bits (extract_bits), so the Converter preconditions hold by construction"
            )]
            KernelBackend::Scalar => BlockTables::Scalar(
                (0..blocks)
                    .map(|b| {
                        let block: Vec<Nat> = (0..q)
                            .map(|j| Nat::from(extract_bits(x.limbs(), (b * q + j) as u64 * lb, l)))
                            .collect();
                        block.iter().any(|v| !v.is_zero()).then(|| {
                            generate_patterns(&block, lb)
                                .expect("Converter preconditions hold by construction")
                        })
                    })
                    .collect(),
            ),
        };

        // One task per chunk of consecutive output windows: it runs every
        // PE(b, w) pass of its windows that can contribute and
        // accumulates the passes' strided IPU outputs in place into its
        // own limbs (the GU writing into the Adder Tree, Fig. 9a). A
        // chunk of v windows holds v·N_IPU lanes at stride L; each lane
        // is a sum of fewer than 2^64 IPU partials below 2^128, kept as a
        // 192-bit slot (see `sliced_chunk`), so the slots and their sum
        // fit (v·N_IPU + 1)·L + 192 bits; one more word lets `add_lane`
        // write a slot's four shifted words at any L.
        let chunks = chunks.min(windows);
        // Output t reaches at most windows·N_IPU − 1 and bq at most
        // (blocks − 1)·q, so c = windows·N_IPU − 1 keeps every slice start
        // c − t + bq non-negative and `blocks·q` more words cover its end.
        let c = windows * n_ipu - 1;
        // The Sliced64 walk reads k = `tuples_per_word` tuples per word,
        // packed here once per call; the Scalar engine reads them one by
        // one. The last k-tuple group ends at word c + blocks·q − 1.
        let per_word = match &tables {
            BlockTables::Sliced(_) => tuples_per_word(&self.config),
            BlockTables::Scalar(_) => 1,
        };
        let yr = reversed_words(y.limbs(), c, c + blocks * q + 1 - per_word, (per_word, lb));
        let live = nonzero_prefix(&yr);
        let run_chunk = |i: usize| -> (usize, Vec<Limb>, BopsTally, u64) {
            let chunk = i * windows / chunks..(i + 1) * windows / chunks;
            let span_bits = (chunk.len() * n_ipu + 1) as u64 * lb + 256;
            let mut acc: Vec<Limb> =
                vec![0; crate::cast::usize_from(span_bits.div_ceil(u64::from(LIMB_BITS)))];
            let mut tally = BopsTally::default();
            let start = chunk.start;
            let shape = (q, n_ipu, lb, per_word);
            let passes = match &tables {
                // q = 4, the §IV-B optimum and the default, runs a copy
                // with q constant-folded, so the kernel loops have fixed
                // trip counts; every other q runs the generic copy.
                BlockTables::Sliced(tables) if q == 4 => {
                    sliced_chunk::<4>(tables, (&yr, &live), (c, chunk), shape, &mut acc, &mut tally)
                }
                BlockTables::Sliced(tables) => {
                    sliced_chunk::<0>(tables, (&yr, &live), (c, chunk), shape, &mut acc, &mut tally)
                }
                BlockTables::Scalar(tables) => {
                    let mut passes = 0u64;
                    for w in chunk {
                        // Block b's pass reads IPU k's index words
                        // yr[base − k ..][..q] with base = top + bq.
                        let top = c - w * n_ipu;
                        for (b, patterns) in tables.iter().enumerate() {
                            let base = top + b * q;
                            let Some(patterns) = patterns else {
                                continue;
                            };
                            if !pass_reads_nonzero(&yr, base, (q, n_ipu, 1)) {
                                continue;
                            }
                            let ys_per_ipu: Vec<Vec<Nat>> = (0..n_ipu)
                                .map(|k| {
                                    yr[base - k..][..q].iter().map(|&v| Nat::from(v)).collect()
                                })
                                .collect();
                            #[expect(
                                clippy::expect_used,
                                reason = "every index tuple holds exactly q words, so the arity precondition holds by construction"
                            )]
                            let pe = pe_pass_with_patterns(patterns, q, &ys_per_ipu, l)
                                .expect("PE pass preconditions hold by construction");
                            tally.merge(&pe.tally);
                            let offset = ((w - start) * n_ipu) as u64 * lb;
                            add_shifted(&mut acc, pe.gathered.limbs(), offset);
                            passes += 1;
                        }
                    }
                    passes
                }
            };
            (start, acc, tally, passes)
        };
        let chunk_runs = apc_bignum::par::map_indexed(chunks, parallel, &run_chunk);

        // One fold: every sum is exact, so adding each chunk at its
        // offset w·N_IPU·L in any order gives the same product, and the
        // parallel run is bit-identical to the sequential one. Chunk 0 comes
        // first (index order) and starts at output 0, so its accumulator is
        // the product buffer: a one-chunk run returns it as is.
        let (mut product, mut tally, mut pe_passes) = (Vec::new(), BopsTally::default(), 0);
        for (start, acc, chunk_tally, passes) in chunk_runs {
            if start == 0 {
                product = acc;
            } else {
                product.resize(product.len().max(x.limb_len() + y.limb_len()), 0);
                add_shifted(&mut product, &acc, (start * n_ipu) as u64 * lb);
            }
            tally.merge(&chunk_tally);
            pe_passes += passes;
        }

        // Stage attribution (§VII utilization analysis): each *executed*
        // pass streams l index bits through its PE's Converter, IPUs and
        // GU (skipped zero passes leave them idle — sparsity), while the
        // shared Adder Tree is busy for every scheduled streaming group.
        let per_pe_busy = pe_passes * lb;
        let stages = StageCycles {
            converter: per_pe_busy,
            ipu: per_pe_busy,
            gu: per_pe_busy,
            adder_tree: schedule.pass_groups * lb,
        };

        RunOutcome {
            product: Nat::from_limbs(product),
            cycles: schedule.cycles,
            pe_passes,
            tally,
            stages,
            pe_slots: schedule.pe_slots,
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
    fn chunk_counts_past_the_window_count_give_one_window_each() {
        let acc = Accelerator::new_default();
        let (a, b) = (pattern(40, 3), pattern(33, 4));
        let windows = acc.schedule(a.bit_len(), b.bit_len()).windows;
        let (one, many) = (
            acc.multiply_sequential(&a, &b),
            acc.multiply_in_chunks(&a, &b, 1000),
        );
        assert!(windows > 1 && windows < 1000);
        assert_eq!(many.product, &a * &b);
        assert_eq!(
            (many.product, many.tally, many.pe_passes),
            (one.product, one.tally, one.pe_passes)
        );
    }

    #[test]
    #[should_panic(expected = "at least one chunk")]
    fn zero_chunks_is_refused() {
        let x = pattern(4, 1);
        Accelerator::new_default().multiply_in_chunks(&x, &x, 0);
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
    fn reversed_words_slice_into_index_tuples() {
        let ys_nat: Vec<Nat> = (10..15u64).map(Nat::from).collect();
        let c = 8;
        let yr = reversed_words(Nat::from_chunks(&ys_nat, 8).limbs(), c, c + 6, (1, 8));
        for t in 0..=c {
            for j0 in [0usize, 1, 3] {
                let slice = crate::transform::reversed_x_slice(&ys_nat, t, j0, 3);
                let words = &yr[c - t + j0..][..3];
                for (n, w) in slice.iter().zip(words) {
                    assert_eq!(n.to_u64(), Some(*w), "t={t} j0={j0}");
                }
            }
        }
        // Packed k to a word, the tuple at m sits L bits above the one at
        // m + 1.
        for (k, lb) in [(2usize, 8u64), (4, 16)] {
            let y = Nat::from_chunks(&ys_nat, lb);
            let single = reversed_words(y.limbs(), c, c + 6, (1, lb));
            let packed = reversed_words(y.limbs(), c, c + 7 - k, (k, lb));
            for (m, &word) in packed.iter().enumerate() {
                let want = single[m..m + k].iter().fold(0, |packed, &v| packed << lb | v);
                assert_eq!(word, want, "k={k} m={m}");
            }
        }
    }

    /// `reversed_words` by way of the Eq. 1 limb words: y cut into its
    /// L-bit limbs first, then word m packed from `y_{c − m − s}`, s < k.
    fn packed_from_limb_words(y: &Nat, c: usize, len: usize, (k, l): (usize, u32)) -> Vec<Limb> {
        let yw = crate::transform::to_limb_words(y, l);
        let limb = |m: usize| c.checked_sub(m).and_then(|j| yw.get(j)).copied().unwrap_or(0);
        (0..len)
            .map(|m| (m + 1..m + k).fold(limb(m), |packed, j| packed << l | limb(j)))
            .collect()
    }

    #[test]
    fn limb_direct_packing_matches_packing_the_limb_words() {
        // (L, k) of every `tests/bitslice_gate.rs` Sliced64 configuration,
        // and the widest envelope limb, L = 62, at k = 1.
        for (l, k) in [(32u32, 2usize), (20, 1), (8, 2), (16, 4), (8, 8), (16, 2), (62, 1)] {
            let dense = pattern(9, u64::from(l));
            // A y whose low machine words are zero: the tail of the
            // reversed layout reads only zeros.
            let zero_tail = dense.shl_bits(4 * 64);
            for y in [dense, zero_tail, Nat::from(0x1234_5678u64), Nat::one()] {
                let limbs = crate::transform::to_limb_words(&y, l).len();
                // c past y's top limb (fewer limb words than c + 1), and c
                // inside it (y's top limbs are never read); c + 1 is a
                // multiple of k, as c + 1 = windows·N_IPU is.
                for c in [limbs + 5, limbs / 2 + 1].map(|c| c.next_multiple_of(k) - 1) {
                    let len = c + 3 * k + 1;
                    assert_eq!(
                        reversed_words(y.limbs(), c, len, (k, u64::from(l))),
                        packed_from_limb_words(&y, c, len, (k, l)),
                        "L={l} k={k} c={c} y={} bits",
                        y.bit_len()
                    );
                }
            }
        }
    }

    #[test]
    fn gather_prefix_rows_sum_the_pattern_bits_of_the_blocks_below() {
        // Seven q·L-bit blocks, block 3 all zero between dense ones and a
        // partial top block, at q = 4 (the constant-q build copy) and q = 3
        // (the generic one), each at L = 32, 31 and 16.
        for (q, l) in [(4usize, 32u32), (4, 31), (4, 16), (3, 32), (3, 31), (3, 16)] {
            let w = q as u64 * u64::from(l);
            let top = 6 * w + w / 2 + 3;
            let dense = pattern(16, 0x5EED).low_bits(top - 1);
            let x = &(&dense.low_bits(3 * w) + &dense.shr_bits(4 * w).shl_bits(4 * w))
                + &Nat::power_of_two(top - 1);
            let tables = PatternTables::build(&x, q, l);
            let xw = crate::transform::to_limb_words(&x, l);
            assert!(xw.len() < 7 * q, "q={q} L={l}: the top block is partial");
            assert_eq!(tables.generation.len(), 7, "q={q} L={l}");
            let mut sum = vec![0u32; 1 << q];
            for b in 0..=7 {
                let at = format!("q={q} L={l} block {b}");
                assert_eq!(tables.gather_prefix[b << q..][..1 << q], sum[..], "{at}");
                let Some(&generation) = tables.generation.get(b) else {
                    break;
                };
                let mut block = vec![0; q];
                for (limb, &word) in block.iter_mut().zip(&xw[b * q..]) {
                    *limb = word;
                }
                let mut patterns = vec![0; 1 << q];
                let bops =
                    crate::converter::generate_patterns_sliced(&block, u64::from(l), &mut patterns);
                assert_eq!(generation, (b != 3).then_some(bops), "{at}");
                assert_eq!(tables.patterns[b << q..][..1 << q], patterns[..], "{at}");
                if generation.is_some() {
                    for (s, &p) in sum.iter_mut().zip(&patterns).skip(1) {
                        *s += crate::ipu::pattern_bits(p);
                    }
                }
            }
        }
    }

    #[test]
    fn tuples_per_word_fills_the_word_within_q_and_n_ipu() {
        // (L, q, N_IPU) → k: the default, each limiting factor, and the
        // widest envelope limb, which leaves one tuple per word.
        for (limb_bits, q, n_ipu, k) in [
            (32, 4, 32, 2),
            (20, 3, 4, 1),
            (8, 2, 2, 2),
            (16, 4, 8, 4),
            (8, 8, 8, 8),
            (16, 4, 2, 2),
            (62, 4, 32, 1),
        ] {
            let cfg = ArchConfig {
                limb_bits,
                q,
                n_ipu,
                ..ArchConfig::default()
            };
            assert_eq!(tuples_per_word(&cfg), k, "L={limb_bits} q={q} N_IPU={n_ipu}");
        }
    }

    #[test]
    fn backend_names() {
        assert_eq!(KernelBackend::Scalar.name(), "scalar");
        assert_eq!(KernelBackend::Sliced64.name(), "sliced64");
    }

    #[test]
    fn structural_cycles_track_analytic_model() {
        // The drift table of EXPERIMENTS.md: the grid against the analytic
        // model, which Table III anchors at 32 cycles for 4096 bits.
        let (acc, analytic) = (Accelerator::new_default(), crate::mpapca::Device::new_default());
        for (bits, structural, modeled) in
            [(1024, 48, 17), (2048, 48, 20), (4096, 48, 32), (8192, 144, 80)]
        {
            let a = Nat::power_of_two(bits) - Nat::one();
            let b = Nat::power_of_two(bits) - Nat::from(3u64);
            let out = acc.multiply(&a, &b);
            assert_eq!(out.product, &a * &b);
            let cycles = (out.cycles, analytic.mul_cycles(bits, bits));
            assert_eq!(cycles, (structural, modeled), "{bits} bits");
        }
    }
}
