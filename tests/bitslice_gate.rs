//! Tier-1 gate: the structural multiply must be bit-identical to the
//! Scalar oracle — results, cycle counts, stage attribution and bops
//! tallies alike.
//!
//! `Accelerator::multiply` runs the Sliced64 engine whenever the
//! configuration fits its envelope, packing 64 bitflow steps into each
//! host word op; nothing about the modeled machine may change. This gate
//! drives the same randomized operands through `multiply` and the §IV-B
//! reference `multiply_scalar` across a width sweep (including exact
//! powers of two and their ±1 neighbours, where limb decomposition
//! boundaries live) and compares every `RunOutcome` field. The same sweep
//! checks that `Accelerator::schedule`, computed from the operand widths
//! alone, predicts each run's cycles, PE slots and Adder Tree busy cycles,
//! and sizes the grid exactly as the operands' Eq. 1 limb vectors do, and
//! that each run executes exactly the passes those limb vectors call for.
//! Sparse operands with zero runs longer than a block and a window drive
//! the pass-skip path and the first and last window edges. The Sliced64
//! walk runs over chunks of consecutive windows, one per dispatch thread;
//! every partition of the windows into chunks must give the same outcome.
//! It packs k adjacent index tuples into each indicator word, so every
//! check runs on a configuration for each k and for each factor that
//! limits it.

use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, RunOutcome};
use cambricon_p::transform::to_limb_words;
use cambricon_p::{ArchConfig, KernelBackend};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Operand widths around every power-of-two boundary in the interesting
/// range, plus a few odd sizes that leave partial final limbs.
fn width_sweep() -> Vec<u64> {
    let mut widths = vec![1, 7, 100, 777];
    for p in [6u32, 8, 10, 12] {
        let b = 1u64 << p;
        widths.extend([b - 1, b, b + 1]);
    }
    widths
}

/// Asserts that two structural runs agree on every modeled output.
fn assert_identical(got: &RunOutcome, oracle: &RunOutcome, what: &str) {
    assert_eq!(got.product, oracle.product, "product diverged: {what}");
    assert_eq!(got.cycles, oracle.cycles, "cycles diverged: {what}");
    assert_eq!(got.pe_passes, oracle.pe_passes, "pe_passes diverged: {what}");
    assert_eq!(got.tally, oracle.tally, "tally diverged: {what}");
    assert_eq!(got.stages, oracle.stages, "stages diverged: {what}");
    assert_eq!(got.pe_slots, oracle.pe_slots, "pe_slots diverged: {what}");
}

/// The passes a run must execute, counted from the Eq. 1 limb vectors
/// alone: PE(b, w) runs when x's block b is nonzero and some IPU k of
/// window w indexes a nonzero y limb `y_{w·N_IPU + k − bq − i}`, i < q.
fn expected_passes(acc: &Accelerator, a: &Nat, b: &Nat) -> u64 {
    let (q, l, n_ipu) = (acc.config().q as usize, acc.config().limb_bits, acc.config().n_ipu);
    let (xw, yw) = (to_limb_words(a, l), to_limb_words(b, l));
    let nonzero =
        |words: &[u64], j: Option<usize>| j.and_then(|j| words.get(j)).is_some_and(|&v| v != 0);
    let grid = acc.schedule(a.bit_len(), b.bit_len());
    let mut passes = 0;
    for w in 0..grid.windows {
        for blk in 0..grid.blocks {
            let x_live = (0..q).any(|i| nonzero(&xw, Some(blk * q + i)));
            let y_live = (0..n_ipu)
                .any(|k| (0..q).any(|i| nonzero(&yw, (w * n_ipu + k).checked_sub(blk * q + i))));
            passes += u64::from(x_live && y_live);
        }
    }
    passes
}

/// Checks every pair's `multiply` against `multiply_scalar`, the
/// software oracle, an independent pass count and the closed-form
/// `Accelerator::schedule`; returns the Converter busy cycles the pairs
/// spent.
fn assert_pairs_match(acc: &Accelerator, pairs: &[(Nat, Nat)]) -> u64 {
    let (q, l) = (acc.config().q, acc.config().limb_bits);
    let (n_pe, n_ipu) = (acc.config().n_pe, acc.config().n_ipu);
    let mut converter_cycles = 0;
    for (a, b) in pairs {
        let what = format!("{} x {} bits (q={q}, L={l})", a.bit_len(), b.bit_len());
        let got = acc.multiply(a, b);
        assert_identical(&got, &acc.multiply_scalar(a, b), &what);
        assert_eq!(got.product, a * b, "must match the software oracle: {what}");
        assert_eq!(got.pe_passes, expected_passes(acc, a, b), "executed passes: {what}");
        let schedule = acc.schedule(a.bit_len(), b.bit_len());
        assert_eq!(schedule.cycles, got.cycles, "closed-form cycles: {what}");
        assert_eq!(schedule.pe_slots, got.pe_slots, "closed-form pe_slots: {what}");
        assert_eq!(
            schedule.pass_groups * u64::from(l),
            got.stages.adder_tree,
            "closed-form pass groups: {what}"
        );
        // The grid sized independently, from the Eq. 1 limb vectors the
        // kernels stream: the smallest grid that covers both operands.
        let grid = if a.is_zero() || b.is_zero() {
            (0, 0)
        } else {
            let (la, lb) = (to_limb_words(a, l).len(), to_limb_words(b, l).len());
            (la.div_ceil(q as usize), (la + lb - 1).div_ceil(n_ipu))
        };
        assert_eq!((schedule.blocks, schedule.windows), grid, "grid size: {what}");
        let groups = (grid.0 * grid.1).div_ceil(n_pe) as u64;
        assert_eq!(schedule.pass_groups, groups, "pass groups: {what}");
        converter_cycles += got.stages.converter;
    }
    converter_cycles
}

/// Sweeps `acc` over every width (plus zero and one) through
/// [`assert_pairs_match`].
fn sweep_against_oracle(acc: &Accelerator, rng: &mut StdRng) {
    let mut pairs: Vec<(Nat, Nat)> = width_sweep()
        .into_iter()
        .map(|bits| {
            (
                Nat::random_exact_bits(bits, rng),
                Nat::random_exact_bits(bits.max(2) - 1, rng),
            )
        })
        .collect();
    // Zero and one still go through the structural path.
    for special in [Nat::zero(), Nat::one()] {
        pairs.push((Nat::random_exact_bits(257, rng), special));
    }
    assert!(assert_pairs_match(acc, &pairs) > 0, "the sweep did real work");
}

/// The Sliced64 gate configurations, one for each tuples-per-word
/// packing factor k (the largest power of two with k·L ≤ 64 dividing q
/// and N_IPU) and each factor that limits it: the §VII default (k = 2),
/// q = 3 (k = 1), q = 2 at L = 8 (k = 2, limited by q), L = 16 (k = 4),
/// L = 8 with q = N_IPU = 8 (k = 8), and N_IPU = 2 at L = 16 (k = 2,
/// limited by N_IPU). All but the default are toy shapes with many
/// windows and blocks.
fn sliced_configs() -> [ArchConfig; 6] {
    let toy = |n_pe, n_ipu, q, limb_bits| ArchConfig {
        n_pe,
        n_ipu,
        q,
        limb_bits,
        ..ArchConfig::default()
    };
    [
        ArchConfig::default(),
        toy(4, 4, 3, 20),
        toy(2, 2, 2, 8),
        toy(4, 8, 4, 16),
        toy(8, 8, 8, 8),
        toy(2, 2, 4, 16),
    ]
}

/// L = 64 lies outside the Sliced64 envelope, so it runs the Scalar
/// engine.
fn scalar_config() -> ArchConfig {
    ArchConfig {
        limb_bits: 64,
        ..ArchConfig::default()
    }
}

#[test]
fn sliced_mul_structural_matches_scalar_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xB175_11CE);
    for cfg in sliced_configs() {
        let acc = Accelerator::new(cfg);
        assert_eq!(acc.effective_backend(), KernelBackend::Sliced64);
        sweep_against_oracle(&acc, &mut rng);
    }
}

#[test]
fn unsupported_envelope_is_still_exact() {
    // L = 64 with q = 4 exceeds the one-word pattern envelope: the
    // configuration selects the Scalar engine and stays bit-exact.
    let acc = Accelerator::new(scalar_config());
    assert_eq!(acc.effective_backend(), KernelBackend::Scalar);
    sweep_against_oracle(&acc, &mut StdRng::seed_from_u64(7));
}

/// `x` with bits `[lo, hi)` cleared.
fn clear_bits(x: &Nat, lo: u64, hi: u64) -> Nat {
    &x.low_bits(lo) + &x.shr_bits(hi).shl_bits(hi)
}

#[test]
fn sparse_operands_match_scalar_bit_for_bit() {
    // Zero-limb runs of at least 2500 bits, longer than one pattern block
    // (q·L ≤ 256 bits) and one window (N_IPU·L ≤ 2048 bits) on every gate
    // configuration: whole passes skip, single IPUs index all-zero words,
    // and the first and last windows see only one operand's edge.
    let mut rng = StdRng::seed_from_u64(0x005B_A55E);
    let dense = Nat::random_exact_bits(4096, &mut rng);
    let one_bit_ends = Nat::power_of_two(3000) + Nat::one();
    let ones_run = (Nat::power_of_two(300) - Nat::one()).shl_bits(2600);
    let hollow = clear_bits(&Nat::random_exact_bits(4096, &mut rng), 800, 3500);
    assert!(hollow.bit(4095) && hollow.low_bits(800) != Nat::zero());
    let pairs = vec![
        (one_bit_ends.clone(), dense.clone()),
        (dense.clone(), one_bit_ends.clone()),
        (one_bit_ends.clone(), one_bit_ends.clone()),
        (ones_run.clone(), dense.clone()),
        (dense.clone(), ones_run.clone()),
        (ones_run.clone(), one_bit_ends.clone()),
        (hollow.clone(), dense.clone()),
        (dense.clone(), hollow.clone()),
        (hollow.clone(), hollow.clone()),
        (hollow.clone(), ones_run.clone()),
    ];
    for cfg in sliced_configs().into_iter().chain([scalar_config()]) {
        let acc = Accelerator::new(cfg);
        assert!(assert_pairs_match(&acc, &pairs) > 0, "the pairs did real work");
        // The pairs really exercise the skip predicate: against a dense
        // x, which has no all-zero block, a sparse y alone leaves some of
        // the grid's passes unexecuted.
        let (a, b) = (&dense, &one_bit_ends);
        let grid = acc.schedule(a.bit_len(), b.bit_len());
        let passes = acc.multiply(a, b).pe_passes;
        assert!(passes < (grid.blocks * grid.windows) as u64, "{passes} passes skip none");
    }
}

#[test]
fn envelope_edge_configs_match_scalar_bit_for_bit() {
    // The widest limbs the Sliced64 envelope admits at q = 4, 16 and 8:
    // one IPU partial nearly fills 128 bits (below 2^126 at L = 62), so
    // the per-IPU lane sums across blocks must carry past 2^128 exactly.
    // All-ones operands make every partial maximal.
    for (limb_bits, q) in [(62u32, 4u32), (60, 16), (56, 8)] {
        let acc = Accelerator::new(ArchConfig {
            limb_bits,
            q,
            ..ArchConfig::default()
        });
        assert_eq!(acc.effective_backend(), KernelBackend::Sliced64, "L={limb_bits} q={q}");
        for limbs in [3u64, 40, 130] {
            let ones = Nat::power_of_two(limbs * u64::from(limb_bits)) - Nat::one();
            let what = format!("{limbs} all-ones limbs (q={q}, L={limb_bits})");
            let (got, oracle) = (acc.multiply(&ones, &ones), acc.multiply_scalar(&ones, &ones));
            assert_eq!(got.product, oracle.product, "product diverged: {what}");
            assert_eq!(got.tally, oracle.tally, "tally diverged: {what}");
            assert_eq!(got.pe_passes, oracle.pe_passes, "pe_passes diverged: {what}");
            assert_eq!(got.cycles, oracle.cycles, "cycles diverged: {what}");
            assert_eq!(got.pe_slots, oracle.pe_slots, "pe_slots diverged: {what}");
            assert_eq!(got.product, &ones * &ones, "must match the software oracle: {what}");
        }
    }
}

#[test]
fn every_chunk_partition_matches_scalar_bit_for_bit() {
    // One chunk (the sequential walk), two, an uneven count and one chunk
    // per window, on dense operands, on a y whose zero runs leave
    // all-zero index tuples on both sides of chunk and window edges, and
    // on an x with all-zero pattern blocks between dense ones.
    let mut rng = StdRng::seed_from_u64(0x000C_40C5);
    let dense = Nat::random_exact_bits(6000, &mut rng);
    let other = Nat::random_exact_bits(5000, &mut rng);
    let mut sparse_y = Nat::power_of_two(5999);
    for lo in [0u64, 700, 2100, 2900, 4400] {
        let run = Nat::random_exact_bits(150, &mut rng);
        sparse_y = &sparse_y + &run.shl_bits(lo);
    }
    let zero_blocks_x = clear_bits(&clear_bits(&dense, 300, 1700), 2500, 4100);
    let pairs = [
        (&dense, &other),
        (&dense, &sparse_y),
        (&zero_blocks_x, &other),
    ];
    for cfg in sliced_configs() {
        let acc = Accelerator::new(cfg.clone());
        for (a, b) in pairs {
            let windows = acc.schedule(a.bit_len(), b.bit_len()).windows;
            assert!(windows >= 4, "{windows} windows leave no uneven partition");
            let oracle = acc.multiply_scalar(a, b);
            assert_eq!(oracle.product, a * b, "the oracle itself");
            for chunks in [1, 2, windows / 2 + 1, windows] {
                let what = format!(
                    "{} x {} bits in {chunks} of {windows} windows (q={}, L={})",
                    a.bit_len(),
                    b.bit_len(),
                    cfg.q,
                    cfg.limb_bits
                );
                assert_identical(&acc.multiply_in_chunks(a, b, chunks), &oracle, &what);
            }
        }
    }
}
