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
//! and sizes the grid exactly as the operands' Eq. 1 limb vectors do.

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

/// Sweeps `acc` over every width (plus zero and one) and checks
/// `multiply` against `multiply_scalar`, the software oracle and the
/// closed-form `Accelerator::schedule`.
fn sweep_against_oracle(acc: &Accelerator, rng: &mut StdRng) {
    let (q, l) = (acc.config().q, acc.config().limb_bits);
    let (n_pe, n_ipu) = (acc.config().n_pe, acc.config().n_ipu);
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
    let mut converter_cycles = 0;
    for (a, b) in &pairs {
        let what = format!("{} x {} bits (q={q}, L={l})", a.bit_len(), b.bit_len());
        let got = acc.multiply(a, b);
        assert_identical(&got, &acc.multiply_scalar(a, b), &what);
        assert_eq!(got.product, a * b, "must match the software oracle: {what}");
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
    assert!(converter_cycles > 0, "the sweep did real work");
}

#[test]
fn sliced_mul_structural_matches_scalar_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xB175_11CE);
    for cfg in [
        ArchConfig::default(),
        ArchConfig {
            n_pe: 4,
            n_ipu: 4,
            q: 3,
            limb_bits: 20,
            ..ArchConfig::default()
        },
        ArchConfig {
            n_pe: 2,
            n_ipu: 2,
            q: 2,
            limb_bits: 8,
            ..ArchConfig::default()
        },
    ] {
        let acc = Accelerator::new(cfg);
        assert_eq!(acc.effective_backend(), KernelBackend::Sliced64);
        sweep_against_oracle(&acc, &mut rng);
    }
}

#[test]
fn unsupported_envelope_is_still_exact() {
    // L = 64 with q = 4 exceeds the one-word pattern envelope: the
    // configuration selects the Scalar engine and stays bit-exact.
    let acc = Accelerator::new(ArchConfig {
        limb_bits: 64,
        ..ArchConfig::default()
    });
    assert_eq!(acc.effective_backend(), KernelBackend::Scalar);
    sweep_against_oracle(&acc, &mut StdRng::seed_from_u64(7));
}
