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
//! boundaries live) and compares every `RunOutcome` field.

use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, RunOutcome};
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
/// `multiply` against `multiply_scalar` and the software oracle.
fn sweep_against_oracle(acc: &Accelerator, rng: &mut StdRng) {
    let q = acc.config().q;
    let l = acc.config().limb_bits;
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
