//! Scalar vs Sliced64 kernel-engine timings on the structural PE grid,
//! written as machine-readable JSON to `BENCH_bitsliced.json` at the repo
//! root.
//!
//! The Scalar side is the §IV-B reference `Accelerator::multiply_scalar`,
//! the Sliced64 side `Accelerator::multiply_sequential` on the default
//! configuration (which selects Sliced64). Both run on one host thread,
//! no rayon dispatch, so the reported speedup measures the bitslicing
//! transform (64 bitflow steps per u64 word op) and nothing else. The
//! modeled cycle counts of both engines must be identical (the cycle
//! model is host-independent); a divergence aborts the run before the
//! JSON is written.

use apc_bench::{fmt_seconds, header, sample, Report, BENCH_FLOOR_SECONDS};
use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, KernelBackend};
use cambricon_p::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(64);
    let acc = Accelerator::new(ArchConfig::default());
    assert_eq!(acc.effective_backend(), KernelBackend::Sliced64);
    let mut report = Report::new(
        "bitsliced",
        "Accelerator::multiply_scalar vs multiply_sequential, 1 host thread",
    );

    header("Accelerator::multiply_sequential — Scalar vs Sliced64 kernels (1 host thread)");
    println!(
        "{:>10} {:>12} {:>12} {:>9} {:>8}",
        "bits", "scalar", "sliced64", "speedup", "cycles"
    );
    for bits in [1024u64, 2048, 4096, 8192, 16384] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let s = acc.multiply_scalar(&a, &b);
        let v = acc.multiply_sequential(&a, &b);
        assert_eq!(
            s.product, v.product,
            "Sliced64 product diverged at {bits} bits"
        );
        assert!(
            s.cycles == v.cycles
                && s.pe_passes == v.pe_passes
                && s.stages == v.stages
                && s.pe_slots == v.pe_slots
                && s.tally == v.tally,
            "Sliced64 cycle model diverged from the Scalar oracle at {bits} bits"
        );
        let scalar = sample(BENCH_FLOOR_SECONDS, || acc.multiply_scalar(&a, &b));
        let sliced = sample(BENCH_FLOOR_SECONDS, || acc.multiply_sequential(&a, &b));
        let speedup = scalar.median / sliced.median;
        println!(
            "{bits:>10} {:>12} {:>12} {speedup:>8.2}x {:>8}",
            fmt_seconds(scalar.median),
            fmt_seconds(sliced.median),
            s.cycles
        );
        let point = [("bits", bits.to_string())];
        report.sample("scalar_seconds", &point, &scalar);
        report.sample("sliced_seconds", &point, &sliced);
        report.gauge("speedup", &point, speedup);
        report.gauge("cycles", &point, s.cycles as f64);
    }
    report.write();
}
