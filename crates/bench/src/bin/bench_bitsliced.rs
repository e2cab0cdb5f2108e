//! Scalar vs Sliced64 kernel-engine timings on the structural PE grid,
//! written as machine-readable JSON to `BENCH_bitsliced.json` at the repo
//! root.
//!
//! The Scalar side is the §IV-B reference `Accelerator::multiply_scalar`,
//! the Sliced64 side `Accelerator::multiply_sequential` on the default
//! configuration (which selects Sliced64). Both run on one host thread,
//! no rayon dispatch, so the reported speedup measures the bitslicing
//! transform (64 bitflow steps per u64 word op) and nothing else. The
//! engines are timed in paired rounds (`apc_bench::sample_rounds`), and
//! `speedup` is the median and quartiles of the per-round scalar/sliced
//! ratios, so a drift in the host's speed between the two engines'
//! samples cancels instead of landing in the ratio. The
//! modeled cycle counts of both engines must be identical (the cycle
//! model is host-independent); a divergence aborts the run before the
//! JSON is written.

use apc_bench::{fmt_seconds, header, sample_rounds, Report, BENCH_FLOOR_SECONDS};
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
        "{:>10} {:>12} {:>12} {:>9} {:>19} {:>8}",
        "bits", "scalar", "sliced64", "speedup", "[q1, q3]", "cycles"
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
        let mut scalar = || {
            std::hint::black_box(acc.multiply_scalar(&a, &b));
        };
        let mut sliced = || {
            std::hint::black_box(acc.multiply_sequential(&a, &b));
        };
        let rounds = sample_rounds(BENCH_FLOOR_SECONDS, &mut [&mut scalar, &mut sliced]);
        let speedup = rounds.ratio(0, 1);
        println!(
            "{bits:>10} {:>12} {:>12} {:>8.2}x [{:>7.2}, {:>7.2}] {:>8}",
            fmt_seconds(rounds.sample(0).median),
            fmt_seconds(rounds.sample(1).median),
            speedup.median,
            speedup.q1,
            speedup.q3,
            s.cycles
        );
        let point = [("bits", bits.to_string())];
        report.sample("scalar_seconds", &point, &rounds.sample(0));
        report.sample("sliced_seconds", &point, &rounds.sample(1));
        report.sample("speedup", &point, &speedup);
        report.gauge("cycles", &point, s.cycles as f64);
    }
    report.write();
}
