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
//!
//! The Sliced64 side reuses one left operand, so every call of a timed
//! batch but the first finds its Converter tables in the pattern cache
//! (the fresh sample's misses can evict them between batches). A third
//! sample, timed in the same rounds, cycles its left operand through
//! `FRESH_OPERANDS` operands, more than the cache holds, so every call
//! misses and builds them; `fresh_over_reused` is the median and
//! quartiles of the per-round fresh/reused ratios, the price of a miss.

use apc_bench::{fmt_seconds, header, sample_rounds, Report, BENCH_FLOOR_SECONDS};
use apc_bignum::Nat;
use cambricon_p::accelerator::{Accelerator, KernelBackend};
use cambricon_p::ArchConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Left operands the fresh sample cycles through: more than the pattern
/// cache's 64 entries, so each is evicted before it comes back.
const FRESH_OPERANDS: usize = 96;

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
        "{:>10} {:>12} {:>12} {:>9} {:>19} {:>12} {:>15} {:>8}",
        "bits", "scalar", "sliced64", "speedup", "[q1, q3]", "fresh", "fresh/reused", "cycles"
    );
    for bits in [1024u64, 2048, 4096, 8192, 16384] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let fresh: Vec<Nat> = (0..FRESH_OPERANDS)
            .map(|_| Nat::random_exact_bits(bits, &mut rng))
            .collect();
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
        let mut next = 0;
        let mut sliced_fresh = || {
            next = (next + 1) % FRESH_OPERANDS;
            std::hint::black_box(acc.multiply_sequential(&fresh[next], &b));
        };
        let rounds = sample_rounds(
            BENCH_FLOOR_SECONDS,
            &mut [&mut scalar, &mut sliced, &mut sliced_fresh],
        );
        let speedup = rounds.ratio(0, 1);
        let fresh_over_reused = rounds.ratio(2, 1);
        println!(
            "{bits:>10} {:>12} {:>12} {:>8.2}x [{:>7.2}, {:>7.2}] {:>12} {:>14.3}x {:>8}",
            fmt_seconds(rounds.sample(0).median),
            fmt_seconds(rounds.sample(1).median),
            speedup.median,
            speedup.q1,
            speedup.q3,
            fmt_seconds(rounds.sample(2).median),
            fresh_over_reused.median,
            s.cycles
        );
        let point = [("bits", bits.to_string())];
        report.sample("scalar_seconds", &point, &rounds.sample(0));
        report.sample("sliced_seconds", &point, &rounds.sample(1));
        report.sample("speedup", &point, &speedup);
        report.sample("sliced_fresh_seconds", &point, &rounds.sample(2));
        report.sample("fresh_over_reused", &point, &fresh_over_reused);
        report.gauge("cycles", &point, s.cycles as f64);
    }
    report.write();
}
