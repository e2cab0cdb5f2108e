//! Sequential vs parallel multiply timings, written as machine-readable
//! JSON to `BENCH_mul_parallel.json` at the repo root.
//!
//! Two layers are timed (reusing the Fig. 11 sweep sizes):
//!
//! - `accelerator` — the structural `Accelerator::multiply` PE(b, w) grid,
//!   sequential vs the §III inter-IPU/inter-PE host dispatch;
//! - `software_mul` — the `apc-bignum` substrate (`Nat` ×), with the
//!   Toom-k/SSA sub-multiplications kept on this thread by
//!   `apc_bignum::par::sequential` for the sequential leg.
//!
//! Build with `--features parallel` for a real comparison; without the
//! feature both legs time the same sequential path. The header records
//! the actual pool size (honoring the `APC_THREADS` override) and
//! whether the parallel leg really dispatched across threads; when it
//! did not (feature off, or a 1-worker pool), the `speedup` ratios are
//! omitted, so the JSON can never read as a parallel measurement that
//! never ran in parallel. Every timed pair is checked bit-identical
//! before anything is written; the Scalar-vs-Sliced64 engine table lives
//! in `bench_bitsliced`.

use apc_bench::{fmt_seconds, header, sample, Report, Sample, BENCH_FLOOR_SECONDS};
use apc_bignum::nat::mul::Thresholds;
use apc_bignum::{par, Nat};
use cambricon_p::accelerator::Accelerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Prints one row and records both legs (plus the ratio, when the
/// parallel leg was effective) under `layer`/`bits`/`algorithm` labels.
fn record(
    report: &mut Report,
    layer: &str,
    bits: u64,
    algorithm: &str,
    seq: &Sample,
    par: &Sample,
) {
    let speedup = seq.median / par.median;
    println!(
        "{bits:>10} {algorithm:>10} {:>12} {:>12} {speedup:>8.2}x",
        fmt_seconds(seq.median),
        fmt_seconds(par.median)
    );
    let point = [
        ("layer", layer.to_string()),
        ("bits", bits.to_string()),
        ("algorithm", algorithm.to_string()),
    ];
    report.sample("seq_seconds", &point, seq);
    report.sample("par_seconds", &point, par);
    report.parallel_ratio("speedup", &point, speedup);
}

fn table_header() {
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>9}",
        "bits", "algorithm", "sequential", "parallel", "speedup"
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let mut report = Report::new(
        "mul_parallel",
        "Accelerator::multiply_sequential vs multiply; Nat multiply in par::sequential vs pool",
    );

    // Structural model: the PE(b, w) grid of Accelerator::multiply.
    header("Accelerator::multiply — sequential vs parallel PE dispatch");
    table_header();
    let acc = Accelerator::new_default();
    for bits in [1024u64, 2048, 4096, 8192] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let seq = acc.multiply_sequential(&a, &b);
        let par = acc.multiply(&a, &b);
        assert!(
            seq.product == par.product
                && seq.cycles == par.cycles
                && seq.pe_passes == par.pe_passes
                && seq.tally == par.tally,
            "parallel PE grid diverged from sequential at {bits} bits"
        );
        let seq_time = sample(BENCH_FLOOR_SECONDS, || acc.multiply_sequential(&a, &b));
        let par_time = sample(BENCH_FLOOR_SECONDS, || acc.multiply(&a, &b));
        record(
            &mut report,
            "accelerator",
            bits,
            "PE-grid",
            &seq_time,
            &par_time,
        );
    }

    // Software substrate: Nat multiplication with the Toom-k pointwise
    // products / SSA butterflies dispatched across threads (Fig. 11 sweep
    // sizes in the Toom and SSA regions).
    header("apc-bignum Nat multiply — sequential vs parallel sub-products");
    table_header();
    // The label is the algorithm apc-bignum's own `Auto` ladder picks at
    // the top level for this width, which is what the timed `&a * &b` runs.
    let thresholds = Thresholds::default();
    for bits in [65_536u64, 262_144, 1_048_576, 4_194_304] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        assert_eq!(
            par::sequential(|| &a * &b),
            &a * &b,
            "parallel Nat multiply diverged from sequential at {bits} bits"
        );
        let seq_time = par::sequential(|| sample(BENCH_FLOOR_SECONDS, || &a * &b));
        let par_time = sample(BENCH_FLOOR_SECONDS, || &a * &b);
        let algorithm = format!("{:?}", thresholds.select(a.limb_len()));
        record(
            &mut report,
            "software_mul",
            bits,
            &algorithm,
            &seq_time,
            &par_time,
        );
    }

    report.write();
}
