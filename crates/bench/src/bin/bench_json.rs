//! Sequential vs parallel multiply timings, written as machine-readable
//! JSON to `BENCH_mul_parallel.json` at the repo root.
//!
//! Two layers are timed (at Fig. 11 sweep sizes):
//!
//! - `accelerator` — the structural `Accelerator::multiply` PE(b, w) grid,
//!   sequential vs the §III inter-IPU/inter-PE host dispatch;
//! - `software_mul` — the `apc-bignum` substrate (`Nat` ×). Both legs
//!   run the build's `Auto` ladder (`Thresholds::PARALLEL` with the
//!   feature); the sequential leg keeps its forks on this thread with
//!   `apc_bignum::par::sequential`.
//!
//! Build with `--features parallel` for a real comparison; without the
//! feature both legs time the same sequential path. The header records
//! the actual pool size (honoring the `APC_THREADS` override) and
//! whether the parallel leg really dispatched across threads; when it
//! did not (feature off, or a 1-worker pool), the `speedup` ratios are
//! omitted, so the JSON can never read as a parallel measurement that
//! never ran in parallel. The two legs of a pair run in paired rounds
//! (`apc_bench::sample_rounds`), and `speedup` is the median per-round
//! ratio sequential / parallel, so a drift in the host's speed cancels.
//! Every timed pair is checked bit-identical before anything is written;
//! the Scalar-vs-Sliced64 engine table lives in `bench_bitsliced`.

use apc_bench::{fmt_seconds, header, sample_rounds, Report, BENCH_FLOOR_SECONDS};
use apc_bignum::nat::mul::Thresholds;
use apc_bignum::{par, Nat};
use cambricon_p::accelerator::Accelerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Times both legs in paired rounds, prints one row and records both
/// legs (plus the median per-round speedup, when the parallel leg was
/// effective) under `layer`/`bits`/`algorithm` labels.
fn record(
    report: &mut Report,
    layer: &str,
    bits: u64,
    algorithm: &str,
    seq: &mut dyn FnMut(),
    par: &mut dyn FnMut(),
) {
    let rounds = sample_rounds(BENCH_FLOOR_SECONDS, &mut [seq, par]);
    let (seq, par) = (rounds.sample(0), rounds.sample(1));
    let speedup = rounds.ratio(0, 1).median;
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
    report.sample("seq_seconds", &point, &seq);
    report.sample("par_seconds", &point, &par);
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
        record(
            &mut report,
            "accelerator",
            bits,
            "PE-grid",
            &mut || {
                black_box(acc.multiply_sequential(&a, &b));
            },
            &mut || {
                black_box(acc.multiply(&a, &b));
            },
        );
    }

    // Software substrate: Nat multiplication with the Toom-k pointwise
    // products dispatched across threads (Fig. 11 sweep sizes in the
    // bands of the rungs that fork: Toom-4 from 1536 limbs and Toom-6
    // from 24576 in `Thresholds::PARALLEL`).
    header("apc-bignum Nat multiply — sequential vs parallel sub-products");
    table_header();
    // The label is the algorithm apc-bignum's own `Auto` ladder picks at
    // the top level for this width, which is what the timed `&a * &b` runs.
    let thresholds = Thresholds::default();
    for bits in [131_072u64, 262_144, 1_048_576, 4_194_304] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        assert_eq!(
            par::sequential(|| &a * &b),
            &a * &b,
            "parallel Nat multiply diverged from sequential at {bits} bits"
        );
        let algorithm = format!("{:?}", thresholds.select(a.limb_len()));
        record(
            &mut report,
            "software_mul",
            bits,
            &algorithm,
            &mut || {
                black_box(par::sequential(|| &a * &b));
            },
            &mut || {
                black_box(&a * &b);
            },
        );
    }

    report.write();
}
