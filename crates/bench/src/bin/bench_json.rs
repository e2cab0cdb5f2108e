//! Sequential vs parallel multiply timings, written as machine-readable
//! JSON to `BENCH_mul_parallel.json` at the repo root.
//!
//! Two layers are timed (reusing the Fig. 11 sweep sizes):
//!
//! - `accelerator` — the structural `Accelerator::multiply` PE(b, w) grid,
//!   sequential vs the §III inter-IPU/inter-PE host dispatch;
//! - `software_mul` — the `apc-bignum` substrate (`Nat` ×), with the
//!   Toom-k/SSA sub-multiplication parallelism toggled via
//!   `apc_bignum::par::set_parallel_enabled`.
//!
//! A third table (`kernel_backend_compare`) times the Scalar oracle
//! (`Accelerator::multiply_scalar`) against the configured Sliced64
//! word-parallel engine on the same sequential PE grid, and the header
//! records which `kernel_backend` produced the two tables above; the
//! full sliced sweep with cycle-identity checks lives in
//! `bench_bitsliced` / `BENCH_bitsliced.json`.
//!
//! Build with `--features parallel` for a real comparison; without the
//! feature both columns time the same sequential path and the JSON says so
//! in `parallel_feature`. `threads` is the worker count of the *actual*
//! pool (honoring the `APC_THREADS` override), and `parallel_effective`
//! records whether the parallel column really dispatched across threads —
//! when it did not (feature off, or a 1-worker pool), the per-row
//! `speedup` is emitted as `null` so the JSON can never read as a
//! parallel measurement that never ran in parallel. Every timed pair is
//! also checked bit-identical.

use apc_bench::{fmt_seconds, header, time_best};
use apc_bignum::Nat;
use cambricon_p::accelerator::Accelerator;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;

struct Row {
    bits: u64,
    algorithm: String,
    seq_seconds: f64,
    par_seconds: f64,
    bit_identical: bool,
    /// Whether the "parallel" column actually ran multi-threaded; rows
    /// timed on a sequential dispatch carry `speedup: null`.
    effective: bool,
}

impl Row {
    fn json(&self) -> String {
        let speedup = if self.effective {
            format!("{}", self.seq_seconds / self.par_seconds)
        } else {
            "null".to_string()
        };
        format!(
            "{{\"bits\": {}, \"algorithm\": \"{}\", \"seq_seconds\": {}, \"par_seconds\": {}, \"speedup\": {}, \"bit_identical\": {}}}",
            self.bits, self.algorithm, self.seq_seconds, self.par_seconds, speedup, self.bit_identical
        )
    }

    fn print(&self) {
        let speedup = if self.effective {
            format!("{:>8.2}x", self.seq_seconds / self.par_seconds)
        } else {
            format!("{:>9}", "--")
        };
        println!(
            "{:>10} {:>10} {:>12} {:>12} {} {}",
            self.bits,
            self.algorithm,
            fmt_seconds(self.seq_seconds),
            fmt_seconds(self.par_seconds),
            speedup,
            if self.bit_identical { "exact" } else { "MISMATCH" }
        );
    }
}

fn table_header() {
    println!(
        "{:>10} {:>10} {:>12} {:>12} {:>9} {}",
        "bits", "algorithm", "sequential", "parallel", "speedup", "check"
    );
}

/// One scalar-vs-sliced kernel-backend timing (both columns sequential on
/// one host thread, so the ratio is the bitslicing win alone).
struct BackendRow {
    bits: u64,
    scalar_seconds: f64,
    sliced_seconds: f64,
    identical: bool,
}

impl BackendRow {
    fn json(&self) -> String {
        format!(
            "{{\"bits\": {}, \"scalar_seconds\": {}, \"sliced_seconds\": {}, \"speedup\": {}, \"bit_identical\": {}}}",
            self.bits,
            self.scalar_seconds,
            self.sliced_seconds,
            self.scalar_seconds / self.sliced_seconds,
            self.identical
        )
    }

    fn print(&self) {
        println!(
            "{:>10} {:>10} {:>12} {:>12} {:>8.2}x {}",
            self.bits,
            "backend",
            fmt_seconds(self.scalar_seconds),
            fmt_seconds(self.sliced_seconds),
            self.scalar_seconds / self.sliced_seconds,
            if self.identical { "exact" } else { "MISMATCH" }
        );
    }
}

fn main() {
    let mut rng = StdRng::seed_from_u64(11);
    let parallel_feature = cfg!(feature = "parallel");
    // The real pool size (not `max_threads`, which reports 1 whenever the
    // runtime switch has dispatch turned off — as it is during the
    // sequential timing legs below).
    let threads = apc_bignum::par::pool_threads();
    let parallel_effective = parallel_feature && threads > 1;
    if !parallel_effective {
        println!(
            "note: parallel dispatch is not effective (feature: {parallel_feature}, pool \
             workers: {threads}); speedup fields will be null"
        );
    }

    // Structural model: the PE(b, w) grid of Accelerator::multiply. The
    // grid is small at these sizes, so reps are cheap.
    header("Accelerator::multiply — sequential vs parallel PE dispatch");
    table_header();
    let acc = Accelerator::new_default();
    let mut accel_rows = Vec::new();
    for bits in [1024u64, 2048, 4096, 8192] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let seq = acc.multiply_sequential(&a, &b);
        let par = acc.multiply(&a, &b);
        let bit_identical = seq.product == par.product
            && seq.cycles == par.cycles
            && seq.pe_passes == par.pe_passes
            && seq.tally == par.tally;
        let row = Row {
            bits,
            algorithm: "PE-grid".into(),
            seq_seconds: time_best(5, 10.0, || acc.multiply_sequential(&a, &b)),
            par_seconds: time_best(5, 10.0, || acc.multiply(&a, &b)),
            bit_identical,
            effective: parallel_effective,
        };
        row.print();
        accel_rows.push(row);
    }

    // Kernel engines: the Scalar oracle (`multiply_scalar`) vs the
    // configured engine on the same sequential PE grid (the sliced table
    // proper, with cycle-identity checks, lives in bench_bitsliced /
    // BENCH_bitsliced.json).
    header("Accelerator::multiply_scalar vs multiply_sequential — Scalar vs Sliced64 kernels");
    let mut backend_rows = Vec::new();
    for bits in [1024u64, 4096] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        let s = acc.multiply_scalar(&a, &b);
        let v = acc.multiply_sequential(&a, &b);
        let row = BackendRow {
            bits,
            scalar_seconds: time_best(5, 10.0, || acc.multiply_scalar(&a, &b)),
            sliced_seconds: time_best(20, 10.0, || acc.multiply_sequential(&a, &b)),
            identical: s.product == v.product && s.cycles == v.cycles && s.tally == v.tally,
        };
        row.print();
        backend_rows.push(row);
    }

    // Software substrate: Nat multiplication with the Toom-k pointwise
    // products / SSA butterflies dispatched across threads (Fig. 11 sweep
    // sizes in the Toom and SSA regions).
    header("apc-bignum Nat multiply — sequential vs parallel sub-products");
    table_header();
    let device = cambricon_p::mpapca::Device::new_default();
    let mut sw_rows = Vec::new();
    for bits in [65_536u64, 262_144, 1_048_576, 4_194_304] {
        let a = Nat::random_exact_bits(bits, &mut rng);
        let b = Nat::random_exact_bits(bits, &mut rng);
        apc_bignum::par::set_parallel_enabled(false);
        let (seq_product, _) = apc_bench::time_once(|| &a * &b);
        let seq_seconds = time_best(3, 15.0, || &a * &b);
        apc_bignum::par::set_parallel_enabled(true);
        let (par_product, _) = apc_bench::time_once(|| &a * &b);
        let par_seconds = time_best(3, 15.0, || &a * &b);
        let row = Row {
            bits,
            algorithm: format!("{:?}", device.thresholds().select(bits)),
            seq_seconds,
            par_seconds,
            bit_identical: seq_product == par_product,
            effective: parallel_effective,
        };
        row.print();
        sw_rows.push(row);
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"mul_parallel\",");
    let _ = writeln!(json, "  \"parallel_feature\": {parallel_feature},");
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"parallel_effective\": {parallel_effective},");
    let _ = writeln!(
        json,
        "  \"kernel_backend\": \"{}\",",
        acc.effective_backend().name()
    );
    for (key, rows) in [("accelerator", &accel_rows), ("software_mul", &sw_rows)] {
        let _ = writeln!(json, "  \"{key}\": [");
        for (i, row) in rows.iter().enumerate() {
            let comma = if i + 1 < rows.len() { "," } else { "" };
            let _ = writeln!(json, "    {}{comma}", row.json());
        }
        let _ = writeln!(json, "  ],");
    }
    let _ = writeln!(json, "  \"kernel_backend_compare\": [");
    for (i, row) in backend_rows.iter().enumerate() {
        let comma = if i + 1 < backend_rows.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", row.json());
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_mul_parallel.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_mul_parallel.json");
    println!();
    println!("wrote {}", out.display());

    let all_exact = accel_rows.iter().chain(&sw_rows).all(|r| r.bit_identical)
        && backend_rows.iter().all(|r| r.identical);
    assert!(all_exact, "parallel results diverged from sequential");
}
