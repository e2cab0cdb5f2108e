//! The repository benchmark: two seeded workloads through the
//! Cambricon-P reproduction stack, every answer checked against
//! apc-bignum.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wire-mul|structural-mul> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` tracing is off (`apc_trace::set_enabled(false)`) and
//! the run prints the end-to-end metrics. With `--trace 1` it prints the
//! per-layer metrics: throughput of alternating untraced and traced
//! slices, the program's own serve histograms, a serial replay of the
//! workload's jobs at every layer (the layer ledger), and deterministic
//! counts checked to repeat exactly. Spans from the replay are written to
//! `perfbench/out/spans-<workload>-seed<n>.csv`. The last line of
//! standard output is always the JSON result.

mod ledger;
mod report;
mod spans;
mod stats;
mod structural;
mod wire;
mod workload;

use report::{json_num, json_str, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::Workload;

/// Command-line arguments.
#[derive(Debug)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Whether this is the traced, per-layer run.
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
                "--seconds" => {
                    seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(seconds > 0.0 && seconds <= 600.0) {
                        return Err(format!("seconds {value} outside (0, 600]"));
                    }
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// Every end-to-end metric, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 7] = [
    "throughput_ops_s",
    "latency_p50_us",
    "latency_p99_us",
    "modeled_cycles_per_op",
    "success_ratio",
    "setup_s",
    "peak_rss_mb",
];

/// Every per-layer metric with its unit, as `BENCHMARK.json` lists them.
/// A traced run reports 0 for the ones its workload does not execute.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("bignum.mul_us", "us"),
    ("device.marginal_us", "us"),
    ("accelerator.marginal_us", "us"),
    ("accelerator.call_us.b1024", "us"),
    ("accelerator.call_us.b2048", "us"),
    ("accelerator.call_us.b4096", "us"),
    ("accelerator.call_us.b8192", "us"),
    ("accelerator.reused_call_us", "us"),
    ("accelerator.fresh_call_us", "us"),
    ("accelerator.host_ns_per_pe_slot", "ns"),
    ("accelerator.stage_cycles.converter", "cycles"),
    ("accelerator.stage_cycles.ipu", "cycles"),
    ("accelerator.stage_cycles.gu", "cycles"),
    ("accelerator.stage_cycles.adder_tree", "cycles"),
    ("accelerator.pe_utilization", "ratio"),
    ("accelerator.cycles_over_analytic.b1024", "ratio"),
    ("accelerator.cycles_over_analytic.b2048", "ratio"),
    ("accelerator.cycles_over_analytic.b4096", "ratio"),
    ("accelerator.cycles_over_analytic.b8192", "ratio"),
    ("accelerator.cycles_over_table3", "ratio"),
    ("pattern_cache.hits", "count"),
    ("pattern_cache.misses", "count"),
    ("pattern_cache.hit_ratio", "ratio"),
    ("pattern_cache.evictions", "count"),
    ("serve.marginal_us", "us"),
    ("serve.mean_batch_size", "jobs"),
    ("serve.submit_us_p50", "us"),
    ("serve.queue_wait_us_p50", "us"),
    ("serve.queue_wait_us_p99", "us"),
    ("serve.batch_form_us_p50", "us"),
    ("serve.dispatch_wait_us_p50", "us"),
    ("serve.dispatch_wait_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.rejected_ratio", "ratio"),
    ("router.max_shard_share", "ratio"),
    ("wire.codec_us", "us"),
    ("net.marginal_us", "us"),
    ("net.unattributed_us", "us"),
    ("net.decode_errors", "count"),
    ("net.admission_rejects", "count"),
    ("ledger.client_mean_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("error_rate", "ratio"),
];

/// Puts the reported metrics in `BENCHMARK.json` order, adding the ones
/// the workload does not execute as 0 and listing them.
fn complete_per_layer(outcome: &mut Outcome) -> Vec<&'static str> {
    let mut ordered = report::Metrics::default();
    let mut absent = Vec::new();
    for (name, unit) in PER_LAYER {
        let value = outcome.metrics.get(name).unwrap_or_else(|| {
            absent.push(name);
            0.0
        });
        ordered.push(name, value, unit);
    }
    debug_assert!(outcome
        .metrics
        .0
        .iter()
        .all(|m| PER_LAYER.iter().any(|(name, _)| *name == m.name)));
    outcome.metrics = ordered;
    absent
}

fn header(args: &Args, path: &str, clients: usize) -> String {
    let fields = [
        ("workload", json_str(args.workload.name())),
        ("seed", args.seed.to_string()),
        ("seconds", json_num(args.seconds)),
        ("trace", args.trace.to_string()),
        (
            "tracing",
            json_str(if args.trace {
                "alternating untraced and traced slices, then on"
            } else {
                "off"
            }),
        ),
        ("nproc", report::nproc().to_string()),
        ("pool_threads", apc_bignum::par::pool_threads().to_string()),
        ("parallel", apc_bignum::par::parallel_enabled().to_string()),
        ("clients", clients.to_string()),
        ("path", json_str(path)),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("header {{{}}}", body.join(", "))
}

fn spans_path(args: &Args) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "spans-{}-seed{}.csv",
            args.workload.name(),
            args.seed
        ))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (path, clients) = match args.workload {
        Workload::StructuralMul => (structural::path_note(), 1),
        Workload::WireMul => (wire::PATH.to_string(), wire::CLIENTS),
    };
    println!("{}", header(&args, &path, clients));
    let mut spans = spans::SpanLog::default();
    let result = match (args.workload, args.trace) {
        (Workload::StructuralMul, false) => structural::run(&args),
        (Workload::StructuralMul, true) => structural::run_traced(&args, &mut spans),
        (Workload::WireMul, false) => wire::run(&args),
        (Workload::WireMul, true) => wire::run_traced(&args, &mut spans),
    };
    let mut outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let absent = complete_per_layer(&mut outcome);
        outcome.notes.push(format!(
            "not executed by this workload (reported as 0): {}",
            absent.join(", ")
        ));
        let file = spans_path(&args);
        match spans.write_csv(&file) {
            Ok(()) => outcome.notes.push(format!(
                "spans: {} written to {}",
                spans.spans().len(),
                file.display()
            )),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", file.display());
                return ExitCode::FAILURE;
            }
        }
    }
    for what in &outcome.failed_checks {
        eprintln!("perfbench: check failed: {what}");
    }
    for note in &outcome.notes {
        println!("{note}");
    }
    println!("{}", report::result_json(&outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn listed(name: &str) -> bool {
        BENCHMARK_JSON.contains(&format!("\"name\": \"{name}\""))
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        for name in END_TO_END {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for (name, _) in PER_LAYER {
            assert!(listed(name), "{name} missing from BENCHMARK.json");
        }
        for w in ["wire-mul", "structural-mul"] {
            assert!(listed(w));
            assert!(Workload::parse(w).is_some_and(|p| p.name() == w));
        }
    }

    #[test]
    fn args_are_checked() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload structural-mul --seed 9 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::StructuralMul, 9, 2.5, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload wire-mul --trace 2").is_err());
        assert!(parse("--workload wire-mul --seconds").is_err());
    }
}
