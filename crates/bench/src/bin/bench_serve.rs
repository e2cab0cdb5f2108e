//! Serving-layer throughput and latency under offered load, written as
//! machine-readable JSON to `BENCH_serve_throughput.json` at the repo
//! root.
//!
//! Closed-loop tenants share one `apc-serve` instance: each client thread
//! submits a job and waits for its report before submitting the next, so
//! offered load scales with the client count. At 1 client the service
//! degenerates to serial one-job-at-a-time operation (every batch holds
//! one job — the baseline); at higher client counts the free worker forms
//! real batches and the per-batch cost (channel wake + source lock +
//! batch formation) amortizes across the batch. The paper's §VII utilization
//! argument, transplanted to the host: group compatible work so the
//! compute resources spend their time computing, not synchronizing.
//!
//! A direct-device loop (no service, no queue) is also timed as the
//! reference ceiling for this operand size.
//!
//! A final fixed-modulus section measures the pattern-table cache on a
//! repeated-operand structural workload (one modulus, many
//! multiplicands — the RSA/zkcm shape the cache exists for) and records
//! the observed hit rate next to cached and uncached throughput.

use apc_bench::{fmt_seconds, header};
use apc_bignum::Nat;
use apc_serve::{Job, JobSpec, MetricsSnapshot, ServeConfig, ServeHandle};
use apc_trace::export::histogram_json;
use cambricon_p::pattern_cache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

const OPERAND_BITS: u64 = 2048;
const JOBS_PER_CLIENT: usize = 150;
const WORKERS: usize = 2;
const BATCH_MAX: usize = 16;

struct LoadPoint {
    clients: usize,
    jobs: usize,
    wall_seconds: f64,
    throughput: f64,
    p50_latency_s: f64,
    p99_latency_s: f64,
    mean_batch_size: f64,
    max_queue_depth: usize,
    // Service-side span histograms (apc-trace, ns / cycle domain), so
    // the JSON carries queue-wait and service p50/p99 as seen by the
    // service rather than only the client-observed round trip.
    metrics: MetricsSnapshot,
}

impl LoadPoint {
    fn json(&self) -> String {
        format!(
            "{{\"clients\": {}, \"jobs\": {}, \"wall_seconds\": {}, \"throughput_jobs_per_s\": {}, \"p50_latency_s\": {}, \"p99_latency_s\": {}, \"mean_batch_size\": {}, \"max_queue_depth\": {}, \"queue_wait_ns\": {}, \"service_ns\": {}, \"service_cycles\": {}, \"batch_form_ns\": {}, \"dispatch_wait_ns\": {}}}",
            self.clients,
            self.jobs,
            self.wall_seconds,
            self.throughput,
            self.p50_latency_s,
            self.p99_latency_s,
            self.mean_batch_size,
            self.max_queue_depth,
            histogram_json(&self.metrics.queue_wait_ns),
            histogram_json(&self.metrics.service_ns),
            histogram_json(&self.metrics.service_cycles),
            histogram_json(&self.metrics.batch_form_ns),
            histogram_json(&self.metrics.dispatch_wait_ns)
        )
    }

    fn print(&self) {
        println!(
            "{:>8} {:>8} {:>12} {:>14.1} {:>12} {:>12} {:>11.2} {:>10}",
            self.clients,
            self.jobs,
            fmt_seconds(self.wall_seconds),
            self.throughput,
            fmt_seconds(self.p50_latency_s),
            fmt_seconds(self.p99_latency_s),
            self.mean_batch_size,
            self.max_queue_depth
        );
    }
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// One closed-loop run: `clients` tenant threads, each submitting
/// `JOBS_PER_CLIENT` multiplies and waiting for each report in turn.
fn run_load_point(clients: usize, operands: &[(Nat, Nat)]) -> LoadPoint {
    let serve = ServeHandle::start(ServeConfig {
        workers: WORKERS,
        batch_max: BATCH_MAX,
        ..ServeConfig::default()
    });
    let t0 = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let serve = serve.clone();
                s.spawn(move || {
                    let mut lat = Vec::with_capacity(JOBS_PER_CLIENT);
                    for i in 0..JOBS_PER_CLIENT {
                        let (a, b) = &operands[(c * JOBS_PER_CLIENT + i) % operands.len()];
                        let t = Instant::now();
                        let report = serve
                            .submit_wait(
                                Job::Mul { a: a.clone(), b: b.clone() },
                                JobSpec::default(),
                            )
                            .expect("closed-loop submit cannot overflow the queue");
                        lat.push(t.elapsed().as_secs_f64());
                        assert!(report.service_cycles > 0);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_seconds = t0.elapsed().as_secs_f64();
    serve.shutdown();
    let m = serve.metrics();
    let jobs = clients * JOBS_PER_CLIENT;
    assert_eq!(m.completed, jobs as u64, "every job must complete");
    latencies.sort_by(|x, y| x.partial_cmp(y).expect("finite latencies"));
    LoadPoint {
        clients,
        jobs,
        wall_seconds,
        throughput: jobs as f64 / wall_seconds,
        p50_latency_s: percentile(&latencies, 0.50),
        p99_latency_s: percentile(&latencies, 0.99),
        mean_batch_size: m.mean_batch_size(),
        max_queue_depth: m.max_queue_depth,
        metrics: m,
    }
}

fn ns_as_seconds(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn main() {
    let mut rng = StdRng::seed_from_u64(2022);
    let operands: Vec<(Nat, Nat)> = (0..64)
        .map(|_| {
            (
                Nat::random_exact_bits(OPERAND_BITS, &mut rng),
                Nat::random_exact_bits(OPERAND_BITS, &mut rng),
            )
        })
        .collect();

    // Reference ceiling: the same multiplies straight on a private device,
    // no queue, no threads.
    let device = cambricon_p::mpapca::Device::new_default();
    let t0 = Instant::now();
    let direct_jobs = 300usize;
    for i in 0..direct_jobs {
        let (a, b) = &operands[i % operands.len()];
        let _ = device.mul(a, b);
    }
    let direct_throughput = direct_jobs as f64 / t0.elapsed().as_secs_f64();

    header(&format!(
        "apc-serve closed-loop throughput — {OPERAND_BITS}-bit multiplies, {WORKERS} workers, batch_max {BATCH_MAX}"
    ));
    println!(
        "{:>8} {:>8} {:>12} {:>14} {:>12} {:>12} {:>11} {:>10}",
        "clients", "jobs", "wall", "jobs/s", "p50", "p99", "batch", "depth"
    );
    let points: Vec<LoadPoint> = [1usize, 4, 16]
        .iter()
        .map(|&clients| {
            let p = run_load_point(clients, &operands);
            p.print();
            p
        })
        .collect();
    println!();
    println!("direct device (no service): {direct_throughput:.1} jobs/s");

    let serial = &points[0];
    let peak = points.last().expect("at least one load point");
    println!(
        "batched vs serial-through-service: {:.1} vs {:.1} jobs/s ({:.2}x), mean batch {:.2}",
        peak.throughput,
        serial.throughput,
        peak.throughput / serial.throughput,
        peak.mean_batch_size
    );
    let qw = &peak.metrics.queue_wait_ns;
    let sv = &peak.metrics.service_ns;
    println!(
        "peak service-side spans: queue-wait p50 {} / p99 {}, service p50 {} / p99 {}",
        fmt_seconds(ns_as_seconds(qw.quantile(0.50))),
        fmt_seconds(ns_as_seconds(qw.quantile(0.99))),
        fmt_seconds(ns_as_seconds(sv.quantile(0.50))),
        fmt_seconds(ns_as_seconds(sv.quantile(0.99)))
    );
    println!();
    println!("Prometheus sample (peak load point, first lines):");
    for line in peak.metrics.to_prometheus().lines().take(8) {
        println!("  {line}");
    }

    // Repeated-operand (fixed-modulus) cache point: the serve jobs above
    // run the analytic model, so the pattern cache is exercised where it
    // lives — the structural Fig. 9a pipeline — with one modulus against
    // many multiplicands. The Converter table depends on the modulus
    // alone, so after the cold call every lookup should hit.
    let structural_jobs = 48usize;
    let modulus = &operands[0].0;
    apc_trace::set_enabled(true);
    let run_structural = || {
        let device = cambricon_p::mpapca::Device::new_default();
        let t0 = Instant::now();
        for i in 0..structural_jobs {
            let _ = device.mul_structural(modulus, &operands[i % operands.len()].1);
        }
        structural_jobs as f64 / t0.elapsed().as_secs_f64()
    };
    pattern_cache::set_enabled(true);
    pattern_cache::clear();
    let before = pattern_cache::counters();
    let cached_jobs_per_s = run_structural();
    let after = pattern_cache::counters();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    pattern_cache::set_enabled(false);
    let uncached_jobs_per_s = run_structural();
    pattern_cache::set_enabled(true);
    pattern_cache::clear();
    println!();
    println!(
        "fixed-modulus structural point: {cached_jobs_per_s:.1} jobs/s cached vs \
         {uncached_jobs_per_s:.1} uncached ({:.2}x), hit rate {hit_rate:.3} \
         ({hits} hits / {misses} misses)",
        cached_jobs_per_s / uncached_jobs_per_s
    );

    // Same honesty contract as bench_json: record what the pool
    // actually was, so serve numbers from 1-core containers are not
    // misread as multi-worker results.
    let parallel_feature = cfg!(feature = "parallel");
    let pool_threads = apc_bignum::par::pool_threads();
    let parallel_effective = parallel_feature && pool_threads > 1;

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"serve_throughput\",");
    let _ = writeln!(json, "  \"operand_bits\": {OPERAND_BITS},");
    let _ = writeln!(json, "  \"device_path\": \"analytic Device::mul\",");
    let _ = writeln!(json, "  \"workers\": {WORKERS},");
    let _ = writeln!(json, "  \"pool_threads\": {pool_threads},");
    let _ = writeln!(json, "  \"parallel_feature\": {parallel_feature},");
    let _ = writeln!(json, "  \"parallel_effective\": {parallel_effective},");
    let _ = writeln!(json, "  \"batch_max\": {BATCH_MAX},");
    let _ = writeln!(json, "  \"jobs_per_client\": {JOBS_PER_CLIENT},");
    let _ = writeln!(json, "  \"direct_device_jobs_per_s\": {direct_throughput},");
    let _ = writeln!(json, "  \"load_points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(json, "    {}{comma}", p.json());
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"pattern_cache\": {{");
    let _ = writeln!(json, "    \"structural_jobs\": {structural_jobs},");
    let _ = writeln!(json, "    \"hits\": {hits},");
    let _ = writeln!(json, "    \"misses\": {misses},");
    let _ = writeln!(json, "    \"hit_rate\": {hit_rate},");
    let _ = writeln!(json, "    \"cached_jobs_per_s\": {cached_jobs_per_s},");
    let _ = writeln!(json, "    \"uncached_jobs_per_s\": {uncached_jobs_per_s}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"batched_over_serial\": {}",
        peak.throughput / serial.throughput
    );
    let _ = writeln!(json, "}}");

    let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", "BENCH_serve_throughput.json"]
        .iter()
        .collect();
    std::fs::write(&out, &json).expect("write BENCH_serve_throughput.json");
    println!();
    println!("wrote {}", out.display());

    assert!(
        peak.throughput >= serial.throughput,
        "batched throughput ({:.1}/s) fell below serial single-job throughput ({:.1}/s)",
        peak.throughput,
        serial.throughput
    );
    assert!(
        peak.mean_batch_size > 1.0,
        "the peak load point never formed a real batch"
    );
    // The PR-10 regression gate: batches must *grow* with offered load
    // (the old rendezvous design pinned them near 1 at every load point).
    assert!(
        peak.mean_batch_size > points[1].mean_batch_size,
        "mean batch size must grow with load: {} clients {:.2} <= {} clients {:.2}",
        peak.clients,
        peak.mean_batch_size,
        points[1].clients,
        points[1].mean_batch_size
    );
    assert!(
        hit_rate > 0.9,
        "fixed-modulus cache point must hit > 0.9, measured {hit_rate:.3}"
    );
}
