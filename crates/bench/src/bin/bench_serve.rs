//! Serving-layer throughput and latency under offered load, written as
//! machine-readable JSON to `BENCH_serve_throughput.json` at the repo
//! root.
//!
//! Closed-loop tenants share one `apc-serve` instance: each client thread
//! submits a job and waits for its report before submitting the next, so
//! offered load scales with the client count. At 1 client the service
//! degenerates to serial one-job-at-a-time operation (every batch holds
//! one job — the baseline); at higher client counts the free worker forms
//! real batches and the per-batch cost (condvar wake + queue lock +
//! batch formation) amortizes across the batch. The paper's §VII utilization
//! argument, transplanted to the host: group compatible work so the
//! compute resources spend their time computing, not synchronizing.
//! Each load point repeats its closed-loop run against one service until
//! the sample floor is reached; the JSON gives the run time's median and
//! quartiles, latency percentiles over every job, and the service-side
//! histograms over every run.
//!
//! A direct-device loop (no service, no queue) is also timed as the
//! reference ceiling for this operand size.
//!
//! A final fixed-modulus section measures the pattern-table cache on a
//! repeated-operand structural workload (one modulus, many
//! multiplicands — the RSA/zkcm shape the cache exists for) and records
//! the observed hit rate next to cached and uncached throughput.

use apc_bench::{fmt_seconds, header, quantile, sample, Report, Sample, BENCH_FLOOR_SECONDS};
use apc_bignum::Nat;
use apc_serve::{Job, JobSpec, MetricsSnapshot, ServeConfig, ServeHandle};
use cambricon_p::pattern_cache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const OPERAND_BITS: u64 = 2048;
const JOBS_PER_CLIENT: usize = 150;
const WORKERS: usize = 2;
const BATCH_MAX: usize = 16;

/// One load point: repeated closed-loop runs against one service.
struct LoadPoint {
    clients: usize,
    /// Wall seconds per run of `clients · JOBS_PER_CLIENT` jobs.
    runs: Sample,
    p50_latency_s: f64,
    p99_latency_s: f64,
    // Service-side span histograms (apc-trace, ns / cycle domain) over
    // every run, so the JSON carries queue-wait and service p50/p99 as
    // seen by the service rather than only the client-observed round trip.
    metrics: MetricsSnapshot,
}

impl LoadPoint {
    fn jobs_per_run(&self) -> usize {
        self.clients * JOBS_PER_CLIENT
    }

    /// Jobs per second at the median run.
    fn throughput(&self) -> f64 {
        self.jobs_per_run() as f64 / self.runs.median
    }

    fn print(&self) {
        println!(
            "{:>8} {:>6} {:>12} {:>14.1} {:>12} {:>12} {:>11.2} {:>10}",
            self.clients,
            self.runs.reps,
            fmt_seconds(self.runs.median),
            self.throughput(),
            fmt_seconds(self.p50_latency_s),
            fmt_seconds(self.p99_latency_s),
            self.metrics.mean_batch_size(),
            self.metrics.max_queue_depth
        );
    }

    fn record(&self, report: &mut Report) {
        let point = [("clients", self.clients.to_string())];
        report.sample("run_seconds", &point, &self.runs);
        report.gauge("jobs_per_run", &point, self.jobs_per_run() as f64);
        report.gauge("throughput_jobs_per_s", &point, self.throughput());
        report.gauge("p50_latency_seconds", &point, self.p50_latency_s);
        report.gauge("p99_latency_seconds", &point, self.p99_latency_s);
        report.gauge("mean_batch_size", &point, self.metrics.mean_batch_size());
        report.gauge(
            "max_queue_depth",
            &point,
            self.metrics.max_queue_depth as f64,
        );
        let m = &self.metrics;
        for (name, h) in [
            ("queue_wait_ns", &m.queue_wait_ns),
            ("service_ns", &m.service_ns),
            ("service_cycles", &m.service_cycles),
            ("batch_form_ns", &m.batch_form_ns),
            ("dispatch_wait_ns", &m.dispatch_wait_ns),
        ] {
            report.histogram(name, &point, h);
        }
    }
}

/// Closed-loop runs of `clients` tenant threads, each submitting
/// `JOBS_PER_CLIENT` multiplies and waiting for each report in turn,
/// repeated against one service until the sample floor is reached.
fn run_load_point(clients: usize, operands: &[(Nat, Nat)]) -> LoadPoint {
    let serve = ServeHandle::start(ServeConfig {
        workers: WORKERS,
        batch_max: BATCH_MAX,
        ..ServeConfig::default()
    });
    let mut latencies: Vec<f64> = Vec::new();
    let runs = sample(BENCH_FLOOR_SECONDS, || {
        std::thread::scope(|s| {
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
                                    Job::Mul {
                                        a: a.clone(),
                                        b: b.clone(),
                                    },
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
            for h in handles {
                latencies.extend(h.join().expect("client thread"));
            }
        })
    });
    serve.shutdown();
    let metrics = serve.metrics();
    let jobs = clients * JOBS_PER_CLIENT * runs.reps;
    assert_eq!(metrics.completed, jobs as u64, "every job must complete");
    latencies.sort_by(f64::total_cmp);
    LoadPoint {
        clients,
        runs,
        p50_latency_s: quantile(&latencies, 0.50),
        p99_latency_s: quantile(&latencies, 0.99),
        metrics,
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

    let mut report = Report::new(
        "serve_throughput",
        "analytic Device::mul via apc-serve submit_wait (on the client's thread when a device \
         is free and nothing is staged, else in a worker batch); fixed-modulus point on \
         Device::mul_structural",
    );
    report.gauge("operand_bits", &[], OPERAND_BITS as f64);
    report.gauge("workers", &[], WORKERS as f64);
    report.gauge("batch_max", &[], BATCH_MAX as f64);
    report.gauge("jobs_per_client", &[], JOBS_PER_CLIENT as f64);

    // Reference ceiling: the same multiplies straight on a private device,
    // no queue, no threads.
    let device = cambricon_p::mpapca::Device::new_default();
    let direct_jobs = 300usize;
    let direct = sample(BENCH_FLOOR_SECONDS, || {
        for i in 0..direct_jobs {
            let (a, b) = &operands[i % operands.len()];
            std::hint::black_box(device.mul(a, b));
        }
    });
    let direct_throughput = direct_jobs as f64 / direct.median;
    let point = [("jobs", direct_jobs.to_string())];
    report.sample("direct_device_seconds", &point, &direct);
    report.gauge("direct_device_jobs_per_s", &[], direct_throughput);

    header(&format!(
        "apc-serve closed-loop throughput — {OPERAND_BITS}-bit multiplies, {WORKERS} workers, batch_max {BATCH_MAX}"
    ));
    println!(
        "{:>8} {:>6} {:>12} {:>14} {:>12} {:>12} {:>11} {:>10}",
        "clients", "runs", "run (med)", "jobs/s", "p50", "p99", "batch", "depth"
    );
    let points: Vec<LoadPoint> = [1usize, 4, 16]
        .iter()
        .map(|&clients| {
            let p = run_load_point(clients, &operands);
            p.print();
            p.record(&mut report);
            p
        })
        .collect();
    println!();
    println!("direct device (no service): {direct_throughput:.1} jobs/s");

    let serial = &points[0];
    let peak = points.last().expect("at least one load point");
    let batched_over_serial = peak.throughput() / serial.throughput();
    println!(
        "batched vs serial-through-service: {:.1} vs {:.1} jobs/s ({batched_over_serial:.2}x), mean batch {:.2}",
        peak.throughput(),
        serial.throughput(),
        peak.metrics.mean_batch_size()
    );
    report.gauge("batched_over_serial", &[], batched_over_serial);
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
        for i in 0..structural_jobs {
            std::hint::black_box(device.mul_structural(modulus, &operands[i % operands.len()].1));
        }
    };
    pattern_cache::set_enabled(true);
    pattern_cache::clear();
    let before = pattern_cache::counters();
    let cached = sample(BENCH_FLOOR_SECONDS, &run_structural);
    let after = pattern_cache::counters();
    let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    pattern_cache::set_enabled(false);
    let uncached = sample(BENCH_FLOOR_SECONDS, &run_structural);
    pattern_cache::set_enabled(true);
    pattern_cache::clear();
    let cached_jobs_per_s = structural_jobs as f64 / cached.median;
    let uncached_jobs_per_s = structural_jobs as f64 / uncached.median;
    println!();
    println!(
        "fixed-modulus structural point: {cached_jobs_per_s:.1} jobs/s cached vs \
         {uncached_jobs_per_s:.1} uncached ({:.2}x), hit rate {hit_rate:.3} \
         ({hits} hits / {misses} misses)",
        cached_jobs_per_s / uncached_jobs_per_s
    );
    let point = [("jobs", structural_jobs.to_string())];
    report.sample("cached_structural_seconds", &point, &cached);
    report.sample("uncached_structural_seconds", &point, &uncached);
    report.gauge("pattern_cache_hits", &[], hits as f64);
    report.gauge("pattern_cache_misses", &[], misses as f64);
    report.gauge("pattern_cache_hit_rate", &[], hit_rate);

    // The gates run before the report is written, so a failing run
    // leaves no JSON behind.
    assert!(
        peak.throughput() >= serial.throughput(),
        "batched throughput ({:.1}/s) fell below serial single-job throughput ({:.1}/s)",
        peak.throughput(),
        serial.throughput()
    );
    assert!(
        peak.metrics.mean_batch_size() > 1.0,
        "the peak load point never formed a real batch"
    );
    // The PR-10 regression gate: batches must *grow* with offered load
    // (the old rendezvous design pinned them near 1 at every load point).
    assert!(
        peak.metrics.mean_batch_size() > points[1].metrics.mean_batch_size(),
        "mean batch size must grow with load: {} clients {:.2} <= {} clients {:.2}",
        peak.clients,
        peak.metrics.mean_batch_size(),
        points[1].clients,
        points[1].metrics.mean_batch_size()
    );
    assert!(
        hit_rate > 0.9,
        "fixed-modulus cache point must hit > 0.9, measured {hit_rate:.3}"
    );
    report.write();
}
