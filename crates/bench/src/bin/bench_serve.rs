//! Serving-layer throughput and latency under offered load, written as
//! machine-readable JSON to `BENCH_serve_throughput.json` at the repo
//! root.
//!
//! Closed-loop tenants share one `apc-serve` instance: each client thread
//! submits a job and waits for its report before submitting the next, so
//! offered load scales with the client count. Every job runs on its
//! client's thread, on a device it takes free at admission or is handed
//! in FIFO order by the job finishing before it; there is no worker pool
//! and no batching. At 1 client the service is serial one-job-at-a-time
//! operation (the baseline); with more clients than devices the extra
//! clients wait their turn, and the JSON shows what that hand-off costs.
//! Each load point has its own service, and the points are timed in
//! shared rounds (`apc_bench::sample_rounds`): every round times each
//! point once (a short point's closed loop repeats to last about as long
//! as the 16-client one), so a drift in the host's speed hits all of
//! them alike. The JSON gives each point's run time median and quartiles,
//! latency percentiles over every job, and the service-side histograms
//! over every run.
//!
//! A direct-device loop (no service, no queue) is also timed as the
//! reference ceiling for this operand size.
//!
//! A final fixed-modulus section measures the pattern-table cache on a
//! repeated-operand structural workload (one modulus, many
//! multiplicands — the RSA/zkcm shape the cache exists for) and records
//! the observed hit rate next to cached and uncached throughput.

use apc_bench::{
    fmt_seconds, header, quantile, sample, sample_rounds, Report, Sample, BENCH_FLOOR_SECONDS,
};
use apc_bignum::Nat;
use apc_serve::{Job, JobSpec, MetricsSnapshot, ServeConfig, ServeHandle};
use cambricon_p::pattern_cache;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const OPERAND_BITS: u64 = 2048;
const JOBS_PER_CLIENT: usize = 150;
const DEVICES: usize = 2;
const CLIENT_COUNTS: [usize; 3] = [1, 4, 16];

/// One load point: closed-loop runs against its own service.
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

    /// Share of jobs that found a device free at admission.
    fn inline_share(&self) -> f64 {
        self.metrics.inline_jobs as f64 / self.metrics.completed.max(1) as f64
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
            self.inline_share(),
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
        report.gauge("inline_jobs", &point, self.metrics.inline_jobs as f64);
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
        ] {
            report.histogram(name, &point, h);
        }
    }
}

/// One closed-loop run of `clients` tenant threads, each submitting
/// `JOBS_PER_CLIENT` multiplies and waiting for each report in turn;
/// every job's round trip lands in `latencies`.
fn closed_loop_run(
    serve: &ServeHandle,
    clients: usize,
    operands: &[(Nat, Nat)],
    latencies: &mut Vec<f64>,
) {
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
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
    });
}

/// Times every point of `CLIENT_COUNTS` in shared rounds, each against
/// its own service, until each has run for about the sample floor.
fn run_load_points(operands: &[(Nat, Nat)]) -> Vec<LoadPoint> {
    let services: Vec<ServeHandle> = CLIENT_COUNTS
        .iter()
        .map(|_| {
            ServeHandle::start(ServeConfig {
                workers: DEVICES,
                ..ServeConfig::default()
            })
        })
        .collect();
    let mut latencies = vec![Vec::new(); CLIENT_COUNTS.len()];
    let rounds = {
        let mut runs: Vec<_> = services
            .iter()
            .zip(CLIENT_COUNTS)
            .zip(&mut latencies)
            .map(|((serve, clients), lat)| move || closed_loop_run(serve, clients, operands, lat))
            .collect();
        let mut fs: Vec<&mut dyn FnMut()> =
            runs.iter_mut().map(|f| f as &mut dyn FnMut()).collect();
        sample_rounds(BENCH_FLOOR_SECONDS * CLIENT_COUNTS.len() as f64, &mut fs)
    };
    services
        .iter()
        .zip(CLIENT_COUNTS)
        .zip(latencies)
        .enumerate()
        .map(|(k, ((serve, clients), mut latencies))| {
            serve.shutdown();
            let metrics = serve.metrics();
            // One latency per job, over every run (the calibration run of
            // `sample_rounds` included).
            assert_eq!(metrics.completed, latencies.len() as u64, "every job must complete");
            latencies.sort_by(f64::total_cmp);
            LoadPoint {
                clients,
                runs: rounds.sample(k),
                p50_latency_s: quantile(&latencies, 0.50),
                p99_latency_s: quantile(&latencies, 0.99),
                metrics,
            }
        })
        .collect()
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
        "analytic Device::mul via apc-serve submit_wait (every job on its client's thread, on \
         a device free at admission or handed on in FIFO order); fixed-modulus point on \
         Device::mul_structural",
    );
    report.gauge("operand_bits", &[], OPERAND_BITS as f64);
    report.gauge("devices", &[], DEVICES as f64);
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
        "apc-serve closed-loop throughput — {OPERAND_BITS}-bit multiplies, {DEVICES} devices"
    ));
    println!(
        "{:>8} {:>6} {:>12} {:>14} {:>12} {:>12} {:>11} {:>10}",
        "clients", "runs", "run (med)", "jobs/s", "p50", "p99", "inline", "depth"
    );
    let points = run_load_points(&operands);
    for p in &points {
        p.print();
        p.record(&mut report);
    }
    println!();
    println!("direct device (no service): {direct_throughput:.1} jobs/s");

    let serial = &points[0];
    let peak = points.last().expect("at least one load point");
    let peak_over_serial = peak.throughput() / serial.throughput();
    println!(
        "{} clients vs 1 client: {:.1} vs {:.1} jobs/s ({peak_over_serial:.2}x), {:.2} of jobs \
         found a device free",
        peak.clients,
        peak.throughput(),
        serial.throughput(),
        peak.inline_share()
    );
    report.gauge("peak_over_serial", &[], peak_over_serial);
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
        "peak throughput ({:.1}/s) fell below serial single-job throughput ({:.1}/s)",
        peak.throughput(),
        serial.throughput()
    );
    assert!(
        hit_rate > 0.9,
        "fixed-modulus cache point must hit > 0.9, measured {hit_rate:.3}"
    );
    report.write();
}
