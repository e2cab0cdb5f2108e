//! # apc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (see DESIGN.md
//! for the experiment index) plus the `BENCH_*.json` bins. This library
//! holds the shared report formatting, the sampler every timed point goes
//! through ([`sample`], or [`sample_rounds`] when two code paths are
//! compared) and the one writer of the `BENCH_*.json` files
//! ([`Report`]).

use apc_trace::export::{to_json, Metric};
use apc_trace::HistogramSnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Formats seconds with an adaptive unit.
pub fn fmt_seconds(s: f64) -> String {
    if s == 0.0 {
        "0".into()
    } else if s < 1e-6 {
        format!("{:.2} ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.2} µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{s:.3} s")
    }
}

/// Formats byte counts with an adaptive unit.
pub fn fmt_bytes(b: f64) -> String {
    if b < 1024.0 {
        format!("{b:.0} B")
    } else if b < 1024.0 * 1024.0 {
        format!("{:.2} KB", b / 1024.0)
    } else if b < 1024.0 * 1024.0 * 1024.0 {
        format!("{:.2} MB", b / (1024.0 * 1024.0))
    } else {
        format!("{:.2} GB", b / (1024.0 * 1024.0 * 1024.0))
    }
}

/// Geometric mean of a non-empty slice.
///
/// ```
/// assert!((apc_bench::geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Least-squares slope of log(y) against log(x) — the empirical complexity
/// exponent used by the Table I fits.
///
/// ```
/// // y = x²
/// let xs = [2.0, 4.0, 8.0, 16.0];
/// let ys = [4.0, 16.0, 64.0, 256.0];
/// assert!((apc_bench::loglog_slope(&xs, &ys) - 2.0).abs() < 1e-9);
/// ```
pub fn loglog_slope(xs: &[f64], ys: &[f64]) -> f64 {
    assert_eq!(xs.len(), ys.len());
    assert!(xs.len() >= 2, "need at least two points to fit");
    let lx: Vec<f64> = xs.iter().map(|x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|y| y.ln()).collect();
    let mx = lx.iter().sum::<f64>() / lx.len() as f64;
    let my = ly.iter().sum::<f64>() / ly.len() as f64;
    let num: f64 = lx.iter().zip(&ly).map(|(x, y)| (x - mx) * (y - my)).sum();
    let den: f64 = lx.iter().map(|x| (x - mx) * (x - mx)).sum();
    num / den
}

/// Sample floor of the `BENCH_*.json` bins: each timed point repeats
/// until it has run for at least this many seconds.
pub const BENCH_FLOOR_SECONDS: f64 = 1.0;

/// Fewest repetitions behind a [`Sample`], whatever the time floor.
const MIN_REPS: usize = 5;

/// The spread of one timed point: quartiles of the per-repetition wall
/// times, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Median seconds per repetition.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions behind the quartiles.
    pub reps: usize,
}

impl Sample {
    /// Quartiles of a non-empty set of measurements.
    fn of(mut xs: Vec<f64>) -> Sample {
        xs.sort_by(f64::total_cmp);
        Sample {
            median: quantile(&xs, 0.5),
            q1: quantile(&xs, 0.25),
            q3: quantile(&xs, 0.75),
            reps: xs.len(),
        }
    }
}

/// Runs `f` until it has run for at least `min_seconds` and at least
/// five times, timing each repetition.
pub fn sample<T>(min_seconds: f64, mut f: impl FnMut() -> T) -> Sample {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.len() < MIN_REPS || start.elapsed().as_secs_f64() < min_seconds {
        let t0 = Instant::now();
        std::hint::black_box(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    Sample::of(times)
}

/// Shortest timed call in [`sample_rounds`]: below this the clock's own
/// cost would show in the ratio.
const MIN_CALL_SECONDS: f64 = 20e-6;

/// Paired timings of several closures: see [`sample_rounds`].
#[derive(Debug, Clone)]
pub struct Rounds {
    /// `seconds[k][r]`: seconds per run of closure `k` in round `r`.
    seconds: Vec<Vec<f64>>,
}

impl Rounds {
    /// The spread of closure `k`'s own timings across rounds.
    pub fn sample(&self, k: usize) -> Sample {
        Sample::of(self.seconds[k].clone())
    }

    /// The spread of the per-round ratio `time[num] / time[den]`. Both
    /// times of a round were taken back to back, so a drift in the host's
    /// speed moves both and cancels in the ratio.
    pub fn ratio(&self, num: usize, den: usize) -> Sample {
        let ratios = self.seconds[num]
            .iter()
            .zip(&self.seconds[den])
            .map(|(n, d)| n / d)
            .collect();
        Sample::of(ratios)
    }
}

/// Times `fs` in rounds until the rounds have run for at least
/// `min_seconds` and numbered at least five. Each round times every
/// closure once, starting one closure later than the round before, so
/// each closure takes each place in the order equally often. A closure
/// runs as many times per timed call as it takes to last about as long
/// as one run of the slowest (and at least 20 µs), so every call of a
/// round spans about the same stretch of the host's time.
pub fn sample_rounds(min_seconds: f64, fs: &mut [&mut dyn FnMut()]) -> Rounds {
    let once: Vec<f64> = fs
        .iter_mut()
        .map(|f| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64().max(1e-9)
        })
        .collect();
    let slot = once.iter().copied().fold(MIN_CALL_SECONDS, f64::max);
    let batches: Vec<u32> = once
        .iter()
        .map(|t| (slot / t).round().clamp(1.0, 1e6) as u32)
        .collect();
    let mut seconds = vec![Vec::new(); fs.len()];
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_REPS || start.elapsed().as_secs_f64() < min_seconds {
        for j in 0..fs.len() {
            let k = (round + j) % fs.len();
            let t0 = Instant::now();
            for _ in 0..batches[k] {
                fs[k]();
            }
            seconds[k].push(t0.elapsed().as_secs_f64() / f64::from(batches[k]));
        }
        round += 1;
    }
    Rounds { seconds }
}

/// The `q`-quantile (0 ≤ q ≤ 1) of an ascending, non-empty slice, linearly
/// interpolated between the two nearest order statistics.
///
/// ```
/// assert_eq!(apc_bench::quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
/// ```
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// One `BENCH_<name>.json` report: a header plus labelled per-point
/// metrics, rendered by `apc_trace::export::to_json` (the schema the
/// `/metrics` JSON endpoints use).
///
/// The header is one `bench_info` gauge whose labels name the bench, the
/// executed code path, the structural `kernel_backend`, `pool_threads`,
/// `parallel_feature`, `parallel_effective` and the sample floor.
pub struct Report {
    name: String,
    parallel_effective: bool,
    metrics: Vec<Metric>,
}

impl Report {
    /// Starts the report for `BENCH_<name>.json`; `path` names the code
    /// path the bin executes. Prints a note when parallel dispatch is not
    /// effective.
    pub fn new(name: &str, path: &str) -> Report {
        let parallel_feature = apc_bignum::par::parallel_enabled();
        let pool_threads = apc_bignum::par::pool_threads();
        let parallel_effective = parallel_feature && pool_threads > 1;
        if !parallel_effective {
            println!(
                "note: parallel dispatch is not effective (feature: {parallel_feature}, pool \
                 workers: {pool_threads}); parallel ratios are left out of the JSON"
            );
        }
        let backend = cambricon_p::accelerator::Accelerator::new_default().effective_backend();
        let info = Metric::gauge("bench_info", "Run header.", 1.0)
            .with_label("bench", name)
            .with_label("path", path)
            .with_label("kernel_backend", backend.name())
            .with_label("pool_threads", &pool_threads.to_string())
            .with_label("parallel_feature", &parallel_feature.to_string())
            .with_label("parallel_effective", &parallel_effective.to_string())
            .with_label("sample_floor_seconds", &BENCH_FLOOR_SECONDS.to_string());
        Report {
            name: name.to_string(),
            parallel_effective,
            metrics: vec![info],
        }
    }

    /// Records a plain value.
    pub fn gauge(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        self.metrics
            .push(labelled(Metric::gauge(name, "", value), labels));
    }

    /// Records a timed point: `name` carries the median, q1 and q3 (label
    /// `stat`), `<name>_reps` the repetition count.
    pub fn sample(&mut self, name: &str, labels: &[(&str, String)], s: &Sample) {
        for (stat, value) in [("median", s.median), ("q1", s.q1), ("q3", s.q3)] {
            let m = labelled(Metric::gauge(name, "", value), labels).with_label("stat", stat);
            self.metrics.push(m);
        }
        let reps = Metric::counter(&format!("{name}_reps"), "", s.reps as u64);
        self.metrics.push(labelled(reps, labels));
    }

    /// Records a parallel-over-sequential ratio, or nothing when the
    /// parallel dispatch did not run on more than one thread.
    pub fn parallel_ratio(&mut self, name: &str, labels: &[(&str, String)], value: f64) {
        if self.parallel_effective {
            self.gauge(name, labels, value);
        }
    }

    /// Records a histogram.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, String)], h: &HistogramSnapshot) {
        self.metrics
            .push(labelled(Metric::histogram(name, "", h.clone()), labels));
    }

    /// The report as JSON.
    pub fn to_json(&self) -> String {
        to_json(&self.metrics)
    }

    /// Writes `BENCH_<name>.json` at the repository root.
    pub fn write(&self) {
        let file = format!("BENCH_{}.json", self.name);
        let out: PathBuf = [env!("CARGO_MANIFEST_DIR"), "..", "..", file.as_str()]
            .iter()
            .collect();
        std::fs::write(&out, self.to_json()).unwrap_or_else(|e| panic!("write {file}: {e}"));
        println!();
        println!("wrote {}", out.display());
    }
}

fn labelled(metric: Metric, labels: &[(&str, String)]) -> Metric {
    labels.iter().fold(metric, |m, (k, v)| m.with_label(k, v))
}

/// Prints a section header for the experiment reports.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting() {
        assert_eq!(fmt_seconds(1.6e-8), "16.00 ns");
        assert_eq!(fmt_seconds(2.5e-4), "250.00 µs");
        assert_eq!(fmt_seconds(0.25), "250.00 ms");
        assert_eq!(fmt_seconds(2.0), "2.000 s");
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(223.71 * 1024.0 * 1024.0), "223.71 MB");
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn slope_of_nlogn_is_just_above_one() {
        let xs: Vec<f64> = (10..20).map(|i| (1u64 << i) as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x * x.ln()).collect();
        let s = loglog_slope(&xs, &ys);
        assert!(s > 1.0 && s < 1.2, "slope {s}");
    }

    #[test]
    fn quantile_interpolates_odd_even_and_single() {
        let odd = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            [
                quantile(&odd, 0.25),
                quantile(&odd, 0.5),
                quantile(&odd, 0.75)
            ],
            [2.0, 3.0, 4.0]
        );
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(
            [
                quantile(&even, 0.25),
                quantile(&even, 0.5),
                quantile(&even, 0.75)
            ],
            [1.75, 2.5, 3.25]
        );
        assert_eq!(quantile(&even, 0.0), 1.0);
        assert_eq!(quantile(&even, 1.0), 4.0);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(quantile(&[7.0], q), 7.0);
        }
    }

    #[test]
    fn sample_respects_its_time_and_repetition_floor() {
        #[expect(
            clippy::disallowed_methods,
            reason = "a 1 ms stand-in workload, far below the sampling floor"
        )]
        let pause = || std::thread::sleep(std::time::Duration::from_millis(1));
        // A closure far faster than the floor repeats until the floor.
        let t0 = Instant::now();
        let mut calls = 0usize;
        let s = sample(0.03, || {
            calls += 1;
            pause();
        });
        assert!(t0.elapsed().as_secs_f64() >= 0.03);
        assert_eq!(s.reps, calls);
        assert!(s.reps > MIN_REPS);
        assert!(s.q1 <= s.median && s.median <= s.q3);
        // With no time floor, the repetition floor alone.
        let mut calls = 0usize;
        let s = sample(0.0, || {
            calls += 1;
            pause();
        });
        assert_eq!((s.reps, calls), (MIN_REPS, MIN_REPS));
        assert!(s.q1 >= 0.001, "{s:?}");
    }

    #[test]
    fn rounds_alternate_and_pair_their_ratios() {
        #[expect(
            clippy::disallowed_methods,
            reason = "1 ms and 6 ms stand-in workloads, far above the batch floor"
        )]
        let pause = |ms| std::thread::sleep(std::time::Duration::from_millis(ms));
        let order = std::cell::RefCell::new(Vec::new());
        let mut fast = || {
            order.borrow_mut().push(0);
            pause(1);
        };
        let mut slow = || {
            order.borrow_mut().push(1);
            pause(6);
        };
        let rounds = sample_rounds(0.0, &mut [&mut fast, &mut slow]);
        let order = order.into_inner();
        // One calibration run each, then five rounds. The slowest closure
        // runs once per call, and the start rotates: round 0 ends with
        // it, round 1 starts with it, and so on, so after calibration its
        // runs come in blocks of 2, 2 and 1.
        assert_eq!(order[..2], [0, 1]);
        let blocks: Vec<usize> = order[2..]
            .chunk_by(|a, b| a == b)
            .filter(|block| block[0] == 1)
            .map(<[i32]>::len)
            .collect();
        assert_eq!(blocks, [2, 2, 1]);
        // The fast one runs several times per call to fill the slot.
        assert!(order.iter().filter(|&&k| k == 0).count() > 2 * MIN_REPS);
        assert_eq!(rounds.sample(0).reps, MIN_REPS);
        let ratio = rounds.ratio(1, 0);
        assert_eq!(ratio.reps, MIN_REPS);
        assert!(ratio.median > 1.0, "{ratio:?}");
        assert!(ratio.q1 <= ratio.median && ratio.median <= ratio.q3);
    }

    #[test]
    fn report_renders_header_samples_and_histograms() {
        let mut report = Report::new("unit", "test path");
        let s = Sample {
            median: 2.0,
            q1: 1.5,
            q3: 3.0,
            reps: 9,
        };
        report.sample("seconds", &[("bits", "1024".into())], &s);
        report.parallel_ratio("speedup", &[], 2.0);
        let mut h = HistogramSnapshot::default();
        h.buckets[3] = 2;
        h.count = 2;
        h.sum = 10;
        report.histogram("wait_ns", &[("clients", "4".into())], &h);
        let json = report.to_json();
        for label in [
            "\"bench\": \"unit\"",
            "\"path\": \"test path\"",
            "\"kernel_backend\": \"sliced64\"",
            "\"pool_threads\": ",
            "\"parallel_feature\": ",
            "\"parallel_effective\": ",
            "\"sample_floor_seconds\": \"1\"",
        ] {
            assert!(json.contains(label), "missing {label} in {json}");
        }
        for (stat, value) in [("median", "2"), ("q1", "1.5"), ("q3", "3")] {
            let line = format!(
                "{{\"name\": \"seconds\", \"labels\": {{\"bits\": \"1024\", \"stat\": \"{stat}\"}}, \"type\": \"gauge\", \"value\": {value}}}"
            );
            assert!(json.contains(&line), "missing {line} in {json}");
        }
        assert!(json.contains(
            "{\"name\": \"seconds_reps\", \"labels\": {\"bits\": \"1024\"}, \"type\": \"counter\", \"value\": 9}"
        ));
        assert!(json.contains(
            "\"name\": \"wait_ns\", \"labels\": {\"clients\": \"4\"}, \"type\": \"histogram\", \"value\": {\"count\": 2, \"sum\": 10"
        ), "{json}");
        let effective = apc_bignum::par::parallel_enabled() && apc_bignum::par::pool_threads() > 1;
        assert_eq!(json.contains("\"name\": \"speedup\""), effective);
    }
}
