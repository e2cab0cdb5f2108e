//! Order statistics over measured samples, and the per-window summaries
//! the end-to-end time metrics are taken from.

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile of `values`, interpolating linearly between the two
/// closest ranks.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    assert!((0.0..=1.0).contains(&q), "quantile out of range");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// A latency percentile as reported: its value, the percentile actually
/// used, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at the reported percentile, in µs.
    pub value: f64,
    /// The percentile used, in (0, 1].
    pub percentile: f64,
    /// How many samples it was taken from.
    pub samples: u64,
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The `p` percentile (nearest rank) of latencies in ns, sorted
/// ascending, lowered to the highest percentile that still has
/// [`MIN_BEYOND`] samples beyond it when `p` itself has fewer; with too
/// few samples for any such percentile, the minimum.
pub fn tail(sorted_ns: &[u64], p: f64) -> Tail {
    assert!(p > 0.0 && p <= 1.0, "percentile out of range");
    let n = sorted_ns.len();
    assert!(n > 0, "percentile of no samples");
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
    let rank = wanted.min(n.saturating_sub(MIN_BEYOND + 1));
    let percentile = if rank == wanted {
        p
    } else {
        (rank + 1) as f64 / n as f64
    };
    Tail {
        value: sorted_ns[rank] as f64 / 1e3,
        percentile,
        samples: n as u64,
    }
}

/// Median time of one [`reference_loop_ns`] on the reference host (an
/// Intel Xeon vCPU at 2.1 GHz) when no other tenant slows it down: the
/// host speed that structural-mul's time metrics are stated at.
pub const REFERENCE_LOOP_NS: f64 = 113_000.0;

/// Runs a fixed CPU-bound loop that shares no code with the repository
/// and returns its time in ns. Timed between rounds of a workload, it
/// reads how fast the host runs right then.
pub fn reference_loop_ns() -> f64 {
    let mut table = [0u64; 1024];
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let t0 = std::time::Instant::now();
    for _ in 0..100_000 {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let i = (z as usize) & 1023;
        table[i] = table[i].wrapping_add(z ^ (z >> 31));
    }
    std::hint::black_box(&table);
    t0.elapsed().as_nanos() as f64
}

/// One window of a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Operations completed in the window.
    pub ops: u64,
    /// The window's length in measured seconds.
    pub seconds: f64,
    /// How fast the host ran during the window relative to the
    /// reference host, as a reference probe read it (1 until set).
    pub speed: f64,
    /// Median and p99 latency of the window's operations, as measured.
    pub p50: Tail,
    pub p99: Tail,
}

impl Window {
    /// A window from its operations' latencies in ns (in any order) and
    /// its measured length; `None` when no operation completed.
    pub fn new(mut latencies_ns: Vec<u64>, seconds: f64) -> Option<Window> {
        if latencies_ns.is_empty() {
            return None;
        }
        latencies_ns.sort_unstable();
        Some(Window {
            ops: latencies_ns.len() as u64,
            seconds,
            speed: 1.0,
            p50: tail(&latencies_ns, 0.5),
            p99: tail(&latencies_ns, 0.99),
        })
    }

    /// The window with the host speed a probe read: the probe's time on
    /// the reference host over its time here.
    pub fn at_speed(&self, speed: f64) -> Window {
        Window { speed, ..*self }
    }

    /// Operations per second, at reference-host speed.
    pub fn throughput(&self) -> f64 {
        self.ops as f64 / self.seconds / self.speed
    }
}

/// Windows a measurement is cut into.
pub const WINDOWS_PER_RUN: f64 = 60.0;

/// The end-to-end time metrics of a windowed measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Windows measured.
    pub windows: usize,
    /// Median over windows of the throughput and the window p50 latency
    /// (µs), and the window p99 latency that [`FAST_SHARE`] of the
    /// windows beat, each at reference-host speed.
    pub throughput: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Median host speed over the windows.
    pub speed: f64,
    /// The percentile the p99 windows used (lowered when a window has
    /// too few samples) and samples per window, from the smallest window.
    pub p99_percentile: f64,
    pub samples_per_window: u64,
}

/// Share of windows that beat the reported p99. A neighbour that takes a
/// CPU away lengthens the tail more than the probes slow down, so the
/// p99 comes from the fast end of the windows.
pub const FAST_SHARE: f64 = 0.25;

/// Summarises `windows` at reference-host speed: latencies scale by the
/// window's speed and throughput by its inverse, so a window that another
/// tenant slows down reads as what the program would have done at full
/// speed, while a regression slows the program and not the probe, and
/// shows.
pub fn summarise(windows: &[Window]) -> Summary {
    assert!(!windows.is_empty(), "summary of no windows");
    let values = |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).collect::<Vec<_>>();
    let smallest = windows
        .iter()
        .min_by_key(|w| w.ops)
        .expect("at least one window");
    Summary {
        windows: windows.len(),
        throughput: median(&values(&Window::throughput)),
        p50_us: median(&values(&|w| w.p50.value * w.speed)),
        p99_us: quantile(&values(&|w| w.p99.value * w.speed), FAST_SHARE),
        speed: median(&values(&|w| w.speed)),
        p99_percentile: smallest.p99.percentile,
        samples_per_window: smallest.ops,
    }
}

/// The note line that says how a summary was taken; `reference` names
/// the probe and its time on the reference host.
pub fn describe(summary: &Summary, reference: &str, ops: u64, measured_s: f64) -> String {
    format!(
        "time metrics: medians (p99: the {FAST_SHARE} quantile) of {} windows of at least {} operations, at reference-host speed \
         ({reference}); median host speed {:.3} of the reference; p99 windows use p{:.2}; as \
         measured: {ops} operations at {:.1} ops/s",
        summary.windows,
        summary.samples_per_window,
        summary.speed,
        summary.p99_percentile * 100.0,
        ops as f64 / measured_s
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values 1..=max ns, each `times` times, sorted.
    fn ramp(max: u64, times: usize) -> Vec<u64> {
        (1..=max)
            .flat_map(|v| std::iter::repeat(v).take(times))
            .collect()
    }

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
        assert_eq!(quantile(&[10.0, 20.0], 0.75), 17.5);
    }

    #[test]
    fn p99_keeps_ten_samples_beyond() {
        // 10 000 samples: p99 is rank 9900 and 100 samples lie beyond it.
        let t = tail(&ramp(100, 100), 0.99);
        assert_eq!((t.value, t.percentile, t.samples), (0.099, 0.99, 10_000));
        // 1100 samples: p99 is rank 1089 with 11 beyond, still allowed.
        assert_eq!(tail(&ramp(110, 10), 0.99).value, 0.109);
    }

    #[test]
    fn p99_is_lowered_when_the_tail_is_thin() {
        // 200 samples: p99 (rank 198) has only 2 beyond; the highest
        // percentile with 10 beyond is rank 190, i.e. p95.
        let t = tail(&ramp(200, 1), 0.99);
        assert_eq!(t.value, 0.190);
        assert!((t.percentile - 0.95).abs() < 1e-12);
    }

    #[test]
    fn median_rank_is_unaffected_and_tiny_samples_degrade() {
        assert_eq!(tail(&ramp(100, 1), 0.5).value, 0.050);
        assert_eq!(tail(&ramp(5, 1), 0.99).value, 0.001);
    }

    #[test]
    fn a_window_is_stated_at_reference_speed() {
        // A window at half the reference speed.
        let latencies = (1..=25).rev().map(|v| v * 100).collect();
        let slow = Window::new(latencies, 0.5).expect("ops").at_speed(0.5);
        assert_eq!((slow.ops, slow.speed), (25, 0.5));
        assert_eq!((slow.p50.value, slow.p99.value), (1.3, 1.5));
        assert_eq!(slow.throughput(), 100.0);
        let plain = Window::new(vec![5], 1.0).expect("ops");
        assert_eq!((plain.speed, plain.throughput()), (1.0, 1.0));
        assert!(Window::new(Vec::new(), 1.0).is_none());
    }

    #[test]
    fn a_slowed_window_reads_like_a_full_speed_one() {
        let at = |speed: f64| {
            let ns = (1000.0 / speed) as u64;
            Window::new(vec![ns; 100], 1.0 / speed)
                .expect("ops")
                .at_speed(speed)
        };
        // Three windows at full speed, two slowed down by a neighbour.
        let ws = [at(1.0), at(0.5), at(1.0), at(0.8), at(1.0)];
        let s = summarise(&ws);
        assert!((s.throughput - 100.0).abs() < 1e-9);
        assert!((s.p50_us - 1.0).abs() < 1e-9 && (s.p99_us - 1.0).abs() < 1e-9);
        assert_eq!((s.windows, s.samples_per_window, s.speed), (5, 100, 1.0));
        // A slowdown the probe misses moves the medians, and the p99
        // only past the fast quarter of the windows.
        let partly = |ops: u64, ns: u64| Window::new(vec![ns; ops as usize], 1.0).expect("ops");
        let ws = [
            partly(100, 1000),
            partly(90, 1100),
            partly(50, 3000),
            partly(95, 1050),
            partly(80, 1200),
        ];
        let s = summarise(&ws);
        assert_eq!((s.throughput, s.p50_us, s.p99_us), (90.0, 1.1, 1.05));
    }
}
