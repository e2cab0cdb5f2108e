//! structural-mul: one thread calls `Device::mul_structural` (the Fig. 9a
//! Converter → IPU → GU → Adder Tree pipeline) on seeded pairs at 1024,
//! 2048, 4096 and 8192 bits. At every size half the calls reuse one
//! fixed left operand, whose Fig. 8 pattern tables an operand-reuse
//! mechanism can keep, and half are fresh, which bypass it.

use crate::ledger;
use crate::report::{self, Metrics, Outcome};
use crate::spans::SpanLog;
use crate::stats;
use crate::workload::{self, MulCase, Rng, STRUCTURAL_SIZES};
use crate::Args;
use apc_bignum::Nat;
use cambricon_p::accelerator::Accelerator;
use cambricon_p::{pattern_cache, Device, DeviceStats};
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Measured seconds per slice of the traced run, which alternates
/// untraced and traced slices.
const SLICE_S: f64 = 0.5;
/// Rounds in the deterministic count pass: two, so the fresh operands
/// overflow the pattern cache and its evictions are exercised too.
const COUNT_ROUNDS: u64 = 2;
/// Cycles of a 4096×4096-bit multiplication in the paper's Table III.
const TABLE3_CYCLES_4096: f64 = 32.0;
/// Round numbers of the ledger and count passes, apart from the measured
/// stream's so that their fresh operands are fresh there too.
const LEDGER_ROUND_BASE: u64 = 1 << 40;
const COUNT_ROUND_BASE: u64 = 1 << 41;

/// A new analytic device with an empty pattern cache, warmed with one
/// call per size on that size's reused operand (the cold pattern-table
/// fill). Returns the device and whether every warm-up product matched.
fn set_up(fixed: &[Nat], warm: &[(Nat, Nat)]) -> (Device, bool) {
    let device = Device::new_default();
    pattern_cache::clear();
    let mut ok = true;
    for (a, (b, expected)) in fixed.iter().zip(warm) {
        ok &= &device.mul_structural(a, b) == expected;
    }
    (device, ok)
}

/// What a run of whole rounds did.
#[derive(Debug, Default)]
struct Segment {
    calls: u64,
    mismatches: u64,
    timed_s: f64,
    windows: Vec<stats::Window>,
    /// Per size: (µs summed, calls).
    by_size: [(f64, u64); 4],
    /// Reused and fresh calls: (µs summed, calls).
    reused: (f64, u64),
    fresh: (f64, u64),
    next_round: u64,
}

impl Segment {
    fn absorb(&mut self, other: Segment) {
        self.calls += other.calls;
        self.mismatches += other.mismatches;
        self.timed_s += other.timed_s;
        self.windows.extend(other.windows);
        for (mine, theirs) in self.by_size.iter_mut().zip(other.by_size) {
            *mine = add(*mine, theirs);
        }
        self.reused = add(self.reused, other.reused);
        self.fresh = add(self.fresh, other.fresh);
        self.next_round = other.next_round;
    }

    fn throughput(&self) -> f64 {
        self.calls as f64 / self.timed_s
    }
}

fn add((s1, n1): (f64, u64), (s2, n2): (f64, u64)) -> (f64, u64) {
    (s1 + s2, n1 + n2)
}

/// Runs rounds from `first_round` until `seconds` of call time have been
/// measured, finishing the round in progress, as one window. Inputs and
/// oracle answers are generated, and the reference loop is timed, between
/// rounds, outside the measured time.
fn measure(device: &Device, seed: u64, fixed: &[Nat], first_round: u64, seconds: f64) -> Segment {
    let mut seg = Segment {
        next_round: first_round,
        ..Segment::default()
    };
    let (mut latencies, mut reference) = (Vec::new(), Vec::new());
    while seg.timed_s < seconds || seg.calls == 0 {
        let round = workload::structural_round(seed, seg.next_round, fixed);
        seg.next_round += 1;
        reference.push(stats::reference_loop_ns());
        for call in &round {
            let t0 = Instant::now();
            let product = device.mul_structural(&call.a, &call.b);
            let elapsed = t0.elapsed();
            let dt = elapsed.as_secs_f64();
            seg.calls += 1;
            if product != call.expected {
                seg.mismatches += 1;
            }
            let us = dt * 1e6;
            seg.timed_s += dt;
            latencies.push(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            seg.by_size[call.size].0 += us;
            seg.by_size[call.size].1 += 1;
            let half = if call.reused {
                &mut seg.reused
            } else {
                &mut seg.fresh
            };
            half.0 += us;
            half.1 += 1;
        }
    }
    let speed = stats::REFERENCE_LOOP_NS / stats::median(&reference);
    seg.windows
        .extend(stats::Window::new(latencies, seg.timed_s).map(|w| w.at_speed(speed)));
    seg
}

fn mean_of((sum, n): (f64, u64)) -> f64 {
    sum / n.max(1) as f64
}

/// The header's description of the path that ran.
pub fn path_note() -> String {
    format!(
        "Device::mul_structural on the {} kernels; pattern cache {}",
        Accelerator::new_default().effective_backend().name(),
        if pattern_cache::enabled() {
            "enabled"
        } else {
            "disabled"
        }
    )
}

/// Each size's reused left operand, and the warm-up right operands with
/// their products.
fn seeded_inputs(seed: u64) -> (Vec<Nat>, Vec<(Nat, Nat)>) {
    let fixed = workload::structural_fixed(seed);
    let mut rng = Rng::new(seed, 4);
    let warm = STRUCTURAL_SIZES
        .iter()
        .zip(&fixed)
        .map(|(&bits, a)| {
            let b = rng.nat(bits);
            let expected = a * &b;
            (b, expected)
        })
        .collect();
    (fixed, warm)
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    apc_trace::set_enabled(false);
    let (fixed, warm) = seeded_inputs(args.seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut warm_ok = true;
    let mut live = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (device, ok) = set_up(&fixed, &warm);
        setups.push(t0.elapsed().as_secs_f64());
        warm_ok &= ok;
        live = Some(device);
    }
    let device = live.expect("at least one set-up");
    let before = device.stats();
    let mut seg = Segment::default();
    for _ in 0..stats::WINDOWS_PER_RUN as usize {
        let window_s = args.seconds / stats::WINDOWS_PER_RUN;
        seg.absorb(measure(
            &device,
            args.seed,
            &fixed,
            seg.next_round,
            window_s,
        ));
    }
    let delta = device.stats().delta_since(&before);

    let mut out = Outcome {
        attempted: seg.calls + (SETUPS * fixed.len()) as u64,
        failed: seg.mismatches + u64::from(!warm_ok),
        mismatches: seg.mismatches + u64::from(!warm_ok),
        ..Outcome::default()
    };
    let success = 1.0 - out.error_rate();
    let summary = stats::summarise(&seg.windows);
    let m = &mut out.metrics;
    m.push("throughput_ops_s", summary.throughput, "ops/s");
    m.push("latency_p50_us", summary.p50_us, "us");
    m.push("latency_p99_us", summary.p99_us, "us");
    m.push("modeled_cycles_per_op", cycles_per_op(&delta), "cycles");
    m.push("success_ratio", success, "ratio");
    // The set-ups share the run's median host speed.
    m.push("setup_s", stats::median(&setups) * summary.speed, "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.notes.push(stats::describe(
        &summary,
        &format!(
            "{} ns per reference loop, timed before every round",
            stats::REFERENCE_LOOP_NS
        ),
        seg.calls,
        seg.timed_s,
    ));
    out.notes.push(format!(
        "setup_s: median of {SETUPS} set-ups, at the run's reference-host speed"
    ));
    out.notes.push(format!("error_rate: {}", out.error_rate()));
    Ok(out)
}

fn cycles_per_op(delta: &DeviceStats) -> f64 {
    let ops: u64 = delta.ops_by_class.iter().sum();
    delta.cycles as f64 / ops.max(1) as f64
}

/// Deterministic counts of one seed: pattern-cache traffic, stage cycles
/// and per-size cycle ratios over [`COUNT_ROUNDS`] rounds from a cold
/// cache. Two passes of one seed must agree exactly.
#[derive(Debug, PartialEq)]
struct Counts {
    hits: u64,
    misses: u64,
    evictions: u64,
    stats: DeviceStats,
    cycles_by_size: [u64; 4],
    analytic_by_size: [u64; 4],
    mismatches: u64,
}

fn count_pass(seed: u64, fixed: &[Nat], warm: &[(Nat, Nat)]) -> Counts {
    let (device, warm_ok) = set_up(fixed, warm);
    let cache_before = pattern_cache::counters();
    let stats_before = device.stats();
    let mut cycles_by_size = [0u64; 4];
    let mut mismatches = u64::from(!warm_ok);
    for r in 0..COUNT_ROUNDS {
        for call in workload::structural_round(seed, COUNT_ROUND_BASE + r, fixed) {
            let c0 = device.stats().cycles;
            mismatches += u64::from(device.mul_structural(&call.a, &call.b) != call.expected);
            let cycles = device.stats().cycles - c0;
            // Every call of a size costs the same: operands have their top
            // bit set and zero blocks are vanishingly rare.
            cycles_by_size[call.size] = cycles_by_size[call.size].max(cycles);
        }
    }
    let cache = pattern_cache::counters();
    let analytic_by_size = STRUCTURAL_SIZES.map(|bits| device.mul_cycles(bits, bits));
    Counts {
        hits: cache.hits - cache_before.hits,
        misses: cache.misses - cache_before.misses,
        evictions: cache.evictions - cache_before.evictions,
        stats: device.stats().delta_since(&stats_before),
        cycles_by_size,
        analytic_by_size,
        mismatches,
    }
}

/// The traced run: per-layer metrics, the layer ledger and the
/// deterministic counts.
pub fn run_traced(args: &Args, spans: &mut SpanLog) -> Result<Outcome, String> {
    apc_trace::set_enabled(false);
    let (fixed, warm) = seeded_inputs(args.seed);
    let (device, warm_ok) = set_up(&fixed, &warm);
    // Untraced and traced slices alternate, so a change in host speed
    // falls on both alike; the per-layer call times use every slice.
    let before = device.stats();
    let mut all = Segment::default();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    while all.timed_s < args.seconds {
        for traced_slice in [false, true] {
            apc_trace::set_enabled(traced_slice);
            let slice = measure(&device, args.seed, &fixed, all.next_round, SLICE_S);
            if traced_slice {
                traced.push(slice.throughput());
            } else {
                untraced.push(slice.throughput());
            }
            all.absorb(slice);
        }
    }
    apc_trace::set_enabled(true);
    let delta = device.stats().delta_since(&before);

    let mut out = Outcome::default();
    let m = &mut out.metrics;
    m.push(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&untraced),
        "ratio",
    );
    for (i, bits) in STRUCTURAL_SIZES.iter().enumerate() {
        m.push(
            format!("accelerator.call_us.b{bits}"),
            mean_of(all.by_size[i]),
            "us",
        );
    }
    let (reused_us, fresh_us) = (mean_of(all.reused), mean_of(all.fresh));
    m.push("accelerator.reused_call_us", reused_us, "us");
    m.push("accelerator.fresh_call_us", fresh_us, "us");
    m.push(
        "accelerator.host_ns_per_pe_slot",
        all.timed_s * 1e9 / delta.pe_slots.max(1) as f64,
        "ns",
    );
    out.notes.push(format!(
        "pattern reuse: fresh/reused call time {:.3} ({fresh_us:.1} µs over {reused_us:.1} µs, {} calls each)",
        fresh_us / reused_us,
        all.reused.1
    ));

    let ledger = ledger(args.seed, &fixed, &device, spans);

    let first = count_pass(args.seed, &fixed, &warm);
    let second = count_pass(args.seed, &fixed, &warm);
    if first != second {
        out.failed_checks.push("structural-mul counts".into());
    }
    let m = &mut out.metrics;
    let calls: u64 = first.stats.ops_by_class.iter().sum();
    let per_call = |v: u64| v as f64 / calls.max(1) as f64;
    let stages = &first.stats.stage_cycles;
    m.push(
        "accelerator.stage_cycles.converter",
        per_call(stages.converter),
        "cycles",
    );
    m.push(
        "accelerator.stage_cycles.ipu",
        per_call(stages.ipu),
        "cycles",
    );
    m.push("accelerator.stage_cycles.gu", per_call(stages.gu), "cycles");
    m.push(
        "accelerator.stage_cycles.adder_tree",
        per_call(stages.adder_tree),
        "cycles",
    );
    m.push(
        "accelerator.pe_utilization",
        first.stats.pe_utilization(),
        "ratio",
    );
    for (i, bits) in STRUCTURAL_SIZES.iter().enumerate() {
        m.push(
            format!("accelerator.cycles_over_analytic.b{bits}"),
            first.cycles_by_size[i] as f64 / first.analytic_by_size[i] as f64,
            "ratio",
        );
    }
    let at_4096 = STRUCTURAL_SIZES
        .iter()
        .position(|&b| b == 4096)
        .expect("4096 is a size");
    m.push(
        "accelerator.cycles_over_table3",
        first.cycles_by_size[at_4096] as f64 / TABLE3_CYCLES_4096,
        "ratio",
    );
    m.push("pattern_cache.hits", first.hits as f64, "count");
    m.push("pattern_cache.misses", first.misses as f64, "count");
    m.push("pattern_cache.evictions", first.evictions as f64, "count");
    m.push(
        "pattern_cache.hit_ratio",
        first.hits as f64 / (first.hits + first.misses).max(1) as f64,
        "ratio",
    );
    out.notes.push(format!(
        "counts ({COUNT_ROUNDS} rounds from a cold cache, repeated twice): hits {} misses {} evictions {}; \
         structural cycles by size {:?} against analytic {:?}; {} modeled cycles per call",
        first.hits,
        first.misses,
        first.evictions,
        first.cycles_by_size,
        first.analytic_by_size,
        cycles_per_op(&first.stats)
    ));

    let checked = all.calls + ledger.calls + 2 * (calls + fixed.len() as u64);
    out.attempted = checked + fixed.len() as u64;
    out.failed = all.mismatches
        + ledger.mismatches
        + first.mismatches
        + second.mismatches
        + u64::from(!warm_ok);
    out.mismatches = out.failed;
    if !ledger.reconciles {
        out.failed_checks
            .push("ledger parts do not account for the client mean".into());
    }
    out.metrics.0.extend(ledger.metrics.0);
    out.notes.extend(ledger.notes);
    out.metrics.push("error_rate", out.error_rate(), "ratio");
    Ok(out)
}

struct Ledger {
    metrics: Metrics,
    notes: Vec<String>,
    calls: u64,
    mismatches: u64,
    reconciles: bool,
}

const LAYERS: [&str; 3] = ["layer.nat", "layer.device", "layer.structural"];
/// Ledger block: the 8192-bit structural calls are long, so blocks are
/// short enough to share host-speed drift across the three layers.
const LEDGER_BLOCK: usize = 16;

/// Replays fresh rounds at every layer in turn — `Nat` multiplication,
/// analytic `Device::mul`, `Device::mul_structural` — so each layer's
/// cost is a subtraction of serial means over the same calls.
fn ledger(seed: u64, fixed: &[Nat], device: &Device, spans: &mut SpanLog) -> Ledger {
    let rounds: Vec<Vec<MulCase>> = (0..ledger::PASSES as u64)
        .map(|pass| workload::structural_round(seed, LEDGER_ROUND_BASE + pass, fixed))
        .collect();
    let passes: Vec<&[MulCase]> = rounds.iter().map(Vec::as_slice).collect();
    let replay = ledger::replay(
        spans,
        &passes,
        LEDGER_BLOCK,
        &LAYERS,
        |spans, layer, call, parent, req| {
            // A fresh copy per layer, made outside its span.
            let (a, b) = (call.a.clone(), call.b.clone());
            let (product, id) = match layer {
                0 => spans.time("nat.call", parent, req, || &a * &b),
                1 => spans.time("device.call", parent, req, || device.mul(&a, &b)),
                _ => spans.time("device.mul_structural", parent, req, || {
                    device.mul_structural(&a, &b)
                }),
            };
            (product == call.expected, id)
        },
    );
    let [nat, dev, structural] = [0, 1, 2].map(|layer| replay.layer_us[layer]);
    let device_marginal = dev - nat;
    let accelerator_marginal = structural - dev;
    let parts = nat + device_marginal + accelerator_marginal;
    let client_mean = replay.wall_us[2];
    let reconciles = ledger::reconciles(parts, client_mean);
    let mut metrics = Metrics::default();
    metrics.push("bignum.mul_us", nat, "us");
    metrics.push("device.marginal_us", device_marginal, "us");
    metrics.push("accelerator.marginal_us", accelerator_marginal, "us");
    metrics.push("ledger.client_mean_us", client_mean, "us");
    let notes = vec![format!(
        "ledger ({} calls × {} fresh rounds in blocks of {LEDGER_BLOCK}, serial, µs/call): apc-bignum {nat:.3} \
         + device {device_marginal:.3} + accelerator {accelerator_marginal:.3} = {parts:.3}; client-observed \
         mean {client_mean:.3} (wall time of the mul_structural blocks per call); benchmark glue {:.3} µs \
         per layer call",
        passes[0].len(),
        ledger::PASSES,
        replay.glue_us
    )];
    Ledger {
        metrics,
        notes,
        calls: replay.calls,
        mismatches: replay.mismatches,
        reconciles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_repeat_for_one_seed() {
        // The pattern-cache counters only count while tracing is on.
        apc_trace::set_enabled(true);
        let (fixed, warm) = seeded_inputs(3);
        let first = count_pass(3, &fixed, &warm);
        assert_eq!(first, count_pass(3, &fixed, &warm));
        assert_eq!(first.mismatches, 0);
        // Every reused call hits and every fresh one misses.
        assert_eq!((first.hits, first.misses), (112, 112));
    }
}
