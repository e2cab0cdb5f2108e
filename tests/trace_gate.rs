//! Tier-1 gate for the observability layer (`apc-trace`).
//!
//! Two contracts:
//!
//! 1. **Zero perturbation** — running the same workload with tracing
//!    enabled and disabled must produce bit-identical results and
//!    identical modeled cycle counts, at every layer: the structural
//!    `Accelerator`, the `Device` cycle model, and the `apc-serve` job
//!    path. Tracing may only ever add samples to histograms; it must
//!    never touch a computed value. With tracing off, the span
//!    histograms must stay empty while the plain counters keep counting.
//! 2. **Exporter agreement** — on a randomized serve workload, the
//!    Prometheus text rendering and the JSON rendering must both agree
//!    with the raw `MetricsSnapshot` totals they were built from. Both
//!    exporters consume the same `Metric` list, so this pins the
//!    list-building itself (`export_metrics`) against the counters.

use apc_bignum::Nat;
use apc_serve::{Job, JobOutput, JobSpec, MetricsSnapshot, ServeConfig, ServeHandle};
use cambricon_p::accelerator::Accelerator;
use cambricon_p::Device;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests in this binary that toggle the process-wide
/// tracing flag, and restores the flag even if an assertion fails.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

struct FlagGuard {
    _lock: MutexGuard<'static, ()>,
}

impl FlagGuard {
    fn set(on: bool) -> FlagGuard {
        let lock = FLAG_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        apc_trace::set_enabled(on);
        FlagGuard { _lock: lock }
    }
}

impl Drop for FlagGuard {
    fn drop(&mut self) {
        apc_trace::set_enabled(true);
    }
}

fn random_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

/// One deterministic pass over all three layers; returns everything the
/// workload computed (values and cycle counts, no wall-clock anywhere).
fn run_workload(seed: u64) -> (Vec<Nat>, Vec<u64>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut values = Vec::new();
    let mut cycles = Vec::new();

    // Layer 1: the structural accelerator.
    let acc = Accelerator::new_default();
    for bits in [300u64, 2_000, 6_000] {
        let a = random_nat(&mut rng, bits);
        let b = random_nat(&mut rng, bits / 2);
        let out = acc.multiply(&a, &b);
        values.push(out.product);
        cycles.push(out.cycles);
        cycles.push(out.pe_passes);
        cycles.push(out.pe_slots);
        cycles.push(out.stages.converter);
        cycles.push(out.stages.adder_tree);
    }

    // Layer 2: the device cycle model (analytic and structural paths).
    let device = Device::new_default();
    for bits in [500u64, 3_000] {
        let a = random_nat(&mut rng, bits);
        let b = random_nat(&mut rng, bits);
        values.push(device.mul(&a, &b));
        values.push(device.mul_structural(&a, &b));
    }
    let stats = device.stats();
    cycles.push(stats.cycles);
    cycles.push(stats.pe_passes);
    cycles.push(stats.pe_slots);

    // Layer 3: the serving path (cycle-domain outputs only).
    let serve = ServeHandle::start(ServeConfig::default());
    for bits in [400u64, 1_500] {
        let a = random_nat(&mut rng, bits);
        let b = random_nat(&mut rng, bits);
        let report = serve
            .submit_wait(Job::Mul { a, b }, JobSpec::default())
            .expect("serve accepts in-ceiling jobs");
        if let JobOutput::Product(p) = report.output {
            values.push(p);
        }
        cycles.push(report.service_cycles);
    }
    let m = serve.metrics();
    cycles.push(m.submitted);
    cycles.push(m.completed);
    cycles.push(m.cycles_by_class.iter().sum());
    serve.shutdown();
    (values, cycles)
}

#[test]
fn tracing_on_and_off_are_bit_identical() {
    let baseline = {
        let _guard = FlagGuard::set(true);
        run_workload(0xAB5)
    };
    let untraced = {
        let _guard = FlagGuard::set(false);
        run_workload(0xAB5)
    };
    assert_eq!(baseline.0, untraced.0, "results must not depend on tracing");
    assert_eq!(baseline.1, untraced.1, "cycle counts must not depend on tracing");
}

#[test]
fn disabled_tracing_leaves_histograms_empty_but_counters_counting() {
    let _guard = FlagGuard::set(false);
    let serve = ServeHandle::start(ServeConfig::default());
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    for _ in 0..3 {
        let a = random_nat(&mut rng, 800);
        serve
            .submit_wait(Job::Mul { a: a.clone(), b: a }, JobSpec::default())
            .expect("serve accepts in-ceiling jobs");
    }
    let m = serve.metrics();
    serve.shutdown();
    assert_eq!(m.submitted, 3, "plain counters never gate on the flag");
    assert_eq!(m.completed, 3);
    assert!(m.cycles_by_class.iter().sum::<u64>() > 0, "attribution still works");
    for (name, h) in [
        ("submit_ns", &m.submit_ns),
        ("queue_wait_ns", &m.queue_wait_ns),
        ("batch_form_ns", &m.batch_form_ns),
        ("dispatch_wait_ns", &m.dispatch_wait_ns),
        ("service_ns", &m.service_ns),
        ("service_cycles", &m.service_cycles),
    ] {
        assert_eq!(h.count, 0, "{name} must stay empty with tracing off");
        assert_eq!(h.sum, 0, "{name} must stay empty with tracing off");
    }
}

#[test]
fn disabled_tracing_silences_the_pattern_cache_counters() {
    // The zero-perturbation contract extends to the pattern-table cache
    // (DESIGN.md §"Admission and caching"): with tracing globally off, a
    // cache lookup — hit or miss — must not perform a single
    // shared-cacheline counter write. The flag load itself is read-only
    // traffic. The cache still *functions* (tables are served); only the
    // statistics go quiet.
    let _guard = FlagGuard::set(false);
    use cambricon_p::pattern_cache;
    pattern_cache::set_enabled(true);
    pattern_cache::clear();
    let before = pattern_cache::counters();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE);
    let device = Device::new_default();
    let modulus = random_nat(&mut rng, 1_800);
    for i in 0..5u64 {
        let y = random_nat(&mut rng, 400 + i * 200);
        assert_eq!(device.mul_structural(&modulus, &y), &modulus * &y);
    }
    assert_eq!(
        pattern_cache::counters(),
        before,
        "cache counters must not move while tracing is off"
    );
    // The cache itself kept working: the repeated modulus is resident.
    assert!(pattern_cache::len() >= 1, "lookups must still serve tables");
    pattern_cache::clear();
}

/// Reads the value of `name{labels}` (exact label block match, `""` for
/// none) out of a Prometheus text exposition.
fn prom_value(text: &str, name: &str, labels: &str) -> u64 {
    let needle = format!("{name}{labels} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&needle))
        .unwrap_or_else(|| panic!("missing `{needle}` in:\n{text}"))
        .trim()
        .parse()
        .expect("prometheus counters are integers")
}

/// Extracts `"count": <n>` from the JSON object following the named
/// histogram metric (the hand-rolled exporter keeps one metric per line).
fn json_histogram_count(text: &str, name: &str) -> u64 {
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
        .unwrap_or_else(|| panic!("missing metric `{name}` in:\n{text}"));
    let after = line
        .split("\"count\": ")
        .nth(1)
        .unwrap_or_else(|| panic!("no count in `{line}`"));
    after
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("count is an integer")
}

fn randomized_snapshot(seed: u64) -> MetricsSnapshot {
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 4,
        batch_max: 4,
        ..ServeConfig::default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut tickets = Vec::new();
    for _ in 0..24 {
        let bits = [120u64, 700, 2_200][rng.gen_range(0..3usize)];
        let a = random_nat(&mut rng, bits);
        let job = match rng.gen_range(0..2u32) {
            0 => Job::Mul { a: a.clone(), b: a },
            _ => Job::Sqrt { a },
        };
        // Rejections (queue full) are part of the workload: they feed
        // the rejection counters the exporters must carry faithfully.
        if let Ok(t) = serve.submit(job, JobSpec::default()) {
            tickets.push(t);
        }
    }
    for t in tickets {
        t.wait().expect("accepted jobs report");
    }
    let m = serve.metrics();
    serve.shutdown();
    m
}

#[test]
fn exporters_agree_with_the_raw_snapshot() {
    // Histogram/counter agreement below needs recording on, so hold the
    // flag lock against the disabled-tracing test in this binary.
    let _guard = FlagGuard::set(true);
    let m = randomized_snapshot(0x5EED);
    let prom = m.to_prometheus();
    let json = m.to_json();

    // Prometheus totals match the snapshot counters field for field.
    assert_eq!(prom_value(&prom, "apc_serve_jobs_submitted_total", ""), m.submitted);
    assert_eq!(prom_value(&prom, "apc_serve_jobs_completed_total", ""), m.completed);
    assert_eq!(
        prom_value(&prom, "apc_serve_jobs_rejected_total", "{reason=\"queue_full\"}"),
        m.rejected_full
    );
    assert_eq!(prom_value(&prom, "apc_serve_batches_total", ""), m.batches);
    assert_eq!(
        prom_value(&prom, "apc_serve_batched_jobs_total", ""),
        m.batched_jobs
    );
    let class_total: u64 = (0..)
        .zip(m.cycles_by_class.iter())
        .map(|(i, _)| {
            let name = cambricon_p::stats::OpClass::ALL[i].name();
            prom_value(
                &prom,
                "apc_serve_service_cycles_total",
                &format!("{{class=\"{name}\"}}"),
            )
        })
        .sum();
    assert_eq!(class_total, m.cycles_by_class.iter().sum::<u64>());
    assert_eq!(
        prom_value(&prom, "apc_serve_service_cycles_total", "{class=\"unattributed\"}"),
        m.cycles_unattributed
    );
    assert_eq!(
        prom_value(&prom, "apc_serve_queue_wait_ns_count", ""),
        m.queue_wait_ns.count
    );
    assert_eq!(
        prom_value(&prom, "apc_serve_service_cycles_sum", ""),
        m.service_cycles.sum
    );
    assert_eq!(
        m.service_cycles.sum,
        m.cycles_by_class.iter().sum::<u64>() + m.cycles_unattributed,
        "the histogram and the class counters attribute the same cycles"
    );

    // JSON carries the same totals (same Metric list, other renderer).
    assert!(json.contains(&format!(
        "\"name\": \"apc_serve_jobs_submitted_total\", \"type\": \"counter\", \"value\": {}",
        m.submitted
    )));
    assert!(json.contains(&format!(
        "\"name\": \"apc_serve_jobs_completed_total\", \"type\": \"counter\", \"value\": {}",
        m.completed
    )));
    assert_eq!(json_histogram_count(&json, "apc_serve_submit_ns"), m.submit_ns.count);
    assert_eq!(
        json_histogram_count(&json, "apc_serve_service_cycles"),
        m.service_cycles.count
    );
}
