//! Service observability counters and latency histograms.
//!
//! Everything is a relaxed atomic, so every caller records without
//! locks and a snapshot never stalls the service. Latency distributions
//! are `apc_trace::Log2Histogram`s — `Instant`-domain spans over the job
//! path (admission → queue wait → kernel service) plus one cycle-domain
//! histogram of attributed service cycles. The two time domains are never
//! mixed: every histogram's field name carries its unit. The batch
//! counters and the batch-formation and dispatch-wait spans stay for the
//! benchmarks that read them: every job counts as a batch of one that
//! took no time to form or dispatch.
//!
//! [`MetricsSnapshot`] is a plain struct (no atomics, no locks) and can
//! render itself to the Prometheus text exposition format or JSON via
//! `apc_trace::export`.

use apc_trace::export::{self, Metric};
use apc_trace::{HistogramSnapshot, Log2Histogram};
use cambricon_p::stats::OpClass;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Number of per-class counter slots, derived from the canonical class
/// list so a new `OpClass` variant can never silently alias an existing
/// slot (the pre-fix code hard-coded 7 and folded misses into `Other`).
const N_CLASSES: usize = OpClass::ALL.len();

/// Index of `class` in the stable `OpClass::ALL` report order, or `None`
/// if the class is missing from `ALL` — callers route that to the
/// dedicated unattributed counters instead of misattributing.
fn class_index(class: OpClass) -> Option<usize> {
    OpClass::ALL.iter().position(|&c| c == class)
}

/// Lock-free counters shared by every part of the service.
#[derive(Debug, Default)]
pub struct ServeMetrics {
    submitted: AtomicU64,
    completed: AtomicU64,
    rejected_full: AtomicU64,
    rejected_oversized: AtomicU64,
    rejected_shutdown: AtomicU64,
    rejected_invalid: AtomicU64,
    deadline_missed: AtomicU64,
    batches: AtomicU64,
    batched_jobs: AtomicU64,
    inline_jobs: AtomicU64,
    max_queue_depth: AtomicUsize,
    cycles_by_class: [AtomicU64; N_CLASSES],
    jobs_by_class: [AtomicU64; N_CLASSES],
    // Misattribution guards: completions whose class is missing from
    // `OpClass::ALL` land here (with a debug_assert) instead of being
    // silently folded into the last class.
    cycles_unattributed: AtomicU64,
    jobs_unattributed: AtomicU64,
    // Instant-domain spans over the job path, in nanoseconds.
    submit_ns: Log2Histogram,
    queue_wait_ns: Log2Histogram,
    batch_form_ns: Log2Histogram,
    dispatch_wait_ns: Log2Histogram,
    service_ns: Log2Histogram,
    // Cycle-domain distribution of attributed service cost.
    service_cycles: Log2Histogram,
}

impl ServeMetrics {
    /// Records one admitted job: `depth` callers were waiting for a
    /// device with it (itself included), or 0 when it found one free. The
    /// job runs as a batch of one that took no time to form or dispatch.
    pub(crate) fn record_admission(&self, depth: usize) {
        self.submitted.fetch_add(1, Ordering::Relaxed);
        self.max_queue_depth.fetch_max(depth, Ordering::Relaxed);
        if depth == 0 {
            self.inline_jobs.fetch_add(1, Ordering::Relaxed);
        }
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_jobs.fetch_add(1, Ordering::Relaxed);
        self.batch_form_ns.record(0);
        self.dispatch_wait_ns.record(0);
    }

    /// Records the admission span of one submission attempt (accepted or
    /// rejected — admission latency covers both outcomes).
    pub(crate) fn record_submit_span(&self, ns: u64) {
        self.submit_ns.record(ns);
    }

    /// Records a rejection.
    pub(crate) fn record_rejection(&self, error: &crate::error::SubmitError) {
        use crate::error::SubmitError;
        let counter = match error {
            SubmitError::QueueFull { .. } => &self.rejected_full,
            SubmitError::OversizedOperand { .. } => &self.rejected_oversized,
            SubmitError::Shutdown => &self.rejected_shutdown,
            SubmitError::InvalidJob(_) => &self.rejected_invalid,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one completed job: attributed service cycles by class,
    /// deadline outcome, and the job's queue-wait and kernel-wall spans.
    pub(crate) fn record_completion(
        &self,
        class: OpClass,
        cycles: u64,
        missed_deadline: bool,
        queue_wait_ns: u64,
        service_ns: u64,
    ) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match class_index(class) {
            Some(i) => {
                self.cycles_by_class[i].fetch_add(cycles, Ordering::Relaxed);
                self.jobs_by_class[i].fetch_add(1, Ordering::Relaxed);
            }
            None => {
                debug_assert!(
                    false,
                    "OpClass {class:?} is missing from OpClass::ALL — update the class list"
                );
                self.cycles_unattributed.fetch_add(cycles, Ordering::Relaxed);
                self.jobs_unattributed.fetch_add(1, Ordering::Relaxed);
            }
        }
        if missed_deadline {
            self.deadline_missed.fetch_add(1, Ordering::Relaxed);
        }
        self.queue_wait_ns.record(queue_wait_ns);
        self.service_ns.record(service_ns);
        self.service_cycles.record(cycles);
    }

    /// A plain copy of the current totals.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut cycles_by_class = [0u64; N_CLASSES];
        let mut jobs_by_class = [0u64; N_CLASSES];
        for i in 0..N_CLASSES {
            cycles_by_class[i] = self.cycles_by_class[i].load(Ordering::Relaxed);
            jobs_by_class[i] = self.jobs_by_class[i].load(Ordering::Relaxed);
        }
        MetricsSnapshot {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            rejected_full: self.rejected_full.load(Ordering::Relaxed),
            rejected_oversized: self.rejected_oversized.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            rejected_invalid: self.rejected_invalid.load(Ordering::Relaxed),
            deadline_missed: self.deadline_missed.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_jobs: self.batched_jobs.load(Ordering::Relaxed),
            inline_jobs: self.inline_jobs.load(Ordering::Relaxed),
            max_queue_depth: self.max_queue_depth.load(Ordering::Relaxed),
            cycles_by_class,
            jobs_by_class,
            cycles_unattributed: self.cycles_unattributed.load(Ordering::Relaxed),
            jobs_unattributed: self.jobs_unattributed.load(Ordering::Relaxed),
            submit_ns: self.submit_ns.snapshot(),
            queue_wait_ns: self.queue_wait_ns.snapshot(),
            batch_form_ns: self.batch_form_ns.snapshot(),
            dispatch_wait_ns: self.dispatch_wait_ns.snapshot(),
            service_ns: self.service_ns.snapshot(),
            service_cycles: self.service_cycles.snapshot(),
        }
    }
}

/// One consistent-enough copy of the service counters (relaxed reads,
/// like a hardware performance-counter sweep).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Jobs admitted: they found a device free or joined the waiters.
    pub submitted: u64,
    /// Jobs that received their terminal report.
    pub completed: u64,
    /// Rejections due to a full queue (backpressure events).
    pub rejected_full: u64,
    /// Rejections due to the operand-size ceiling.
    pub rejected_oversized: u64,
    /// Rejections because the service was shutting down.
    pub rejected_shutdown: u64,
    /// Rejections of jobs that could never execute.
    pub rejected_invalid: u64,
    /// Completed jobs that missed their deadline.
    pub deadline_missed: u64,
    /// One per admitted job: every job runs alone, as a batch of one.
    pub batches: u64,
    /// Jobs carried by those batches: equal to `batches`.
    pub batched_jobs: u64,
    /// Jobs that found a device free at admission and so waited for
    /// none (zero queue wait).
    pub inline_jobs: u64,
    /// Most callers waiting for a device seen at an admission.
    pub max_queue_depth: usize,
    /// Attributed device service cycles, indexed like `OpClass::ALL`.
    pub cycles_by_class: [u64; N_CLASSES],
    /// Completed jobs per class, indexed like `OpClass::ALL`.
    pub jobs_by_class: [u64; N_CLASSES],
    /// Service cycles whose class was missing from `OpClass::ALL`
    /// (always 0 unless the class list and this crate drift apart).
    pub cycles_unattributed: u64,
    /// Completed jobs whose class was missing from `OpClass::ALL`.
    pub jobs_unattributed: u64,
    /// Admission-span latency (ns), over all submission attempts.
    pub submit_ns: HistogramSnapshot,
    /// Per-job wait from admission to device grant (ns); 0 for a job
    /// that found a device free.
    pub queue_wait_ns: HistogramSnapshot,
    /// Per-batch formation time (ns): one 0 entry per job.
    pub batch_form_ns: HistogramSnapshot,
    /// Per-batch formation-to-pickup wait (ns): one 0 entry per job.
    pub dispatch_wait_ns: HistogramSnapshot,
    /// Per-job kernel wall time on the held device (ns).
    pub service_ns: HistogramSnapshot,
    /// Per-job attributed service cost in *device cycles* (cycle domain,
    /// not wall time — the device model never reads a clock).
    pub service_cycles: HistogramSnapshot,
}

impl MetricsSnapshot {
    /// Attributed service cycles for one operation class.
    pub fn cycles_for(&self, class: OpClass) -> u64 {
        class_index(class).map_or(0, |i| self.cycles_by_class[i])
    }

    /// The snapshot as a flat metric list, ready for either exporter.
    /// Counters first, then the gauge, then the six histograms; per-class
    /// counters carry a `class` label (plus one `unattributed` variant).
    pub fn export_metrics(&self) -> Vec<Metric> {
        let mut out = vec![
            Metric::counter(
                "apc_serve_jobs_submitted_total",
                "Jobs admitted.",
                self.submitted,
            ),
            Metric::counter(
                "apc_serve_jobs_completed_total",
                "Jobs that received their terminal report.",
                self.completed,
            ),
        ];
        for (reason, count) in [
            ("queue_full", self.rejected_full),
            ("oversized", self.rejected_oversized),
            ("shutdown", self.rejected_shutdown),
            ("invalid", self.rejected_invalid),
        ] {
            out.push(
                Metric::counter(
                    "apc_serve_jobs_rejected_total",
                    "Admission rejections by reason.",
                    count,
                )
                .with_label("reason", reason),
            );
        }
        out.push(Metric::counter(
            "apc_serve_deadline_missed_total",
            "Completed jobs that missed their deadline.",
            self.deadline_missed,
        ));
        out.push(Metric::counter(
            "apc_serve_batches_total",
            "Batches run, one per job.",
            self.batches,
        ));
        out.push(Metric::counter(
            "apc_serve_batched_jobs_total",
            "Jobs carried by batches, one per batch.",
            self.batched_jobs,
        ));
        out.push(Metric::counter(
            "apc_serve_inline_jobs_total",
            "Jobs that found a device free at admission.",
            self.inline_jobs,
        ));
        for (i, class) in OpClass::ALL.iter().enumerate() {
            out.push(
                Metric::counter(
                    "apc_serve_service_cycles_total",
                    "Attributed device service cycles by class.",
                    self.cycles_by_class[i],
                )
                .with_label("class", class.name()),
            );
        }
        out.push(
            Metric::counter(
                "apc_serve_service_cycles_total",
                "Attributed device service cycles by class.",
                self.cycles_unattributed,
            )
            .with_label("class", "unattributed"),
        );
        for (i, class) in OpClass::ALL.iter().enumerate() {
            out.push(
                Metric::counter(
                    "apc_serve_jobs_by_class_total",
                    "Completed jobs by class.",
                    self.jobs_by_class[i],
                )
                .with_label("class", class.name()),
            );
        }
        out.push(
            Metric::counter(
                "apc_serve_jobs_by_class_total",
                "Completed jobs by class.",
                self.jobs_unattributed,
            )
            .with_label("class", "unattributed"),
        );
        out.push(Metric::gauge(
            "apc_serve_max_queue_depth",
            "Most callers waiting for a device, seen at an admission.",
            self.max_queue_depth as f64,
        ));
        for (name, help, h) in [
            (
                "apc_serve_submit_ns",
                "Admission span latency in nanoseconds (all attempts).",
                &self.submit_ns,
            ),
            (
                "apc_serve_queue_wait_ns",
                "Admission-to-device-grant wait in nanoseconds.",
                &self.queue_wait_ns,
            ),
            (
                "apc_serve_batch_form_ns",
                "Batch formation time in nanoseconds (0 per job).",
                &self.batch_form_ns,
            ),
            (
                "apc_serve_dispatch_wait_ns",
                "Formation-to-pickup wait in nanoseconds (0 per job).",
                &self.dispatch_wait_ns,
            ),
            (
                "apc_serve_service_ns",
                "Kernel wall time in nanoseconds.",
                &self.service_ns,
            ),
            (
                "apc_serve_service_cycles",
                "Attributed service cost in device cycles.",
                &self.service_cycles,
            ),
        ] {
            out.push(Metric::histogram(name, help, h.clone()));
        }
        out
    }

    /// The snapshot in the Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        export::to_prometheus(&self.export_metrics())
    }

    /// The snapshot as a JSON document.
    pub fn to_json(&self) -> String {
        export::to_json(&self.export_metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::SubmitError;

    #[test]
    fn counters_roll_up_by_kind() {
        let m = ServeMetrics::default();
        m.record_admission(1);
        m.record_admission(5);
        m.record_admission(0);
        m.record_rejection(&SubmitError::QueueFull { capacity: 4 });
        m.record_rejection(&SubmitError::Shutdown);
        m.record_completion(OpClass::Mul, 100, false, 2_000, 9_000);
        m.record_completion(OpClass::Div, 40, true, 3_000, 4_000);
        let s = m.snapshot();
        assert_eq!(s.submitted, 3);
        assert_eq!(s.max_queue_depth, 5);
        assert_eq!(s.rejected_full, 1);
        assert_eq!(s.rejected_shutdown, 1);
        assert_eq!(s.completed, 2);
        assert_eq!(s.deadline_missed, 1);
        assert_eq!((s.batches, s.batched_jobs, s.inline_jobs), (3, 3, 1));
        assert_eq!(s.cycles_for(OpClass::Mul), 100);
        assert_eq!(s.cycles_for(OpClass::Div), 40);
        assert_eq!(
            class_index(OpClass::Mul).map(|i| s.jobs_by_class[i]),
            Some(1)
        );
    }

    #[test]
    fn class_arrays_are_sized_from_the_canonical_list() {
        // Regression for the misattribution fix: the arrays derive their
        // length from OpClass::ALL (pre-fix they hard-coded 7, and a miss
        // in class_index silently credited the last class). The dedicated
        // unattributed counters exist and stay zero for every real class.
        let m = ServeMetrics::default();
        for class in OpClass::ALL {
            m.record_completion(class, 10, false, 0, 0);
        }
        let s = m.snapshot();
        assert_eq!(s.cycles_by_class.len(), OpClass::ALL.len());
        assert_eq!(s.jobs_by_class.len(), OpClass::ALL.len());
        for (i, class) in OpClass::ALL.into_iter().enumerate() {
            assert_eq!(s.cycles_for(class), 10, "{}", class.name());
            assert_eq!(s.jobs_by_class[i], 1);
        }
        assert_eq!(s.cycles_unattributed, 0);
        assert_eq!(s.jobs_unattributed, 0);
        assert_eq!(s.completed, OpClass::ALL.len() as u64);
    }

    #[test]
    fn spans_land_in_their_histograms() {
        let m = ServeMetrics::default();
        m.record_submit_span(1_500);
        m.record_completion(OpClass::Mul, 64, false, 2_000, 9_000);
        let s = m.snapshot();
        assert_eq!(s.submit_ns.count, 1);
        assert_eq!(s.submit_ns.sum, 1_500);
        assert_eq!(s.queue_wait_ns.sum, 2_000);
        assert_eq!(s.service_ns.sum, 9_000);
        assert_eq!(s.service_cycles.sum, 64);
        assert_eq!(s.service_cycles.count, 1);
    }

    #[test]
    fn every_admission_is_a_batch_of_one_with_zero_spans() {
        let m = ServeMetrics::default();
        m.record_admission(3);
        m.record_admission(0);
        let s = m.snapshot();
        assert_eq!(s.inline_jobs, 1);
        assert_eq!((s.batches, s.batched_jobs, s.max_queue_depth), (2, 2, 3));
        assert_eq!((s.batch_form_ns.count, s.batch_form_ns.sum), (2, 0));
        assert_eq!((s.dispatch_wait_ns.count, s.dispatch_wait_ns.sum), (2, 0));
        let prom = s.to_prometheus();
        assert!(prom.contains("apc_serve_inline_jobs_total 1"), "{prom}");
    }

    #[test]
    fn exporters_carry_the_snapshot_totals() {
        let m = ServeMetrics::default();
        m.record_admission(2);
        m.record_completion(OpClass::Mul, 123, false, 1_000, 2_000);
        let s = m.snapshot();
        let prom = s.to_prometheus();
        assert!(prom.contains("apc_serve_jobs_submitted_total 1"), "{prom}");
        assert!(
            prom.contains("apc_serve_service_cycles_total{class=\"Multiply\"} 123"),
            "{prom}"
        );
        assert!(prom.contains("apc_serve_service_cycles_count 1"), "{prom}");
        let json = s.to_json();
        assert!(json.contains("apc_serve_jobs_completed_total"), "{json}");
        assert!(json.contains("\"sum\": 123"), "{json}");
    }
}
