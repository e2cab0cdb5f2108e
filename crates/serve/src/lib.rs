//! # apc-serve — a multi-tenant job service over the Cambricon-P device model
//!
//! The ROADMAP's north star is a service, not a library call: many
//! tenants (π digits, RSA, zkcm, ad-hoc clients) sharing one accelerator
//! complex. This crate adds the missing host-side layer between those
//! tenants and the `cambricon_p::Device` handles:
//!
//! - a **typed job API** ([`Job`]: multiply / divide / square root /
//!   modular exponentiation over `apc_bignum` operands) with an optional
//!   per-job deadline ([`JobSpec`]);
//! - **admission control** with typed rejections ([`SubmitError`]),
//!   never a panic, never a silent drop;
//! - **one execution path**: [`ServeHandle::submit_wait`] runs every job
//!   on its caller's thread, on a device it holds alone. A caller that
//!   finds a device free takes it at admission; otherwise it joins one
//!   bounded FIFO of waiters, and each finishing job hands its device
//!   straight to the oldest waiter (see the `queue` module and DESIGN.md
//!   §"Serving layer"). There are no worker threads and no batches;
//! - a **completion side**: every accepted job gets exactly one terminal
//!   [`JobReport`] with its bit-exact result, queue wait, attributed
//!   service cycles (snapshot/delta on the held device), and deadline
//!   outcome;
//! - **lifecycle**: [`ServeHandle::shutdown`] refuses new callers, serves
//!   every waiter admitted before it and waits for every device to come
//!   back before it returns, so no job ever leaks.
//!
//! Results are bit-identical to direct `Device` execution: the operators
//! resolve through the same `apc_bignum` oracle, and under the
//! `parallel` feature the deterministic fixed-order reduce keeps even
//! thread-dispatched sub-products exact.
//!
//! ```
//! use apc_serve::{Job, JobOutput, JobSpec, ServeConfig, ServeHandle};
//! use apc_bignum::Nat;
//!
//! let serve = ServeHandle::start(ServeConfig::default());
//! let a = Nat::from(0xFFFF_FFFFu64);
//! let report = serve
//!     .submit_wait(Job::Mul { a: a.clone(), b: a.clone() }, JobSpec::default())
//!     .expect("service accepts and completes the job");
//! assert_eq!(report.output, JobOutput::Product(&a * &a));
//! serve.shutdown();
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod error;
pub mod job;
pub mod metrics;
mod queue;

pub use error::{ConfigError, ServeError, SubmitError};
pub use job::{DeadlineOutcome, Job, JobId, JobOutput, JobReport, JobSpec};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use queue::operand_bucket;

use cambricon_p::{ArchConfig, Device};
use queue::{Admission, DeviceClaim, JobQueue};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Most callers that may wait for a device at once (admission returns
    /// [`SubmitError::QueueFull`] beyond it). At least 1.
    pub queue_capacity: usize,
    /// Devices: the service builds this many `Device`s, and each job runs
    /// on one of them, held alone by the job's caller. At least 1.
    pub workers: usize,
    /// Admission ceiling on operand width, rounded up to the ceiling of
    /// its [`operand_bucket`] (the largest bucket). At least 64.
    pub max_operand_bits: u64,
    /// Architecture of every device.
    pub arch: ArchConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            workers: 2,
            max_operand_bits: 1 << 23,
            arch: ArchConfig::default(),
        }
    }
}

struct Inner {
    queue: JobQueue,
    metrics: ServeMetrics,
    arch: ArchConfig,
    next_id: AtomicU64,
}

/// A cloneable handle to one running service instance. All clones share
/// the same devices, waiters and metrics; any clone may submit, and any
/// clone may initiate shutdown.
#[derive(Clone)]
pub struct ServeHandle {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for ServeHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeHandle")
            .field("queue_depth", &self.queue_depth())
            .field("shutdown", &self.is_shutdown())
            .finish_non_exhaustive()
    }
}

/// One accepted job.
struct Admitted {
    /// Monotone submission sequence number.
    id: u64,
    job: Job,
    /// When the job was accepted.
    submitted_at: Instant,
    /// Absolute deadline, precomputed at admission.
    deadline_at: Option<Instant>,
}

impl ServeHandle {
    /// Starts the service: builds `workers` devices. It spawns no thread.
    /// Degenerate configurations (zero devices, zero queue capacity, an
    /// operand ceiling below the 64-bit smallest bucket) are typed
    /// [`ConfigError`]s, not silently clamped values.
    pub fn try_start(config: ServeConfig) -> Result<ServeHandle, ConfigError> {
        if config.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        let devices = (0..config.workers).map(|_| Device::new(config.arch.clone())).collect();
        let queue = JobQueue::new(config.queue_capacity, config.max_operand_bits, devices)?;
        Ok(ServeHandle {
            inner: Arc::new(Inner {
                queue,
                metrics: ServeMetrics::default(),
                arch: config.arch,
                next_id: AtomicU64::new(0),
            }),
        })
    }

    /// [`ServeHandle::try_start`], panicking on a degenerate
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics on a [`ConfigError`] — call [`ServeHandle::try_start`] to
    /// handle it as a value instead.
    #[expect(
        clippy::expect_used,
        reason = "documented panic (see # Panics); try_start is the fallible form"
    )]
    pub fn start(config: ServeConfig) -> ServeHandle {
        ServeHandle::try_start(config).expect("degenerate ServeConfig: use try_start")
    }

    /// Starts a service with the default configuration.
    pub fn start_default() -> ServeHandle {
        ServeHandle::start(ServeConfig::default())
    }

    /// Submits one job and runs it on the calling thread. When a device
    /// is free the job takes it at once, with zero queue wait (counted in
    /// [`MetricsSnapshot::inline_jobs`]); otherwise the caller waits in
    /// FIFO order until a finishing job hands it a device. A rejection
    /// says why in [`ServeError::Rejected`], and nothing ran. A job that
    /// panics still hands its device on, and answers
    /// [`ServeError::WorkerLost`].
    pub fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError> {
        let started = Instant::now();
        let admission = self.accept(job, spec).and_then(|admitted| {
            let admission = self.inner.queue.admit(admitted.job.operand_bits())?;
            Ok((admitted, admission))
        });
        let metrics = &self.inner.metrics;
        metrics.record_submit_span(apc_trace::span::duration_ns(started.elapsed()));
        let (admitted, admission) = admission.inspect_err(|e| metrics.record_rejection(e))?;
        let (device, granted_at) = match admission {
            Admission::Free(device) => {
                metrics.record_admission(0);
                (device, admitted.submitted_at)
            }
            Admission::Queued(depth, ticket) => {
                metrics.record_admission(depth);
                (ticket.wait(), Instant::now())
            }
        };
        panic::catch_unwind(AssertUnwindSafe(move || {
            run_job(&device, &admitted, granted_at, metrics)
        }))
        .map_err(|_| ServeError::WorkerLost)
    }

    /// Admission-time validation, then the job's identity and clock.
    fn accept(&self, job: Job, spec: JobSpec) -> Result<Admitted, SubmitError> {
        job.validate()?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let submitted_at = Instant::now();
        let deadline_at = spec.deadline.map(|d| submitted_at + d);
        Ok(Admitted { id, job, submitted_at, deadline_at })
    }

    /// Graceful shutdown: refuses new callers, lets every caller admitted
    /// before it run its job (each still gets its terminal report), and
    /// returns once every device is back. Idempotent; any clone may call
    /// it.
    pub fn shutdown(&self) {
        self.inner.queue.begin_shutdown();
        self.inner.queue.wait_devices_home();
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.inner.queue.is_shutdown()
    }

    /// Callers currently waiting for a device.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// The admission ceiling on operand width, in bits (the ceiling of
    /// the largest [`operand_bucket`]). Front-ends use this to derive
    /// fail-closed bounds of their own — apc-net caps frame reads by it.
    pub fn max_operand_bits(&self) -> u64 {
        self.inner.queue.max_operand_bits()
    }

    /// A copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The devices' architecture configuration.
    pub fn arch(&self) -> &ArchConfig {
        &self.inner.arch
    }
}

/// Runs one accepted job on the held device, records its completion and
/// returns its terminal report. `granted_at` ends the job's queue wait.
/// Per-job service cycles are the difference of the device's cycle
/// counter before and after the job; no other job touches that device
/// meanwhile, so concurrent tenants never blur each other's accounting.
fn run_job(
    device: &DeviceClaim<'_>,
    admitted: &Admitted,
    granted_at: Instant,
    metrics: &ServeMetrics,
) -> JobReport {
    let before = device.device().cycles();
    let started_at = Instant::now();
    let output = admitted.job.run(device.device());
    let finished_at = Instant::now();
    let service_cycles = device.device().cycles().saturating_sub(before);
    let deadline = match admitted.deadline_at {
        None => DeadlineOutcome::None,
        Some(at) if finished_at <= at => DeadlineOutcome::Met,
        Some(_) => DeadlineOutcome::Missed,
    };
    let class = admitted.job.op_class();
    let queue_wait = granted_at.saturating_duration_since(admitted.submitted_at);
    metrics.record_completion(
        class,
        service_cycles,
        deadline == DeadlineOutcome::Missed,
        apc_trace::span::duration_ns(queue_wait),
        apc_trace::span::duration_ns(finished_at.saturating_duration_since(started_at)),
    );
    JobReport {
        id: JobId(admitted.id),
        output,
        op_class: class,
        bucket_bits: operand_bucket(admitted.job.operand_bits()).0,
        worker: device.index(),
        queue_wait,
        service_cycles,
        service_seconds: service_cycles as f64 * device.device().config().cycle_seconds(),
        deadline,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use std::thread;
    use std::time::Duration;

    fn mul_job(bits: u64, salt: u64) -> Job {
        Job::Mul {
            a: Nat::power_of_two(bits.saturating_sub(1)) + Nat::from(salt | 1),
            b: Nat::power_of_two(bits.saturating_sub(1)) - Nat::from(salt | 1),
        }
    }

    #[test]
    fn single_job_batch_completes_with_exact_result() {
        let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
        let a = Nat::power_of_two(4000) - Nat::from(5u64);
        let b = Nat::power_of_two(3999) + Nat::from(9u64);
        let report = serve
            .submit_wait(Job::Mul { a: a.clone(), b: b.clone() }, JobSpec::default())
            .expect("accepted and completed");
        assert_eq!(report.output, JobOutput::Product(&a * &b));
        assert!(report.service_cycles > 0, "service cycles attributed");
        assert_eq!(report.bucket_bits, 4096);
        serve.shutdown();
        let m = serve.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.completed, 1);
        assert_eq!((m.batches, m.batched_jobs, m.inline_jobs), (1, 1, 1));
    }

    #[test]
    fn oversized_and_invalid_jobs_are_rejected_at_admission() {
        let serve = ServeHandle::start(ServeConfig {
            max_operand_bits: 1 << 12,
            ..ServeConfig::default()
        });
        let err = serve
            .submit_wait(mul_job(1 << 14, 1), JobSpec::default())
            .expect_err("oversized must be rejected");
        assert!(
            matches!(err, ServeError::Rejected(SubmitError::OversizedOperand { .. })),
            "{err:?}"
        );
        let err = serve
            .submit_wait(Job::Div { a: Nat::one(), b: Nat::zero() }, JobSpec::default())
            .expect_err("div by zero must be rejected");
        assert!(matches!(err, ServeError::Rejected(SubmitError::InvalidJob(_))), "{err:?}");
        serve.shutdown();
        let m = serve.metrics();
        assert_eq!(m.rejected_oversized, 1);
        assert_eq!(m.rejected_invalid, 1);
        assert_eq!(m.submitted, 0);
    }

    #[test]
    fn deadline_already_expired_at_submit_still_runs_and_reports_missed() {
        let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
        let report = serve
            .submit_wait(
                mul_job(512, 3),
                JobSpec::with_deadline(Duration::ZERO),
            )
            .expect("expired deadline is not a rejection");
        assert_eq!(report.deadline, DeadlineOutcome::Missed);
        // A generous deadline on a tiny job is met.
        let report = serve
            .submit_wait(mul_job(512, 5), JobSpec::with_deadline(Duration::from_secs(3600)))
            .expect("accepted and completed");
        assert_eq!(report.deadline, DeadlineOutcome::Met);
        serve.shutdown();
        assert_eq!(serve.metrics().deadline_missed, 1);
    }

    #[test]
    fn tenants_share_one_handle_across_threads() {
        let serve = ServeHandle::start(ServeConfig { workers: 2, ..ServeConfig::default() });
        let threads = 4u64;
        let per_thread = 6u64;
        thread::scope(|s| {
            for t in 0..threads {
                let serve = serve.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let a = Nat::power_of_two(2000 + t * 64) - Nat::from(i + 1);
                        let b = Nat::power_of_two(1999) + Nat::from(t * 31 + i);
                        let report = serve
                            .submit_wait(Job::Mul { a: a.clone(), b: b.clone() }, JobSpec::default())
                            .expect("shared handle serves every tenant");
                        assert_eq!(report.output, JobOutput::Product(&a * &b));
                    }
                });
            }
        });
        serve.shutdown();
        let m = serve.metrics();
        assert_eq!(m.completed, threads * per_thread);
        assert!(m.cycles_for(cambricon_p::stats::OpClass::Mul) > 0);
    }

    #[test]
    fn degenerate_configs_fail_construction_with_typed_errors() {
        // Regression: queue_capacity 0 used to be silently clamped to 1,
        // and an inverted bucket range built a nonsensical ladder.
        let err = ServeHandle::try_start(ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        })
        .expect_err("zero capacity must not start");
        assert_eq!(err, ConfigError::ZeroCapacity);
        let err = ServeHandle::try_start(ServeConfig {
            max_operand_bits: 32,
            ..ServeConfig::default()
        })
        .expect_err("an operand ceiling below the smallest bucket must not start");
        assert_eq!(err, ConfigError::MaxOperandBitsBelowFloor { max_operand_bits: 32 });
        // Regression: workers 0 used to be clamped to 1.
        let err = ServeHandle::try_start(ServeConfig { workers: 0, ..ServeConfig::default() })
            .expect_err("zero workers must not start");
        assert_eq!(err, ConfigError::ZeroWorkers);
        // A valid config still starts through the fallible path.
        let serve = ServeHandle::try_start(ServeConfig::default()).expect("valid config");
        serve.shutdown();
    }

    #[test]
    fn completed_jobs_populate_the_span_histograms() {
        let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
        for salt in 0..4u64 {
            serve
                .submit_wait(mul_job(1024, salt), JobSpec::default())
                .expect("accepted and completed");
        }
        serve.shutdown();
        let m = serve.metrics();
        assert_eq!(m.submit_ns.count, 4, "one admission span per attempt");
        assert_eq!(m.queue_wait_ns.count, 4, "one queue-wait span per job");
        assert_eq!(m.service_ns.count, 4);
        assert_eq!(m.service_cycles.count, 4);
        assert_eq!(m.batch_form_ns.count, m.batches);
        assert_eq!(m.dispatch_wait_ns.count, m.batches);
        // Cycle-domain histogram totals equal the per-class cycle counters.
        let class_total: u64 = m.cycles_by_class.iter().sum();
        assert_eq!(m.service_cycles.sum, class_total + m.cycles_unattributed);
    }

    #[test]
    fn handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeHandle>();
        assert_send_sync::<ServeMetrics>();
    }
}
