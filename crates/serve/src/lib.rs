//! # apc-serve — a batching job scheduler over the Cambricon-P device model
//!
//! The ROADMAP's north star is a service, not a library call: many
//! tenants (π digits, RSA, zkcm, ad-hoc clients) sharing one accelerator
//! complex. This crate adds the missing host-side layer between those
//! tenants and the `cambricon_p::Device` handles:
//!
//! - a **typed job API** ([`Job`]: multiply / divide / square root /
//!   modular exponentiation over `apc_bignum` operands) with an optional
//!   per-job deadline ([`JobSpec`]);
//! - a **bounded submission queue** with explicit admission control —
//!   rejections are typed ([`SubmitError`]), never a panic, never a
//!   silent drop; admission is lock-free (one MPSC channel plus an
//!   atomic capacity reservation — see the `queue` module and DESIGN.md
//!   §"Admission and caching"), so submitters never serialize on a
//!   queue-wide mutex;
//! - **batching workers**: each worker owns a `Device`, and whichever
//!   worker is free forms the next batch of compatible jobs (one
//!   operand-bitwidth bucket, [`operand_bucket`], taken in submission
//!   order) itself — there is no scheduler thread (see
//!   DESIGN.md §"Serving layer" for how this maps onto the paper's §VII
//!   utilization argument);
//! - a **completion side**: every accepted job gets exactly one terminal
//!   [`JobReport`] with its bit-exact result, queue wait, attributed
//!   service cycles (snapshot/delta on the worker's device), and
//!   deadline outcome;
//! - **lifecycle**: [`ServeHandle::shutdown`] drains everything already
//!   admitted before the threads exit, so no job ever leaks.
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod job;
pub mod metrics;
mod queue;
mod worker;

pub use error::{ConfigError, ServeError, SubmitError};
pub use job::{DeadlineOutcome, Job, JobId, JobOutput, JobReport, JobSpec};
pub use metrics::{MetricsSnapshot, ServeMetrics};
pub use queue::operand_bucket;

use cambricon_p::{ArchConfig, Device};
use queue::{JobQueue, Pending};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Instant;

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bound on jobs queued awaiting dispatch (admission returns
    /// [`SubmitError::QueueFull`] beyond it).
    pub queue_capacity: usize,
    /// Worker threads, each owning one `Device` handle.
    pub workers: usize,
    /// Most jobs one dispatched batch may carry.
    pub batch_max: usize,
    /// Admission ceiling on operand width, rounded up to the ceiling of
    /// its [`operand_bucket`] (the largest bucket). At least 64.
    pub max_operand_bits: u64,
    /// Architecture of every worker device.
    pub arch: ArchConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 256,
            workers: 2,
            batch_max: 16,
            max_operand_bits: 1 << 23,
            arch: ArchConfig::default(),
        }
    }
}

struct Inner {
    queue: Arc<JobQueue>,
    metrics: Arc<ServeMetrics>,
    arch: ArchConfig,
    next_id: AtomicU64,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

/// A cloneable handle to one running service instance. All clones share
/// the same queue, worker pool, and metrics; any clone may submit, and
/// any clone may initiate shutdown.
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

/// A claim on one accepted job's terminal report.
#[derive(Debug)]
pub struct JobTicket {
    id: JobId,
    receiver: mpsc::Receiver<JobReport>,
}

impl JobTicket {
    /// The accepted job's identity.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Blocks until the terminal report arrives. [`ServeError::WorkerLost`]
    /// is only possible if a worker thread panicked mid-job.
    pub fn wait(self) -> Result<JobReport, ServeError> {
        self.receiver.recv().map_err(|_| ServeError::WorkerLost)
    }
}

impl ServeHandle {
    /// Starts the service: spawns `workers` device workers (at least
    /// one). Degenerate configurations (zero queue capacity, an operand
    /// ceiling below the 64-bit smallest bucket) are typed
    /// [`ConfigError`]s, not silently clamped values.
    pub fn try_start(config: ServeConfig) -> Result<ServeHandle, ConfigError> {
        let (queue, source) =
            JobQueue::with_source(config.queue_capacity, config.max_operand_bits)?;
        let metrics = Arc::new(ServeMetrics::default());
        let source = Arc::new(Mutex::new(source));
        let threads = (0..config.workers.max(1))
            .map(|index| {
                let device = Device::new(config.arch.clone());
                let source = Arc::clone(&source);
                let metrics = Arc::clone(&metrics);
                let batch_max = config.batch_max;
                thread::spawn(move || {
                    worker::worker_loop(index, device, source, batch_max, metrics);
                })
            })
            .collect();
        Ok(ServeHandle {
            inner: Arc::new(Inner {
                queue,
                metrics,
                arch: config.arch,
                next_id: AtomicU64::new(0),
                threads: Mutex::new(threads),
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
    pub fn start(config: ServeConfig) -> ServeHandle {
        // apc-lint: allow(L2) -- documented panic (see # Panics); try_start is the fallible form
        ServeHandle::try_start(config).expect("degenerate ServeConfig: use try_start")
    }

    /// Starts a service with the default configuration.
    pub fn start_default() -> ServeHandle {
        ServeHandle::start(ServeConfig::default())
    }

    /// Submits one job. On acceptance the returned ticket will receive
    /// exactly one terminal report; on rejection the typed error says
    /// why and nothing was enqueued.
    pub fn submit(&self, job: Job, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        let started = Instant::now();
        let admitted = self.admit(job, spec);
        // Admission span covers every attempt — rejected submissions are
        // latency the tenant observed too.
        self.inner
            .metrics
            .record_submit_span(apc_trace::span::duration_ns(started.elapsed()));
        if let Err(e) = &admitted {
            self.inner.metrics.record_rejection(e);
        }
        admitted
    }

    fn admit(&self, job: Job, spec: JobSpec) -> Result<JobTicket, SubmitError> {
        job.validate()?;
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let (reporter, receiver) = mpsc::channel();
        let submitted_at = Instant::now();
        let deadline_at = spec.deadline.map(|d| submitted_at + d);
        let depth =
            self.inner.queue.push(Pending { id, job, submitted_at, deadline_at, reporter })?;
        self.inner.metrics.record_submit(depth);
        Ok(JobTicket { id: JobId(id), receiver })
    }

    /// Submits and blocks for the terminal report.
    pub fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError> {
        Ok(self.submit(job, spec)?.wait()?)
    }

    /// Graceful shutdown: stops admissions, drains every job already
    /// accepted (each still gets its terminal report), then joins the
    /// worker threads. Idempotent; any clone may call it.
    pub fn shutdown(&self) {
        self.inner.shutdown_and_join();
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.inner.queue.is_shutdown()
    }

    /// Jobs currently queued awaiting dispatch.
    pub fn queue_depth(&self) -> usize {
        self.inner.queue.depth()
    }

    /// The admission ceiling on operand width, in bits (the largest
    /// bucket of the submission queue). Front-ends use this to derive
    /// fail-closed bounds of their own — apc-net caps frame reads by it.
    pub fn max_operand_bits(&self) -> u64 {
        self.inner.queue.max_operand_bits()
    }

    /// A copy of the service counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// The worker devices' architecture configuration.
    pub fn arch(&self) -> &ArchConfig {
        &self.inner.arch
    }
}

impl Inner {
    fn shutdown_and_join(&self) {
        self.queue.begin_shutdown();
        let threads =
            std::mem::take(&mut *self.threads.lock().unwrap_or_else(PoisonError::into_inner));
        for t in threads {
            // A worker that panicked already lost its jobs' reports;
            // joining the others is still the right cleanup.
            let _ = t.join();
        }
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        // Last handle gone: drain and join so no thread outlives the
        // service (shutdown() already ran is fine — the vec is empty).
        self.shutdown_and_join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
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
        assert_eq!(m.batches, 1);
        assert!((m.mean_batch_size() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn oversized_and_invalid_jobs_are_rejected_at_admission() {
        let serve = ServeHandle::start(ServeConfig {
            max_operand_bits: 1 << 12,
            ..ServeConfig::default()
        });
        let err = serve
            .submit(mul_job(1 << 14, 1), JobSpec::default())
            .expect_err("oversized must be rejected");
        assert!(matches!(err, SubmitError::OversizedOperand { .. }), "{err:?}");
        let err = serve
            .submit(Job::Div { a: Nat::one(), b: Nat::zero() }, JobSpec::default())
            .expect_err("div by zero must be rejected");
        assert!(matches!(err, SubmitError::InvalidJob(_)), "{err:?}");
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
    fn shutdown_with_jobs_queued_drains_every_one() {
        // One worker pinned by a large job while more queue up; shutdown
        // must still deliver exactly one terminal report per acceptance.
        let serve = ServeHandle::start(ServeConfig {
            workers: 1,
            batch_max: 4,
            ..ServeConfig::default()
        });
        let mut tickets = Vec::new();
        tickets.push(
            serve
                .submit(mul_job(200_000, 7), JobSpec::default())
                .expect("capacity available"),
        );
        for salt in 0..12u64 {
            tickets.push(
                serve
                    .submit(mul_job(1000 + salt, salt), JobSpec::default())
                    .expect("capacity available"),
            );
        }
        let accepted = tickets.len() as u64;
        serve.shutdown();
        assert!(serve.is_shutdown());
        // Post-shutdown submissions are rejected, not queued.
        assert_eq!(
            serve.submit(mul_job(128, 1), JobSpec::default()).map(|t| t.id()),
            Err(SubmitError::Shutdown)
        );
        for ticket in tickets {
            let report = ticket.wait().expect("drained job must report");
            assert!(matches!(report.output, JobOutput::Product(_)));
        }
        let m = serve.metrics();
        assert_eq!(m.submitted, accepted);
        assert_eq!(m.completed, accepted, "no job may leak across shutdown");
        assert_eq!(m.rejected_shutdown, 1);
        assert_eq!(serve.queue_depth(), 0);
    }

    #[test]
    fn sustained_overload_rejects_with_queue_full_and_recovers() {
        // Tiny queue, one worker pinned by a slow job: pushing far past
        // capacity must produce QueueFull (not a block, not a panic), and
        // every accepted job must still complete.
        let serve = ServeHandle::start(ServeConfig {
            queue_capacity: 4,
            workers: 1,
            batch_max: 1,
            ..ServeConfig::default()
        });
        let mut tickets = vec![serve
            .submit(mul_job(1_000_000, 3), JobSpec::default())
            .expect("first job admitted")];
        let mut rejected = 0u64;
        for salt in 0..200u64 {
            match serve.submit(mul_job(256, salt), JobSpec::default()) {
                Ok(t) => tickets.push(t),
                Err(SubmitError::QueueFull { capacity }) => {
                    assert_eq!(capacity, 4);
                    rejected += 1;
                }
                Err(e) => unreachable!("only QueueFull expected under overload: {e:?}"),
            }
        }
        assert!(rejected > 0, "sustained overload must hit backpressure");
        for ticket in tickets {
            ticket.wait().expect("accepted jobs complete despite overload");
        }
        serve.shutdown();
        let m = serve.metrics();
        assert_eq!(m.rejected_full, rejected);
        assert_eq!(m.completed, m.submitted);
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
        assert_eq!(m.cycles_for(cambricon_p::stats::OpClass::Mul) > 0, true);
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
