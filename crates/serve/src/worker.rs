//! The worker pool: one `cambricon_p::Device` handle per worker.
//!
//! There is no scheduler thread. The workers share the queue's
//! [`BatchSource`] behind a mutex (the leader/follower pattern): a free
//! worker takes the lock, forms a single-bucket batch under the
//! configured policy — blocking on the admission channel if nothing is
//! staged — then releases the lock and executes the batch back to back
//! while the next free worker leads. A batch is therefore formed only
//! when a worker can run it at once, so jobs keep accumulating (and stay
//! reorderable) while every worker is busy, and batch size grows with
//! offered load. Per-job service cycles are attributed with the
//! snapshot/delta stats API on the worker's own device, so concurrent
//! tenants never blur each other's accounting.

use crate::job::{DeadlineOutcome, JobId, JobReport};
use crate::metrics::ServeMetrics;
use crate::queue::{BatchSource, SchedPolicy};
use cambricon_p::Device;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// Runs until the queue is shut down and fully drained.
pub(crate) fn worker_loop(
    index: usize,
    device: Device,
    source: Arc<Mutex<BatchSource>>,
    batch_max: usize,
    policy: SchedPolicy,
    metrics: Arc<ServeMetrics>,
) {
    let cycle_seconds = device.config().cycle_seconds();
    loop {
        // Hold the lock only while forming the batch; execution happens
        // with the source free for the next worker.
        let batch = source
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .next_batch(batch_max, policy);
        let Some(batch) = batch else {
            return; // shutdown and fully drained
        };
        metrics.record_batch(batch.jobs.len(), batch.form_ns);
        let picked_up_at = Instant::now();
        // Dispatch-wait span: batch formation to pickup by this same
        // worker, so it measures only the lock release and metrics call.
        metrics.record_dispatch_wait(apc_trace::span::duration_ns(
            picked_up_at.saturating_duration_since(batch.formed_at),
        ));
        for pending in batch.jobs {
            let before = device.stats_snapshot();
            let started_at = Instant::now();
            let output = pending.job.run(&device);
            let finished_at = Instant::now();
            let delta = device.stats_snapshot().delta_since(&before);
            let deadline = match pending.deadline_at {
                None => DeadlineOutcome::None,
                Some(at) if finished_at <= at => DeadlineOutcome::Met,
                Some(_) => DeadlineOutcome::Missed,
            };
            let class = pending.job.op_class();
            let queue_wait = picked_up_at.saturating_duration_since(pending.submitted_at);
            metrics.record_completion(
                class,
                delta.cycles,
                deadline == DeadlineOutcome::Missed,
                apc_trace::span::duration_ns(queue_wait),
                apc_trace::span::duration_ns(
                    finished_at.saturating_duration_since(started_at),
                ),
            );
            let report = JobReport {
                id: JobId(pending.id),
                output,
                op_class: class,
                bucket_bits: batch.bucket_bits,
                worker: index,
                queue_wait,
                service_cycles: delta.cycles,
                service_seconds: delta.cycles as f64 * cycle_seconds,
                deadline,
            };
            // A dropped ticket just means the tenant stopped listening;
            // the job still completed and was counted.
            let _ = pending.reporter.send(report);
        }
    }
}
