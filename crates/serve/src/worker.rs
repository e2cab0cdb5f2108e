//! The worker pool: one `cambricon_p::Device` handle per worker.
//!
//! There is no scheduler thread. A free worker asks the queue for the
//! next batch: under the queue lock it takes a single-bucket batch from
//! the oldest staged job's bucket, or waits on the queue's condvar if
//! nothing is staged. It then runs the batch back to back with the lock
//! released. A batch is therefore formed only when a worker can run it
//! at once, so jobs keep accumulating while every worker is busy, and
//! batch size grows with offered load. Per-job service cycles are
//! attributed with the snapshot/delta stats API on the worker's own
//! device, so concurrent tenants never blur each other's accounting.

use crate::job::{DeadlineOutcome, JobId, JobReport};
use crate::metrics::ServeMetrics;
use crate::queue::WorkerSlot;
use cambricon_p::Device;
use std::sync::Arc;
use std::time::Instant;

/// Runs until the queue is shut down and fully drained.
pub(crate) fn worker_loop(
    index: usize,
    device: Device,
    queue: WorkerSlot,
    batch_max: usize,
    metrics: Arc<ServeMetrics>,
) {
    let cycle_seconds = device.config().cycle_seconds();
    loop {
        let Some(batch) = queue.next_batch(batch_max) else {
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
            let before = device.stats();
            let started_at = Instant::now();
            let output = pending.job.run(&device);
            let finished_at = Instant::now();
            let delta = device.stats().delta_since(&before);
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
