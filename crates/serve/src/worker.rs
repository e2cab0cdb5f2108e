//! The worker pool and the one function that runs a job.
//!
//! There is no scheduler thread, and no worker owns a device: the shard's
//! devices sit in the queue's free list. A free worker asks the queue for
//! the next batch: under the queue lock it takes a single-bucket batch
//! from the oldest staged job's bucket together with a free device, or
//! waits on the queue's condvar if nothing is staged or every device is
//! out. It then runs the batch back to back with the lock released and
//! gives the device back. A batch is therefore formed only when a worker
//! and a device can run it at once, so jobs keep accumulating while every
//! device is busy, and batch size grows with offered load.
//!
//! [`run_job`] is the single execution path: workers call it for each job
//! of a batch, and [`crate::ServeHandle::submit_wait`] calls it on the
//! caller's own thread when a device is free and nothing is staged. Per-job
//! service cycles are the difference of the claimed device's cycle counter
//! before and after the job; no other job touches that device meanwhile,
//! so concurrent tenants never blur each other's accounting.

use crate::job::{DeadlineOutcome, JobId, JobReport};
use crate::metrics::ServeMetrics;
use crate::queue::{Admitted, DeviceClaim, WorkerSlot};
use std::sync::Arc;
use std::time::Instant;

/// Runs until the queue is shut down and fully drained.
pub(crate) fn worker_loop(queue: WorkerSlot, batch_max: usize, metrics: Arc<ServeMetrics>) {
    while let Some((batch, device)) = queue.next_batch(batch_max) {
        metrics.record_batch(batch.jobs.len(), batch.form_ns);
        let picked_up_at = Instant::now();
        // Dispatch-wait span: batch formation to pickup by this same
        // worker, so it measures only the lock release and metrics call.
        metrics.record_dispatch_wait(apc_trace::span::duration_ns(
            picked_up_at.saturating_duration_since(batch.formed_at),
        ));
        for pending in batch.jobs {
            let report =
                run_job(&device, &pending.admitted, picked_up_at, batch.bucket_bits, &metrics);
            // A dropped ticket just means the tenant stopped listening;
            // the job still completed and was counted.
            let _ = pending.reporter.send(report);
        }
    }
}

/// Runs one accepted job on a claimed device, records its completion and
/// returns its terminal report. `picked_up_at` ends the job's queue wait.
pub(crate) fn run_job(
    device: &DeviceClaim<'_>,
    admitted: &Admitted,
    picked_up_at: Instant,
    bucket_bits: u64,
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
    let queue_wait = picked_up_at.saturating_duration_since(admitted.submitted_at);
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
        bucket_bits,
        worker: device.index(),
        queue_wait,
        service_cycles,
        service_seconds: service_cycles as f64 * device.device().config().cycle_seconds(),
        deadline,
    }
}
