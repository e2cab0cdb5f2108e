//! The bounded, bucket-partitioned submission queue and the free list of
//! the shard's devices.
//!
//! Jobs are partitioned into power-of-two operand-bitwidth buckets at
//! admission ([`operand_bucket`]: 64 bits and under share the first).
//! Batches are always formed from a single bucket, so every
//! batch a worker takes holds jobs of compatible size — the host-side
//! analogue of packing same-shape work onto the PE array to keep the
//! IPUs busy (the paper's §VII utilization argument; see DESIGN.md
//! §"Serving layer" and §"Admission and caching").
//!
//! # One mutex, one condvar
//!
//! Every piece of queue state — the per-bucket staging deques, the
//! queued count, the free list of devices, the shutdown flag and the
//! number of waiting threads — sits behind one `Mutex`, and idle workers
//! wait on one `Condvar`. No worker owns a device: whoever runs a job
//! takes one from the free list and gives it back with a
//! [`DeviceClaim`].
//!
//! - [`JobQueue::push`] resolves the bucket, then under the lock checks
//!   shutdown and capacity and stages the job. It notifies one worker
//!   only if one is waiting and a device is free to run the job.
//!   [`JobQueue::push_or_claim`] makes the same checks, but when nothing
//!   is staged and a device is free it hands the job back with that
//!   device instead, for the caller to run on its own thread. No staged
//!   job is overtaken that way, so FIFO order holds.
//! - [`JobQueue::next_batch`] forms a batch and claims a device under
//!   the same lock: the bucket whose front job was submitted first, up to
//!   `batch_max` jobs from its front. A batch is formed only when a
//!   worker is free to run it, so it grows with the backlog. With nothing
//!   staged, or no device free, the worker waits on the condvar until a
//!   job, a released device or shutdown arrives.
//! - Dropping a [`DeviceClaim`] returns its device, also when the job on
//!   it panicked, and wakes one waiting worker if a job is staged.
//! - [`JobQueue::begin_shutdown`] sets the flag and wakes every waiting
//!   worker; they drain what is staged and then return `None`.
//!   [`JobQueue::wait_devices_home`] then waits out the jobs that callers
//!   still run on their own threads.
//!
//! A check and the state change it guards happen under one lock, so a
//! job is either refused, run or staged before the drain can finish. No
//! wait is timed (lint rule L7 enforces this for the whole crate).

use crate::error::{ConfigError, SubmitError};
use crate::job::{Job, JobReport};
use cambricon_p::Device;
use std::collections::VecDeque;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

/// Smallest bucket ceiling: operands of up to 64 bits share the first
/// bucket.
pub(crate) const MIN_BUCKET_BITS: u64 = 64;

/// The bitwidth bucket an operand of `operand_bits` bits batches in, as
/// `(ceiling, index)`. The ceiling is the smallest power of two at or
/// above the width, at least 64; widths above 2^63 share one saturated
/// bucket with ceiling `u64::MAX`. The index counts buckets upward from
/// the 64-bit one (index 0). The submission queue stages and batches
/// jobs by this bucket, and apc-net's router hashes its ceiling, so
/// every job a router shard receives for one key batches together.
pub fn operand_bucket(operand_bits: u64) -> (u64, usize) {
    let floor_log2 = MIN_BUCKET_BITS.trailing_zeros();
    // ceil(log2(width)): 64 for every width above 2^63.
    let log2 = (u64::BITS - operand_bits.saturating_sub(1).leading_zeros()).max(floor_log2);
    let ceiling = 1u64.checked_shl(log2).unwrap_or(u64::MAX);
    (ceiling, (log2 - floor_log2) as usize)
}

/// One accepted job.
#[derive(Debug)]
pub(crate) struct Admitted {
    /// Monotone submission sequence number (FIFO key).
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// When the job was accepted.
    pub submitted_at: Instant,
    /// Absolute deadline, precomputed at admission.
    pub deadline_at: Option<Instant>,
}

/// One accepted job staged for a worker.
#[derive(Debug)]
pub(crate) struct Pending {
    /// The job.
    pub admitted: Admitted,
    /// Where the terminal report goes.
    pub reporter: Sender<JobReport>,
}

/// A unit of work for one worker: jobs from one bitwidth bucket.
#[derive(Debug)]
pub(crate) struct Batch {
    /// The bucket ceiling (bits) the jobs were grouped under.
    pub bucket_bits: u64,
    /// The jobs, in dispatch order.
    pub jobs: Vec<Pending>,
    /// When batch formation finished (dispatch-wait spans start here).
    pub formed_at: Instant,
    /// Nanoseconds spent forming the batch under the queue lock.
    pub form_ns: u64,
}

/// Where [`JobQueue::push_or_claim`] put an accepted job.
pub(crate) enum Admission<'q> {
    /// Nothing was staged and a device was free: the caller runs the job
    /// on that device.
    Inline(Admitted, DeviceClaim<'q>),
    /// Staged for a worker at this queue depth; the report arrives on
    /// the receiver.
    Staged(usize, Receiver<JobReport>),
}

/// Everything the queue lock guards.
struct State {
    /// Per-bucket staging deques, indexed by [`operand_bucket`].
    staged: Vec<VecDeque<Pending>>,
    /// Jobs staged and not yet taken in a batch.
    queued: usize,
    /// Indices into [`JobQueue::devices`] of the devices no job holds.
    free: Vec<usize>,
    shutdown: bool,
    /// Threads blocked on [`JobQueue::ready`]: workers in
    /// [`JobQueue::next_batch`] and, after shutdown, callers of
    /// [`JobQueue::wait_devices_home`].
    waiting: usize,
    /// Live [`WorkerSlot`]s.
    workers: usize,
}

impl State {
    /// Forms the next batch, or `None` when nothing is staged.
    fn pop_batch(&mut self, batch_max: usize) -> Option<Batch> {
        let form_started = Instant::now();
        // Submission order across buckets: the bucket whose front job is
        // oldest runs next, as up to `batch_max` jobs from its front.
        let (_, bucket) = self
            .staged
            .iter_mut()
            .filter_map(|dq| Some((dq.front()?.admitted.id, dq)))
            .min_by_key(|(id, _)| *id)?;
        let jobs: Vec<Pending> = bucket.drain(..batch_max.min(bucket.len())).collect();
        let bucket_bits = operand_bucket(jobs.first()?.admitted.job.operand_bits()).0;
        self.queued -= jobs.len();
        let formed_at = Instant::now();
        Some(Batch {
            bucket_bits,
            jobs,
            formed_at,
            form_ns: apc_trace::span::duration_ns(
                formed_at.saturating_duration_since(form_started),
            ),
        })
    }

    /// Forms the next batch and takes a free device for it, or `None`
    /// when nothing is staged or no device is free.
    fn claim_batch(&mut self, batch_max: usize) -> Option<(Batch, usize)> {
        let device = *self.free.last()?;
        let batch = self.pop_batch(batch_max)?;
        self.free.pop();
        Some((batch, device))
    }
}

/// The submission queue, shared by every [`crate::ServeHandle`] clone
/// and every worker.
pub(crate) struct JobQueue {
    capacity: usize,
    /// The largest bucket's ceiling: the admission bound on operand width.
    max_operand_bits: u64,
    /// The shard's devices; [`State::free`] lists those no job holds.
    devices: Box<[Device]>,
    state: Mutex<State>,
    /// Signalled when a job is staged or a device is released for a
    /// waiting worker, and on shutdown.
    ready: Condvar,
}

impl JobQueue {
    /// Builds the queue with one staging deque per [`operand_bucket`]
    /// from the 64-bit bucket up to the one holding `max_operand_bits`;
    /// that bucket's ceiling is the admission bound. Every staging deque
    /// reserves the full `capacity` (total-queue bound) up front,
    /// mirroring `Lru::new`: the queued total can never exceed
    /// `capacity`, so no bucket can either, and steady state never
    /// reallocates. Every one of `devices` starts free.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would reject every submission, and a maximum
    /// below the 64-bit smallest bucket spans no bucket at all.
    pub fn new(
        capacity: usize,
        max_operand_bits: u64,
        devices: Vec<Device>,
    ) -> Result<JobQueue, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if max_operand_bits < MIN_BUCKET_BITS {
            return Err(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits });
        }
        let (max_operand_bits, top) = operand_bucket(max_operand_bits);
        let staged = (0..=top).map(|_| VecDeque::with_capacity(capacity)).collect();
        let free = (0..devices.len()).rev().collect();
        Ok(JobQueue {
            capacity,
            max_operand_bits,
            devices: devices.into_boxed_slice(),
            state: Mutex::new(State {
                staged,
                queued: 0,
                free,
                shutdown: false,
                waiting: 0,
                workers: 0,
            }),
            ready: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission ceiling: the largest bucket's ceiling.
    pub fn max_operand_bits(&self) -> u64 {
        self.max_operand_bits
    }

    /// The width and shutdown checks every admission starts with; on
    /// success the queue lock is held.
    fn admission_lock(&self, admitted: &Admitted) -> Result<MutexGuard<'_, State>, SubmitError> {
        let bits = admitted.job.operand_bits();
        if bits > self.max_operand_bits {
            return Err(SubmitError::OversizedOperand { bits, max_bits: self.max_operand_bits });
        }
        let state = self.lock();
        if state.shutdown {
            return Err(SubmitError::Shutdown);
        }
        Ok(state)
    }

    /// Stages one admitted job under the held lock, or refuses it when
    /// the queue is full.
    fn stage(
        &self,
        mut state: MutexGuard<'_, State>,
        admitted: Admitted,
    ) -> Result<(usize, Receiver<JobReport>), SubmitError> {
        if state.queued >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        let (_, idx) = operand_bucket(admitted.job.operand_bits());
        let (reporter, receiver) = mpsc::channel();
        state.staged[idx].push_back(Pending { admitted, reporter });
        state.queued += 1;
        // With every device out, the release of one wakes a worker.
        let (depth, wake) = (state.queued, state.waiting > 0 && !state.free.is_empty());
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok((depth, receiver))
    }

    /// Stages one job for a worker, or explains why not, and returns the
    /// queue depth after admission and the receiver of the job's report.
    /// Never blocks on anything but the queue lock, never drops.
    pub fn push(&self, admitted: Admitted) -> Result<(usize, Receiver<JobReport>), SubmitError> {
        let state = self.admission_lock(&admitted)?;
        self.stage(state, admitted)
    }

    /// [`JobQueue::push`], except that when nothing is staged and a
    /// device is free, the job comes back with that device for the caller
    /// to run at once.
    pub fn push_or_claim(&self, admitted: Admitted) -> Result<Admission<'_>, SubmitError> {
        let mut state = self.admission_lock(&admitted)?;
        if state.queued == 0 {
            if let Some(index) = state.free.pop() {
                return Ok(Admission::Inline(admitted, DeviceClaim { queue: self, index }));
            }
        }
        self.stage(state, admitted).map(|(depth, receiver)| Admission::Staged(depth, receiver))
    }

    /// Blocks until a batch can be formed and a device is free, and takes
    /// both. Returns `None` only when the queue is shut down **and**
    /// fully drained — the worker's termination signal.
    pub fn next_batch(&self, batch_max: usize) -> Option<(Batch, DeviceClaim<'_>)> {
        let mut state = self.lock();
        loop {
            if let Some((batch, index)) = state.claim_batch(batch_max) {
                return Some((batch, DeviceClaim { queue: self, index }));
            }
            if state.shutdown && state.queued == 0 {
                return None;
            }
            // Nothing staged, or every device out: the next push, release
            // or `begin_shutdown` sees `waiting > 0` and wakes us.
            state.waiting += 1;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Returns a device to the free list and wakes one waiting worker if
    /// a job is staged; after shutdown it wakes every waiter, so
    /// [`JobQueue::wait_devices_home`] sees the last device come back.
    fn release(&self, index: usize) {
        let mut state = self.lock();
        state.free.push(index);
        let (shutdown, wake) = (state.shutdown, state.queued > 0 && state.waiting > 0);
        drop(state);
        if shutdown {
            self.ready.notify_all();
        } else if wake {
            self.ready.notify_one();
        }
    }

    /// Jobs staged and not yet taken in a batch.
    pub fn depth(&self) -> usize {
        self.lock().queued
    }

    /// Flags shutdown: no new admissions; the workers drain what is
    /// already staged.
    pub fn begin_shutdown(&self) {
        self.lock().shutdown = true;
        self.ready.notify_all();
    }

    /// After [`JobQueue::begin_shutdown`], blocks until every device is
    /// back in the free list: no job runs any more, on a worker or on a
    /// caller's thread.
    pub fn wait_devices_home(&self) {
        let mut state = self.lock();
        while state.free.len() < self.devices.len() {
            state.waiting += 1;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }

    /// Registers one worker for the lifetime of the returned slot.
    pub fn add_worker(self: &Arc<JobQueue>) -> WorkerSlot {
        self.lock().workers += 1;
        WorkerSlot(Arc::clone(self))
    }

    /// Non-blocking batch formation: `None` when nothing is staged (the
    /// empty tick — scheduling work only exists when jobs do) or no
    /// device is free.
    #[cfg(test)]
    fn try_next_batch(&self, batch_max: usize) -> Option<(Batch, DeviceClaim<'_>)> {
        let (batch, index) = self.lock().claim_batch(batch_max)?;
        Some((batch, DeviceClaim { queue: self, index }))
    }

    /// Threads currently waiting on the condvar.
    #[cfg(test)]
    fn waiting(&self) -> usize {
        self.lock().waiting
    }

    /// Devices in the free list.
    #[cfg(test)]
    fn free(&self) -> usize {
        self.lock().free.len()
    }

    /// Reserved capacity of each staging deque (for the reservation
    /// regression test).
    #[cfg(test)]
    fn bucket_queue_capacities(&self) -> Vec<usize> {
        self.lock().staged.iter().map(VecDeque::capacity).collect()
    }
}

/// One device taken from the free list. Dropping the claim gives the
/// device back, also while a panic in the job on it unwinds, so staged
/// work never waits on a device that nothing will return.
pub(crate) struct DeviceClaim<'q> {
    queue: &'q JobQueue,
    index: usize,
}

impl DeviceClaim<'_> {
    /// The device's index in the shard (reported as
    /// [`JobReport::worker`]).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The claimed device.
    pub fn device(&self) -> &Device {
        &self.queue.devices[self.index]
    }
}

impl Drop for DeviceClaim<'_> {
    fn drop(&mut self) {
        self.queue.release(self.index);
    }
}

/// One worker's registration with the queue. When the last slot drops,
/// every worker has exited: after the drain, or each by a panic in a
/// job. The queue then shuts and drops what is still staged, so those
/// tickets answer `ServeError::WorkerLost` and later submissions
/// `SubmitError::Shutdown` instead of waiting for a worker that is gone.
pub(crate) struct WorkerSlot(Arc<JobQueue>);

impl WorkerSlot {
    /// [`JobQueue::next_batch`] on the registered queue.
    pub fn next_batch(&self, batch_max: usize) -> Option<(Batch, DeviceClaim<'_>)> {
        self.0.next_batch(batch_max)
    }
}

impl Drop for WorkerSlot {
    fn drop(&mut self) {
        let mut state = self.0.lock();
        state.workers -= 1;
        if state.workers == 0 {
            state.shutdown = true;
            state.queued = 0;
            state.staged.iter_mut().for_each(VecDeque::clear);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use std::panic::{self, AssertUnwindSafe};
    use std::thread;
    use std::time::Duration;

    /// A job nobody runs: the queue only stages and batches it.
    fn admitted(id: u64, bits: u64) -> Admitted {
        Admitted {
            id,
            job: Job::Mul { a: Nat::power_of_two(bits.saturating_sub(1)), b: Nat::one() },
            submitted_at: Instant::now(),
            deadline_at: None,
        }
    }

    /// A queue over `devices` default devices.
    fn queue_with(capacity: usize, max_operand_bits: u64, devices: usize) -> JobQueue {
        let devices = (0..devices).map(|_| Device::new_default()).collect();
        JobQueue::new(capacity, max_operand_bits, devices).expect("valid queue config")
    }

    /// A queue over one device.
    fn queue(capacity: usize, max_operand_bits: u64) -> JobQueue {
        queue_with(capacity, max_operand_bits, 1)
    }

    /// Stages `job` for a worker, whatever devices are free.
    fn stage(q: &JobQueue, job: Admitted) {
        q.push(job).expect("capacity available");
    }

    #[test]
    fn operand_bucket_is_the_power_of_two_ceiling_floored_at_64() {
        assert_eq!(operand_bucket(0), (64, 0));
        assert_eq!(operand_bucket(1), (64, 0));
        assert_eq!(operand_bucket(64), (64, 0));
        assert_eq!(operand_bucket(65), (128, 1));
        assert_eq!(operand_bucket(128), (128, 1));
        assert_eq!(operand_bucket(1 << 20), (1 << 20, 14));
        assert_eq!(operand_bucket(1 << 63), (1 << 63, 57));
        assert_eq!(operand_bucket((1 << 63) + 1), (u64::MAX, 58));
        assert_eq!(operand_bucket(u64::MAX), (u64::MAX, 58));
    }

    #[test]
    fn bucket_ceilings_are_powers_of_two_and_cover_the_range() {
        let q = queue(8, 1 << 20);
        assert_eq!(q.max_operand_bits(), 1 << 20);
        assert_eq!(q.bucket_queue_capacities().len(), 15, "buckets 64 ..= 2^20");
        // A maximum between powers of two admits up to its bucket's ceiling.
        let q = queue(8, 5000);
        assert_eq!(q.max_operand_bits(), 8192);
        let q = queue(8, 64);
        assert_eq!(q.max_operand_bits(), 64);
    }

    #[test]
    fn degenerate_configs_are_typed_construction_errors() {
        // Regression: pre-fix, both constructions returned a live queue
        // (capacity 0 rejected everything; a maximum below the smallest
        // bucket produced an inverted single-bucket ladder).
        let device = || vec![Device::new_default()];
        assert_eq!(JobQueue::new(0, 4096, device()).err(), Some(ConfigError::ZeroCapacity));
        for max_operand_bits in [0, 63] {
            assert_eq!(
                JobQueue::new(4, max_operand_bits, device()).err(),
                Some(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits })
            );
        }
    }

    #[test]
    fn saturated_ceiling_ladder_terminates_and_dedups() {
        // A range reaching u64::MAX ends in the one saturated top bucket:
        // distinct powers of two 64..2^63 plus u64::MAX, 59 buckets.
        let q = queue(4, u64::MAX);
        assert_eq!(q.max_operand_bits(), u64::MAX);
        assert_eq!(q.bucket_queue_capacities().len(), 59);
    }

    #[test]
    fn batches_carry_formation_spans() {
        let q = queue(4, 4096);
        stage(&q, admitted(0, 100));
        let before = Instant::now();
        let (b, _device) = q.try_next_batch(4).expect("work queued");
        assert!(b.formed_at >= before);
        // form_ns is a measured span, not a sentinel; it can be 0 on a
        // coarse clock but never exceeds the enclosing interval.
        assert!(b.form_ns <= apc_trace::span::duration_ns(before.elapsed()) + 1_000_000);
    }

    #[test]
    fn empty_tick_yields_no_batch() {
        let q = queue(4, 4096);
        assert!(q.try_next_batch(8).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_bound_is_enforced_without_blocking() {
        let q = queue(3, 4096);
        for id in 0..3 {
            assert!(q.push(admitted(id, 100)).is_ok());
        }
        assert_eq!(q.push(admitted(3, 100)).err(), Some(SubmitError::QueueFull { capacity: 3 }));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn batches_never_mix_buckets() {
        // The bucket holding the oldest job goes first, whatever its
        // width; each batch takes its bucket's jobs in submission order.
        let q = queue(8, 4096);
        for (id, bits) in [(0u64, 3000u64), (1, 60), (2, 50), (3, 40), (4, 2500)] {
            stage(&q, admitted(id, bits));
        }
        let ids = |b: &Batch| b.jobs.iter().map(|p| p.admitted.id).collect::<Vec<_>>();
        let (b, _) = q.try_next_batch(8).expect("work queued");
        assert_eq!(b.bucket_bits, 4096);
        assert_eq!(ids(&b), vec![0, 4]);
        let (b2, _) = q.try_next_batch(2).expect("small jobs left");
        assert_eq!(b2.bucket_bits, 64);
        assert_eq!(ids(&b2), vec![1, 2]);
        let (b3, _) = q.try_next_batch(8).expect("one small job left");
        assert_eq!(ids(&b3), vec![3]);
        assert!(q.try_next_batch(8).is_none());
    }

    #[test]
    fn steady_state_at_capacity_never_reallocates_bucket_queues() {
        // The Lru full-capacity-reservation idiom, applied to the
        // queue's staging deques: churn the queue at its configured
        // capacity and assert no deque ever regrows.
        let capacity = 64;
        let q = queue(capacity, 1 << 16);
        let reserved = q.bucket_queue_capacities();
        assert!(reserved.iter().all(|&c| c >= capacity), "{reserved:?}");
        let mut id = 0u64;
        for _round in 0..10 {
            // Fill to capacity across several buckets, then drain fully.
            loop {
                let p = admitted(id, 60 + (id % 4) * 2000);
                id += 1;
                match q.push(p) {
                    Ok(_) => {}
                    Err(SubmitError::QueueFull { .. }) => break,
                    Err(e) => unreachable!("unexpected rejection: {e}"),
                }
            }
            while q.try_next_batch(7).is_some() {}
        }
        assert_eq!(
            q.bucket_queue_capacities(),
            reserved,
            "bucket queues reallocated during steady state"
        );
    }

    #[test]
    fn shutdown_rejects_new_but_drains_old() {
        let q = queue(4, 4096);
        stage(&q, admitted(0, 100));
        q.begin_shutdown();
        assert_eq!(q.push(admitted(1, 100)).err(), Some(SubmitError::Shutdown));
        assert!(matches!(q.push_or_claim(admitted(2, 100)), Err(SubmitError::Shutdown)));
        // The queued job is still drainable...
        assert!(q.next_batch(4).is_some());
        // ...and once empty, next_batch signals termination.
        assert!(q.next_batch(4).is_none());
        q.wait_devices_home();
    }

    #[test]
    fn claims_run_inline_only_with_a_free_device_and_nothing_staged() {
        let q = queue_with(4, 4096, 2);
        let Ok(Admission::Inline(job, first)) = q.push_or_claim(admitted(0, 100)) else {
            panic!("an idle queue hands the job back with a device");
        };
        assert_eq!(job.id, 0);
        let Ok(Admission::Inline(_, second)) = q.push_or_claim(admitted(1, 100)) else {
            panic!("the second device is still free");
        };
        assert_ne!(first.index(), second.index());
        assert_eq!(q.free(), 0);
        // Every device out: the job is staged for a worker.
        assert!(matches!(q.push_or_claim(admitted(2, 100)), Ok(Admission::Staged(1, _))));
        drop(first);
        // A device is free again, but a job is staged: no overtaking.
        assert!(matches!(q.push_or_claim(admitted(3, 100)), Ok(Admission::Staged(2, _))));
        let (batch, _device) = q.try_next_batch(1).expect("a staged job and a free device");
        assert_eq!(batch.jobs[0].admitted.id, 2, "FIFO across both paths");
    }

    #[test]
    fn a_panicking_job_returns_its_device_and_staged_work_still_runs() {
        let q = queue(4, 4096);
        // A caller's job panics on the device it claimed...
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Ok(Admission::Inline(_, _device)) = q.push_or_claim(admitted(0, 100)) {
                panic!("a job panics while its device is claimed");
            }
        }));
        assert!(unwound.is_err(), "the idle queue handed out its device and the job panicked");
        assert_eq!(q.free(), 1, "the unwinding claim gave its device back");
        // ...and so does a worker's batch.
        stage(&q, admitted(1, 100));
        let unwound = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some((_batch, _device)) = q.next_batch(4) {
                panic!("a batch panics on a worker");
            }
        }));
        assert!(unwound.is_err(), "the worker took the batch and the job panicked");
        assert_eq!(q.free(), 1, "the unwinding worker gave its device back");
        // A job staged afterwards still finds the device.
        stage(&q, admitted(2, 100));
        let (batch, _device) = q.try_next_batch(4).expect("the staged job finds the device");
        assert_eq!(batch.jobs[0].admitted.id, 2);
    }

    /// Polls until `n` threads wait on the queue's condvar, failing at
    /// the watchdog instead of spinning forever.
    fn wait_for_waiters(q: &JobQueue, n: usize, watchdog: Duration) {
        let deadline = Instant::now() + watchdog;
        while q.waiting() < n {
            assert!(Instant::now() < deadline, "threads never reached the wait");
            thread::yield_now();
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
    )]
    fn idle_workers_wake_for_each_job_and_for_shutdown() {
        // A push that never notifies, or a shutdown that wakes nobody,
        // leaves a worker blocked forever: the watchdog turns that into
        // a failure instead of a hang.
        const WATCHDOG: Duration = Duration::from_secs(20);
        let q = Arc::new(queue_with(8, 4096, 3));
        let (taken_tx, taken_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (q, taken_tx, exit_tx) = (Arc::clone(&q), taken_tx.clone(), exit_tx.clone());
                thread::spawn(move || {
                    while let Some((batch, _device)) = q.next_batch(1) {
                        let _ = taken_tx.send(batch.jobs.len());
                    }
                    let _ = exit_tx.send(());
                })
            })
            .collect();
        wait_for_waiters(&q, 3, WATCHDOG);
        for id in 0..3 {
            stage(&q, admitted(id, 100));
        }
        for _ in 0..3 {
            let taken = taken_rx.recv_timeout(WATCHDOG);
            assert_eq!(taken, Ok(1), "an idle worker missed the wakeup for a job");
        }
        wait_for_waiters(&q, 3, WATCHDOG);
        q.begin_shutdown();
        for _ in 0..3 {
            let exited = exit_rx.recv_timeout(WATCHDOG);
            assert_eq!(exited, Ok(()), "a waiting worker missed the shutdown wakeup");
        }
        for worker in workers {
            worker.join().expect("worker exits cleanly");
        }
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
    )]
    fn a_worker_waiting_for_a_device_wakes_when_one_is_released() {
        // The job is staged while the only device is out, so the push
        // has nobody to wake; the worker then waits with work in sight.
        // Only the release can wake it: a release that notifies nobody
        // fails at the watchdog instead of hanging.
        const WATCHDOG: Duration = Duration::from_secs(20);
        let q = Arc::new(queue(8, 4096));
        let Ok(Admission::Inline(_, claim)) = q.push_or_claim(admitted(0, 100)) else {
            panic!("an idle queue hands out its device");
        };
        stage(&q, admitted(1, 100));
        let (taken_tx, taken_rx) = mpsc::channel();
        let worker = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                if let Some((batch, _device)) = q.next_batch(1) {
                    let _ = taken_tx.send(batch.jobs[0].admitted.id);
                }
            })
        };
        wait_for_waiters(&q, 1, WATCHDOG);
        assert_eq!(q.depth(), 1, "the job stays staged while the device is out");
        drop(claim);
        let taken = taken_rx.recv_timeout(WATCHDOG);
        assert_eq!(taken, Ok(1), "the release missed the worker waiting for a device");
        worker.join().expect("worker exits cleanly");
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
    )]
    fn shutdown_waits_for_devices_claimed_by_callers() {
        const WATCHDOG: Duration = Duration::from_secs(20);
        let q = Arc::new(queue(4, 4096));
        let Ok(Admission::Inline(_, claim)) = q.push_or_claim(admitted(0, 100)) else {
            panic!("an idle queue hands out its device");
        };
        q.begin_shutdown();
        let (home_tx, home_rx) = mpsc::channel();
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.wait_devices_home();
                let _ = home_tx.send(());
            })
        };
        wait_for_waiters(&q, 1, WATCHDOG);
        assert!(home_rx.try_recv().is_err(), "the device is still claimed");
        drop(claim);
        assert_eq!(home_rx.recv_timeout(WATCHDOG), Ok(()), "the release missed the shutdown");
        waiter.join().expect("waiter exits cleanly");
    }

    #[test]
    fn last_worker_exit_drops_staged_jobs_and_refuses_new_ones() {
        let q = Arc::new(queue(4, 4096));
        let slots = [q.add_worker(), q.add_worker()];
        let (_, reports) = q.push(admitted(0, 100)).expect("capacity available");
        let [first, second] = slots;
        drop(first);
        assert!(!q.is_shutdown(), "one worker is still live");
        drop(second);
        assert!(q.is_shutdown());
        assert_eq!(q.depth(), 0);
        assert!(reports.recv().is_err(), "the staged job's reporter is dropped");
        assert_eq!(q.push(admitted(1, 100)).err(), Some(SubmitError::Shutdown));
    }

    #[test]
    fn concurrent_submitters_conserve_every_admitted_job() {
        // The conservation law: with submitters racing the drain and a
        // shutdown landing mid-stream, every Ok(push) is either in a
        // formed batch or... there is no other place. IDs are unique, so
        // a set equality check catches both loss and duplication.
        let q = Arc::new(queue(4096, 1 << 16));
        let threads = 8u64;
        let per_thread = 200u64;
        let admitted_ids = Arc::new(Mutex::new(Vec::<u64>::new()));
        let drained = thread::scope(|s| {
            let mut submitters = Vec::new();
            for t in 0..threads {
                let q = Arc::clone(&q);
                let admitted_ids = Arc::clone(&admitted_ids);
                submitters.push(s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..per_thread {
                        let id = t * per_thread + i;
                        if q.push(admitted(id, 60 + (id % 5) * 900)).is_ok() {
                            mine.push(id);
                        }
                    }
                    admitted_ids
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .extend(mine);
                }));
            }
            {
                // Shut down only after every submitter finished, so the
                // drain loop's None is a true end-of-stream.
                let q = Arc::clone(&q);
                s.spawn(move || {
                    for h in submitters {
                        let _ = h.join();
                    }
                    q.begin_shutdown();
                });
            }
            let mut drained = Vec::new();
            while let Some((b, _device)) = q.next_batch(8) {
                drained.extend(b.jobs.iter().map(|p| p.admitted.id));
            }
            drained
        });
        let mut admitted_ids = admitted_ids.lock().unwrap_or_else(PoisonError::into_inner).clone();
        admitted_ids.sort_unstable();
        let mut drained = drained;
        drained.sort_unstable();
        // Every admitted job drained exactly once; jobs racing the
        // shutdown were either admitted (and so drained) or rejected.
        assert_eq!(admitted_ids, drained);
        assert_eq!(q.depth(), 0);
    }
}
