//! The bounded, bucket-partitioned submission queue.
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
//! queued count, the shutdown flag and the number of idle workers —
//! sits behind one `Mutex`, and idle workers wait on one `Condvar`:
//!
//! - [`JobQueue::push`] resolves the bucket, then under the lock checks
//!   shutdown and capacity and stages the job. It notifies one worker
//!   only if one is waiting.
//! - [`JobQueue::next_batch`] forms a batch under the same lock: the
//!   bucket whose front job was submitted first, up to `batch_max` jobs
//!   from its front. A batch is formed only when a worker is free to run
//!   it, so it grows with the backlog. With nothing staged, the worker
//!   waits on the condvar until a job or shutdown arrives.
//! - [`JobQueue::begin_shutdown`] sets the flag and wakes every waiting
//!   worker; they drain what is staged and then return `None`.
//!
//! A check and the state change it guards happen under one lock, so a
//! job is either refused or staged before the drain can finish. No wait
//! is timed (lint rule L7 enforces this for the whole crate).

use crate::error::{ConfigError, SubmitError};
use crate::job::{Job, JobReport};
use std::collections::VecDeque;
use std::sync::mpsc::Sender;
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

/// One accepted job waiting for dispatch.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Monotone submission sequence number (FIFO key).
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// When the job was accepted.
    pub submitted_at: Instant,
    /// Absolute deadline, precomputed at admission.
    pub deadline_at: Option<Instant>,
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

/// Everything the queue lock guards.
struct State {
    /// Per-bucket staging deques, indexed by [`operand_bucket`].
    staged: Vec<VecDeque<Pending>>,
    /// Jobs staged and not yet taken in a batch.
    queued: usize,
    shutdown: bool,
    /// Workers blocked in [`JobQueue::next_batch`].
    idle: usize,
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
            .filter_map(|dq| Some((dq.front()?.id, dq)))
            .min_by_key(|(id, _)| *id)?;
        let jobs: Vec<Pending> = bucket.drain(..batch_max.clamp(1, bucket.len())).collect();
        let bucket_bits = operand_bucket(jobs.first()?.job.operand_bits()).0;
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
}

/// The submission queue, shared by every [`crate::ServeHandle`] clone
/// and every worker.
pub(crate) struct JobQueue {
    capacity: usize,
    /// The largest bucket's ceiling: the admission bound on operand width.
    max_operand_bits: u64,
    state: Mutex<State>,
    /// Signalled when a job is staged for a waiting worker, and on
    /// shutdown.
    ready: Condvar,
}

impl JobQueue {
    /// Builds the queue with one staging deque per [`operand_bucket`]
    /// from the 64-bit bucket up to the one holding `max_operand_bits`;
    /// that bucket's ceiling is the admission bound. Every staging deque
    /// reserves the full `capacity` (total-queue bound) up front,
    /// mirroring `Lru::new`: the queued total can never exceed
    /// `capacity`, so no bucket can either, and steady state never
    /// reallocates.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would reject every submission, and a maximum
    /// below the 64-bit smallest bucket spans no bucket at all.
    pub fn new(capacity: usize, max_operand_bits: u64) -> Result<JobQueue, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if max_operand_bits < MIN_BUCKET_BITS {
            return Err(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits });
        }
        let (max_operand_bits, top) = operand_bucket(max_operand_bits);
        let staged = (0..=top).map(|_| VecDeque::with_capacity(capacity)).collect();
        Ok(JobQueue {
            capacity,
            max_operand_bits,
            state: Mutex::new(State { staged, queued: 0, shutdown: false, idle: 0, workers: 0 }),
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

    /// Admits one job or explains why not, and returns the queue depth
    /// after admission. Never blocks on anything but the queue lock,
    /// never drops.
    pub fn push(&self, pending: Pending) -> Result<usize, SubmitError> {
        let bits = pending.job.operand_bits();
        if bits > self.max_operand_bits {
            return Err(SubmitError::OversizedOperand { bits, max_bits: self.max_operand_bits });
        }
        let (_, idx) = operand_bucket(bits);
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if state.queued >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        state.staged[idx].push_back(pending);
        state.queued += 1;
        let (depth, wake) = (state.queued, state.idle > 0);
        drop(state);
        if wake {
            self.ready.notify_one();
        }
        Ok(depth)
    }

    /// Blocks until a batch can be formed, and forms it. Returns `None`
    /// only when the queue is shut down **and** fully drained — the
    /// worker's termination signal.
    pub fn next_batch(&self, batch_max: usize) -> Option<Batch> {
        let mut state = self.lock();
        loop {
            if let Some(batch) = state.pop_batch(batch_max) {
                return Some(batch);
            }
            if state.shutdown {
                return None;
            }
            // Nothing staged and no shutdown: the next push or
            // `begin_shutdown` sees `idle > 0` and wakes us.
            state.idle += 1;
            state = self.ready.wait(state).unwrap_or_else(PoisonError::into_inner);
            state.idle -= 1;
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
    /// empty tick — scheduling work only exists when jobs do).
    #[cfg(test)]
    fn try_next_batch(&self, batch_max: usize) -> Option<Batch> {
        self.lock().pop_batch(batch_max)
    }

    /// Workers currently waiting in [`JobQueue::next_batch`].
    #[cfg(test)]
    fn idle(&self) -> usize {
        self.lock().idle
    }

    /// Reserved capacity of each staging deque (for the reservation
    /// regression test).
    #[cfg(test)]
    fn bucket_queue_capacities(&self) -> Vec<usize> {
        self.lock().staged.iter().map(VecDeque::capacity).collect()
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
    pub fn next_batch(&self, batch_max: usize) -> Option<Batch> {
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
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A job whose report nobody reads: the queue never reports.
    fn pending(id: u64, bits: u64) -> Pending {
        Pending {
            id,
            job: Job::Mul { a: Nat::power_of_two(bits.saturating_sub(1)), b: Nat::one() },
            submitted_at: Instant::now(),
            deadline_at: None,
            reporter: mpsc::channel().0,
        }
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
        let q = JobQueue::new(8, 1 << 20).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), 1 << 20);
        assert_eq!(q.bucket_queue_capacities().len(), 15, "buckets 64 ..= 2^20");
        // A maximum between powers of two admits up to its bucket's ceiling.
        let q = JobQueue::new(8, 5000).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), 8192);
        let q = JobQueue::new(8, 64).expect("one bucket is enough");
        assert_eq!(q.max_operand_bits(), 64);
    }

    #[test]
    fn degenerate_configs_are_typed_construction_errors() {
        // Regression: pre-fix, both constructions returned a live queue
        // (capacity 0 rejected everything; a maximum below the smallest
        // bucket produced an inverted single-bucket ladder).
        assert_eq!(JobQueue::new(0, 4096).err(), Some(ConfigError::ZeroCapacity));
        for max_operand_bits in [0, 63] {
            assert_eq!(
                JobQueue::new(4, max_operand_bits).err(),
                Some(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits })
            );
        }
    }

    #[test]
    fn saturated_ceiling_ladder_terminates_and_dedups() {
        // A range reaching u64::MAX ends in the one saturated top bucket:
        // distinct powers of two 64..2^63 plus u64::MAX, 59 buckets.
        let q = JobQueue::new(4, u64::MAX).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), u64::MAX);
        assert_eq!(q.bucket_queue_capacities().len(), 59);
    }

    #[test]
    fn batches_carry_formation_spans() {
        let q = JobQueue::new(4, 4096).expect("valid queue config");
        q.push(pending(0, 100)).expect("capacity available");
        let before = Instant::now();
        let b = q.try_next_batch(4).expect("work queued");
        assert!(b.formed_at >= before);
        // form_ns is a measured span, not a sentinel; it can be 0 on a
        // coarse clock but never exceeds the enclosing interval.
        assert!(b.form_ns <= apc_trace::span::duration_ns(before.elapsed()) + 1_000_000);
    }

    #[test]
    fn empty_tick_yields_no_batch() {
        let q = JobQueue::new(4, 4096).expect("valid queue config");
        assert!(q.try_next_batch(8).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_bound_is_enforced_without_blocking() {
        let q = JobQueue::new(3, 4096).expect("valid queue config");
        for id in 0..3 {
            assert!(q.push(pending(id, 100)).is_ok());
        }
        assert_eq!(q.push(pending(3, 100)), Err(SubmitError::QueueFull { capacity: 3 }));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn batches_never_mix_buckets() {
        // The bucket holding the oldest job goes first, whatever its
        // width; each batch takes its bucket's jobs in submission order.
        let q = JobQueue::new(8, 4096).expect("valid queue config");
        for (id, bits) in [(0u64, 3000u64), (1, 60), (2, 50), (3, 40), (4, 2500)] {
            q.push(pending(id, bits)).expect("capacity available");
        }
        let b = q.try_next_batch(8).expect("work queued");
        assert_eq!(b.bucket_bits, 4096);
        assert_eq!(b.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 4]);
        let b2 = q.try_next_batch(2).expect("small jobs left");
        assert_eq!(b2.bucket_bits, 64);
        assert_eq!(b2.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 2]);
        let b3 = q.try_next_batch(8).expect("one small job left");
        assert_eq!(b3.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![3]);
        assert!(q.try_next_batch(8).is_none());
    }

    #[test]
    fn steady_state_at_capacity_never_reallocates_bucket_queues() {
        // The Lru full-capacity-reservation idiom, applied to the
        // queue's staging deques: churn the queue at its configured
        // capacity and assert no deque ever regrows.
        let capacity = 64;
        let q = JobQueue::new(capacity, 1 << 16).expect("valid config");
        let reserved = q.bucket_queue_capacities();
        assert!(reserved.iter().all(|&c| c >= capacity), "{reserved:?}");
        let mut id = 0u64;
        for _round in 0..10 {
            // Fill to capacity across several buckets, then drain fully.
            loop {
                let p = pending(id, 60 + (id % 4) * 2000);
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
        let q = JobQueue::new(4, 4096).expect("valid queue config");
        q.push(pending(0, 100)).expect("capacity available");
        q.begin_shutdown();
        assert_eq!(q.push(pending(1, 100)), Err(SubmitError::Shutdown));
        // The queued job is still drainable...
        assert!(q.next_batch(4).is_some());
        // ...and once empty, next_batch signals termination.
        assert!(q.next_batch(4).is_none());
    }

    #[test]
    fn idle_workers_wake_for_each_job_and_for_shutdown() {
        // A push that never notifies, or a shutdown that wakes nobody,
        // leaves a worker blocked forever: the watchdog turns that into
        // a failure instead of a hang.
        const WATCHDOG: Duration = Duration::from_secs(20);
        let q = Arc::new(JobQueue::new(8, 4096).expect("valid queue config"));
        let wait_for_idle = |n: usize| {
            let deadline = Instant::now() + WATCHDOG;
            while q.idle() < n {
                assert!(Instant::now() < deadline, "workers never reached the wait");
                thread::yield_now();
            }
        };
        let (taken_tx, taken_rx) = mpsc::channel();
        let (exit_tx, exit_rx) = mpsc::channel();
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (q, taken_tx, exit_tx) = (Arc::clone(&q), taken_tx.clone(), exit_tx.clone());
                thread::spawn(move || {
                    while let Some(batch) = q.next_batch(1) {
                        let _ = taken_tx.send(batch.jobs.len());
                    }
                    let _ = exit_tx.send(());
                })
            })
            .collect();
        wait_for_idle(3);
        for id in 0..3 {
            q.push(pending(id, 100)).expect("capacity available");
        }
        for _ in 0..3 {
            let taken = taken_rx.recv_timeout(WATCHDOG);
            assert_eq!(taken, Ok(1), "an idle worker missed the wakeup for a job");
        }
        wait_for_idle(3);
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
    fn last_worker_exit_drops_staged_jobs_and_refuses_new_ones() {
        let q = Arc::new(JobQueue::new(4, 4096).expect("valid queue config"));
        let slots = [q.add_worker(), q.add_worker()];
        let (reporter, reports) = mpsc::channel();
        q.push(Pending { reporter, ..pending(0, 100) }).expect("capacity available");
        let [first, second] = slots;
        drop(first);
        assert!(!q.is_shutdown(), "one worker is still live");
        drop(second);
        assert!(q.is_shutdown());
        assert_eq!(q.depth(), 0);
        assert!(reports.recv().is_err(), "the staged job's reporter is dropped");
        assert_eq!(q.push(pending(1, 100)), Err(SubmitError::Shutdown));
    }

    #[test]
    fn concurrent_submitters_conserve_every_admitted_job() {
        // The conservation law: with submitters racing the drain and a
        // shutdown landing mid-stream, every Ok(push) is either in a
        // formed batch or... there is no other place. IDs are unique, so
        // a set equality check catches both loss and duplication.
        let q = Arc::new(JobQueue::new(4096, 1 << 16).expect("valid config"));
        let threads = 8u64;
        let per_thread = 200u64;
        let admitted = Arc::new(Mutex::new(Vec::<u64>::new()));
        let drained = thread::scope(|s| {
            let mut submitters = Vec::new();
            for t in 0..threads {
                let q = Arc::clone(&q);
                let admitted = Arc::clone(&admitted);
                submitters.push(s.spawn(move || {
                    let mut mine = Vec::new();
                    for i in 0..per_thread {
                        let id = t * per_thread + i;
                        if q.push(pending(id, 60 + (id % 5) * 900)).is_ok() {
                            mine.push(id);
                        }
                    }
                    admitted
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
            while let Some(b) = q.next_batch(8) {
                drained.extend(b.jobs.iter().map(|p| p.id));
            }
            drained
        });
        let mut admitted = admitted.lock().unwrap_or_else(PoisonError::into_inner).clone();
        admitted.sort_unstable();
        let mut drained = drained;
        drained.sort_unstable();
        // Every admitted job drained exactly once; jobs racing the
        // shutdown were either admitted (and so drained) or rejected.
        assert_eq!(admitted, drained);
        assert_eq!(q.depth(), 0);
    }
}
