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
//! # One admission channel, lock-free on the submit side
//!
//! The queue is split into a submitter half ([`JobQueue`]) and a
//! consumer half ([`BatchSource`]):
//!
//! - [`JobQueue::push`] resolves the bucket, reserves capacity on a
//!   single shared [`AtomicUsize`], and sends an [`Admission::Job`] on
//!   the one `mpsc` channel. Submitters never take a lock.
//! - The workers share the [`BatchSource`] behind a mutex: the channel's
//!   receiver plus per-bucket staging deques it drains into. The worker
//!   holding the lock forms its own batch: the bucket whose front job
//!   was submitted first, up to `batch_max` jobs from its front. A batch
//!   is formed only when a worker is free to run it, so it grows with
//!   the backlog.
//!
//! The capacity bound and the shutdown flag use a SeqCst reserve /
//! re-check protocol (Dekker-style store-load fencing): `push` increments
//! `queued` *then* re-loads `shutdown`, while [`JobQueue::begin_shutdown`]
//! stores `shutdown` *before* the drain reads `queued`. In the SeqCst
//! total order one side always observes the other, so a job is either
//! rejected with [`SubmitError::Shutdown`] or visible to the drain —
//! never silently leaked between the two.
//!
//! Once shutdown has begun, every reservation ends in exactly one
//! message: the job itself, or an [`Admission::Wake`] when it is rolled
//! back (QueueFull or Shutdown). `begin_shutdown` sends a `Wake` too.
//! So the consumer can block in a plain `recv()` whenever the drain is
//! not finished: whatever it is waiting for is already in the channel or
//! about to be. Rollbacks before shutdown send nothing, because no
//! consumer waits on them (see `JobQueue::roll_back`). No wait is timed
//! (lint rule L7 enforces this for the whole crate).

use crate::error::{ConfigError, SubmitError};
use crate::job::{Job, JobReport};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
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

/// One message on the admission channel.
#[derive(Debug)]
pub(crate) enum Admission {
    /// An admitted job and the index of its bucket.
    Job(usize, Pending),
    /// A state change with no job attached (a rolled-back reservation or
    /// shutdown): the consumer rechecks whether the drain is finished.
    Wake,
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
    /// Nanoseconds spent draining and forming the batch.
    pub form_ns: u64,
}

/// The submitter half: bucket resolution, capacity reservation, and the
/// admission channel. Shared by every [`crate::ServeHandle`] clone;
/// `push` is safe from any number of threads concurrently.
pub(crate) struct JobQueue {
    capacity: usize,
    /// The largest bucket's ceiling: the admission bound on operand width.
    max_operand_bits: u64,
    sender: Sender<Admission>,
    /// Jobs reserved but not yet batched (in flight + channel + staged).
    queued: AtomicUsize,
    shutdown: AtomicBool,
}

impl JobQueue {
    /// Builds the queue and its consumer half with one staging deque per
    /// [`operand_bucket`] from the 64-bit bucket up to the one holding
    /// `max_operand_bits`; that bucket's ceiling is the admission bound.
    /// Every staging deque reserves the full `capacity` (total-queue
    /// bound) up front, mirroring `Lru::new`: the queued total can never
    /// exceed `capacity`, so no bucket can either, and steady state never
    /// reallocates.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would reject every submission, and a maximum
    /// below the 64-bit smallest bucket spans no bucket at all.
    pub fn with_source(
        capacity: usize,
        max_operand_bits: u64,
    ) -> Result<(Arc<JobQueue>, BatchSource), ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if max_operand_bits < MIN_BUCKET_BITS {
            return Err(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits });
        }
        let (max_operand_bits, top) = operand_bucket(max_operand_bits);
        let staged = (0..=top).map(|_| VecDeque::with_capacity(capacity)).collect();
        let (sender, receiver) = std::sync::mpsc::channel();
        let queue = Arc::new(JobQueue {
            capacity,
            max_operand_bits,
            sender,
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let source = BatchSource { queue: Arc::clone(&queue), receiver, staged };
        Ok((queue, source))
    }

    /// The admission ceiling: the largest bucket's ceiling.
    pub fn max_operand_bits(&self) -> u64 {
        self.max_operand_bits
    }

    /// Admits one job or explains why not. Never blocks, never drops,
    /// never locks: reserve capacity, re-check shutdown, send.
    pub fn push(&self, pending: Pending) -> Result<usize, SubmitError> {
        let bits = pending.job.operand_bits();
        if bits > self.max_operand_bits {
            return Err(SubmitError::OversizedOperand { bits, max_bits: self.max_operand_bits });
        }
        let (_, idx) = operand_bucket(bits);
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(SubmitError::Shutdown);
        }
        // Reserve one slot; concurrent over-reservers each roll their own
        // back, so `queued` can transiently overshoot but never admits
        // past `capacity`.
        let prev = self.queued.fetch_add(1, Ordering::SeqCst);
        if prev >= self.capacity {
            self.roll_back();
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        // Dekker re-check: `begin_shutdown` stored the flag before the
        // drain reads `queued`, and we incremented `queued` before this
        // load. Under SeqCst one of the two orders holds, so either we
        // see the flag here (and roll back) or the drain sees our
        // reservation (and waits for the send below).
        if self.shutdown.load(Ordering::SeqCst) {
            self.roll_back();
            return Err(SubmitError::Shutdown);
        }
        if self.sender.send(Admission::Job(idx, pending)).is_err() {
            // Receiver gone: every worker died (a panic unwound the
            // BatchSource). Nothing can execute this job any more.
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Err(SubmitError::Shutdown);
        }
        Ok(prev + 1)
    }

    /// Releases a reservation that will send no job. A consumer blocks
    /// on a live reservation only after loading `shutdown == true` and
    /// then seeing the reservation in `queued`; both loads precede this
    /// `fetch_sub` in the SeqCst order, so the `shutdown` load below sees
    /// `true` and the `Wake` wakes it to recheck. Before shutdown nobody
    /// waits on a rollback, and sending nothing keeps a QueueFull flood
    /// from piling messages into the channel while every worker is busy.
    fn roll_back(&self) {
        self.queued.fetch_sub(1, Ordering::SeqCst);
        if self.shutdown.load(Ordering::SeqCst) {
            let _ = self.sender.send(Admission::Wake);
        }
    }

    /// Current queued (not yet dispatched) job count.
    pub fn depth(&self) -> usize {
        self.queued.load(Ordering::SeqCst)
    }

    /// Flags shutdown: no new admissions; the workers drain what is
    /// already queued.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = self.sender.send(Admission::Wake);
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// The consumer half, shared by the workers behind a mutex: whichever
/// worker holds it forms the next batch.
pub(crate) struct BatchSource {
    queue: Arc<JobQueue>,
    receiver: Receiver<Admission>,
    /// Per-bucket staging deques the channel drains into, indexed by
    /// [`operand_bucket`].
    staged: Vec<VecDeque<Pending>>,
}

impl BatchSource {
    fn stage(&mut self, admission: Admission) {
        if let Admission::Job(idx, pending) = admission {
            self.staged[idx].push_back(pending);
        }
    }

    /// Blocks until a batch can be formed, and forms it. Returns `None`
    /// only when the queue is shut down **and** fully drained — the
    /// worker's termination signal.
    pub fn next_batch(&mut self, batch_max: usize) -> Option<Batch> {
        loop {
            if let Some(batch) = self.pop_batch(batch_max) {
                return Some(batch);
            }
            // Termination: shutdown flagged and no reservation is live
            // anywhere (in-flight push, channel, or staging — `queued`
            // counts all three until batch formation releases it).
            if self.queue.shutdown.load(Ordering::SeqCst)
                && self.queue.queued.load(Ordering::SeqCst) == 0
            {
                return None;
            }
            // Not finished, so a message is coming: the pending shutdown
            // `Wake`, or the job or `Wake` of a live reservation. The
            // queue holds the sender, so the channel never disconnects.
            match self.receiver.recv() {
                Ok(admission) => self.stage(admission),
                Err(_) => return None,
            }
        }
    }

    /// Non-blocking batch formation: `None` when nothing is staged or in
    /// the channel (the empty tick — scheduling work only exists when
    /// jobs do).
    #[cfg(test)]
    pub fn try_next_batch(&mut self, batch_max: usize) -> Option<Batch> {
        self.pop_batch(batch_max)
    }

    fn pop_batch(&mut self, batch_max: usize) -> Option<Batch> {
        let form_started = Instant::now();
        while let Ok(admission) = self.receiver.try_recv() {
            self.stage(admission);
        }
        // Submission order across buckets: the bucket whose front job is
        // oldest runs next, as up to `batch_max` jobs from its front.
        let (_, bucket) = self
            .staged
            .iter_mut()
            .filter_map(|dq| Some((dq.front()?.id, dq)))
            .min_by_key(|(id, _)| *id)?;
        let jobs: Vec<Pending> = bucket.drain(..batch_max.clamp(1, bucket.len())).collect();
        let bucket_bits = operand_bucket(jobs.first()?.job.operand_bits()).0;
        // Release the capacity reservations only now: depth() keeps
        // counting staged jobs as queued until they leave in a batch.
        self.queue.queued.fetch_sub(jobs.len(), Ordering::SeqCst);
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

    /// Reserved capacity of each staging deque (for the reservation
    /// regression test).
    #[cfg(test)]
    fn bucket_queue_capacities(&self) -> Vec<usize> {
        self.staged.iter().map(VecDeque::capacity).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use std::sync::{mpsc, Mutex, PoisonError};
    use std::thread;

    fn pending(id: u64, bits: u64) -> (Pending, mpsc::Receiver<JobReport>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (
            Pending {
                id,
                job: Job::Mul { a: Nat::power_of_two(bits.saturating_sub(1)), b: Nat::one() },
                submitted_at: now,
                deadline_at: None,
                reporter: tx,
            },
            rx,
        )
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
        let (q, src) = JobQueue::with_source(8, 1 << 20).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), 1 << 20);
        assert_eq!(src.staged.len(), 15, "buckets 64 ..= 2^20");
        // A maximum between powers of two admits up to its bucket's ceiling.
        let (q, _src) = JobQueue::with_source(8, 5000).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), 8192);
        let (q, _src) = JobQueue::with_source(8, 64).expect("one bucket is enough");
        assert_eq!(q.max_operand_bits(), 64);
    }

    #[test]
    fn degenerate_configs_are_typed_construction_errors() {
        // Regression: pre-fix, both constructions returned a live queue
        // (capacity 0 rejected everything; a maximum below the smallest
        // bucket produced an inverted single-bucket ladder).
        assert_eq!(
            JobQueue::with_source(0, 4096).err(),
            Some(ConfigError::ZeroCapacity)
        );
        for max_operand_bits in [0, 63] {
            assert_eq!(
                JobQueue::with_source(4, max_operand_bits).err(),
                Some(ConfigError::MaxOperandBitsBelowFloor { max_operand_bits })
            );
        }
    }

    #[test]
    fn saturated_ceiling_ladder_terminates_and_dedups() {
        // A range reaching u64::MAX ends in the one saturated top bucket:
        // distinct powers of two 64..2^63 plus u64::MAX, 59 buckets.
        let (q, src) = JobQueue::with_source(4, u64::MAX).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), u64::MAX);
        assert_eq!(src.staged.len(), 59);
    }

    #[test]
    fn batches_carry_formation_spans() {
        let (q, mut src) = JobQueue::with_source(4, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        let before = Instant::now();
        let b = src.try_next_batch(4).expect("work queued");
        assert!(b.formed_at >= before);
        // form_ns is a measured span, not a sentinel; it can be 0 on a
        // coarse clock but never exceeds the enclosing interval.
        assert!(b.form_ns <= apc_trace::span::duration_ns(before.elapsed()) + 1_000_000);
    }

    #[test]
    fn empty_tick_yields_no_batch() {
        let (q, mut src) = JobQueue::with_source(4, 4096).expect("valid queue config");
        assert!(src.try_next_batch(8).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_bound_is_enforced_without_blocking() {
        let (q, _src) = JobQueue::with_source(3, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for id in 0..3 {
            let (p, rx) = pending(id, 100);
            assert!(q.push(p).is_ok());
            rxs.push(rx);
        }
        let (p, _rx) = pending(3, 100);
        assert_eq!(q.push(p), Err(SubmitError::QueueFull { capacity: 3 }));
        assert_eq!(q.depth(), 3);
    }

    #[test]
    fn rollbacks_send_a_wake_only_after_shutdown() {
        // A QueueFull flood before shutdown must leave nothing behind in
        // the channel, or a pinned worker lets it grow without bound.
        let (q, src) = JobQueue::with_source(2, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for id in 0..1000 {
            let (p, rx) = pending(id, 100);
            let _ = q.push(p);
            rxs.push(rx);
        }
        assert_eq!(src.receiver.try_iter().count(), 2, "only the two admitted jobs");
        q.begin_shutdown();
        assert!(matches!(src.receiver.try_iter().collect::<Vec<_>>()[..], [Admission::Wake]));
    }

    #[test]
    fn batches_never_mix_buckets() {
        // The bucket holding the oldest job goes first, whatever its
        // width; each batch takes its bucket's jobs in submission order.
        let (q, mut src) = JobQueue::with_source(8, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for (id, bits) in [(0u64, 3000u64), (1, 60), (2, 50), (3, 40), (4, 2500)] {
            let (p, rx) = pending(id, bits);
            q.push(p).expect("capacity available");
            rxs.push(rx);
        }
        let b = src.try_next_batch(8).expect("work queued");
        assert_eq!(b.bucket_bits, 4096);
        assert_eq!(b.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 4]);
        let b2 = src.try_next_batch(2).expect("small jobs left");
        assert_eq!(b2.bucket_bits, 64);
        assert_eq!(b2.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![1, 2]);
        let b3 = src.try_next_batch(8).expect("one small job left");
        assert_eq!(b3.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![3]);
        assert!(src.try_next_batch(8).is_none());
    }

    #[test]
    fn steady_state_at_capacity_never_reallocates_bucket_queues() {
        // The Lru full-capacity-reservation idiom, applied to the
        // batch source's staging deques: churn the queue at its configured
        // capacity and assert no deque ever regrows.
        let capacity = 64;
        let (q, mut src) = JobQueue::with_source(capacity, 1 << 16).expect("valid config");
        let reserved = src.bucket_queue_capacities();
        assert!(reserved.iter().all(|&c| c >= capacity), "{reserved:?}");
        let mut id = 0u64;
        let mut rxs = Vec::new();
        for _round in 0..10 {
            // Fill to capacity across several buckets, then drain fully.
            loop {
                let (p, rx) = pending(id, 60 + (id % 4) * 2000);
                id += 1;
                match q.push(p) {
                    Ok(_) => rxs.push(rx),
                    Err(SubmitError::QueueFull { .. }) => break,
                    Err(e) => unreachable!("unexpected rejection: {e}"),
                }
            }
            while src.try_next_batch(7).is_some() {}
        }
        assert_eq!(
            src.bucket_queue_capacities(),
            reserved,
            "bucket queues reallocated during steady state"
        );
    }

    #[test]
    fn shutdown_rejects_new_but_drains_old() {
        let (q, mut src) = JobQueue::with_source(4, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        q.begin_shutdown();
        let (p2, _rx2) = pending(1, 100);
        assert_eq!(q.push(p2), Err(SubmitError::Shutdown));
        // The queued job is still drainable...
        assert!(src.next_batch(4).is_some());
        // ...and once empty, next_batch signals termination.
        assert!(src.next_batch(4).is_none());
    }

    #[test]
    fn concurrent_submitters_conserve_every_admitted_job() {
        // The MPSC conservation law: with submitters racing the drain and
        // a shutdown landing mid-stream, every Ok(push) is either in a
        // formed batch or... there is no other place. IDs are unique, so
        // a set equality check catches both loss and duplication.
        let (q, mut src) = JobQueue::with_source(4096, 1 << 16).expect("valid config");
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
                        let (p, _rx) = pending(id, 60 + (id % 5) * 900);
                        if q.push(p).is_ok() {
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
            while let Some(b) = src.next_batch(8) {
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
