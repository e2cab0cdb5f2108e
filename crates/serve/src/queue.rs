//! The bounded, bucket-partitioned submission queue.
//!
//! Jobs are partitioned into power-of-two operand-bitwidth buckets at
//! admission. Batches are always formed from a single bucket, so every
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
//!   holding the lock forms its own batch under the configured policy,
//!   so a batch is formed only when a worker is free to run it — it
//!   grows with the backlog and stays reorderable until pickup.
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
use crate::job::{Job, JobReport, JobSpec};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Strict submission order (within and across buckets).
    #[default]
    Fifo,
    /// Earliest deadline first, then priority, then submission order.
    /// Jobs without deadlines run after jobs with them.
    DeadlineAware,
}

/// One accepted job waiting for dispatch.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Monotone submission sequence number (FIFO key).
    pub id: u64,
    /// The work itself.
    pub job: Job,
    /// Scheduling metadata.
    pub spec: JobSpec,
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
    bucket_ceilings: Vec<u64>,
    sender: Sender<Admission>,
    /// Jobs reserved but not yet batched (in flight + channel + staged).
    queued: AtomicUsize,
    shutdown: AtomicBool,
}

impl JobQueue {
    /// Builds the queue and its consumer half with power-of-two bucket
    /// ceilings spanning `min_bucket_bits ..= max_operand_bits`. Every
    /// staging deque reserves the full `capacity` (total-queue bound) up
    /// front, mirroring `Lru::new`: the queued total can never exceed
    /// `capacity`, so no bucket can either, and steady state never
    /// reallocates.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would reject every submission, a zero minimum
    /// bucket has no operands, and a minimum above the maximum spans no
    /// range at all.
    pub fn with_source(
        capacity: usize,
        min_bucket_bits: u64,
        max_operand_bits: u64,
    ) -> Result<(Arc<JobQueue>, BatchSource), ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::ZeroCapacity);
        }
        if min_bucket_bits == 0 {
            return Err(ConfigError::ZeroMinBucketBits);
        }
        if min_bucket_bits > max_operand_bits {
            return Err(ConfigError::MinAboveMax { min_bucket_bits, max_operand_bits });
        }
        let mut ceilings = Vec::new();
        // `next_power_of_two` overflows (and panics in debug) above 2^63;
        // everything wider shares the one saturated top bucket.
        let mut c = if min_bucket_bits > 1 << 63 {
            u64::MAX
        } else {
            min_bucket_bits.next_power_of_two()
        };
        loop {
            ceilings.push(c);
            if c >= max_operand_bits {
                break;
            }
            let next = c.saturating_mul(2);
            if next == c {
                break; // saturated at u64::MAX: the ladder cannot grow
            }
            c = next;
        }
        // Saturation can only ever repeat the top rung; drop duplicates
        // so every bucket ceiling is distinct.
        ceilings.dedup();
        let staged = ceilings.iter().map(|_| VecDeque::with_capacity(capacity)).collect();
        let (sender, receiver) = std::sync::mpsc::channel();
        let queue = Arc::new(JobQueue {
            capacity,
            bucket_ceilings: ceilings,
            sender,
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
        });
        let source = BatchSource { queue: Arc::clone(&queue), receiver, staged };
        Ok((queue, source))
    }

    /// The admission ceiling: the largest bucket. Fails *closed*: if the
    /// ceiling ladder were ever empty, the ceiling is 0 and every job is
    /// oversized — never `u64::MAX`, which would wave everything through
    /// and defeat `OversizedOperand` admission control.
    pub fn max_operand_bits(&self) -> u64 {
        self.bucket_ceilings.last().copied().unwrap_or(0)
    }

    /// The bucket ceiling `bits` falls into.
    #[cfg(test)]
    pub fn bucket_for(&self, bits: u64) -> u64 {
        self.bucket_ceilings
            .iter()
            .copied()
            .find(|&c| bits <= c)
            .unwrap_or_else(|| self.max_operand_bits())
    }

    /// Admits one job or explains why not. Never blocks, never drops,
    /// never locks: reserve capacity, re-check shutdown, send.
    pub fn push(&self, pending: Pending) -> Result<usize, SubmitError> {
        let bits = pending.job.operand_bits();
        let Some(idx) = self.bucket_ceilings.iter().position(|&c| bits <= c) else {
            return Err(SubmitError::OversizedOperand {
                bits,
                max_bits: self.max_operand_bits(),
            });
        };
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
    /// Per-bucket staging deques the channel drains into; reordering
    /// (deadline-aware scans) happens here.
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
    pub fn next_batch(&mut self, batch_max: usize, policy: SchedPolicy) -> Option<Batch> {
        loop {
            if let Some(batch) = self.pop_batch(batch_max, policy) {
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
    pub fn try_next_batch(&mut self, batch_max: usize, policy: SchedPolicy) -> Option<Batch> {
        self.pop_batch(batch_max, policy)
    }

    fn pop_batch(&mut self, batch_max: usize, policy: SchedPolicy) -> Option<Batch> {
        let batch_max = batch_max.max(1);
        let form_started = Instant::now();
        while let Ok(admission) = self.receiver.try_recv() {
            self.stage(admission);
        }
        // Pick the bucket whose best pending job is globally most urgent.
        let mut best: Option<(usize, usize)> = None; // (bucket, index within)
        for (b, dq) in self.staged.iter().enumerate() {
            if let Some(i) = best_in_bucket(dq, policy) {
                let cand = &dq[i];
                let better = match best {
                    None => true,
                    Some((bb, bi)) => more_urgent(cand, &self.staged[bb][bi], policy),
                };
                if better {
                    best = Some((b, i));
                }
            }
        }
        let (bucket, _) = best?;
        let mut jobs = Vec::with_capacity(batch_max);
        while jobs.len() < batch_max {
            let Some(i) = best_in_bucket(&self.staged[bucket], policy) else {
                break;
            };
            if let Some(p) = self.staged[bucket].remove(i) {
                jobs.push(p);
            } else {
                break;
            }
        }
        // Release the capacity reservations only now: depth() keeps
        // counting staged jobs as queued until they leave in a batch.
        self.queue.queued.fetch_sub(jobs.len(), Ordering::SeqCst);
        let formed_at = Instant::now();
        Some(Batch {
            bucket_bits: self.queue.bucket_ceilings[bucket],
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

/// Index of the most urgent job in one bucket under `policy` (FIFO keeps
/// submission order, so the head; deadline-aware scans).
fn best_in_bucket(dq: &VecDeque<Pending>, policy: SchedPolicy) -> Option<usize> {
    match policy {
        SchedPolicy::Fifo => {
            if dq.is_empty() {
                None
            } else {
                Some(0)
            }
        }
        SchedPolicy::DeadlineAware => {
            let mut best: Option<usize> = None;
            for i in 0..dq.len() {
                let better = match best {
                    None => true,
                    Some(j) => more_urgent(&dq[i], &dq[j], policy),
                };
                if better {
                    best = Some(i);
                }
            }
            best
        }
    }
}

/// Whether `a` should run before `b` under `policy`. Total and
/// deterministic: ties fall back to submission order, so two schedulers
/// with the same queue state form the same batches.
fn more_urgent(a: &Pending, b: &Pending, policy: SchedPolicy) -> bool {
    match policy {
        SchedPolicy::Fifo => a.id < b.id,
        SchedPolicy::DeadlineAware => {
            // Earliest deadline first; no deadline sorts after any
            // deadline; then higher priority; then submission order.
            match (a.deadline_at, b.deadline_at) {
                (Some(da), Some(db)) if da != db => da < db,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                _ => {
                    if a.spec.priority != b.spec.priority {
                        a.spec.priority > b.spec.priority
                    } else {
                        a.id < b.id
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use std::sync::{mpsc, Mutex, PoisonError};
    use std::thread;
    use std::time::Duration;

    fn pending(id: u64, bits: u64) -> (Pending, mpsc::Receiver<JobReport>) {
        let (tx, rx) = mpsc::channel();
        let now = Instant::now();
        (
            Pending {
                id,
                job: Job::Mul { a: Nat::power_of_two(bits.saturating_sub(1)), b: Nat::one() },
                spec: JobSpec::default(),
                submitted_at: now,
                deadline_at: None,
                reporter: tx,
            },
            rx,
        )
    }

    #[test]
    fn bucket_ceilings_are_powers_of_two_and_cover_the_range() {
        let (q, _src) = JobQueue::with_source(8, 64, 1 << 20).expect("valid queue config");
        assert_eq!(q.bucket_for(1), 64);
        assert_eq!(q.bucket_for(64), 64);
        assert_eq!(q.bucket_for(65), 128);
        assert_eq!(q.bucket_for(1 << 20), 1 << 20);
        assert_eq!(q.max_operand_bits(), 1 << 20);
    }

    #[test]
    fn degenerate_configs_are_typed_construction_errors() {
        // Regression: pre-fix, all three constructions returned a live
        // queue (capacity 0 rejected everything; min > max produced an
        // inverted single-bucket ladder).
        assert_eq!(
            JobQueue::with_source(0, 64, 4096).err(),
            Some(ConfigError::ZeroCapacity)
        );
        assert_eq!(
            JobQueue::with_source(4, 0, 4096).err(),
            Some(ConfigError::ZeroMinBucketBits)
        );
        assert_eq!(
            JobQueue::with_source(4, 8192, 4096).err(),
            Some(ConfigError::MinAboveMax { min_bucket_bits: 8192, max_operand_bits: 4096 })
        );
    }

    #[test]
    fn saturated_ceiling_ladder_terminates_and_dedups() {
        // A ceiling range reaching u64::MAX must terminate (the pre-fix
        // loop relied on c >= max alone) and must not carry duplicate
        // saturated rungs.
        let (q, _src) =
            JobQueue::with_source(4, u64::MAX - 1, u64::MAX).expect("valid queue config");
        assert_eq!(q.max_operand_bits(), u64::MAX);
        assert_eq!(q.bucket_for(u64::MAX), u64::MAX);
        let (ladder, _src) = JobQueue::with_source(4, 64, u64::MAX).expect("valid queue config");
        // Distinct powers of two 64..2^63 plus the saturated top: 59 rungs.
        assert_eq!(ladder.max_operand_bits(), u64::MAX);
        assert_eq!(ladder.bucket_for(1 << 62), 1 << 62);
    }

    #[test]
    fn batches_carry_formation_spans() {
        let (q, mut src) = JobQueue::with_source(4, 64, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        let before = Instant::now();
        let b = src.try_next_batch(4, SchedPolicy::Fifo).expect("work queued");
        assert!(b.formed_at >= before);
        // form_ns is a measured span, not a sentinel; it can be 0 on a
        // coarse clock but never exceeds the enclosing interval.
        assert!(b.form_ns <= apc_trace::span::duration_ns(before.elapsed()) + 1_000_000);
    }

    #[test]
    fn empty_tick_yields_no_batch() {
        let (q, mut src) = JobQueue::with_source(4, 64, 4096).expect("valid queue config");
        assert!(src.try_next_batch(8, SchedPolicy::Fifo).is_none());
        assert!(src.try_next_batch(8, SchedPolicy::DeadlineAware).is_none());
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn capacity_bound_is_enforced_without_blocking() {
        let (q, _src) = JobQueue::with_source(3, 64, 4096).expect("valid queue config");
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
        let (q, src) = JobQueue::with_source(2, 64, 4096).expect("valid queue config");
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
        let (q, mut src) = JobQueue::with_source(8, 64, 4096).expect("valid queue config");
        let mut rxs = Vec::new();
        for (id, bits) in [(0u64, 60u64), (1, 3000), (2, 50), (3, 40)] {
            let (p, rx) = pending(id, bits);
            q.push(p).expect("capacity available");
            rxs.push(rx);
        }
        let b = src.try_next_batch(8, SchedPolicy::Fifo).expect("work queued");
        assert_eq!(b.bucket_bits, 64);
        assert_eq!(b.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![0, 2, 3]);
        let b2 = src.try_next_batch(8, SchedPolicy::Fifo).expect("big job left");
        assert_eq!(b2.bucket_bits, 4096);
        assert_eq!(b2.jobs.len(), 1);
        assert!(src.try_next_batch(8, SchedPolicy::Fifo).is_none());
    }

    #[test]
    fn deadline_aware_orders_by_deadline_then_priority() {
        let (q, mut src) = JobQueue::with_source(8, 64, 4096).expect("valid queue config");
        let now = Instant::now();
        let mut rxs = Vec::new();
        let mut push = |id: u64, deadline_ms: Option<u64>, priority: u8| {
            let (mut p, rx) = pending(id, 100);
            p.deadline_at = deadline_ms.map(|ms| now + Duration::from_millis(ms));
            p.spec.priority = priority;
            q.push(p).expect("capacity available");
            rxs.push(rx);
        };
        push(0, None, 0);
        push(1, Some(500), 0);
        push(2, Some(100), 0);
        push(3, None, 9);
        let b = src
            .try_next_batch(4, SchedPolicy::DeadlineAware)
            .expect("work queued");
        assert_eq!(b.jobs.iter().map(|p| p.id).collect::<Vec<_>>(), vec![2, 1, 3, 0]);
    }

    #[test]
    fn steady_state_at_capacity_never_reallocates_bucket_queues() {
        // The Lru full-capacity-reservation idiom, applied to the
        // batch source's staging deques: churn the queue at its configured
        // capacity and assert no deque ever regrows.
        let capacity = 64;
        let (q, mut src) = JobQueue::with_source(capacity, 64, 1 << 16).expect("valid config");
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
            while src.try_next_batch(7, SchedPolicy::Fifo).is_some() {}
        }
        assert_eq!(
            src.bucket_queue_capacities(),
            reserved,
            "bucket queues reallocated during steady state"
        );
    }

    #[test]
    fn shutdown_rejects_new_but_drains_old() {
        let (q, mut src) = JobQueue::with_source(4, 64, 4096).expect("valid queue config");
        let (p, _rx) = pending(0, 100);
        q.push(p).expect("capacity available");
        q.begin_shutdown();
        let (p2, _rx2) = pending(1, 100);
        assert_eq!(q.push(p2), Err(SubmitError::Shutdown));
        // The queued job is still drainable...
        assert!(src.next_batch(4, SchedPolicy::Fifo).is_some());
        // ...and once empty, next_batch signals termination.
        assert!(src.next_batch(4, SchedPolicy::Fifo).is_none());
    }

    #[test]
    fn concurrent_submitters_conserve_every_admitted_job() {
        // The MPSC conservation law: with submitters racing the drain and
        // a shutdown landing mid-stream, every Ok(push) is either in a
        // formed batch or... there is no other place. IDs are unique, so
        // a set equality check catches both loss and duplication.
        let (q, mut src) = JobQueue::with_source(4096, 64, 1 << 16).expect("valid config");
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
            while let Some(b) = src.next_batch(8, SchedPolicy::Fifo) {
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
