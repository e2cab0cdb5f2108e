//! Admission and the FIFO hand-off of the shard's devices.
//!
//! Every job runs on its caller's thread, on a device it holds alone.
//! The shard's `Device`s sit in a free list; a caller that finds one free
//! takes it at admission, and a caller that finds none joins one FIFO of
//! waiters. Dropping a [`DeviceClaim`] hands the device straight to the
//! oldest waiter and wakes only that one, through the waiter's own
//! condvar; with nobody waiting the device goes back to the free list.
//! There is no worker thread, no staging and no batch: a host batch of
//! analytic `Device` calls amortizes nothing, since each job charges its
//! own cycles (DESIGN.md §"Serving layer").
//!
//! # One mutex
//!
//! The free list, the waiters and the shutdown flag sit behind one
//! `Mutex`, so a check and the state change it guards are one step:
//!
//! - [`JobQueue::admit`] checks width, shutdown and capacity, then either
//!   takes a free device or queues a [`Ticket`]. A device is free only
//!   while nobody waits, so no caller overtakes a waiter.
//! - [`Ticket::wait`] parks on the waiter's condvar until a release has
//!   granted it a device.
//! - Dropping a [`DeviceClaim`] (also while a panic in the job on it
//!   unwinds) grants the device to the oldest waiter, or frees it.
//! - [`JobQueue::begin_shutdown`] refuses new callers; the waiters
//!   admitted before it are still served by the releases.
//!   [`JobQueue::wait_devices_home`] then waits until every device is
//!   back in the free list.
//!
//! No wait is timed (`clippy.toml` disallows the timed waits).

use crate::error::{ConfigError, SubmitError};
use cambricon_p::Device;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Smallest bucket ceiling: operands of up to 64 bits share the first
/// bucket.
pub(crate) const MIN_BUCKET_BITS: u64 = 64;

/// The bitwidth bucket of an operand of `operand_bits` bits, as
/// `(ceiling, index)`. The ceiling is the smallest power of two at or
/// above the width, at least 64; widths above 2^63 share one saturated
/// bucket with ceiling `u64::MAX`. The index counts buckets upward from
/// the 64-bit one (index 0). Every [`crate::JobReport`] names its job's
/// bucket ceiling, the admission bound is the ceiling of the largest
/// bucket, and apc-net's router hashes the ceiling, so every job of one
/// width class keys to one ring owner.
pub fn operand_bucket(operand_bits: u64) -> (u64, usize) {
    let floor_log2 = MIN_BUCKET_BITS.trailing_zeros();
    // ceil(log2(width)): 64 for every width above 2^63.
    let log2 = (u64::BITS - operand_bits.saturating_sub(1).leading_zeros()).max(floor_log2);
    let ceiling = 1u64.checked_shl(log2).unwrap_or(u64::MAX);
    (ceiling, (log2 - floor_log2) as usize)
}

/// One caller waiting for a device.
#[derive(Default)]
struct Waiter {
    /// Set once, under the queue lock, by the release that grants it.
    device: OnceLock<usize>,
    /// Notified after the grant; only this waiter parks on it.
    granted: Condvar,
}

/// Everything the queue lock guards.
struct State {
    /// Indices into [`JobQueue::devices`] of the devices no job holds.
    /// Non-empty only while `waiters` is empty.
    free: Vec<usize>,
    /// Callers waiting for a device, oldest first.
    waiters: VecDeque<Arc<Waiter>>,
    shutdown: bool,
}

/// How [`JobQueue::admit`] let a caller in.
pub(crate) enum Admission<'q> {
    /// A device was free: the caller holds it now.
    Free(DeviceClaim<'q>),
    /// Every device was out: the caller is the last of this many waiters
    /// and gets a device from [`Ticket::wait`].
    Queued(usize, Ticket<'q>),
}

/// The admission gate and device free list of one service.
pub(crate) struct JobQueue {
    /// Most callers that may wait for a device at once.
    capacity: usize,
    /// The largest bucket's ceiling: the admission bound on operand width.
    max_operand_bits: u64,
    /// The shard's devices; [`State::free`] lists those no job holds.
    devices: Box<[Device]>,
    state: Mutex<State>,
    /// Notified when the last device comes home after shutdown.
    home: Condvar,
}

impl JobQueue {
    /// Builds the queue over `devices`, every one free, admitting operands
    /// up to the ceiling of `max_operand_bits`'s bucket and at most
    /// `capacity` waiting callers.
    ///
    /// Degenerate configurations are typed construction errors: a
    /// zero-capacity queue would refuse every caller that finds no free
    /// device, and a maximum below the 64-bit smallest bucket spans no
    /// bucket at all.
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
        let free = (0..devices.len()).rev().collect();
        Ok(JobQueue {
            capacity,
            max_operand_bits: operand_bucket(max_operand_bits).0,
            devices: devices.into_boxed_slice(),
            state: Mutex::new(State { free, waiters: VecDeque::new(), shutdown: false }),
            home: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The admission ceiling: the largest bucket's ceiling.
    pub fn max_operand_bits(&self) -> u64 {
        self.max_operand_bits
    }

    /// Admits one caller whose widest operand has `operand_bits` bits,
    /// or explains why not. Never blocks on anything but the queue lock.
    pub fn admit(&self, operand_bits: u64) -> Result<Admission<'_>, SubmitError> {
        if operand_bits > self.max_operand_bits {
            return Err(SubmitError::OversizedOperand {
                bits: operand_bits,
                max_bits: self.max_operand_bits,
            });
        }
        let mut state = self.lock();
        if state.shutdown {
            return Err(SubmitError::Shutdown);
        }
        if let Some(index) = state.free.pop() {
            debug_assert!(state.waiters.is_empty(), "a device was free while callers waited");
            return Ok(Admission::Free(DeviceClaim { queue: self, index }));
        }
        if state.waiters.len() >= self.capacity {
            return Err(SubmitError::QueueFull { capacity: self.capacity });
        }
        let waiter = Arc::new(Waiter::default());
        state.waiters.push_back(Arc::clone(&waiter));
        Ok(Admission::Queued(state.waiters.len(), Ticket { queue: self, waiter }))
    }

    /// Hands a device to the oldest waiter and wakes that waiter alone, or
    /// returns it to the free list when nobody waits; after shutdown, the
    /// last device home wakes [`JobQueue::wait_devices_home`].
    fn release(&self, index: usize) {
        let mut state = self.lock();
        if let Some(waiter) = state.waiters.pop_front() {
            // A waiter leaves the FIFO once, so its slot is still empty.
            let _ = waiter.device.set(index);
            drop(state);
            waiter.granted.notify_one();
            return;
        }
        state.free.push(index);
        let home = state.shutdown && state.free.len() == self.devices.len();
        drop(state);
        if home {
            self.home.notify_all();
        }
    }

    /// Callers waiting for a device.
    pub fn depth(&self) -> usize {
        self.lock().waiters.len()
    }

    /// Flags shutdown: no new admissions. Callers already waiting keep
    /// their place and are still handed a device.
    pub fn begin_shutdown(&self) {
        self.lock().shutdown = true;
    }

    /// After [`JobQueue::begin_shutdown`], blocks until every device is
    /// back in the free list: every admitted job has run, and none runs
    /// any more.
    pub fn wait_devices_home(&self) {
        let mut state = self.lock();
        while state.free.len() < self.devices.len() {
            state = self.home.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether shutdown has begun.
    pub fn is_shutdown(&self) -> bool {
        self.lock().shutdown
    }
}

/// A caller's place in the FIFO of waiters. A release grants it a device
/// whether or not it waits yet, so every ticket must be waited on: one
/// dropped unwaited would strand the device handed to it.
pub(crate) struct Ticket<'q> {
    queue: &'q JobQueue,
    waiter: Arc<Waiter>,
}

impl<'q> Ticket<'q> {
    /// Blocks until a release grants this waiter a device, and holds it.
    pub fn wait(self) -> DeviceClaim<'q> {
        let mut state = self.queue.lock();
        loop {
            if let Some(&index) = self.waiter.device.get() {
                return DeviceClaim { queue: self.queue, index };
            }
            state = self.waiter.granted.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One device held by one caller. Dropping the claim hands the device on,
/// also while a panic in the job on it unwinds, so no waiter waits on a
/// device that nothing will return.
pub(crate) struct DeviceClaim<'q> {
    queue: &'q JobQueue,
    index: usize,
}

impl DeviceClaim<'_> {
    /// The device's index in the shard (reported as
    /// [`crate::JobReport::worker`]).
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{self, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// A queue over `devices` default devices.
    fn queue_with(capacity: usize, max_operand_bits: u64, devices: usize) -> JobQueue {
        let devices = (0..devices).map(|_| Device::new_default()).collect();
        JobQueue::new(capacity, max_operand_bits, devices).expect("valid queue config")
    }

    /// A queue over one device.
    fn queue(capacity: usize) -> JobQueue {
        queue_with(capacity, 4096, 1)
    }

    /// Takes a free device, failing if none is.
    fn take(q: &JobQueue) -> DeviceClaim<'_> {
        match q.admit(100) {
            Ok(Admission::Free(claim)) => claim,
            _ => panic!("a free device was expected"),
        }
    }

    /// Queues a waiter, failing if a device was free.
    fn queue_up(q: &JobQueue) -> Ticket<'_> {
        match q.admit(100) {
            Ok(Admission::Queued(_, ticket)) => ticket,
            _ => panic!("every device was expected out"),
        }
    }

    /// Devices in the free list.
    fn free(q: &JobQueue) -> usize {
        q.lock().free.len()
    }

    /// The device a release granted `ticket`, if any yet.
    fn granted(ticket: &Ticket<'_>) -> Option<usize> {
        ticket.waiter.device.get().copied()
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
    fn admission_ceiling_is_the_top_bucket_ceiling() {
        assert_eq!(queue_with(8, 1 << 20, 1).max_operand_bits(), 1 << 20);
        // A maximum between powers of two admits up to its bucket's ceiling.
        assert_eq!(queue_with(8, 5000, 1).max_operand_bits(), 8192);
        assert_eq!(queue_with(8, 64, 1).max_operand_bits(), 64);
        // A range reaching u64::MAX ends in the one saturated top bucket.
        assert_eq!(queue_with(4, u64::MAX, 1).max_operand_bits(), u64::MAX);
        let q = queue_with(4, 5000, 1);
        assert!(matches!(
            q.admit(8193),
            Err(SubmitError::OversizedOperand { bits: 8193, max_bits: 8192 })
        ));
        assert!(matches!(q.admit(8192), Ok(Admission::Free(_))));
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
    fn waiters_count_against_capacity_without_blocking() {
        let q = queue(3);
        let claim = take(&q);
        let tickets: Vec<_> = (1..=3)
            .map(|depth| match q.admit(100) {
                Ok(Admission::Queued(d, ticket)) => {
                    assert_eq!(d, depth);
                    ticket
                }
                _ => panic!("every device is out"),
            })
            .collect();
        assert!(matches!(q.admit(100), Err(SubmitError::QueueFull { capacity: 3 })));
        assert_eq!(q.depth(), 3);
        drop(claim);
        for ticket in tickets {
            drop(ticket.wait());
        }
        assert_eq!((q.depth(), free(&q)), (0, 1));
    }

    #[test]
    fn releases_grant_devices_in_admission_order() {
        let q = queue_with(8, 4096, 2);
        let (first, second) = (take(&q), take(&q));
        assert_ne!(first.index(), second.index());
        let tickets: Vec<_> = (0..3).map(|_| queue_up(&q)).collect();
        // The release grants the oldest waiter, whether or not it waits yet.
        let index = first.index();
        drop(first);
        assert_eq!(granted(&tickets[0]), Some(index));
        assert_eq!(granted(&tickets[1]), None);
        let index = second.index();
        drop(second);
        assert_eq!(granted(&tickets[1]), Some(index));
        assert_eq!(free(&q), 0, "a device is never free while a caller waits");
        let mut tickets = tickets.into_iter();
        let held = tickets.next().map(Ticket::wait);
        drop(held);
        let rest: Vec<_> = tickets.collect();
        assert!(rest.iter().all(|t| granted(t).is_some()));
        for ticket in rest {
            drop(ticket.wait());
        }
        assert_eq!(free(&q), 2);
    }

    #[test]
    fn a_panicking_job_hands_its_device_to_the_next_waiter() {
        let q = queue(4);
        let ticket = {
            let claim = take(&q);
            let ticket = queue_up(&q);
            let unwound = panic::catch_unwind(AssertUnwindSafe(move || {
                let _claim = claim;
                panic!("a job panics while its device is claimed");
            }));
            assert!(unwound.is_err());
            ticket
        };
        assert!(granted(&ticket).is_some(), "the unwinding claim handed its device on");
        drop(ticket.wait());
        assert_eq!(free(&q), 1);
    }

    #[test]
    fn shutdown_refuses_new_callers_but_serves_admitted_waiters() {
        let q = queue(4);
        let claim = take(&q);
        let ticket = queue_up(&q);
        q.begin_shutdown();
        assert!(q.is_shutdown());
        assert!(matches!(q.admit(100), Err(SubmitError::Shutdown)));
        drop(claim);
        drop(ticket.wait());
        q.wait_devices_home();
        assert_eq!(free(&q), 1);
    }

    #[test]
    #[expect(
        clippy::disallowed_methods,
        reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
    )]
    fn shutdown_waits_for_devices_claimed_by_callers() {
        const WATCHDOG: Duration = Duration::from_secs(20);
        let q = Arc::new(queue(4));
        let claim = take(&q);
        q.begin_shutdown();
        let (home_tx, home_rx) = mpsc::channel();
        let waiter = {
            let q = Arc::clone(&q);
            thread::spawn(move || {
                q.wait_devices_home();
                let _ = home_tx.send(());
            })
        };
        assert!(home_rx.try_recv().is_err(), "the device is still claimed");
        drop(claim);
        assert_eq!(home_rx.recv_timeout(WATCHDOG), Ok(()), "the release missed the shutdown");
        waiter.join().expect("waiter exits cleanly");
    }

    #[test]
    fn concurrent_callers_hand_every_device_home() {
        // Callers race admissions and hand-offs: every one of them holds a
        // device exactly once, and every device is home at the end.
        let q = queue_with(64, 1 << 16, 2);
        let threads = 8u64;
        let per_thread = 200u64;
        let ran = AtomicU64::new(0);
        thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    for _ in 0..per_thread {
                        let claim = match q.admit(100) {
                            Ok(Admission::Free(claim)) => claim,
                            Ok(Admission::Queued(_, ticket)) => ticket.wait(),
                            Err(e) => panic!("6 waiters at most fit in 64: {e}"),
                        };
                        std::hint::black_box(claim.device());
                        ran.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        q.begin_shutdown();
        q.wait_devices_home();
        assert_eq!(ran.load(Ordering::Relaxed), threads * per_thread);
        assert_eq!((q.depth(), free(&q)), (0, 2));
    }
}
