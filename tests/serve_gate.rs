//! Tier-1 gate for the serving layer (`apc-serve`).
//!
//! Six contracts, each load-bearing for the multi-tenant story:
//!
//! 1. **Bit-exactness** — a randomized job mix spanning several bitwidth
//!    buckets, submitted through the service, must produce results
//!    identical to running the same operators on a private `Device`.
//!    Which device runs a job, and when, may change; its value may not.
//! 2. **Admission control** — with every device out and the FIFO of
//!    waiters full, a caller is refused with
//!    [`apc_serve::SubmitError::QueueFull`]: no blocking, no panic, no
//!    silent drop.
//! 3. **Graceful shutdown** — every job admitted before shutdown gets
//!    exactly one terminal report; nothing leaks, nothing double-fires,
//!    also with submitters racing a mid-stream shutdown.
//! 4. **Metrics conservation** — under a randomized concurrent mix of
//!    submissions, rejections and completions, no job and no cycle is
//!    lost or double-counted in [`apc_serve::ServeMetrics`].
//! 5. **No lost hand-off** — a caller that finds every device out waits
//!    on its own condvar with no timeout, and only the release of a
//!    device wakes it, so a missed wake would hang that caller and
//!    shutdown forever. The hand-off tests and repeated start → race →
//!    shutdown cycles run under a watchdog that turns such a hang into a
//!    test failure; waiters are granted devices in admission order.
//! 6. **One path, one ledger** — every job runs on its caller's thread,
//!    on a device it found free or was handed. Mixed with a mid-stream
//!    shutdown, every admitted job still gets exactly one bit-exact
//!    report and is counted once, as a batch of one.

use apc_bignum::Nat;
use apc_serve::{
    Job, JobOutput, JobReport, JobSpec, ServeConfig, ServeError, ServeHandle, SubmitError,
};
use cambricon_p::Device;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long a hand-off test waits for a wake before it fails instead of
/// hanging.
const WATCHDOG: Duration = Duration::from_secs(20);

/// Polls `done` until it holds, failing at the watchdog instead of
/// spinning forever.
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WATCHDOG;
    while !done() {
        assert!(Instant::now() < deadline, "{what} did not happen within {WATCHDOG:?}");
        thread::yield_now();
    }
}

/// A multiply slow enough to hold a device while other callers queue.
fn slow_job() -> Job {
    let big = Nat::power_of_two(600_000) - Nat::from(3u64);
    Job::Mul { a: big.clone(), b: big }
}

/// Runs `job` through `serve` on a detached thread and returns the channel
/// its outcome arrives on. A caller that never wakes stays parked on its
/// own thread, so the test fails at its watchdog instead of hanging.
fn spawn_caller(serve: &ServeHandle, job: Job) -> Receiver<Result<JobReport, ServeError>> {
    let (tx, rx) = mpsc::channel();
    let serve = serve.clone();
    thread::spawn(move || {
        let _ = tx.send(serve.submit_wait(job, JobSpec::default()));
    });
    rx
}

/// Starts `slow_job` on a detached caller and waits until it holds one
/// of the service's devices.
fn pin_a_device(serve: &ServeHandle) -> Receiver<Result<JobReport, ServeError>> {
    let admitted = serve.metrics().submitted;
    let pinned = spawn_caller(serve, slow_job());
    wait_until("the slow job's admission", || serve.metrics().submitted > admitted);
    pinned
}

/// Receives one message under the watchdog.
#[expect(
    clippy::disallowed_methods,
    reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
)]
fn within_watchdog<T>(rx: &Receiver<T>, what: &str) -> T {
    rx.recv_timeout(WATCHDOG)
        .unwrap_or_else(|e| panic!("{what} never arrived ({e:?}): a hand-off was lost"))
}

/// Receives one caller's report under the watchdog.
fn report_of(caller: &Receiver<Result<JobReport, ServeError>>, what: &str) -> JobReport {
    within_watchdog(caller, what).unwrap_or_else(|e| panic!("{what}: {e}"))
}

fn random_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63; // pin the width so the job lands in its bucket
    }
    Nat::from_limbs(v)
}

/// Like [`random_nat`] but guaranteed odd (a valid Montgomery modulus).
fn random_odd_nat(rng: &mut rand::rngs::StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    v[0] |= 1;
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

/// The expected output of `job`, computed on a private device.
fn direct(device: &Device, job: &Job) -> JobOutput {
    match job {
        Job::Mul { a, b } => JobOutput::Product(device.mul(a, b)),
        Job::Div { a, b } => {
            let (q, r) = device.divrem(a, b);
            JobOutput::DivRem { quotient: q, remainder: r }
        }
        Job::Sqrt { a } => {
            let (root, rem) = device.sqrt_rem(a);
            JobOutput::SqrtRem { root, remainder: rem }
        }
        Job::ModExp { base, exp, modulus } => {
            JobOutput::PowMod(device.pow_mod(base, exp, modulus))
        }
    }
}

#[test]
fn randomized_job_mix_is_bit_identical_to_direct_execution() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE_2022);
    let mut jobs = Vec::new();
    for i in 0..40u64 {
        // Sizes spread across several power-of-two buckets.
        let bits = [96u64, 300, 900, 2500, 7000][rng.gen_range(0usize..5)];
        let job = match i % 4 {
            0 => Job::Mul {
                a: random_nat(&mut rng, bits),
                b: random_nat(&mut rng, bits / 2 + 17),
            },
            1 => Job::Div {
                a: random_nat(&mut rng, bits),
                b: random_nat(&mut rng, bits / 3 + 13),
            },
            2 => Job::Sqrt { a: random_nat(&mut rng, bits) },
            _ => Job::ModExp {
                base: random_nat(&mut rng, bits / 2 + 5),
                exp: Nat::from(rng.gen_range(3u64..40)),
                modulus: random_odd_nat(&mut rng, bits / 2 + 5),
            },
        };
        jobs.push(job);
    }
    let oracle = Device::new_default();
    let expected: Vec<JobOutput> = jobs.iter().map(|j| direct(&oracle, j)).collect();

    // Four callers share three devices, so some jobs wait for a hand-off.
    let serve = ServeHandle::start(ServeConfig { workers: 3, ..ServeConfig::default() });
    let callers = 4;
    let buckets_seen = Mutex::new(std::collections::BTreeSet::new());
    thread::scope(|s| {
        for c in 0..callers {
            let (serve, jobs, expected, buckets_seen) = (&serve, &jobs, &expected, &buckets_seen);
            s.spawn(move || {
                for (job, want) in jobs.iter().zip(expected).skip(c).step_by(callers) {
                    let report = serve
                        .submit_wait(job.clone(), JobSpec::default())
                        .expect("every admitted job reports");
                    buckets_seen.lock().expect("no panics hold this lock").insert(report.bucket_bits);
                    assert_eq!(&report.output, want, "service result diverged from direct device");
                }
            });
        }
    });
    let buckets_seen = buckets_seen.into_inner().expect("scope joined");
    serve.shutdown();
    assert!(
        buckets_seen.len() >= 3,
        "the mix must exercise several buckets, saw {buckets_seen:?}"
    );
    let m = serve.metrics();
    assert_eq!(m.completed, jobs.len() as u64);
}

#[test]
fn full_queue_rejects_with_queue_full_without_blocking_or_panicking() {
    let capacity = 3;
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: capacity,
        workers: 1,
        ..ServeConfig::default()
    });
    // Pin the only device with a genuinely slow multiply, and fill the
    // FIFO of waiters behind it...
    let small = Nat::power_of_two(128) + Nat::from(7u64);
    let mut callers = vec![pin_a_device(&serve)];
    for depth in 1..=capacity {
        callers.push(spawn_caller(&serve, Job::Sqrt { a: small.clone() }));
        wait_until("a waiter's admission", || serve.queue_depth() == depth);
    }
    // ...then flood past capacity. Every overflow submit must return
    // promptly with QueueFull (a blocking submit would hang this test).
    let mut overflows = 0u64;
    for _ in 0..100 {
        match serve.submit_wait(Job::Sqrt { a: small.clone() }, JobSpec::default()) {
            Ok(_) => {}
            Err(ServeError::Rejected(SubmitError::QueueFull { capacity: c })) => {
                assert_eq!(c, capacity);
                overflows += 1;
            }
            Err(other) => unreachable!("unexpected rejection under overload: {other}"),
        }
    }
    assert!(overflows >= 90, "flooding a pinned 3-slot queue must overflow");
    for caller in &callers {
        report_of(caller, "an admitted caller");
    }
    serve.shutdown();
    let m = serve.metrics();
    assert_eq!(m.rejected_full, overflows);
    assert_eq!(m.completed, m.submitted, "no admitted job may be dropped");
}

#[test]
fn graceful_shutdown_yields_exactly_one_terminal_report_per_job() {
    let serve = ServeHandle::start(ServeConfig { workers: 2, ..ServeConfig::default() });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // Two slow heads hold both devices, so the rest queue up behind them
    // and are still waiting when shutdown begins.
    let mut callers = vec![pin_a_device(&serve), pin_a_device(&serve)];
    for depth in 1..=25 {
        let bits = rng.gen_range(100u64..4000);
        callers.push(spawn_caller(&serve, Job::Sqrt { a: random_nat(&mut rng, bits) }));
        wait_until("a waiter's admission", || serve.queue_depth() == depth);
    }
    let submitted = callers.len() as u64;
    serve.shutdown(); // blocks until every admitted job has run
    assert_eq!(serve.queue_depth(), 0, "shutdown must serve every waiter");
    for caller in &callers {
        // Each caller sends its one outcome once: one report per job is
        // structural, and what we verify here is that the report *exists*
        // for every admitted job.
        report_of(caller, "a caller admitted before shutdown");
    }
    let m = serve.metrics();
    assert_eq!(m.submitted, submitted);
    assert_eq!(m.completed, submitted, "shutdown must complete every admitted job");
    // And the service stays rejecting, not panicking, after the fact.
    let refused = serve.submit_wait(Job::Sqrt { a: Nat::from(16u64) }, JobSpec::default());
    assert!(matches!(refused, Err(ServeError::Rejected(SubmitError::Shutdown))));
}

fn random_job(rng: &mut rand::rngs::StdRng) -> Job {
    // Widths spanning several buckets; a slice of jobs intentionally
    // exceeds the admission ceiling below to exercise Oversized.
    let bits = [96u64, 200, 600, 1_200, 2_500, 9_000][rng.gen_range(0..6usize)];
    let a = random_nat(rng, bits);
    match rng.gen_range(0..3u32) {
        0 => Job::Mul { a: a.clone(), b: a },
        1 => Job::Div { a, b: Nat::from(97u64) },
        _ => Job::Sqrt { a },
    }
}

/// Invariants checked at quiescence (after `shutdown`, when in-flight
/// is zero):
///
/// 1. `attempts == submitted + Σ rejected` — every submission attempt is
///    accounted exactly once;
/// 2. `submitted == completed` — every accepted job got its terminal
///    report (the shutdown-drains guarantee, restated as a counter law);
/// 3. `Σ cycles_by_class + cycles_unattributed == Σ report.service_cycles`
///    — per-class cycle attribution totals exactly what the per-job
///    reports claim, so the Fig. 2-style class breakdown can be trusted;
/// 4. the span histograms record one entry per attempt/job respectively.
#[test]
fn metrics_conserve_jobs_and_cycles_under_concurrent_load() {
    // One waiting slot for four callers on two devices and a tight
    // admission ceiling, so the rejection paths (full, oversized) fire
    // alongside completions.
    let serve = ServeHandle::try_start(ServeConfig {
        queue_capacity: 1,
        workers: 2,
        max_operand_bits: 1 << 12,
        ..ServeConfig::default()
    })
    .expect("valid config");

    const THREADS: u64 = 4;
    const ATTEMPTS_PER_THREAD: u64 = 60;
    let attempts = AtomicU64::new(0);
    let rejected_seen = AtomicU64::new(0);
    let report_cycles = Mutex::new(Vec::<u64>::new());

    thread::scope(|s| {
        for t in 0..THREADS {
            let serve = serve.clone();
            let attempts = &attempts;
            let rejected_seen = &rejected_seen;
            let report_cycles = &report_cycles;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DE + t);
                for _ in 0..ATTEMPTS_PER_THREAD {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    match serve.submit_wait(random_job(&mut rng), JobSpec::default()) {
                        Ok(report) => {
                            report_cycles
                                .lock()
                                .expect("no panics hold this lock")
                                .push(report.service_cycles);
                        }
                        Err(ServeError::Rejected(
                            SubmitError::QueueFull { .. }
                            | SubmitError::OversizedOperand { .. }
                            | SubmitError::Shutdown
                            | SubmitError::InvalidJob(_),
                        )) => {
                            rejected_seen.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::WorkerLost) => unreachable!("no job here panics"),
                    }
                }
            });
        }
    });
    serve.shutdown();

    let m = serve.metrics();
    let attempts = attempts.load(Ordering::Relaxed);
    assert_eq!(attempts, THREADS * ATTEMPTS_PER_THREAD);

    // (1) Every attempt is exactly one of accepted / rejected.
    let rejected_total =
        m.rejected_full + m.rejected_oversized + m.rejected_shutdown + m.rejected_invalid;
    assert_eq!(attempts, m.submitted + rejected_total, "attempt conservation");
    assert_eq!(rejected_total, rejected_seen.load(Ordering::Relaxed));
    assert!(m.rejected_oversized > 0, "ceiling must have fired (seeded mix)");

    // (2) At quiescence nothing is in flight: accepted == completed.
    assert_eq!(m.submitted, m.completed, "job conservation across shutdown");
    assert_eq!(serve.queue_depth(), 0);

    // (3) Per-class cycle totals equal the sum of per-job attributed
    // cycles from the reports — the misattribution regression proper.
    let reports = report_cycles.lock().expect("scope joined; no contention");
    assert_eq!(reports.len() as u64, m.completed);
    let report_sum: u64 = reports.iter().sum();
    let class_sum: u64 = m.cycles_by_class.iter().sum();
    assert_eq!(class_sum + m.cycles_unattributed, report_sum, "cycle conservation");
    assert_eq!(m.cycles_unattributed, 0, "every OpClass is in ALL");
    let class_jobs: u64 = m.jobs_by_class.iter().sum();
    assert_eq!(class_jobs + m.jobs_unattributed, m.completed);

    // (4) Span histograms record per-attempt / per-job; every job is a
    // batch of one.
    assert_eq!(m.submit_ns.count, attempts);
    assert_eq!(m.queue_wait_ns.count, m.completed);
    assert_eq!(m.service_ns.count, m.completed);
    assert_eq!(m.service_cycles.count, m.completed);
    assert_eq!(m.service_cycles.sum, report_sum);
    assert_eq!((m.batches, m.batched_jobs), (m.completed, m.completed));
    assert_eq!(m.batch_form_ns.count, m.batches);
    assert_eq!(m.dispatch_wait_ns.count, m.batches);
}

#[test]
fn sharded_queue_conserves_every_job_across_shutdown() {
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 64,
        workers: 3,
        ..ServeConfig::default()
    });
    let submitters = 6u64;
    let per_thread = 60u64;
    // Submitters pause at the halfway barrier; the shutdown thread fires
    // there, so roughly half the submissions race the drain.
    let barrier = Arc::new(Barrier::new(submitters as usize + 1));
    let reported = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..submitters {
            let serve = serve.clone();
            let barrier = Arc::clone(&barrier);
            let reported = &reported;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED + t);
                for i in 0..per_thread {
                    if i == per_thread / 2 {
                        barrier.wait();
                    }
                    let a = random_nat(&mut rng, 300 + (i % 7) * 150);
                    let b = random_nat(&mut rng, 250);
                    // Backpressure and the shutdown race are the point of
                    // the test, not failures: a rejected job is skipped.
                    match serve.submit_wait(Job::Mul { a, b }, JobSpec::default()) {
                        Ok(report) => {
                            assert!(matches!(report.output, JobOutput::Product(_)));
                            reported.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Rejected(_)) => {}
                        Err(e) => unreachable!("every admitted job must report: {e}"),
                    }
                }
            });
        }
        {
            let serve = serve.clone();
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                barrier.wait();
                serve.shutdown();
            });
        }
    });
    let m = serve.metrics();
    // Only an admitted job reports, and it reports exactly once.
    let reported = reported.load(Ordering::Relaxed);
    assert!(reported > 0, "some jobs must have been admitted");
    assert_eq!(m.submitted, reported, "every admitted job delivered one report");
    assert_eq!(m.completed, reported, "every admitted job completed");
    assert_eq!(serve.queue_depth(), 0, "nobody left waiting after shutdown");
}

/// One start → race → shutdown cycle: more submitters than devices and
/// waiting slots spin on a tiny service, so many attempts are refused
/// (QueueFull) and many wait for a hand-off, and shutdown lands after a
/// random number of attempts — while submitters are still arriving.
/// Returns the QueueFull refusals (rollbacks) the cycle saw.
fn race_shutdown_against_rollbacks(seed: u64) -> u64 {
    const SUBMITTERS: u64 = 6;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1057_3A4E + seed);
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: rng.gen_range(1..=2usize),
        workers: rng.gen_range(1..=2usize),
        ..ServeConfig::default()
    });
    let shutdown_after = rng.gen_range(1..300u64);
    let attempts = AtomicU64::new(0);
    let admitted = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..SUBMITTERS {
            let serve = serve.clone();
            let (attempts, admitted) = (&attempts, &admitted);
            s.spawn(move || {
                let a = Nat::from(0xFFFF_0000_FFFF_0001u64 ^ (seed << 8) ^ t);
                let job = Job::Mul { a: a.clone(), b: a };
                loop {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    match serve.submit_wait(job.clone(), JobSpec::default()) {
                        Ok(_) => {
                            admitted.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(ServeError::Rejected(SubmitError::QueueFull { .. })) => {}
                        Err(ServeError::Rejected(SubmitError::Shutdown)) => break,
                        Err(e) => unreachable!("unexpected rejection: {e}"),
                    }
                }
            });
        }
        while attempts.load(Ordering::Relaxed) < shutdown_after {
            thread::yield_now();
        }
        serve.shutdown();
    });
    let m = serve.metrics();
    assert_eq!(m.submitted, admitted.load(Ordering::Relaxed));
    assert_eq!(m.completed, m.submitted, "cycle {seed}: a job leaked across shutdown");
    assert_eq!(serve.queue_depth(), 0);
    m.rejected_full
}

#[test]
#[expect(
    clippy::disallowed_methods,
    reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
)]
fn shutdown_racing_rollbacks_never_loses_a_wakeup() {
    const CYCLES: u64 = 200;
    let cycle = Arc::new(AtomicU64::new(0));
    let (done_tx, done_rx) = mpsc::channel();
    let runner = {
        let cycle = Arc::clone(&cycle);
        thread::spawn(move || {
            let mut rollbacks = 0;
            for c in 0..CYCLES {
                cycle.store(c, Ordering::Relaxed);
                rollbacks += race_shutdown_against_rollbacks(c);
            }
            let _ = done_tx.send(rollbacks);
        })
    };
    // The watchdog: a waiter that missed its hand-off blocks forever in its
    // condvar wait, and so does the `shutdown` waiting for the devices.
    // Fail, don't hang.
    match done_rx.recv_timeout(Duration::from_secs(60)) {
        Ok(rollbacks) => {
            assert!(rollbacks > 0, "the cycles must exercise QueueFull rollbacks");
        }
        Err(RecvTimeoutError::Disconnected) => {
            if let Err(panic) = runner.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(RecvTimeoutError::Timeout) => panic!(
            "cycle {} of {CYCLES} did not finish in 60 s: a waiter lost its hand-off",
            cycle.load(Ordering::Relaxed)
        ),
    }
}

/// Jobs that find the device free and jobs handed it by the job before
/// them share one ledger across a mid-stream shutdown.
#[test]
fn caller_thread_and_worker_runs_conserve_every_job_across_shutdown() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 40;
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 64,
        workers: 1,
        ..ServeConfig::default()
    });
    let oracle = Device::new_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A11E);

    // An idle service hands the caller its free device at once.
    let job = random_job(&mut rng);
    let report = serve.submit_wait(job.clone(), JobSpec::default()).expect("idle service");
    assert_eq!(report.output, direct(&oracle, &job));
    assert_eq!(report.queue_wait, Duration::ZERO);
    let m = serve.metrics();
    assert_eq!((m.inline_jobs, m.batches, m.completed), (1, 1, 1));

    // Four callers share the one device; the shutdown thread fires when
    // every caller is halfway through.
    let barrier = Barrier::new(THREADS as usize + 1);
    let report_ids = Mutex::new(vec![report.id.as_u64()]);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (serve, oracle, barrier, report_ids) = (serve.clone(), &oracle, &barrier, &report_ids);
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A11E + t + 1);
                let mut ids = Vec::new();
                for i in 0..PER_THREAD {
                    if i == PER_THREAD / 2 {
                        barrier.wait();
                    }
                    let job = random_job(&mut rng);
                    let want = direct(oracle, &job);
                    let report = match serve.submit_wait(job, JobSpec::default()) {
                        Ok(report) => report,
                        Err(ServeError::Rejected(SubmitError::Shutdown)) => continue,
                        Err(e) => unreachable!("submit_wait failed: {e}"),
                    };
                    assert_eq!(report.output, want, "result diverged from direct device");
                    ids.push(report.id.as_u64());
                }
                report_ids.lock().expect("no panics hold this lock").extend(ids);
            });
        }
        let (serve, barrier) = (serve.clone(), &barrier);
        s.spawn(move || {
            barrier.wait();
            serve.shutdown();
        });
    });

    // After shutdown a submit_wait is refused and runs nowhere.
    let before = serve.metrics();
    let refused = serve.submit_wait(random_job(&mut rng), JobSpec::default());
    assert_eq!(refused.err(), Some(ServeError::Rejected(SubmitError::Shutdown)));
    let m = serve.metrics();
    assert_eq!(m.rejected_shutdown, before.rejected_shutdown + 1);
    assert_eq!((m.inline_jobs, m.completed), (before.inline_jobs, before.completed));

    // Exactly one report per admitted job.
    let mut ids = report_ids.into_inner().expect("scope joined");
    let reports = ids.len() as u64;
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, reports, "a job was reported twice");
    assert_eq!(m.submitted, reports, "an admitted job never reported");
    assert_eq!(m.completed, reports);
    // Each job counted once, as a batch of one; some found the device
    // free, and the rest were handed it.
    assert_eq!((m.batches, m.batched_jobs), (m.completed, m.completed));
    assert!(m.inline_jobs >= 1 && m.inline_jobs < m.completed, "{m:?}");
    assert_eq!(m.queue_wait_ns.count, m.completed);
    assert_eq!(m.batch_form_ns.count, m.batches);
    assert_eq!(m.dispatch_wait_ns.count, m.batches);
    assert_eq!(serve.queue_depth(), 0);
}

#[test]
fn a_waiter_parked_behind_a_long_job_wakes_through_the_release() {
    // The only device is out when the waiter arrives, so it parks on its
    // own condvar; nothing but the release that ends the long job can
    // wake it. A release that hands the device on without the wake fails
    // at the watchdog instead of hanging.
    let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let pinned = pin_a_device(&serve);
    let a = Nat::power_of_two(1000) + Nat::from(5u64);
    let waiter = spawn_caller(&serve, Job::Mul { a: a.clone(), b: a.clone() });
    wait_until("the waiter's admission", || serve.queue_depth() == 1);
    assert!(waiter.try_recv().is_err(), "the waiter ran while the device was out");
    let long = report_of(&pinned, "the long job");
    let report = report_of(&waiter, "the parked waiter");
    assert_eq!(report.output, JobOutput::Product(&a * &a));
    assert!(report.queue_wait > Duration::ZERO, "the waiter was handed the device");
    assert_eq!(report.worker, long.worker);
    serve.shutdown();
    let m = serve.metrics();
    assert_eq!((m.inline_jobs, m.completed, m.max_queue_depth), (1, 2, 1));
}

#[test]
fn waiters_are_granted_devices_in_admission_order() {
    // Waiters queue one by one behind a long job on the only device; each
    // runs a job long enough that the next one, handed the device after
    // it, cannot report first. Reports must then arrive in job-id order.
    const WAITERS: usize = 6;
    let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let pinned = pin_a_device(&serve);
    let (done_tx, done) = mpsc::channel();
    for depth in 1..=WAITERS {
        let a = Nat::power_of_two(60_000) - Nat::from(depth as u64);
        let (caller, done_tx) = (serve.clone(), done_tx.clone());
        thread::spawn(move || {
            let job = Job::Mul { a: a.clone(), b: a };
            let _ = done_tx.send(caller.submit_wait(job, JobSpec::default()));
        });
        wait_until("a waiter's admission", || serve.queue_depth() == depth);
    }
    report_of(&pinned, "the long job");
    let order: Vec<u64> =
        (0..WAITERS).map(|_| report_of(&done, "a queued waiter").id.as_u64()).collect();
    let mut by_id = order.clone();
    by_id.sort_unstable();
    assert_eq!(order, by_id, "waiters were not granted the device in FIFO order");
    serve.shutdown();
}

#[test]
fn shutdown_with_waiters_queued_serves_each_exactly_once() {
    const WAITERS: usize = 4;
    let serve = ServeHandle::start(ServeConfig { workers: 1, ..ServeConfig::default() });
    let pinned = pin_a_device(&serve);
    let waiters: Vec<_> = (1..=WAITERS)
        .map(|depth| {
            let waiter = spawn_caller(&serve, Job::Sqrt { a: Nat::from(depth as u64 * 1000) });
            wait_until("a waiter's admission", || serve.queue_depth() == depth);
            waiter
        })
        .collect();
    // Shutdown on its own thread, so a lost hand-off fails the watchdog.
    let (done_tx, done) = mpsc::channel();
    {
        let serve = serve.clone();
        thread::spawn(move || {
            serve.shutdown();
            let _ = done_tx.send(serve.metrics());
        });
    }
    let m = within_watchdog(&done, "shutdown's return");
    // Shutdown returned only once every waiter had run: each reported
    // once, and the ledger counts each once.
    let mut ids = vec![report_of(&pinned, "the long job").id.as_u64()];
    ids.extend(waiters.iter().map(|w| report_of(w, "a queued waiter").id.as_u64()));
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), WAITERS + 1, "a waiter was reported twice");
    assert_eq!((m.submitted, m.completed), (ids.len() as u64, ids.len() as u64));
    assert!(waiters.iter().all(|w| w.try_recv().is_err()), "a waiter reported twice");
    assert_eq!(
        serve.submit_wait(Job::Sqrt { a: Nat::from(16u64) }, JobSpec::default()).err(),
        Some(ServeError::Rejected(SubmitError::Shutdown))
    );
}
