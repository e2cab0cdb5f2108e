//! Tier-1 gate for the serving layer (`apc-serve`).
//!
//! Six contracts, each load-bearing for the multi-tenant story:
//!
//! 1. **Bit-exactness** — a randomized job mix spanning several bitwidth
//!    buckets, submitted through the service, must produce results
//!    identical to running the same operators on a private `Device`.
//!    Batching and worker scheduling may reorder *execution*, never
//!    *values*.
//! 2. **Admission control** — a full queue rejects with
//!    [`apc_serve::SubmitError::QueueFull`]: no blocking, no panic, no
//!    silent drop.
//! 3. **Graceful shutdown** — every job accepted before shutdown gets
//!    exactly one terminal report; nothing leaks, nothing double-fires,
//!    also with submitters racing a mid-stream shutdown.
//! 4. **Metrics conservation** — under a randomized concurrent mix of
//!    submissions, rejections and completions, no job and no cycle is
//!    lost or double-counted in [`apc_serve::ServeMetrics`].
//! 5. **No lost wakeup** — idle workers wait on the queue's condvar with
//!    no timeout, so a missed wake would hang shutdown forever. Repeated
//!    start → race → shutdown cycles run under a watchdog that turns
//!    such a hang into a test failure.
//! 6. **Two paths, one ledger** — `submit_wait` runs a job on the
//!    caller's thread when a device is free and nothing is staged, and
//!    stages it for a worker otherwise. Mixed with `submit` + `wait` and
//!    a mid-stream shutdown, every accepted job still gets exactly one
//!    bit-exact report and is counted once, on one of the two paths.

use apc_bignum::Nat;
use apc_serve::{Job, JobOutput, JobSpec, ServeConfig, ServeError, ServeHandle, SubmitError};
use cambricon_p::Device;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

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

    let serve = ServeHandle::start(ServeConfig { workers: 3, ..ServeConfig::default() });
    let tickets: Vec<_> = jobs
        .iter()
        .map(|j| serve.submit(j.clone(), JobSpec::default()).expect("capacity available"))
        .collect();
    let mut buckets_seen = std::collections::BTreeSet::new();
    for (ticket, want) in tickets.into_iter().zip(&expected) {
        let report = ticket.wait().expect("every accepted job reports");
        buckets_seen.insert(report.bucket_bits);
        assert_eq!(&report.output, want, "service result diverged from direct device");
    }
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
        batch_max: 1,
        ..ServeConfig::default()
    });
    // Pin the only worker with a genuinely slow multiply...
    let big = Nat::power_of_two(600_000) - Nat::from(3u64);
    let pin = serve
        .submit(Job::Mul { a: big.clone(), b: big }, JobSpec::default())
        .expect("first job admitted");
    // ...then flood far past capacity. Every overflow submit must return
    // promptly with QueueFull (a blocking submit would hang this test).
    let mut accepted = vec![pin];
    let mut overflows = 0u64;
    let small = Nat::power_of_two(128) + Nat::from(7u64);
    for _ in 0..100 {
        match serve.submit(Job::Sqrt { a: small.clone() }, JobSpec::default()) {
            Ok(t) => accepted.push(t),
            Err(SubmitError::QueueFull { capacity: c }) => {
                assert_eq!(c, capacity);
                overflows += 1;
            }
            Err(other) => unreachable!("unexpected rejection under overload: {other}"),
        }
    }
    assert!(overflows >= 90, "flooding a pinned 3-slot queue must overflow");
    for t in accepted {
        t.wait().expect("accepted jobs still complete");
    }
    serve.shutdown();
    let m = serve.metrics();
    assert_eq!(m.rejected_full, overflows);
    assert_eq!(m.completed, m.submitted, "no accepted job may be dropped");
}

#[test]
fn graceful_shutdown_yields_exactly_one_terminal_report_per_job() {
    let serve = ServeHandle::start(ServeConfig {
        workers: 2,
        batch_max: 3,
        ..ServeConfig::default()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let mut tickets = Vec::new();
    // A slow head keeps most of the rest queued when shutdown begins.
    let big = Nat::power_of_two(300_000) - Nat::one();
    tickets.push(
        serve
            .submit(Job::Mul { a: big.clone(), b: big }, JobSpec::default())
            .expect("admitted"),
    );
    for _ in 0..25 {
        let bits = rng.gen_range(100u64..4000);
        tickets.push(
            serve
                .submit(Job::Sqrt { a: random_nat(&mut rng, bits) }, JobSpec::default())
                .expect("admitted"),
        );
    }
    let submitted = tickets.len() as u64;
    serve.shutdown(); // blocks until the drain finishes
    assert_eq!(serve.queue_depth(), 0, "shutdown must drain the queue");
    for ticket in tickets {
        // `wait` consumes the only receiver, and the worker sends exactly
        // once — so one report per job is structural; what we verify here
        // is that the report *exists* for every accepted job.
        ticket.wait().expect("drained job must still report");
    }
    let m = serve.metrics();
    assert_eq!(m.submitted, submitted);
    assert_eq!(m.completed, submitted, "drain must complete every accepted job");
    // And the service stays rejecting, not panicking, after the fact.
    let refused = serve.submit(
        Job::Sqrt { a: Nat::from(16u64) },
        JobSpec::default(),
    );
    assert!(matches!(refused, Err(SubmitError::Shutdown)));
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
    // Small queue and a tight admission ceiling so all three rejection
    // paths (full, oversized) actually fire alongside completions.
    let serve = ServeHandle::try_start(ServeConfig {
        queue_capacity: 8,
        workers: 2,
        batch_max: 4,
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
                    match serve.submit(random_job(&mut rng), JobSpec::default()) {
                        Ok(ticket) => {
                            let report = ticket.wait().expect("accepted jobs must report");
                            report_cycles
                                .lock()
                                .expect("no panics hold this lock")
                                .push(report.service_cycles);
                        }
                        Err(
                            SubmitError::QueueFull { .. }
                            | SubmitError::OversizedOperand { .. }
                            | SubmitError::Shutdown
                            | SubmitError::InvalidJob(_),
                        ) => {
                            rejected_seen.fetch_add(1, Ordering::Relaxed);
                        }
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

    // (4) Span histograms record per-attempt / per-job / per-batch.
    assert_eq!(m.submit_ns.count, attempts);
    assert_eq!(m.queue_wait_ns.count, m.completed);
    assert_eq!(m.service_ns.count, m.completed);
    assert_eq!(m.service_cycles.count, m.completed);
    assert_eq!(m.service_cycles.sum, report_sum);
    assert_eq!(m.batch_form_ns.count, m.batches);
    assert_eq!(m.dispatch_wait_ns.count, m.batches);
}

#[test]
fn sharded_queue_conserves_every_job_across_shutdown() {
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 64,
        workers: 3,
        batch_max: 8,
        ..ServeConfig::default()
    });
    let submitters = 6u64;
    let per_thread = 60u64;
    // Submitters pause at the halfway barrier; the shutdown thread fires
    // there, so roughly half the submissions race the drain.
    let barrier = Arc::new(Barrier::new(submitters as usize + 1));
    let reported = AtomicU64::new(0);
    let admitted_total = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..submitters {
            let serve = serve.clone();
            let barrier = Arc::clone(&barrier);
            let reported = &reported;
            let admitted_total = &admitted_total;
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED + t);
                let mut tickets = Vec::new();
                for i in 0..per_thread {
                    if i == per_thread / 2 {
                        barrier.wait();
                    }
                    let a = random_nat(&mut rng, 300 + (i % 7) * 150);
                    let b = random_nat(&mut rng, 250);
                    // Backpressure and the shutdown race are the point of
                    // the test, not failures: a rejected job is skipped.
                    if let Ok(ticket) = serve.submit(Job::Mul { a, b }, JobSpec::default()) {
                        tickets.push(ticket);
                    }
                }
                admitted_total.fetch_add(tickets.len() as u64, Ordering::Relaxed);
                for ticket in tickets {
                    let report = ticket
                        .wait()
                        .expect("every admitted job must report, shutdown included");
                    assert!(matches!(report.output, JobOutput::Product(_)));
                    reported.fetch_add(1, Ordering::Relaxed);
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
    let admitted = admitted_total.load(Ordering::Relaxed);
    assert!(admitted > 0, "some jobs must have been admitted");
    assert_eq!(m.submitted, admitted, "metrics admit count matches tickets");
    assert_eq!(m.completed, admitted, "every admitted job completed");
    assert_eq!(
        reported.load(Ordering::Relaxed),
        admitted,
        "every admitted job delivered exactly one report"
    );
    assert_eq!(serve.queue_depth(), 0, "nothing left staged after drain");
}

/// One start → race → shutdown cycle: submitters spin on a tiny queue,
/// so most attempts are refused (QueueFull), and shutdown lands after a
/// random number of attempts — while submitters are still pushing.
/// Returns the QueueFull refusals (rollbacks) the cycle saw.
fn race_shutdown_against_rollbacks(seed: u64) -> u64 {
    const SUBMITTERS: u64 = 3;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1057_3A4E + seed);
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: rng.gen_range(2..=4usize),
        workers: rng.gen_range(1..=3usize),
        batch_max: 2,
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
                let mut tickets = Vec::new();
                loop {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    match serve.submit(job.clone(), JobSpec::default()) {
                        Ok(ticket) => tickets.push(ticket),
                        Err(SubmitError::QueueFull { .. }) => {}
                        Err(SubmitError::Shutdown) => break,
                        Err(e) => unreachable!("unexpected rejection: {e}"),
                    }
                }
                admitted.fetch_add(tickets.len() as u64, Ordering::Relaxed);
                for ticket in tickets {
                    ticket.wait().expect("every admitted job must report");
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
    // The watchdog: a worker that missed its wake blocks forever in its
    // condvar wait, and so does the `shutdown` joining it. Fail, don't hang.
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
            "cycle {} of {CYCLES} did not finish in 60 s: a worker lost its wakeup",
            cycle.load(Ordering::Relaxed)
        ),
    }
}

#[test]
fn caller_thread_and_worker_runs_conserve_every_job_across_shutdown() {
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 40;
    let serve = ServeHandle::start(ServeConfig {
        queue_capacity: 64,
        workers: 1,
        batch_max: 4,
        ..ServeConfig::default()
    });
    let oracle = Device::new_default();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A11E);

    // An idle service runs a submit_wait on the caller's thread, and
    // never a submit.
    let job = random_job(&mut rng);
    let report = serve.submit_wait(job.clone(), JobSpec::default()).expect("idle service");
    assert_eq!(report.output, direct(&oracle, &job));
    let ticket = serve.submit(job.clone(), JobSpec::default()).expect("idle service");
    let first_ids = vec![report.id.as_u64(), ticket.id().as_u64()];
    assert_eq!(ticket.wait().expect("staged job reports").output, direct(&oracle, &job));
    let m = serve.metrics();
    assert_eq!((m.inline_jobs, m.batches, m.completed), (1, 2, 2));

    // Submitters alternate submit_wait with submit + wait; the shutdown
    // thread fires when every submitter is halfway through.
    let barrier = Barrier::new(THREADS as usize + 1);
    let report_ids = Mutex::new(first_ids);
    let accepted_waits = AtomicU64::new(1);
    thread::scope(|s| {
        for t in 0..THREADS {
            let (serve, oracle, barrier) = (serve.clone(), &oracle, &barrier);
            let (report_ids, accepted_waits) = (&report_ids, &accepted_waits);
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A11E + t + 1);
                let mut ids = Vec::new();
                for i in 0..PER_THREAD {
                    if i == PER_THREAD / 2 {
                        barrier.wait();
                    }
                    let job = random_job(&mut rng);
                    let want = direct(oracle, &job);
                    let report = if (t + i) % 2 == 0 {
                        match serve.submit_wait(job, JobSpec::default()) {
                            Ok(report) => {
                                accepted_waits.fetch_add(1, Ordering::Relaxed);
                                report
                            }
                            Err(ServeError::Rejected(SubmitError::Shutdown)) => continue,
                            Err(e) => unreachable!("submit_wait failed: {e}"),
                        }
                    } else {
                        match serve.submit(job, JobSpec::default()) {
                            Ok(ticket) => ticket.wait().expect("every accepted job reports"),
                            Err(SubmitError::Shutdown) => continue,
                            Err(e) => unreachable!("submit failed: {e}"),
                        }
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

    // Exactly one report per accepted job.
    let mut ids = report_ids.into_inner().expect("scope joined");
    let reports = ids.len() as u64;
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len() as u64, reports, "a job was reported twice");
    assert_eq!(m.submitted, reports, "an accepted job never reported");
    assert_eq!(m.completed, reports);
    // Each job counted once, on the caller's thread or in a worker's
    // batch (a caller-thread run is a batch of one), and only
    // submit_wait runs on the caller's thread.
    assert_eq!(m.batched_jobs, m.completed, "a job ran in no batch or in two");
    assert!(m.inline_jobs >= 1 && m.inline_jobs <= accepted_waits.load(Ordering::Relaxed));
    assert!(m.batches > m.inline_jobs, "the staged jobs ran in worker batches");
    assert_eq!(m.queue_wait_ns.count, m.completed);
    assert_eq!(m.batch_form_ns.count, m.batches);
    assert_eq!(m.dispatch_wait_ns.count, m.batches);
    assert_eq!(serve.queue_depth(), 0);
}
