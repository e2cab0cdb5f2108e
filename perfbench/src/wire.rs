//! wire-mul: closed-loop `NetClient` connections sending seeded
//! 2048×2048-bit `Job::Mul` requests to `NetServer` (2 connection
//! workers) → `Router::from_handles` (2 shards × 1 worker) →
//! `ServeHandle` → analytic `Device`.
//!
//! The load is closed-loop because `NetClient` is blocking with one
//! request outstanding, which is how its callers behave: each of the
//! [`CLIENTS`] connections sends its next job when the previous answer
//! has been decoded and checked.

use crate::ledger;
use crate::report::{self, Metrics, Outcome};
use crate::spans::{SpanId, SpanLog};
use crate::stats;
use crate::workload::{self, Case, WIRE_MUL_ROUND};
use crate::Args;
use apc_net::wire::{self, Request, Response, ResponseBody};
use apc_net::{NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Router};
use apc_serve::{Job, JobOutput, JobSpec, MetricsSnapshot, ServeConfig, ServeHandle};
use apc_trace::HistogramSnapshot;
use cambricon_p::{Device, DeviceStats};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Closed-loop client connections (one per host thread on the 2-core
/// reference host).
pub const CLIENTS: usize = 2;
/// The path every job of the workload takes.
pub const PATH: &str =
    "NetClient → NetServer → Router → ServeHandle → analytic Device; structural path not executed";
const SHARDS: usize = 2;
const WORKERS_PER_SHARD: usize = 1;
const TOKEN: &[u8] = b"perfbench";
/// Stack set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 11;
/// Seconds per slice of the traced run, which alternates untraced and
/// traced slices.
const SLICE_S: f64 = 0.5;

/// The running device/service/server stack.
struct Stack {
    handles: Vec<ServeHandle>,
    server: NetServer<Router>,
}

impl Stack {
    fn start() -> Result<Stack, String> {
        let config = ServeConfig {
            workers: WORKERS_PER_SHARD,
            ..ServeConfig::default()
        };
        let handles = (0..SHARDS)
            .map(|_| ServeHandle::try_start(config.clone()).map_err(|e| format!("serve: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let router = Router::from_handles(handles.clone(), Router::DEFAULT_REPLICAS);
        let net = NetServerConfig {
            conn_workers: CLIENTS,
            tokens: vec![TOKEN.to_vec()],
            ..NetServerConfig::default()
        };
        let server =
            NetServer::start("127.0.0.1:0", router, net).map_err(|e| format!("net: {e}"))?;
        Ok(Stack { handles, server })
    }

    fn connect(&self) -> Result<NetClient, String> {
        let config = NetClientConfig {
            token: TOKEN.to_vec(),
            ..NetClientConfig::default()
        };
        NetClient::connect(self.server.local_addr(), &config).map_err(|e| format!("connect: {e}"))
    }

    fn shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.handles.iter().map(ServeHandle::metrics).collect()
    }
}

/// Hands out stream indices; once the deadline has passed it stops at
/// the next round boundary, so a run always completes whole rounds and
/// its modeled cycles per operation do not depend on timing.
struct Claimer {
    state: Mutex<(usize, bool)>,
    round: usize,
    min_claims: usize,
    deadline: Instant,
}

impl Claimer {
    fn next(&self) -> Option<usize> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, stopping) = &mut *state;
        if !*stopping && *next >= self.min_claims && Instant::now() >= self.deadline {
            *stopping = true;
        }
        if *stopping && *next % self.round == 0 {
            return None;
        }
        *next += 1;
        Some(*next - 1)
    }
}

/// What one closed-loop segment did.
#[derive(Debug, Default)]
struct Segment {
    attempted: u64,
    ok: u64,
    failed: u64,
    mismatches: u64,
    windows: Vec<stats::Window>,
    elapsed_s: f64,
}

/// How one answer went.
#[derive(Debug, PartialEq)]
enum Verdict {
    /// The oracle's answer.
    Correct,
    /// Wrong, rejected, or failed on the server.
    Failed,
    /// A transport or protocol error: the session must be replaced.
    Reconnect,
}

impl Segment {
    /// Accounts one answer against the oracle's.
    fn record(&mut self, answer: &Result<JobOutput, NetError>, case: &Case) -> Verdict {
        self.attempted += 1;
        let verdict = match answer {
            Ok(out) if case.answers(out) => Verdict::Correct,
            Ok(_) => {
                self.mismatches += 1;
                Verdict::Failed
            }
            Err(NetError::Rejected(_) | NetError::Server(_)) => Verdict::Failed,
            Err(_) => Verdict::Reconnect,
        };
        if verdict == Verdict::Correct {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
        verdict
    }

    fn absorb(&mut self, other: Segment) {
        self.attempted += other.attempted;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatches += other.mismatches;
        self.elapsed_s += other.elapsed_s;
        self.windows.extend(other.windows);
    }

    fn throughput(&self) -> f64 {
        self.ok as f64 / self.elapsed_s
    }
}

/// Runs the job stream over `clients` until `seconds` have passed (and
/// at least `min_jobs` were claimed), then to the end of the round, as
/// one window.
fn closed_loop(
    stack: &Stack,
    clients: &mut [NetClient],
    pool: &[Case],
    seconds: f64,
    min_jobs: usize,
) -> Segment {
    let started = Instant::now();
    let claimer = Claimer {
        state: Mutex::new((0, false)),
        round: WIRE_MUL_ROUND,
        min_claims: min_jobs,
        deadline: started + Duration::from_secs_f64(seconds),
    };
    let mut total = Segment::default();
    let mut latencies = Vec::new();
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let claimer = &claimer;
                scope.spawn(move || {
                    let mut seg = Segment::default();
                    let mut latencies = Vec::new();
                    while let Some(i) = claimer.next() {
                        let case = &pool[i % pool.len()];
                        let job = case.job();
                        let t0 = Instant::now();
                        let answer = client.request(job);
                        let latency = t0.elapsed();
                        match seg.record(&answer, case) {
                            Verdict::Correct => latencies
                                .push(u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX)),
                            Verdict::Failed => {}
                            // The stream may be out of step: start a new session.
                            Verdict::Reconnect => match stack.connect() {
                                Ok(fresh) => *client = fresh,
                                Err(_) => break,
                            },
                        }
                    }
                    (seg, latencies)
                })
            })
            .collect();
        for t in threads {
            let (seg, mine) = t.join().expect("client thread panicked");
            total.absorb(seg);
            latencies.extend(mine);
        }
    });
    total.elapsed_s = started.elapsed().as_secs_f64();
    total
        .windows
        .extend(stats::Window::new(latencies, total.elapsed_s));
    total
}

/// Median time of one [`PingPong::probe_ns`] on the reference host: the
/// round-trip speed that wire-mul's time metrics are stated at.
const PING_PONG_NS: f64 = 3_600_000.0;

/// A loopback TCP echo that shares no code with the repository. Its
/// round trips go through the same kernel paths and thread wake-ups as a
/// wire-mul request, which take most of a request's time, so timing them
/// between windows reads how fast the host turns a round trip around.
struct PingPong {
    stream: TcpStream,
    echo: JoinHandle<()>,
}

impl PingPong {
    /// Round trips per probe.
    const ROUND_TRIPS: usize = 200;

    fn start() -> io::Result<PingPong> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        stream.set_nodelay(true)?;
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let echo = std::thread::spawn(move || {
            let mut buf = [0u8; 16];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        Ok(PingPong { stream, echo })
    }

    /// Times [`Self::ROUND_TRIPS`] 16-byte round trips, in ns.
    fn probe_ns(&mut self) -> Result<f64, String> {
        let mut buf = [0u8; 16];
        let t0 = Instant::now();
        for _ in 0..Self::ROUND_TRIPS {
            self.stream
                .write_all(&buf)
                .and_then(|()| self.stream.read_exact(&mut buf))
                .map_err(|e| format!("ping-pong: {e}"))?;
        }
        Ok(t0.elapsed().as_nanos() as f64)
    }

    /// Closes the connection and waits for the echo thread to end.
    fn stop(self) {
        drop(self.stream);
        let _ = self.echo.join();
    }
}

/// Builds the stack, connects, and warms up with one round of jobs.
fn set_up(pool: &[Case], warm: &mut Segment) -> Result<(Stack, Vec<NetClient>, f64), String> {
    let t0 = Instant::now();
    let stack = Stack::start()?;
    let mut clients = (0..CLIENTS)
        .map(|_| stack.connect())
        .collect::<Result<Vec<_>, _>>()?;
    warm.absorb(closed_loop(&stack, &mut clients, pool, 0.0, WIRE_MUL_ROUND));
    Ok((stack, clients, t0.elapsed().as_secs_f64()))
}

fn sum_cycles(m: &MetricsSnapshot) -> u64 {
    m.cycles_by_class.iter().sum::<u64>() + m.cycles_unattributed
}

/// Modeled device cycles per completed job between two shard sweeps.
fn cycles_per_op(before: &[MetricsSnapshot], after: &[MetricsSnapshot]) -> f64 {
    let cycles: u64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| sum_cycles(a) - sum_cycles(b))
        .sum();
    let done: u64 = after
        .iter()
        .zip(before)
        .map(|(a, b)| a.completed - b.completed)
        .sum();
    cycles as f64 / done.max(1) as f64
}

/// The untraced run: end-to-end metrics.
pub fn run(args: &Args) -> Result<Outcome, String> {
    apc_trace::set_enabled(false);
    let pool = workload::wire_mul_pool(args.seed);
    let mut all = Segment::default();
    let mut ping = PingPong::start().map_err(|e| format!("ping-pong: {e}"))?;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        let (stack, clients, secs) = set_up(&pool, &mut all)?;
        setups.push(secs);
        if i + 1 == SETUPS {
            live = Some((stack, clients));
        } else {
            drop(clients);
            stack.server.shutdown();
        }
    }
    let (stack, mut clients) = live.expect("at least one set-up");
    let mut probes = Vec::new();
    let before = stack.shard_metrics();
    let mut seg = Segment::default();
    for _ in 0..stats::WINDOWS_PER_RUN as usize {
        probes.push(ping.probe_ns()?);
        let window_s = args.seconds / stats::WINDOWS_PER_RUN;
        seg.absorb(closed_loop(&stack, &mut clients, &pool, window_s, 0));
    }
    let after = stack.shard_metrics();
    ping.stop();
    drop(clients);
    stack.server.shutdown();

    // One probe is too short to read a single window's speed by (its
    // round trips swing between fast and slow wake-ups), so the run's
    // windows, and its set-ups, share the median of all of them.
    let speed = PING_PONG_NS / stats::median(&probes);
    let windows: Vec<stats::Window> = seg.windows.iter().map(|w| w.at_speed(speed)).collect();
    let mut out = Outcome::default();
    let summary = stats::summarise(&windows);
    out.notes.push(stats::describe(
        &summary,
        &format!(
            "{PING_PONG_NS} ns per ping-pong probe, the median of {}",
            probes.len()
        ),
        seg.ok,
        seg.elapsed_s,
    ));
    out.notes.push(format!(
        "setup_s: median of {SETUPS} set-ups, at the run's reference-host speed"
    ));
    let m = &mut out.metrics;
    m.push("throughput_ops_s", summary.throughput, "ops/s");
    m.push("latency_p50_us", summary.p50_us, "us");
    m.push("latency_p99_us", summary.p99_us, "us");
    m.push(
        "modeled_cycles_per_op",
        cycles_per_op(&before, &after),
        "cycles",
    );
    all.absorb(seg);
    m.push(
        "success_ratio",
        1.0 - all.failed as f64 / all.attempted.max(1) as f64,
        "ratio",
    );
    m.push("setup_s", stats::median(&setups) * summary.speed, "s");
    m.push("peak_rss_mb", report::peak_rss_mb(), "MB");
    out.attempted = all.attempted;
    out.failed = all.failed;
    out.mismatches = all.mismatches;
    out.notes.push(format!("error_rate: {}", out.error_rate()));
    Ok(out)
}

fn hist_delta(
    after: &[MetricsSnapshot],
    before: &[MetricsSnapshot],
    pick: fn(&MetricsSnapshot) -> &HistogramSnapshot,
) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for (a, b) in after.iter().zip(before) {
        merged.merge(&pick(a).delta_since(pick(b)));
    }
    merged
}

fn quantile_us(h: &HistogramSnapshot, q: f64) -> f64 {
    if h.is_empty() {
        0.0
    } else {
        h.quantile(q) as f64 / 1e3
    }
}

/// The traced run: per-layer metrics, the layer ledger and the
/// deterministic counts.
pub fn run_traced(args: &Args, spans: &mut SpanLog) -> Result<Outcome, String> {
    apc_trace::set_enabled(false);
    let pool = workload::wire_mul_pool(args.seed);
    let mut all = Segment::default();
    let (stack, mut clients, _) = set_up(&pool, &mut all)?;
    // Untraced and traced slices alternate, so a change in host speed
    // falls on both alike.
    let before = stack.shard_metrics();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < args.seconds {
        for traced_slice in [false, true] {
            apc_trace::set_enabled(traced_slice);
            let slice = closed_loop(&stack, &mut clients, &pool, SLICE_S, 0);
            if traced_slice {
                traced.push(slice.throughput());
            } else {
                untraced.push(slice.throughput());
            }
            all.absorb(slice);
        }
    }
    apc_trace::set_enabled(true);
    let after = stack.shard_metrics();
    drop(clients);

    let mut out = Outcome::default();
    let m = &mut out.metrics;
    m.push(
        "trace.overhead_ratio",
        stats::median(&traced) / stats::median(&untraced),
        "ratio",
    );

    let delta = |f: fn(&MetricsSnapshot) -> u64| -> Vec<u64> {
        after
            .iter()
            .zip(&before)
            .map(|(a, b)| f(a) - f(b))
            .collect()
    };
    let completed = delta(|s| s.completed);
    let total_done: u64 = completed.iter().sum();
    let batches: u64 = delta(|s| s.batches).iter().sum();
    let batched: u64 = delta(|s| s.batched_jobs).iter().sum();
    let submitted: u64 = delta(|s| s.submitted).iter().sum();
    let rejected: u64 = delta(|s| {
        s.rejected_full + s.rejected_oversized + s.rejected_shutdown + s.rejected_invalid
    })
    .iter()
    .sum();
    m.push(
        "serve.mean_batch_size",
        batched as f64 / batches.max(1) as f64,
        "jobs",
    );
    m.push(
        "serve.submit_us_p50",
        quantile_us(&hist_delta(&after, &before, |s| &s.submit_ns), 0.5),
        "us",
    );
    let queue = hist_delta(&after, &before, |s| &s.queue_wait_ns);
    m.push("serve.queue_wait_us_p50", quantile_us(&queue, 0.5), "us");
    m.push("serve.queue_wait_us_p99", quantile_us(&queue, 0.99), "us");
    m.push(
        "serve.batch_form_us_p50",
        quantile_us(&hist_delta(&after, &before, |s| &s.batch_form_ns), 0.5),
        "us",
    );
    let dispatch = hist_delta(&after, &before, |s| &s.dispatch_wait_ns);
    m.push(
        "serve.dispatch_wait_us_p50",
        quantile_us(&dispatch, 0.5),
        "us",
    );
    m.push(
        "serve.dispatch_wait_us_p99",
        quantile_us(&dispatch, 0.99),
        "us",
    );
    m.push(
        "serve.service_us_p50",
        quantile_us(&hist_delta(&after, &before, |s| &s.service_ns), 0.5),
        "us",
    );
    m.push(
        "serve.rejected_ratio",
        rejected as f64 / (submitted + rejected).max(1) as f64,
        "ratio",
    );
    let busiest = completed.iter().copied().max().unwrap_or(0);
    m.push(
        "router.max_shard_share",
        busiest as f64 / total_done.max(1) as f64,
        "ratio",
    );

    let ledger = ledger(&stack, &pool[..LEDGER_JOBS], spans)?;
    let net = stack.server.metrics();
    out.metrics.push(
        "net.decode_errors",
        net.decode_errors.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.metrics.push(
        "net.admission_rejects",
        net.admission_rejects.load(Ordering::Relaxed) as f64,
        "count",
    );
    stack.server.shutdown();

    // Deterministic counts: one round on a fresh analytic Device, twice;
    // the op counts and modeled cycles must repeat exactly.
    let first = device_counts(&pool[..WIRE_MUL_ROUND]);
    if first != device_counts(&pool[..WIRE_MUL_ROUND]) {
        out.failed_checks.push("device op counts".into());
    }
    out.notes.push(format!(
        "counts: one round of {WIRE_MUL_ROUND} jobs on a fresh Device records ops by class {:?} and \
         {} modeled cycles, the same twice",
        first.ops_by_class, first.cycles
    ));

    all.absorb(ledger.checks);
    out.attempted = all.attempted;
    out.failed = all.failed;
    out.mismatches = all.mismatches;
    if !ledger.reconciles {
        out.failed_checks
            .push("ledger parts do not account for the client mean".into());
    }
    out.metrics.0.extend(ledger.metrics.0);
    out.notes.extend(ledger.notes);
    out.metrics.push("error_rate", out.error_rate(), "ratio");
    Ok(out)
}

fn device_counts(cases: &[Case]) -> DeviceStats {
    let device = Device::new_default();
    for c in cases {
        std::hint::black_box(device.mul(&c.a, &c.b));
    }
    device.stats()
}

/// The serial layer ledger.
struct Ledger {
    metrics: Metrics,
    notes: Vec<String>,
    checks: Segment,
    reconciles: bool,
}

/// The ledger's layers, outermost last.
const LAYERS: [&str; 5] = [
    "layer.nat",
    "layer.device",
    "layer.router",
    "layer.codec",
    "layer.net",
];

/// Jobs the ledger replays, in blocks of [`LEDGER_BLOCK`] that keep each
/// layer's code warm.
const LEDGER_JOBS: usize = 512;
const LEDGER_BLOCK: usize = 64;

/// Replays `cases` at every layer in turn — `Nat` multiplication,
/// `Device::mul`, in-process `Router::submit_wait`, the wire codec, and
/// `NetClient::request` — one job at a time.
fn ledger(stack: &Stack, cases: &[Case], spans: &mut SpanLog) -> Result<Ledger, String> {
    let device = Device::new_default();
    let router = Router::from_handles(stack.handles.clone(), Router::DEFAULT_REPLICAS);
    let mut client = stack.connect()?;
    let passes = vec![cases; ledger::PASSES];
    let replay = ledger::replay(
        spans,
        &passes,
        LEDGER_BLOCK,
        &LAYERS,
        |spans, layer, case, parent, req| {
            // Every layer gets its own copy of the operands, made outside
            // its span.
            match layer {
                0 => {
                    let (a, b) = (case.a.clone(), case.b.clone());
                    let (r, id) = spans.time("nat.call", parent, req, || &a * &b);
                    (r == case.expected, id)
                }
                1 => {
                    let (a, b) = (case.a.clone(), case.b.clone());
                    let (r, id) = spans.time("device.call", parent, req, || device.mul(&a, &b));
                    (r == case.expected, id)
                }
                2 => {
                    let job = case.job();
                    let (r, id) = spans.time("router.submit_wait", parent, req, || {
                        router.submit_wait(job, JobSpec::default())
                    });
                    (r.is_ok_and(|rep| case.answers(&rep.output)), id)
                }
                3 => codec(spans, parent, req, case),
                _ => {
                    let job = case.job();
                    let (r, id) = spans.time("net.request", parent, req, || client.request(job));
                    (r.is_ok_and(|out| case.answers(&out)), id)
                }
            }
        },
    );
    let [nat, dev, routed, codec_us, net] = [0, 1, 2, 3, 4].map(|layer| replay.layer_us[layer]);
    let device_marginal = dev - nat;
    let serve_marginal = routed - dev;
    let unattributed = net - codec_us - routed;
    let parts = nat + device_marginal + serve_marginal + codec_us + unattributed;
    // Measured apart from the per-call spans the parts come from.
    let client_mean = replay.wall_us[4];
    let reconciles = ledger::reconciles(parts, client_mean);

    let mut metrics = Metrics::default();
    metrics.push("bignum.mul_us", nat, "us");
    metrics.push("device.marginal_us", device_marginal, "us");
    metrics.push("serve.marginal_us", serve_marginal, "us");
    metrics.push("wire.codec_us", codec_us, "us");
    metrics.push("net.marginal_us", net - routed, "us");
    metrics.push("net.unattributed_us", unattributed, "us");
    metrics.push("ledger.client_mean_us", client_mean, "us");
    let notes = vec![format!(
        "ledger ({} jobs × {} passes in blocks of {LEDGER_BLOCK}, serial, µs/job): apc-bignum {nat:.3} + device \
         {device_marginal:.3} + serve {serve_marginal:.3} + codec {codec_us:.3} + unattributed {unattributed:.3} \
         = {parts:.3}; client-observed mean {client_mean:.3} (wall time of the NetClient blocks per job); \
         benchmark glue {:.3} µs per layer call",
        cases.len(),
        ledger::PASSES,
        replay.glue_us
    )];
    let checks = Segment {
        attempted: replay.calls,
        ok: replay.calls - replay.mismatches,
        failed: replay.mismatches,
        mismatches: replay.mismatches,
        ..Segment::default()
    };
    Ok(Ledger {
        metrics,
        notes,
        checks,
        reconciles,
    })
}

/// Request and response encode/decode for one job, as the client and
/// server run them, under one `wire.codec` span.
fn codec(spans: &mut SpanLog, parent: Option<SpanId>, req: u64, case: &Case) -> (bool, SpanId) {
    let request = Request {
        req_id: req,
        job: case.job(),
    };
    let response = Response {
        req_id: req,
        body: ResponseBody::Output(JobOutput::Product(case.expected.clone())),
    };
    let id = spans.open("wire.codec", parent, req);
    let p = Some(id);
    let (bytes, _) = spans.time("wire.encode_request", p, req, || {
        wire::encode_request(&request)
    });
    let (decoded, _) = spans.time("wire.decode_request", p, req, || {
        wire::decode_request(&bytes)
    });
    let (bytes, _) = spans.time("wire.encode_response", p, req, || {
        wire::encode_response(&response)
    });
    let (back, _) = spans.time("wire.decode_response", p, req, || {
        wire::decode_response(&bytes)
    });
    spans.close(id);
    let same_job = |job: &Job| matches!(job, Job::Mul { a, b } if *a == case.a && *b == case.b);
    let ok = decoded.is_ok_and(|d| d.req_id == req && same_job(&d.job))
        && back.is_ok_and(|b| b == response);
    (ok, id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use apc_bignum::Nat;
    use apc_net::Rejection;

    #[test]
    fn a_corrupted_result_is_caught() {
        let (a, b) = (Nat::from(0xDEAD_BEEFu64), Nat::from(0x1234_5678u64));
        let expected = &a * &b;
        let case = Case {
            a,
            b,
            expected: expected.clone(),
        };
        let corrupted = JobOutput::Product(&expected + &Nat::one());
        let mut seg = Segment::default();
        let right = Ok(JobOutput::Product(expected));
        assert_eq!(seg.record(&right, &case), Verdict::Correct);
        assert_eq!(seg.record(&Ok(corrupted), &case), Verdict::Failed);
        let rejected = Err(NetError::Rejected(Rejection::Shutdown));
        assert_eq!(seg.record(&rejected, &case), Verdict::Failed);
        assert_eq!(
            (seg.attempted, seg.ok, seg.failed, seg.mismatches),
            (3, 1, 2, 1)
        );
        let outcome = Outcome {
            attempted: seg.attempted,
            failed: seg.failed,
            mismatches: seg.mismatches,
            ..Outcome::default()
        };
        assert!(!outcome.correct());
    }

    #[test]
    fn claims_stop_at_a_round_boundary() {
        let claimer = Claimer {
            state: Mutex::new((0, false)),
            round: 4,
            min_claims: 3,
            deadline: Instant::now(),
        };
        let claimed: Vec<usize> = std::iter::from_fn(|| claimer.next()).collect();
        assert_eq!(claimed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn device_counts_repeat_for_one_seed() {
        let first = device_counts(&workload::wire_mul_pool(5)[..8]);
        assert_eq!(first, device_counts(&workload::wire_mul_pool(5)[..8]));
        assert!(first.cycles > 0);
    }
}
