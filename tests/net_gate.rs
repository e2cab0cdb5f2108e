//! Tier-1 gate for the network layer (`apc-net`).
//!
//! Eight contracts, each load-bearing for the off-box serving story:
//!
//! 1. **Bit-exactness over the wire** — a randomized cross-bucket job
//!    mix sent through `NetClient → NetServer → Router (2 shards)` must
//!    decode to results identical to a private `Device`. TCP framing,
//!    limb encoding, least-loaded routing, and batch scheduling may
//!    reorder *execution*, never *values*.
//! 2. **Fail-closed framing** — a frame whose length prefix exceeds the
//!    cap derived from `max_operand_bits` is answered with the typed
//!    `OversizedFrame` status before its body is read.
//! 3. **Auth at accept time** — a wrong tenant token is rejected with
//!    the typed `AuthRejected` status before any operand is sent.
//! 4. **Graceful drain** — shutdown lets in-flight connections finish:
//!    a request already accepted still receives its (bit-exact)
//!    response, and only then does the listener go away.
//! 5. **Drain never waits on a stalled peer** — shutdown finishes,
//!    under a watchdog, while a peer sits idle, stalls after 2 of the 4
//!    length-prefix bytes, or stalls mid-way through a `GET` head.
//! 6. **Untrusted bytes fail typed** — a seeded fuzzer round-trips
//!    valid hello/request/response frames and feeds mutated ones
//!    (byte flips, truncation, lying length prefixes and limb counts)
//!    through `read_frame` and the decoders, which must return typed
//!    errors, never panic, never read past an over-cap prefix, and
//!    never build a `Nat` wider than its payload.
//! 7. **One bucket rule** — the router keys each job by the same
//!    operand bucket its shard's report names, at every width (64 bits
//!    and under share one bucket).
//! 8. **No waiting with a shard per caller** — N threads sending one
//!    width through an N-shard router of one-device shards always find
//!    a shard with nothing in flight, so every job finds a device free
//!    and none waits for a hand-off.
//! 9. **Framing survives any segmentation** — the server reads each
//!    connection through one held reader: two request frames sent in
//!    one write get two in-order, bit-exact answers, and a request sent
//!    one byte per write still gets its answer. Every encoder sizes its
//!    payload exactly (`capacity() == len()`, checked in the fuzzer).

use apc_bignum::Nat;
use apc_net::wire::{self, FrameError, Hello, Request, Response, ResponseBody};
use apc_net::{
    NetClient, NetClientConfig, NetError, NetServer, NetServerConfig, Rejection, Router,
    WireError, WireStatus,
};
use apc_serve::{operand_bucket, Job, JobOutput, JobSpec, ServeConfig, ServeHandle};
use cambricon_p::Device;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

const TOKEN: &[u8] = b"tenant-alpha";

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

fn start_server(shards: usize) -> NetServer<Router> {
    let serve_cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let router = Router::start(shards, serve_cfg).expect("valid shard config");
    NetServer::start(
        "127.0.0.1:0",
        router,
        NetServerConfig { tokens: vec![TOKEN.to_vec()], ..NetServerConfig::default() },
    )
    .expect("bind loopback")
}

fn client_config() -> NetClientConfig {
    NetClientConfig { token: TOKEN.to_vec(), ..NetClientConfig::default() }
}

#[test]
fn loopback_round_trip_is_bit_identical_to_direct_device() {
    let server = start_server(2);
    let device = Device::new_default();
    let mut client = NetClient::connect(server.local_addr(), &client_config()).expect("connect");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xA9C_2022);
    for i in 0..24u64 {
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
        let expected = direct(&device, &job);
        let got = client.request(job).expect("request succeeds");
        assert_eq!(got, expected, "wire result diverged from direct device at job {i}");
    }
    // The scrape-visible counters saw this traffic.
    let metrics = server.metrics();
    assert!(metrics.frames_in.load(std::sync::atomic::Ordering::Relaxed) >= 25);
    assert!(metrics.jobs_ok.load(std::sync::atomic::Ordering::Relaxed) == 24);
    server.shutdown();
}

#[test]
fn router_keys_each_job_by_the_bucket_its_queue_reports() {
    let router = Router::start(4, ServeConfig { workers: 1, ..ServeConfig::default() })
        .expect("valid shard config");
    for bits in [1u64, 7, 33, 63, 64, 65, 100, 2048, 4097] {
        let job = Job::Mul { a: Nat::power_of_two(bits - 1), b: Nat::one() };
        let report = router.submit_wait(job, JobSpec::default()).expect("accepted and completed");
        let (key, _) = operand_bucket(bits);
        assert_eq!(report.bucket_bits, key, "{bits}-bit job: queue bucket vs router key");
        // The router sends the width where it sends its bucket's ceiling.
        assert_eq!(
            router.shard_for_bits(bits),
            router.shard_for_bits(report.bucket_bits),
            "{bits}-bit job routed apart from its bucket"
        );
    }
    router.shutdown();
}

#[test]
fn one_caller_per_shard_never_stages_a_job() {
    // Deterministic, with no timing involved: N callers hold at most N
    // in-flight slots, so the least-loaded shard has none in flight;
    // its one device is then free, and no job waits for a hand-off.
    const SHARDS: usize = 3;
    const JOBS_PER_CALLER: usize = 200;
    let cfg = ServeConfig { workers: 1, ..ServeConfig::default() };
    let handles: Vec<ServeHandle> = (0..SHARDS).map(|_| ServeHandle::start(cfg.clone())).collect();
    let router = Router::from_handles(handles.clone(), Router::DEFAULT_REPLICAS);
    std::thread::scope(|scope| {
        for caller in 0..SHARDS {
            let router = &router;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x5AAD + caller as u64);
                let device = Device::new_default();
                for _ in 0..JOBS_PER_CALLER {
                    let (a, b) = (random_nat(&mut rng, 2048), random_nat(&mut rng, 2048));
                    let job = Job::Mul { a, b };
                    let expected = direct(&device, &job);
                    let report = router.submit_wait(job, JobSpec::default()).expect("served");
                    assert_eq!(report.output, expected, "caller {caller}: wrong product");
                }
            });
        }
    });
    let mut completed = 0;
    for (i, handle) in handles.iter().enumerate() {
        let m = handle.metrics();
        assert_eq!(m.inline_jobs, m.completed, "shard {i} made a job wait: {m:?}");
        completed += m.completed;
    }
    assert_eq!(completed, (SHARDS * JOBS_PER_CALLER) as u64);
    router.shutdown();
}

#[test]
fn oversized_frame_is_rejected_with_the_typed_status() {
    let server = start_server(1);
    // Handshake by hand so we control the raw bytes afterwards.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&wire::MAGIC).expect("preamble");
    let hello = wire::encode_hello(&wire::Hello { token: TOKEN.to_vec() });
    wire::write_frame(&mut stream, &hello).expect("hello");
    let ack = wire::read_frame(&mut stream, 1 << 16).expect("ack frame");
    let ack = wire::decode_response(&ack).expect("ack decodes");
    assert_eq!(ack.body, wire::ResponseBody::Ack);

    // A length prefix far beyond the cap derived from max_operand_bits.
    // The body is never sent — the server must answer from the prefix
    // alone and close.
    stream.write_all(&u32::MAX.to_le_bytes()).expect("hostile prefix");
    let resp = wire::read_frame(&mut stream, 1 << 16).expect("rejection frame");
    let resp = wire::decode_response(&resp).expect("rejection decodes");
    assert_eq!(resp.body, wire::ResponseBody::Failed(WireStatus::OversizedFrame));
    // And the connection is closed behind it.
    let mut rest = Vec::new();
    let _ = stream.read_to_end(&mut rest);
    assert!(rest.is_empty(), "server kept talking after a framing violation");
    assert_eq!(
        server.metrics().oversized_frames.load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    server.shutdown();
}

#[test]
fn bad_auth_token_is_rejected_before_any_operand() {
    let server = start_server(1);
    let bad = NetClientConfig { token: b"wrong-tenant".to_vec(), ..NetClientConfig::default() };
    match NetClient::connect(server.local_addr(), &bad) {
        Err(NetError::Server(WireStatus::AuthRejected)) => {}
        other => panic!("expected typed AuthRejected, got {other:?}"),
    }
    assert_eq!(server.metrics().auth_rejects.load(std::sync::atomic::Ordering::Relaxed), 1);
    // The right token still works on the same listener.
    let mut ok = NetClient::connect(server.local_addr(), &client_config()).expect("good token");
    let a = Nat::from(12345u64);
    let out = ok.request(Job::Mul { a: a.clone(), b: a.clone() }).expect("request");
    assert_eq!(out, JobOutput::Product(&a * &a));
    server.shutdown();
}

#[test]
fn shutdown_drains_in_flight_connections() {
    let server = start_server(2);
    let addr = server.local_addr();
    let device = Device::new_default();

    // A connected client with a request already in flight when
    // shutdown begins: big operands so service time comfortably
    // overlaps the drain.
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a = random_nat(&mut rng, 60_000);
    let b = random_nat(&mut rng, 60_000);
    let expected = direct(&device, &Job::Mul { a: a.clone(), b: b.clone() });

    let handle = std::thread::spawn(move || {
        let mut client = NetClient::connect(addr, &client_config()).expect("connect");
        client.request(Job::Mul { a, b })
    });
    // Give the client thread time to get its request admitted, then
    // drain. (Sleeping in tests is fine; the library itself never does.)
    #[expect(clippy::disallowed_methods, reason = "test pacing before the drain")]
    std::thread::sleep(std::time::Duration::from_millis(100));
    server.shutdown();

    let got = handle.join().expect("client thread").expect("in-flight request completes");
    assert_eq!(got, expected, "drained response lost bit-exactness");

    // After the drain the listener is gone: new connects fail or are
    // reset before a handshake completes.
    assert!(
        NetClient::connect(addr, &client_config()).is_err(),
        "listener survived shutdown"
    );
}

/// A raw connection that has passed the hello/auth handshake, so the
/// server is blocked reading its first request frame.
fn authenticated_peer(server: &NetServer<Router>) -> TcpStream {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream.write_all(&wire::MAGIC).expect("preamble");
    let hello = wire::encode_hello(&Hello { token: TOKEN.to_vec() });
    wire::write_frame(&mut stream, &hello).expect("hello");
    let ack = wire::read_frame(&mut stream, 1 << 16).expect("ack frame");
    assert_eq!(wire::decode_response(&ack).expect("ack decodes").body, ResponseBody::Ack);
    stream
}

/// Bounds every read on a test's raw peer: a server that lost a frame
/// fails the test instead of hanging it.
#[expect(
    clippy::disallowed_methods,
    reason = "test watchdog: a lost frame fails the test instead of hanging it"
)]
fn with_read_watchdog(peer: TcpStream) -> TcpStream {
    peer.set_read_timeout(Some(Duration::from_secs(20))).expect("read timeout");
    peer
}

/// A seeded 2048×2048-bit multiply request and its direct product.
fn mul_request(rng: &mut StdRng, device: &Device, req_id: u64) -> (Request, JobOutput) {
    let job = Job::Mul { a: random_nat(rng, 2048), b: random_nat(rng, 2048) };
    let expected = direct(device, &job);
    (Request { req_id, job }, expected)
}

/// Reads one response frame from `peer` and checks it answers `req_id`
/// with `expected`.
fn expect_answer(peer: &mut TcpStream, req_id: u64, expected: JobOutput) {
    let frame = wire::read_frame(peer, 1 << 16).expect("response frame");
    let response = wire::decode_response(&frame).expect("response decodes");
    assert_eq!(response.req_id, req_id, "answers arrived out of order");
    assert_eq!(response.body, ResponseBody::Output(expected), "request {req_id}: wrong product");
}

#[test]
fn two_frames_in_one_write_get_two_in_order_answers() {
    let server = start_server(1);
    let device = Device::new_default();
    let mut rng = StdRng::seed_from_u64(0x919E_11ED);
    let mut peer = with_read_watchdog(authenticated_peer(&server));
    let (first, first_out) = mul_request(&mut rng, &device, 41);
    let (second, second_out) = mul_request(&mut rng, &device, 42);
    // Both frames in one write: the server's first read takes both, and
    // the second must survive in its reader until the first is answered.
    let mut both = Vec::new();
    wire::write_frame(&mut both, &wire::encode_request(&first)).expect("write to Vec");
    wire::write_frame(&mut both, &wire::encode_request(&second)).expect("write to Vec");
    peer.write_all(&both).expect("two frames");
    expect_answer(&mut peer, 41, first_out);
    expect_answer(&mut peer, 42, second_out);
    server.shutdown();
}

#[test]
fn a_request_written_one_byte_per_write_gets_its_answer() {
    let server = start_server(1);
    let device = Device::new_default();
    let mut rng = StdRng::seed_from_u64(0xB17E);
    let mut peer = with_read_watchdog(authenticated_peer(&server));
    // Nagle off, so each byte leaves in its own segment.
    peer.set_nodelay(true).expect("nodelay");
    let (request, expected) = mul_request(&mut rng, &device, 7);
    let mut frame = Vec::new();
    wire::write_frame(&mut frame, &wire::encode_request(&request)).expect("write to Vec");
    for byte in &frame {
        peer.write_all(std::slice::from_ref(byte)).expect("one byte");
    }
    expect_answer(&mut peer, 7, expected);
    server.shutdown();
}

/// Shuts `server` down on its own thread and fails, instead of hanging,
/// if the drain has not finished within the watchdog's bound; then
/// checks that `peer` was closed without an answer.
#[expect(
    clippy::disallowed_methods,
    reason = "test watchdog: a lost wakeup fails the test instead of hanging it"
)]
fn drain_under_watchdog(server: NetServer<Router>, mut peer: TcpStream, state: &str) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    assert!(
        done_rx.recv_timeout(Duration::from_secs(20)).is_ok(),
        "shutdown hung on a peer stalled {state}"
    );
    let mut rest = Vec::new();
    let _ = peer.read_to_end(&mut rest);
    assert!(rest.is_empty(), "a peer stalled {state} was answered during the drain");
}

#[test]
fn shutdown_drains_past_a_peer_stalled_mid_length_prefix() {
    let server = start_server(1);
    let mut peer = authenticated_peer(&server);
    peer.write_all(&64u32.to_le_bytes()[..2]).expect("half a prefix");
    drain_under_watchdog(server, peer, "after 2 of the 4 prefix bytes");
}

#[test]
fn shutdown_drains_past_a_peer_stalled_mid_http_head() {
    let server = start_server(1);
    let mut peer = TcpStream::connect(server.local_addr()).expect("connect");
    peer.write_all(b"GET /metr").expect("partial head");
    // Let the worker get into the head before the drain starts.
    #[expect(clippy::disallowed_methods, reason = "test pacing before the drain")]
    std::thread::sleep(Duration::from_millis(50));
    drain_under_watchdog(server, peer, "mid-way through a GET head");
}

#[test]
fn shutdown_drains_past_an_idle_peer() {
    let server = start_server(1);
    let peer = authenticated_peer(&server);
    drain_under_watchdog(server, peer, "idle");
}

/// The fuzzer's frame-read cap: every valid frame it builds fits under
/// it, most random length prefixes do not.
const FUZZ_CAP: u64 = 4096;

fn fuzz_nat(rng: &mut StdRng) -> Nat {
    let limbs = rng.gen_range(0usize..6);
    Nat::from_limbs((0..limbs).map(|_| rng.next_u64()).collect())
}

fn fuzz_bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    let mut out = vec![0u8; rng.gen_range(0..=max)];
    rng.fill(&mut out);
    out
}

/// Each encoder sizes its buffer once, from the message: no growth
/// past the payload, no slack left behind.
fn assert_exact_size(payload: &Vec<u8>) {
    assert_eq!(payload.capacity(), payload.len(), "encoder grew or over-sized its buffer");
}

/// A valid payload of one frame kind, checked to round-trip, plus the
/// payload offsets of its `Nat` limb counts.
fn valid_payload(rng: &mut StdRng) -> (Vec<u8>, Vec<usize>) {
    // Byte offset of the first operand: version, kind, req_id, op or
    // status (+ output kind for responses).
    fn counts(first: usize, nats: &[&Nat]) -> Vec<usize> {
        let mut at = first;
        nats.iter()
            .map(|n| {
                let here = at;
                at += 4 + 8 * n.limbs().len();
                here
            })
            .collect()
    }
    match rng.gen_range(0u8..3) {
        0 => {
            let hello = Hello { token: fuzz_bytes(rng, wire::MAX_TOKEN_LEN) };
            let payload = wire::encode_hello(&hello);
            assert_exact_size(&payload);
            assert_eq!(wire::decode_hello(&payload).expect("valid hello"), hello);
            (payload, Vec::new())
        }
        1 => {
            let (a, b, c) = (fuzz_nat(rng), fuzz_nat(rng), fuzz_nat(rng));
            let (job, nats) = match rng.gen_range(0u8..4) {
                0 => (Job::Mul { a: a.clone(), b: b.clone() }, vec![&a, &b]),
                1 => (Job::Div { a: a.clone(), b: b.clone() }, vec![&a, &b]),
                2 => (Job::Sqrt { a: a.clone() }, vec![&a]),
                _ => (
                    Job::ModExp { base: a.clone(), exp: b.clone(), modulus: c.clone() },
                    vec![&a, &b, &c],
                ),
            };
            let request = Request { req_id: rng.next_u64(), job };
            let payload = wire::encode_request(&request);
            assert_exact_size(&payload);
            let decoded = wire::decode_request(&payload).expect("valid request");
            assert_eq!(decoded.req_id, request.req_id);
            // Job has no PartialEq; compare through the debug form.
            assert_eq!(format!("{:?}", decoded.job), format!("{:?}", request.job));
            (payload, counts(11, &nats))
        }
        _ => {
            let (a, b) = (fuzz_nat(rng), fuzz_nat(rng));
            let (body, nats) = match rng.gen_range(0u8..9) {
                0 => (ResponseBody::Output(JobOutput::Product(a.clone())), vec![&a]),
                1 => (
                    ResponseBody::Output(JobOutput::DivRem {
                        quotient: a.clone(),
                        remainder: b.clone(),
                    }),
                    vec![&a, &b],
                ),
                2 => (
                    ResponseBody::Output(JobOutput::SqrtRem {
                        root: a.clone(),
                        remainder: b.clone(),
                    }),
                    vec![&a, &b],
                ),
                3 => (ResponseBody::Output(JobOutput::PowMod(a.clone())), vec![&a]),
                4 => (ResponseBody::Ack, Vec::new()),
                5 => (
                    ResponseBody::Rejected(Rejection::QueueFull { capacity: rng.next_u64() }),
                    Vec::new(),
                ),
                6 => (
                    ResponseBody::Rejected(Rejection::OversizedOperand {
                        bits: rng.next_u64(),
                        max_bits: rng.next_u64(),
                    }),
                    Vec::new(),
                ),
                7 => {
                    let reason: String = (0..rng.gen_range(0usize..40))
                        .map(|_| char::from(rng.gen_range(b' '..=b'~')))
                        .collect();
                    (ResponseBody::Rejected(Rejection::InvalidJob(reason)), Vec::new())
                }
                _ => (ResponseBody::Failed(WireStatus::MalformedFrame), Vec::new()),
            };
            let response = Response { req_id: rng.next_u64(), body };
            let payload = wire::encode_response(&response);
            assert_exact_size(&payload);
            assert_eq!(wire::decode_response(&payload).expect("valid response"), response);
            (payload, counts(12, &nats))
        }
    }
}

/// Every decoder on `payload`: errors must be typed (a panic fails the
/// test), and no decoded `Nat` may be wider than the payload carries.
fn decode_all(payload: &[u8]) {
    let limb_bound = payload.len() / 8;
    let fits = |n: &Nat| assert!(n.limbs().len() <= limb_bound, "Nat wider than its payload");
    let _: Result<Hello, WireError> = wire::decode_hello(payload);
    if let Ok(request) = wire::decode_request(payload) {
        match &request.job {
            Job::Mul { a, b } | Job::Div { a, b } => {
                fits(a);
                fits(b);
            }
            Job::Sqrt { a } => fits(a),
            Job::ModExp { base, exp, modulus } => {
                fits(base);
                fits(exp);
                fits(modulus);
            }
        }
    }
    let response = wire::decode_response(payload);
    if let Ok(Response { body: ResponseBody::Output(output), .. }) = response {
        match &output {
            JobOutput::Product(p) | JobOutput::PowMod(p) => fits(p),
            JobOutput::DivRem { quotient: x, remainder: y }
            | JobOutput::SqrtRem { root: x, remainder: y } => {
                fits(x);
                fits(y);
            }
        }
    }
}

#[test]
fn wire_fuzz_round_trips_valid_frames_and_types_every_mutation() {
    let mut rng = StdRng::seed_from_u64(0x0F02_2A9C);
    for _ in 0..4000 {
        let (payload, limb_counts) = valid_payload(&mut rng);
        let mut frame = Vec::new();
        wire::write_frame(&mut frame, &payload).expect("write to Vec");
        assert_eq!(wire::read_frame(&mut &frame[..], FUZZ_CAP).expect("valid frame"), payload);

        match rng.gen_range(0u8..4) {
            0 => {
                for _ in 0..rng.gen_range(1usize..4) {
                    let at = rng.gen_range(0..frame.len());
                    frame[at] ^= 1 << rng.gen_range(0u32..8);
                }
            }
            1 => frame.truncate(rng.gen_range(0..frame.len())),
            2 => {
                let len = if rng.gen_bool(0.5) {
                    rng.next_u64() as u32
                } else {
                    (payload.len() as u32).wrapping_add(rng.gen_range(0u32..17)).wrapping_sub(8)
                };
                frame[..4].copy_from_slice(&len.to_le_bytes());
            }
            _ => {
                if let Some(&at) = limb_counts.get(rng.gen_range(0..limb_counts.len().max(1))) {
                    let count = if rng.gen_bool(0.5) {
                        rng.next_u64() as u32
                    } else {
                        rng.gen_range(0u32..12)
                    };
                    frame[4 + at..8 + at].copy_from_slice(&count.to_le_bytes());
                }
            }
        }

        let mut reader = &frame[..];
        match wire::read_frame(&mut reader, FUZZ_CAP) {
            Ok(body) => decode_all(&body),
            Err(FrameError::TooLarge { len, cap }) => {
                assert!(len > cap && cap == FUZZ_CAP);
                assert_eq!(reader.len(), frame.len() - 4, "an over-cap frame's body was read");
            }
            Err(FrameError::Io(_)) => {}
        }
        // The decoders also see the raw mutated bytes, prefix or not.
        decode_all(frame.get(4..).unwrap_or_default());
    }
}
