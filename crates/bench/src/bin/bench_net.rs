//! Network-layer throughput over loopback TCP, written as
//! machine-readable JSON to `BENCH_net_throughput.json` at the repo
//! root.
//!
//! Closed-loop clients drive a real `NetServer` fronting a 2-shard
//! `Router` (each shard its own `ServeHandle` and `Device`s) that
//! sends each job to the live shard with the fewest jobs in flight,
//! ties to the job's consistent-hash ring owner. Every client holds
//! one authenticated connection and submits its next multiply only
//! after decoding the previous response, so offered load scales with the client count and every result
//! crosses the full encode → TCP → decode → route → serve → encode →
//! TCP → decode loop. An in-process `submit_wait` loop against an
//! identical single service is timed as the no-network reference, which
//! prices the wire (framing + syscalls + loopback) at this operand
//! size.
//!
//! The run finishes with a real `GET /metrics` scrape over the same
//! listener and embeds the `apc_net_*` counter values it saw — the
//! accept-time truth that frames actually flowed. Each load point
//! repeats its closed-loop run (fresh connections per run) until the
//! sample floor is reached and reports the run time's median and
//! quartiles.

use apc_bench::{header, sample, Report, Sample, BENCH_FLOOR_SECONDS};
use apc_bignum::Nat;
use apc_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, Router};
use apc_serve::{Job, JobOutput, JobSpec, ServeConfig, ServeHandle};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::{Read, Write as _};
use std::net::TcpStream;

const OPERAND_BITS: u64 = 2048;
const JOBS_PER_CLIENT: usize = 100;
const SHARDS: usize = 2;
const DEVICES_PER_SHARD: usize = 1;
const CONN_WORKERS: usize = 8;
const CLIENT_COUNTS: [usize; 3] = [1, 2, 4];
const TOKEN: &[u8] = b"bench-tenant";

fn random_nat(rng: &mut StdRng, bits: u64) -> Nat {
    let limbs = (bits as usize).div_ceil(64).max(1);
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.next_u64()).collect();
    if let Some(top) = v.last_mut() {
        *top |= 1 << 63;
    }
    Nat::from_limbs(v)
}

fn serve_config() -> ServeConfig {
    ServeConfig { workers: DEVICES_PER_SHARD, ..ServeConfig::default() }
}

/// Repeated closed-loop runs: `clients` threads, each its own
/// connection, each `JOBS_PER_CLIENT` multiplies per run.
fn run_load_point(addr: std::net::SocketAddr, clients: usize) -> Sample {
    sample(BENCH_FLOOR_SECONDS, || {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                std::thread::spawn(move || {
                    let cfg =
                        NetClientConfig { token: TOKEN.to_vec(), ..NetClientConfig::default() };
                    let mut client = NetClient::connect(addr, &cfg).expect("connect");
                    let mut rng = StdRng::seed_from_u64(0xBE7 + c as u64);
                    for _ in 0..JOBS_PER_CLIENT {
                        let a = random_nat(&mut rng, OPERAND_BITS);
                        let b = random_nat(&mut rng, OPERAND_BITS);
                        let expect = &a * &b;
                        match client.request(Job::Mul { a, b }).expect("request") {
                            JobOutput::Product(p) => assert_eq!(p, expect, "wire corrupted a product"),
                            other => panic!("multiply answered {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    })
}

/// The same closed loop with no network: in-process submit_wait against
/// one identical service instance.
fn run_inprocess_reference() -> Sample {
    let serve = ServeHandle::start(serve_config());
    let mut rng = StdRng::seed_from_u64(0xBE7);
    let runs = sample(BENCH_FLOOR_SECONDS, || {
        for _ in 0..JOBS_PER_CLIENT {
            let a = random_nat(&mut rng, OPERAND_BITS);
            let b = random_nat(&mut rng, OPERAND_BITS);
            serve.submit_wait(Job::Mul { a, b }, JobSpec::default()).expect("submit");
        }
    });
    serve.shutdown();
    runs
}

/// Raw-HTTP scrape of `GET /metrics` on the protocol listener.
fn scrape_metrics(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect for scrape");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .expect("write scrape");
    let mut body = String::new();
    stream.read_to_string(&mut body).expect("read scrape");
    body
}

/// First sample value of a Prometheus counter family in a scrape body.
fn counter_value(scrape: &str, family: &str) -> u64 {
    scrape
        .lines()
        .find(|l| l.starts_with(family) && !l.starts_with('#'))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn main() {
    header("apc-net loopback throughput (closed-loop TCP clients)");
    println!(
        "{OPERAND_BITS}-bit multiplies, {SHARDS} shard(s) x {DEVICES_PER_SHARD} device(s), \
         {CONN_WORKERS} connection worker(s), {JOBS_PER_CLIENT} jobs/client"
    );
    println!();

    let mut report = Report::new(
        "net_throughput",
        "analytic Device::mul via apc-net, routed to the least-loaded live shard (ties to \
         the ring owner), and apc-serve submit_wait (every job on the connection worker's \
         thread, on a device free at admission or handed on in FIFO order)",
    );
    for (name, value) in [
        ("operand_bits", OPERAND_BITS as usize),
        ("shards", SHARDS),
        ("devices_per_shard", DEVICES_PER_SHARD),
        ("conn_workers", CONN_WORKERS),
        ("jobs_per_client", JOBS_PER_CLIENT),
    ] {
        report.gauge(name, &[], value as f64);
    }
    let router = Router::start(SHARDS, serve_config()).expect("valid shard config");
    let server = NetServer::start(
        "127.0.0.1:0",
        router,
        NetServerConfig {
            conn_workers: CONN_WORKERS,
            tokens: vec![TOKEN.to_vec()],
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();

    let inprocess = run_inprocess_reference();
    let inprocess_jobs_per_s = JOBS_PER_CLIENT as f64 / inprocess.median;
    println!("in-process reference (no network): {inprocess_jobs_per_s:.1} jobs/s");
    report.sample("inprocess_run_seconds", &[], &inprocess);
    report.gauge("inprocess_jobs_per_s", &[], inprocess_jobs_per_s);

    let mut peak = 0.0f64;
    let mut expected_jobs = 0u64;
    for &clients in &CLIENT_COUNTS {
        let runs = run_load_point(addr, clients);
        let jobs_per_run = clients * JOBS_PER_CLIENT;
        let throughput = jobs_per_run as f64 / runs.median;
        println!(
            "{clients:>2} client(s): {throughput:.1} jobs/s over TCP ({} runs)",
            runs.reps
        );
        let point = [("clients", clients.to_string())];
        report.sample("run_seconds", &point, &runs);
        report.gauge("jobs_per_s", &point, throughput);
        peak = peak.max(throughput);
        expected_jobs += (jobs_per_run * runs.reps) as u64;
    }
    report.gauge(
        "wire_overhead_vs_inprocess",
        &[],
        inprocess_jobs_per_s / peak,
    );

    let scrape = scrape_metrics(addr);
    let frames_in = counter_value(&scrape, "apc_net_frames_in_total");
    let frames_out = counter_value(&scrape, "apc_net_frames_out_total");
    let jobs_ok = counter_value(&scrape, "apc_net_jobs_ok_total");
    println!();
    println!(
        "GET /metrics scrape: frames_in {frames_in}, frames_out {frames_out}, jobs_ok {jobs_ok}"
    );
    // The acceptance contract: a scrape over the real listener shows
    // the frames this benchmark pushed.
    assert!(
        frames_in > expected_jobs,
        "scrape lost the benchmark's request frames"
    );
    assert!(
        jobs_ok == expected_jobs,
        "scrape jobs_ok {jobs_ok} != {expected_jobs} submitted"
    );
    for (name, value) in [
        ("apc_net_frames_in_total", frames_in),
        ("apc_net_frames_out_total", frames_out),
        ("apc_net_jobs_ok_total", jobs_ok),
    ] {
        report.gauge(name, &[("source", "metrics_scrape".into())], value as f64);
    }

    server.shutdown();
    report.write();
}
