//! Standalone apc-net server: a least-loaded router of Device-backed
//! serving shards behind one TCP endpoint.
//!
//! ```text
//! apc_net_server [--addr 127.0.0.1:7311] [--shards 2] [--workers 2] \
//!                [--token TOKEN]...
//! ```
//!
//! At least one `--token` is required (the listener is fail-closed:
//! with no tokens it rejects every hello). Scrape metrics with
//! `curl http://ADDR/metrics`.

use apc_net::{NetServer, NetServerConfig, Router};
use apc_serve::ServeConfig;
use std::process::ExitCode;

/// Parses a count flag's value. Zero is refused, not clamped: a server
/// with no shard or no worker device could serve nothing.
fn positive(flag: &str, value: &str) -> Result<usize, ()> {
    match value.parse() {
        Ok(n) if n > 0 => Ok(n),
        _ => {
            eprintln!("{flag} wants a positive integer, got {value}");
            Err(())
        }
    }
}

fn main() -> ExitCode {
    let mut addr = String::from("127.0.0.1:7311");
    let mut shards = 2usize;
    let mut workers = 2usize;
    let mut tokens: Vec<Vec<u8>> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |name: &str| match args.next() {
            Some(v) => Ok(v),
            None => {
                eprintln!("missing value for {name}");
                Err(())
            }
        };
        let parsed = match flag.as_str() {
            "--addr" => take("--addr").map(|v| addr = v),
            "--shards" => {
                take("--shards").and_then(|v| positive("--shards", &v)).map(|n| shards = n)
            }
            "--workers" => {
                take("--workers").and_then(|v| positive("--workers", &v)).map(|n| workers = n)
            }
            "--token" => take("--token").map(|v| tokens.push(v.into_bytes())),
            other => {
                eprintln!("unknown flag {other}");
                eprintln!(
                    "usage: apc_net_server [--addr A] [--shards N] [--workers N] [--token T]..."
                );
                Err(())
            }
        };
        if parsed.is_err() {
            return ExitCode::FAILURE;
        }
    }
    if tokens.is_empty() {
        eprintln!("refusing to start with no --token: the listener would reject every client");
        return ExitCode::FAILURE;
    }

    let serve_cfg = ServeConfig { workers, ..ServeConfig::default() };
    let router = match Router::start(shards, serve_cfg) {
        Ok(router) => router,
        Err(e) => {
            eprintln!("refusing to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shard_count = router.shard_count();
    let server = match NetServer::start(
        addr.as_str(),
        router,
        NetServerConfig { tokens, ..NetServerConfig::default() },
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("failed to start on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "apc-net serving on {} ({} shard(s) x {} worker device(s)); metrics at http://{}/metrics",
        server.local_addr(),
        shard_count,
        workers,
        server.local_addr(),
    );
    // Serve until killed; the connection workers do all the work.
    loop {
        std::thread::park();
    }
}
