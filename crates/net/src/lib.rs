//! # apc-net — network front-end and multi-device sharding for apc-serve
//!
//! The ROADMAP's north star is a *service*: heavy traffic from many
//! tenants against a complex of accelerators. apc-serve (PR 3) gave
//! that service its in-process shape — typed jobs, bounded admission,
//! batch scheduling over `Device` workers — but nothing off-box could
//! reach it. This crate is the missing front-end, in the spirit of
//! BISMO's many-overlay dispatch (Umuroglu et al., PAPERS.md): many
//! independent serving instances behind one wire endpoint.
//!
//! Four pieces, std-only (zero new dependencies):
//!
//! - [`wire`]: the length-prefixed little-endian frame protocol —
//!   versioned request/response records for `Job::{Mul,Div,Sqrt,
//!   ModExp}`, per-tenant hello/auth, and a typed status byte mapping
//!   every [`apc_serve::SubmitError`] variant exhaustively (adding a
//!   variant fails this crate's compile until a code is assigned);
//! - [`NetServer`]: a fixed pool of connection workers, each accepting
//!   its own connections on a clone of the listener, with fail-closed
//!   bounded frame reads (caps derived from the backend's
//!   `max_operand_bits`), admission through the backend, a graceful
//!   drain that closes read halves rather than polling a timeout, and
//!   a minimal `GET /metrics` Prometheus responder on the same port;
//! - [`NetClient`]: a blocking client with connect/request timeouts
//!   and typed [`NetError`];
//! - [`Router`]: N `Device`-backed `ServeHandle` shards; each job goes
//!   to the live shard with the fewest jobs in flight, ties to the
//!   job's ring owner (an FNV-1a consistent-hash ring keyed on the
//!   job's [`apc_serve::operand_bucket`], the bucket each shard's queue
//!   batches by), so concurrent callers run on idle devices instead of
//!   queueing behind one; `Router::start(1, ..)` is the single-device
//!   deployment.
//!
//! Results over the wire are **bit-identical** to direct `Device`
//! execution: the wire carries exact limbs both ways and the serving
//! layer beneath is already bit-exact (tier-1 `tests/net_gate.rs`
//! checks the full loop against the direct oracle).
//!
//! ```no_run
//! use apc_net::{NetClient, NetClientConfig, NetServer, NetServerConfig, Router};
//! use apc_serve::{Job, JobOutput, ServeConfig};
//! use apc_bignum::Nat;
//!
//! let router = Router::start(2, ServeConfig::default()).expect("two valid shards");
//! let server = NetServer::start(
//!     "127.0.0.1:0",
//!     router,
//!     NetServerConfig { tokens: vec![b"tenant-a".to_vec()], ..NetServerConfig::default() },
//! ).expect("bind loopback");
//!
//! let cfg = NetClientConfig { token: b"tenant-a".to_vec(), ..NetClientConfig::default() };
//! let mut client = NetClient::connect(server.local_addr(), &cfg).expect("connect");
//! let a = Nat::from(0xFFFF_FFFFu64);
//! let out = client.request(Job::Mul { a: a.clone(), b: a.clone() }).expect("multiply");
//! assert_eq!(out, JobOutput::Product(&a * &a));
//! server.shutdown();
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub mod client;
pub mod metrics;
pub mod router;
pub mod server;
pub mod wire;

pub use client::{NetClient, NetClientConfig, NetError};
pub use metrics::NetMetrics;
pub use router::{Router, RouterError};
pub use server::{NetServer, NetServerConfig, ServerError};
pub use wire::{Rejection, WireError, WireStatus};

use apc_serve::{Job, JobReport, JobSpec, ServeError};
use apc_trace::export::Metric;

/// What [`NetServer`] needs from the thing it fronts. Implemented by
/// [`Router`], which serves a single device as a one-shard set
/// (`Router::start(1, ..)`) and several by sending each job to the
/// least-loaded live shard, ties to the job's consistent-hash ring owner.
pub trait NetBackend {
    /// Routes/submits one job and blocks for its terminal report.
    fn submit_wait(&self, job: Job, spec: JobSpec) -> Result<JobReport, ServeError>;

    /// The admission ceiling on operand width, in bits. The server
    /// derives its fail-closed request-frame cap from this.
    fn max_operand_bits(&self) -> u64;

    /// The backend's metric families, appended to the listener's
    /// `apc_net_*` counters on every `GET /metrics` scrape.
    fn export_backend_metrics(&self) -> Vec<Metric>;

    /// Drains and stops the backend (called once the listener has
    /// finished every accepted connection).
    fn shutdown(&self);
}
