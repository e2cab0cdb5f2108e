//! `NetServer`: a blocking TCP listener in front of a [`NetBackend`]
//! (a [`crate::Router`] of serving shards).
//!
//! Threading model — a fixed pool of connection workers, each blocked
//! in `accept` on its own clone of the listener; no accept thread and
//! no hand-off channel:
//!
//! ```text
//! listener ──try_clone──▶ conn worker × N    each: accept → publish a
//!                              │             clone in its slot →
//!                              │             re-check the flag →
//!                              ▼             handle_conn → clear slot
//!                         handle_conn: one Conn { BufReader, frame }
//!                         for the connection's life: preamble sniff,
//!                         hello / auth, request loop (bounded frame
//!                         reads into `frame`, responses encoded into
//!                         `frame` and sent with one write_all)
//! ```
//!
//! A connection beyond the `N` being served waits in the kernel listen
//! queue until a worker returns to `accept`.
//!
//! Each connection reads through one `BufReader` that lives as long as
//! the connection, so a frame's length prefix and body (and any frames
//! the peer pipelined behind it) normally arrive in one `recv`, and
//! bytes read ahead are never dropped between frames. One frame buffer
//! per connection carries every payload read and every response
//! written; it grows only to the widest frame seen, and only after that
//! frame's length prefix has passed the cap.
//!
//! Drain semantics: [`NetServer::shutdown`] stores the gate flag, shuts
//! the read half of every live connection (`Shutdown::Read`), and
//! self-connects once per worker to wake blocked `accept`s. A read
//! blocked anywhere in a frame or an HTTP head returns end-of-stream at
//! once; the write half stays open, so an in-flight `submit_wait` runs
//! to completion and its response is written before the connection
//! ends. Only after every worker has exited (the port closes with the
//! last listener clone) does the backend itself shut down, so **no
//! admitted job is ever dropped**. There is no timer on this path (L7).

use crate::metrics::{bump, NetMetrics};
use crate::wire::{
    self, FrameError, Rejection, Response, ResponseBody, WireError, WireStatus, MAGIC,
    MAX_TOKEN_LEN,
};
use crate::NetBackend;
use apc_serve::{JobSpec, ServeError};
use apc_trace::export::{to_prometheus, Metric};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Connection worker threads, at least 1 ([`NetServer::start`]
    /// refuses 0 with [`ServerError::ZeroConnWorkers`]). Each accepts and
    /// serves one connection at a time; a connection beyond
    /// `conn_workers` waits in the kernel listen queue until a worker is
    /// free.
    pub conn_workers: usize,
    /// Accepted tenant tokens. **Empty means reject everyone** — the
    /// fail-closed default; an open instance must opt in explicitly.
    pub tokens: Vec<Vec<u8>>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            conn_workers: 4,
            tokens: Vec::new(),
        }
    }
}

/// Why the server failed to start.
#[derive(Debug)]
pub enum ServerError {
    /// Binding or configuring the listener socket failed.
    Io(io::Error),
    /// A token exceeded [`MAX_TOKEN_LEN`] and could never authenticate.
    TokenTooLong {
        /// Length of the offending token, in bytes.
        len: usize,
    },
    /// [`NetServerConfig::conn_workers`] was 0: nothing would ever
    /// accept a connection.
    ZeroConnWorkers,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "listener: {e}"),
            ServerError::TokenTooLong { len } => {
                write!(f, "auth token of {len} bytes exceeds the {MAX_TOKEN_LEN}-byte bound")
            }
            ServerError::ZeroConnWorkers => write!(f, "conn_workers must be at least 1"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<io::Error> for ServerError {
    fn from(e: io::Error) -> ServerError {
        ServerError::Io(e)
    }
}

struct Shared<B: NetBackend> {
    backend: B,
    metrics: NetMetrics,
    config: NetServerConfig,
    /// Shutdown gate (not a statistic): Release on store, Acquire on
    /// load, so a worker that observes `true` also observes everything
    /// the shutting-down thread wrote before it.
    shutdown: AtomicBool,
    /// One slot per worker: a handle on the connection it is serving,
    /// so `shutdown` can close its read half. A worker fills its slot
    /// *before* it re-checks the gate and `shutdown` sets the gate
    /// before it scans the slots, so the slot mutex orders the two:
    /// either the worker sees the gate or the scan sees the connection.
    live: Vec<Mutex<Option<TcpStream>>>,
    request_cap: u64,
}

impl<B: NetBackend> Shared<B> {
    /// The one metric list both [`NetServer::export_metrics`] and the
    /// `GET /metrics` scrape render.
    fn export_metrics(&self) -> Vec<Metric> {
        let mut out = self.metrics.export_metrics();
        out.extend(self.backend.export_backend_metrics());
        out.extend(cambricon_p::pattern_cache::export_metrics());
        out
    }
}

/// A running network front-end. Dropping the server without calling
/// [`NetServer::shutdown`] shuts it down (and drains) via `Drop`.
pub struct NetServer<B: NetBackend + Send + Sync + 'static> {
    shared: Arc<Shared<B>>,
    local_addr: SocketAddr,
    threads: Mutex<Vec<thread::JoinHandle<()>>>,
}

impl<B: NetBackend + Send + Sync + 'static> std::fmt::Debug for NetServer<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer").field("local_addr", &self.local_addr).finish()
    }
}

impl<B: NetBackend + Send + Sync + 'static> NetServer<B> {
    /// Binds `addr` and starts the connection workers. Bind to port 0 to
    /// let the OS choose (see [`NetServer::local_addr`]). A degenerate
    /// configuration (zero connection workers, an over-long token) is a
    /// typed [`ServerError`], checked before binding.
    pub fn start(
        addr: impl ToSocketAddrs,
        backend: B,
        config: NetServerConfig,
    ) -> Result<NetServer<B>, ServerError> {
        if let Some(t) = config.tokens.iter().find(|t| t.len() > MAX_TOKEN_LEN) {
            return Err(ServerError::TokenTooLong { len: t.len() });
        }
        if config.conn_workers == 0 {
            return Err(ServerError::ZeroConnWorkers);
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let workers = config.conn_workers;
        let mut listeners =
            (1..workers).map(|_| listener.try_clone()).collect::<io::Result<Vec<_>>>()?;
        listeners.push(listener);
        let request_cap = wire::request_frame_cap(backend.max_operand_bits());
        let shared = Arc::new(Shared {
            backend,
            metrics: NetMetrics::default(),
            config,
            shutdown: AtomicBool::new(false),
            live: (0..workers).map(|_| Mutex::new(None)).collect(),
            request_cap,
        });
        let threads = listeners
            .into_iter()
            .enumerate()
            .map(|(slot, listener)| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || conn_worker(&shared, &listener, slot))
            })
            .collect();
        Ok(NetServer { shared, local_addr, threads: Mutex::new(threads) })
    }

    /// The bound address (resolves port 0 binds).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The listener's counters.
    pub fn metrics(&self) -> &NetMetrics {
        &self.shared.metrics
    }

    /// Listener counters plus the backend's families and the device
    /// model's pattern-table cache counters — exactly what a
    /// `GET /metrics` scrape renders.
    pub fn export_metrics(&self) -> Vec<Metric> {
        self.shared.export_metrics()
    }

    /// Graceful drain: stop accepting, end every accepted connection
    /// once the request it is serving (if any) has been answered, then
    /// shut the backend down. Connections still in the listen queue are
    /// closed unserved. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for slot in &self.shared.live {
            if let Some(conn) = lock(slot).as_ref() {
                // Wakes a read blocked anywhere in a frame with
                // end-of-stream; the write half stays open for the
                // response to a job already in flight.
                let _ = conn.shutdown(Shutdown::Read);
            }
        }
        // One poke per worker wakes every blocking accept(); a busy
        // worker sees the gate when it returns instead. If the listener
        // is already gone the connect fails, which is equally fine.
        for _ in &self.shared.live {
            let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        }
        let threads = {
            let mut guard = lock(&self.threads);
            std::mem::take(&mut *guard)
        };
        for t in threads {
            let _ = t.join();
        }
        self.shared.backend.shutdown();
    }
}

impl<B: NetBackend + Send + Sync + 'static> Drop for NetServer<B> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn conn_worker<B: NetBackend>(shared: &Shared<B>, listener: &TcpListener, slot: usize) {
    let slot = &shared.live[slot];
    while !shared.shutdown.load(Ordering::Acquire) {
        // Transient accept failures (EMFILE, aborted handshake) and a
        // connection whose handle cannot be published: keep listening;
        // the loop exits only via the gate flag.
        let Ok((stream, _)) = listener.accept() else { continue };
        let Ok(handle) = stream.try_clone() else { continue };
        *lock(slot) = Some(handle);
        // Re-checked after the slot is filled (see `Shared::live`): a
        // connection accepted once the drain began, often our own poke,
        // is closed unserved.
        if !shared.shutdown.load(Ordering::Acquire) {
            bump(&shared.metrics.connections);
            handle_conn(shared, stream);
        }
        *lock(slot) = None;
    }
}

/// Bound for hello frames: far above any legal hello (version + kind +
/// token), far below anything abusive.
const HELLO_CAP: u64 = 4 + 2 + MAX_TOKEN_LEN as u64 + 64;

/// One accepted connection: its one reader, held for the connection's
/// life so read-ahead bytes survive from frame to frame (writes go to
/// the stream beneath it), and the one buffer every frame is read into
/// or encoded into.
struct Conn {
    reader: BufReader<TcpStream>,
    frame: Vec<u8>,
}

fn handle_conn<B: NetBackend>(shared: &Shared<B>, stream: TcpStream) {
    // Responses are whole frames written once: waiting for a delayed
    // ACK before sending them would put a ~40ms floor under every
    // request, so Nagle is off.
    let _ = stream.set_nodelay(true);
    let mut conn = Conn { reader: BufReader::new(stream), frame: Vec::new() };
    let mut preamble = [0u8; 4];
    if conn.reader.read_exact(&mut preamble).is_err() {
        return;
    }
    if preamble == *b"GET " {
        serve_http(shared, &mut conn);
        return;
    }
    if preamble != MAGIC {
        respond(shared, &mut conn, 0, ResponseBody::Failed(WireStatus::MalformedFrame));
        return;
    }
    // Hello / auth, checked before any operand bytes are accepted.
    if !read_frame(shared, &mut conn, HELLO_CAP) {
        return;
    }
    bump(&shared.metrics.frames_in);
    let hello = match wire::decode_hello(&conn.frame) {
        Ok(h) => h,
        Err(e) => {
            bump(&shared.metrics.decode_errors);
            respond(shared, &mut conn, 0, ResponseBody::Failed(status_for_decode(&e)));
            return;
        }
    };
    if !token_accepted(&shared.config.tokens, &hello.token) {
        bump(&shared.metrics.auth_rejects);
        respond(shared, &mut conn, 0, ResponseBody::Failed(WireStatus::AuthRejected));
        return;
    }
    respond(shared, &mut conn, 0, ResponseBody::Ack);

    // Request loop: strictly in-order request/response. It also ends
    // on the gate, because a shut read half still delivers bytes the
    // peer sends later (and the reader may hold frames read ahead):
    // once the drain has begun, a peer that keeps sending is answered
    // at most one more time.
    while !shared.shutdown.load(Ordering::Acquire) {
        if !read_frame(shared, &mut conn, shared.request_cap) {
            return;
        }
        bump(&shared.metrics.frames_in);
        let request = match wire::decode_request(&conn.frame) {
            Ok(r) => r,
            Err(e) => {
                bump(&shared.metrics.decode_errors);
                let status = status_for_decode(&e);
                respond(shared, &mut conn, 0, ResponseBody::Failed(status));
                if matches!(e, WireError::BadVersion(_)) {
                    // The peer speaks another protocol; no point going on.
                    return;
                }
                continue;
            }
        };
        let body = match shared.backend.submit_wait(request.job, JobSpec::default()) {
            Ok(report) => {
                bump(&shared.metrics.jobs_ok);
                ResponseBody::Output(report.output)
            }
            Err(ServeError::Rejected(e)) => {
                bump(&shared.metrics.admission_rejects);
                ResponseBody::Rejected(Rejection::from(&e))
            }
            Err(ServeError::WorkerLost) => ResponseBody::Failed(WireStatus::Internal),
        };
        respond(shared, &mut conn, request.req_id, body);
    }
}

/// One bounded frame read into `conn.frame`. `false` means the
/// connection is done: the peer closed or failed, the drain shut the
/// read half, or the length prefix exceeded `cap` (answered here with
/// `OversizedFrame`; the unread body would desynchronize framing, so the
/// connection closes).
fn read_frame<B: NetBackend>(shared: &Shared<B>, conn: &mut Conn, cap: u64) -> bool {
    match wire::read_frame_into(&mut conn.reader, cap, &mut conn.frame) {
        Ok(()) => true,
        Err(FrameError::TooLarge { .. }) => {
            bump(&shared.metrics.oversized_frames);
            respond(shared, conn, 0, ResponseBody::Failed(WireStatus::OversizedFrame));
            false
        }
        Err(FrameError::Io(_)) => false,
    }
}

fn respond<B: NetBackend>(shared: &Shared<B>, conn: &mut Conn, req_id: u64, body: ResponseBody) {
    let response = Response { req_id, body };
    if wire::send_frame(conn.reader.get_mut(), &mut conn.frame, &response).is_ok() {
        bump(&shared.metrics.frames_out);
    }
}

fn status_for_decode(e: &WireError) -> WireStatus {
    match e {
        WireError::BadVersion(_) => WireStatus::UnsupportedVersion,
        _ => WireStatus::MalformedFrame,
    }
}

/// Constant-time-ish membership test: every candidate is compared in
/// full so a mismatch's position does not shape the timing.
fn token_accepted(tokens: &[Vec<u8>], offered: &[u8]) -> bool {
    let mut ok = false;
    for t in tokens {
        let mut diff = usize::from(t.len() != offered.len());
        for (a, b) in t.iter().zip(offered.iter()) {
            diff |= usize::from(a != b);
        }
        ok |= diff == 0;
    }
    ok
}

/// Minimal `GET /metrics` responder sharing the protocol listener. The
/// first four bytes (`"GET "`) are already consumed; the rest of the
/// request head is read (bounded, a line at a time through the
/// connection's reader) up to its terminating blank line — consuming the
/// whole head before closing, so the close is a clean FIN, not a reset
/// triggered by unread bytes — and only the path is honoured. A head cut
/// short (peer gone, or the drain shut the read half) gets no answer.
fn serve_http<B: NetBackend>(shared: &Shared<B>, conn: &mut Conn) {
    const HEAD_CAP: usize = 4096;
    let mut head = Vec::with_capacity(256);
    // Every terminator ends in `\n`, where a line read stops, so testing
    // after each line is testing after each byte.
    let mut limited = (&mut conn.reader).take(HEAD_CAP as u64);
    while head.len() < HEAD_CAP && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        match limited.read_until(b'\n', &mut head) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
    let line = String::from_utf8_lossy(&head);
    let path = line.split_whitespace().next().unwrap_or("");
    let (status, body) = if path == "/metrics" {
        bump(&shared.metrics.metrics_scrapes);
        ("200 OK", to_prometheus(&shared.export_metrics()))
    } else {
        ("404 Not Found", String::from("not found\n"))
    };
    let stream = conn.reader.get_mut();
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_membership_is_exact() {
        let tokens = vec![b"alpha".to_vec(), b"beta-tenant".to_vec()];
        assert!(token_accepted(&tokens, b"alpha"));
        assert!(token_accepted(&tokens, b"beta-tenant"));
        assert!(!token_accepted(&tokens, b"alph"));
        assert!(!token_accepted(&tokens, b"alphaa"));
        assert!(!token_accepted(&tokens, b""));
        // Fail-closed: the empty token set accepts nobody.
        assert!(!token_accepted(&[], b"alpha"));
        assert!(!token_accepted(&[], b""));
    }

    #[test]
    fn zero_conn_workers_is_refused_before_binding() {
        let router = crate::Router::start(1, apc_serve::ServeConfig::default())
            .expect("one valid shard");
        let config = NetServerConfig { conn_workers: 0, ..NetServerConfig::default() };
        match NetServer::start("127.0.0.1:0", router, config) {
            Err(ServerError::ZeroConnWorkers) => {}
            other => unreachable!("expected ZeroConnWorkers, got {other:?}"),
        }
    }

    #[test]
    fn decode_failures_map_to_protocol_statuses() {
        assert_eq!(status_for_decode(&WireError::BadVersion(9)), WireStatus::UnsupportedVersion);
        assert_eq!(status_for_decode(&WireError::Truncated), WireStatus::MalformedFrame);
        assert_eq!(status_for_decode(&WireError::BadOp(7)), WireStatus::MalformedFrame);
    }
}
