//! `NetServer`: a small poll-loop TCP listener in front of a
//! [`NetBackend`] (a single [`apc_serve::ServeHandle`] or a
//! [`crate::Router`] of them).
//!
//! Threading model — one accept thread plus a fixed pool of connection
//! workers, coupled by a bounded channel:
//!
//! ```text
//! accept thread ── bounded sync_channel ──▶ conn worker × N
//!      │                                        │
//!      │ (shutdown: flag + self-connect poke)   │ handle_conn:
//!      ▼                                        │   preamble sniff
//!   joins, drops the sender; workers drain      │   hello / auth
//!   queued connections then exit                │   request loop
//! ```
//!
//! Drain semantics: [`NetServer::shutdown`] stores the gate flag
//! (`Release`), pokes the blocking `accept` awake with a self-connect,
//! and joins the accept thread — which drops the channel sender. Each
//! worker finishes the connection it is on (an in-flight
//! `submit_wait` runs to completion and its response is written),
//! drains any connections already queued, then exits on the channel's
//! disconnect. Only after every worker has exited does the backend
//! itself shut down, so **no admitted job and no queued connection is
//! ever dropped**. Idle connections notice shutdown at their next read
//! timeout — the timeout *is* the poll loop; there is no sleep anywhere
//! on this path (L7).

use crate::metrics::{bump, NetMetrics};
use crate::wire::{
    self, Rejection, Response, ResponseBody, WireError, WireStatus, MAGIC, MAX_TOKEN_LEN,
};
use crate::NetBackend;
use apc_serve::{JobSpec, ServeError};
use apc_trace::export::{to_prometheus, Metric};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Listener configuration.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Connection worker threads (each serves one connection at a time;
    /// connections beyond `conn_workers + backlog` are refused with an
    /// immediate close rather than queued unboundedly).
    pub conn_workers: usize,
    /// Bounded hand-off depth between accept and the workers.
    pub backlog: usize,
    /// Socket read timeout; doubles as the shutdown poll period for
    /// idle connections.
    pub read_timeout: Duration,
    /// Accepted tenant tokens. **Empty means reject everyone** — the
    /// fail-closed default; an open instance must opt in explicitly.
    pub tokens: Vec<Vec<u8>>,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            conn_workers: 4,
            backlog: 32,
            read_timeout: Duration::from_millis(50),
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
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServerError::Io(e) => write!(f, "listener: {e}"),
            ServerError::TokenTooLong { len } => {
                write!(f, "auth token of {len} bytes exceeds the {MAX_TOKEN_LEN}-byte bound")
            }
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
    /// Binds `addr` and starts the accept thread and worker pool. Bind
    /// to port 0 to let the OS choose (see [`NetServer::local_addr`]).
    pub fn start(
        addr: impl ToSocketAddrs,
        backend: B,
        config: NetServerConfig,
    ) -> Result<NetServer<B>, ServerError> {
        if let Some(t) = config.tokens.iter().find(|t| t.len() > MAX_TOKEN_LEN) {
            return Err(ServerError::TokenTooLong { len: t.len() });
        }
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let request_cap = wire::request_frame_cap(backend.max_operand_bits());
        let shared = Arc::new(Shared {
            backend,
            metrics: NetMetrics::default(),
            config: config.clone(),
            shutdown: AtomicBool::new(false),
            request_cap,
        });

        let (tx, rx) = std::sync::mpsc::sync_channel::<TcpStream>(config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut threads = Vec::with_capacity(config.conn_workers.max(1) + 1);
        for _ in 0..config.conn_workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            threads.push(thread::spawn(move || conn_worker(&shared, &rx)));
        }
        {
            let shared = Arc::clone(&shared);
            threads.push(thread::spawn(move || accept_loop(&shared, &listener, &tx)));
        }
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

    /// Graceful drain: stop accepting, finish every connection already
    /// accepted or queued (in-flight jobs complete and their responses
    /// are written), then shut the backend down. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Poke the blocking accept() awake; if the listener is already
        // gone the connect fails, which is equally fine.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        let threads = {
            let mut guard = self.threads.lock().unwrap_or_else(PoisonError::into_inner);
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

fn accept_loop<B: NetBackend>(shared: &Shared<B>, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::Acquire) {
            // The connection (often our own poke) is dropped unserved;
            // anything already sent to the workers still drains.
            return;
        }
        match conn {
            Ok((stream, _)) => {
                bump(&shared.metrics.connections);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    // Worker pool and backlog both full: refuse by
                    // dropping (the peer sees a closed connection, the
                    // typed path for "come back later" is QueueFull on
                    // an accepted connection).
                    Err(TrySendError::Full(dropped)) => drop(dropped),
                    Err(TrySendError::Disconnected(_)) => return,
                }
            }
            // Transient accept failures (EMFILE, aborted handshake):
            // keep listening; the loop exits only via the gate flag.
            Err(_) => {}
        }
    }
}

fn conn_worker<B: NetBackend>(shared: &Shared<B>, rx: &Arc<Mutex<Receiver<TcpStream>>>) {
    loop {
        let next = {
            let guard = rx.lock().unwrap_or_else(PoisonError::into_inner);
            guard.recv()
        };
        match next {
            Ok(stream) => handle_conn(shared, stream),
            // Sender dropped by the departing accept thread and the
            // queue is drained: the pool is done.
            Err(_) => return,
        }
    }
}

/// Bound for hello frames and the HTTP request head: far above any
/// legal hello (version + kind + token), far below anything abusive.
const HELLO_CAP: u64 = 4 + 2 + MAX_TOKEN_LEN as u64 + 64;

fn handle_conn<B: NetBackend>(shared: &Shared<B>, mut stream: TcpStream) {
    if stream.set_read_timeout(Some(shared.config.read_timeout)).is_err() {
        return;
    }
    // Responses are whole frames written once: waiting for a delayed
    // ACK before sending them would put a ~40ms floor under every
    // request, so Nagle is off.
    let _ = stream.set_nodelay(true);
    let mut preamble = [0u8; 4];
    if read_full(shared, &mut stream, &mut preamble).is_err() {
        return;
    }
    if preamble == *b"GET " {
        serve_http(shared, &mut stream);
        return;
    }
    if preamble != MAGIC {
        respond(shared, &mut stream, 0, ResponseBody::Failed(WireStatus::MalformedFrame));
        return;
    }
    // Hello / auth, checked before any operand bytes are accepted.
    let hello = match read_frame_polling(shared, &mut stream, HELLO_CAP) {
        Ok(Some(payload)) => {
            bump(&shared.metrics.frames_in);
            match wire::decode_hello(&payload) {
                Ok(h) => h,
                Err(e) => {
                    bump(&shared.metrics.decode_errors);
                    respond(shared, &mut stream, 0, ResponseBody::Failed(status_for_decode(&e)));
                    return;
                }
            }
        }
        Ok(None) | Err(()) => return,
    };
    if !token_accepted(&shared.config.tokens, &hello.token) {
        bump(&shared.metrics.auth_rejects);
        respond(shared, &mut stream, 0, ResponseBody::Failed(WireStatus::AuthRejected));
        return;
    }
    respond(shared, &mut stream, 0, ResponseBody::Ack);

    // Request loop: strictly in-order request/response.
    loop {
        let payload = match read_frame_polling(shared, &mut stream, shared.request_cap) {
            Ok(Some(p)) => p,
            Ok(None) | Err(()) => return,
        };
        bump(&shared.metrics.frames_in);
        let request = match wire::decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                bump(&shared.metrics.decode_errors);
                let status = status_for_decode(&e);
                respond(shared, &mut stream, 0, ResponseBody::Failed(status));
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
        respond(shared, &mut stream, request.req_id, body);
    }
}

/// Reads exactly `buf.len()` bytes, riding out read timeouts until the
/// shutdown gate is set. `Err(())` means the connection is done (peer
/// gone, hard IO error, or drain).
fn read_full<B: NetBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
    buf: &mut [u8],
) -> Result<(), ()> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(()),
            Ok(n) => filled += n,
            Err(e) if is_timeout(&e) => {
                // Mid-frame timeouts only end the connection on drain;
                // otherwise they are the poll tick (L7: no sleep).
                if shared.shutdown.load(Ordering::Acquire) && filled == 0 {
                    return Err(());
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    Ok(())
}

/// One bounded frame read with shutdown polling. `Ok(None)` = cleanly
/// over (peer closed or drained while idle); `Err(())` = protocol
/// violation already answered (oversized frame).
fn read_frame_polling<B: NetBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
    cap: u64,
) -> Result<Option<Vec<u8>>, ()> {
    let mut len_bytes = [0u8; 4];
    if read_full(shared, stream, &mut len_bytes).is_err() {
        return Ok(None);
    }
    let len = u64::from(u32::from_le_bytes(len_bytes));
    if len > cap {
        bump(&shared.metrics.oversized_frames);
        respond(shared, stream, 0, ResponseBody::Failed(WireStatus::OversizedFrame));
        // The unread body would desynchronize framing: close.
        return Err(());
    }
    let mut payload = vec![0u8; len as usize];
    if read_full(shared, stream, &mut payload).is_err() {
        return Ok(None);
    }
    Ok(Some(payload))
}

fn respond<B: NetBackend>(
    shared: &Shared<B>,
    stream: &mut TcpStream,
    req_id: u64,
    body: ResponseBody,
) {
    let payload = wire::encode_response(&Response { req_id, body });
    if wire::write_frame(stream, &payload).is_ok() {
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
/// request head is read (bounded) up to its terminating blank line —
/// consuming the whole head before closing, so the close is a clean
/// FIN, not a reset triggered by unread bytes — and only the path is
/// honoured.
fn serve_http<B: NetBackend>(shared: &Shared<B>, stream: &mut TcpStream) {
    const HEAD_CAP: usize = 4096;
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while head.len() < HEAD_CAP && !head.ends_with(b"\r\n\r\n") && !head.ends_with(b"\n\n") {
        match stream.read(&mut byte) {
            Ok(1) => head.push(byte[0]),
            Ok(_) => break,
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(_) => return,
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
    let _ = write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.flush();
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
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
    fn decode_failures_map_to_protocol_statuses() {
        assert_eq!(status_for_decode(&WireError::BadVersion(9)), WireStatus::UnsupportedVersion);
        assert_eq!(status_for_decode(&WireError::Truncated), WireStatus::MalformedFrame);
        assert_eq!(status_for_decode(&WireError::BadOp(7)), WireStatus::MalformedFrame);
    }
}
