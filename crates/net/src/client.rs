//! `NetClient`: a blocking client for the apc-net wire protocol.
//!
//! One connection, strictly in-order request/response — the simplest
//! shape that lets tenants off-box reach a [`crate::NetServer`]. The
//! client owns connect and request timeouts and surfaces every failure
//! as a typed [`NetError`]; it never panics on anything the network or
//! the server does.

use crate::wire::{
    self, FrameError, Hello, Rejection, Request, ResponseBody, WireError, WireStatus, MAGIC,
};
use apc_serve::{Job, JobOutput};
use std::fmt;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request read timeout (covers the server computing the job).
    pub request_timeout: Duration,
    /// Tenant auth token sent in the hello.
    pub token: Vec<u8>,
    /// Fail-closed cap on response frames. Defaults to the response
    /// bound for 2^23-bit operands (the server default ceiling); raise
    /// it when talking to a server configured for wider operands.
    pub max_response_bytes: u64,
}

impl Default for NetClientConfig {
    fn default() -> NetClientConfig {
        NetClientConfig {
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(60),
            token: Vec::new(),
            max_response_bytes: wire::response_frame_cap(1 << 23),
        }
    }
}

/// Everything that can go wrong between `connect` and a decoded result.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure (includes connect and request timeouts).
    Io(io::Error),
    /// The address string resolved to no socket address.
    NoAddress,
    /// A server frame exceeded [`NetClientConfig::max_response_bytes`].
    ResponseTooLarge {
        /// Declared frame length.
        len: u64,
        /// The configured cap it exceeded.
        cap: u64,
    },
    /// A server payload failed to decode.
    Wire(WireError),
    /// The server rejected the job at admission, typed exactly as
    /// [`apc_serve::SubmitError`] would in process.
    Rejected(Rejection),
    /// A protocol-level server failure (auth, version, framing,
    /// internal loss).
    Server(WireStatus),
    /// The response answered a different request id than the one in
    /// flight — the stream is desynchronized.
    IdMismatch {
        /// The id the client sent.
        sent: u64,
        /// The id the server echoed.
        got: u64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::NoAddress => write!(f, "address resolved to nothing"),
            NetError::ResponseTooLarge { len, cap } => {
                write!(f, "response frame of {len} bytes exceeds the {cap}-byte cap")
            }
            NetError::Wire(e) => write!(f, "protocol: {e}"),
            NetError::Rejected(r) => write!(f, "rejected: {r}"),
            NetError::Server(s) => write!(f, "server failure: {s}"),
            NetError::IdMismatch { sent, got } => {
                write!(f, "response id {got} does not answer request id {sent}")
            }
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        NetError::Wire(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> NetError {
        match e {
            FrameError::Io(io) => NetError::Io(io),
            FrameError::TooLarge { len, cap } => NetError::ResponseTooLarge { len, cap },
        }
    }
}

/// A connected, authenticated protocol session.
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    next_id: u64,
    max_response_bytes: u64,
}

impl NetClient {
    /// Connects, sends the preamble and hello, and waits for the
    /// server's verdict: `Ok` means the token was accepted and the
    /// session is ready; a bad token is [`NetError::Server`] with
    /// [`WireStatus::AuthRejected`] before any operand is sent.
    pub fn connect(addr: impl ToSocketAddrs, config: &NetClientConfig) -> Result<NetClient, NetError> {
        let resolved: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let first = resolved.first().ok_or(NetError::NoAddress)?;
        let mut stream = TcpStream::connect_timeout(first, config.connect_timeout)?;
        #[expect(
            clippy::disallowed_methods,
            reason = "the caller's request deadline, not a drain poll"
        )]
        stream.set_read_timeout(Some(config.request_timeout))?;
        stream.set_nodelay(true)?;
        stream.write_all(&MAGIC)?;
        wire::write_frame(&mut stream, &wire::encode_hello(&Hello { token: config.token.clone() }))?;
        let mut client = NetClient {
            stream,
            next_id: 1,
            max_response_bytes: config.max_response_bytes,
        };
        match client.read_response(0)? {
            ResponseBody::Ack => Ok(client),
            ResponseBody::Output(_) => Err(NetError::Wire(WireError::BadKind(0))),
            ResponseBody::Rejected(r) => Err(NetError::Rejected(r)),
            ResponseBody::Failed(s) => Err(NetError::Server(s)),
        }
    }

    /// Runs one job on the server, blocking for its bit-exact result.
    pub fn request(&mut self, job: Job) -> Result<JobOutput, NetError> {
        let req_id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1).max(1);
        let payload = wire::encode_request(&Request { req_id, job });
        wire::write_frame(&mut self.stream, &payload)?;
        match self.read_response(req_id)? {
            ResponseBody::Output(output) => Ok(output),
            ResponseBody::Ack => Err(NetError::Wire(WireError::BadKind(0))),
            ResponseBody::Rejected(r) => Err(NetError::Rejected(r)),
            ResponseBody::Failed(s) => Err(NetError::Server(s)),
        }
    }

    fn read_response(&mut self, expect_id: u64) -> Result<ResponseBody, NetError> {
        let payload = wire::read_frame(&mut self.stream, self.max_response_bytes)?;
        let response = wire::decode_response(&payload)?;
        // Connection-level failures legitimately answer under id 0.
        let connection_level = matches!(response.body, ResponseBody::Failed(_));
        if response.req_id != expect_id && !(connection_level && response.req_id == 0) {
            return Err(NetError::IdMismatch { sent: expect_id, got: response.req_id });
        }
        Ok(response.body)
    }
}
