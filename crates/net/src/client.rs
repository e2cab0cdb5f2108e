//! `NetClient`: a blocking client for the apc-net wire protocol.
//!
//! One connection, strictly in-order request/response — the simplest
//! shape that lets tenants off-box reach a [`crate::NetServer`]. The
//! client owns connect and request timeouts and surfaces every failure
//! as a typed [`NetError`]; it never panics on anything the network or
//! the server does.
//!
//! A session reads through one `BufReader` held for the connection's
//! life and sends and receives every frame through one reused buffer,
//! so a round trip normally costs one `send`, one `recv` and no frame
//! allocation beyond the widest frame seen so far.

use crate::wire::{
    self, FrameError, Hello, Rejection, Request, ResponseBody, WireError, WireStatus, MAGIC,
    MAX_TOKEN_LEN,
};
use apc_serve::{Job, JobOutput};
use std::fmt;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Client configuration.
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Per-request read timeout (covers the server computing the job).
    pub request_timeout: Duration,
    /// Tenant auth token sent in the hello; at most [`MAX_TOKEN_LEN`]
    /// bytes, or [`NetClient::connect`] refuses it before dialing.
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
    /// [`NetClientConfig::token`] exceeds [`MAX_TOKEN_LEN`], so no server
    /// could accept it; refused before dialing.
    TokenTooLong {
        /// Length of the token, in bytes.
        len: usize,
    },
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
            NetError::TokenTooLong { len } => {
                write!(f, "auth token of {len} bytes exceeds the {MAX_TOKEN_LEN}-byte bound")
            }
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
    /// The connection's one reader; writes go to the stream beneath it.
    reader: BufReader<TcpStream>,
    /// The buffer every frame is encoded into or read into.
    frame: Vec<u8>,
    next_id: u64,
    max_response_bytes: u64,
}

impl NetClient {
    /// Connects, sends the preamble and hello, and waits for the
    /// server's verdict: `Ok` means the token was accepted and the
    /// session is ready; a bad token is [`NetError::Server`] with
    /// [`WireStatus::AuthRejected`] before any operand is sent. A token
    /// longer than [`MAX_TOKEN_LEN`] is [`NetError::TokenTooLong`], before
    /// the address is resolved or dialed.
    pub fn connect(addr: impl ToSocketAddrs, config: &NetClientConfig) -> Result<NetClient, NetError> {
        if config.token.len() > MAX_TOKEN_LEN {
            return Err(NetError::TokenTooLong { len: config.token.len() });
        }
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
        let mut frame = Vec::new();
        wire::send_frame(&mut stream, &mut frame, &Hello { token: config.token.clone() })?;
        let mut client = NetClient {
            reader: BufReader::new(stream),
            frame,
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
        wire::send_frame(self.reader.get_mut(), &mut self.frame, &Request { req_id, job })?;
        match self.read_response(req_id)? {
            ResponseBody::Output(output) => Ok(output),
            ResponseBody::Ack => Err(NetError::Wire(WireError::BadKind(0))),
            ResponseBody::Rejected(r) => Err(NetError::Rejected(r)),
            ResponseBody::Failed(s) => Err(NetError::Server(s)),
        }
    }

    fn read_response(&mut self, expect_id: u64) -> Result<ResponseBody, NetError> {
        wire::read_frame_into(&mut self.reader, self.max_response_bytes, &mut self.frame)?;
        let response = wire::decode_response(&self.frame)?;
        // Connection-level failures legitimately answer under id 0.
        let connection_level = matches!(response.body, ResponseBody::Failed(_));
        if response.req_id != expect_id && !(connection_level && response.req_id == 0) {
            return Err(NetError::IdMismatch { sent: expect_id, got: response.req_id });
        }
        Ok(response.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_over_long_token_is_refused_before_dialing() {
        // A loopback listener that is never accepted from: had the
        // client dialed it, the connection would sit in its queue.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.set_nonblocking(true).expect("nonblocking listener");
        let addr = listener.local_addr().expect("local addr");
        for len in [MAX_TOKEN_LEN + 1, 400] {
            let config = NetClientConfig {
                token: vec![b't'; len],
                request_timeout: Duration::from_millis(100),
                ..NetClientConfig::default()
            };
            match NetClient::connect(addr, &config) {
                Err(NetError::TokenTooLong { len: got }) => assert_eq!(got, len),
                other => unreachable!("{len}-byte token: expected TokenTooLong, got {other:?}"),
            }
        }
        match listener.accept() {
            Err(e) => assert_eq!(e.kind(), io::ErrorKind::WouldBlock, "accept failed: {e}"),
            Ok((_, peer)) => unreachable!("the client dialed anyway (from {peer})"),
        }
    }
}
