//! The apc-net wire protocol: length-prefixed binary frames over TCP.
//!
//! Everything on the wire is explicit little-endian — the protocol is
//! defined in bytes, not in Rust memory layout, so a client on any
//! architecture interoperates. A connection looks like:
//!
//! ```text
//! client → server   4-byte magic  b"APCW"
//! client → server   HELLO frame   (version, tenant auth token)
//! server → client   RESPONSE      (status Ok, req_id 0)
//! client → server   REQUEST       (req_id, op, operands)
//! server → client   RESPONSE      (req_id, status, result | rejection)
//! ...                             (request/response, strictly in order)
//! ```
//!
//! A **frame** is a `u32` little-endian payload length followed by the
//! payload. Frame reads are bounded: both sides derive a fail-closed
//! maximum frame length from the widest operand they are willing to
//! handle (see [`request_frame_cap`] / [`response_frame_cap`]) and treat
//! anything longer as [`WireStatus::OversizedFrame`] *without reading
//! the body* — a hostile length prefix can never make either side
//! allocate unbounded memory.
//!
//! Every payload starts with a protocol version byte and a frame-kind
//! byte; unknown versions, kinds, opcodes, and statuses are typed decode
//! errors, never panics. Operands are [`Nat`]s encoded as a `u32` limb
//! count followed by that many little-endian `u64` limbs.
//!
//! The status byte is the typed half of admission control: every
//! [`SubmitError`] variant maps onto a distinct [`WireStatus`] via an
//! exhaustive match (no catch-all arm, so adding a variant to
//! `SubmitError` fails compilation here until the wire mapping is
//! decided), and [`Rejection`] round-trips the variant's payload
//! (capacity, bit widths, reason text) so the client sees the same
//! typed rejection an in-process caller would.

use apc_bignum::Nat;
use apc_serve::{Job, JobOutput, SubmitError};
use std::fmt;
use std::io::{self, Read, Write};

/// The 4-byte stream preamble a binary client sends after connecting
/// (distinguishes protocol connections from `GET /metrics` scrapes on
/// the same listener).
pub const MAGIC: [u8; 4] = *b"APCW";

/// Protocol version carried by every payload.
pub const PROTO_VERSION: u8 = 1;

/// Frame-kind byte: client hello (auth handshake).
pub const KIND_HELLO: u8 = b'H';
/// Frame-kind byte: client request.
pub const KIND_REQUEST: u8 = b'R';
/// Frame-kind byte: server response.
pub const KIND_RESPONSE: u8 = b'S';

/// Upper bound on auth token length (bytes) — tokens are short secrets,
/// not payloads.
pub const MAX_TOKEN_LEN: usize = 256;

/// Typed status byte of a server response.
///
/// `1..=4` mirror [`SubmitError`] (see [`status_of`]); the rest are
/// protocol-level outcomes that have no in-process analogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum WireStatus {
    /// The request was executed; the body carries the result.
    Ok = 0,
    /// [`SubmitError::QueueFull`] — backpressure, retry later.
    QueueFull = 1,
    /// [`SubmitError::Shutdown`] — the service is draining.
    Shutdown = 2,
    /// [`SubmitError::OversizedOperand`] — operand above the ceiling.
    OversizedOperand = 3,
    /// [`SubmitError::InvalidJob`] — the job could never execute.
    InvalidJob = 4,
    /// The hello token did not match any configured tenant.
    AuthRejected = 5,
    /// The peer spoke a protocol version this side does not.
    UnsupportedVersion = 6,
    /// The frame payload failed to decode.
    MalformedFrame = 7,
    /// The frame length prefix exceeded the fail-closed cap.
    OversizedFrame = 8,
    /// The serving side lost the job (a worker panicked mid-flight).
    Internal = 9,
}

impl WireStatus {
    /// The status as its wire byte.
    pub fn as_byte(self) -> u8 {
        self as u8
    }

    /// Parses a wire byte; unknown bytes are `None` (the decoder treats
    /// them as malformed, never as a default status).
    pub fn from_byte(b: u8) -> Option<WireStatus> {
        match b {
            0 => Some(WireStatus::Ok),
            1 => Some(WireStatus::QueueFull),
            2 => Some(WireStatus::Shutdown),
            3 => Some(WireStatus::OversizedOperand),
            4 => Some(WireStatus::InvalidJob),
            5 => Some(WireStatus::AuthRejected),
            6 => Some(WireStatus::UnsupportedVersion),
            7 => Some(WireStatus::MalformedFrame),
            8 => Some(WireStatus::OversizedFrame),
            9 => Some(WireStatus::Internal),
            _ => None,
        }
    }
}

impl fmt::Display for WireStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The wire status a [`SubmitError`] maps to.
///
/// The match is deliberately exhaustive with no catch-all: a new
/// `SubmitError` variant fails this crate's compile until its wire code
/// is assigned, so the protocol can never silently fold a new rejection
/// into an old status.
pub fn status_of(e: &SubmitError) -> WireStatus {
    match e {
        SubmitError::QueueFull { .. } => WireStatus::QueueFull,
        SubmitError::Shutdown => WireStatus::Shutdown,
        SubmitError::OversizedOperand { .. } => WireStatus::OversizedOperand,
        SubmitError::InvalidJob(_) => WireStatus::InvalidJob,
    }
}

/// A [`SubmitError`] as reconstructed on the client side of the wire.
///
/// Mirrors `SubmitError` field for field; the only difference is that
/// the invalid-job reason is an owned `String` (the server's `&'static
/// str` cannot cross a socket).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The submission queue was full.
    QueueFull {
        /// The configured queue capacity that was hit.
        capacity: u64,
    },
    /// The service is shut down.
    Shutdown,
    /// An operand exceeded the admission ceiling.
    OversizedOperand {
        /// Widest operand of the rejected job, in bits.
        bits: u64,
        /// The configured ceiling, in bits.
        max_bits: u64,
    },
    /// The job could never execute (reason text from the server).
    InvalidJob(String),
}

impl From<&SubmitError> for Rejection {
    /// Exhaustive (no catch-all) — see [`status_of`].
    fn from(e: &SubmitError) -> Rejection {
        match e {
            SubmitError::QueueFull { capacity } => {
                Rejection::QueueFull { capacity: *capacity as u64 }
            }
            SubmitError::Shutdown => Rejection::Shutdown,
            SubmitError::OversizedOperand { bits, max_bits } => {
                Rejection::OversizedOperand { bits: *bits, max_bits: *max_bits }
            }
            SubmitError::InvalidJob(reason) => Rejection::InvalidJob((*reason).to_string()),
        }
    }
}

impl Rejection {
    /// The status byte this rejection travels under.
    pub fn status(&self) -> WireStatus {
        match self {
            Rejection::QueueFull { .. } => WireStatus::QueueFull,
            Rejection::Shutdown => WireStatus::Shutdown,
            Rejection::OversizedOperand { .. } => WireStatus::OversizedOperand,
            Rejection::InvalidJob(_) => WireStatus::InvalidJob,
        }
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            Rejection::Shutdown => write!(f, "service is shut down"),
            Rejection::OversizedOperand { bits, max_bits } => {
                write!(f, "operand of {bits} bits exceeds the {max_bits}-bit ceiling")
            }
            Rejection::InvalidJob(reason) => write!(f, "invalid job: {reason}"),
        }
    }
}

/// Why a payload failed to decode. Every variant is a protocol error
/// the peer caused; none are panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the field being read.
    Truncated,
    /// The version byte was not [`PROTO_VERSION`].
    BadVersion(u8),
    /// The frame-kind byte was unknown or unexpected here.
    BadKind(u8),
    /// The request opcode was unknown.
    BadOp(u8),
    /// The response status byte was unknown.
    BadStatus(u8),
    /// The output-kind byte was unknown.
    BadOutputKind(u8),
    /// A declared length did not match the bytes that followed.
    LengthMismatch,
    /// Bytes remained after the last field.
    TrailingBytes,
    /// A token or reason string exceeded its bound.
    FieldTooLong,
    /// A string field was not valid UTF-8.
    BadUtf8,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::BadVersion(v) => {
                write!(f, "unsupported protocol version {v} (speak {PROTO_VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind 0x{k:02x}"),
            WireError::BadOp(o) => write!(f, "unknown request opcode 0x{o:02x}"),
            WireError::BadStatus(s) => write!(f, "unknown status byte 0x{s:02x}"),
            WireError::BadOutputKind(k) => write!(f, "unknown output kind 0x{k:02x}"),
            WireError::LengthMismatch => write!(f, "declared length exceeds payload"),
            WireError::TrailingBytes => write!(f, "trailing bytes after last field"),
            WireError::FieldTooLong => write!(f, "variable-length field exceeds its bound"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

// ---------------------------------------------------------------------
// Byte-level cursor helpers (no unsafe, no panics: every read is
// bounds-checked and returns WireError::Truncated past the end).
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array::<4>()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array::<8>()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let end = self.pos.checked_add(N).ok_or(WireError::Truncated)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        self.pos = end;
        Ok(out)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::LengthMismatch)?;
        let slice = self.buf.get(self.pos..end).ok_or(WireError::LengthMismatch)?;
        self.pos = end;
        Ok(slice)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

// ---------------------------------------------------------------------
// Nat encoding: u32 LE limb count, then that many u64 LE limbs.
// ---------------------------------------------------------------------

/// Appends `n`: its limb count, then every limb, written into one
/// resize of `out` (no per-limb growth).
fn put_nat(out: &mut Vec<u8>, n: &Nat) {
    let limbs = n.limbs();
    out.extend_from_slice(&(limbs.len() as u32).to_le_bytes());
    let start = out.len();
    out.resize(start + 8 * limbs.len(), 0);
    for (dst, limb) in out[start..].chunks_exact_mut(8).zip(limbs) {
        dst.copy_from_slice(&limb.to_le_bytes());
    }
}

/// Serialized size of `n`, in bytes: what [`put_nat`] appends (the
/// [`nat_wire_bytes`] arithmetic, counted in limbs).
fn nat_len(n: &Nat) -> usize {
    4 + 8 * n.limbs().len()
}

fn get_nat(c: &mut Cursor<'_>) -> Result<Nat, WireError> {
    let count = c.u32()? as usize;
    // Check the declared limb count against the bytes actually present
    // BEFORE allocating — a hostile count can never drive allocation.
    let byte_len = count.checked_mul(8).ok_or(WireError::LengthMismatch)?;
    let raw = c.bytes(byte_len)?;
    let mut limbs = Vec::with_capacity(count);
    for chunk in raw.chunks_exact(8) {
        let mut b = [0u8; 8];
        b.copy_from_slice(chunk);
        limbs.push(u64::from_le_bytes(b));
    }
    // from_limbs normalizes trailing zero limbs, so a non-canonical
    // (zero-padded) encoding still decodes to the canonical value.
    Ok(Nat::from_limbs(limbs))
}

/// Serialized size of one [`Nat`] that is `bits` wide, in bytes.
pub fn nat_wire_bytes(bits: u64) -> u64 {
    4 + bits.div_ceil(64).saturating_mul(8)
}

/// Fail-closed cap for *request* frames against a service admitting
/// operands up to `max_operand_bits`: version + kind + req_id + op +
/// three operands (the widest request shape, `ModExp`), plus slack for
/// one non-canonical zero limb per operand.
pub fn request_frame_cap(max_operand_bits: u64) -> u64 {
    1 + 1 + 8 + 1 + 3u64.saturating_mul(nat_wire_bytes(max_operand_bits).saturating_add(8))
}

/// Fail-closed cap for *response* frames from such a service: the widest
/// result is a product of two `max_operand_bits` operands (`2·max`
/// bits); `DivRem`/`SqrtRem` carry two nats each bounded by the inputs.
pub fn response_frame_cap(max_operand_bits: u64) -> u64 {
    let widest = nat_wire_bytes(max_operand_bits.saturating_mul(2)).saturating_add(8);
    1 + 1 + 8 + 1 + 1 + 2u64.saturating_mul(widest)
}

// ---------------------------------------------------------------------
// Frame IO: u32 LE length prefix, bounded reads.
// ---------------------------------------------------------------------

/// Failure of a framed read/write.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket failed (includes timeouts).
    Io(io::Error),
    /// The peer's length prefix exceeded the fail-closed cap; the body
    /// was *not* read.
    TooLarge {
        /// The declared payload length.
        len: u64,
        /// The cap it exceeded.
        cap: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame io: {e}"),
            FrameError::TooLarge { len, cap } => {
                write!(f, "frame of {len} bytes exceeds the {cap}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// A message with exactly one encoder: [`Encode::wire_len`] sizes its
/// payload and [`Encode::put`] appends exactly that many bytes, so every
/// buffer is sized once, before the first byte is written.
pub(crate) trait Encode {
    /// The payload's length in bytes.
    fn wire_len(&self) -> usize;
    /// Appends the payload to `out`.
    fn put(&self, out: &mut Vec<u8>);
}

/// An already-encoded payload.
impl Encode for [u8] {
    fn wire_len(&self) -> usize {
        self.len()
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

/// `msg`'s payload in a buffer of exactly its length.
fn encode(msg: &impl Encode) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.wire_len());
    msg.put(&mut out);
    out
}

/// Encodes `msg` as one frame (length prefix + payload) into `frame`,
/// reusing its allocation, and sends it in a single `write_all`, so a
/// frame on a `TCP_NODELAY` socket leaves as one segment rather than a
/// 4-byte prefix segment followed by the payload. A connection that
/// keeps `frame` across its frames allocates only when a frame is wider
/// than any before it. A payload longer than a `u32` prefix can declare
/// is `InvalidInput`, and nothing is sent.
pub(crate) fn send_frame(
    w: &mut impl Write,
    frame: &mut Vec<u8>,
    msg: &(impl Encode + ?Sized),
) -> io::Result<()> {
    let len = msg.wire_len();
    let prefix = u32::try_from(len).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds the u32 length prefix")
    })?;
    frame.clear();
    frame.reserve(4 + len);
    frame.extend_from_slice(&prefix.to_le_bytes());
    msg.put(frame);
    w.write_all(frame)?;
    w.flush()
}

/// Writes one frame (length prefix + payload) in a single `write_all`,
/// through a buffer of its own. [`NetClient`](crate::NetClient) and the
/// server's connections instead encode every frame into one buffer
/// they keep for the connection's life.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    send_frame(w, &mut Vec::new(), payload)
}

/// Reads one frame's payload into `frame` (reusing its allocation),
/// rejecting any payload longer than `cap` *before* reading its body or
/// growing `frame`. Read through a reader held for the whole
/// connection (a `BufReader`), the prefix and a body that fits its
/// buffer normally arrive in one `recv`.
pub(crate) fn read_frame_into(
    r: &mut impl Read,
    cap: u64,
    frame: &mut Vec<u8>,
) -> Result<(), FrameError> {
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_le_bytes(len_bytes) as u64;
    if len > cap {
        return Err(FrameError::TooLarge { len, cap });
    }
    frame.clear();
    frame.resize(len as usize, 0);
    r.read_exact(frame)?;
    Ok(())
}

/// Reads one frame into a payload buffer of exactly its length,
/// rejecting any payload longer than `cap` *before* reading (or
/// allocating) its body. On an unbuffered stream a frame costs two
/// reads (prefix, then body); through a `BufReader` held for the
/// connection's life, a frame and what follows it arrive in one.
pub fn read_frame(r: &mut impl Read, cap: u64) -> Result<Vec<u8>, FrameError> {
    let mut payload = Vec::new();
    read_frame_into(r, cap, &mut payload)?;
    Ok(payload)
}

// ---------------------------------------------------------------------
// Hello
// ---------------------------------------------------------------------

/// The auth handshake frame: first frame on every binary connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The tenant's auth token (opaque bytes, ≤ [`MAX_TOKEN_LEN`]).
    pub token: Vec<u8>,
}

/// The first `u16::MAX` bytes of a length-prefixed string field: all a
/// `u16` length can declare.
fn bounded(bytes: &[u8]) -> &[u8] {
    &bytes[..bytes.len().min(u16::MAX as usize)]
}

impl Encode for Hello {
    fn wire_len(&self) -> usize {
        4 + bounded(&self.token).len()
    }

    fn put(&self, out: &mut Vec<u8>) {
        let token = bounded(&self.token);
        out.push(PROTO_VERSION);
        out.push(KIND_HELLO);
        out.extend_from_slice(&(token.len() as u16).to_le_bytes());
        out.extend_from_slice(token);
    }
}

/// Encodes a hello payload.
pub fn encode_hello(hello: &Hello) -> Vec<u8> {
    encode(hello)
}

/// Decodes a hello payload.
pub fn decode_hello(payload: &[u8]) -> Result<Hello, WireError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8()?;
    if kind != KIND_HELLO {
        return Err(WireError::BadKind(kind));
    }
    let len = c.u16()? as usize;
    if len > MAX_TOKEN_LEN {
        return Err(WireError::FieldTooLong);
    }
    let token = c.bytes(len).map_err(|_| WireError::Truncated)?.to_vec();
    c.finish()?;
    Ok(Hello { token })
}

// ---------------------------------------------------------------------
// Request
// ---------------------------------------------------------------------

const OP_MUL: u8 = 0;
const OP_DIV: u8 = 1;
const OP_SQRT: u8 = 2;
const OP_MODEXP: u8 = 3;

/// One request frame: a client-chosen id (echoed in the response) and
/// the job to run.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the response.
    pub req_id: u64,
    /// The operation and its operands.
    pub job: Job,
}

impl Request {
    /// The opcode and operands, in wire order.
    fn operands(&self) -> (u8, [Option<&Nat>; 3]) {
        match &self.job {
            Job::Mul { a, b } => (OP_MUL, [Some(a), Some(b), None]),
            Job::Div { a, b } => (OP_DIV, [Some(a), Some(b), None]),
            Job::Sqrt { a } => (OP_SQRT, [Some(a), None, None]),
            Job::ModExp { base, exp, modulus } => (OP_MODEXP, [Some(base), Some(exp), Some(modulus)]),
        }
    }
}

impl Encode for Request {
    fn wire_len(&self) -> usize {
        let (_, nats) = self.operands();
        1 + 1 + 8 + 1 + nats.iter().flatten().map(|n| nat_len(n)).sum::<usize>()
    }

    fn put(&self, out: &mut Vec<u8>) {
        let (op, nats) = self.operands();
        out.push(PROTO_VERSION);
        out.push(KIND_REQUEST);
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(op);
        for n in nats.iter().flatten() {
            put_nat(out, n);
        }
    }
}

/// Encodes a request payload, in a buffer of exactly its length.
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decodes a request payload.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8()?;
    if kind != KIND_REQUEST {
        return Err(WireError::BadKind(kind));
    }
    let req_id = c.u64()?;
    let op = c.u8()?;
    let job = match op {
        OP_MUL => Job::Mul { a: get_nat(&mut c)?, b: get_nat(&mut c)? },
        OP_DIV => Job::Div { a: get_nat(&mut c)?, b: get_nat(&mut c)? },
        OP_SQRT => Job::Sqrt { a: get_nat(&mut c)? },
        OP_MODEXP => Job::ModExp {
            base: get_nat(&mut c)?,
            exp: get_nat(&mut c)?,
            modulus: get_nat(&mut c)?,
        },
        other => return Err(WireError::BadOp(other)),
    };
    c.finish()?;
    Ok(Request { req_id, job })
}

// ---------------------------------------------------------------------
// Response
// ---------------------------------------------------------------------

const OUT_PRODUCT: u8 = 0;
const OUT_DIVREM: u8 = 1;
const OUT_SQRTREM: u8 = 2;
const OUT_POWMOD: u8 = 3;
/// Ok-status body carrying no result: answers the hello handshake.
const OUT_ACK: u8 = 255;

/// What a response frame carries besides the echoed request id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResponseBody {
    /// Status [`WireStatus::Ok`]: the bit-exact result.
    Output(JobOutput),
    /// Status [`WireStatus::Ok`] with no result: the server's answer to
    /// a hello whose token passed (auth is checked at accept time, so a
    /// client learns its fate before sending any operand bytes).
    Ack,
    /// An admission rejection, typed exactly as the server saw it.
    Rejected(Rejection),
    /// A protocol-level failure (auth, version, framing, internal).
    Failed(WireStatus),
}

impl ResponseBody {
    /// The status byte this body travels under.
    pub fn status(&self) -> WireStatus {
        match self {
            ResponseBody::Output(_) | ResponseBody::Ack => WireStatus::Ok,
            ResponseBody::Rejected(r) => r.status(),
            ResponseBody::Failed(s) => *s,
        }
    }
}

/// One response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// The request id being answered (0 for hello acks and connection-
    /// level failures that precede any request).
    pub req_id: u64,
    /// Status and payload.
    pub body: ResponseBody,
}

/// An `Ok` body's output kind and result nats, in wire order.
fn output_nats(output: &JobOutput) -> (u8, [Option<&Nat>; 2]) {
    match output {
        JobOutput::Product(p) => (OUT_PRODUCT, [Some(p), None]),
        JobOutput::DivRem { quotient, remainder } => (OUT_DIVREM, [Some(quotient), Some(remainder)]),
        JobOutput::SqrtRem { root, remainder } => (OUT_SQRTREM, [Some(root), Some(remainder)]),
        JobOutput::PowMod(p) => (OUT_POWMOD, [Some(p), None]),
    }
}

impl Encode for Response {
    fn wire_len(&self) -> usize {
        let body = match &self.body {
            ResponseBody::Output(output) => {
                let (_, nats) = output_nats(output);
                1 + nats.iter().flatten().map(|n| nat_len(n)).sum::<usize>()
            }
            ResponseBody::Ack => 1,
            ResponseBody::Rejected(Rejection::QueueFull { .. }) => 8,
            ResponseBody::Rejected(Rejection::Shutdown) | ResponseBody::Failed(_) => 0,
            ResponseBody::Rejected(Rejection::OversizedOperand { .. }) => 16,
            ResponseBody::Rejected(Rejection::InvalidJob(reason)) => {
                2 + bounded(reason.as_bytes()).len()
            }
        };
        1 + 1 + 8 + 1 + body
    }

    fn put(&self, out: &mut Vec<u8>) {
        out.push(PROTO_VERSION);
        out.push(KIND_RESPONSE);
        out.extend_from_slice(&self.req_id.to_le_bytes());
        out.push(self.body.status().as_byte());
        match &self.body {
            ResponseBody::Output(output) => {
                let (kind, nats) = output_nats(output);
                out.push(kind);
                for n in nats.iter().flatten() {
                    put_nat(out, n);
                }
            }
            ResponseBody::Ack => out.push(OUT_ACK),
            ResponseBody::Rejected(rejection) => match rejection {
                Rejection::QueueFull { capacity } => {
                    out.extend_from_slice(&capacity.to_le_bytes());
                }
                Rejection::Shutdown => {}
                Rejection::OversizedOperand { bits, max_bits } => {
                    out.extend_from_slice(&bits.to_le_bytes());
                    out.extend_from_slice(&max_bits.to_le_bytes());
                }
                Rejection::InvalidJob(reason) => {
                    let bytes = bounded(reason.as_bytes());
                    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
                    out.extend_from_slice(bytes);
                }
            },
            ResponseBody::Failed(_) => {}
        }
    }
}

/// Encodes a response payload, in a buffer of exactly its length.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(resp)
}

/// Decodes a response payload. Unknown status bytes are
/// [`WireError::BadStatus`] — a client never treats a status it does not
/// know as success *or* as any particular failure.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let version = c.u8()?;
    if version != PROTO_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = c.u8()?;
    if kind != KIND_RESPONSE {
        return Err(WireError::BadKind(kind));
    }
    let req_id = c.u64()?;
    let status_byte = c.u8()?;
    let status = WireStatus::from_byte(status_byte).ok_or(WireError::BadStatus(status_byte))?;
    let body = match status {
        WireStatus::Ok => {
            let out_kind = c.u8()?;
            if out_kind == OUT_ACK {
                c.finish()?;
                return Ok(Response { req_id, body: ResponseBody::Ack });
            }
            let output = match out_kind {
                OUT_PRODUCT => JobOutput::Product(get_nat(&mut c)?),
                OUT_DIVREM => JobOutput::DivRem {
                    quotient: get_nat(&mut c)?,
                    remainder: get_nat(&mut c)?,
                },
                OUT_SQRTREM => JobOutput::SqrtRem {
                    root: get_nat(&mut c)?,
                    remainder: get_nat(&mut c)?,
                },
                OUT_POWMOD => JobOutput::PowMod(get_nat(&mut c)?),
                other => return Err(WireError::BadOutputKind(other)),
            };
            ResponseBody::Output(output)
        }
        WireStatus::QueueFull => {
            ResponseBody::Rejected(Rejection::QueueFull { capacity: c.u64()? })
        }
        WireStatus::Shutdown => ResponseBody::Rejected(Rejection::Shutdown),
        WireStatus::OversizedOperand => ResponseBody::Rejected(Rejection::OversizedOperand {
            bits: c.u64()?,
            max_bits: c.u64()?,
        }),
        WireStatus::InvalidJob => {
            let len = c.u16()? as usize;
            let raw = c.bytes(len).map_err(|_| WireError::Truncated)?;
            let reason =
                String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)?;
            ResponseBody::Rejected(Rejection::InvalidJob(reason))
        }
        WireStatus::AuthRejected
        | WireStatus::UnsupportedVersion
        | WireStatus::MalformedFrame
        | WireStatus::OversizedFrame
        | WireStatus::Internal => ResponseBody::Failed(status),
    };
    c.finish()?;
    Ok(Response { req_id, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nat(bits: u64, salt: u64) -> Nat {
        Nat::power_of_two(bits) + Nat::from(salt)
    }

    #[test]
    fn requests_round_trip_every_op() {
        let jobs = [
            Job::Mul { a: nat(100, 7), b: nat(65, 3) },
            Job::Div { a: nat(300, 1), b: nat(90, 5) },
            Job::Sqrt { a: nat(513, 9) },
            Job::ModExp { base: nat(64, 2), exp: nat(10, 0), modulus: nat(128, 1) },
        ];
        for (i, job) in jobs.iter().enumerate() {
            let req = Request { req_id: i as u64 + 77, job: job.clone() };
            let decoded = decode_request(&encode_request(&req)).expect("round trip");
            assert_eq!(decoded.req_id, req.req_id);
            // Job has no PartialEq; compare through the debug form.
            assert_eq!(format!("{:?}", decoded.job), format!("{:?}", req.job));
        }
    }

    #[test]
    fn responses_round_trip_every_output_kind() {
        let outputs = [
            JobOutput::Product(nat(200, 3)),
            JobOutput::DivRem { quotient: nat(64, 1), remainder: Nat::zero() },
            JobOutput::SqrtRem { root: nat(32, 0), remainder: nat(5, 4) },
            JobOutput::PowMod(nat(127, 6)),
        ];
        for (i, output) in outputs.into_iter().enumerate() {
            let resp = Response { req_id: i as u64, body: ResponseBody::Output(output) };
            let decoded = decode_response(&encode_response(&resp)).expect("round trip");
            assert_eq!(decoded, resp);
        }
        let ack = Response { req_id: 0, body: ResponseBody::Ack };
        assert_eq!(decode_response(&encode_response(&ack)).expect("ack"), ack);
    }

    #[test]
    fn hello_round_trips_and_bounds_its_token() {
        let h = Hello { token: b"tenant-42".to_vec() };
        assert_eq!(decode_hello(&encode_hello(&h)).expect("round trip"), h);
        // An over-long declared token is FieldTooLong, not an allocation.
        let mut bad = vec![PROTO_VERSION, KIND_HELLO];
        bad.extend_from_slice(&(MAX_TOKEN_LEN as u16 + 1).to_le_bytes());
        assert_eq!(decode_hello(&bad), Err(WireError::FieldTooLong));
    }

    #[test]
    fn every_submit_error_variant_maps_to_a_distinct_status() {
        // The exhaustive-match contract, checked value by value: each
        // variant gets its own code and the codes never collide.
        let variants: Vec<SubmitError> = vec![
            SubmitError::QueueFull { capacity: 9 },
            SubmitError::Shutdown,
            SubmitError::OversizedOperand { bits: 4096, max_bits: 1024 },
            SubmitError::InvalidJob("division by zero"),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for e in &variants {
            assert!(seen.insert(status_of(e).as_byte()), "status collision for {e:?}");
        }
        // And none of them collide with the non-admission statuses.
        for s in [
            WireStatus::Ok,
            WireStatus::AuthRejected,
            WireStatus::UnsupportedVersion,
            WireStatus::MalformedFrame,
            WireStatus::OversizedFrame,
            WireStatus::Internal,
        ] {
            assert!(seen.insert(s.as_byte()), "admission status collides with {s}");
        }
    }

    #[test]
    fn every_rejection_round_trips_encode_decode() {
        let variants: Vec<SubmitError> = vec![
            SubmitError::QueueFull { capacity: 256 },
            SubmitError::Shutdown,
            SubmitError::OversizedOperand { bits: 1 << 20, max_bits: 1 << 12 },
            SubmitError::InvalidJob("Montgomery modulus must be odd and >= 3"),
        ];
        for e in &variants {
            let rejection = Rejection::from(e);
            assert_eq!(rejection.status(), status_of(e), "status drift for {e:?}");
            let resp = Response { req_id: 5, body: ResponseBody::Rejected(rejection.clone()) };
            let decoded = decode_response(&encode_response(&resp)).expect("round trip");
            assert_eq!(decoded.body, ResponseBody::Rejected(rejection));
        }
    }

    #[test]
    fn unknown_status_bytes_are_rejected_not_defaulted() {
        let resp = Response { req_id: 1, body: ResponseBody::Failed(WireStatus::Internal) };
        let mut bytes = encode_response(&resp);
        // Payload layout: version, kind, req_id (8), status — patch the
        // status byte to something unassigned.
        bytes[10] = 0xEE;
        assert_eq!(decode_response(&bytes), Err(WireError::BadStatus(0xEE)));
        assert_eq!(WireStatus::from_byte(0xEE), None);
    }

    #[test]
    fn version_and_kind_mismatches_are_typed() {
        let req = Request { req_id: 0, job: Job::Sqrt { a: nat(64, 1) } };
        let mut bytes = encode_request(&req);
        bytes[0] = 2;
        assert!(matches!(decode_request(&bytes), Err(WireError::BadVersion(2))));
        let mut bytes = encode_request(&req);
        bytes[1] = b'Z';
        assert!(matches!(decode_request(&bytes), Err(WireError::BadKind(b'Z'))));
        let mut bytes = encode_request(&req);
        bytes[10] = 0x7F;
        assert!(matches!(decode_request(&bytes), Err(WireError::BadOp(0x7F))));
    }

    #[test]
    fn truncated_and_trailing_payloads_are_typed() {
        let req = Request { req_id: 3, job: Job::Sqrt { a: nat(100, 1) } };
        let bytes = encode_request(&req);
        assert!(matches!(
            decode_request(&bytes[..bytes.len() - 1]),
            Err(WireError::LengthMismatch)
        ));
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(decode_request(&long), Err(WireError::TrailingBytes)));
        // A hostile limb count larger than the payload fails before
        // allocating.
        let mut hostile = vec![PROTO_VERSION, KIND_REQUEST];
        hostile.extend_from_slice(&0u64.to_le_bytes());
        hostile.push(2); // sqrt
        hostile.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_request(&hostile), Err(WireError::LengthMismatch)));
    }

    #[test]
    fn non_canonical_zero_padded_nats_decode_to_canonical_values() {
        let mut payload = vec![PROTO_VERSION, KIND_REQUEST];
        payload.extend_from_slice(&9u64.to_le_bytes());
        payload.push(2); // sqrt
        payload.extend_from_slice(&3u32.to_le_bytes());
        payload.extend_from_slice(&25u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        let req = decode_request(&payload).expect("zero padding is tolerated");
        match req.job {
            Job::Sqrt { a } => assert_eq!(a, Nat::from(25u64)),
            other => unreachable!("decoded wrong op: {other:?}"),
        }
    }

    #[test]
    fn frame_io_round_trips_and_caps_reads() {
        let payload = vec![1u8, 2, 3, 4, 5];
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).expect("write to Vec");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r, 64).expect("within cap"), payload);
        // The same bytes with a 4-byte cap fail closed before the body.
        let mut r = &buf[..];
        match read_frame(&mut r, 4) {
            Err(FrameError::TooLarge { len: 5, cap: 4 }) => {}
            other => unreachable!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn send_frame_matches_write_frame_and_reuses_its_buffer() {
        let req = Request { req_id: 9, job: Job::Mul { a: nat(2047, 5), b: nat(2047, 3) } };
        let ack = Response { req_id: 9, body: ResponseBody::Ack };
        let mut frame = Vec::new();
        let mut sent = Vec::new();
        send_frame(&mut sent, &mut frame, &req).expect("write to Vec");
        let widest = frame.capacity();
        send_frame(&mut sent, &mut frame, &ack).expect("write to Vec");
        assert_eq!(frame.capacity(), widest, "a narrower frame reallocated the buffer");
        let mut expected = Vec::new();
        write_frame(&mut expected, &encode_request(&req)).expect("write to Vec");
        write_frame(&mut expected, &encode_response(&ack)).expect("write to Vec");
        assert_eq!(sent, expected);
        // Both frames read back, in order, through one reused buffer.
        let mut r = &sent[..];
        read_frame_into(&mut r, 1 << 16, &mut frame).expect("request frame");
        assert_eq!(decode_request(&frame).expect("request").req_id, 9);
        read_frame_into(&mut r, 1 << 16, &mut frame).expect("ack frame");
        assert_eq!(decode_response(&frame).expect("ack"), ack);
        assert!(r.is_empty());
    }

    #[test]
    fn frame_caps_cover_the_widest_request_and_response() {
        let max_bits = 1 << 14;
        let a = Nat::power_of_two(max_bits - 1) + Nat::from(3u64);
        let req = Request {
            req_id: 1,
            job: Job::ModExp { base: a.clone(), exp: a.clone(), modulus: a.clone() },
        };
        let encoded = encode_request(&req);
        assert!((encoded.len() as u64) <= request_frame_cap(max_bits));
        let resp = Response {
            req_id: 1,
            body: ResponseBody::Output(JobOutput::Product(&a * &a)),
        };
        let encoded = encode_response(&resp);
        assert!((encoded.len() as u64) <= response_frame_cap(max_bits));
    }
}
