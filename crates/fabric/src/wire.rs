//! The fabric's wire protocol: versioned, CRC-checked frames.
//!
//! Every message between a router and a node travels as one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  "TKFB"
//!      4     2  version (u16 LE, currently 2)
//!      6     1  frame kind
//!      7     1  flags (reserved, 0)
//!      8     4  body length (u32 LE, capped at 64 MiB)
//!     12     n  body
//!   12+n     4  CRC-32 of bytes [0, 12+n) (u32 LE)
//! ```
//!
//! **Versions.** Both ends speak exactly [`WIRE_VERSION`]: a `Query`
//! carries an optional 16-byte trace id and a `TopK` an optional stage
//! span section. A frame at any other version — including version 1,
//! the same bodies without the trace fields, which nothing writes any
//! more — is a typed [`WireError::VersionSkew`].
//!
//! The reader validates in this order — magic, version, kind, length —
//! *before* allocating anything for the body, so a hostile peer cannot
//! make the node preallocate from a forged length prefix: lengths above
//! [`MAX_BODY_LEN`] are rejected with a typed error, and admissible
//! lengths fall under the cap rule of [`tkspmv_sparse::codec`], the
//! byte-level reader this format is a schema over (the buffer grows
//! only as bytes actually arrive). The CRC trails the frame so a writer
//! can stream; the reader hashes header and body as they arrive and
//! verifies the trailer before the body is decoded.
//!
//! Scores cross the wire as `f64::to_bits` and query values as
//! `f32::to_bits`, so routed results are bit-identical to local ones —
//! the same discipline the snapshot format uses on disk.

use std::io::{Read, Write};

use tkspmv::backend::QueryTier;
use tkspmv_obs::{Stage, StageSpan, TraceId, MAX_SPANS_PER_RECORD};
use tkspmv_sparse::codec::{crc32, CodecError, CrcIo, Reader};

use crate::error::RpcError;

/// Frame magic: identifies a byte stream as fabric traffic.
const MAGIC: [u8; 4] = *b"TKFB";

/// The one wire-protocol version this build speaks. Bumped on any
/// layout change; a peer at any other version gets a typed
/// [`WireError::VersionSkew`], never a silent misparse.
pub const WIRE_VERSION: u16 = 2;

/// Hard cap on a frame body. Large enough for a 64-query batch of
/// 4096-dim vectors or a multi-thousand-row append, small enough that a
/// forged length prefix cannot exhaust memory.
pub const MAX_BODY_LEN: u32 = 64 * 1024 * 1024;

/// Most `Append` rows reserved up front from a declared row count (a
/// decoded row is a dozen times larger than the 4 bytes that admit it).
const ROWS_RESERVE_CAP: usize = 1 << 16;

/// Frame header size in bytes (magic + version + kind + flags + length).
pub const HEADER_LEN: usize = 12;

/// What a frame carries. The discriminants are the on-wire kind byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Client → node: liveness probe.
    Ping = 1,
    /// Node → client: liveness answer.
    Pong = 2,
    /// Client → node: describe yourself (shape, epoch, batch policy).
    InfoRequest = 3,
    /// Node → client: the [`NodeInfo`] answer.
    Info = 4,
    /// Client → node: a top-K query.
    Query = 5,
    /// Node → client: a ranking.
    TopK = 6,
    /// Client → node: append rows to the delta shard.
    Append = 7,
    /// Node → client: rows admitted, with their assigned global ids.
    AppendOk = 8,
    /// Client → node: fold the delta shard into the base now.
    Compact = 9,
    /// Node → client: compaction outcome.
    CompactOk = 10,
    /// Node → client: a typed [`RpcError`].
    Error = 11,
    /// Client → node: stop serving and exit (used by process harnesses).
    Shutdown = 12,
    /// Node → client: shutdown acknowledged.
    ShutdownOk = 13,
}

impl FrameKind {
    fn from_u8(kind: u8) -> Option<Self> {
        Some(match kind {
            1 => FrameKind::Ping,
            2 => FrameKind::Pong,
            3 => FrameKind::InfoRequest,
            4 => FrameKind::Info,
            5 => FrameKind::Query,
            6 => FrameKind::TopK,
            7 => FrameKind::Append,
            8 => FrameKind::AppendOk,
            9 => FrameKind::Compact,
            10 => FrameKind::CompactOk,
            11 => FrameKind::Error,
            12 => FrameKind::Shutdown,
            13 => FrameKind::ShutdownOk,
            _ => return None,
        })
    }
}

/// Every way a byte stream can fail to be a valid frame, as a distinct
/// variant — corruption is diagnosed, not guessed at.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying transport failed (connect, read, write, timeout).
    Io(std::io::Error),
    /// The stream ended mid-frame.
    Truncated {
        /// Which part of the frame was cut short.
        context: &'static str,
    },
    /// The first four bytes are not `"TKFB"` — not fabric traffic.
    BadMagic {
        /// The bytes actually found.
        found: [u8; 4],
    },
    /// The peer speaks a different protocol version.
    VersionSkew {
        /// The version the peer declared.
        found: u16,
        /// The version this build speaks.
        expected: u16,
    },
    /// The kind byte names no known frame kind.
    UnknownKind {
        /// The byte actually found.
        kind: u8,
    },
    /// The length prefix exceeds [`MAX_BODY_LEN`]. Rejected before any
    /// allocation.
    FrameTooLarge {
        /// The declared body length.
        len: u32,
        /// The enforced cap.
        max: u32,
    },
    /// The frame's CRC-32 trailer does not match its bytes.
    CrcMismatch {
        /// The CRC the frame carried.
        stored: u32,
        /// The CRC computed over the received bytes.
        computed: u32,
    },
    /// The frame is structurally sound but its body does not decode as
    /// the message its kind promises.
    Malformed {
        /// What failed to decode.
        detail: String,
    },
    /// A structurally valid frame of an unexpected kind (e.g. a `Pong`
    /// where a ranking was awaited).
    UnexpectedFrame {
        /// The kind actually received.
        got: FrameKind,
        /// What the caller was waiting for.
        expected: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "transport failure: {e}"),
            WireError::Truncated { context } => {
                write!(f, "stream ended mid-frame while reading {context}")
            }
            WireError::BadMagic { found } => {
                write!(f, "bad frame magic {found:02x?} (expected \"TKFB\")")
            }
            WireError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "wire version skew: peer speaks v{found}, this build speaks v{expected}"
                )
            }
            WireError::UnknownKind { kind } => write!(f, "unknown frame kind {kind}"),
            WireError::FrameTooLarge { len, max } => {
                write!(f, "frame body of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::CrcMismatch { stored, computed } => {
                write!(
                    f,
                    "frame CRC mismatch: stored {stored:#010x}, computed {computed:#010x}"
                )
            }
            WireError::Malformed { detail } => write!(f, "malformed frame body: {detail}"),
            WireError::UnexpectedFrame { got, expected } => {
                write!(f, "unexpected {got:?} frame while awaiting {expected}")
            }
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

/// How a *body* read fails: the frame arrived whole and CRC-clean, so
/// a body that ends early is malformed, not a truncated stream.
impl From<CodecError> for WireError {
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::Io(e) => WireError::Io(e),
            CodecError::Truncated { what } => {
                WireError::malformed(format!("{what}: body ends early"))
            }
            CodecError::Malformed { detail } => WireError::Malformed { detail },
        }
    }
}

impl WireError {
    fn malformed(detail: impl Into<String>) -> Self {
        WireError::Malformed {
            detail: detail.into(),
        }
    }

    /// Whether this is a transport timeout (as opposed to corruption or
    /// a protocol violation). Routers use this to tell "node is slow"
    /// from "node is broken".
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            WireError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// One decoded frame: its declared version, kind, and raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The protocol version the frame was encoded at.
    pub version: u16,
    /// What the body claims to carry.
    pub kind: FrameKind,
    /// The body bytes, CRC-verified but not yet decoded.
    pub body: Vec<u8>,
}

/// Encodes a complete frame (header + body + CRC trailer) at the
/// current [`WIRE_VERSION`]. Exposed so tests can corrupt frames
/// surgically.
///
/// # Panics
///
/// Panics if `body` exceeds [`MAX_BODY_LEN`] — encoders construct bodies
/// and are responsible for staying under the cap.
pub fn encode_frame(kind: FrameKind, body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + body.len() + 4);
    encode_frame_into(&mut buf, WIRE_VERSION, kind, body);
    buf
}

/// [`encode_frame`] at an explicit version into a caller-owned buffer:
/// clears `buf` and appends the complete frame, reusing its capacity. The
/// per-call encode path of a warm connection goes through here so a
/// node answering a stream of queries does not pay a frame-sized
/// allocation per response.
///
/// # Panics
///
/// As [`encode_frame`].
pub fn encode_frame_into(buf: &mut Vec<u8>, version: u16, kind: FrameKind, body: &[u8]) {
    assert!(
        body.len() <= MAX_BODY_LEN as usize,
        "frame body of {} bytes exceeds the wire cap",
        body.len()
    );
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&version.to_le_bytes());
    buf.push(kind as u8);
    buf.push(0); // flags, reserved
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(body);
    let crc = crc32(buf);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// Writes one frame to `w` at the current [`WIRE_VERSION`]; a body
/// over the cap is the caller's typed error, not a panic.
fn write_frame<W: Write>(w: &mut W, kind: FrameKind, body: &[u8]) -> Result<(), WireError> {
    if body.len() > MAX_BODY_LEN as usize {
        return Err(WireError::FrameTooLarge {
            len: u32::try_from(body.len()).unwrap_or(u32::MAX),
            max: MAX_BODY_LEN,
        });
    }
    w.write_all(&encode_frame(kind, body))?;
    w.flush()?;
    Ok(())
}

/// How a *stream* read fails: the peer went away mid-frame.
fn cut_short(e: CodecError) -> WireError {
    match e {
        CodecError::Truncated { what } => WireError::Truncated { context: what },
        other => other.into(),
    }
}

/// Reads and validates one frame from `r`.
///
/// Validation order: magic, version, kind, length — all from the fixed
/// 12-byte header, before any body allocation.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, WireError> {
    let mut hashed = CrcIo::new(&mut *r);
    let header: [u8; HEADER_LEN] = Reader::new(&mut hashed)
        .fixed("header")
        .map_err(cut_short)?;
    let mut h = Reader::new(header.as_slice());
    let magic = h.fixed("header")?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let version = h.u16("header")?;
    if version != WIRE_VERSION {
        return Err(WireError::VersionSkew {
            found: version,
            expected: WIRE_VERSION,
        });
    }
    let kind = h.u8("header")?;
    let kind = FrameKind::from_u8(kind).ok_or(WireError::UnknownKind { kind })?;
    let _flags = h.u8("header")?;
    let len = h.u32("header")?;
    if len > MAX_BODY_LEN {
        return Err(WireError::FrameTooLarge {
            len,
            max: MAX_BODY_LEN,
        });
    }
    let body = Reader::new(&mut hashed)
        .bytes(len as usize, "body")
        .map_err(cut_short)?;
    let computed = hashed.crc();
    // The trailer is not covered by itself: read it unhashed.
    let stored = Reader::new(r).u32("CRC trailer").map_err(cut_short)?;
    if stored != computed {
        return Err(WireError::CrcMismatch { stored, computed });
    }
    Ok(Frame {
        version,
        kind,
        body,
    })
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_tier(buf: &mut Vec<u8>, tier: QueryTier) {
    match tier {
        QueryTier::Exact => buf.push(0),
        QueryTier::Pruned { shortlist_factor } => {
            buf.push(1);
            buf.extend_from_slice(&(shortlist_factor as u32).to_le_bytes());
        }
    }
}

fn decode_tier(r: &mut Reader<&[u8]>) -> Result<QueryTier, WireError> {
    match r.u8("tier tag")? {
        0 => Ok(QueryTier::Exact),
        1 => Ok(QueryTier::Pruned {
            shortlist_factor: r.u32("shortlist factor")? as usize,
        }),
        t => Err(WireError::malformed(format!("unknown tier tag {t}"))),
    }
}

/// A length-prefixed string (`u32` length, then UTF-8).
fn decode_string(r: &mut Reader<&[u8]>, what: &'static str) -> Result<String, WireError> {
    let len = r.u32(what)? as usize;
    Ok(r.string(len, what)?)
}

/// `count` `f32` values, transported as their bits.
fn decode_f32s(
    r: &mut Reader<&[u8]>,
    count: usize,
    what: &'static str,
) -> Result<Vec<f32>, WireError> {
    Ok(r.array::<u32>(count, what)?
        .into_iter()
        .map(f32::from_bits)
        .collect())
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// What a node says about itself, fetched by routers at build time so
/// deadline budgets can be validated against the node's real batching
/// policy (the [`crate::router`] idle-traffic-tax contract).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeInfo {
    /// First global row id this node serves.
    pub start_row: u64,
    /// Rows in the node's base (compacted) collection.
    pub base_rows: u64,
    /// Rows currently in the append-only delta shard.
    pub delta_rows: u64,
    /// Embedding dimension.
    pub dim: u64,
    /// Current serving epoch of the node's base collection.
    pub epoch: u64,
    /// The node batcher's `max_wait`, in microseconds. A router's
    /// per-node deadline must exceed this or a lone query can never
    /// answer in time.
    pub max_wait_micros: u64,
    /// The node batcher's `max_batch_size`.
    pub max_batch_size: u32,
    /// The node's bounded submission-queue capacity.
    pub queue_capacity: u32,
}

impl NodeInfo {
    /// Total rows the node answers for (base + delta).
    pub fn total_rows(&self) -> u64 {
        self.base_rows + self.delta_rows
    }
}

/// A client → node message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Describe yourself.
    Info,
    /// Rank the top `k` rows for `x` at the given tier.
    Query {
        /// The dense query vector.
        x: Vec<f32>,
        /// How many results to return.
        k: u32,
        /// Precision tier.
        tier: QueryTier,
        /// Distributed trace id; [`TraceId::ZERO`] means "untraced". A
        /// non-zero id asks the node to stamp its stage spans with it
        /// and return them on the `TopK` answer.
        trace: TraceId,
    },
    /// Append rows (sorted sparse form) to the delta shard.
    Append {
        /// `(column indices, values)` per row; columns strictly
        /// increasing within a row.
        rows: Vec<(Vec<u32>, Vec<f32>)>,
    },
    /// Fold the delta shard into the base collection now.
    Compact,
    /// Stop serving and exit.
    Shutdown,
}

impl Request {
    /// Encodes into a frame kind and body at the current
    /// [`WIRE_VERSION`].
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        match self {
            Request::Ping => (FrameKind::Ping, Vec::new()),
            Request::Info => (FrameKind::InfoRequest, Vec::new()),
            Request::Query { x, k, tier, trace } => {
                let mut body = Vec::with_capacity(40 + 4 * x.len());
                body.extend_from_slice(&k.to_le_bytes());
                encode_tier(&mut body, *tier);
                body.extend_from_slice(&(x.len() as u32).to_le_bytes());
                for v in x {
                    body.extend_from_slice(&v.to_bits().to_le_bytes());
                }
                if trace.is_zero() {
                    body.push(0);
                } else {
                    body.push(1);
                    body.extend_from_slice(&trace.0);
                }
                (FrameKind::Query, body)
            }
            Request::Append { rows } => {
                let mut body = Vec::new();
                body.extend_from_slice(&(rows.len() as u32).to_le_bytes());
                for (cols, vals) in rows {
                    body.extend_from_slice(&(cols.len() as u32).to_le_bytes());
                    for c in cols {
                        body.extend_from_slice(&c.to_le_bytes());
                    }
                    for v in vals {
                        body.extend_from_slice(&v.to_bits().to_le_bytes());
                    }
                }
                (FrameKind::Append, body)
            }
            Request::Compact => (FrameKind::Compact, Vec::new()),
            Request::Shutdown => (FrameKind::Shutdown, Vec::new()),
        }
    }

    /// Decodes from a received frame.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        let mut r = Reader::new(frame.body.as_slice());
        let req = match frame.kind {
            FrameKind::Ping => Request::Ping,
            FrameKind::InfoRequest => Request::Info,
            FrameKind::Query => {
                let k = r.u32("k")?;
                let tier = decode_tier(&mut r)?;
                let dim = r.u32("query length")? as usize;
                r.expect_elems(dim, 4, "query values")?;
                let x = decode_f32s(&mut r, dim, "query values")?;
                let trace = if r.u8("trace presence")? != 0 {
                    TraceId(r.fixed("trace id")?)
                } else {
                    TraceId::ZERO
                };
                Request::Query { x, k, tier, trace }
            }
            FrameKind::Append => {
                let n = r.u32("row count")? as usize;
                // Each row needs at least its own count field.
                r.expect_elems(n, 4, "append rows")?;
                let mut rows = Vec::with_capacity(n.min(ROWS_RESERVE_CAP));
                for _ in 0..n {
                    let nnz = r.u32("row nnz")? as usize;
                    r.expect_elems(nnz, 8, "row entries")?;
                    let cols = r.array(nnz, "column indices")?;
                    let vals = decode_f32s(&mut r, nnz, "values")?;
                    rows.push((cols, vals));
                }
                Request::Append { rows }
            }
            FrameKind::Compact => Request::Compact,
            FrameKind::Shutdown => Request::Shutdown,
            other => {
                return Err(WireError::UnexpectedFrame {
                    got: other,
                    expected: "a request frame",
                })
            }
        };
        r.finish("request")?;
        Ok(req)
    }
}

/// A node's stage-span report for one traced query, as carried on a
/// `TopK` frame. Span offsets are relative to the node's own query
/// start; the router re-bases them into its wire round-trip interval
/// when assembling the cross-node tree.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireTrace {
    /// The node's end-to-end latency for the query, microseconds.
    pub total_us: u32,
    /// The node's stage spans, pipeline order.
    pub stages: Vec<StageSpan>,
}

/// A node → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer.
    Pong,
    /// The node's self-description.
    Info(NodeInfo),
    /// A ranking, in the engine total order, with *global* row ids.
    /// Scores are transported as `f64` bits — bit-identical to a local
    /// query.
    TopK {
        /// `(global row id, score)` pairs, best first.
        entries: Vec<(u32, f64)>,
        /// The node's stage spans for a traced query; `None` when the
        /// query was untraced.
        trace: Option<WireTrace>,
    },
    /// Rows admitted to the delta shard, with their assigned global ids.
    AppendOk {
        /// One global id per appended row, in append order.
        ids: Vec<u32>,
    },
    /// Compaction finished (or was a no-op on an empty delta).
    CompactOk {
        /// The serving epoch after the fold.
        epoch: u64,
        /// How many delta rows were folded into the base.
        folded: u64,
    },
    /// The request failed with a typed node-side error.
    Error(RpcError),
    /// Shutdown acknowledged; the node exits after this frame.
    ShutdownOk,
}

impl Response {
    /// Encodes into a frame kind and body at the current
    /// [`WIRE_VERSION`].
    pub fn encode(&self) -> (FrameKind, Vec<u8>) {
        match self {
            Response::Pong => (FrameKind::Pong, Vec::new()),
            Response::Info(info) => {
                let mut body = Vec::with_capacity(56);
                body.extend_from_slice(&info.start_row.to_le_bytes());
                body.extend_from_slice(&info.base_rows.to_le_bytes());
                body.extend_from_slice(&info.delta_rows.to_le_bytes());
                body.extend_from_slice(&info.dim.to_le_bytes());
                body.extend_from_slice(&info.epoch.to_le_bytes());
                body.extend_from_slice(&info.max_wait_micros.to_le_bytes());
                body.extend_from_slice(&info.max_batch_size.to_le_bytes());
                body.extend_from_slice(&info.queue_capacity.to_le_bytes());
                (FrameKind::Info, body)
            }
            Response::TopK { entries, trace } => {
                let mut body = Vec::with_capacity(16 + 12 * entries.len());
                body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
                for (row, score) in entries {
                    body.extend_from_slice(&row.to_le_bytes());
                    body.extend_from_slice(&score.to_bits().to_le_bytes());
                }
                match trace {
                    None => body.push(0),
                    Some(t) => {
                        body.push(1);
                        body.extend_from_slice(&t.total_us.to_le_bytes());
                        let n = t.stages.len().min(MAX_SPANS_PER_RECORD);
                        body.push(n as u8);
                        for s in t.stages.iter().take(n) {
                            body.push(s.stage as u8);
                            body.extend_from_slice(&s.start_us.to_le_bytes());
                            body.extend_from_slice(&s.dur_us.to_le_bytes());
                        }
                    }
                }
                (FrameKind::TopK, body)
            }
            Response::AppendOk { ids } => {
                let mut body = Vec::with_capacity(4 + 4 * ids.len());
                body.extend_from_slice(&(ids.len() as u32).to_le_bytes());
                for id in ids {
                    body.extend_from_slice(&id.to_le_bytes());
                }
                (FrameKind::AppendOk, body)
            }
            Response::CompactOk { epoch, folded } => {
                let mut body = Vec::with_capacity(16);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&folded.to_le_bytes());
                (FrameKind::CompactOk, body)
            }
            Response::Error(e) => {
                let mut body = Vec::new();
                match e {
                    RpcError::Overloaded => body.push(0),
                    RpcError::ShuttingDown => body.push(1),
                    RpcError::BadRequest { detail } => {
                        body.push(2);
                        put_string(&mut body, detail);
                    }
                    RpcError::Engine { detail } => {
                        body.push(3);
                        put_string(&mut body, detail);
                    }
                    RpcError::Internal { detail } => {
                        body.push(4);
                        put_string(&mut body, detail);
                    }
                }
                (FrameKind::Error, body)
            }
            Response::ShutdownOk => (FrameKind::ShutdownOk, Vec::new()),
        }
    }

    /// Decodes from a received frame.
    pub fn decode(frame: &Frame) -> Result<Self, WireError> {
        let mut r = Reader::new(frame.body.as_slice());
        let resp = match frame.kind {
            FrameKind::Pong => Response::Pong,
            FrameKind::Info => Response::Info(NodeInfo {
                start_row: r.u64("start_row")?,
                base_rows: r.u64("base_rows")?,
                delta_rows: r.u64("delta_rows")?,
                dim: r.u64("dim")?,
                epoch: r.u64("epoch")?,
                max_wait_micros: r.u64("max_wait_micros")?,
                max_batch_size: r.u32("max_batch_size")?,
                queue_capacity: r.u32("queue_capacity")?,
            }),
            FrameKind::TopK => {
                let n = r.u32("entry count")? as usize;
                r.expect_elems(n, 12, "topk entries")?;
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let row = r.u32("row id")?;
                    let score = f64::from_bits(r.u64("score bits")?);
                    entries.push((row, score));
                }
                let trace = if r.u8("trace presence")? != 0 {
                    let total_us = r.u32("trace total")?;
                    let count = r.u8("span count")? as usize;
                    if count > MAX_SPANS_PER_RECORD {
                        return Err(WireError::malformed(format!(
                            "trace span count {count} exceeds the {MAX_SPANS_PER_RECORD} cap"
                        )));
                    }
                    r.expect_elems(count, 9, "trace spans")?;
                    let mut stages = Vec::with_capacity(count);
                    for _ in 0..count {
                        let tag = r.u8("span stage")?;
                        let start_us = r.u32("span start")?;
                        let dur_us = r.u32("span duration")?;
                        // A newer peer may report stages this build does
                        // not know; skip them rather than failing the
                        // whole answer.
                        if let Some(stage) = Stage::from_u8(tag) {
                            stages.push(StageSpan {
                                stage,
                                start_us,
                                dur_us,
                            });
                        }
                    }
                    Some(WireTrace { total_us, stages })
                } else {
                    None
                };
                Response::TopK { entries, trace }
            }
            FrameKind::AppendOk => {
                let n = r.u32("id count")? as usize;
                r.expect_elems(n, 4, "row ids")?;
                Response::AppendOk {
                    ids: r.array(n, "row ids")?,
                }
            }
            FrameKind::CompactOk => Response::CompactOk {
                epoch: r.u64("epoch")?,
                folded: r.u64("folded")?,
            },
            FrameKind::Error => {
                let e = match r.u8("error tag")? {
                    0 => RpcError::Overloaded,
                    1 => RpcError::ShuttingDown,
                    2 => RpcError::BadRequest {
                        detail: decode_string(&mut r, "error detail")?,
                    },
                    3 => RpcError::Engine {
                        detail: decode_string(&mut r, "error detail")?,
                    },
                    4 => RpcError::Internal {
                        detail: decode_string(&mut r, "error detail")?,
                    },
                    t => return Err(WireError::malformed(format!("unknown error tag {t}"))),
                };
                Response::Error(e)
            }
            FrameKind::ShutdownOk => Response::ShutdownOk,
            other => {
                return Err(WireError::UnexpectedFrame {
                    got: other,
                    expected: "a response frame",
                })
            }
        };
        r.finish("response")?;
        Ok(resp)
    }
}

/// Writes a request as one frame.
pub fn write_request<W: Write>(w: &mut W, req: &Request) -> Result<(), WireError> {
    let (kind, body) = req.encode();
    write_frame(w, kind, &body)
}

/// Reads and decodes one request frame.
pub fn read_request<R: Read>(r: &mut R) -> Result<Request, WireError> {
    Request::decode(&read_frame(r)?)
}

/// Writes a response as one frame.
pub fn write_response<W: Write>(w: &mut W, resp: &Response) -> Result<(), WireError> {
    let (kind, body) = resp.encode();
    write_frame(w, kind, &body)
}

/// Reads and decodes one response frame.
pub fn read_response<R: Read>(r: &mut R) -> Result<Response, WireError> {
    Response::decode(&read_frame(r)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_request(req: Request) {
        let (kind, body) = req.encode();
        let bytes = encode_frame(kind, &body);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame");
        assert_eq!(Request::decode(&frame).expect("decode"), req);
    }

    fn roundtrip_response(resp: Response) {
        let (kind, body) = resp.encode();
        let bytes = encode_frame(kind, &body);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame");
        assert_eq!(Response::decode(&frame).expect("decode"), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_request(Request::Ping);
        roundtrip_request(Request::Info);
        roundtrip_request(Request::Query {
            x: vec![0.5, -1.25, 3.75],
            k: 10,
            tier: QueryTier::Exact,
            trace: TraceId::ZERO,
        });
        roundtrip_request(Request::Query {
            x: vec![1.0],
            k: 1,
            tier: QueryTier::Pruned {
                shortlist_factor: 8,
            },
            trace: TraceId::generate(),
        });
        roundtrip_request(Request::Append {
            rows: vec![(vec![0, 5, 9], vec![1.0, 2.0, 3.0]), (vec![2], vec![0.25])],
        });
        roundtrip_request(Request::Compact);
        roundtrip_request(Request::Shutdown);
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_response(Response::Pong);
        roundtrip_response(Response::Info(NodeInfo {
            start_row: 1000,
            base_rows: 512,
            delta_rows: 7,
            dim: 64,
            epoch: 3,
            max_wait_micros: 200,
            max_batch_size: 32,
            queue_capacity: 1024,
        }));
        roundtrip_response(Response::TopK {
            entries: vec![(42, 0.987654321), (7, 0.5), (0, f64::MIN_POSITIVE)],
            trace: None,
        });
        roundtrip_response(Response::TopK {
            entries: vec![(1, 2.5)],
            trace: Some(WireTrace {
                total_us: 950,
                stages: vec![
                    StageSpan {
                        stage: Stage::Queue,
                        start_us: 0,
                        dur_us: 120,
                    },
                    StageSpan {
                        stage: Stage::Score,
                        start_us: 120,
                        dur_us: 700,
                    },
                ],
            }),
        });
        roundtrip_response(Response::AppendOk {
            ids: vec![100, 101],
        });
        roundtrip_response(Response::CompactOk {
            epoch: 5,
            folded: 12,
        });
        roundtrip_response(Response::Error(RpcError::Overloaded));
        roundtrip_response(Response::Error(RpcError::BadRequest {
            detail: "k = 0".into(),
        }));
        roundtrip_response(Response::ShutdownOk);
    }

    #[test]
    fn scores_transport_bit_identically() {
        let scores = [0.1f64, 1.0 / 3.0, std::f64::consts::PI, 1e-300];
        let entries: Vec<(u32, f64)> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| (i as u32, s))
            .collect();
        let resp = Response::TopK {
            entries: entries.clone(),
            trace: None,
        };
        let (kind, body) = resp.encode();
        let bytes = encode_frame(kind, &body);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame");
        match Response::decode(&frame).expect("decode") {
            Response::TopK { entries: got, .. } => {
                for ((_, a), (_, b)) in entries.iter().zip(&got) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_frame(FrameKind::Ping, &[]);
        bytes[0] = b'X';
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::BadMagic { found }) => assert_eq!(found[0], b'X'),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn version_skew_is_typed() {
        // Version 1 (v2 without the trace fields, no writer left) is
        // skew like any other.
        for skewed in [1u16, 0x7FFF] {
            let mut bytes = encode_frame(FrameKind::Ping, &[]);
            bytes[4..6].copy_from_slice(&skewed.to_le_bytes());
            match read_frame(&mut bytes.as_slice()) {
                Err(WireError::VersionSkew { found, expected }) => {
                    assert_eq!(found, skewed);
                    assert_eq!(expected, WIRE_VERSION);
                }
                other => panic!("v{skewed}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn over_cap_body_is_a_typed_error_not_a_panic() {
        let body = vec![0u8; MAX_BODY_LEN as usize + 1];
        match write_frame(&mut std::io::sink(), FrameKind::Append, &body) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, MAX_BODY_LEN + 1);
                assert_eq!(max, MAX_BODY_LEN);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn short_bodies_are_malformed_not_truncated_streams() {
        // The frame is whole and CRC-clean; only its body is too short
        // for its kind. A node must answer that typed, not hang up.
        let bytes = encode_frame(FrameKind::Query, &3u32.to_le_bytes());
        let frame = read_frame(&mut bytes.as_slice()).expect("frame is structurally fine");
        match Request::decode(&frame) {
            Err(WireError::Malformed { detail }) => assert!(detail.contains("tier tag")),
            other => panic!("unexpected {other:?}"),
        }
    }

    fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    /// One `Query` and one `TopK` frame against the bytes the commit
    /// before the codec extraction produced for them.
    #[test]
    fn golden_frames_match_the_pre_codec_encoder() {
        let mut id = [0u8; 16];
        for (i, b) in id.iter_mut().enumerate() {
            *b = i as u8 + 1;
        }
        let query = Request::Query {
            x: vec![0.5, -1.25],
            k: 3,
            tier: QueryTier::Pruned {
                shortlist_factor: 8,
            },
            trace: TraceId(id),
        };
        let golden = unhex(concat!(
            "544b46420200050026000000030000000108000000020000000000003f0000a0",
            "bf010102030405060708090a0b0c0d0e0f10e4505947",
        ));
        let (kind, body) = query.encode();
        assert_eq!(encode_frame(kind, &body), golden);
        assert_eq!(read_request(&mut golden.as_slice()).unwrap(), query);

        let topk = Response::TopK {
            entries: vec![(42, 0.987654321), (7, 0.5)],
            trace: Some(WireTrace {
                total_us: 950,
                stages: vec![
                    StageSpan {
                        stage: Stage::Queue,
                        start_us: 0,
                        dur_us: 120,
                    },
                    StageSpan {
                        stage: Stage::Score,
                        start_us: 120,
                        dur_us: 700,
                    },
                ],
            }),
        };
        let golden = unhex(concat!(
            "544b46420200060034000000020000002a000000b8560e3cdd9aef3f07000000",
            "000000000000e03f01b6030000020000000000780000000378000000bc020000",
            "0b029f67",
        ));
        let (kind, body) = topk.encode();
        assert_eq!(encode_frame(kind, &body), golden);
        assert_eq!(read_response(&mut golden.as_slice()).unwrap(), topk);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut bytes = encode_frame(FrameKind::Ping, &[]);
        bytes[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::FrameTooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, MAX_BODY_LEN);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncated_frames_are_typed() {
        let bytes = encode_frame(
            FrameKind::Query,
            &Request::Query {
                x: vec![1.0; 16],
                k: 5,
                tier: QueryTier::Exact,
                trace: TraceId::ZERO,
            }
            .encode()
            .1,
        );
        // Cut inside the header, the body, and the CRC trailer.
        for cut in [3, HEADER_LEN + 5, bytes.len() - 2] {
            match read_frame(&mut &bytes[..cut]) {
                Err(WireError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn flipped_body_bit_fails_crc() {
        let (kind, body) = Request::Query {
            x: vec![0.5; 8],
            k: 3,
            tier: QueryTier::Exact,
            trace: TraceId::ZERO,
        }
        .encode();
        let mut bytes = encode_frame(kind, &body);
        let mid = HEADER_LEN + body.len() / 2;
        bytes[mid] ^= 0x01;
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::CrcMismatch { .. }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unknown_kind_is_typed() {
        let mut bytes = encode_frame(FrameKind::Ping, &[]);
        bytes[6] = 0xEE;
        match read_frame(&mut bytes.as_slice()) {
            Err(WireError::UnknownKind { kind }) => assert_eq!(kind, 0xEE),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forged_element_count_is_malformed_not_oom() {
        // A TopK body claiming u32::MAX entries but carrying none: the
        // decoder must fail typed without attempting the allocation.
        let mut body = Vec::new();
        body.extend_from_slice(&u32::MAX.to_le_bytes());
        let bytes = encode_frame(FrameKind::TopK, &body);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame is structurally fine");
        match Response::decode(&frame) {
            Err(WireError::Malformed { detail }) => assert!(detail.contains("topk entries")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let (kind, mut body) = Request::Ping.encode();
        body.extend_from_slice(&[1, 2, 3]);
        let bytes = encode_frame(kind, &body);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame");
        match Request::decode(&frame) {
            Err(WireError::Malformed { detail }) => assert!(detail.contains("trailing")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn response_frame_is_not_a_request() {
        let bytes = encode_frame(FrameKind::Pong, &[]);
        let frame = read_frame(&mut bytes.as_slice()).expect("frame");
        match Request::decode(&frame) {
            Err(WireError::UnexpectedFrame { got, .. }) => assert_eq!(got, FrameKind::Pong),
            other => panic!("unexpected {other:?}"),
        }
    }
}
