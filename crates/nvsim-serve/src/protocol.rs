//! The `nvsim-serve` wire protocol: length-prefixed binary frames.
//!
//! A connection is a byte stream of *frames*. Each frame is a LEB128
//! varint payload length followed by exactly that many payload bytes;
//! the payload is a tagged command (client → server) or response
//! (server → client) encoded with the `NVSS` varint machinery from
//! [`nvsim_types::snapshot`] ([`SnapshotWriter`] / [`SnapshotReader`]).
//!
//! # Robustness contract
//!
//! Decoding never panics and never half-applies: every malformed input —
//! truncated frame, oversized length prefix, varint overflow, junk tag,
//! trailing bytes, mid-stream disconnect — maps to a typed
//! [`ProtocolError`] carrying the absolute byte offset at which the
//! problem was detected, and a frame is only acted upon once it has
//! fully decoded into a [`Command`]. Semantic failures on well-formed
//! frames (unknown session, unsupported backend) are *not* protocol
//! errors; the server answers those with a [`Response::Error`] frame.
//!
//! # Determinism contract
//!
//! Encoding is a pure function of the value: the same [`Command`] or
//! [`Response`] always encodes to the same bytes, which is what lets the
//! service promise byte-identical response streams at any worker count.

use nvsim_types::snapshot::{SnapshotError, SnapshotErrorKind, SnapshotReader, SnapshotWriter};
use nvsim_types::{Addr, Snapshot};
use nvsim_types::{BackendCounters, BackendKind, FaultPlan, MemOp, RequestDesc, Time};
use std::error::Error;
use std::fmt;

/// Hard ceiling on a single frame's declared payload length (64 MiB).
///
/// Large session snapshots fit comfortably; a length prefix beyond this
/// is treated as corruption ([`ProtocolErrorKind::FrameTooLarge`]) rather
/// than an allocation request.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Why a byte stream failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolErrorKind {
    /// The stream ended inside a length prefix or declared payload. The
    /// field distinguishes a clean mid-frame disconnect from a declared
    /// length running past the received bytes.
    Truncated {
        /// Bytes the frame still needed when the stream ended.
        missing: usize,
    },
    /// A length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge {
        /// The declared payload length.
        declared: u64,
    },
    /// A varint ran past 10 bytes (not a valid `u64`).
    VarintOverflow,
    /// An unknown command or response tag.
    UnknownTag(u8),
    /// A field held a value outside its domain (bad op tag, bad backend
    /// name, non-boolean flag byte, ...).
    BadField(&'static str),
    /// Payload bytes remained after the tagged body finished decoding.
    TrailingBytes(usize),
}

/// A parse failure, with the absolute byte offset where it was detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Offset into the connection byte stream.
    pub offset: usize,
    /// What went wrong.
    pub kind: ProtocolErrorKind,
}

impl ProtocolError {
    fn new(offset: usize, kind: ProtocolErrorKind) -> Self {
        ProtocolError { offset, kind }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            ProtocolErrorKind::Truncated { missing } => write!(
                f,
                "stream truncated at byte {} ({missing} byte(s) missing)",
                self.offset
            ),
            ProtocolErrorKind::FrameTooLarge { declared } => write!(
                f,
                "frame at byte {} declares {declared} payload bytes (max {MAX_FRAME_LEN})",
                self.offset
            ),
            ProtocolErrorKind::VarintOverflow => {
                write!(f, "varint overflow at byte {}", self.offset)
            }
            ProtocolErrorKind::UnknownTag(t) => {
                write!(f, "unknown frame tag {t:#04x} at byte {}", self.offset)
            }
            ProtocolErrorKind::BadField(what) => {
                write!(f, "invalid field at byte {}: {what}", self.offset)
            }
            ProtocolErrorKind::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) in frame ending at {}", self.offset)
            }
        }
    }
}

impl Error for ProtocolError {}

/// Maps a payload-local [`SnapshotError`] to a stream-absolute
/// [`ProtocolError`] (`base` is the payload's offset in the stream).
fn lift(base: usize, e: SnapshotError) -> ProtocolError {
    let kind = match e.kind {
        SnapshotErrorKind::Truncated => ProtocolErrorKind::Truncated { missing: 1 },
        SnapshotErrorKind::VarintOverflow => ProtocolErrorKind::VarintOverflow,
        SnapshotErrorKind::Invalid(what) => ProtocolErrorKind::BadField(what),
        // The remaining kinds only arise from blob framing, which the
        // protocol layer never consumes through a SnapshotReader.
        _ => ProtocolErrorKind::BadField("malformed payload"),
    };
    ProtocolError::new(base + e.offset, kind)
}

/// Session identifier, chosen by the client at open time.
pub type SessionId = u64;

/// Session-scoped options carried by [`Command::Open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpenOptions {
    /// Stream JSONL trace (and persist) events back as
    /// [`Response::TraceChunk`] frames.
    pub trace: bool,
    /// Enable per-line durability tracking (required for
    /// [`Command::Fault`] to produce a non-empty image).
    pub durability: bool,
    /// Requested automatic checkpoint cadence, 0 = none.
    pub snapshot_interval: u64,
}

/// A client request, one per frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Opens session `sid` over a fresh backend of the given kind.
    Open {
        /// Client-chosen session id (must be unused).
        sid: SessionId,
        /// Which backend model to build.
        kind: BackendKind,
        /// NVDIMM count for interleaved kinds.
        dimms: u32,
        /// Session options.
        opts: OpenOptions,
    },
    /// Submits a batch of requests; they execute back-to-back in order.
    Batch {
        /// Target session.
        sid: SessionId,
        /// The requests, in execution order.
        reqs: Vec<RequestDesc>,
    },
    /// Injects a power failure (read-only; see PR-5 crash subsystem).
    Fault {
        /// Target session.
        sid: SessionId,
        /// When to cut.
        plan: FaultPlan,
    },
    /// Requests a full-state snapshot blob of the session.
    Save {
        /// Target session.
        sid: SessionId,
    },
    /// Restores the session from a previously returned snapshot blob.
    Restore {
        /// Target session.
        sid: SessionId,
        /// The `NVSS` blob.
        blob: Vec<u8>,
    },
    /// Parks the session as a snapshot blob and rehydrates it on next
    /// use — on whichever worker picks it up (live migration).
    Migrate {
        /// Target session.
        sid: SessionId,
    },
    /// Closes the session, releasing its state after a final report.
    Close {
        /// Target session.
        sid: SessionId,
    },
}

/// Semantic failure codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The command referenced a session id that is not open.
    UnknownSession,
    /// [`Command::Open`] reused a live session id.
    DuplicateSession,
    /// The backend could not be built (e.g. bad DIMM count).
    BadBackendConfig,
    /// The session's backend does not support the requested operation
    /// (snapshotting, fault injection).
    Unsupported,
    /// A restore blob failed to validate; the session is unchanged.
    RestoreRejected,
}

impl ErrorCode {
    const ALL: [ErrorCode; 5] = [
        ErrorCode::UnknownSession,
        ErrorCode::DuplicateSession,
        ErrorCode::BadBackendConfig,
        ErrorCode::Unsupported,
        ErrorCode::RestoreRejected,
    ];

    fn wire(self) -> u8 {
        match self {
            ErrorCode::UnknownSession => 1,
            ErrorCode::DuplicateSession => 2,
            ErrorCode::BadBackendConfig => 3,
            ErrorCode::Unsupported => 4,
            ErrorCode::RestoreRejected => 5,
        }
    }

    fn from_wire(b: u8) -> Option<ErrorCode> {
        ErrorCode::ALL.into_iter().find(|c| c.wire() == b)
    }
}

/// A server reply, one or more per command, in command order.
///
/// `seq` numbers responses per session (0, 1, 2, ...) so a client
/// demultiplexing a multi-session connection can reassemble each
/// session's stream and detect gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// The session is open.
    Opened {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// The backend's human-readable label.
        label: String,
        /// Whether every requested session option was supported.
        full_options: bool,
    },
    /// A batch finished; one completion time per submitted request.
    BatchDone {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// Completion time of each request, in submission order.
        completions: Vec<Time>,
    },
    /// JSONL trace/persist bytes produced since the previous chunk.
    TraceChunk {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// Raw JSONL bytes (newline-terminated lines).
        bytes: Vec<u8>,
    },
    /// Summary of an injected power failure.
    FaultReport {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// Lines tracked at the cut.
        tracked_lines: u64,
        /// Lines durable after the ADR drain.
        durable_lines: u64,
        /// Lines lost (still volatile).
        volatile_lines: u64,
        /// Lines drained from the ADR domain by the supercap.
        adr_drained_lines: u64,
        /// Whether the modeled supercap budget was exceeded.
        supercap_exceeded: bool,
    },
    /// A full-state snapshot of the session.
    SnapshotBlob {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// The `NVSS` blob.
        blob: Vec<u8>,
    },
    /// The session was parked for migration.
    Migrated {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// Size of the parked snapshot blob.
        blob_len: u64,
    },
    /// The session is closed; final counter totals.
    Closed {
        /// Session id.
        sid: SessionId,
        /// Per-session response sequence number.
        seq: u64,
        /// The backend's counters at close.
        counters: BackendCounters,
    },
    /// A semantic failure; the referenced session is unchanged.
    Error {
        /// Session id the failing command referenced.
        sid: SessionId,
        /// Per-session response sequence number (0 when the session does
        /// not exist).
        seq: u64,
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl Response {
    /// The session this response belongs to.
    pub fn sid(&self) -> SessionId {
        match *self {
            Response::Opened { sid, .. }
            | Response::BatchDone { sid, .. }
            | Response::TraceChunk { sid, .. }
            | Response::FaultReport { sid, .. }
            | Response::SnapshotBlob { sid, .. }
            | Response::Migrated { sid, .. }
            | Response::Closed { sid, .. }
            | Response::Error { sid, .. } => sid,
        }
    }

    /// The per-session sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            Response::Opened { seq, .. }
            | Response::BatchDone { seq, .. }
            | Response::TraceChunk { seq, .. }
            | Response::FaultReport { seq, .. }
            | Response::SnapshotBlob { seq, .. }
            | Response::Migrated { seq, .. }
            | Response::Closed { seq, .. }
            | Response::Error { seq, .. } => seq,
        }
    }
}

// ---------------------------------------------------------------- tags

const CMD_OPEN: u8 = 0x01;
const CMD_BATCH: u8 = 0x02;
const CMD_FAULT: u8 = 0x03;
const CMD_SAVE: u8 = 0x04;
const CMD_RESTORE: u8 = 0x05;
const CMD_MIGRATE: u8 = 0x06;
const CMD_CLOSE: u8 = 0x07;

const RSP_OPENED: u8 = 0x81;
const RSP_BATCH_DONE: u8 = 0x82;
const RSP_TRACE_CHUNK: u8 = 0x83;
const RSP_FAULT_REPORT: u8 = 0x84;
const RSP_SNAPSHOT_BLOB: u8 = 0x85;
const RSP_MIGRATED: u8 = 0x86;
const RSP_CLOSED: u8 = 0x87;
const RSP_ERROR: u8 = 0xFF;

const PLAN_AT_TIME: u8 = 0;
const PLAN_AT_INSERTION: u8 = 1;
const PLAN_PROBABILISTIC: u8 = 2;

fn op_wire(op: MemOp) -> u8 {
    match op {
        MemOp::Load => 0,
        MemOp::Store => 1,
        MemOp::StoreClwb => 2,
        MemOp::NtStore => 3,
        MemOp::Fence => 4,
    }
}

fn op_from_wire(b: u8) -> Option<MemOp> {
    match b {
        0 => Some(MemOp::Load),
        1 => Some(MemOp::Store),
        2 => Some(MemOp::StoreClwb),
        3 => Some(MemOp::NtStore),
        4 => Some(MemOp::Fence),
        _ => None,
    }
}

// ------------------------------------------------------------- framing

/// Appends one framed payload (varint length + bytes) to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    let mut w = SnapshotWriter::new();
    w.put_usize(payload.len());
    out.extend_from_slice(&w.into_bytes());
    out.extend_from_slice(payload);
}

/// Incremental frame extractor for a connection byte stream.
///
/// Feed bytes with [`push`](FrameDecoder::push), pull complete payloads
/// with [`next_frame`](FrameDecoder::next_frame), and call
/// [`finish`](FrameDecoder::finish) at end of stream to distinguish a
/// clean close from a mid-frame disconnect. Offsets in errors are
/// absolute stream positions.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Read position inside `buf`.
    pos: usize,
    /// Stream offset of `buf[0]`.
    base: usize,
}

impl FrameDecoder {
    /// An empty decoder at stream offset zero.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Consumed-prefix size beyond which `push` compacts the buffer
    /// even when an unread frame tail remains. Without this, a stream
    /// whose reads always straddle a frame boundary never hits the
    /// fully-drained fast path and the consumed prefix grows with
    /// total bytes received — invisible to `buffered_len`.
    const COMPACT_THRESHOLD: usize = 4096;

    /// Appends received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        if self.pos > 0 {
            if self.pos == self.buf.len() {
                self.base += self.pos;
                self.buf.clear();
                self.pos = 0;
            } else if self.pos >= Self::COMPACT_THRESHOLD {
                let len = self.buf.len();
                self.buf.copy_within(self.pos.., 0);
                self.buf.truncate(len - self.pos);
                self.base += self.pos;
                self.pos = 0;
            }
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Absolute stream offset of the next unread byte.
    pub fn offset(&self) -> usize {
        self.base + self.pos
    }

    /// Bytes received but not yet consumed as complete frames — the
    /// memory a half-sent frame pins until more bytes arrive. The
    /// transport's buffer budgets are accounted against this.
    pub fn buffered_len(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame payload, with the stream offset
    /// of its first payload byte. `Ok(None)` means more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// [`ProtocolErrorKind::FrameTooLarge`] for an oversized length
    /// prefix, [`ProtocolErrorKind::VarintOverflow`] for a corrupt one.
    pub fn next_frame(&mut self) -> Result<Option<(usize, Vec<u8>)>, ProtocolError> {
        let frame_start = self.offset();
        let mut r = SnapshotReader::new(&self.buf[self.pos..]);
        let len = match r.get_u64() {
            Ok(len) => len,
            Err(e) if e.kind == SnapshotErrorKind::Truncated => return Ok(None),
            Err(e) => return Err(lift(frame_start, e)),
        };
        if len > MAX_FRAME_LEN as u64 {
            return Err(ProtocolError::new(
                frame_start,
                ProtocolErrorKind::FrameTooLarge { declared: len },
            ));
        }
        let header = r.offset();
        // Bounded by MAX_FRAME_LEN, so the sum cannot overflow.
        let need = header + len as usize;
        if self.buf.len() - self.pos < need {
            return Ok(None);
        }
        let payload_start = self.pos + header;
        let payload = self.buf[payload_start..payload_start + len as usize].to_vec();
        self.pos += need;
        Ok(Some((frame_start + header, payload)))
    }

    /// Declares end of stream.
    ///
    /// # Errors
    ///
    /// [`ProtocolErrorKind::Truncated`] if bytes of an incomplete frame
    /// remain buffered (a mid-stream disconnect).
    pub fn finish(&self) -> Result<(), ProtocolError> {
        let left = self.buf.len() - self.pos;
        if left != 0 {
            return Err(ProtocolError::new(
                self.offset(),
                ProtocolErrorKind::Truncated { missing: left },
            ));
        }
        Ok(())
    }
}

// ------------------------------------------------------------ commands

impl Command {
    /// The session this command addresses.
    pub fn sid(&self) -> SessionId {
        match *self {
            Command::Open { sid, .. }
            | Command::Batch { sid, .. }
            | Command::Fault { sid, .. }
            | Command::Save { sid }
            | Command::Restore { sid, .. }
            | Command::Migrate { sid }
            | Command::Close { sid } => sid,
        }
    }

    /// Encodes this command as one frame appended to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new();
        self.encode_payload(&mut w);
        write_frame(out, &w.into_bytes());
    }

    fn encode_payload(&self, w: &mut SnapshotWriter) {
        match self {
            Command::Open {
                sid,
                kind,
                dimms,
                opts,
            } => {
                w.put_u8(CMD_OPEN);
                w.put_u64(*sid);
                w.put_bytes(kind.name().as_bytes());
                w.put_u32(*dimms);
                w.put_bool(opts.trace);
                w.put_bool(opts.durability);
                w.put_u64(opts.snapshot_interval);
            }
            Command::Batch { sid, reqs } => {
                w.put_u8(CMD_BATCH);
                w.put_u64(*sid);
                w.put_usize(reqs.len());
                for r in reqs {
                    w.put_u8(op_wire(r.op));
                    w.put_u64(r.addr.raw());
                    w.put_u32(r.size);
                }
            }
            Command::Fault { sid, plan } => {
                w.put_u8(CMD_FAULT);
                w.put_u64(*sid);
                match plan {
                    FaultPlan::AtTime(t) => {
                        w.put_u8(PLAN_AT_TIME);
                        w.put_time(*t);
                    }
                    FaultPlan::AtWpqInsertion(k) => {
                        w.put_u8(PLAN_AT_INSERTION);
                        w.put_u64(*k);
                    }
                    FaultPlan::Probabilistic { seed } => {
                        w.put_u8(PLAN_PROBABILISTIC);
                        w.put_u64(*seed);
                    }
                }
            }
            Command::Save { sid } => {
                w.put_u8(CMD_SAVE);
                w.put_u64(*sid);
            }
            Command::Restore { sid, blob } => {
                w.put_u8(CMD_RESTORE);
                w.put_u64(*sid);
                w.put_bytes(blob);
            }
            Command::Migrate { sid } => {
                w.put_u8(CMD_MIGRATE);
                w.put_u64(*sid);
            }
            Command::Close { sid } => {
                w.put_u8(CMD_CLOSE);
                w.put_u64(*sid);
            }
        }
    }

    /// Decodes one command from a frame payload (`base` is the payload's
    /// absolute stream offset, for error attribution).
    ///
    /// # Errors
    ///
    /// Any malformed payload yields a typed [`ProtocolError`]; decoding
    /// has no side effects.
    pub fn decode(base: usize, payload: &[u8]) -> Result<Command, ProtocolError> {
        let mut r = SnapshotReader::new(payload);
        let tag = r.get_u8().map_err(|e| lift(base, e))?;
        let cmd = match tag {
            CMD_OPEN => {
                let sid = r.get_u64().map_err(|e| lift(base, e))?;
                let name = r.get_bytes().map_err(|e| lift(base, e))?;
                let name = std::str::from_utf8(name).map_err(|_| {
                    ProtocolError::new(
                        base + r.offset(),
                        ProtocolErrorKind::BadField("backend name is not UTF-8"),
                    )
                })?;
                let kind: BackendKind = name.parse().map_err(|_| {
                    ProtocolError::new(
                        base + r.offset(),
                        ProtocolErrorKind::BadField("unknown backend name"),
                    )
                })?;
                let dimms = r.get_u32().map_err(|e| lift(base, e))?;
                let trace = r.get_bool().map_err(|e| lift(base, e))?;
                let durability = r.get_bool().map_err(|e| lift(base, e))?;
                let snapshot_interval = r.get_u64().map_err(|e| lift(base, e))?;
                Command::Open {
                    sid,
                    kind,
                    dimms,
                    opts: OpenOptions {
                        trace,
                        durability,
                        snapshot_interval,
                    },
                }
            }
            CMD_BATCH => {
                let sid = r.get_u64().map_err(|e| lift(base, e))?;
                let n = r.get_usize().map_err(|e| lift(base, e))?;
                // Each request needs at least 3 payload bytes; a count
                // past that bound is corruption, not an allocation size.
                if n > r.remaining() {
                    return Err(ProtocolError::new(
                        base + r.offset(),
                        ProtocolErrorKind::BadField("request count exceeds payload"),
                    ));
                }
                let mut reqs = Vec::with_capacity(n);
                for _ in 0..n {
                    let at = r.offset();
                    let op = r.get_u8().map_err(|e| lift(base, e))?;
                    let op = op_from_wire(op).ok_or(ProtocolError::new(
                        base + at,
                        ProtocolErrorKind::BadField("unknown memory-op tag"),
                    ))?;
                    let addr = r.get_u64().map_err(|e| lift(base, e))?;
                    let size = r.get_u32().map_err(|e| lift(base, e))?;
                    // `RequestDesc::new` panics on these; a wire frame
                    // must get a typed error instead.
                    if op.is_fence() && size != 0 {
                        return Err(ProtocolError::new(
                            base + at,
                            ProtocolErrorKind::BadField("fence with nonzero size"),
                        ));
                    }
                    if !op.is_fence() && size == 0 {
                        return Err(ProtocolError::new(
                            base + at,
                            ProtocolErrorKind::BadField("data request with zero size"),
                        ));
                    }
                    // A range past the end of the address space has no
                    // end address; its line count would wrap to nearly 2^64.
                    if addr.checked_add(u64::from(size)).is_none() {
                        return Err(ProtocolError::new(
                            base + at,
                            ProtocolErrorKind::BadField("request range wraps the address space"),
                        ));
                    }
                    reqs.push(RequestDesc {
                        addr: Addr::new(addr),
                        size,
                        op,
                    });
                }
                Command::Batch { sid, reqs }
            }
            CMD_FAULT => {
                let sid = r.get_u64().map_err(|e| lift(base, e))?;
                let at = r.offset();
                let plan = match r.get_u8().map_err(|e| lift(base, e))? {
                    PLAN_AT_TIME => FaultPlan::AtTime(r.get_time().map_err(|e| lift(base, e))?),
                    PLAN_AT_INSERTION => {
                        FaultPlan::AtWpqInsertion(r.get_u64().map_err(|e| lift(base, e))?)
                    }
                    PLAN_PROBABILISTIC => FaultPlan::Probabilistic {
                        seed: r.get_u64().map_err(|e| lift(base, e))?,
                    },
                    _ => {
                        return Err(ProtocolError::new(
                            base + at,
                            ProtocolErrorKind::BadField("unknown fault-plan tag"),
                        ))
                    }
                };
                Command::Fault { sid, plan }
            }
            CMD_SAVE => Command::Save {
                sid: r.get_u64().map_err(|e| lift(base, e))?,
            },
            CMD_RESTORE => {
                let sid = r.get_u64().map_err(|e| lift(base, e))?;
                let blob = r.get_bytes().map_err(|e| lift(base, e))?.to_vec();
                Command::Restore { sid, blob }
            }
            CMD_MIGRATE => Command::Migrate {
                sid: r.get_u64().map_err(|e| lift(base, e))?,
            },
            CMD_CLOSE => Command::Close {
                sid: r.get_u64().map_err(|e| lift(base, e))?,
            },
            other => {
                return Err(ProtocolError::new(
                    base,
                    ProtocolErrorKind::UnknownTag(other),
                ))
            }
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::new(
                base + r.offset(),
                ProtocolErrorKind::TrailingBytes(r.remaining()),
            ));
        }
        Ok(cmd)
    }
}

// ----------------------------------------------------------- responses

impl Response {
    /// Encodes this response as one frame appended to `out`.
    pub fn encode_frame(&self, out: &mut Vec<u8>) {
        let mut w = SnapshotWriter::new();
        self.encode_payload(&mut w);
        write_frame(out, &w.into_bytes());
    }

    fn encode_payload(&self, w: &mut SnapshotWriter) {
        match self {
            Response::Opened {
                sid,
                seq,
                label,
                full_options,
            } => {
                w.put_u8(RSP_OPENED);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_bytes(label.as_bytes());
                w.put_bool(*full_options);
            }
            Response::BatchDone {
                sid,
                seq,
                completions,
            } => {
                w.put_u8(RSP_BATCH_DONE);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_usize(completions.len());
                // Completion times are non-decreasing within a batch, so
                // delta encoding keeps frames compact.
                let mut prev = Time::ZERO;
                for &t in completions {
                    let delta = t.as_ps().wrapping_sub(prev.as_ps()) as i64;
                    w.put_i64(delta);
                    prev = t;
                }
            }
            Response::TraceChunk { sid, seq, bytes } => {
                w.put_u8(RSP_TRACE_CHUNK);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_bytes(bytes);
            }
            Response::FaultReport {
                sid,
                seq,
                tracked_lines,
                durable_lines,
                volatile_lines,
                adr_drained_lines,
                supercap_exceeded,
            } => {
                w.put_u8(RSP_FAULT_REPORT);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_u64(*tracked_lines);
                w.put_u64(*durable_lines);
                w.put_u64(*volatile_lines);
                w.put_u64(*adr_drained_lines);
                w.put_bool(*supercap_exceeded);
            }
            Response::SnapshotBlob { sid, seq, blob } => {
                w.put_u8(RSP_SNAPSHOT_BLOB);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_bytes(blob);
            }
            Response::Migrated { sid, seq, blob_len } => {
                w.put_u8(RSP_MIGRATED);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_u64(*blob_len);
            }
            Response::Closed { sid, seq, counters } => {
                w.put_u8(RSP_CLOSED);
                w.put_u64(*sid);
                w.put_u64(*seq);
                counters.save(w);
            }
            Response::Error {
                sid,
                seq,
                code,
                detail,
            } => {
                w.put_u8(RSP_ERROR);
                w.put_u64(*sid);
                w.put_u64(*seq);
                w.put_u8(code.wire());
                w.put_bytes(detail.as_bytes());
            }
        }
    }

    /// Decodes one response from a frame payload (`base` is the
    /// payload's absolute stream offset).
    ///
    /// # Errors
    ///
    /// Any malformed payload yields a typed [`ProtocolError`].
    pub fn decode(base: usize, payload: &[u8]) -> Result<Response, ProtocolError> {
        let mut r = SnapshotReader::new(payload);
        let tag = r.get_u8().map_err(|e| lift(base, e))?;
        let sid = r.get_u64().map_err(|e| lift(base, e))?;
        let seq = r.get_u64().map_err(|e| lift(base, e))?;
        let rsp = match tag {
            RSP_OPENED => {
                let label = r.get_bytes().map_err(|e| lift(base, e))?;
                let label = std::str::from_utf8(label)
                    .map_err(|_| {
                        ProtocolError::new(
                            base + r.offset(),
                            ProtocolErrorKind::BadField("label is not UTF-8"),
                        )
                    })?
                    .to_owned();
                let full_options = r.get_bool().map_err(|e| lift(base, e))?;
                Response::Opened {
                    sid,
                    seq,
                    label,
                    full_options,
                }
            }
            RSP_BATCH_DONE => {
                let n = r.get_usize().map_err(|e| lift(base, e))?;
                if n > r.remaining() {
                    return Err(ProtocolError::new(
                        base + r.offset(),
                        ProtocolErrorKind::BadField("completion count exceeds payload"),
                    ));
                }
                let mut completions = Vec::with_capacity(n);
                let mut prev: u64 = 0;
                for _ in 0..n {
                    let delta = r.get_i64().map_err(|e| lift(base, e))?;
                    prev = prev.wrapping_add(delta as u64);
                    completions.push(Time::from_ps(prev));
                }
                Response::BatchDone {
                    sid,
                    seq,
                    completions,
                }
            }
            RSP_TRACE_CHUNK => Response::TraceChunk {
                sid,
                seq,
                bytes: r.get_bytes().map_err(|e| lift(base, e))?.to_vec(),
            },
            RSP_FAULT_REPORT => Response::FaultReport {
                sid,
                seq,
                tracked_lines: r.get_u64().map_err(|e| lift(base, e))?,
                durable_lines: r.get_u64().map_err(|e| lift(base, e))?,
                volatile_lines: r.get_u64().map_err(|e| lift(base, e))?,
                adr_drained_lines: r.get_u64().map_err(|e| lift(base, e))?,
                supercap_exceeded: r.get_bool().map_err(|e| lift(base, e))?,
            },
            RSP_SNAPSHOT_BLOB => Response::SnapshotBlob {
                sid,
                seq,
                blob: r.get_bytes().map_err(|e| lift(base, e))?.to_vec(),
            },
            RSP_MIGRATED => Response::Migrated {
                sid,
                seq,
                blob_len: r.get_u64().map_err(|e| lift(base, e))?,
            },
            RSP_CLOSED => {
                let mut counters = BackendCounters::default();
                counters.restore(&mut r).map_err(|e| lift(base, e))?;
                Response::Closed { sid, seq, counters }
            }
            RSP_ERROR => {
                let at = r.offset();
                let code = r.get_u8().map_err(|e| lift(base, e))?;
                let code = ErrorCode::from_wire(code).ok_or(ProtocolError::new(
                    base + at,
                    ProtocolErrorKind::BadField("unknown error code"),
                ))?;
                let detail = r.get_bytes().map_err(|e| lift(base, e))?;
                let detail = std::str::from_utf8(detail)
                    .map_err(|_| {
                        ProtocolError::new(
                            base + r.offset(),
                            ProtocolErrorKind::BadField("error detail is not UTF-8"),
                        )
                    })?
                    .to_owned();
                Response::Error {
                    sid,
                    seq,
                    code,
                    detail,
                }
            }
            other => {
                return Err(ProtocolError::new(
                    base,
                    ProtocolErrorKind::UnknownTag(other),
                ))
            }
        };
        if r.remaining() != 0 {
            return Err(ProtocolError::new(
                base + r.offset(),
                ProtocolErrorKind::TrailingBytes(r.remaining()),
            ));
        }
        Ok(rsp)
    }
}

/// Decodes a complete byte stream into frames and parses each as a
/// [`Response`] — the client-side view of a server reply stream.
///
/// # Errors
///
/// Propagates framing and payload errors, including a trailing partial
/// frame.
pub fn decode_responses(stream: &[u8]) -> Result<Vec<Response>, ProtocolError> {
    let mut dec = FrameDecoder::new();
    dec.push(stream);
    let mut out = Vec::new();
    while let Some((base, payload)) = dec.next_frame()? {
        out.push(Response::decode(base, &payload)?);
    }
    dec.finish()?;
    Ok(out)
}

/// Decodes a complete byte stream into frames and parses each as a
/// [`Command`] — the server-side view of a client script.
///
/// # Errors
///
/// Propagates framing and payload errors, including a trailing partial
/// frame (mid-stream disconnect).
pub fn decode_commands(stream: &[u8]) -> Result<Vec<Command>, ProtocolError> {
    let mut dec = FrameDecoder::new();
    dec.push(stream);
    let mut out = Vec::new();
    while let Some((base, payload)) = dec.next_frame()? {
        out.push(Command::decode(base, &payload)?);
    }
    dec.finish()?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_cmd(cmd: Command) {
        let mut buf = Vec::new();
        cmd.encode_frame(&mut buf);
        let decoded = decode_commands(&buf).expect("well-formed frame");
        assert_eq!(decoded, vec![cmd]);
    }

    #[test]
    fn command_roundtrips() {
        roundtrip_cmd(Command::Open {
            sid: 7,
            kind: BackendKind::Vans,
            dimms: 6,
            opts: OpenOptions {
                trace: true,
                durability: true,
                snapshot_interval: 1_000_000,
            },
        });
        roundtrip_cmd(Command::Batch {
            sid: 1,
            reqs: vec![
                RequestDesc::load(Addr::new(0x40)),
                RequestDesc::nt_store(Addr::new(0x80)),
                RequestDesc::fence(),
            ],
        });
        roundtrip_cmd(Command::Fault {
            sid: 2,
            plan: FaultPlan::Probabilistic { seed: 99 },
        });
        roundtrip_cmd(Command::Save { sid: 3 });
        roundtrip_cmd(Command::Restore {
            sid: 3,
            blob: vec![1, 2, 3],
        });
        roundtrip_cmd(Command::Migrate { sid: 4 });
        roundtrip_cmd(Command::Close { sid: 5 });
    }

    #[test]
    fn response_roundtrips() {
        let rsps = vec![
            Response::Opened {
                sid: 1,
                seq: 0,
                label: "VANS".to_owned(),
                full_options: true,
            },
            Response::BatchDone {
                sid: 1,
                seq: 1,
                completions: vec![Time::from_ns(100), Time::from_ns(250)],
            },
            Response::TraceChunk {
                sid: 1,
                seq: 2,
                bytes: b"{\"id\":0}\n".to_vec(),
            },
            Response::FaultReport {
                sid: 1,
                seq: 3,
                tracked_lines: 10,
                durable_lines: 7,
                volatile_lines: 3,
                adr_drained_lines: 2,
                supercap_exceeded: false,
            },
            Response::SnapshotBlob {
                sid: 1,
                seq: 4,
                blob: vec![9; 32],
            },
            Response::Migrated {
                sid: 1,
                seq: 5,
                blob_len: 32,
            },
            Response::Closed {
                sid: 1,
                seq: 6,
                counters: BackendCounters {
                    bus_reads: 42,
                    ..Default::default()
                },
            },
            Response::Error {
                sid: 9,
                seq: 0,
                code: ErrorCode::UnknownSession,
                detail: "no such session".to_owned(),
            },
        ];
        let mut buf = Vec::new();
        for r in &rsps {
            r.encode_frame(&mut buf);
        }
        assert_eq!(decode_responses(&buf).expect("well-formed"), rsps);
    }

    #[test]
    fn encoding_is_deterministic() {
        let cmd = Command::Batch {
            sid: 3,
            reqs: vec![RequestDesc::load(Addr::new(0x1000))],
        };
        let mut a = Vec::new();
        let mut b = Vec::new();
        cmd.encode_frame(&mut a);
        cmd.encode_frame(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        let mut w = SnapshotWriter::new();
        w.put_u64(MAX_FRAME_LEN as u64 + 1);
        buf.extend_from_slice(&w.into_bytes());
        let err = decode_commands(&buf).unwrap_err();
        assert!(matches!(
            err.kind,
            ProtocolErrorKind::FrameTooLarge { declared } if declared == MAX_FRAME_LEN as u64 + 1
        ));
    }

    #[test]
    fn mid_stream_disconnect_detected() {
        let mut buf = Vec::new();
        Command::Close { sid: 1 }.encode_frame(&mut buf);
        let full = buf.len();
        for cut in 1..full {
            let err = decode_commands(&buf[..cut]).unwrap_err();
            assert!(
                matches!(err.kind, ProtocolErrorKind::Truncated { .. }),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn incremental_decoder_reassembles_split_frames() {
        let mut buf = Vec::new();
        Command::Save { sid: 11 }.encode_frame(&mut buf);
        Command::Close { sid: 11 }.encode_frame(&mut buf);
        let mut dec = FrameDecoder::new();
        let mut frames = Vec::new();
        for b in &buf {
            dec.push(std::slice::from_ref(b));
            while let Some((base, payload)) = dec.next_frame().expect("valid stream") {
                frames.push(Command::decode(base, &payload).expect("valid frame"));
            }
        }
        dec.finish().expect("clean end");
        assert_eq!(
            frames,
            vec![Command::Save { sid: 11 }, Command::Close { sid: 11 }]
        );
    }

    #[test]
    fn decoder_compacts_consumed_prefix_on_long_streams() {
        // Reads that always leave a partial frame tail never hit the
        // fully-drained reset, so without threshold compaction the
        // consumed prefix would grow with total bytes received while
        // buffered_len() stayed small — a leak invisible to the
        // transport's buffer budget.
        let mut frame = Vec::new();
        Command::Save { sid: 3 }.encode_frame(&mut frame);
        let chunk = frame.len() + 1; // every push straddles a boundary
        let mut stream = Vec::new();
        for _ in 0..4096 {
            stream.extend_from_slice(&frame);
        }
        let mut dec = FrameDecoder::new();
        let mut decoded = 0usize;
        for piece in stream.chunks(chunk) {
            dec.push(piece);
            while dec.next_frame().expect("valid stream").is_some() {
                decoded += 1;
            }
            assert!(
                dec.buf.len() <= FrameDecoder::COMPACT_THRESHOLD + 2 * chunk,
                "internal buffer grew to {} bytes",
                dec.buf.len()
            );
        }
        assert_eq!(decoded, 4096);
        // Compaction must not disturb absolute offset bookkeeping.
        assert_eq!(dec.offset(), stream.len());
        assert_eq!(dec.buffered_len(), 0);
        dec.finish().expect("clean end");
    }

    #[test]
    fn unknown_tags_rejected_with_offset() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &[0x6E]);
        let err = decode_commands(&buf).unwrap_err();
        assert_eq!(err.kind, ProtocolErrorKind::UnknownTag(0x6E));
        assert_eq!(err.offset, 1, "payload starts after 1-byte length prefix");
    }

    #[test]
    fn invalid_request_sizes_rejected_not_panicked() {
        // A fence with a nonzero size (or a data op with zero size)
        // violates `RequestDesc::new`'s contract, and a range that wraps
        // the address space has no line count; on the wire each must be
        // a typed error, not a panic or an endless batch.
        for (op, addr, size, what) in [
            (4u8, 0x40u64, 64u32, "fence"),
            (0u8, 0x40, 0u32, "load"),
            (0u8, u64::MAX - 10, 64, "wrapping load"),
        ] {
            let mut w = SnapshotWriter::new();
            w.put_u8(CMD_BATCH);
            w.put_u64(1);
            w.put_usize(1);
            w.put_u8(op);
            w.put_u64(addr);
            w.put_u32(size);
            let mut buf = Vec::new();
            write_frame(&mut buf, &w.into_bytes());
            let err = decode_commands(&buf).unwrap_err();
            assert!(
                matches!(err.kind, ProtocolErrorKind::BadField(_)),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_payload_bytes_rejected() {
        let mut w = SnapshotWriter::new();
        Command::Close { sid: 1 }.encode_payload(&mut w);
        let mut payload = w.into_bytes();
        payload.push(0xAA);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload);
        let err = decode_commands(&buf).unwrap_err();
        assert!(matches!(err.kind, ProtocolErrorKind::TrailingBytes(1)));
    }

    #[test]
    fn error_display_names_offsets() {
        let e = ProtocolError::new(17, ProtocolErrorKind::UnknownTag(0xAB));
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains("0xab"));
    }
}
