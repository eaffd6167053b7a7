//! Versioned, length-prefixed binary wire protocol for the sampler daemon.
//!
//! # Frame layout
//!
//! Every frame on the wire is:
//!
//! ```text
//! +----------------------+---------------------------+
//! | LEB128 payload length | payload (tag + body)     |
//! +----------------------+---------------------------+
//! ```
//!
//! The length prefix is an unsigned LEB128 varint counting the payload
//! bytes (tag byte included). Payloads begin with a one-byte frame tag
//! followed by a tag-specific body. Multi-byte scalar fields are either
//! unsigned LEB128 varints (lengths, counts, ids, statistics) or 8-byte
//! little-endian words (seeds, fingerprints, `f64::to_bits`). A frame
//! whose declared payload length exceeds [`MAX_FRAME_LEN`] is rejected
//! *before* the decoder waits for its body, so a hostile length prefix
//! can never force an allocation or an over-read.
//!
//! Body layouts (all after the tag byte):
//!
//! | tag | frame         | body |
//! |-----|---------------|------|
//! | 1   | `Hello`       | magic `b"UGNW"`, varint protocol version |
//! | 2   | `HelloAck`    | varint protocol version |
//! | 3   | `Request`     | varint id, u8 formula-ref kind (0 = inline: varint len + DIMACS bytes; 1 = 8-byte LE fingerprint), u8 family, u8 epsilon flag (+ 8-byte LE `f64::to_bits` when 1), 8-byte LE prepare seed, varint count, 8-byte LE master seed, varint whole-request soft budget in microseconds (0 = unbounded) |
//! | 4   | `Cancel`      | varint id |
//! | 5   | `HealthReq`   | empty |
//! | 6   | `StreamBegin` | varint id, 8-byte LE fingerprint, varint set size, that many varint variable indices |
//! | 7   | `Chunk`       | varint id, varint witness index, u8 outcome kind, varint byte count + packed witness bits (LSB-first over the sampling set; empty unless the outcome is a witness) |
//! | 8   | `Done`        | varint id, varint successes, 7 varints of [`WireStats`] |
//! | 9   | `Error`       | varint id (0 = connection-level), u8 [`ErrorCode`], varint len + UTF-8 detail |
//! | 10  | `Health`      | 10 varints of [`WireHealth`] |
//! | 11  | `Shutdown`    | empty |
//!
//! # Versioning
//!
//! A connection opens with `Hello{version}`; the server answers
//! `HelloAck{version}` on a match and a typed
//! [`ErrorCode::UnsupportedVersion`] error frame (then closes) otherwise.
//! Any layout change bumps [`PROTOCOL_VERSION`]; the golden-vector test
//! in `tests/golden_frames.rs` pins every frame byte-for-byte so an
//! accidental wire break fails CI.
//!
//! # Determinism contract
//!
//! For a fixed `(formula, spec, count, master_seed)` the chunk sequence a
//! client receives is **bit-identical** to the in-process
//! `WitnessSampler::sample_batch` reference: same witness at every index,
//! same outcome kinds, streamed in index order. This holds per request,
//! across TCP and unix transports, and regardless of how many other
//! clients share the pool. *Inter*-client frame ordering is not part of
//! the contract: every request streams from its own thread, so two
//! concurrent requests interleave arbitrarily on the shared pool.

use std::fmt;

use unigen::OutcomeKind;

/// Connection magic carried in the `Hello` frame.
pub const MAGIC: [u8; 4] = *b"UGNW";

/// Current protocol version, negotiated by `Hello`/`HelloAck`.
pub const PROTOCOL_VERSION: u64 = 1;

/// Upper bound on a single frame's payload length (64 MiB).
///
/// The decoder rejects a length prefix above this before buffering any
/// payload bytes, bounding memory per connection.
pub const MAX_FRAME_LEN: u64 = 1 << 26;

/// Frame tag bytes (first payload byte of every frame).
pub mod tag {
    /// Client hello (magic + version).
    pub const HELLO: u8 = 1;
    /// Server hello acknowledgement.
    pub const HELLO_ACK: u8 = 2;
    /// Sampling request.
    pub const REQUEST: u8 = 3;
    /// Cancel an in-flight request.
    pub const CANCEL: u8 = 4;
    /// Health probe.
    pub const HEALTH_REQ: u8 = 5;
    /// Response stream header.
    pub const STREAM_BEGIN: u8 = 6;
    /// One streamed outcome.
    pub const CHUNK: u8 = 7;
    /// Response stream trailer.
    pub const DONE: u8 = 8;
    /// Typed error.
    pub const ERROR: u8 = 9;
    /// Health snapshot.
    pub const HEALTH: u8 = 10;
    /// Daemon shutdown (honored only under `serve --allow-shutdown`).
    pub const SHUTDOWN: u8 = 11;
}

/// Typed decode failure. The decoder returns these instead of panicking
/// or over-reading, whatever bytes arrive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared payload length.
        len: u64,
    },
    /// The length prefix itself is not a valid LEB128 varint.
    BadLengthPrefix,
    /// Unknown frame tag byte.
    UnknownTag {
        /// The offending tag byte.
        tag: u8,
    },
    /// Payload ended before the fields the tag requires.
    Truncated {
        /// Tag of the frame being decoded.
        tag: u8,
    },
    /// Payload has bytes left over after all fields were read.
    Trailing {
        /// Tag of the frame being decoded.
        tag: u8,
        /// Number of unconsumed payload bytes.
        extra: usize,
    },
    /// `Hello` carried the wrong connection magic.
    BadMagic,
    /// A string field is not valid UTF-8.
    BadUtf8,
    /// A field holds an out-of-range or inconsistent value.
    BadValue {
        /// Which field was malformed.
        context: &'static str,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Oversized { len } => {
                write!(f, "frame payload length {len} exceeds {MAX_FRAME_LEN}")
            }
            FrameError::BadLengthPrefix => write!(f, "malformed LEB128 length prefix"),
            FrameError::UnknownTag { tag } => write!(f, "unknown frame tag {tag}"),
            FrameError::Truncated { tag } => write!(f, "truncated payload for frame tag {tag}"),
            FrameError::Trailing { tag, extra } => {
                write!(f, "{extra} trailing bytes after frame tag {tag}")
            }
            FrameError::BadMagic => write!(f, "bad connection magic (expected \"UGNW\")"),
            FrameError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            FrameError::BadValue { context } => write!(f, "bad value for {context}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Sampler family selector carried in a request. The daemon prepares each
/// family with its typed constructor and that family's default config,
/// apart from the [`WireSpec`] knobs the family has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// UniGen (Algorithm 1 of the paper).
    UniGen,
    /// UniWit baseline.
    UniWit,
    /// XorSample' baseline.
    XorSamplePrime,
    /// Ideal uniform sampler (enumeration-backed).
    Uniform,
}

impl Family {
    /// Wire byte for this family.
    pub fn as_u8(self) -> u8 {
        match self {
            Family::UniGen => 0,
            Family::UniWit => 1,
            Family::XorSamplePrime => 2,
            Family::Uniform => 3,
        }
    }

    /// Decode a wire byte; `None` for unknown values.
    pub fn from_u8(byte: u8) -> Option<Family> {
        match byte {
            0 => Some(Family::UniGen),
            1 => Some(Family::UniWit),
            2 => Some(Family::XorSamplePrime),
            3 => Some(Family::Uniform),
            _ => None,
        }
    }
}

/// Outcome kind of a streamed chunk: the sampler's own [`OutcomeKind`],
/// under the name the wire API has always exported.
pub use unigen::OutcomeKind as WireOutcomeKind;

/// Wire byte of an outcome kind (pinned by the golden vectors).
pub(crate) fn outcome_byte(kind: OutcomeKind) -> u8 {
    match kind {
        OutcomeKind::Witness => 0,
        OutcomeKind::Bottom => 1,
        OutcomeKind::Interrupted => 2,
        OutcomeKind::Faulted => 3,
    }
}

/// Decodes an outcome-kind wire byte; `None` for unknown values.
pub(crate) fn outcome_from_byte(byte: u8) -> Option<OutcomeKind> {
    match byte {
        0 => Some(OutcomeKind::Witness),
        1 => Some(OutcomeKind::Bottom),
        2 => Some(OutcomeKind::Interrupted),
        3 => Some(OutcomeKind::Faulted),
        _ => None,
    }
}

/// Typed error codes carried by [`Frame::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The peer sent bytes the decoder rejected ([`FrameError`] detail).
    Malformed,
    /// Protocol version mismatch in the hello handshake.
    UnsupportedVersion,
    /// The daemon already has
    /// [`MAX_IN_FLIGHT_REQUESTS`](crate::server::MAX_IN_FLIGHT_REQUESTS)
    /// requests in flight; the request was not started and may be resent.
    Busy,
    /// Fingerprint-referenced formula is not in the registry.
    UnknownFingerprint,
    /// Building the sampler failed (parse error, bad config, ...).
    PrepareFailed,
    /// The formula is unsatisfiable.
    Unsat,
    /// The request was cancelled by a `Cancel` frame or disconnect.
    Cancelled,
    /// The prepared-formula registry is at capacity.
    RegistryFull,
    /// The request combines options the chosen family rejects.
    Unsupported,
    /// `Shutdown` received but the daemon was not started with
    /// `--allow-shutdown`.
    ShutdownDisabled,
}

impl ErrorCode {
    /// Wire byte for this error code.
    pub fn as_u8(self) -> u8 {
        match self {
            ErrorCode::Malformed => 1,
            ErrorCode::UnsupportedVersion => 2,
            ErrorCode::Busy => 3,
            ErrorCode::UnknownFingerprint => 4,
            ErrorCode::PrepareFailed => 5,
            ErrorCode::Unsat => 6,
            ErrorCode::Cancelled => 7,
            ErrorCode::RegistryFull => 8,
            ErrorCode::Unsupported => 9,
            ErrorCode::ShutdownDisabled => 10,
        }
    }

    /// Decode a wire byte; `None` for unknown values.
    pub fn from_u8(byte: u8) -> Option<ErrorCode> {
        match byte {
            1 => Some(ErrorCode::Malformed),
            2 => Some(ErrorCode::UnsupportedVersion),
            3 => Some(ErrorCode::Busy),
            4 => Some(ErrorCode::UnknownFingerprint),
            5 => Some(ErrorCode::PrepareFailed),
            6 => Some(ErrorCode::Unsat),
            7 => Some(ErrorCode::Cancelled),
            8 => Some(ErrorCode::RegistryFull),
            9 => Some(ErrorCode::Unsupported),
            10 => Some(ErrorCode::ShutdownDisabled),
            _ => None,
        }
    }

    /// Short stable name for logs and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::UnsupportedVersion => "unsupported-version",
            ErrorCode::Busy => "busy",
            ErrorCode::UnknownFingerprint => "unknown-fingerprint",
            ErrorCode::PrepareFailed => "prepare-failed",
            ErrorCode::Unsat => "unsat",
            ErrorCode::Cancelled => "cancelled",
            ErrorCode::RegistryFull => "registry-full",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::ShutdownDisabled => "shutdown-disabled",
        }
    }
}

/// How a request names its formula.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormulaRef {
    /// Inline DIMACS text (UTF-8 bytes, parsed server-side).
    Inline(Vec<u8>),
    /// Fingerprint of a formula+spec already prepared in the registry
    /// (returned by a previous `StreamBegin`). The spec fields of a
    /// fingerprint request are ignored: the fingerprint already commits
    /// to a prepared spec.
    Fingerprint(u64),
}

/// The family and preparation knobs carried in a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSpec {
    /// Which sampler family to build.
    pub family: Family,
    /// `f64::to_bits` of the tolerance ε, or `None` for the family
    /// default. Families without an ε knob reject `Some` with a typed
    /// [`ErrorCode::Unsupported`] error.
    pub epsilon_bits: Option<u64>,
    /// Seed for the prepare phase (hash-family draw, pivot scan). Only
    /// UniGen has a randomised prepare; the other families ignore it.
    pub prepare_seed: u64,
}

/// Per-request aggregate statistics carried by [`Frame::Done`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Total BSAT (bounded-SAT enumeration) calls.
    pub bsat_calls: u64,
    /// Always 0. The pool has one queue and nothing steals any more; the
    /// field stays in the `Done` layout so that clients built against
    /// this protocol version keep decoding it, and goes with the next
    /// protocol bump.
    pub steals: u64,
    /// Retries: cell retries inside the samplers plus item retries after
    /// worker panics.
    pub retries: u64,
    /// Degradation rungs taken.
    pub degradations: u64,
    /// Faults injected by the fault plan.
    pub faults_injected: u64,
    /// Microseconds items spent queued before a worker picked them up.
    pub queue_wait_micros: u64,
    /// Sampler wall-clock microseconds summed over the batch's items.
    pub wall_micros: u64,
}

/// Daemon-wide health snapshot carried by [`Frame::Health`]: the
/// `unigen::ServiceHealth` of the daemon's one worker pool plus its
/// registry and connection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireHealth {
    /// Formulas currently in the registry (prepared, preparing or failed).
    pub services: u64,
    /// Worker threads of the daemon's pool.
    pub configured_workers: u64,
    /// Worker threads of the daemon's pool too: a worker never leaves the
    /// pool (the field stays for wire compatibility).
    pub alive_workers: u64,
    /// Total sampler panics absorbed.
    pub worker_panics: u64,
    /// Total sampler clones respawned after panics.
    pub respawns: u64,
    /// Total item retries after sampler panics.
    pub item_retries: u64,
    /// Total faults injected by fault plans.
    pub faults_injected: u64,
    /// Requests admitted to the pool and not yet completed.
    pub pending_requests: u64,
    /// Work items waiting in the pool's queue (running items are not
    /// counted).
    pub queued_items: u64,
    /// Open client connections.
    pub connections: u64,
}

/// One decoded protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client hello: connection magic + protocol version.
    Hello {
        /// Protocol version the client speaks.
        version: u64,
    },
    /// Server acknowledgement of a compatible hello.
    HelloAck {
        /// Protocol version the server speaks.
        version: u64,
    },
    /// Sampling request.
    Request {
        /// Client-chosen request id (nonzero, unique per connection).
        id: u64,
        /// Inline DIMACS or registry fingerprint.
        formula: FormulaRef,
        /// Sampler family + knobs.
        spec: WireSpec,
        /// Number of witnesses requested (at most [`crate::server::MAX_REQUEST_COUNT`]).
        count: u64,
        /// Master seed for the deterministic per-index streams.
        master_seed: u64,
        /// Soft wall-clock budget for the whole request, in microseconds
        /// from admission (`unigen::SampleRequest::budget`): items that
        /// start after it expires complete as `Interrupted`. 0 means
        /// unbounded.
        budget_micros: u64,
    },
    /// Cancel an in-flight request on this connection.
    Cancel {
        /// Id of the request to cancel.
        id: u64,
    },
    /// Ask for a health snapshot.
    HealthReq,
    /// Response stream header: echoes the prepared formula identity.
    StreamBegin {
        /// Request id this stream answers.
        id: u64,
        /// Fingerprint of the prepared formula+spec (usable as a
        /// [`FormulaRef::Fingerprint`] in later requests).
        fingerprint: u64,
        /// Projected sampling set, as 0-based variable indices. Chunk
        /// bit payloads are packed in exactly this order.
        sampling_set: Vec<u32>,
    },
    /// One streamed outcome, delivered in witness-index order.
    Chunk {
        /// Request id.
        id: u64,
        /// Witness index within the batch (0-based, strictly
        /// increasing).
        index: u64,
        /// What the sampler produced at this index.
        kind: WireOutcomeKind,
        /// Packed projection bits, LSB-first over `sampling_set`
        /// (empty unless `kind` is `Witness`).
        bits: Vec<u8>,
    },
    /// Response stream trailer with aggregate statistics.
    Done {
        /// Request id.
        id: u64,
        /// Number of witness outcomes in the batch.
        successes: u64,
        /// Aggregate statistics for the request.
        stats: WireStats,
    },
    /// Typed error, request-scoped (`id != 0`) or connection-scoped
    /// (`id == 0`).
    Error {
        /// Offending request id, or 0 for connection-level errors.
        id: u64,
        /// Machine-readable error class.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// Health snapshot.
    Health(WireHealth),
    /// Ask the daemon to exit (requires `serve --allow-shutdown`).
    Shutdown,
}

// ---------------------------------------------------------------------------
// LEB128
// ---------------------------------------------------------------------------

/// Append `value` as an unsigned LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// A malformed LEB128 varint: more than 10 bytes, or set bits beyond the
/// 64th.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VarintError;

/// Decode an unsigned LEB128 varint from the front of `bytes`.
///
/// Returns `Ok(Some((value, consumed)))` on success, `Ok(None)` when more
/// bytes are needed, and [`VarintError`] when the encoding is malformed.
pub fn get_varint(bytes: &[u8]) -> Result<Option<(u64, usize)>, VarintError> {
    let mut value: u64 = 0;
    let mut shift: u32 = 0;
    for (i, &byte) in bytes.iter().enumerate() {
        if i >= 10 {
            return Err(VarintError);
        }
        let low = u64::from(byte & 0x7f);
        if shift == 63 && low > 1 {
            return Err(VarintError);
        }
        value |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((value, i + 1)));
        }
        shift += 7;
    }
    if bytes.len() >= 10 {
        return Err(VarintError);
    }
    Ok(None)
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

fn put_u64_le(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

impl Frame {
    /// Encode this frame, length prefix included.
    pub fn encode(&self) -> Vec<u8> {
        let payload = self.encode_payload();
        let mut out = Vec::with_capacity(payload.len() + 3);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    fn encode_payload(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Hello { version } => {
                p.push(tag::HELLO);
                p.extend_from_slice(&MAGIC);
                put_varint(&mut p, *version);
            }
            Frame::HelloAck { version } => {
                p.push(tag::HELLO_ACK);
                put_varint(&mut p, *version);
            }
            Frame::Request {
                id,
                formula,
                spec,
                count,
                master_seed,
                budget_micros,
            } => {
                p.push(tag::REQUEST);
                put_varint(&mut p, *id);
                match formula {
                    FormulaRef::Inline(dimacs) => {
                        p.push(0);
                        put_varint(&mut p, dimacs.len() as u64);
                        p.extend_from_slice(dimacs);
                    }
                    FormulaRef::Fingerprint(fp) => {
                        p.push(1);
                        put_u64_le(&mut p, *fp);
                    }
                }
                p.push(spec.family.as_u8());
                match spec.epsilon_bits {
                    Some(bits) => {
                        p.push(1);
                        put_u64_le(&mut p, bits);
                    }
                    None => p.push(0),
                }
                put_u64_le(&mut p, spec.prepare_seed);
                put_varint(&mut p, *count);
                put_u64_le(&mut p, *master_seed);
                put_varint(&mut p, *budget_micros);
            }
            Frame::Cancel { id } => {
                p.push(tag::CANCEL);
                put_varint(&mut p, *id);
            }
            Frame::HealthReq => p.push(tag::HEALTH_REQ),
            Frame::StreamBegin {
                id,
                fingerprint,
                sampling_set,
            } => {
                p.push(tag::STREAM_BEGIN);
                put_varint(&mut p, *id);
                put_u64_le(&mut p, *fingerprint);
                put_varint(&mut p, sampling_set.len() as u64);
                for &var in sampling_set {
                    put_varint(&mut p, u64::from(var));
                }
            }
            Frame::Chunk {
                id,
                index,
                kind,
                bits,
            } => {
                p.push(tag::CHUNK);
                put_varint(&mut p, *id);
                put_varint(&mut p, *index);
                p.push(outcome_byte(*kind));
                put_varint(&mut p, bits.len() as u64);
                p.extend_from_slice(bits);
            }
            Frame::Done {
                id,
                successes,
                stats,
            } => {
                p.push(tag::DONE);
                put_varint(&mut p, *id);
                put_varint(&mut p, *successes);
                for field in [
                    stats.bsat_calls,
                    stats.steals,
                    stats.retries,
                    stats.degradations,
                    stats.faults_injected,
                    stats.queue_wait_micros,
                    stats.wall_micros,
                ] {
                    put_varint(&mut p, field);
                }
            }
            Frame::Error { id, code, detail } => {
                p.push(tag::ERROR);
                put_varint(&mut p, *id);
                p.push(code.as_u8());
                put_varint(&mut p, detail.len() as u64);
                p.extend_from_slice(detail.as_bytes());
            }
            Frame::Health(h) => {
                p.push(tag::HEALTH);
                for field in [
                    h.services,
                    h.configured_workers,
                    h.alive_workers,
                    h.worker_panics,
                    h.respawns,
                    h.item_retries,
                    h.faults_injected,
                    h.pending_requests,
                    h.queued_items,
                    h.connections,
                ] {
                    put_varint(&mut p, field);
                }
            }
            Frame::Shutdown => p.push(tag::SHUTDOWN),
        }
        p
    }
}

// ---------------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------------

/// Cursor over one frame payload; every read is bounds-checked so a
/// truncated body surfaces as [`FrameError::Truncated`], never a slice
/// panic.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    tag: u8,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8], tag: u8) -> Self {
        Reader { bytes, pos: 0, tag }
    }

    fn truncated(&self) -> FrameError {
        FrameError::Truncated { tag: self.tag }
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        let byte = *self.bytes.get(self.pos).ok_or_else(|| self.truncated())?;
        self.pos += 1;
        Ok(byte)
    }

    fn u64_le(&mut self) -> Result<u64, FrameError> {
        let end = self.pos.checked_add(8).ok_or_else(|| self.truncated())?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        let mut word = [0u8; 8];
        word.copy_from_slice(slice);
        self.pos = end;
        Ok(u64::from_le_bytes(word))
    }

    fn varint(&mut self) -> Result<u64, FrameError> {
        match get_varint(&self.bytes[self.pos..]) {
            Ok(Some((value, used))) => {
                self.pos += used;
                Ok(value)
            }
            Ok(None) => Err(self.truncated()),
            Err(VarintError) => Err(FrameError::BadValue { context: "varint" }),
        }
    }

    fn bytes(&mut self, len: u64) -> Result<&'a [u8], FrameError> {
        let len = usize::try_from(len).map_err(|_| self.truncated())?;
        let end = self.pos.checked_add(len).ok_or_else(|| self.truncated())?;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.truncated())?;
        self.pos = end;
        Ok(slice)
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.pos != self.bytes.len() {
            return Err(FrameError::Trailing {
                tag: self.tag,
                extra: self.bytes.len() - self.pos,
            });
        }
        Ok(())
    }
}

/// Decode one payload (tag + body) into a [`Frame`].
pub fn decode_payload(payload: &[u8]) -> Result<Frame, FrameError> {
    let (&tag_byte, body) = payload.split_first().ok_or(FrameError::BadValue {
        context: "empty payload",
    })?;
    let mut r = Reader::new(body, tag_byte);
    let frame = match tag_byte {
        tag::HELLO => {
            let magic = r
                .bytes(4)
                .map_err(|_| FrameError::Truncated { tag: tag_byte })?;
            if magic != MAGIC {
                return Err(FrameError::BadMagic);
            }
            Frame::Hello {
                version: r.varint()?,
            }
        }
        tag::HELLO_ACK => Frame::HelloAck {
            version: r.varint()?,
        },
        tag::REQUEST => {
            let id = r.varint()?;
            if id == 0 {
                return Err(FrameError::BadValue {
                    context: "request id 0",
                });
            }
            let formula = match r.u8()? {
                0 => {
                    let len = r.varint()?;
                    FormulaRef::Inline(r.bytes(len)?.to_vec())
                }
                1 => FormulaRef::Fingerprint(r.u64_le()?),
                _ => {
                    return Err(FrameError::BadValue {
                        context: "formula ref kind",
                    })
                }
            };
            let family = Family::from_u8(r.u8()?).ok_or(FrameError::BadValue {
                context: "sampler family",
            })?;
            let epsilon_bits = match r.u8()? {
                0 => None,
                1 => Some(r.u64_le()?),
                _ => {
                    return Err(FrameError::BadValue {
                        context: "epsilon flag",
                    })
                }
            };
            let prepare_seed = r.u64_le()?;
            let count = r.varint()?;
            let master_seed = r.u64_le()?;
            let budget_micros = r.varint()?;
            Frame::Request {
                id,
                formula,
                spec: WireSpec {
                    family,
                    epsilon_bits,
                    prepare_seed,
                },
                count,
                master_seed,
                budget_micros,
            }
        }
        tag::CANCEL => Frame::Cancel { id: r.varint()? },
        tag::HEALTH_REQ => Frame::HealthReq,
        tag::STREAM_BEGIN => {
            let id = r.varint()?;
            let fingerprint = r.u64_le()?;
            let n = r.varint()?;
            // Each set entry costs at least one byte, so `n` can never
            // exceed the remaining payload; reject before allocating.
            if n > (body.len() as u64) {
                return Err(FrameError::Truncated { tag: tag_byte });
            }
            let mut sampling_set = Vec::with_capacity(n as usize);
            for _ in 0..n {
                let var = r.varint()?;
                let var = u32::try_from(var).map_err(|_| FrameError::BadValue {
                    context: "sampling set var",
                })?;
                sampling_set.push(var);
            }
            Frame::StreamBegin {
                id,
                fingerprint,
                sampling_set,
            }
        }
        tag::CHUNK => {
            let id = r.varint()?;
            let index = r.varint()?;
            let kind = outcome_from_byte(r.u8()?).ok_or(FrameError::BadValue {
                context: "outcome kind",
            })?;
            let len = r.varint()?;
            let bits = r.bytes(len)?.to_vec();
            Frame::Chunk {
                id,
                index,
                kind,
                bits,
            }
        }
        tag::DONE => {
            let id = r.varint()?;
            let successes = r.varint()?;
            let stats = WireStats {
                bsat_calls: r.varint()?,
                steals: r.varint()?,
                retries: r.varint()?,
                degradations: r.varint()?,
                faults_injected: r.varint()?,
                queue_wait_micros: r.varint()?,
                wall_micros: r.varint()?,
            };
            Frame::Done {
                id,
                successes,
                stats,
            }
        }
        tag::ERROR => {
            let id = r.varint()?;
            let code = ErrorCode::from_u8(r.u8()?).ok_or(FrameError::BadValue {
                context: "error code",
            })?;
            let len = r.varint()?;
            let detail = std::str::from_utf8(r.bytes(len)?)
                .map_err(|_| FrameError::BadUtf8)?
                .to_owned();
            Frame::Error { id, code, detail }
        }
        tag::HEALTH => Frame::Health(WireHealth {
            services: r.varint()?,
            configured_workers: r.varint()?,
            alive_workers: r.varint()?,
            worker_panics: r.varint()?,
            respawns: r.varint()?,
            item_retries: r.varint()?,
            faults_injected: r.varint()?,
            pending_requests: r.varint()?,
            queued_items: r.varint()?,
            connections: r.varint()?,
        }),
        tag::SHUTDOWN => Frame::Shutdown,
        other => return Err(FrameError::UnknownTag { tag: other }),
    };
    r.finish()?;
    Ok(frame)
}

/// Incremental frame decoder.
///
/// Feed arbitrary byte slices as they arrive from the socket; pull
/// complete frames with [`Decoder::next_frame`]. The decoder never
/// consumes a partial frame, never buffers more than one maximal frame
/// beyond what was fed, and reports every malformation as a typed
/// [`FrameError`]. After an error the stream position is undefined and
/// the connection should be closed — framing cannot be resynchronized.
#[derive(Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// Create an empty decoder.
    pub fn new() -> Decoder {
        Decoder::default()
    }

    /// Append bytes received from the peer.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so `pos` cannot grow without bound.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Number of fed-but-undecoded bytes currently buffered.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Try to decode the next complete frame.
    ///
    /// `Ok(None)` means more bytes are needed. Errors are sticky in
    /// spirit: callers should drop the connection after the first one.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let avail = &self.buf[self.pos..];
        let (len, header) = match get_varint(avail) {
            Ok(Some(pair)) => pair,
            Ok(None) => return Ok(None),
            Err(VarintError) => return Err(FrameError::BadLengthPrefix),
        };
        if len > MAX_FRAME_LEN {
            return Err(FrameError::Oversized { len });
        }
        let len = len as usize;
        if avail.len() < header + len {
            return Ok(None);
        }
        let payload = &avail[header..header + len];
        let frame = decode_payload(payload)?;
        self.pos += header + len;
        Ok(Some(frame))
    }
}

// ---------------------------------------------------------------------------
// Witness bit packing
// ---------------------------------------------------------------------------

/// Pack projected witness values LSB-first into chunk payload bytes.
///
/// Bit `i` of the result (byte `i / 8`, bit `i % 8`) is the value of the
/// `i`-th sampling-set variable, in `StreamBegin::sampling_set` order.
pub fn pack_bits(values: &[bool]) -> Vec<u8> {
    let mut bytes = vec![0u8; values.len().div_ceil(8)];
    for (i, &bit) in values.iter().enumerate() {
        if bit {
            bytes[i / 8] |= 1 << (i % 8);
        }
    }
    bytes
}

/// Unpack chunk payload bytes into `n` projected witness values.
///
/// Returns `None` when `bits` is not exactly `ceil(n / 8)` bytes or a
/// padding bit beyond `n` is set — both indicate a corrupt chunk.
pub fn unpack_bits(bits: &[u8], n: usize) -> Option<Vec<bool>> {
    if bits.len() != n.div_ceil(8) {
        return None;
    }
    let mut values = Vec::with_capacity(n);
    for i in 0..n {
        values.push(bits[i / 8] & (1 << (i % 8)) != 0);
    }
    for i in n..bits.len() * 8 {
        if bits[i / 8] & (1 << (i % 8)) != 0 {
            return None;
        }
    }
    Some(values)
}

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// FNV-1a offset basis (matches `unigen-instgen`'s published vectors).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Content fingerprint of a prepared formula+spec pair.
///
/// FNV-1a over the canonical DIMACS text (as produced by
/// `unigen_cnf::dimacs::to_dimacs_string`, which includes the `c ind`
/// sampling-set lines) followed by the spec's canonical bytes (family
/// byte, ε flag + bits, prepare seed). Two requests with the same
/// fingerprint share one prepared sampler while it is resident in the
/// daemon's registry; one that arrives after an eviction re-prepares it
/// under the same prepare seed, so its witnesses do not change.
pub fn fingerprint(canonical_dimacs: &[u8], spec: &WireSpec) -> u64 {
    let hash = fnv1a_extend(FNV_OFFSET, canonical_dimacs);
    let mut tail = Vec::with_capacity(18);
    tail.push(spec.family.as_u8());
    match spec.epsilon_bits {
        Some(bits) => {
            tail.push(1);
            tail.extend_from_slice(&bits.to_le_bytes());
        }
        None => tail.push(0),
    }
    tail.extend_from_slice(&spec.prepare_seed.to_le_bytes());
    fnv1a_extend(hash, &tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_spec() -> WireSpec {
        WireSpec {
            family: Family::UniGen,
            epsilon_bits: Some(6.0f64.to_bits()),
            prepare_seed: 0xdac2_0140,
        }
    }

    fn roundtrip(frame: &Frame) {
        let bytes = frame.encode();
        let mut d = Decoder::new();
        d.feed(&bytes);
        let got = d.next_frame().expect("decode").expect("complete");
        assert_eq!(&got, frame);
        assert_eq!(d.buffered(), 0);
        assert!(d.next_frame().expect("no error").is_none());
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let (got, used) = get_varint(&buf).expect("valid").expect("complete");
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_rejects_overlong() {
        // 11 continuation bytes can never be a valid u64 varint.
        let overlong = [0x80u8; 11];
        assert!(get_varint(&overlong).is_err());
        // 64th-bit overflow: 10th byte with payload > 1.
        let mut overflow = vec![0xffu8; 9];
        overflow.push(0x02);
        assert!(get_varint(&overflow).is_err());
    }

    #[test]
    fn all_frames_roundtrip() {
        roundtrip(&Frame::Hello {
            version: PROTOCOL_VERSION,
        });
        roundtrip(&Frame::HelloAck {
            version: PROTOCOL_VERSION,
        });
        roundtrip(&Frame::Request {
            id: 7,
            formula: FormulaRef::Inline(b"p cnf 2 1\n1 2 0\n".to_vec()),
            spec: sample_spec(),
            count: 16,
            master_seed: 0x1234_5678,
            budget_micros: 0,
        });
        roundtrip(&Frame::Request {
            id: 8,
            formula: FormulaRef::Fingerprint(0xdead_beef),
            spec: WireSpec {
                family: Family::Uniform,
                epsilon_bits: None,
                prepare_seed: 3,
            },
            count: 1,
            master_seed: 0,
            budget_micros: 250_000,
        });
        roundtrip(&Frame::Cancel { id: 9 });
        roundtrip(&Frame::HealthReq);
        roundtrip(&Frame::StreamBegin {
            id: 7,
            fingerprint: 0xfeed_f00d,
            sampling_set: vec![0, 1, 5, 130],
        });
        roundtrip(&Frame::Chunk {
            id: 7,
            index: 3,
            kind: WireOutcomeKind::Witness,
            bits: vec![0b1010_0001, 0b0000_0011],
        });
        roundtrip(&Frame::Chunk {
            id: 7,
            index: 4,
            kind: WireOutcomeKind::Bottom,
            bits: Vec::new(),
        });
        roundtrip(&Frame::Done {
            id: 7,
            successes: 15,
            stats: WireStats {
                bsat_calls: 31,
                steals: 2,
                retries: 1,
                degradations: 0,
                faults_injected: 0,
                queue_wait_micros: 42,
                wall_micros: 1234,
            },
        });
        roundtrip(&Frame::Error {
            id: 0,
            code: ErrorCode::Malformed,
            detail: "truncated payload for frame tag 3".to_owned(),
        });
        roundtrip(&Frame::Health(WireHealth {
            services: 1,
            configured_workers: 4,
            alive_workers: 4,
            worker_panics: 0,
            respawns: 0,
            item_retries: 0,
            faults_injected: 0,
            pending_requests: 2,
            queued_items: 17,
            connections: 3,
        }));
        roundtrip(&Frame::Shutdown);
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let frames = [
            Frame::Hello { version: 1 },
            Frame::Cancel { id: 300 },
            Frame::HealthReq,
        ];
        let mut bytes = Vec::new();
        for f in &frames {
            bytes.extend_from_slice(&f.encode());
        }
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for &b in &bytes {
            d.feed(&[b]);
            while let Some(f) = d.next_frame().expect("clean stream") {
                got.push(f);
            }
        }
        assert_eq!(got.as_slice(), frames.as_slice());
    }

    #[test]
    fn oversized_length_prefix_rejected_before_buffering() {
        let mut bytes = Vec::new();
        put_varint(&mut bytes, MAX_FRAME_LEN + 1);
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(
            d.next_frame(),
            Err(FrameError::Oversized {
                len: MAX_FRAME_LEN + 1
            })
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut payload = vec![tag::HELLO];
        payload.extend_from_slice(b"NOPE");
        put_varint(&mut payload, 1);
        let mut bytes = Vec::new();
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(d.next_frame(), Err(FrameError::BadMagic));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = vec![tag::CANCEL];
        put_varint(&mut payload, 5);
        payload.push(0xaa); // stray byte after all fields
        let mut bytes = Vec::new();
        put_varint(&mut bytes, payload.len() as u64);
        bytes.extend_from_slice(&payload);
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(
            d.next_frame(),
            Err(FrameError::Trailing {
                tag: tag::CANCEL,
                extra: 1
            })
        );
    }

    #[test]
    fn request_id_zero_rejected() {
        let frame = Frame::Request {
            id: 1,
            formula: FormulaRef::Fingerprint(1),
            spec: sample_spec(),
            count: 1,
            master_seed: 0,
            budget_micros: 0,
        };
        let mut bytes = frame.encode();
        // Patch the id varint (first payload byte after the tag) to 0.
        // Layout: len varint (1 byte here), tag, id.
        assert_eq!(bytes[1], tag::REQUEST);
        bytes[2] = 0;
        let mut d = Decoder::new();
        d.feed(&bytes);
        assert_eq!(
            d.next_frame(),
            Err(FrameError::BadValue {
                context: "request id 0"
            })
        );
    }

    #[test]
    fn fingerprint_matches_reference_vectors() {
        // FNV-1a of the empty string is the offset basis; our composite
        // fingerprint continues over the spec tail, so pin the whole
        // composite for an empty formula + fixed spec.
        let spec = WireSpec {
            family: Family::UniGen,
            epsilon_bits: None,
            prepare_seed: 0,
        };
        let a = fingerprint(b"", &spec);
        let b = fingerprint(b"", &spec);
        assert_eq!(a, b);
        // Any spec field change must move the fingerprint.
        let other = WireSpec {
            prepare_seed: 1,
            ..spec
        };
        assert_ne!(a, fingerprint(b"", &other));
        let eps = WireSpec {
            epsilon_bits: Some(6.0f64.to_bits()),
            ..spec
        };
        assert_ne!(a, fingerprint(b"", &eps));
        let fam = WireSpec {
            family: Family::UniWit,
            ..spec
        };
        assert_ne!(a, fingerprint(b"", &fam));
        // And formula bytes must matter.
        assert_ne!(a, fingerprint(b"p cnf 1 0\n", &spec));
    }

    #[test]
    fn decoder_compacts_buffer() {
        let frame = Frame::HealthReq;
        let mut d = Decoder::new();
        for _ in 0..10_000 {
            d.feed(&frame.encode());
            let _ = d.next_frame().expect("ok").expect("frame");
        }
        assert_eq!(d.buffered(), 0);
        assert!(
            d.buf.len() <= 8192,
            "buffer never compacted: {}",
            d.buf.len()
        );
    }
}
