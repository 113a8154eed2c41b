//! The versioned canonical codec: one deterministic binary encoding for
//! every planning boundary that crosses a process, a wire, or a restart.
//!
//! Three subsystems used to each invent their own representation of "the
//! same instance": the serve memo cache hashed canonical JSON, the context
//! LRU hashed chips, and region planning shipped nothing at all (it only
//! worked in-process). This module replaces all of that with a single
//! self-describing binary format:
//!
//! - **Canonical value encoding** — the vendored serde data model
//!   ([`serde::Value`]) rendered to bytes with explicit tags,
//!   little-endian integers, raw-bit floats (`f64::to_bits`, so round-trips
//!   are exact and no float-printing ambiguity can creep in), and
//!   length-prefixed strings/arrays/objects. The vendored serde sorts
//!   `HashMap` keys and preserves struct field order, so the byte stream is
//!   a pure function of the value — stable across processes, platforms,
//!   and thread counts.
//! - **Framing** — every artifact that leaves the process is wrapped in a
//!   frame: magic `"PDWC"`, a schema version byte ([`SCHEMA_VERSION`]), a
//!   frame-type tag ([`FrameType`]), a length-prefixed payload, and an
//!   FNV-1a digest trailer over everything before it. Decoding re-verifies
//!   the digest and rejects version skew with typed [`CodecError`]s — a
//!   corrupt or stale frame can never be mistaken for data.
//! - **[`PlanArtifact`]** — the one reusable product of the pipeline (a
//!   verified schedule) as a first-class, durable value: schedule +
//!   metrics + ladder rung + a [`VerificationCertificate`] binding it to
//!   the instance and config that produced it. Artifacts are what the
//!   persistent memo store keeps and what `pdw worker` returns.
//! - **Canonical hashes** — [`chip_hash`], [`instance_hash`], and
//!   [`config_fingerprint`] (the serve-layer cache keys) now hash the
//!   binary encoding instead of JSON text, and [`memo_key`] mixes
//!   [`SCHEMA_VERSION`] into the memo-cache key so an entry persisted by
//!   an older codec can never be served by a newer one.

use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::Chip;
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize, Value};

use crate::config::PdwConfig;
use crate::pdw::WashResult;
use crate::resilient::RungKind;

/// Version byte of the wire format. Bump on any change to the value
/// encoding, the frame layout, or the canonical shape of a framed type;
/// decoders reject mismatches with [`CodecError::VersionSkew`] and the
/// memo key shifts so stale persisted entries are evicted, not served.
pub const SCHEMA_VERSION: u8 = 2;

/// Frame magic: the first four bytes of every encoded frame.
pub const MAGIC: [u8; 4] = *b"PDWC";

/// Frame header length: magic (4) + version (1) + type (1) + payload
/// length (4).
const HEADER_LEN: usize = 10;

/// Digest trailer length (FNV-1a 64, little-endian).
const DIGEST_LEN: usize = 8;

/// Default ceiling on a frame's payload length, applied *before* the
/// payload buffer is allocated. A corrupt or hostile length field is a
/// typed [`CodecError::FrameTooLarge`], never a multi-gigabyte
/// allocation. 64 MiB clears every artifact the mega-grid family
/// produces by two orders of magnitude; transports that want a tighter
/// bound pass their own cap to [`read_frame_capped`] /
/// [`check_frame_capped`].
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Incremental 64-bit FNV-1a hasher — tiny, dependency-free, and stable
/// across platforms (unlike `DefaultHasher`, which is randomly keyed per
/// process).
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET)
    }

    /// Feeds raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(Self::PRIME);
        }
    }

    /// Feeds one `u64` (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// What kind of value a frame carries. The tag byte is part of the frame
/// header, so a decoder expecting one type rejects another with
/// [`CodecError::UnexpectedFrameType`] instead of misreading the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameType {
    /// A [`Chip`] (whole chip or a region/span view — same shape).
    Chip = 1,
    /// A full planning instance (benchmark + synthesis).
    Instance = 2,
    /// A [`PdwConfig`].
    Config = 3,
    /// A [`PlanDelta`](crate::PlanDelta).
    Delta = 4,
    /// A [`PlanArtifact`].
    Artifact = 5,
    /// A [`WorkerRequest`](crate::worker::WorkerRequest).
    WorkerRequest = 6,
    /// A [`WorkerResponse`](crate::worker::WorkerResponse).
    WorkerResponse = 7,
    /// A persistent memo-store record.
    MemoRecord = 8,
    /// A [`NetRequest`](crate::transport::NetRequest) (socket transport).
    NetRequest = 9,
    /// A [`NetResponse`](crate::transport::NetResponse) (socket
    /// transport).
    NetResponse = 10,
}

impl FrameType {
    fn from_u8(b: u8) -> Option<Self> {
        Some(match b {
            1 => FrameType::Chip,
            2 => FrameType::Instance,
            3 => FrameType::Config,
            4 => FrameType::Delta,
            5 => FrameType::Artifact,
            6 => FrameType::WorkerRequest,
            7 => FrameType::WorkerResponse,
            8 => FrameType::MemoRecord,
            9 => FrameType::NetRequest,
            10 => FrameType::NetResponse,
            _ => return None,
        })
    }
}

/// Typed decode failures. Every variant names exactly what was wrong, so
/// callers can distinguish "stale version — evict and re-solve" from
/// "corrupt frame — fall back and report".
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CodecError {
    /// The frame does not start with [`MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame was written by a different codec version.
    VersionSkew {
        /// The version byte in the frame.
        found: u8,
        /// This build's [`SCHEMA_VERSION`].
        expected: u8,
    },
    /// The frame carries a different payload type than the caller asked
    /// for (or an unknown tag byte).
    UnexpectedFrameType {
        /// The tag byte in the frame.
        found: u8,
        /// The tag the caller expected (`0` when any known tag would do).
        expected: u8,
    },
    /// The frame's length field exceeds the decoder's cap. Raised before
    /// any payload allocation, so a corrupt length byte costs nothing.
    FrameTooLarge {
        /// The payload length the frame claims.
        len: usize,
        /// The cap the decoder enforces.
        cap: usize,
    },
    /// The byte stream ended before the frame did.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes it had.
        have: usize,
    },
    /// The digest trailer does not match the frame contents.
    DigestMismatch {
        /// The digest stored in the trailer.
        stored: u64,
        /// The digest recomputed over the frame.
        computed: u64,
    },
    /// The payload decoded as a value but not as the requested type, or a
    /// value tag byte was invalid.
    Malformed(String),
    /// An I/O error while reading or writing a frame.
    Io(String),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::BadMagic { found } => {
                write!(f, "bad frame magic {found:?} (expected {MAGIC:?})")
            }
            CodecError::VersionSkew { found, expected } => {
                write!(
                    f,
                    "codec version skew: frame v{found}, this build v{expected}"
                )
            }
            CodecError::UnexpectedFrameType { found, expected } => {
                write!(f, "unexpected frame type {found} (expected {expected})")
            }
            CodecError::FrameTooLarge { len, cap } => {
                write!(f, "frame payload length {len} exceeds cap {cap}")
            }
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated frame: needed {needed} bytes, have {have}")
            }
            CodecError::DigestMismatch { stored, computed } => write!(
                f,
                "digest mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CodecError::Malformed(msg) => write!(f, "malformed payload: {msg}"),
            CodecError::Io(msg) => write!(f, "frame i/o: {msg}"),
        }
    }
}

impl std::error::Error for CodecError {}

// ---------------------------------------------------------------------------
// Canonical value encoding
// ---------------------------------------------------------------------------

// One tag byte per `Value` variant. Floats are encoded as raw IEEE-754
// bits: exact round-trips, no text formatting, and non-finite values
// survive (unlike the JSON rendering, which nulls them).
const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_UINT: u8 = 4;
const TAG_FLOAT: u8 = 5;
const TAG_STR: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// Appends the canonical binary encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::UInt(u) => {
            out.push(TAG_UINT);
            out.extend_from_slice(&u.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            encode_len(s.len(), out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARRAY);
            encode_len(items.len(), out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(entries) => {
            out.push(TAG_OBJECT);
            encode_len(entries.len(), out);
            for (k, val) in entries {
                encode_len(k.len(), out);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

fn encode_len(len: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(len as u32).to_le_bytes());
}

/// Decodes one canonical value starting at `*pos`, advancing `*pos` past
/// it.
pub fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, CodecError> {
    let tag = *bytes.get(*pos).ok_or(CodecError::Truncated {
        needed: *pos + 1,
        have: bytes.len(),
    })?;
    *pos += 1;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take::<8>(bytes, pos)?))),
        TAG_UINT => Ok(Value::UInt(u64::from_le_bytes(take::<8>(bytes, pos)?))),
        TAG_FLOAT => Ok(Value::Float(f64::from_bits(u64::from_le_bytes(take::<8>(
            bytes, pos,
        )?)))),
        TAG_STR => {
            let len = decode_len(bytes, pos)?;
            Ok(Value::Str(take_str(bytes, pos, len)?))
        }
        TAG_ARRAY => {
            let len = decode_len(bytes, pos)?;
            let mut items = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                items.push(decode_value(bytes, pos)?);
            }
            Ok(Value::Array(items))
        }
        TAG_OBJECT => {
            let len = decode_len(bytes, pos)?;
            let mut entries = Vec::with_capacity(len.min(4096));
            for _ in 0..len {
                let klen = decode_len(bytes, pos)?;
                let key = take_str(bytes, pos, klen)?;
                let val = decode_value(bytes, pos)?;
                entries.push((key, val));
            }
            Ok(Value::Object(entries))
        }
        other => Err(CodecError::Malformed(format!("invalid value tag {other}"))),
    }
}

fn take<const N: usize>(bytes: &[u8], pos: &mut usize) -> Result<[u8; N], CodecError> {
    let end = *pos + N;
    let slice = bytes.get(*pos..end).ok_or(CodecError::Truncated {
        needed: end,
        have: bytes.len(),
    })?;
    *pos = end;
    Ok(slice.try_into().expect("slice length checked"))
}

fn decode_len(bytes: &[u8], pos: &mut usize) -> Result<usize, CodecError> {
    Ok(u32::from_le_bytes(take::<4>(bytes, pos)?) as usize)
}

fn take_str(bytes: &[u8], pos: &mut usize, len: usize) -> Result<String, CodecError> {
    let end = *pos + len;
    let slice = bytes.get(*pos..end).ok_or(CodecError::Truncated {
        needed: end,
        have: bytes.len(),
    })?;
    *pos = end;
    String::from_utf8(slice.to_vec())
        .map_err(|e| CodecError::Malformed(format!("non-UTF-8 string: {e}")))
}

/// The canonical binary encoding of any serializable value — the byte
/// stream every canonical hash is computed over.
pub fn canonical_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    encode_value(&value.to_value(), &mut out);
    out
}

/// FNV-1a digest of a value's canonical binary encoding.
pub fn canonical_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    let mut h = Fnv64::new();
    h.write(&canonical_bytes(value));
    h.finish()
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Encodes `value` into a self-describing frame: `MAGIC`, version, type
/// tag, length-prefixed canonical payload, FNV-1a digest trailer.
pub fn encode_frame<T: Serialize + ?Sized>(ty: FrameType, value: &T) -> Vec<u8> {
    frame_payload(ty, &[&canonical_bytes(value)])
}

/// Frames a canonical payload given as consecutive byte slices — for
/// callers that splice cached canonical bytes of a value's parts instead
/// of re-encoding the whole value. The result is byte-identical to
/// [`encode_frame`] of the value whose canonical encoding is the
/// concatenation of `parts`.
pub fn frame_payload(ty: FrameType, parts: &[&[u8]]) -> Vec<u8> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(HEADER_LEN + len + DIGEST_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(SCHEMA_VERSION);
    out.push(ty as u8);
    out.extend_from_slice(&(len as u32).to_le_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    let mut h = Fnv64::new();
    h.write(&out);
    out.extend_from_slice(&h.finish().to_le_bytes());
    out
}

/// Validates a frame's envelope (magic, version, digest, length) and
/// returns its type tag and payload bytes, enforcing
/// [`DEFAULT_MAX_FRAME_LEN`].
pub fn check_frame(frame: &[u8]) -> Result<(FrameType, &[u8]), CodecError> {
    check_frame_capped(frame, DEFAULT_MAX_FRAME_LEN)
}

/// [`check_frame`] with an explicit payload-length cap: the length field
/// is validated against `cap` before it is trusted for any slicing
/// arithmetic.
pub fn check_frame_capped(frame: &[u8], cap: usize) -> Result<(FrameType, &[u8]), CodecError> {
    if frame.len() < HEADER_LEN + DIGEST_LEN {
        return Err(CodecError::Truncated {
            needed: HEADER_LEN + DIGEST_LEN,
            have: frame.len(),
        });
    }
    if frame[..4] != MAGIC {
        return Err(CodecError::BadMagic {
            found: frame[..4].try_into().expect("length checked"),
        });
    }
    if frame[4] != SCHEMA_VERSION {
        return Err(CodecError::VersionSkew {
            found: frame[4],
            expected: SCHEMA_VERSION,
        });
    }
    let ty = FrameType::from_u8(frame[5]).ok_or(CodecError::UnexpectedFrameType {
        found: frame[5],
        expected: 0,
    })?;
    let len = u32::from_le_bytes(frame[6..10].try_into().expect("length checked")) as usize;
    if len > cap {
        return Err(CodecError::FrameTooLarge { len, cap });
    }
    let total = HEADER_LEN + len + DIGEST_LEN;
    if frame.len() < total {
        return Err(CodecError::Truncated {
            needed: total,
            have: frame.len(),
        });
    }
    let body = &frame[..HEADER_LEN + len];
    let stored = u64::from_le_bytes(
        frame[HEADER_LEN + len..total]
            .try_into()
            .expect("length checked"),
    );
    let mut h = Fnv64::new();
    h.write(body);
    let computed = h.finish();
    if stored != computed {
        return Err(CodecError::DigestMismatch { stored, computed });
    }
    Ok((ty, &frame[HEADER_LEN..HEADER_LEN + len]))
}

/// Decodes a frame expected to carry `ty`, re-verifying magic, version,
/// and digest, then deserializing the payload as `T`.
pub fn decode_frame<T: Deserialize>(ty: FrameType, frame: &[u8]) -> Result<T, CodecError> {
    let (found, payload) = check_frame(frame)?;
    if found != ty {
        return Err(CodecError::UnexpectedFrameType {
            found: found as u8,
            expected: ty as u8,
        });
    }
    let mut pos = 0;
    let value = decode_value(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing payload bytes",
            payload.len() - pos
        )));
    }
    T::from_value(&value).map_err(|e| CodecError::Malformed(e.to_string()))
}

/// Writes one frame to `w`.
pub fn write_frame(w: &mut impl std::io::Write, frame: &[u8]) -> Result<(), CodecError> {
    w.write_all(frame)
        .and_then(|()| w.flush())
        .map_err(|e| CodecError::Io(e.to_string()))
}

/// Reads one whole frame from `r`, enforcing [`DEFAULT_MAX_FRAME_LEN`].
/// `Ok(None)` on a clean EOF at a frame boundary; a stream ending
/// mid-frame is [`CodecError::Truncated`]. The returned bytes still carry
/// their digest trailer — pass them to [`decode_frame`] for full
/// validation.
pub fn read_frame(r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, CodecError> {
    read_frame_capped(r, DEFAULT_MAX_FRAME_LEN)
}

/// [`read_frame`] with an explicit payload-length cap. The wire-supplied
/// length field is validated against `cap` *before* the payload buffer is
/// allocated — the whole point: a flipped length byte surfaces as a typed
/// [`CodecError::FrameTooLarge`], never as an attempted huge allocation.
pub fn read_frame_capped(
    r: &mut impl std::io::Read,
    cap: usize,
) -> Result<Option<Vec<u8>>, CodecError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(CodecError::Truncated {
                    needed: HEADER_LEN,
                    have: got,
                })
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CodecError::Io(e.to_string())),
        }
    }
    if header[..4] != MAGIC {
        return Err(CodecError::BadMagic {
            found: header[..4].try_into().expect("length checked"),
        });
    }
    let len = u32::from_le_bytes(header[6..10].try_into().expect("length checked")) as usize;
    if len > cap {
        return Err(CodecError::FrameTooLarge { len, cap });
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + len + DIGEST_LEN);
    frame.extend_from_slice(&header);
    frame.resize(HEADER_LEN + len + DIGEST_LEN, 0);
    let mut filled = HEADER_LEN;
    while filled < frame.len() {
        match r.read(&mut frame[filled..]) {
            Ok(0) => {
                return Err(CodecError::Truncated {
                    needed: HEADER_LEN + len + DIGEST_LEN,
                    have: filled,
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(CodecError::Io(e.to_string())),
        }
    }
    Ok(Some(frame))
}

/// A resumable frame reader for tick-polled loops: partially read bytes
/// survive a reader error instead of being discarded, so a frame whose
/// delivery spans several short read deadlines (a slow peer, WAN
/// congestion mid-payload) is assembled across calls rather than
/// desynchronizing the stream. [`read_frame_capped`] is the one-shot
/// sibling for callers whose deadline covers the whole frame.
#[derive(Debug)]
pub struct FrameAccumulator {
    cap: usize,
    buf: Vec<u8>,
    need: usize,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `cap` on the payload length.
    pub fn new(cap: usize) -> Self {
        FrameAccumulator {
            cap,
            buf: Vec::new(),
            need: HEADER_LEN,
        }
    }

    /// Bytes buffered toward the frame currently being assembled — the
    /// caller's progress signal (a mid-frame stall with no progress is
    /// idle; one with progress is a slow peer still delivering).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Reads from `r` until one whole frame is assembled, mirroring
    /// [`read_frame_capped`]'s contract (`Ok(None)` = clean EOF at a
    /// frame boundary, length validated against the cap *before* the
    /// payload buffer grows). The difference: an `Err` from `r` — e.g. a
    /// read deadline elapsing — surfaces as [`CodecError::Io`] but leaves
    /// the partial frame buffered, so the next call resumes where this
    /// one stopped.
    pub fn read_from(&mut self, r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, CodecError> {
        loop {
            while self.buf.len() < self.need {
                let start = self.buf.len();
                self.buf.resize(self.need, 0);
                match r.read(&mut self.buf[start..]) {
                    Ok(0) => {
                        self.buf.truncate(start);
                        if start == 0 {
                            return Ok(None);
                        }
                        return Err(CodecError::Truncated {
                            needed: self.need,
                            have: start,
                        });
                    }
                    Ok(n) => self.buf.truncate(start + n),
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {
                        self.buf.truncate(start);
                    }
                    Err(e) => {
                        self.buf.truncate(start);
                        return Err(CodecError::Io(e.to_string()));
                    }
                }
            }
            if self.need == HEADER_LEN {
                if self.buf[..4] != MAGIC {
                    let found = self.buf[..4].try_into().expect("length checked");
                    self.buf.clear();
                    return Err(CodecError::BadMagic { found });
                }
                let len = u32::from_le_bytes(self.buf[6..10].try_into().expect("length checked"))
                    as usize;
                if len > self.cap {
                    self.buf.clear();
                    return Err(CodecError::FrameTooLarge { len, cap: self.cap });
                }
                self.need = HEADER_LEN + len + DIGEST_LEN;
            } else {
                self.need = HEADER_LEN;
                return Ok(Some(std::mem::take(&mut self.buf)));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Plan artifacts
// ---------------------------------------------------------------------------

/// Digests binding a [`PlanArtifact`] to its independent re-verification.
///
/// The validator digest covers what [`pdw_sim::validate`] judged (the
/// schedule and the chip it ran against); the oracle digest covers what
/// [`pdw_sim::propagate`] observed (its replay counters over that
/// schedule). A consumer re-runs both checks against the *requester's*
/// instance and recomputes both digests — a persisted artifact whose
/// certificate no longer reproduces is rejected, never served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerificationCertificate {
    /// FNV-1a over the canonical bytes of the schedule and the chip hash.
    pub validator_digest: u64,
    /// FNV-1a over the oracle's replay counters (violations, deposits,
    /// dissolved, checks, ineffective washes).
    pub oracle_digest: u64,
}

/// The durable product of one verified solve: everything a cache, a wire,
/// or a restart needs to re-serve the plan without re-planning — and
/// everything a skeptical consumer needs to re-verify it first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanArtifact {
    /// [`SCHEMA_VERSION`] at encode time (also enforced by the frame).
    pub codec_version: u8,
    /// Canonical hash of the instance the plan was solved for.
    pub instance_hash: u64,
    /// Fingerprint of the config that shaped the solve.
    pub config_fingerprint: u64,
    /// The degradation-ladder rung that produced the plan.
    pub rung: RungKind,
    /// The verified plan: schedule, metrics, diagnostics.
    pub result: WashResult,
    /// Re-verification digests (see [`VerificationCertificate`]).
    pub certificate: VerificationCertificate,
}

impl PlanArtifact {
    /// Re-verifies the artifact against a concrete instance: the schedule
    /// must validate on the chip, replay clean through the oracle, and
    /// reproduce both certificate digests. Returns a human-readable reason
    /// on any failure.
    pub fn verify(&self, bench: &Benchmark, synthesis: &Synthesis) -> Result<(), String> {
        self.verify_hashed(instance_hash(bench, synthesis), bench, synthesis)
    }

    /// [`verify`](Self::verify) for a caller that already holds the
    /// instance's canonical hash: `expect_instance` must be
    /// [`instance_hash`]`(bench, synthesis)`. Everything else — validator,
    /// oracle replay, both digests — still runs against `bench` and
    /// `synthesis`.
    pub fn verify_hashed(
        &self,
        expect_instance: u64,
        bench: &Benchmark,
        synthesis: &Synthesis,
    ) -> Result<(), String> {
        if self.codec_version != SCHEMA_VERSION {
            return Err(format!(
                "artifact codec v{} does not match build v{SCHEMA_VERSION}",
                self.codec_version
            ));
        }
        if self.instance_hash != expect_instance {
            return Err(format!(
                "artifact instance hash {:#018x} does not match requested {expect_instance:#018x}",
                self.instance_hash
            ));
        }
        pdw_sim::validate(&synthesis.chip, &bench.graph, &self.result.schedule)
            .map_err(|e| format!("validator rejected schedule: {e}"))?;
        let report = pdw_sim::propagate(&synthesis.chip, &bench.graph, &self.result.schedule);
        if !report.is_clean() {
            return Err(format!("oracle found contamination: {report}"));
        }
        let recomputed = Self::seal_digests(&synthesis.chip, &self.result, &report);
        if recomputed != self.certificate {
            return Err(format!(
                "certificate digests do not reproduce (stored {:?}, recomputed {recomputed:?})",
                self.certificate
            ));
        }
        Ok(())
    }

    /// Computes both certificate digests from a completed verification.
    pub fn seal_digests(
        chip: &Chip,
        result: &WashResult,
        oracle: &pdw_sim::OracleReport,
    ) -> VerificationCertificate {
        let mut v = Fnv64::new();
        v.write(&canonical_bytes(&result.schedule));
        v.write_u64(chip_hash(chip));
        let mut o = Fnv64::new();
        o.write_u64(oracle.violations.len() as u64);
        o.write_u64(oracle.deposits as u64);
        o.write_u64(oracle.dissolved as u64);
        o.write_u64(oracle.checks as u64);
        o.write_u64(oracle.ineffective_washes.len() as u64);
        VerificationCertificate {
            validator_digest: v.finish(),
            oracle_digest: o.finish(),
        }
    }

    /// Builds a certified artifact by running the verification once (the
    /// caller is expected to have already gated on it — this recomputes
    /// the digests from a fresh replay, so the certificate is honest).
    pub fn certified(
        instance_hash: u64,
        config_fingerprint: u64,
        rung: RungKind,
        bench: &Benchmark,
        synthesis: &Synthesis,
        result: WashResult,
    ) -> Self {
        let report = pdw_sim::propagate(&synthesis.chip, &bench.graph, &result.schedule);
        let certificate = Self::seal_digests(&synthesis.chip, &result, &report);
        PlanArtifact {
            codec_version: SCHEMA_VERSION,
            instance_hash,
            config_fingerprint,
            rung,
            result,
            certificate,
        }
    }

    /// Encodes the artifact as a checked frame.
    pub fn encode(&self) -> Vec<u8> {
        encode_frame(FrameType::Artifact, self)
    }

    /// Decodes an artifact frame, re-verifying magic, version, and digest.
    pub fn decode(frame: &[u8]) -> Result<Self, CodecError> {
        decode_frame(FrameType::Artifact, frame)
    }
}

// ---------------------------------------------------------------------------
// Canonical hashes (the serve-layer cache keys)
// ---------------------------------------------------------------------------

/// Hashes a value through its canonical binary encoding.
fn hash_canonical<T: Serialize + ?Sized>(hasher: &mut Fnv64, value: &T) {
    hasher.write(&canonical_bytes(value));
}

/// Canonical hash of a chip's full identity: grid, devices, ports, labels,
/// and the [`FaultSet`](pdw_biochip::FaultSet) it currently carries. Two
/// chips differing only in faults hash differently — a warm context built
/// for a damaged chip must never be served for its pristine twin.
pub fn chip_hash(chip: &Chip) -> u64 {
    let mut h = Fnv64::new();
    hash_canonical(&mut h, chip);
    h.finish()
}

/// Canonical hash of a full planning instance: the benchmark (assay graph +
/// device library) and the synthesis (chip, base schedule, binding, reagent
/// ports). This is the memo-cache key of a plan server — every cached plan
/// is a pure function of this hash plus the planner configuration
/// ([`config_fingerprint`]).
pub fn instance_hash(bench: &Benchmark, synthesis: &Synthesis) -> u64 {
    let mut h = Fnv64::new();
    hash_canonical(&mut h, bench);
    hash_canonical(&mut h, &synthesis.chip);
    hash_canonical(&mut h, &synthesis.schedule);
    hash_canonical(&mut h, &synthesis.binding);
    hash_canonical(&mut h, &synthesis.reagent_ports);
    h.finish()
}

/// Fingerprint of the configuration fields that shape a plan's *result*.
///
/// `threads` is deliberately excluded — every planner is documented
/// thread-count-invariant, so two solves differing only in the thread knob
/// must share one memo entry. (The region-executor choice is likewise
/// excluded by construction: it never enters [`PdwConfig`], because
/// subprocess region planning is bit-identical to in-process.) Budgets are
/// included: a deadline-degraded plan is a different result family than an
/// unbounded one.
pub fn config_fingerprint(config: &PdwConfig) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(config.weights.alpha.to_bits());
    h.write_u64(config.weights.beta.to_bits());
    h.write_u64(config.weights.gamma.to_bits());
    h.write_u64(u64::from(config.necessity_analysis));
    h.write_u64(u64::from(config.integration));
    h.write_u64(u64::from(config.merging));
    h.write_u64(u64::from(config.ilp));
    h.write_u64(config.ilp_budget.as_nanos() as u64);
    h.write_u64(config.candidates as u64);
    h.write_u64(u64::from(config.exact_paths));
    match config.pipeline_budget {
        None => h.write_u64(u64::MAX),
        Some(b) => {
            h.write_u64(1);
            h.write_u64(b.as_nanos() as u64);
        }
    }
    h.finish()
}

/// The memo-cache key for `(instance, config)` under a given codec
/// version. [`SCHEMA_VERSION`] is mixed in, so entries persisted by an
/// older codec land on a different key and are evicted (by compaction),
/// never served.
pub fn memo_key(instance_hash: u64, config_fingerprint: u64) -> u64 {
    memo_key_versioned(SCHEMA_VERSION, instance_hash, config_fingerprint)
}

/// [`memo_key`] at an explicit version — exposed so tests can prove that
/// stale-version entries cannot collide with current ones.
pub fn memo_key_versioned(version: u8, instance_hash: u64, config_fingerprint: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write(&[version]);
    h.write_u64(instance_hash);
    h.write_u64(config_fingerprint);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_biochip::FaultSet;
    use pdw_synth::synthesize;
    use std::time::Duration;

    #[test]
    fn hashes_are_deterministic_across_rebuilds() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let again = synthesize(&benchmarks::demo()).unwrap();
        assert_eq!(chip_hash(&s.chip), chip_hash(&again.chip));
        assert_eq!(
            instance_hash(&bench, &s),
            instance_hash(&benchmarks::demo(), &again)
        );
    }

    #[test]
    fn faults_change_the_chip_hash() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let pristine = chip_hash(&s.chip);
        // Block some spare channel cell: the chip's identity changed.
        let grid = s.chip.grid();
        let spare = grid
            .coords()
            .find(|&c| {
                matches!(grid.kind(c), pdw_biochip::CellKind::Channel)
                    && s.chip.devices().iter().all(|d| !d.footprint().contains(&c))
                    && s.schedule
                        .tasks()
                        .all(|(_, t)| !t.path().cells().contains(&c))
            })
            .expect("demo chip has a spare cell");
        let mut faults = FaultSet::new();
        faults.block_cell(spare);
        let damaged = s.chip.with_faults(faults).unwrap();
        assert_ne!(pristine, chip_hash(&damaged));
        // And the instance hash follows the chip.
        let mutated = pdw_synth::Synthesis {
            chip: damaged,
            schedule: s.schedule.clone(),
            binding: s.binding.clone(),
            reagent_ports: s.reagent_ports.clone(),
        };
        assert_ne!(instance_hash(&bench, &s), instance_hash(&bench, &mutated));
    }

    #[test]
    fn different_benchmarks_hash_differently() {
        let demo = benchmarks::demo();
        let ds = synthesize(&demo).unwrap();
        let other = &benchmarks::suite()[0];
        let os = synthesize(other).unwrap();
        assert_ne!(instance_hash(&demo, &ds), instance_hash(other, &os));
    }

    #[test]
    fn config_fingerprint_ignores_threads_but_not_results() {
        let base = PdwConfig::default();
        let threaded = PdwConfig {
            threads: 8,
            ..base.clone()
        };
        assert_eq!(config_fingerprint(&base), config_fingerprint(&threaded));
        let no_ilp = PdwConfig {
            ilp: false,
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&no_ilp));
        let bounded = PdwConfig {
            pipeline_budget: Some(Duration::from_millis(5)),
            ..base.clone()
        };
        assert_ne!(config_fingerprint(&base), config_fingerprint(&bounded));
        let zero = PdwConfig {
            pipeline_budget: Some(Duration::ZERO),
            ..base
        };
        assert_ne!(config_fingerprint(&bounded), config_fingerprint(&zero));
    }

    #[test]
    fn fnv_is_order_sensitive() {
        let mut a = Fnv64::new();
        a.write(b"ab");
        let mut b = Fnv64::new();
        b.write(b"ba");
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fnv64::default().finish(), Fnv64::new().finish());
    }

    #[test]
    fn value_roundtrip_covers_every_variant() {
        let v = Value::Object(vec![
            ("null".into(), Value::Null),
            ("yes".into(), Value::Bool(true)),
            ("no".into(), Value::Bool(false)),
            ("int".into(), Value::Int(-42)),
            ("uint".into(), Value::UInt(u64::MAX)),
            ("float".into(), Value::Float(0.1 + 0.2)),
            ("nan".into(), Value::Float(f64::NAN)),
            ("str".into(), Value::Str("héllo".into())),
            (
                "arr".into(),
                Value::Array(vec![Value::Int(1), Value::Str(String::new())]),
            ),
        ]);
        let mut bytes = Vec::new();
        encode_value(&v, &mut bytes);
        let mut pos = 0;
        let back = decode_value(&bytes, &mut pos).unwrap();
        assert_eq!(pos, bytes.len());
        // NaN != NaN, so compare via re-encoding: bit-exact floats mean
        // the re-encoded stream is identical.
        let mut again = Vec::new();
        encode_value(&back, &mut again);
        assert_eq!(bytes, again);
    }

    #[test]
    fn frame_envelope_rejects_each_failure_mode_typed() {
        let frame = encode_frame(FrameType::Config, &PdwConfig::default());
        // Clean decode round-trips.
        let back: PdwConfig = decode_frame(FrameType::Config, &frame).unwrap();
        assert_eq!(back, PdwConfig::default());
        // Wrong expected type.
        assert!(matches!(
            decode_frame::<PdwConfig>(FrameType::Chip, &frame),
            Err(CodecError::UnexpectedFrameType { .. })
        ));
        // Bad magic.
        let mut bad = frame.clone();
        bad[0] = b'X';
        assert!(matches!(
            check_frame(&bad),
            Err(CodecError::BadMagic { .. })
        ));
        // Version skew.
        let mut skew = frame.clone();
        skew[4] = SCHEMA_VERSION + 1;
        assert!(matches!(
            check_frame(&skew),
            Err(CodecError::VersionSkew { found, expected })
                if found == SCHEMA_VERSION + 1 && expected == SCHEMA_VERSION
        ));
        // Truncation.
        assert!(matches!(
            check_frame(&frame[..frame.len() - 3]),
            Err(CodecError::Truncated { .. })
        ));
        // Payload corruption flips the digest.
        let mut corrupt = frame.clone();
        let mid = HEADER_LEN + 2;
        corrupt[mid] ^= 0xff;
        assert!(matches!(
            check_frame(&corrupt),
            Err(CodecError::DigestMismatch { .. })
        ));
    }

    #[test]
    fn read_frame_streams_and_reports_truncation() {
        let a = encode_frame(FrameType::Config, &PdwConfig::default());
        let b = encode_frame(FrameType::Config, &PdwConfig::naive());
        let mut stream = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut r = std::io::Cursor::new(stream);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), a);
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b);
        assert!(read_frame(&mut r).unwrap().is_none());
        // A stream cut mid-frame is a typed truncation, not a silent EOF.
        let mut cut = std::io::Cursor::new(a[..a.len() - 1].to_vec());
        assert!(matches!(
            read_frame(&mut cut),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_accumulator_resumes_across_read_timeouts() {
        // A reader that delivers the frame three bytes at a time with a
        // `WouldBlock` between every chunk — a socket whose read deadline
        // keeps elapsing mid-frame. One-shot `read_frame_capped` discards
        // its partial bytes on such an error; the accumulator must not.
        struct Chunked {
            data: Vec<u8>,
            pos: usize,
            hiccup: bool,
        }
        impl std::io::Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.data.len() {
                    return Ok(0);
                }
                if self.hiccup {
                    self.hiccup = false;
                    return Err(std::io::ErrorKind::WouldBlock.into());
                }
                self.hiccup = true;
                let n = buf.len().min(3).min(self.data.len() - self.pos);
                buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }
        let frame = encode_frame(FrameType::Config, &PdwConfig::default());
        let mut r = Chunked {
            data: frame.clone(),
            pos: 0,
            hiccup: false,
        };
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_LEN);
        let mut interruptions = 0;
        let assembled = loop {
            match acc.read_from(&mut r) {
                Ok(Some(f)) => break f,
                Ok(None) => panic!("clean EOF before the frame completed"),
                Err(CodecError::Io(_)) => interruptions += 1,
                Err(e) => panic!("unexpected error mid-assembly: {e}"),
            }
        };
        assert!(
            interruptions > 3,
            "the frame spanned many interrupted reads ({interruptions})"
        );
        assert_eq!(assembled, frame, "assembled bit-identical");
        // And the accumulator is clean for the next frame on the stream.
        assert_eq!(acc.buffered(), 0);

        // The length cap still guards allocation: a corrupt length field
        // is typed before any payload buffer grows.
        let mut corrupt = frame.clone();
        corrupt[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        let mut acc = FrameAccumulator::new(DEFAULT_MAX_FRAME_LEN);
        let mut r = std::io::Cursor::new(corrupt);
        assert!(matches!(
            acc.read_from(&mut r),
            Err(CodecError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn memo_key_shifts_with_schema_version() {
        let k1 = memo_key_versioned(1, 0xabcd, 0x1234);
        let k2 = memo_key_versioned(2, 0xabcd, 0x1234);
        assert_ne!(k1, k2);
        assert_eq!(
            memo_key(0xabcd, 0x1234),
            memo_key_versioned(SCHEMA_VERSION, 0xabcd, 0x1234)
        );
    }

    #[test]
    fn artifact_roundtrips_and_verifies() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let outcome = crate::plan_resilient(&bench, &s, &config);
        let result = outcome.served.clone().unwrap();
        let artifact = PlanArtifact::certified(
            instance_hash(&bench, &s),
            config_fingerprint(&config),
            outcome.rung.unwrap(),
            &bench,
            &s,
            result,
        );
        artifact
            .verify(&bench, &s)
            .expect("fresh artifact verifies");
        let frame = artifact.encode();
        let back = PlanArtifact::decode(&frame).unwrap();
        assert_eq!(back.result.schedule, artifact.result.schedule);
        assert_eq!(back.result.metrics, artifact.result.metrics);
        assert_eq!(back.rung, artifact.rung);
        assert_eq!(back.certificate, artifact.certificate);
        back.verify(&bench, &s).expect("decoded artifact verifies");
        // Encode→decode→encode is bit-identical.
        assert_eq!(back.encode(), frame);
        // The certificate is bound to the instance: a different instance
        // rejects the artifact instead of serving it.
        let other = &benchmarks::suite()[0];
        let os = synthesize(other).unwrap();
        assert!(back.verify(other, &os).is_err());
    }
}
