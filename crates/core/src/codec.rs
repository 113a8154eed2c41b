//! The versioned canonical codec: one deterministic binary encoding for
//! every planning boundary that crosses a process, a wire, or a restart.
//!
//! Three subsystems used to each invent their own representation of "the
//! same instance": the serve memo cache hashed canonical JSON, the context
//! LRU hashed chips, and region planning shipped nothing at all (it only
//! worked in-process). This module replaces all of that with a single
//! self-describing binary format:
//!
//! - **Canonical value encoding** — the vendored serde data model streamed
//!   to bytes: a [`serde::Sink`] writes each scalar, length and key with
//!   explicit tags, little-endian integers, raw-bit floats (`f64::to_bits`,
//!   so round-trips are exact and no float-printing ambiguity can creep
//!   in), and length-prefixed strings/arrays/objects, and a
//!   [`serde::Source`] reads them back. No [`serde::Value`] tree is built
//!   on either side. A hash encodes the value into a byte buffer and
//!   hashes the buffer in one [`xxh64`] call (bulk hashing of the whole
//!   buffer beats feeding each scalar to a hasher). The vendored serde
//!   sorts `HashMap` keys and preserves struct field order, so the byte
//!   stream is a pure function of the value — stable across processes,
//!   platforms, and thread counts.
//! - **Framing** — every artifact that leaves the process is wrapped in a
//!   frame: magic `"PDWC"`, a schema version byte ([`SCHEMA_VERSION`]), a
//!   frame-type tag ([`FrameType`]), a length-prefixed payload, and an
//!   XXH64 digest trailer over everything before it. Decoding re-verifies
//!   the digest and rejects version skew with typed [`CodecError`]s — a
//!   corrupt or stale frame can never be mistaken for data.
//! - **[`PlanArtifact`]** — the one reusable product of the pipeline (a
//!   verified schedule) as a first-class, durable value: schedule +
//!   metrics + ladder rung + a [`VerificationCertificate`] binding it to
//!   the instance and config that produced it. Artifacts are what the
//!   persistent memo store keeps and what `pdw serve --listen` returns.
//! - **Canonical hashes** — [`chip_hash`], [`instance_hash`], and
//!   [`config_fingerprint`] (the serve-layer cache keys) now hash the
//!   binary encoding instead of JSON text, and [`memo_key`] mixes
//!   [`SCHEMA_VERSION`] into the memo-cache key so an entry persisted by
//!   an older codec can never be served by a newer one.

use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::Chip;
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize};

use crate::config::PdwConfig;
use crate::pdw::WashResult;
use crate::resilient::RungKind;

/// Version byte of the wire format. Bump on any change to the value
/// encoding, the frame layout, or the canonical shape of a framed type;
/// decoders reject mismatches with [`CodecError::VersionSkew`] and the
/// memo key shifts so stale persisted entries are evicted, not served.
pub const SCHEMA_VERSION: u8 = 5;

/// Frame magic: the first four bytes of every encoded frame.
pub const MAGIC: [u8; 4] = *b"PDWC";

/// Frame header length: magic (4) + version (1) + type (1) + payload
/// length (4).
const HEADER_LEN: usize = 10;

/// Digest trailer length (XXH64, little-endian).
const DIGEST_LEN: usize = 8;

/// Default ceiling on a frame's payload length, applied *before* the
/// payload buffer is allocated. A corrupt or hostile length field is a
/// typed [`CodecError::FrameTooLarge`], never a multi-gigabyte
/// allocation. 64 MiB clears every artifact the mega-grid family
/// produces by two orders of magnitude; transports that want a tighter
/// bound pass their own cap to [`read_frame_capped`] /
/// [`check_frame_capped`].
pub const DEFAULT_MAX_FRAME_LEN: usize = 64 << 20;

/// Incremental XXH64 hasher (Yann Collet's published algorithm, seed 0,
/// little-endian lanes) — dependency-free, stable across platforms
/// (unlike `DefaultHasher`, which is randomly keyed per process), and it
/// consumes 32-byte stripes, so bulk input hashes several times faster
/// than a byte-serial chain. Any split of the input into [`write`]
/// calls gives the same digest as one call over the whole ([`xxh64`]).
///
/// [`write`]: Xxh64::write
#[derive(Debug, Clone, Copy)]
pub(crate) struct Xxh64 {
    acc: [u64; 4],
    stripe: [u8; 32],
    buffered: usize,
    total: u64,
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

#[inline(always)]
fn xxh_round(acc: u64, lane: u64) -> u64 {
    acc.wrapping_add(lane.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

#[inline(always)]
fn lane(bytes: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(bytes[i..i + 8].try_into().expect("eight bytes"))
}

impl Xxh64 {
    /// A fresh hasher (seed 0).
    pub(crate) fn new() -> Self {
        Xxh64 {
            acc: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            stripe: [0; 32],
            buffered: 0,
            total: 0,
        }
    }

    #[inline(always)]
    fn consume(acc: &mut [u64; 4], stripe: &[u8]) {
        for (i, a) in acc.iter_mut().enumerate() {
            *a = xxh_round(*a, lane(stripe, 8 * i));
        }
    }

    /// Feeds raw bytes.
    pub(crate) fn write(&mut self, mut bytes: &[u8]) {
        self.total += bytes.len() as u64;
        if self.buffered > 0 {
            let take = bytes.len().min(32 - self.buffered);
            self.stripe[self.buffered..self.buffered + take].copy_from_slice(&bytes[..take]);
            self.buffered += take;
            bytes = &bytes[take..];
            if self.buffered < 32 {
                return;
            }
            Self::consume(&mut self.acc, &self.stripe);
            self.buffered = 0;
        }
        let mut stripes = bytes.chunks_exact(32);
        for stripe in &mut stripes {
            Self::consume(&mut self.acc, stripe);
        }
        let rest = stripes.remainder();
        self.stripe[..rest.len()].copy_from_slice(rest);
        self.buffered = rest.len();
    }

    /// Feeds one `u64` (little-endian bytes).
    pub(crate) fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The digest of everything written so far.
    pub(crate) fn finish(&self) -> u64 {
        let [a, b, c, d] = self.acc;
        let mut h = if self.total >= 32 {
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for v in self.acc {
                h = (h ^ xxh_round(0, v)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total);
        let mut tail = &self.stripe[..self.buffered];
        while tail.len() >= 8 {
            h ^= xxh_round(0, lane(tail, 0));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let word = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
            h ^= u64::from(word).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

/// The XXH64 digest (seed 0) of `bytes`, hashed in one call.
pub fn xxh64(bytes: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.write(bytes);
    h.finish()
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
    // Tags 6 and 7 framed the retired region-worker protocol; they stay
    // unassigned, so a frame of either kind is an unexpected type.
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

// One tag byte per kind of value. Floats are encoded as raw IEEE-754
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

/// The canonical encoder: a [`serde::Sink`] appending the tagged byte
/// layout to a buffer. A map key is its length and bytes, with no tag.
/// The methods are `#[inline]` because the encoder is not generic: a
/// crate that encodes a value (the serve layer, the benches) could not
/// otherwise inline the writes into its `Serialize` instantiations.
pub(crate) struct Canonical<'a>(pub(crate) &'a mut Vec<u8>);

impl Canonical<'_> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    #[inline]
    fn word(&mut self, tag: u8, word: u64) {
        let mut b = [tag; 9];
        b[1..].copy_from_slice(&word.to_le_bytes());
        self.put(&b);
    }

    #[inline]
    fn len(&mut self, tag: u8, len: usize) {
        let mut b = [tag; 5];
        b[1..].copy_from_slice(&(len as u32).to_le_bytes());
        self.put(&b);
    }
}

impl serde::Sink for Canonical<'_> {
    #[inline]
    fn null(&mut self) {
        self.0.push(TAG_NULL);
    }
    #[inline]
    fn bool(&mut self, v: bool) {
        self.0.push(if v { TAG_TRUE } else { TAG_FALSE });
    }
    #[inline]
    fn i64(&mut self, v: i64) {
        self.word(TAG_INT, v as u64);
    }
    #[inline]
    fn u64(&mut self, v: u64) {
        self.word(TAG_UINT, v);
    }
    #[inline]
    fn f64(&mut self, v: f64) {
        self.word(TAG_FLOAT, v.to_bits());
    }
    #[inline]
    fn str(&mut self, v: &str) {
        self.len(TAG_STR, v.len());
        self.put(v.as_bytes());
    }
    #[inline]
    fn seq(&mut self, len: usize) {
        self.len(TAG_ARRAY, len);
    }
    #[inline]
    fn map(&mut self, len: usize) {
        self.len(TAG_OBJECT, len);
    }
    #[inline]
    fn key(&mut self, k: &str) {
        self.put(&(k.len() as u32).to_le_bytes());
        self.put(k.as_bytes());
    }
}

/// The canonical decoder: a [`serde::Source`] reading the tagged byte
/// layout out of a payload. A serde error carries only a message, so a
/// payload that ends early is remembered here and reported as
/// [`CodecError::Truncated`]; every other failure is
/// [`CodecError::Malformed`].
struct ByteSource<'a> {
    bytes: &'a [u8],
    pos: usize,
    truncated: Option<CodecError>,
}

impl<'a> ByteSource<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], serde::Error> {
        match self.bytes.get(self.pos..self.pos.saturating_add(n)) {
            Some(slice) => {
                self.pos += n;
                Ok(slice)
            }
            None => Err(self.ran_out(n)),
        }
    }

    /// Records that the payload ended `n` bytes short of a value.
    #[cold]
    fn ran_out(&mut self, n: usize) -> serde::Error {
        self.truncated = Some(CodecError::Truncated {
            needed: self.pos.saturating_add(n),
            have: self.bytes.len(),
        });
        serde::Error::custom("payload ends mid-value")
    }

    /// The error for a next value that is not `what` (or no value at all).
    #[cold]
    fn mismatch(&mut self, what: &str) -> serde::Error {
        match serde::Source::peek(self) {
            Ok(found) => serde::Error::expected(what, found),
            Err(e) => e,
        }
    }

    #[inline]
    fn word(&mut self) -> Result<u64, serde::Error> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("eight bytes taken")))
    }

    #[inline]
    fn len(&mut self) -> Result<usize, serde::Error> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("four bytes taken")) as usize)
    }

    #[inline]
    fn text(&mut self) -> Result<&'a str, serde::Error> {
        let len = self.len()?;
        std::str::from_utf8(self.take(len)?)
            .map_err(|e| serde::Error::custom(format_args!("non-UTF-8 string: {e}")))
    }

    /// Consumes the tag byte if it is `tag`; otherwise fails naming `what`
    /// and consumes nothing.
    #[inline]
    fn open(&mut self, tag: u8, what: &str) -> Result<(), serde::Error> {
        if self.bytes.get(self.pos) != Some(&tag) {
            return Err(self.mismatch(what));
        }
        self.pos += 1;
        Ok(())
    }

    fn skip_at(&mut self, depth: usize) -> Result<(), serde::Error> {
        use serde::Source;
        match self.peek()? {
            serde::Tag::Str => self.str().map(drop),
            serde::Tag::Seq | serde::Tag::Map if depth >= serde::MAX_DEPTH => {
                Err(serde::Error::custom(format_args!(
                    "value nests deeper than {} levels",
                    serde::MAX_DEPTH
                )))
            }
            serde::Tag::Seq => {
                for _ in 0..self.seq()? {
                    self.skip_at(depth + 1)?;
                }
                Ok(())
            }
            serde::Tag::Map => {
                for _ in 0..self.map()? {
                    self.key()?;
                    self.skip_at(depth + 1)?;
                }
                Ok(())
            }
            _ => self.scalar().map(drop),
        }
    }
}

impl serde::Source for ByteSource<'_> {
    fn peek(&mut self) -> Result<serde::Tag, serde::Error> {
        let Some(&tag) = self.bytes.get(self.pos) else {
            return Err(self.ran_out(1));
        };
        Ok(match tag {
            TAG_NULL => serde::Tag::Null,
            TAG_FALSE | TAG_TRUE => serde::Tag::Bool,
            TAG_INT => serde::Tag::Int,
            TAG_UINT => serde::Tag::UInt,
            TAG_FLOAT => serde::Tag::Float,
            TAG_STR => serde::Tag::Str,
            TAG_ARRAY => serde::Tag::Seq,
            TAG_OBJECT => serde::Tag::Map,
            other => {
                return Err(serde::Error::custom(format_args!(
                    "invalid value tag {other}"
                )))
            }
        })
    }

    #[inline]
    fn scalar(&mut self) -> Result<serde::Scalar, serde::Error> {
        let tag = self.bytes.get(self.pos).copied();
        let scalar = match tag {
            Some(TAG_NULL) => serde::Scalar::Null,
            Some(TAG_FALSE) => serde::Scalar::Bool(false),
            Some(TAG_TRUE) => serde::Scalar::Bool(true),
            Some(TAG_INT | TAG_UINT | TAG_FLOAT) => {
                self.pos += 1;
                let word = self.word()?;
                return Ok(match tag {
                    Some(TAG_INT) => serde::Scalar::Int(word as i64),
                    Some(TAG_UINT) => serde::Scalar::UInt(word),
                    _ => serde::Scalar::Float(f64::from_bits(word)),
                });
            }
            _ => return Err(self.mismatch("a scalar")),
        };
        self.pos += 1;
        Ok(scalar)
    }

    #[inline]
    fn str(&mut self) -> Result<&str, serde::Error> {
        self.open(TAG_STR, "string")?;
        self.text()
    }

    #[inline]
    fn seq(&mut self) -> Result<usize, serde::Error> {
        self.open(TAG_ARRAY, "array")?;
        self.len()
    }

    #[inline]
    fn map(&mut self) -> Result<usize, serde::Error> {
        self.open(TAG_OBJECT, "object")?;
        self.len()
    }

    #[inline]
    fn key(&mut self) -> Result<&str, serde::Error> {
        self.text()
    }

    /// Matches the key's bytes against `names` first: a key equal to a
    /// name is valid UTF-8 without a check, and only unknown keys are
    /// validated.
    #[inline]
    fn field(&mut self, names: &[&str]) -> Result<usize, serde::Error> {
        let len = self.len()?;
        let raw = self.take(len)?;
        match names.iter().position(|n| n.as_bytes() == raw) {
            Some(i) => Ok(i),
            None => std::str::from_utf8(raw)
                .map(|_| usize::MAX)
                .map_err(|e| serde::Error::custom(format_args!("non-UTF-8 string: {e}"))),
        }
    }

    fn skip(&mut self) -> Result<(), serde::Error> {
        self.skip_at(0)
    }
}

/// Decodes a whole canonical payload as `T`; bytes left over after the
/// value are [`CodecError::Malformed`].
fn decode_payload<T: Deserialize>(payload: &[u8]) -> Result<T, CodecError> {
    let mut src = ByteSource {
        bytes: payload,
        pos: 0,
        truncated: None,
    };
    let value = T::deserialize(&mut src).map_err(|e| {
        src.truncated
            .take()
            .unwrap_or_else(|| CodecError::Malformed(e.to_string()))
    })?;
    if src.pos != payload.len() {
        return Err(CodecError::Malformed(format!(
            "{} trailing payload bytes",
            payload.len() - src.pos
        )));
    }
    Ok(value)
}

/// The canonical binary encoding of any serializable value — the byte
/// stream every canonical hash is computed over.
pub fn canonical_bytes<T: Serialize + ?Sized>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.serialize(&mut Canonical(&mut out));
    out
}

/// XXH64 digest of a value's canonical binary encoding: the value is
/// encoded into a buffer, and the buffer hashed in one call.
pub fn canonical_digest<T: Serialize + ?Sized>(value: &T) -> u64 {
    xxh64(&canonical_bytes(value))
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Encodes `value` into a self-describing frame: `MAGIC`, version, type
/// tag, length-prefixed canonical payload, XXH64 digest trailer.
pub fn encode_frame<T: Serialize + ?Sized>(ty: FrameType, value: &T) -> Vec<u8> {
    let mut out = frame_header(ty, 256);
    value.serialize(&mut Canonical(&mut out));
    seal_frame(out)
}

/// Frames a canonical payload given as consecutive byte slices — for
/// callers that splice cached canonical bytes of a value's parts instead
/// of re-encoding the whole value. The result is byte-identical to
/// [`encode_frame`] of the value whose canonical encoding is the
/// concatenation of `parts`.
pub fn frame_payload(ty: FrameType, parts: &[&[u8]]) -> Vec<u8> {
    let mut out = frame_header(ty, parts.iter().map(|p| p.len()).sum());
    for part in parts {
        out.extend_from_slice(part);
    }
    seal_frame(out)
}

/// A frame's header with its payload length still zero, in a buffer with
/// room for `payload` more bytes and the trailer.
fn frame_header(ty: FrameType, payload: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload + DIGEST_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(SCHEMA_VERSION);
    out.push(ty as u8);
    out.extend_from_slice(&[0; 4]);
    out
}

/// Completes a frame whose payload follows [`frame_header`]: writes the
/// payload length and appends the digest trailer.
fn seal_frame(mut out: Vec<u8>) -> Vec<u8> {
    let len = (out.len() - HEADER_LEN) as u32;
    out[6..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
    let digest = xxh64(&out);
    out.extend_from_slice(&digest.to_le_bytes());
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
    let computed = xxh64(body);
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
    decode_payload(payload)
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
    FrameAccumulator::new(cap).read_from(r)
}

/// A resumable frame reader for tick-polled loops: partially read bytes
/// survive a reader error instead of being discarded, so a frame whose
/// delivery spans several short read deadlines (a slow peer, WAN
/// congestion mid-payload) is assembled across calls rather than
/// desynchronizing the stream. [`read_frame_capped`] is a one-shot
/// accumulator, for callers whose deadline covers the whole frame.
#[derive(Debug)]
pub struct FrameAccumulator {
    cap: usize,
    /// The frame being assembled, sized to what is known of it: the
    /// header until the header is in, then the whole frame.
    buf: Vec<u8>,
    /// Bytes of `buf` received so far.
    filled: usize,
}

impl FrameAccumulator {
    /// An empty accumulator enforcing `cap` on the payload length.
    pub fn new(cap: usize) -> Self {
        FrameAccumulator {
            cap,
            buf: Vec::new(),
            filled: 0,
        }
    }

    /// Bytes buffered toward the frame currently being assembled — the
    /// caller's progress signal (a mid-frame stall with no progress is
    /// idle; one with progress is a slow peer still delivering).
    pub fn buffered(&self) -> usize {
        self.filled
    }

    /// Reads from `r` until one whole frame is assembled. `Ok(None)` is a
    /// clean EOF at a frame boundary; a stream ending mid-frame is
    /// [`CodecError::Truncated`]; the length field is validated against
    /// the cap *before* the buffer grows to the frame's length, which it
    /// does once. An `Err` from `r` — e.g. a read deadline elapsing —
    /// surfaces as [`CodecError::Io`] but leaves the partial frame
    /// buffered, so the next call resumes where this one stopped.
    pub fn read_from(&mut self, r: &mut impl std::io::Read) -> Result<Option<Vec<u8>>, CodecError> {
        if self.buf.is_empty() {
            self.buf.resize(HEADER_LEN, 0);
        }
        loop {
            while self.filled < self.buf.len() {
                match r.read(&mut self.buf[self.filled..]) {
                    Ok(0) if self.filled == 0 => return Ok(None),
                    Ok(0) => {
                        return Err(CodecError::Truncated {
                            needed: self.buf.len(),
                            have: self.filled,
                        })
                    }
                    Ok(n) => self.filled += n,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(CodecError::Io(e.to_string())),
                }
            }
            if self.buf.len() > HEADER_LEN {
                self.filled = 0;
                return Ok(Some(std::mem::take(&mut self.buf)));
            }
            if self.buf[..4] != MAGIC {
                let found = self.buf[..4].try_into().expect("length checked");
                self.filled = 0;
                return Err(CodecError::BadMagic { found });
            }
            let len =
                u32::from_le_bytes(self.buf[6..10].try_into().expect("length checked")) as usize;
            if len > self.cap {
                self.filled = 0;
                return Err(CodecError::FrameTooLarge { len, cap: self.cap });
            }
            self.buf.resize(HEADER_LEN + len + DIGEST_LEN, 0);
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
    /// XXH64 over the canonical bytes of the schedule followed by the
    /// chip hash (little-endian).
    pub validator_digest: u64,
    /// XXH64 over the oracle's replay counters (violations, deposits,
    /// dissolved, checks, ineffective washes), each a little-endian
    /// `u64`.
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
        let mut validated = canonical_bytes(&result.schedule);
        validated.extend_from_slice(&chip_hash(chip).to_le_bytes());
        let mut o = Xxh64::new();
        o.write_u64(oracle.violations.len() as u64);
        o.write_u64(oracle.deposits as u64);
        o.write_u64(oracle.dissolved as u64);
        o.write_u64(oracle.checks as u64);
        o.write_u64(oracle.ineffective_washes.len() as u64);
        VerificationCertificate {
            validator_digest: xxh64(&validated),
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

/// Canonical hash of a chip's full identity: grid, devices, ports, labels,
/// and the [`FaultSet`](pdw_biochip::FaultSet) it currently carries. Two
/// chips differing only in faults hash differently — a warm context built
/// for a damaged chip must never be served for its pristine twin.
pub fn chip_hash(chip: &Chip) -> u64 {
    canonical_digest(chip)
}

/// Canonical hash of a full planning instance: the benchmark (assay graph +
/// device library) and the synthesis (chip, base schedule, binding, reagent
/// ports). This is the memo-cache key of a plan server — every cached plan
/// is a pure function of this hash plus the planner configuration
/// ([`config_fingerprint`]).
pub fn instance_hash(bench: &Benchmark, synthesis: &Synthesis) -> u64 {
    let mut bytes = Vec::new();
    let out = &mut Canonical(&mut bytes);
    bench.serialize(out);
    synthesis.chip.serialize(out);
    synthesis.schedule.serialize(out);
    synthesis.binding.serialize(out);
    synthesis.reagent_ports.serialize(out);
    xxh64(&bytes)
}

/// Fingerprint of the configuration fields that shape a plan's *result*.
///
/// `threads` is deliberately excluded — every planner is documented
/// thread-count-invariant, so two solves differing only in the thread knob
/// must share one memo entry. Budgets are included: a deadline-degraded
/// plan is a different result family than an unbounded one.
pub fn config_fingerprint(config: &PdwConfig) -> u64 {
    let mut h = Xxh64::new();
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
    let mut h = Xxh64::new();
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
    use serde::Value;
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
    fn xxh64_matches_the_reference_vectors() {
        assert_eq!(xxh64(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(xxh64(b"abc"), 0x44BC_2CF5_AD77_0999);
        // 43 bytes: one 32-byte stripe, an 8-byte lane and a 3-byte tail.
        assert_eq!(
            xxh64(b"The quick brown fox jumps over the lazy dog"),
            0x0B24_2D36_1FDA_71BC
        );
        assert_ne!(xxh64(b"ab"), xxh64(b"ba"));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Any split of an input into `write` calls gives the one-shot
        /// digest; lengths reach past several 32-byte stripes, and cuts
        /// fall on either side of stripe boundaries.
        #[test]
        fn any_split_of_the_input_gives_the_one_shot_digest(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..1000),
            cuts in proptest::collection::vec(0usize..1000, 0..8),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
            cuts.sort_unstable();
            let mut h = Xxh64::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([bytes.len()]) {
                h.write(&bytes[from..cut]);
                from = cut;
            }
            proptest::prop_assert_eq!(h.finish(), xxh64(&bytes));
        }
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
            ("empty".into(), Value::Object(Vec::new())),
        ]);
        let bytes = canonical_bytes(&v);
        let back: Value = decode_payload(&bytes).unwrap();
        // NaN != NaN, so compare via re-encoding: bit-exact floats mean
        // the re-encoded stream is identical.
        assert_eq!(canonical_bytes(&back), bytes);
        // The digest is the hash of those same bytes.
        assert_eq!(canonical_digest(&v), xxh64(&bytes));
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

    /// The demo's certified greedy plan, with the instance it was solved
    /// for.
    fn demo_artifact() -> (Benchmark, Synthesis, PlanArtifact) {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let outcome = crate::plan_resilient(&bench, &s, &config);
        let artifact = PlanArtifact::certified(
            instance_hash(&bench, &s),
            config_fingerprint(&config),
            outcome.rung.unwrap(),
            &bench,
            &s,
            outcome.served.unwrap(),
        );
        (bench, s, artifact)
    }

    #[test]
    fn every_flipped_byte_of_an_artifact_frame_is_a_typed_error() {
        let (_, _, artifact) = demo_artifact();
        let frame = artifact.encode();
        let mut flipped = frame.clone();
        for i in 0..frame.len() {
            flipped[i] ^= 0xff;
            assert!(
                PlanArtifact::decode(&flipped).is_err(),
                "byte {i} of {} flipped, yet the frame decoded",
                frame.len()
            );
            flipped[i] = frame[i];
        }
    }

    #[test]
    fn artifact_roundtrips_and_verifies() {
        let (bench, s, artifact) = demo_artifact();
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
