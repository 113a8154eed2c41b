//! The socket transport seam: the canonical codec's frames over TCP and
//! Unix-domain byte streams, with every failure mode typed.
//!
//! ROADMAP items 1 and 2 converge here: the framed request/response loop
//! in [`crate::worker`] already works over *any* byte stream, so crossing
//! machines is "just" a transport — except a real network is exactly
//! where faults live. This module supplies the hardened plumbing every
//! networked caller shares:
//!
//! - [`NetAddr`] / [`NetStream`] / [`NetListener`] — one address grammar
//!   (`unix:PATH` or TCP `host:port`) and one stream type over both
//!   socket families, with connect/read/write timeouts.
//! - [`TransportError`] — the transport-level mirror of [`CodecError`]:
//!   `ConnectRefused`, `Timeout`, `TornFrame`, `VersionSkew`,
//!   `ServerDraining`, `Io`. A wire fault is never a panic, never a
//!   mystery string, and never a silently wrong plan.
//! - [`NetRequest`] / [`NetResponse`] / [`WireError`] — the plan-serving
//!   wire protocol (handshake, heartbeat, solve, drain) spoken by
//!   `pdw serve --listen` and `PlanClient` (see DESIGN.md §13). Repairs
//!   are deliberately *not* on the wire: a retried repair would re-apply
//!   its delta, breaking the idempotency argument that makes retries
//!   safe; solves are pure functions of their memo key.
//! - [`send_frame`] / [`recv_frame`] — timeout-aware framed I/O that
//!   classifies `WouldBlock`/`TimedOut` as [`TransportError::Timeout`],
//!   version skew as its own variant, and every other codec failure as a
//!   torn frame.
//!
//! Region jobs sent to `pdw worker --listen` peers use only [`NetAddr`]
//! and [`NetStream`] from here; the worker protocol's client and server
//! both live in [`crate::worker`].

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::time::Duration;

use serde::{Deserialize, Serialize, Sink};

use crate::codec::{self, CodecError, FrameType, PlanArtifact, SCHEMA_VERSION};
use crate::worker::SolveRequest;

/// Typed transport failures — the socket-level mirror of [`CodecError`].
/// Every variant is something a retry loop can reason about: connect
/// refusals and timeouts are retryable, version skew is not, a draining
/// server wants the client to go elsewhere.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TransportError {
    /// The peer refused (or could not be reached for) a connection.
    ConnectRefused {
        /// The address dialed.
        addr: String,
        /// The OS-level detail.
        detail: String,
    },
    /// An I/O deadline elapsed mid-operation.
    Timeout {
        /// What was being waited on (`"connect"`, `"read"`, `"write"`).
        during: &'static str,
        /// The deadline that elapsed.
        after: Duration,
    },
    /// The byte stream broke mid-frame or carried a corrupt frame
    /// (truncation, digest mismatch, bad magic, oversized length…).
    TornFrame(CodecError),
    /// The peer speaks a different codec version.
    VersionSkew {
        /// The peer's version byte.
        found: u8,
        /// This build's [`SCHEMA_VERSION`].
        expected: u8,
    },
    /// The server is draining: it finished its in-flight work but will
    /// not accept this request.
    ServerDraining,
    /// Any other I/O failure (connection reset, broken pipe…).
    Io(String),
    /// The peer violated the protocol (unexpected message kind, wrong
    /// request id, missing handshake).
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::ConnectRefused { addr, detail } => {
                write!(f, "connect to {addr} refused: {detail}")
            }
            TransportError::Timeout { during, after } => {
                write!(f, "{during} timed out after {after:?}")
            }
            TransportError::TornFrame(e) => write!(f, "torn frame: {e}"),
            TransportError::VersionSkew { found, expected } => {
                write!(f, "peer codec v{found}, this build v{expected}")
            }
            TransportError::ServerDraining => write!(f, "server is draining"),
            TransportError::Io(msg) => write!(f, "transport i/o: {msg}"),
            TransportError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl TransportError {
    /// `true` when a bounded retry against the same (or a respawned) peer
    /// can plausibly succeed: connect refusals, timeouts, torn frames and
    /// plain I/O faults are transient; version skew and protocol
    /// violations are not, and a draining server has asked us to stop.
    pub fn retryable(&self) -> bool {
        matches!(
            self,
            TransportError::ConnectRefused { .. }
                | TransportError::Timeout { .. }
                | TransportError::TornFrame(_)
                | TransportError::Io(_)
        )
    }
}

// ---------------------------------------------------------------------------
// Addresses, streams, listeners
// ---------------------------------------------------------------------------

/// A socket address in the transport's grammar: `unix:PATH` for a
/// Unix-domain socket, anything else for TCP `host:port`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetAddr {
    /// A TCP endpoint, e.g. `127.0.0.1:7901`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl NetAddr {
    /// Parses `unix:PATH` or TCP `host:port`.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(path) = s.strip_prefix("unix:") {
            if path.is_empty() {
                return Err("empty unix socket path".to_string());
            }
            return Ok(NetAddr::Unix(PathBuf::from(path)));
        }
        if !s.contains(':') {
            return Err(format!("TCP address '{s}' needs host:port (or unix:PATH)"));
        }
        Ok(NetAddr::Tcp(s.to_string()))
    }

    /// Dials the address with a connect timeout (TCP only — Unix-domain
    /// connects are local and effectively instant).
    pub fn connect(&self, timeout: Duration) -> Result<NetStream, TransportError> {
        match self {
            NetAddr::Tcp(addr) => {
                let targets: Vec<_> = addr
                    .to_socket_addrs()
                    .map_err(|e| TransportError::ConnectRefused {
                        addr: addr.clone(),
                        detail: format!("resolve: {e}"),
                    })?
                    .collect();
                let mut last = "no resolved addresses".to_string();
                for target in targets {
                    match TcpStream::connect_timeout(&target, timeout) {
                        Ok(s) => {
                            let _ = s.set_nodelay(true);
                            return Ok(NetStream::Tcp(s));
                        }
                        Err(e) if e.kind() == io::ErrorKind::TimedOut => {
                            return Err(TransportError::Timeout {
                                during: "connect",
                                after: timeout,
                            })
                        }
                        Err(e) => last = e.to_string(),
                    }
                }
                Err(TransportError::ConnectRefused {
                    addr: addr.clone(),
                    detail: last,
                })
            }
            #[cfg(unix)]
            NetAddr::Unix(path) => match UnixStream::connect(path) {
                Ok(s) => Ok(NetStream::Unix(s)),
                Err(e) => Err(TransportError::ConnectRefused {
                    addr: self.to_string(),
                    detail: e.to_string(),
                }),
            },
            #[cfg(not(unix))]
            NetAddr::Unix(_) => Err(TransportError::ConnectRefused {
                addr: self.to_string(),
                detail: "unix sockets unsupported on this platform".to_string(),
            }),
        }
    }
}

impl std::fmt::Display for NetAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetAddr::Tcp(a) => write!(f, "{a}"),
            NetAddr::Unix(p) => write!(f, "unix:{}", p.display()),
        }
    }
}

/// One connected byte stream over either socket family.
#[derive(Debug)]
pub enum NetStream {
    /// A TCP connection.
    Tcp(TcpStream),
    /// A Unix-domain connection.
    #[cfg(unix)]
    Unix(UnixStream),
}

impl NetStream {
    /// Sets (or clears) the read deadline for subsequent reads.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Sets (or clears) the write deadline for subsequent writes.
    pub fn set_write_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.set_write_timeout(t),
            #[cfg(unix)]
            NetStream::Unix(s) => s.set_write_timeout(t),
        }
    }

    /// An independently owned handle onto the same connection (for a
    /// reader thread and writer threads to share).
    pub fn try_clone(&self) -> io::Result<NetStream> {
        Ok(match self {
            NetStream::Tcp(s) => NetStream::Tcp(s.try_clone()?),
            #[cfg(unix)]
            NetStream::Unix(s) => NetStream::Unix(s.try_clone()?),
        })
    }

    /// Shuts down both halves, unblocking any thread parked in a read.
    pub fn shutdown(&self) {
        match self {
            NetStream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            NetStream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }

    /// A human-readable peer label for events and logs.
    pub fn peer_label(&self) -> String {
        match self {
            NetStream::Tcp(s) => s
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".to_string()),
            #[cfg(unix)]
            NetStream::Unix(_) => "unix-peer".to_string(),
        }
    }
}

impl Read for NetStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for NetStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            NetStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            NetStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            NetStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            NetStream::Unix(s) => s.flush(),
        }
    }
}

/// A bound listener over either socket family. Binding a Unix listener
/// unlinks a stale socket file first, so post-drain rebinds of the same
/// path succeed.
#[derive(Debug)]
pub enum NetListener {
    /// A TCP listener.
    Tcp(TcpListener),
    /// A Unix-domain listener (path kept for unlink-on-drop).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl NetListener {
    /// Binds the address (TCP port `0` picks a free port; see
    /// [`NetListener::local_addr`]).
    pub fn bind(addr: &NetAddr) -> Result<Self, TransportError> {
        match addr {
            NetAddr::Tcp(a) => TcpListener::bind(a)
                .map(NetListener::Tcp)
                .map_err(|e| TransportError::Io(format!("bind {a}: {e}"))),
            #[cfg(unix)]
            NetAddr::Unix(path) => {
                let _ = std::fs::remove_file(path);
                UnixListener::bind(path)
                    .map(|l| NetListener::Unix(l, path.clone()))
                    .map_err(|e| TransportError::Io(format!("bind unix:{}: {e}", path.display())))
            }
            #[cfg(not(unix))]
            NetAddr::Unix(_) => Err(TransportError::Io(
                "unix sockets unsupported on this platform".to_string(),
            )),
        }
    }

    /// The concrete bound address (the real port when TCP bound port 0).
    pub fn local_addr(&self) -> NetAddr {
        match self {
            NetListener::Tcp(l) => NetAddr::Tcp(
                l.local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "?:?".to_string()),
            ),
            #[cfg(unix)]
            NetListener::Unix(_, path) => NetAddr::Unix(path.clone()),
        }
    }

    /// Switches the listener between blocking and non-blocking accepts
    /// (the accept loop polls non-blocking so a drain flag can stop it).
    pub fn set_nonblocking(&self, nb: bool) -> io::Result<()> {
        match self {
            NetListener::Tcp(l) => l.set_nonblocking(nb),
            #[cfg(unix)]
            NetListener::Unix(l, _) => l.set_nonblocking(nb),
        }
    }

    /// Accepts one connection (respecting the blocking mode).
    pub fn accept(&self) -> io::Result<NetStream> {
        match self {
            NetListener::Tcp(l) => {
                let (s, _) = l.accept()?;
                let _ = s.set_nodelay(true);
                Ok(NetStream::Tcp(s))
            }
            #[cfg(unix)]
            NetListener::Unix(l, _) => {
                let (s, _) = l.accept()?;
                Ok(NetStream::Unix(s))
            }
        }
    }
}

#[cfg(unix)]
impl Drop for NetListener {
    fn drop(&mut self) {
        if let NetListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// Timeout-aware framed I/O
// ---------------------------------------------------------------------------

/// Wraps a stream read so the *I/O error kind* survives the codec's
/// stringly `CodecError::Io` — that's how a read deadline mid-frame is
/// classified as [`TransportError::Timeout`] instead of a generic fault.
struct TrackedReader<'a> {
    inner: &'a mut NetStream,
    last_kind: Option<io::ErrorKind>,
}

impl Read for TrackedReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.inner.read(buf) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.last_kind = Some(e.kind());
                Err(e)
            }
        }
    }
}

fn is_timeout(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

fn classify_codec(e: CodecError, io_kind: Option<io::ErrorKind>, t: Duration) -> TransportError {
    match e {
        CodecError::VersionSkew { found, expected } => {
            TransportError::VersionSkew { found, expected }
        }
        CodecError::Io(msg) => {
            if io_kind.is_some_and(is_timeout) {
                TransportError::Timeout {
                    during: "read",
                    after: t,
                }
            } else {
                TransportError::Io(msg)
            }
        }
        other => TransportError::TornFrame(other),
    }
}

/// Writes one already-encoded frame under a write deadline.
pub fn send_frame(
    stream: &mut NetStream,
    frame: &[u8],
    timeout: Duration,
) -> Result<(), TransportError> {
    let _ = stream.set_write_timeout(Some(timeout));
    stream
        .write_all(frame)
        .and_then(|()| stream.flush())
        .map_err(|e| {
            if is_timeout(e.kind()) {
                TransportError::Timeout {
                    during: "write",
                    after: timeout,
                }
            } else {
                TransportError::Io(e.to_string())
            }
        })
}

/// Reads one whole frame under a read deadline and a frame-length cap.
/// `Ok(None)` is a clean EOF at a frame boundary (the peer hung up
/// politely); every other failure is typed.
pub fn recv_frame(
    stream: &mut NetStream,
    cap: usize,
    timeout: Duration,
) -> Result<Option<Vec<u8>>, TransportError> {
    let _ = stream.set_read_timeout(Some(timeout));
    let mut tracked = TrackedReader {
        inner: stream,
        last_kind: None,
    };
    match codec::read_frame_capped(&mut tracked, cap) {
        Ok(frame) => Ok(frame),
        Err(e) => {
            let kind = tracked.last_kind;
            Err(classify_codec(e, kind, timeout))
        }
    }
}

/// A resumable [`recv_frame`] for tick-polled server loops: one reader
/// per connection retains partially received frame bytes across
/// [`TransportError::Timeout`] returns, so a frame whose delivery spans
/// several read ticks (large payload, WAN congestion) is assembled
/// incrementally instead of being torn. [`buffered`](Self::buffered)
/// distinguishes a genuinely idle tick from a slow peer mid-frame.
pub struct FrameReader {
    acc: codec::FrameAccumulator,
}

impl FrameReader {
    /// A reader enforcing `cap` on the payload length.
    pub fn new(cap: usize) -> Self {
        FrameReader {
            acc: codec::FrameAccumulator::new(cap),
        }
    }

    /// Bytes buffered toward the frame currently being assembled.
    pub fn buffered(&self) -> usize {
        self.acc.buffered()
    }

    /// Polls for one whole frame under a read deadline; a timeout leaves
    /// the partial frame buffered for the next poll.
    pub fn poll_frame(
        &mut self,
        stream: &mut NetStream,
        timeout: Duration,
    ) -> Result<Option<Vec<u8>>, TransportError> {
        let _ = stream.set_read_timeout(Some(timeout));
        let mut tracked = TrackedReader {
            inner: stream,
            last_kind: None,
        };
        match self.acc.read_from(&mut tracked) {
            Ok(frame) => Ok(frame),
            Err(e) => {
                let kind = tracked.last_kind;
                Err(classify_codec(e, kind, timeout))
            }
        }
    }

    /// Polls for one decoded [`NetRequest`] (`Ok(None)` = clean EOF).
    pub fn poll_request(
        &mut self,
        stream: &mut NetStream,
        timeout: Duration,
    ) -> Result<Option<NetRequest>, TransportError> {
        match self.poll_frame(stream, timeout)? {
            None => Ok(None),
            Some(frame) => decode_net(FrameType::NetRequest, &frame).map(Some),
        }
    }
}

/// Decodes a received frame as `T`, classifying version skew.
pub fn decode_net<T: Deserialize>(ty: FrameType, frame: &[u8]) -> Result<T, TransportError> {
    codec::decode_frame(ty, frame).map_err(|e| match e {
        CodecError::VersionSkew { found, expected } => {
            TransportError::VersionSkew { found, expected }
        }
        other => TransportError::TornFrame(other),
    })
}

// ---------------------------------------------------------------------------
// The plan-serving wire protocol (DESIGN.md §13)
// ---------------------------------------------------------------------------

/// What a plan client may send a `pdw serve --listen` endpoint. The
/// first frame on every connection must be `Hello`; after
/// the `HelloAck`, `Ping`, `SolveKey` and `Solve` interleave freely.
/// Repairs are deliberately absent (see the module docs): only idempotent
/// work rides the wire.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetRequest {
    /// Handshake: the client announces its codec version. The frame
    /// envelope enforces byte-level version equality already; the field
    /// makes the negotiation explicit and testable.
    Hello {
        /// The client's [`SCHEMA_VERSION`].
        codec_version: u8,
    },
    /// Heartbeat; the server echoes the nonce in a `Pong`.
    Ping {
        /// Echoed verbatim.
        nonce: u64,
    },
    /// One idempotent solve. Retrying this exact request is safe by
    /// construction: the server keys it by its memo key, so a retry can
    /// only hit the memo or re-lead the same single-flight solve.
    Solve {
        /// Client-chosen id echoed in the response (pipelining support).
        id: u64,
        /// Remaining client budget in microseconds (`None` = unbounded),
        /// already reduced by the client's transit estimate.
        budget_us: Option<u64>,
        /// The instance + config to solve.
        solve: Box<SolveRequest>,
    },
    /// A key-first solve: the memo key's two halves instead of the
    /// instance. A server that holds a certified plan under that key
    /// answers `Plan` at once; otherwise it answers `NeedInstance` and the
    /// client follows up with the full `Solve`. The server never memoizes
    /// under a key a client claims — only `Solve`, which it hashes itself,
    /// writes the memo. Sent only to servers whose `HelloAck` sets
    /// `key_first`.
    SolveKey {
        /// Client-chosen id echoed in the response.
        id: u64,
        /// Remaining client budget in microseconds, as for `Solve`.
        budget_us: Option<u64>,
        /// [`instance_hash`](crate::instance_hash) of the client's
        /// instance.
        instance_hash: u64,
        /// [`config_fingerprint`](crate::config_fingerprint) of the
        /// client's planner config.
        config_fp: u64,
    },
    /// Administrative: begin a graceful drain (stop accepting, finish
    /// in-flight, answer the rest `ShuttingDown`).
    Drain,
}

/// What the server answers with.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum NetResponse {
    /// Handshake acknowledgement and connection parameters.
    HelloAck {
        /// The server's [`SCHEMA_VERSION`].
        codec_version: u8,
        /// The largest frame the server will read or write.
        max_frame_len: u64,
        /// The heartbeat cadence the server expects (it evicts
        /// connections idle for several multiples of this).
        heartbeat_ms: u64,
        /// `Some(true)` when the server answers `SolveKey`. Builds that
        /// predate the key-first exchange leave the field out (it decodes
        /// as `None`), and clients then send full `Solve`s.
        key_first: Option<bool>,
    },
    /// Heartbeat echo.
    Pong {
        /// The nonce from the `Ping`.
        nonce: u64,
    },
    /// A served plan: a certified artifact the client must re-verify.
    Plan {
        /// The request id this answers.
        id: u64,
        /// `true` when the plan came from the memo cache.
        memo_hit: bool,
        /// `true` when the plan was deadline-degraded (not memoized).
        degraded: bool,
        /// The certified plan artifact.
        artifact: Box<PlanArtifact>,
    },
    /// The answer to a `SolveKey` the server holds no certified plan for:
    /// the client must send the full `Solve`.
    NeedInstance {
        /// The `SolveKey` id this answers.
        id: u64,
    },
    /// A typed serve-side failure for one request.
    Error {
        /// The request id this answers (`0` for connection-level errors).
        id: u64,
        /// What went wrong.
        error: WireError,
    },
    /// Drain acknowledged; `in_flight` requests are still finishing.
    DrainAck {
        /// Requests still in flight at drain start.
        in_flight: u64,
    },
}

/// Serve-side errors as they cross the wire — the union of the server's
/// admission (`Rejected`) and service (`ServeError`) failures, plus
/// protocol-level refusals, every one typed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum WireError {
    /// The server is draining and accepts no new work.
    ShuttingDown,
    /// Admission control shed the request.
    Saturated {
        /// Cost already queued.
        queued_cost: u64,
        /// This request's cost.
        cost: u64,
        /// The configured budget.
        budget: u64,
    },
    /// The request's (propagated) deadline expired before a plan served.
    DeadlineExpired {
        /// How long the request had waited, microseconds.
        waited_us: u64,
    },
    /// The serve worker panicked (caught; the server is still healthy).
    WorkerPanic(String),
    /// Every rung of the degradation ladder was rejected.
    Unservable(String),
    /// The request was malformed at the protocol level.
    BadRequest(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::ShuttingDown => write!(f, "server is shutting down"),
            WireError::Saturated {
                queued_cost,
                cost,
                budget,
            } => write!(
                f,
                "saturated: queued cost {queued_cost} + request cost {cost} exceeds budget {budget}"
            ),
            WireError::DeadlineExpired { waited_us } => {
                write!(f, "deadline expired after waiting {waited_us}µs")
            }
            WireError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            WireError::Unservable(msg) => write!(f, "no ladder rung served: {msg}"),
            WireError::BadRequest(msg) => write!(f, "bad request: {msg}"),
        }
    }
}

/// Encodes and sends one [`NetRequest`].
pub fn send_request(
    stream: &mut NetStream,
    req: &NetRequest,
    timeout: Duration,
) -> Result<(), TransportError> {
    let frame = codec::encode_frame(FrameType::NetRequest, req);
    send_frame(stream, &frame, timeout)
}

/// Receives and decodes one [`NetRequest`] (`Ok(None)` = clean EOF).
pub fn recv_request(
    stream: &mut NetStream,
    cap: usize,
    timeout: Duration,
) -> Result<Option<NetRequest>, TransportError> {
    match recv_frame(stream, cap, timeout)? {
        None => Ok(None),
        Some(frame) => decode_net(FrameType::NetRequest, &frame).map(Some),
    }
}

/// Encodes and sends one [`NetResponse`].
pub fn send_response(
    stream: &mut NetStream,
    resp: &NetResponse,
    timeout: Duration,
) -> Result<(), TransportError> {
    let frame = codec::encode_frame(FrameType::NetResponse, resp);
    send_frame(stream, &frame, timeout)
}

/// Encodes a [`NetResponse::Plan`] frame around an artifact's cached
/// canonical bytes ([`codec::canonical_bytes`] of the [`PlanArtifact`]),
/// byte-identical to [`send_response`]'s encoding of the same response
/// but without re-encoding the artifact. The variant encodes as the map
/// `{"Plan": {"id", "memo_hit", "degraded", "artifact"}}`: the artifact is
/// the last value, so its bytes follow the encoded prefix directly.
pub fn encode_plan_frame(id: u64, memo_hit: bool, degraded: bool, artifact: &[u8]) -> Vec<u8> {
    let mut prefix = Vec::with_capacity(64);
    let out = &mut codec::Canonical(&mut prefix);
    out.map(1);
    out.key("Plan");
    out.map(4);
    out.key("id");
    id.serialize(out);
    out.key("memo_hit");
    memo_hit.serialize(out);
    out.key("degraded");
    degraded.serialize(out);
    out.key("artifact");
    codec::frame_payload(FrameType::NetResponse, &[&prefix, artifact])
}

/// Receives and decodes one [`NetResponse`] (`Ok(None)` = clean EOF).
pub fn recv_response(
    stream: &mut NetStream,
    cap: usize,
    timeout: Duration,
) -> Result<Option<NetResponse>, TransportError> {
    match recv_frame(stream, cap, timeout)? {
        None => Ok(None),
        Some(frame) => decode_net(FrameType::NetResponse, &frame).map(Some),
    }
}

/// The handshake `Hello` for this build.
pub fn hello() -> NetRequest {
    NetRequest::Hello {
        codec_version: SCHEMA_VERSION,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn addr_grammar_parses_both_families() {
        assert_eq!(
            NetAddr::parse("127.0.0.1:7901").unwrap(),
            NetAddr::Tcp("127.0.0.1:7901".to_string())
        );
        assert_eq!(
            NetAddr::parse("unix:/tmp/pdw.sock").unwrap(),
            NetAddr::Unix(PathBuf::from("/tmp/pdw.sock"))
        );
        assert!(NetAddr::parse("unix:").is_err());
        assert!(NetAddr::parse("no-port").is_err());
        assert_eq!(
            NetAddr::parse("unix:/tmp/a.sock").unwrap().to_string(),
            "unix:/tmp/a.sock"
        );
    }

    #[test]
    fn transport_error_retryability_is_principled() {
        assert!(TransportError::Timeout {
            during: "read",
            after: Duration::from_secs(1)
        }
        .retryable());
        assert!(TransportError::ConnectRefused {
            addr: "x".into(),
            detail: "y".into()
        }
        .retryable());
        assert!(
            TransportError::TornFrame(CodecError::Truncated { needed: 9, have: 1 }).retryable()
        );
        assert!(!TransportError::VersionSkew {
            found: 1,
            expected: 2
        }
        .retryable());
        assert!(!TransportError::ServerDraining.retryable());
        assert!(!TransportError::Protocol("x".into()).retryable());
    }

    #[test]
    fn net_messages_round_trip_through_their_frames() {
        let reqs = [
            hello(),
            NetRequest::Ping { nonce: 0xfeed },
            NetRequest::SolveKey {
                id: 3,
                budget_us: Some(0),
                instance_hash: 0xabcd,
                config_fp: 0x1234,
            },
            NetRequest::Drain,
        ];
        for req in &reqs {
            let frame = codec::encode_frame(FrameType::NetRequest, req);
            let back: NetRequest = codec::decode_frame(FrameType::NetRequest, &frame).unwrap();
            assert_eq!(
                codec::canonical_bytes(&back),
                codec::canonical_bytes(req),
                "request drifted"
            );
        }
        let resps = [
            NetResponse::HelloAck {
                codec_version: SCHEMA_VERSION,
                max_frame_len: codec::DEFAULT_MAX_FRAME_LEN as u64,
                heartbeat_ms: 1000,
                key_first: Some(true),
            },
            NetResponse::NeedInstance { id: 9 },
            NetResponse::Pong { nonce: 0xfeed },
            NetResponse::Error {
                id: 7,
                error: WireError::DeadlineExpired { waited_us: 1234 },
            },
            NetResponse::DrainAck { in_flight: 3 },
        ];
        for resp in &resps {
            let frame = codec::encode_frame(FrameType::NetResponse, resp);
            let back: NetResponse = codec::decode_frame(FrameType::NetResponse, &frame).unwrap();
            assert_eq!(
                codec::canonical_bytes(&back),
                codec::canonical_bytes(resp),
                "response drifted"
            );
        }
    }

    #[test]
    fn hello_ack_without_key_first_decodes_as_absent() {
        // A `HelloAck` as builds before the key-first exchange encode it.
        let old = Value::Object(vec![(
            "HelloAck".to_string(),
            Value::Object(vec![
                ("codec_version".to_string(), SCHEMA_VERSION.to_value()),
                ("max_frame_len".to_string(), 1024u64.to_value()),
                ("heartbeat_ms".to_string(), 1000u64.to_value()),
            ]),
        )]);
        let frame = codec::encode_frame(FrameType::NetResponse, &old);
        match codec::decode_frame(FrameType::NetResponse, &frame) {
            Ok(NetResponse::HelloAck { key_first, .. }) => assert_eq!(key_first, None),
            other => panic!("expected a HelloAck, got {other:?}"),
        }
    }

    #[test]
    fn wire_errors_display_their_facts() {
        let text = WireError::Saturated {
            queued_cost: 10,
            cost: 5,
            budget: 12,
        }
        .to_string();
        assert!(text.contains("10") && text.contains('5') && text.contains("12"));
        assert!(WireError::DeadlineExpired { waited_us: 42 }
            .to_string()
            .contains("42"));
    }
}
