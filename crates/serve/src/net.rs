//! The socket front end of the plan server: `pdw serve --listen`.
//!
//! [`SocketServer`] exposes a [`PlanServer`] over TCP or Unix-domain
//! sockets speaking the canonical codec's framed wire protocol
//! ([`NetRequest`]/[`NetResponse`], DESIGN.md §13); [`PlanClient`] is the
//! retrying client. The design goals, in order:
//!
//! - **every failure is typed** — transport faults surface as
//!   [`TransportError`], serve-side refusals as [`WireError`]; a network
//!   problem is never a panic and never a silently wrong plan;
//! - **retries are safe by construction** — only idempotent solves ride
//!   the wire (repairs stay in-process), and the server keys each solve by
//!   its memo key, so a retry can only hit the memo or re-lead the same
//!   single-flight solve;
//! - **deadlines propagate** — the client subtracts its observed transit
//!   estimate (half the handshake/heartbeat RTT) from the remaining budget
//!   before sending, and the server maps the received budget onto
//!   [`PlanServer::submit_with_budget`], so a deadline that expires in
//!   transit comes back as a typed [`WireError::DeadlineExpired`];
//! - **drain is graceful** — a [`NetRequest::Drain`] (or
//!   [`SocketServer::drain`]) stops the accept loop, finishes every
//!   in-flight solve, answers everything else [`WireError::ShuttingDown`],
//!   and releases the listener so the same address can be rebound;
//! - **plans are re-verified at the edge** — the server ships certified
//!   [`PlanArtifact`]s and the client re-runs the verification certificate
//!   against its own copy of the instance before accepting one;
//! - **a memo hit is a lookup plus a byte copy** — the client asks by
//!   memo key first ([`NetRequest::SolveKey`]) and sends the instance only
//!   when told to ([`NetResponse::NeedInstance`]); a memo entry is
//!   certified at most once and its artifact's canonical bytes are spliced
//!   into every later response ([`encode_plan_frame`]);
//! - **no thread per request** — each connection has one reader and one
//!   writer thread; an admitted solve's ticket hands its outcome to the
//!   writer through a completion callback.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pathdriver_wash::codec::{encode_frame, FrameType, DEFAULT_MAX_FRAME_LEN};
use pathdriver_wash::transport::{
    encode_plan_frame, hello, recv_response, send_frame, send_request, send_response, FrameReader,
};
use pathdriver_wash::{
    config_fingerprint, instance_hash, NetAddr, NetListener, NetRequest, NetResponse, NetStream,
    PdwConfig, PlanArtifact, SolveRequest, TransportError, WireError, SCHEMA_VERSION,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;

use crate::cache::ServedPlan;
use crate::server::{Instance, PlanServer, Rejected, Response, ServeError, ServeRequest};

/// Socket-side configuration of a [`SocketServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// The largest frame accepted or produced (guards allocation on both
    /// sides; advertised in the `HelloAck`).
    pub max_frame_len: usize,
    /// Granularity of the per-connection read poll (drain and idle checks
    /// happen between polls).
    pub read_tick: Duration,
    /// Deadline for writing one response frame.
    pub write_timeout: Duration,
    /// How long a fresh connection gets to send its `Hello`.
    pub handshake_timeout: Duration,
    /// Connections with no traffic and no in-flight work for this long
    /// are evicted.
    pub idle_timeout: Duration,
    /// Heartbeat cadence advertised to clients (the idle timeout should
    /// be several multiples of this).
    pub heartbeat_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            read_tick: Duration::from_millis(50),
            write_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(2),
            idle_timeout: Duration::from_secs(30),
            heartbeat_ms: 1000,
        }
    }
}

/// A point-in-time snapshot of the socket layer's counters (the plan
/// server underneath keeps its own [`crate::ServeStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize)]
pub struct NetServeStats {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections currently open.
    pub active: u64,
    /// Connections dropped during the handshake (no/invalid `Hello`,
    /// version skew, torn frame).
    pub handshake_failures: u64,
    /// Heartbeat pings answered.
    pub pings: u64,
    /// Solves answered with a plan or admitted to the plan server: full
    /// `Solve`s admitted plus key-path hits.
    pub solves: u64,
    /// `SolveKey`s answered straight from the memo (no instance sent, no
    /// worker time, no certification).
    pub key_hits: u64,
    /// `SolveKey`s answered `NeedInstance` (no certified plan under the
    /// key yet); the client follows up with the full `Solve`.
    pub need_instance: u64,
    /// Protocol-level refusals answered ([`WireError::BadRequest`]).
    pub bad_requests: u64,
    /// Connections evicted for idling past the timeout.
    pub idle_evicted: u64,
    /// Solves refused because the server was draining.
    pub drain_refused: u64,
}

#[derive(Default)]
struct NetCounters {
    accepted: AtomicU64,
    active: AtomicU64,
    handshake_failures: AtomicU64,
    pings: AtomicU64,
    solves: AtomicU64,
    key_hits: AtomicU64,
    need_instance: AtomicU64,
    bad_requests: AtomicU64,
    idle_evicted: AtomicU64,
    drain_refused: AtomicU64,
}

struct NetShared {
    plan: Arc<PlanServer>,
    cfg: NetConfig,
    config_fp: u64,
    draining: AtomicBool,
    in_flight: AtomicUsize,
    next_conn_id: AtomicU64,
    conns: Mutex<HashMap<u64, NetStream>>,
    conn_threads: Mutex<Vec<JoinHandle<()>>>,
    counters: NetCounters,
}

impl NetShared {
    fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }
}

/// The socket front end: an accept loop plus, per connection, one reader
/// thread and one writer thread, all feeding the shared [`PlanServer`].
/// The reader answers pings and key-path memo hits itself and admits full
/// solves to the plan server's worker pool; a solve's ticket completion
/// callback only queues the outcome for the connection's writer, so no
/// thread is parked per request, a slow client never blocks a serve
/// worker, and heartbeats and pipelined requests keep flowing while a
/// solve is in progress.
pub struct SocketServer {
    shared: Arc<NetShared>,
    local: NetAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    stopped: AtomicBool,
}

impl SocketServer {
    /// Binds `listener`'s address and starts serving `plan` on it.
    pub fn start(plan: Arc<PlanServer>, listener: NetListener, cfg: NetConfig) -> Self {
        let local = listener.local_addr();
        let config_fp = plan.config_fingerprint();
        let shared = Arc::new(NetShared {
            plan,
            cfg,
            config_fp,
            draining: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            next_conn_id: AtomicU64::new(0),
            conns: Mutex::new(HashMap::new()),
            conn_threads: Mutex::new(Vec::new()),
            counters: NetCounters::default(),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("pdw-net-accept".to_string())
            .spawn(move || accept_loop(&accept_shared, listener))
            .expect("spawn accept thread");
        SocketServer {
            shared,
            local,
            accept_thread: Mutex::new(Some(accept_thread)),
            stopped: AtomicBool::new(false),
        }
    }

    /// The concrete bound address (the real port when TCP bound port 0).
    pub fn local_addr(&self) -> NetAddr {
        self.local.clone()
    }

    /// `true` once a drain has begun (locally or via a wire `Drain`).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Requests admitted over sockets and not yet answered.
    pub fn in_flight(&self) -> usize {
        self.shared.in_flight.load(Ordering::SeqCst)
    }

    /// Connection-thread handles currently held (live connections plus
    /// any finished ones not yet reaped — the accept loop joins finished
    /// handles opportunistically, so this stays bounded by the number of
    /// concurrently live connections, not by connections ever accepted).
    pub fn conn_thread_backlog(&self) -> usize {
        self.shared.conn_threads.lock().unwrap().len()
    }

    /// A snapshot of the socket layer's counters.
    pub fn stats(&self) -> NetServeStats {
        let c = &self.shared.counters;
        NetServeStats {
            accepted: c.accepted.load(Ordering::Relaxed),
            active: c.active.load(Ordering::Relaxed),
            handshake_failures: c.handshake_failures.load(Ordering::Relaxed),
            pings: c.pings.load(Ordering::Relaxed),
            solves: c.solves.load(Ordering::Relaxed),
            key_hits: c.key_hits.load(Ordering::Relaxed),
            need_instance: c.need_instance.load(Ordering::Relaxed),
            bad_requests: c.bad_requests.load(Ordering::Relaxed),
            idle_evicted: c.idle_evicted.load(Ordering::Relaxed),
            drain_refused: c.drain_refused.load(Ordering::Relaxed),
        }
    }

    /// Graceful drain: stop accepting, finish every in-flight request
    /// (new solves are answered [`WireError::ShuttingDown`]), then close
    /// every connection, join every thread, and release the listener so
    /// the address can be rebound. Blocks until complete. Idempotent.
    ///
    /// The [`PlanServer`] underneath is *not* shut down — it may have
    /// other (in-process) users; the owner shuts it down separately.
    pub fn drain(&self) {
        self.shared.begin_drain();
        while self.shared.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.stop_threads();
    }

    /// Abrupt stop: begin draining and close every connection *now*,
    /// without waiting for in-flight requests' responses to be written
    /// (the plan server still completes them internally). Idempotent.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
        self.stop_threads();
    }

    fn stop_threads(&self) {
        if self.stopped.swap(true, Ordering::SeqCst) {
            return;
        }
        for (_, conn) in self.shared.conns.lock().unwrap().drain() {
            conn.shutdown();
        }
        if let Some(h) = self.accept_thread.lock().unwrap().take() {
            let _ = h.join();
        }
        let threads: Vec<_> = self.shared.conn_threads.lock().unwrap().drain(..).collect();
        for h in threads {
            let _ = h.join();
        }
    }
}

impl Drop for SocketServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Joins every finished connection-thread handle, keeping only live
/// ones: a long-running server must not accumulate one handle per
/// connection it ever accepted.
fn reap_finished(threads: &mut Vec<JoinHandle<()>>) {
    let mut i = 0;
    while i < threads.len() {
        if threads[i].is_finished() {
            let _ = threads.swap_remove(i).join();
        } else {
            i += 1;
        }
    }
}

fn accept_loop(shared: &Arc<NetShared>, listener: NetListener) {
    let _ = listener.set_nonblocking(true);
    loop {
        if shared.draining.load(Ordering::SeqCst) {
            // Dropping the listener here unlinks a Unix socket path, so a
            // post-drain rebind of the same address succeeds.
            return;
        }
        reap_finished(&mut shared.conn_threads.lock().unwrap());
        match listener.accept() {
            Ok(stream) => {
                shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
                shared.counters.active.fetch_add(1, Ordering::Relaxed);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(clone) = stream.try_clone() {
                    shared.conns.lock().unwrap().insert(conn_id, clone);
                }
                let conn_shared = Arc::clone(shared);
                let handle = std::thread::Builder::new()
                    .name(format!("pdw-net-conn-{conn_id}"))
                    .spawn(move || {
                        conn_loop(&conn_shared, conn_id, stream);
                        conn_shared.conns.lock().unwrap().remove(&conn_id);
                        conn_shared.counters.active.fetch_sub(1, Ordering::Relaxed);
                    })
                    .expect("spawn connection thread");
                shared.conn_threads.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The per-connection state the reader and the writer thread share.
struct Conn {
    /// Solves answered on this connection whose responses are not yet
    /// written.
    in_flight: AtomicUsize,
    /// When the connection last showed life: a request arrived, frame
    /// bytes trickled in, or a response went out. Refreshed on writes so
    /// a connection whose solve outlived the idle timeout gets a full idle
    /// window to send its next request, not an instant eviction.
    last_activity: Mutex<Instant>,
}

impl Conn {
    fn touch(&self) {
        *self.last_activity.lock().unwrap() = Instant::now();
    }
}

/// One response for a connection's writer thread, in the order the
/// connection must send them.
enum Outgoing {
    /// A small response, encoded by the writer.
    Reply(NetResponse),
    /// A key-path memo hit: the entry is already certified, so the
    /// response splices its cached artifact bytes.
    KeyHit { id: u64, plan: Arc<ServedPlan> },
    /// An admitted solve's outcome, sent by its ticket's completion
    /// callback.
    Solved {
        id: u64,
        instance: Arc<Instance>,
        response: Response,
    },
}

/// Writes one connection's responses until every sender is gone: the
/// reader's, and those held by pending tickets' callbacks. After a failed
/// write it shuts the stream (so the reader stops) and keeps draining the
/// channel without writing, so in-flight accounting stays exact.
fn write_loop(shared: &NetShared, conn: &Conn, mut stream: NetStream, rx: Receiver<Outgoing>) {
    let mut broken = false;
    for out in rx {
        let answers_solve = !matches!(out, Outgoing::Reply(_));
        if !broken {
            let frame = match out {
                Outgoing::Reply(resp) => encode_frame(FrameType::NetResponse, &resp),
                Outgoing::KeyHit { id, plan } => {
                    let cert = plan.certified().expect("key-path hits are certified");
                    encode_plan_frame(id, true, false, cert.bytes())
                }
                Outgoing::Solved {
                    id,
                    instance,
                    response: Ok(served),
                } => {
                    let cert = shared.plan.certify(&instance, &served.plan);
                    encode_plan_frame(id, served.memo_hit, served.degraded, cert.bytes())
                }
                Outgoing::Solved {
                    id,
                    response: Err(e),
                    ..
                } => encode_frame(
                    FrameType::NetResponse,
                    &NetResponse::Error {
                        id,
                        error: wire_error(e),
                    },
                ),
            };
            if send_frame(&mut stream, &frame, shared.cfg.write_timeout).is_err() {
                broken = true;
                stream.shutdown();
            }
            // The idle clock restarts when an answer goes out.
            conn.touch();
        }
        if answers_solve {
            conn.in_flight.fetch_sub(1, Ordering::SeqCst);
            shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Answers one connection until EOF, a protocol fault, idle eviction, or
/// shutdown. The first frame must be a `Hello`; after the handshake one
/// writer thread sends every response, fed by a channel.
fn conn_loop(shared: &Arc<NetShared>, conn_id: u64, mut stream: NetStream) {
    let cfg = &shared.cfg;
    // One resumable frame reader for the connection's whole life:
    // partially received bytes survive read ticks, so a frame trickling
    // in across many ticks is assembled, never torn.
    let mut reader = FrameReader::new(cfg.max_frame_len);
    // Handshake: require Hello, answer HelloAck with this build's
    // parameters. A peer speaking a different codec version fails frame
    // decode right here — typed, before any work is admitted.
    let refusal = match reader.poll_request(&mut stream, cfg.handshake_timeout) {
        Ok(Some(NetRequest::Hello { codec_version })) if codec_version == SCHEMA_VERSION => {
            let ack = NetResponse::HelloAck {
                codec_version: SCHEMA_VERSION,
                max_frame_len: cfg.max_frame_len as u64,
                heartbeat_ms: cfg.heartbeat_ms,
                key_first: Some(true),
            };
            if send_response(&mut stream, &ack, cfg.write_timeout).is_ok() {
                None
            } else {
                Some(None)
            }
        }
        Ok(Some(NetRequest::Hello { codec_version })) => Some(Some(format!(
            "codec version mismatch: client v{codec_version}, server v{SCHEMA_VERSION}"
        ))),
        Ok(Some(_)) => Some(Some("first frame must be Hello".to_string())),
        // Envelope-level skew: answer typed before closing. The skewed
        // peer's decode of this frame fails as its own (non-retryable)
        // `VersionSkew`, so it fails fast instead of burning its whole
        // retry budget on "server closed during handshake".
        Err(TransportError::VersionSkew { found, expected }) => Some(Some(format!(
            "codec version skew: client frame v{found}, server v{expected}"
        ))),
        Ok(None) | Err(_) => Some(None),
    };
    if let Some(reply) = refusal {
        // Counted before the refusal goes out, so a peer that reads the
        // refusal also sees the failure in the stats.
        shared
            .counters
            .handshake_failures
            .fetch_add(1, Ordering::Relaxed);
        if let Some(msg) = reply {
            let refusal = NetResponse::Error {
                id: 0,
                error: WireError::BadRequest(msg),
            };
            let _ = send_response(&mut stream, &refusal, cfg.write_timeout);
        }
        return;
    }

    let conn = Arc::new(Conn {
        in_flight: AtomicUsize::new(0),
        last_activity: Mutex::new(Instant::now()),
    });
    let (tx, rx) = mpsc::channel();
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let writer = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(&conn);
        std::thread::Builder::new()
            .name(format!("pdw-net-write-{conn_id}"))
            .spawn(move || write_loop(&shared, &conn, writer, rx))
            .expect("spawn connection writer")
    };
    let reply = |resp: NetResponse| {
        let _ = tx.send(Outgoing::Reply(resp));
    };
    let bad_request = |id: u64, msg: String| {
        reply(NetResponse::Error {
            id,
            error: WireError::BadRequest(msg),
        })
    };
    loop {
        let buffered_before = reader.buffered();
        match reader.poll_request(&mut stream, cfg.read_tick) {
            Err(TransportError::Timeout { .. }) => {
                // A tick that delivered part of a frame is a slow peer
                // still talking, not an idle one.
                if reader.buffered() > buffered_before {
                    conn.touch();
                }
                // Quiet tick: check idle eviction (never while work is in
                // flight — a client silently awaiting a long solve is not
                // idle) and drain progress.
                if conn.in_flight.load(Ordering::SeqCst) == 0
                    && conn.last_activity.lock().unwrap().elapsed() > cfg.idle_timeout
                {
                    shared.counters.idle_evicted.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
            Ok(None) => break,
            Err(TransportError::VersionSkew { found, expected }) => {
                bad_request(
                    0,
                    format!("codec version skew: frame v{found}, server v{expected}"),
                );
                break;
            }
            Err(TransportError::TornFrame(e)) => {
                bad_request(0, format!("torn frame: {e}"));
                break;
            }
            Err(_) => break,
            Ok(Some(req)) => {
                conn.touch();
                match req {
                    NetRequest::Hello { .. } => {
                        shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
                        bad_request(0, "duplicate Hello".to_string());
                    }
                    NetRequest::Ping { nonce } => {
                        shared.counters.pings.fetch_add(1, Ordering::Relaxed);
                        reply(NetResponse::Pong { nonce });
                    }
                    NetRequest::Drain => {
                        shared.begin_drain();
                        reply(NetResponse::DrainAck {
                            in_flight: shared.in_flight.load(Ordering::SeqCst) as u64,
                        });
                    }
                    NetRequest::SolveKey {
                        id,
                        budget_us,
                        instance_hash,
                        config_fp,
                    } => match solve_key(shared, id, budget_us, instance_hash, config_fp) {
                        Ok(plan) => {
                            begin_answer(shared, &conn);
                            let _ = tx.send(Outgoing::KeyHit { id, plan });
                        }
                        Err(resp) => reply(resp),
                    },
                    NetRequest::Solve {
                        id,
                        budget_us,
                        solve,
                    } => {
                        if let Err(resp) = handle_solve(shared, &conn, &tx, id, budget_us, *solve) {
                            reply(resp);
                        }
                    }
                }
            }
        }
    }
    // The writer exits once this sender and every pending ticket's
    // callback are gone: in-flight solves still get their answers.
    drop(tx);
    let _ = writer.join();
    stream.shutdown();
}

/// Counts one solve answer queued for a connection's writer.
fn begin_answer(shared: &NetShared, conn: &Conn) {
    shared.counters.solves.fetch_add(1, Ordering::Relaxed);
    shared.in_flight.fetch_add(1, Ordering::SeqCst);
    conn.in_flight.fetch_add(1, Ordering::SeqCst);
}

/// The checks every solve passes before any lookup: the server is not
/// draining, and the request's planner config is the server's. The memo
/// key is (instance_hash, server config fingerprint): serving a request
/// that asked for a *different* planner config would be a silently wrong
/// plan, so a mismatch is a typed refusal instead.
fn admit(shared: &NetShared, id: u64, config_fp: u64) -> Result<(), NetResponse> {
    let refuse = |error| Err(NetResponse::Error { id, error });
    if shared.draining.load(Ordering::SeqCst) {
        shared
            .counters
            .drain_refused
            .fetch_add(1, Ordering::Relaxed);
        return refuse(WireError::ShuttingDown);
    }
    if config_fp != shared.config_fp {
        shared.counters.bad_requests.fetch_add(1, Ordering::Relaxed);
        return refuse(WireError::BadRequest(format!(
            "planner config fingerprint {config_fp:#x} does not match the server's {:#x}",
            shared.config_fp
        )));
    }
    Ok(())
}

/// Answers a `SolveKey` on the connection thread: a certified memo hit,
/// or the reply to send instead (`NeedInstance`, or a typed refusal). No
/// worker time is spent, so key-path hits are never shed; a budget that
/// expired in transit is refused before the lookup.
fn solve_key(
    shared: &NetShared,
    id: u64,
    budget_us: Option<u64>,
    instance_hash: u64,
    config_fp: u64,
) -> Result<Arc<ServedPlan>, NetResponse> {
    admit(shared, id, config_fp)?;
    if budget_us == Some(0) {
        return Err(NetResponse::Error {
            id,
            error: WireError::DeadlineExpired { waited_us: 0 },
        });
    }
    match shared.plan.certified_hit(instance_hash) {
        Some(plan) => {
            shared.counters.key_hits.fetch_add(1, Ordering::Relaxed);
            Ok(plan)
        }
        None => {
            shared
                .counters
                .need_instance
                .fetch_add(1, Ordering::Relaxed);
            Err(NetResponse::NeedInstance { id })
        }
    }
}

/// Admits one full solve to the plan server; its ticket's completion
/// callback hands the outcome to the connection's writer. A refusal is
/// returned for the caller to answer inline.
fn handle_solve(
    shared: &NetShared,
    conn: &Conn,
    tx: &Sender<Outgoing>,
    id: u64,
    budget_us: Option<u64>,
    solve: SolveRequest,
) -> Result<(), NetResponse> {
    admit(shared, id, config_fingerprint(&solve.config))?;
    let instance = Arc::new(Instance::new(solve.bench, solve.synthesis));
    let budget = budget_us.map(Duration::from_micros);
    let submitted = shared.plan.submit_with_budget(
        ServeRequest::Solve {
            instance: Arc::clone(&instance),
        },
        budget,
    );
    let error = match submitted {
        Ok(ticket) => {
            begin_answer(shared, conn);
            let tx = tx.clone();
            ticket.on_complete(move |response| {
                let _ = tx.send(Outgoing::Solved {
                    id,
                    instance,
                    response,
                });
            });
            return Ok(());
        }
        Err(Rejected::ShuttingDown) => {
            shared
                .counters
                .drain_refused
                .fetch_add(1, Ordering::Relaxed);
            WireError::ShuttingDown
        }
        Err(Rejected::Saturated {
            queued_cost,
            cost,
            budget,
        }) => WireError::Saturated {
            queued_cost,
            cost,
            budget,
        },
    };
    Err(NetResponse::Error { id, error })
}

/// Maps an admitted request's serve-side failure onto the wire.
fn wire_error(e: ServeError) -> WireError {
    match e {
        ServeError::DeadlineExpired { waited } => WireError::DeadlineExpired {
            waited_us: waited.as_micros() as u64,
        },
        ServeError::WorkerPanic(msg) => WireError::WorkerPanic(msg),
        ServeError::Unservable(msg) => WireError::Unservable(msg),
        // Repairs never ride the wire; a session refusal here would mean a
        // protocol bug, and BadRequest is its honest spelling.
        ServeError::RejectedDelta(msg) => WireError::BadRequest(msg),
    }
}

// ---------------------------------------------------------------------------
// PlanClient
// ---------------------------------------------------------------------------

/// Client-side configuration of a [`PlanClient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for dialing the server, and for each exchange the server
    /// answers without solving: the handshake, a ping, a key lookup.
    pub connect_timeout: Duration,
    /// Deadline for one response read (covers the whole solve).
    pub request_timeout: Duration,
    /// Deadline for writing one request frame.
    pub write_timeout: Duration,
    /// Bounded retry budget for retryable transport faults (0 = one
    /// attempt, no retries).
    pub retries: u32,
    /// First retry backoff; doubles per consecutive retry.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Seed of the deterministic retry jitter (vary per client to
    /// de-synchronize a fleet without losing reproducibility).
    pub jitter_seed: u64,
    /// The largest frame accepted.
    pub max_frame_len: usize,
    /// Re-verify each served artifact's certificate against the local
    /// copy of the instance before accepting it.
    pub verify: bool,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(120),
            write_timeout: Duration::from_secs(10),
            retries: 3,
            backoff_base: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            jitter_seed: 0x5eed_cafe,
            max_frame_len: DEFAULT_MAX_FRAME_LEN,
            verify: true,
        }
    }
}

/// A typed client-side failure: either the transport broke (possibly
/// after exhausting retries) or the server answered with a typed refusal.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The transport failed.
    Transport(TransportError),
    /// The server refused or failed the request, typed.
    Serve(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Serve(e) => write!(f, "serve: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A successfully served remote plan.
#[derive(Debug, Clone)]
pub struct RemotePlan {
    /// The certified artifact (verified locally when
    /// [`ClientConfig::verify`] is on).
    pub artifact: PlanArtifact,
    /// `true` when the server served it from its memo cache.
    pub memo_hit: bool,
    /// `true` when the plan was deadline-degraded.
    pub degraded: bool,
    /// The retryable transport faults this request retried through, in
    /// order (empty when the first attempt succeeded).
    pub retried: Vec<TransportError>,
}

/// A retrying plan client. One connection, lazily dialed and re-dialed:
/// a retryable transport fault drops the connection, backs off
/// (exponential with deterministic seeded jitter), reconnects, and
/// re-sends — safe because solves are idempotent under their memo key.
pub struct PlanClient {
    addr: NetAddr,
    cfg: ClientConfig,
    conn: Option<NetStream>,
    rtt: Option<Duration>,
    next_id: u64,
    rng: u64,
    retries_total: u64,
}

impl PlanClient {
    /// A client for `addr` (no connection is made until the first call).
    pub fn new(addr: NetAddr, cfg: ClientConfig) -> Self {
        PlanClient {
            addr,
            cfg,
            conn: None,
            rtt: None,
            next_id: 1,
            rng: cfg.jitter_seed | 1,
            retries_total: 0,
        }
    }

    /// The last observed round-trip estimate (handshake or ping).
    pub fn rtt(&self) -> Option<Duration> {
        self.rtt
    }

    /// Total transport retries burned over this client's lifetime.
    pub fn retries_total(&self) -> u64 {
        self.retries_total
    }

    /// Drops the connection; the next call re-dials.
    pub fn disconnect(&mut self) {
        if let Some(conn) = self.conn.take() {
            conn.shutdown();
        }
    }

    fn xorshift(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Backoff for the `attempt`-th retry (0-based): exponential from
    /// `backoff_base`, capped, times a deterministic jitter in [1, 1.5).
    fn backoff(&mut self, attempt: u32) -> Duration {
        let base = self
            .cfg
            .backoff_base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.cfg.backoff_max);
        base + Duration::from_nanos(
            (base.as_nanos() as u64 / 2).wrapping_mul(self.xorshift() % 1024) / 1024,
        )
    }

    /// Dials and handshakes, measuring the round trip as the RTT estimate.
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut stream = self.addr.connect(self.cfg.connect_timeout)?;
        let t = Instant::now();
        send_request(&mut stream, &hello(), self.cfg.write_timeout)?;
        match recv_response(
            &mut stream,
            self.cfg.max_frame_len,
            self.cfg.connect_timeout,
        )? {
            Some(NetResponse::HelloAck { codec_version, .. }) => {
                if codec_version != SCHEMA_VERSION {
                    return Err(TransportError::VersionSkew {
                        found: codec_version,
                        expected: SCHEMA_VERSION,
                    });
                }
                self.rtt = Some(t.elapsed());
                self.conn = Some(stream);
                Ok(())
            }
            Some(NetResponse::Error { error, .. }) => Err(TransportError::Protocol(format!(
                "handshake refused: {error}"
            ))),
            Some(_) => Err(TransportError::Protocol("expected HelloAck".to_string())),
            None => Err(TransportError::Io(
                "server closed during handshake".to_string(),
            )),
        }
    }

    /// One heartbeat round trip; refreshes the RTT estimate.
    pub fn ping(&mut self) -> Result<Duration, TransportError> {
        self.ensure_connected()?;
        let nonce = self.xorshift();
        let conn = self.conn.as_mut().expect("connected above");
        let t = Instant::now();
        let sent = send_request(conn, &NetRequest::Ping { nonce }, self.cfg.write_timeout);
        if let Err(e) = sent {
            self.disconnect();
            return Err(e);
        }
        match recv_response(conn, self.cfg.max_frame_len, self.cfg.connect_timeout) {
            Ok(Some(NetResponse::Pong { nonce: echoed })) if echoed == nonce => {
                let rtt = t.elapsed();
                self.rtt = Some(rtt);
                Ok(rtt)
            }
            Ok(_) => {
                self.disconnect();
                Err(TransportError::Protocol(
                    "expected matching Pong".to_string(),
                ))
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Asks the server to begin a graceful drain; returns how many
    /// requests were still in flight.
    pub fn drain(&mut self) -> Result<u64, TransportError> {
        self.ensure_connected()?;
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = send_request(conn, &NetRequest::Drain, self.cfg.write_timeout) {
            self.disconnect();
            return Err(e);
        }
        match recv_response(conn, self.cfg.max_frame_len, self.cfg.request_timeout) {
            Ok(Some(NetResponse::DrainAck { in_flight })) => Ok(in_flight),
            Ok(_) => {
                self.disconnect();
                Err(TransportError::Protocol("expected DrainAck".to_string()))
            }
            Err(e) => {
                self.disconnect();
                Err(e)
            }
        }
    }

    /// Solves an instance remotely under an optional deadline budget,
    /// with bounded retries on retryable transport faults.
    ///
    /// The exchange is key-first: a `SolveKey` carrying the instance hash
    /// (computed once per call) and the config fingerprint, answered with
    /// the server's certified plan on a memo hit; otherwise the server
    /// answers `NeedInstance` and the full `Solve` follows. Either way a
    /// served artifact is verified against this instance before it is
    /// accepted ([`ClientConfig::verify`]).
    ///
    /// Deadline propagation: the client subtracts half its observed RTT
    /// (the forward-transit estimate) from the budget before sending, so
    /// the server sees the time that is genuinely left. A budget smaller
    /// than the transit time is sent as zero and comes back as a typed
    /// [`WireError::DeadlineExpired`] — expired in transit, not wasted on
    /// a solve nobody can use.
    ///
    /// The budget is a *per-call* deadline, not a per-attempt one: each
    /// retry's budget is the time genuinely left after the attempts and
    /// backoff sleeps already spent, backoff sleeps never run past the
    /// deadline, and a deadline that expires between attempts fails
    /// locally with a typed [`WireError::DeadlineExpired`] instead of
    /// burning the rest of the retry budget.
    pub fn solve(
        &mut self,
        bench: &Benchmark,
        synthesis: &Synthesis,
        config: &PdwConfig,
        budget: Option<Duration>,
    ) -> Result<RemotePlan, ClientError> {
        let start = Instant::now();
        let deadline = budget.map(|b| start + b);
        let hash = instance_hash(bench, synthesis);
        let mut retried = Vec::new();
        loop {
            if deadline.is_some_and(|d| d <= Instant::now()) {
                return Err(ClientError::Serve(WireError::DeadlineExpired {
                    waited_us: start.elapsed().as_micros() as u64,
                }));
            }
            match self.solve_once(hash, bench, synthesis, config, deadline) {
                Ok(mut plan) => {
                    plan.retried = retried;
                    return Ok(plan);
                }
                Err(ClientError::Transport(e))
                    if e.retryable() && retried.len() < self.cfg.retries as usize =>
                {
                    self.disconnect();
                    self.retries_total += 1;
                    let mut pause = self.backoff(retried.len() as u32);
                    if let Some(d) = deadline {
                        pause = pause.min(d.saturating_duration_since(Instant::now()));
                    }
                    std::thread::sleep(pause);
                    retried.push(e);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt: the key-first exchange, then (on `NeedInstance`) the
    /// full `Solve`. Every server that passes the handshake's version check
    /// answers `SolveKey`.
    fn solve_once(
        &mut self,
        hash: u64,
        bench: &Benchmark,
        synthesis: &Synthesis,
        config: &PdwConfig,
        deadline: Option<Instant>,
    ) -> Result<RemotePlan, ClientError> {
        self.ensure_connected().map_err(ClientError::Transport)?;
        let (budget_us, read_timeout) = self.request_budget(deadline, self.cfg.connect_timeout);
        let id = self.take_id();
        let req = NetRequest::SolveKey {
            id,
            budget_us,
            instance_hash: hash,
            config_fp: config_fingerprint(config),
        };
        if let Some(served) = self.exchange(&req, id, read_timeout)? {
            return self.accept(served, hash, bench, synthesis);
        }
        let (budget_us, read_timeout) = self.request_budget(deadline, self.cfg.request_timeout);
        let id = self.take_id();
        let req = NetRequest::Solve {
            id,
            budget_us,
            solve: Box::new(SolveRequest {
                bench: bench.clone(),
                synthesis: synthesis.clone(),
                config: config.clone(),
            }),
        };
        match self.exchange(&req, id, read_timeout)? {
            Some(served) => self.accept(served, hash, bench, synthesis),
            None => {
                self.disconnect();
                Err(ClientError::Transport(TransportError::Protocol(
                    "NeedInstance in answer to a full Solve".to_string(),
                )))
            }
        }
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// The budget to send with a request sent now, and how long to wait
    /// for its answer: at most `cap`, and — under a deadline — no longer
    /// than the budget plus the return transit and a small grace for the
    /// server's typed expiry to arrive, so a dead transport cannot hold
    /// the caller past its deadline.
    fn request_budget(&self, deadline: Option<Instant>, cap: Duration) -> (Option<u64>, Duration) {
        let transit = self.rtt.unwrap_or_default() / 2;
        match deadline {
            None => (None, cap),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                (
                    Some(left.saturating_sub(transit).as_micros() as u64),
                    cap.min(left + transit + Duration::from_millis(100)),
                )
            }
        }
    }

    /// Sends `req` and reads its answer: `Some` plan, or `None` for
    /// `NeedInstance`. Every other outcome is a typed error; transport
    /// faults and protocol violations drop the connection.
    fn exchange(
        &mut self,
        req: &NetRequest,
        id: u64,
        read_timeout: Duration,
    ) -> Result<Option<ServedResponse>, ClientError> {
        let conn = self.conn.as_mut().expect("connected above");
        if let Err(e) = send_request(conn, req, self.cfg.write_timeout) {
            self.disconnect();
            return Err(ClientError::Transport(e));
        }
        let outcome = loop {
            match recv_response(conn, self.cfg.max_frame_len, read_timeout) {
                // A stale Pong from an earlier ping is not this answer.
                Ok(Some(NetResponse::Pong { .. })) => continue,
                Ok(Some(NetResponse::Plan {
                    id: rid,
                    memo_hit,
                    degraded,
                    artifact,
                })) if rid == id => {
                    return Ok(Some(ServedResponse {
                        memo_hit,
                        degraded,
                        artifact,
                    }))
                }
                Ok(Some(NetResponse::NeedInstance { id: rid })) if rid == id => return Ok(None),
                Ok(Some(NetResponse::Error { id: rid, error })) if rid == id || rid == 0 => {
                    // A draining server is typed at the transport level so
                    // the retry loop knows to stop.
                    if error != WireError::ShuttingDown {
                        return Err(ClientError::Serve(error));
                    }
                    break TransportError::ServerDraining;
                }
                Ok(Some(_)) => {
                    break TransportError::Protocol(
                        "response for a different request id".to_string(),
                    )
                }
                Ok(None) => break TransportError::Io("server closed mid-request".to_string()),
                Err(e) => break e,
            }
        };
        self.disconnect();
        Err(ClientError::Transport(outcome))
    }

    /// Accepts a served plan after verifying its certificate against this
    /// instance (when [`ClientConfig::verify`] is on).
    fn accept(
        &mut self,
        served: ServedResponse,
        hash: u64,
        bench: &Benchmark,
        synthesis: &Synthesis,
    ) -> Result<RemotePlan, ClientError> {
        if self.cfg.verify {
            if let Err(msg) = served.artifact.verify_hashed(hash, bench, synthesis) {
                self.disconnect();
                return Err(ClientError::Transport(TransportError::Protocol(format!(
                    "served artifact failed its certificate: {msg}"
                ))));
            }
        }
        Ok(RemotePlan {
            artifact: *served.artifact,
            memo_hit: served.memo_hit,
            degraded: served.degraded,
            retried: Vec::new(),
        })
    }
}

/// A `Plan` answer as received, before verification.
struct ServedResponse {
    memo_hit: bool,
    degraded: bool,
    artifact: Box<PlanArtifact>,
}
