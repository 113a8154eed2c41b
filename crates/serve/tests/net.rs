//! Integration tests of the socket transport: TCP and Unix round trips
//! bit-identical to in-process solves, typed version skew and frame-cap
//! refusals, deadline expiry in transit, graceful drain under load with
//! post-drain address reuse, the key-first exchange (certify once, spliced
//! responses, mixed clients, lying keys), and the chaos-proxy sweep —
//! every fault mode must end in a typed outcome, never a panic, a hang,
//! or a wrong plan.

use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathdriver_wash::codec::{
    canonical_bytes, decode_frame, encode_frame, frame_payload, read_frame, write_frame, FrameType,
};
use pathdriver_wash::transport::{encode_plan_frame, hello, recv_response, send_request};
use pathdriver_wash::{
    config_fingerprint, instance_hash, plan_resilient, CodecError, NetAddr, NetListener,
    NetRequest, NetResponse, PlanArtifact, TransportError, WireError, SCHEMA_VERSION,
};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_serve::{
    ChaosMode, ChaosProxy, ChaosSpec, ClientConfig, ClientError, Instance, NetConfig, PlanClient,
    PlanServer, ServeConfig, ServeRequest, SocketServer,
};
use pdw_synth::{synthesize, Synthesis};
use serde::{Serialize, Value};

/// A pool of `n` instances on distinct chips (pristine demo + faulted
/// variants), as plain pairs for the wire.
fn wire_pool(n: usize) -> Vec<(Benchmark, Synthesis)> {
    let bench = benchmarks::demo();
    let base = synthesize(&bench).unwrap();
    let mut pool = vec![(bench.clone(), base.clone())];
    let mut seed = 0u64;
    while pool.len() < n {
        seed += 1;
        // Some seeds fault nothing; only chips distinct from every pool
        // member count (distinct chip ⇒ distinct memo key).
        let variant = pdw_gen::inject_faults(&base, seed);
        let hash = |s: &Synthesis| pdw_serve::Instance::new(bench.clone(), s.clone()).chip_hash();
        if pool.iter().all(|(_, s)| hash(s) != hash(&variant)) {
            pool.push((bench.clone(), variant));
        }
    }
    pool
}

/// The planner config every networked client must send: the listening
/// server's own ([`ServeConfig::default`]'s) — anything else is refused.
fn wire_config() -> pathdriver_wash::PdwConfig {
    ServeConfig::default().planner
}

fn start_server(listener: NetListener, net: NetConfig) -> (Arc<PlanServer>, SocketServer) {
    let plan = Arc::new(PlanServer::start(ServeConfig::default()));
    let sock = SocketServer::start(Arc::clone(&plan), listener, net);
    (plan, sock)
}

fn tcp_server() -> (Arc<PlanServer>, SocketServer) {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    start_server(listener, NetConfig::default())
}

/// A fast-failing client config for fault tests: short timeouts, short
/// backoff, so a chaos sweep finishes in seconds instead of minutes. The
/// request timeout still leaves a cold solve of a `wire_pool` instance
/// (well under a second, even unoptimized) ample room; it bounds how long
/// a black-holed `Solve` answer stalls the sweep.
fn fast_client() -> ClientConfig {
    ClientConfig {
        connect_timeout: Duration::from_millis(500),
        request_timeout: Duration::from_secs(5),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        ..ClientConfig::default()
    }
}

#[test]
fn tcp_and_unix_roundtrips_are_bit_identical_to_in_process() {
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let reference = plan_resilient(&bench, &synthesis, &wire_config())
        .served
        .expect("demo instance solves");

    let unix_path = std::env::temp_dir().join(format!("pdw-net-rt-{}.sock", std::process::id()));
    let listeners = [
        NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap(),
        NetListener::bind(&NetAddr::Unix(unix_path)).unwrap(),
    ];
    for listener in listeners {
        let (plan, sock) = start_server(listener, NetConfig::default());
        let addr = sock.local_addr();
        let mut client = PlanClient::new(addr.clone(), ClientConfig::default());
        let first = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .unwrap_or_else(|e| panic!("{addr}: remote solve failed: {e}"));
        // The client already re-verified the certificate (verify: true);
        // the schedule must be byte-for-byte the in-process plan.
        assert_eq!(
            first.artifact.result.schedule, reference.schedule,
            "{addr}: remote plan differs from in-process"
        );
        assert_eq!(first.artifact.result.metrics, reference.metrics);
        assert!(!first.memo_hit, "{addr}: first solve is cold");
        assert!(first.retried.is_empty());
        assert!(client.rtt().is_some(), "{addr}: handshake measured an RTT");

        let second = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .expect("second solve");
        assert!(second.memo_hit, "{addr}: identical instance hits the memo");
        assert_eq!(second.artifact.result.schedule, reference.schedule);

        let ping = client.ping().expect("heartbeat answers");
        assert!(ping < Duration::from_secs(1));

        assert_eq!(plan.stats().solves, 1, "{addr}: one ladder run for both");
        let ns = sock.stats();
        assert_eq!(ns.solves, 2);
        // The cold solve asked by key, was told to send the instance, and
        // the second solve hit by key alone.
        assert_eq!((ns.need_instance, ns.key_hits), (1, 1), "{addr}");
        assert_eq!(ns.handshake_failures, 0);
        sock.drain();
        plan.shutdown();
    }
}

#[test]
fn version_skew_and_config_mismatch_are_typed_refusals() {
    let (plan, sock) = tcp_server();
    let addr = sock.local_addr();

    // Field-level version skew: a well-framed Hello announcing the wrong
    // protocol version (byte-level skew is caught by the frame envelope).
    let mut raw = addr.connect(Duration::from_secs(2)).unwrap();
    send_request(
        &mut raw,
        &NetRequest::Hello {
            codec_version: SCHEMA_VERSION + 1,
        },
        Duration::from_secs(2),
    )
    .unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Error {
            error: WireError::BadRequest(msg),
            ..
        })) => {
            assert!(msg.contains("version mismatch"), "got: {msg}");
        }
        other => panic!("expected a typed version refusal, got {other:?}"),
    }

    // Config-fingerprint mismatch: a well-versioned Solve asking for a
    // different planner config than the one the server runs.
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(addr, ClientConfig::default());
    let foreign = pathdriver_wash::PdwConfig {
        candidates: wire_config().candidates + 1,
        ..wire_config()
    };
    match client.solve(&bench, &synthesis, &foreign, None) {
        Err(ClientError::Serve(WireError::BadRequest(msg))) => {
            assert!(msg.contains("fingerprint"), "got: {msg}");
        }
        other => panic!("expected a typed config refusal, got {other:?}"),
    }
    assert!(sock.stats().handshake_failures >= 1);
    assert!(sock.stats().bad_requests >= 1);
    sock.drain();
    plan.shutdown();
}

#[test]
fn oversized_frames_are_refused_before_allocation() {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let (plan, sock) = start_server(
        listener,
        NetConfig {
            // Big enough for the handshake, far too small for a Solve.
            max_frame_len: 2048,
            ..NetConfig::default()
        },
    );
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    match client.solve(&bench, &synthesis, &wire_config(), None) {
        Err(ClientError::Serve(WireError::BadRequest(msg))) => {
            assert!(
                msg.contains("frame"),
                "refusal names the frame guard: {msg}"
            );
        }
        other => panic!("expected a typed frame-cap refusal, got {other:?}"),
    }
    sock.drain();
    plan.shutdown();
}

#[test]
fn deadline_smaller_than_transit_expires_typed_without_a_solve() {
    let (plan, sock) = tcp_server();
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    // 1ns budget: after subtracting the transit estimate the server sees
    // zero — the deadline expired in transit and must come back typed.
    match client.solve(
        &bench,
        &synthesis,
        &wire_config(),
        Some(Duration::from_nanos(1)),
    ) {
        Err(ClientError::Serve(WireError::DeadlineExpired { .. })) => {}
        other => panic!("expected a typed in-transit expiry, got {other:?}"),
    }
    assert_eq!(plan.stats().solves, 0, "no ladder run was wasted on it");
    sock.drain();
    plan.shutdown();
}

/// One socket-load request: a pool index that arrives `at_us` after
/// stream start.
#[derive(Debug, Clone, Copy)]
struct SocketJob {
    /// Arrival time, microseconds after run start (ignored unpaced).
    at_us: u64,
    /// Which `(bench, synthesis)` pool entry to solve.
    pool_index: usize,
    /// Per-request deadline budget.
    budget: Option<Duration>,
}

/// Aggregate results of one socket load run.
#[derive(Debug, Clone, Default)]
struct SocketLoadReport {
    /// Requests attempted.
    requests: usize,
    /// Requests served a verified plan.
    served: usize,
    /// Served responses that hit the server's memo cache.
    memo_hits: usize,
    /// Requests that ended in a typed transport error.
    transport_errors: usize,
    /// Requests that ended in a typed serve error.
    serve_errors: usize,
    /// Transport retries burned across all clients.
    retries: u64,
    /// The transport faults that served requests retried through.
    retried: Vec<TransportError>,
    /// One line per failed request: `"<kind>: <display>"` — every entry
    /// here is typed by construction; an untyped failure is a panic.
    errors: Vec<String>,
    /// Latencies of served requests, ms.
    latencies_ms: Vec<f64>,
    /// Median latency of served requests, ms.
    p50_ms: f64,
    /// 99th-percentile latency of served requests, ms.
    p99_ms: f64,
}

/// Drives `jobs` against a socket endpoint from `clients` concurrent
/// [`PlanClient`]s (job *i* goes to client *i* mod `clients`; each client
/// gets a distinct jitter seed). With `pace`, submissions honor their
/// `at_us` arrival times against real wall time. Every job's outcome is
/// typed: served plans are certificate-verified, failures are collected
/// as [`ClientError`] strings.
fn run_socket_load(
    addr: &NetAddr,
    pool: &[(Benchmark, Synthesis)],
    config: &pathdriver_wash::PdwConfig,
    jobs: &[SocketJob],
    clients: usize,
    client_cfg: ClientConfig,
    pace: bool,
) -> SocketLoadReport {
    let wall0 = Instant::now();
    let lanes: Vec<SocketLoadReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|lane| {
                scope.spawn(move || {
                    let mut cfg = client_cfg;
                    cfg.jitter_seed = client_cfg.jitter_seed.wrapping_add(lane as u64);
                    let mut client = PlanClient::new(addr.clone(), cfg);
                    let mut out = SocketLoadReport::default();
                    for job in jobs.iter().skip(lane).step_by(clients) {
                        if pace {
                            let target = Duration::from_micros(job.at_us);
                            let elapsed = wall0.elapsed();
                            if target > elapsed {
                                std::thread::sleep(target - elapsed);
                            }
                        }
                        let (bench, synthesis) = &pool[job.pool_index % pool.len()];
                        let t = Instant::now();
                        match client.solve(bench, synthesis, config, job.budget) {
                            Ok(plan) => {
                                out.served += 1;
                                out.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                                if plan.memo_hit {
                                    out.memo_hits += 1;
                                }
                                out.retried.extend(plan.retried);
                            }
                            Err(e) => {
                                match &e {
                                    ClientError::Transport(_) => out.transport_errors += 1,
                                    ClientError::Serve(_) => out.serve_errors += 1,
                                }
                                out.errors.push(e.to_string());
                            }
                        }
                    }
                    out.retries = client.retries_total();
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load lane panicked"))
            .collect()
    });
    let mut report = SocketLoadReport {
        requests: jobs.len(),
        ..SocketLoadReport::default()
    };
    for lane in lanes {
        report.served += lane.served;
        report.memo_hits += lane.memo_hits;
        report.transport_errors += lane.transport_errors;
        report.serve_errors += lane.serve_errors;
        report.retries += lane.retries;
        report.retried.extend(lane.retried);
        report.errors.extend(lane.errors);
        report.latencies_ms.extend(lane.latencies_ms);
    }
    // Nearest-rank percentiles on the sorted sample.
    report.latencies_ms.sort_by(f64::total_cmp);
    let rank = |q: f64| {
        let n = report.latencies_ms.len();
        report.latencies_ms[((n.max(1) - 1) as f64 * q).round() as usize]
    };
    if !report.latencies_ms.is_empty() {
        (report.p50_ms, report.p99_ms) = (rank(0.50), rank(0.99));
    }
    report
}

/// The chaos sweep: every fault mode against the first proxied connection,
/// with retries on, landing on each step of the key-first exchange: the
/// `HelloAck` (frame 0), the `NeedInstance` answering the first, cold
/// `SolveKey` (frame 1), and the plan answering the follow-up `Solve`
/// (frame 2). Every request must end typed — served (verified,
/// bit-identical) or a typed error — and the server must do exactly one
/// ladder run per unique instance regardless of retries (retry safety via
/// the memo key).
#[test]
fn chaos_sweep_has_zero_untyped_errors_and_no_duplicate_solves() {
    let pool = wire_pool(2);
    let jobs: Vec<SocketJob> = (0..6)
        .map(|i| SocketJob {
            at_us: 0,
            pool_index: i % pool.len(),
            budget: None,
        })
        .collect();
    let specs = (0..3).flat_map(|frame| {
        ChaosSpec::all_modes(1)
            .into_iter()
            .map(move |spec| ChaosSpec { frame, ..spec })
    });
    for spec in specs {
        let (plan, sock) = tcp_server();
        let mut proxy = ChaosProxy::start(sock.local_addr(), vec![spec]);
        let label = format!("{spec} at frame {}", spec.frame);
        let report = run_socket_load(
            &proxy.local_addr(),
            &pool,
            &wire_config(),
            &jobs,
            2,
            fast_client(),
            false,
        );
        // Typed everywhere: served + typed errors account for every job.
        assert_eq!(
            report.served + report.transport_errors + report.serve_errors,
            report.requests,
            "{label}: some request ended untyped"
        );
        for line in &report.errors {
            assert!(
                line.starts_with("transport: ") || line.starts_with("serve: "),
                "{label}: untyped error line: {line}"
            );
        }
        // With retries on, a single faulted connection never costs a plan.
        assert_eq!(
            report.served, report.requests,
            "{label}: retries absorb the fault; errors: {:?}",
            report.errors
        );
        if !matches!(spec.mode, ChaosMode::Delay(_)) {
            assert!(
                report.retries >= 1,
                "{label}: the faulted connection forced a retry"
            );
        }
        // A corrupted frame reaches the client whole and fails its digest;
        // a clean close would also force a retry, so name the fault seen.
        if spec.mode == ChaosMode::Corrupt {
            assert!(
                report.retried.iter().any(|e| matches!(
                    e,
                    TransportError::TornFrame(CodecError::DigestMismatch { .. })
                )),
                "{label}: the client retried {:?}, not a digest mismatch",
                report.retried
            );
        }
        // Retry safety: solves == unique memo keys, retries included.
        assert_eq!(
            plan.stats().solves,
            pool.len() as u64,
            "{label}: duplicate ladder runs under retry"
        );
        assert!(proxy.accepted() >= 1, "{label}: traffic went via the proxy");
        proxy.stop();
        sock.shutdown();
        plan.shutdown();
    }
}

/// The 1k-request open-loop soak through a chaos proxy at client counts
/// {1, 4, 8}: the first connection is torn at the handshake, the second at
/// the answer to its first `SolveKey` (with one client, the cold key's
/// `NeedInstance`), the third at its frame 2 (with one client, the plan
/// answering the follow-up `Solve`). All served, all verified, solve
/// count still equals the unique-instance count.
#[test]
fn socket_soak_1k_requests_through_the_chaos_proxy() {
    let pool = wire_pool(4);
    let jobs: Vec<SocketJob> = (0..1000)
        .map(|i| SocketJob {
            at_us: (i as u64) * 200,
            pool_index: (i * 7 + 3) % pool.len(),
            budget: None,
        })
        .collect();
    for clients in [1usize, 4, 8] {
        let (plan, sock) = tcp_server();
        let specs = (0..3)
            .map(|frame| ChaosSpec {
                mode: ChaosMode::Disconnect,
                nth: frame + 1,
                frame,
            })
            .collect();
        let mut proxy = ChaosProxy::start(sock.local_addr(), specs);
        let report = run_socket_load(
            &proxy.local_addr(),
            &pool,
            &wire_config(),
            &jobs,
            clients,
            fast_client(),
            true,
        );
        assert_eq!(
            report.served, 1000,
            "clients={clients}: all soak requests serve; errors: {:?}",
            report.errors
        );
        assert_eq!(report.transport_errors + report.serve_errors, 0);
        assert!(
            report.memo_hits >= 1000 - pool.len(),
            "clients={clients}: everything after the cold solves hits the memo"
        );
        assert!(
            report.retries >= 3,
            "clients={clients}: each torn connection was retried"
        );
        assert_eq!(
            plan.stats().solves,
            pool.len() as u64,
            "clients={clients}: one ladder run per unique instance"
        );
        assert!(report.p99_ms >= report.p50_ms);
        proxy.stop();
        sock.shutdown();
        plan.shutdown();
    }
}

/// Graceful drain under load: in-flight solves finish, late arrivals are
/// answered `ShuttingDown` (surfaced as a non-retryable transport error),
/// and after the drain the same Unix address rebinds — where a batch
/// client mid-stream reconnects and keeps going against the new server.
#[test]
fn drain_under_load_finishes_in_flight_then_frees_the_address() {
    let unix_path = std::env::temp_dir().join(format!("pdw-net-drain-{}.sock", std::process::id()));
    let addr = NetAddr::Unix(unix_path.clone());
    let listener = NetListener::bind(&addr).unwrap();
    let (plan, sock) = start_server(listener, NetConfig::default());
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let reference = plan_resilient(&bench, &synthesis, &wire_config())
        .served
        .expect("solves");

    // Hold the queue so a submitted solve stays in flight across the drain.
    plan.pause();
    let in_flight_client = {
        let addr = addr.clone();
        let (bench, synthesis) = (bench.clone(), synthesis.clone());
        std::thread::spawn(move || {
            let mut client = PlanClient::new(addr, ClientConfig::default());
            client.solve(&bench, &synthesis, &wire_config(), None)
        })
    };
    while sock.in_flight() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }

    // Two more connections open *before* the drain, so they outlive the
    // accept loop: one to observe the post-drain refusal, one to carry a
    // stale connection into the post-rebind reconnect check.
    let mut admin = PlanClient::new(addr.clone(), ClientConfig::default());
    admin.ping().expect("admin connection is up pre-drain");
    let mut batch = PlanClient::new(addr.clone(), ClientConfig::default());
    batch.ping().expect("batch connection is up pre-drain");

    // Drain arrives over the wire while that solve is still queued.
    let pending = admin.drain().expect("drain acknowledged");
    assert_eq!(pending, 1, "the held solve is reported in flight");
    assert!(sock.is_draining());

    // A late solve on the surviving connection is refused typed — and the
    // client does not retry it (draining is not a retryable fault).
    match admin.solve(&bench, &synthesis, &wire_config(), None) {
        Err(ClientError::Transport(TransportError::ServerDraining)) => {}
        other => panic!("expected a typed draining refusal, got {other:?}"),
    }
    assert_eq!(admin.retries_total(), 0, "draining is not retryable");
    assert!(sock.stats().drain_refused >= 1);

    // Release the queue: the in-flight solve completes and is served.
    plan.resume();
    let served = in_flight_client
        .join()
        .expect("client thread")
        .expect("in-flight solve survives the drain");
    assert_eq!(served.artifact.result.schedule, reference.schedule);
    sock.drain();
    assert_eq!(sock.in_flight(), 0);

    // The drained listener released the Unix path: the same address
    // rebinds, and a client that served against the old server reconnects
    // mid-batch against the new one after its dead connection surfaces as
    // a retryable fault.
    let listener = NetListener::bind(&addr).expect("post-drain rebind of the same path");
    let (plan2, sock2) = start_server(listener, NetConfig::default());
    // `batch` still holds the connection the old server tore down: its
    // next solve surfaces that as a typed, retryable fault and reconnects.
    let replan = batch
        .solve(&bench, &synthesis, &wire_config(), None)
        .expect("reconnect-mid-batch against the rebound address");
    assert_eq!(replan.artifact.result.schedule, reference.schedule);
    assert!(
        batch.retries_total() >= 1,
        "the dead connection cost a typed, retried fault"
    );
    sock2.drain();
    plan2.shutdown();
    plan.shutdown();
}

/// A frame whose delivery spans several read ticks (a slow link mid-
/// payload) must be assembled across ticks, not torn: the server's
/// 50ms poll may elapse many times inside one frame, and each quiet
/// tick must resume the partial frame instead of discarding it and
/// parsing the remaining bytes as a fresh header.
#[test]
fn slow_trickle_mid_frame_does_not_desync_the_stream() {
    let (plan, sock) = tcp_server(); // read_tick = 50ms
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    send_request(&mut raw, &hello(), Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::HelloAck { .. })) => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }

    // Trickle a Ping frame in three pieces — split mid-header and
    // mid-payload — with gaps several read ticks wide.
    let frame = encode_frame(FrameType::NetRequest, &NetRequest::Ping { nonce: 0xf00d });
    assert!(frame.len() > 14, "frame long enough to split three ways");
    for piece in [&frame[..7], &frame[7..14], &frame[14..]] {
        raw.write_all(piece).unwrap();
        raw.flush().unwrap();
        std::thread::sleep(Duration::from_millis(150));
    }
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Pong { nonce })) => assert_eq!(nonce, 0xf00d),
        other => panic!("trickled frame was torn: {other:?}"),
    }

    // The stream is still in sync: a whole frame right after round-trips.
    send_request(
        &mut raw,
        &NetRequest::Ping { nonce: 0xbeef },
        Duration::from_secs(2),
    )
    .unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Pong { nonce })) => assert_eq!(nonce, 0xbeef),
        other => panic!("stream desynced after the trickled frame: {other:?}"),
    }
    assert_eq!(sock.stats().pings, 2);
    sock.drain();
    plan.shutdown();
}

/// Envelope-level version skew (the frame's version byte, not the Hello
/// field) must be answered with a typed error frame before the server
/// closes — a silent close reads as a retryable I/O fault and makes a
/// skewed client burn its whole retry budget instead of failing fast.
#[test]
fn envelope_version_skew_gets_a_typed_handshake_reply() {
    let (plan, sock) = tcp_server();
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    let mut frame = encode_frame(FrameType::NetRequest, &hello());
    frame[4] = SCHEMA_VERSION.wrapping_add(1); // version byte in the envelope
    raw.write_all(&frame).unwrap();
    raw.flush().unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Error {
            error: WireError::BadRequest(msg),
            ..
        })) => assert!(msg.contains("skew"), "refusal names the skew: {msg}"),
        other => panic!("expected a typed skew refusal, got {other:?}"),
    }
    assert!(sock.stats().handshake_failures >= 1);
    sock.drain();
    plan.shutdown();
}

/// A handshake frame nesting 30,000 arrays deep, bare or as an unknown
/// field of a `Hello`, is refused typed on its connection thread; the
/// server keeps serving fresh clients.
#[test]
fn a_deeply_nested_handshake_does_not_abort_the_server() {
    let mut deep = Vec::with_capacity(30_000 * 5 + 1);
    for _ in 0..30_000 {
        // Tag 7 (array) and a length of one.
        deep.extend_from_slice(&[7, 1, 0, 0, 0]);
    }
    deep.push(0);
    let mut head = canonical_bytes(&Value::Object(vec![(
        "Hello".to_string(),
        Value::Object(vec![
            ("codec_version".to_string(), SCHEMA_VERSION.to_value()),
            ("pad".to_string(), Value::Null),
        ]),
    )]));
    head.pop(); // the `pad` placeholder: the deep value takes its place
    let frames = [
        frame_payload(FrameType::NetRequest, &[&deep]),
        frame_payload(FrameType::NetRequest, &[&head, &deep]),
    ];
    let (plan, sock) = tcp_server();
    for frame in &frames {
        let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
        raw.write_all(frame).unwrap();
        raw.flush().unwrap();
        // The server drops the connection (or the reply is an error):
        // never a `HelloAck`.
        assert!(!matches!(
            recv_response(&mut raw, 1 << 20, Duration::from_secs(5)),
            Ok(Some(NetResponse::HelloAck { .. }))
        ));
    }
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    client
        .solve(&bench, &synthesis, &wire_config(), None)
        .expect("a fresh client is served after the deep frames");
    assert!(sock.stats().handshake_failures >= 2);
    sock.drain();
    plan.shutdown();
}

/// A solve that outlives the idle timeout must not get its connection
/// evicted the moment the response is written: the idle clock restarts
/// when the answer goes out, so a sequential slow workload keeps its
/// connection between requests.
#[test]
fn slow_solve_completion_restarts_the_idle_clock() {
    let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").unwrap()).unwrap();
    let (plan, sock) = start_server(
        listener,
        NetConfig {
            idle_timeout: Duration::from_millis(600),
            read_tick: Duration::from_millis(20),
            ..NetConfig::default()
        },
    );
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    // Hold the queue so the solve reliably outlives the idle timeout.
    plan.pause();
    let addr = sock.local_addr();
    let solver = {
        let (bench, synthesis) = (bench.clone(), synthesis.clone());
        std::thread::spawn(move || {
            let mut client = PlanClient::new(addr, ClientConfig::default());
            client
                .solve(&bench, &synthesis, &wire_config(), None)
                .expect("held solve serves once released");
            // Well inside the *restarted* idle window, far outside the
            // one measured from the request's arrival.
            std::thread::sleep(Duration::from_millis(300));
            client.ping().expect("connection survives a slow solve")
        })
    };
    while sock.in_flight() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(Duration::from_millis(900)); // > idle_timeout
    plan.resume();
    solver.join().expect("solver thread");
    assert_eq!(sock.stats().idle_evicted, 0, "no spurious eviction");
    sock.drain();
    plan.shutdown();
}

/// The budget passed to [`PlanClient::solve`] is a per-call deadline:
/// retries and backoff sleeps spend it, and once it is gone the call
/// fails locally with a typed expiry instead of running the whole retry
/// ladder against a dead server.
#[test]
fn retry_loop_honors_the_per_call_deadline() {
    // A dead address: bind a port for its number, then free it.
    let dead = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = NetAddr::Tcp(format!("127.0.0.1:{}", dead.local_addr().unwrap().port()));
    drop(dead);
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(
        addr,
        ClientConfig {
            retries: 10,
            backoff_base: Duration::from_millis(100),
            backoff_max: Duration::from_secs(2),
            ..ClientConfig::default()
        },
    );
    let t = Instant::now();
    match client.solve(
        &bench,
        &synthesis,
        &wire_config(),
        Some(Duration::from_millis(250)),
    ) {
        Err(ClientError::Serve(WireError::DeadlineExpired { .. })) => {}
        other => panic!("expected a local deadline expiry, got {other:?}"),
    }
    // Ten 100ms-doubling backoffs would take many seconds; the deadline
    // bounds the call near its 250ms budget.
    let elapsed = t.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "call returned near its deadline, not after the retry ladder: {elapsed:?}"
    );
    assert!(client.retries_total() >= 1, "the dead server was retried");
}

/// Finished connection threads are reaped while the server runs — a
/// long-running listener must not hold one JoinHandle per connection it
/// ever accepted until shutdown.
#[test]
fn finished_connection_threads_are_reaped() {
    let (plan, sock) = tcp_server();
    let addr = sock.local_addr();
    for _ in 0..8 {
        let mut client = PlanClient::new(addr.clone(), ClientConfig::default());
        client.ping().expect("connects");
        client.disconnect();
    }
    // The accept loop reaps finished handles on every pass; give the
    // closed connections a moment to unwind.
    let t = Instant::now();
    while (sock.stats().active > 0 || sock.conn_thread_backlog() > 0)
        && t.elapsed() < Duration::from_secs(5)
    {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(sock.stats().accepted, 8);
    assert_eq!(sock.stats().active, 0);
    assert_eq!(
        sock.conn_thread_backlog(),
        0,
        "finished handles reaped before shutdown"
    );
    sock.drain();
    plan.shutdown();
}

/// The nine bundled instances (Table II plus the demo), solved through an
/// in-process server.
fn bundled_served(plan: &PlanServer) -> Vec<(Arc<Instance>, Arc<pdw_serve::ServedPlan>)> {
    benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .map(|bench| {
            let synthesis = synthesize(&bench).expect("bundled benchmark synthesizes");
            let instance = Arc::new(Instance::new(bench, synthesis));
            let served = plan
                .submit(ServeRequest::Solve {
                    instance: Arc::clone(&instance),
                })
                .expect("admitted")
                .wait()
                .expect("bundled benchmark serves");
            (instance, served.plan)
        })
        .collect()
}

/// A `Plan` response spliced from an entry's cached artifact bytes is the
/// exact frame the codec produces for the same response, for every
/// bundled instance and every `memo_hit`/`degraded` combination.
#[test]
fn spliced_plan_frames_are_byte_identical_to_encoded_responses() {
    let plan = PlanServer::start(ServeConfig::default());
    let served = bundled_served(&plan);
    assert_eq!(served.len(), 9);
    for (i, (instance, entry)) in served.iter().enumerate() {
        let cert = plan.certify(instance, entry);
        for (memo_hit, degraded) in [(false, false), (false, true), (true, false), (true, true)] {
            let id = 0x0123_4567_89ab_cdef ^ i as u64;
            let response = NetResponse::Plan {
                id,
                memo_hit,
                degraded,
                artifact: Box::new((**cert.artifact()).clone()),
            };
            assert!(
                encode_plan_frame(id, memo_hit, degraded, cert.bytes())
                    == encode_frame(FrameType::NetResponse, &response),
                "{}: spliced frame differs (memo_hit {memo_hit}, degraded {degraded})",
                instance.bench().name
            );
        }
    }
    assert_eq!(plan.stats().certifications, 9, "one certification each");
    plan.shutdown();
}

/// The server seals a plan's certificate from the ladder's own gate
/// replay; the artifact it builds is byte-for-byte the one a fresh oracle
/// replay ([`PlanArtifact::certified`]) builds from the same instance,
/// rung and result, for every bundled instance.
#[test]
fn sealed_certificates_match_fresh_replays_on_every_bundled_instance() {
    let plan = PlanServer::start(ServeConfig::default());
    let served = bundled_served(&plan);
    assert_eq!(served.len(), 9);
    for (instance, entry) in &served {
        let fresh = PlanArtifact::certified(
            instance.instance_hash(),
            config_fingerprint(&wire_config()),
            entry.rung,
            instance.bench(),
            instance.synthesis(),
            entry.result.clone(),
        );
        assert!(
            plan.certify(instance, entry).bytes() == canonical_bytes(&fresh),
            "{}: sealed certificate differs from a fresh replay's",
            instance.bench().name
        );
    }
    plan.shutdown();
}

/// 100 socket solves of one instance certify its memo entry once: the
/// first (cold) solve certifies, the 99 key-path hits splice the cached
/// bytes — and every one of them is still verified by the client.
#[test]
fn a_memo_entry_is_certified_once_across_100_hits() {
    let (plan, sock) = tcp_server();
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    let first = client
        .solve(&bench, &synthesis, &wire_config(), None)
        .expect("cold solve");
    for _ in 1..100 {
        let hit = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .expect("hit");
        assert!(hit.memo_hit);
        assert_eq!(hit.artifact.result.schedule, first.artifact.result.schedule);
        assert_eq!(hit.artifact.certificate, first.artifact.certificate);
    }
    let stats = plan.stats();
    assert_eq!(stats.certifications, 1, "certified at most once");
    assert_eq!(stats.solves, 1);
    assert_eq!(stats.served, 100);
    assert_eq!(stats.memo_hits, 99);
    let ns = sock.stats();
    assert_eq!((ns.need_instance, ns.key_hits, ns.solves), (1, 99, 100));
    sock.drain();
    plan.shutdown();
}

/// A full `Solve` sent the way builds without the key-first exchange
/// send it, on a raw connection; returns the served plan, verified.
fn full_solve(
    raw: &mut pathdriver_wash::NetStream,
    id: u64,
    bench: &Benchmark,
    synthesis: &Synthesis,
) -> (bool, pathdriver_wash::PlanArtifact) {
    let solve = NetRequest::Solve {
        id,
        budget_us: None,
        solve: Box::new(pathdriver_wash::SolveRequest {
            bench: bench.clone(),
            synthesis: synthesis.clone(),
            config: wire_config(),
        }),
    };
    send_request(raw, &solve, Duration::from_secs(2)).unwrap();
    match recv_response(raw, 1 << 26, Duration::from_secs(30)) {
        Ok(Some(NetResponse::Plan {
            id: rid,
            memo_hit,
            artifact,
            ..
        })) if rid == id => {
            artifact
                .verify(bench, synthesis)
                .expect("served plan verifies");
            (memo_hit, *artifact)
        }
        other => panic!("expected a plan, got {other:?}"),
    }
}

/// A client sending full `Solve`s and a key-first client share one
/// server: both get verified, bit-identical plans, the memo is shared, and
/// each unique instance costs one ladder run and one certification.
#[test]
fn full_solve_and_key_first_clients_share_one_server() {
    let (plan, sock) = tcp_server();
    let pool = wire_pool(3);
    let mut full = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    send_request(&mut full, &hello(), Duration::from_secs(2)).unwrap();
    assert!(matches!(
        recv_response(&mut full, 1 << 20, Duration::from_secs(2)),
        Ok(Some(NetResponse::HelloAck { .. }))
    ));
    let mut keyed = PlanClient::new(sock.local_addr(), ClientConfig::default());
    let mut id = 0;
    for round in 0..3 {
        for (i, (bench, synthesis)) in pool.iter().enumerate() {
            id += 1;
            // Alternate which client meets each instance first.
            let full_first = (round + i) % 2 == 0;
            let mut keyed_solve = || {
                keyed
                    .solve(bench, synthesis, &wire_config(), None)
                    .expect("key-first solve")
            };
            let (by_full, by_key) = if full_first {
                let (_, artifact) = full_solve(&mut full, id, bench, synthesis);
                let keyed = keyed_solve();
                assert!(keyed.memo_hit, "the second asker hits the shared memo");
                (artifact, keyed.artifact)
            } else {
                let keyed = keyed_solve();
                let (memo_hit, artifact) = full_solve(&mut full, id, bench, synthesis);
                assert!(memo_hit, "the second asker hits the shared memo");
                (artifact, keyed.artifact)
            };
            assert_eq!(by_full.result.schedule, by_key.result.schedule);
            assert_eq!(by_full.certificate, by_key.certificate);
        }
    }
    let stats = plan.stats();
    assert_eq!(
        stats.solves,
        pool.len() as u64,
        "one ladder run per instance"
    );
    assert_eq!(stats.certifications, pool.len() as u64);
    let ns = sock.stats();
    assert_eq!(ns.solves, 2 * 3 * pool.len() as u64);
    // The key-first client asked 9 times; it only had to send the
    // instance when it met an instance before anyone had solved it.
    assert_eq!(ns.key_hits + ns.need_instance, 3 * pool.len() as u64);
    assert!(ns.key_hits >= 2 * pool.len() as u64);
    sock.drain();
    plan.shutdown();
}

/// A client that claims instance A's key while holding instance B is
/// served A's plan, and that plan fails verification against B: a lying
/// key can never yield an accepted plan for B. The server, which never
/// memoizes under a claimed key, is left unchanged: an honest client
/// holding B is told to send it and gets B's own plan.
#[test]
fn a_lying_key_is_served_a_plan_that_fails_verification() {
    let (plan, sock) = tcp_server();
    let (bench_a, synth_a) = wire_pool(1).swap_remove(0);
    let bench_b = benchmarks::suite().swap_remove(0);
    let synth_b = synthesize(&bench_b).unwrap();
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    client
        .solve(&bench_a, &synth_a, &wire_config(), None)
        .expect("A solves honestly");
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    send_request(&mut raw, &hello(), Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::HelloAck { key_first, .. })) => assert_eq!(key_first, Some(true)),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let lie = NetRequest::SolveKey {
        id: 3,
        budget_us: None,
        instance_hash: instance_hash(&bench_a, &synth_a),
        config_fp: config_fingerprint(&wire_config()),
    };
    send_request(&mut raw, &lie, Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 26, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Plan {
            id: 3, artifact, ..
        })) => {
            let err = artifact
                .verify(&bench_b, &synth_b)
                .expect_err("A's plan must not verify as B's");
            assert!(err.contains("instance hash"), "got: {err}");
            artifact
                .verify(&bench_a, &synth_a)
                .expect("the served plan is A's");
        }
        other => panic!("expected A's plan, got {other:?}"),
    }
    assert_eq!(sock.stats().key_hits, 1);
    assert_eq!(plan.stats().solves, 1, "B was never solved under A's key");
    let served = client
        .solve(&bench_b, &synth_b, &wire_config(), None)
        .expect("B solves honestly");
    assert!(
        !served.memo_hit,
        "nothing was memoized under the claimed key"
    );
    assert_eq!(sock.stats().need_instance, 2, "A's and B's cold keys");
    sock.drain();
    plan.shutdown();
}

/// Against a server that predates the key-first exchange (its `HelloAck`
/// has no `key_first` field), the client never sends a `SolveKey`: its
/// requests are full `Solve`s, which such a server can decode.
#[test]
fn a_server_without_key_first_gets_full_solves() {
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let plan = PlanServer::start(ServeConfig::default());
    let instance = Arc::new(Instance::new(bench.clone(), synthesis.clone()));
    let served = plan
        .submit(ServeRequest::Solve {
            instance: Arc::clone(&instance),
        })
        .expect("admitted")
        .wait()
        .expect("serves");
    let artifact = (**plan.certify(&instance, &served.plan).artifact()).clone();
    plan.shutdown();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = NetAddr::Tcp(listener.local_addr().unwrap().to_string());
    let (seen_tx, seen) = std::sync::mpsc::channel();
    let certificate = artifact.certificate;
    let stub = std::thread::spawn(move || {
        let (mut conn, _) = listener.accept().unwrap();
        let hello = read_frame(&mut conn).unwrap().unwrap();
        let _: NetRequest = decode_frame(FrameType::NetRequest, &hello).unwrap();
        // A `HelloAck` as builds before the key-first exchange encode it.
        let old_ack = Value::Object(vec![(
            "HelloAck".to_string(),
            Value::Object(vec![
                ("codec_version".to_string(), SCHEMA_VERSION.to_value()),
                ("max_frame_len".to_string(), (1u64 << 26).to_value()),
                ("heartbeat_ms".to_string(), 1000u64.to_value()),
            ]),
        )]);
        write_frame(&mut conn, &encode_frame(FrameType::NetResponse, &old_ack)).unwrap();
        for _ in 0..2 {
            let frame = read_frame(&mut conn).unwrap().unwrap();
            let req: NetRequest = decode_frame(FrameType::NetRequest, &frame).unwrap();
            let NetRequest::Solve { id, .. } = req else {
                seen_tx.send(req).unwrap();
                return;
            };
            seen_tx.send(req).unwrap();
            let answer = NetResponse::Plan {
                id,
                memo_hit: false,
                degraded: false,
                artifact: Box::new(artifact.clone()),
            };
            write_frame(&mut conn, &encode_frame(FrameType::NetResponse, &answer)).unwrap();
        }
    });
    let mut client = PlanClient::new(addr, ClientConfig::default());
    for _ in 0..2 {
        let remote = client
            .solve(&bench, &synthesis, &wire_config(), None)
            .expect("the old server serves");
        assert_eq!(remote.artifact.certificate, certificate);
    }
    for _ in 0..2 {
        match seen.recv().unwrap() {
            NetRequest::Solve { solve, .. } => {
                let sent = instance_hash(&solve.bench, &solve.synthesis);
                assert_eq!(sent, instance_hash(&bench, &synthesis));
            }
            other => panic!("expected a full Solve, got {other:?}"),
        }
    }
    stub.join().unwrap();
}

/// A `SolveKey` whose budget expired in transit (`budget_us = 0`) comes
/// back as a typed `DeadlineExpired` without touching the memo, even when
/// the memo holds a certified plan for the key.
#[test]
fn an_expired_solve_key_is_refused_before_the_lookup() {
    let (plan, sock) = tcp_server();
    let (bench, synthesis) = wire_pool(1).swap_remove(0);
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    client
        .solve(&bench, &synthesis, &wire_config(), None)
        .expect("warm the memo");
    let before = (plan.stats(), sock.stats());
    let mut raw = sock.local_addr().connect(Duration::from_secs(2)).unwrap();
    send_request(&mut raw, &hello(), Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::HelloAck { key_first, .. })) => assert_eq!(key_first, Some(true)),
        other => panic!("expected HelloAck, got {other:?}"),
    }
    let expired = NetRequest::SolveKey {
        id: 7,
        budget_us: Some(0),
        instance_hash: instance_hash(&bench, &synthesis),
        config_fp: config_fingerprint(&wire_config()),
    };
    send_request(&mut raw, &expired, Duration::from_secs(2)).unwrap();
    match recv_response(&mut raw, 1 << 20, Duration::from_secs(2)) {
        Ok(Some(NetResponse::Error {
            id: 7,
            error: WireError::DeadlineExpired { .. },
        })) => {}
        other => panic!("expected a typed in-transit expiry, got {other:?}"),
    }
    let after = (plan.stats(), sock.stats());
    assert_eq!(after.0.memo_hits, before.0.memo_hits, "no lookup");
    assert_eq!(after.0.served, before.0.served);
    assert_eq!(after.1.key_hits, before.1.key_hits);
    assert_eq!(after.1.need_instance, before.1.need_instance);
    sock.drain();
    plan.shutdown();
}
