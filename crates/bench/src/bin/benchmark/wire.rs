//! `wire-hits`: a `SocketServer` on loopback TCP and one `PlanClient`
//! connection in a closed loop of memo-hit solves with certificate
//! verification on (the client default). Every instance is solved once at
//! set-up, so the measured requests bypass the ladder and load only the
//! codec, the transport and client verification.
//!
//! A round trip hands the request from thread to thread: the client, the
//! server's connection thread, a serve worker, a waiter thread, and back.
//! Two concurrent connections ask for more threads than a 2-core machine
//! has, and on a 2-vCPU virtual machine their p99 spread by 40–43% over
//! ten runs of the same code. With one connection the round trips do not
//! queue behind each other, yet two sets of five runs on one seed still
//! spread by 28% and 56% in throughput while the host was busy: a hand-off
//! to a thread on the other, idle vCPU can wait for the host to run that
//! vCPU. So the workload runs on one CPU (see [`pin_to_one_cpu`]): the
//! hand-offs stay on a vCPU that is already running, and the round trip
//! measures the work of the codec, the transport and verification plus
//! the context switches.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use pathdriver_wash::codec::{decode_frame, encode_frame, FrameType};
use pathdriver_wash::verify::objective_of;
use pathdriver_wash::{
    config_fingerprint, NetAddr, NetListener, NetRequest, NetResponse, PdwConfig, PlanArtifact,
    SolveRequest, Weights,
};
use pdw_serve::{
    ClientConfig, Instance, NetConfig, PlanClient, PlanServer, ServeConfig, ServeRequest,
    SocketServer,
};

use crate::inputs::{self, Case, SetupLog};
use crate::layers::{self as l, Layers};
use crate::stats::{mean, median};
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Between, Outcome, RunCtx, Setups, Window};

/// Request ids of the serial replay start here.
const REPLAY_REQUEST_BASE: u64 = 1 << 60;
/// Heartbeat round trips timed per replay.
const PINGS: usize = 8;

/// Pins the calling thread, and so every thread it starts from then on,
/// to the CPU it is running on, and returns that CPU; `None` where the
/// platform offers no pinning or the call fails (the workload then runs
/// unpinned).
#[cfg(target_os = "linux")]
fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads this
    // thread's state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    // A `cpu_set_t`: a 1024-bit mask.
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: pid 0 names the calling thread, and `mask` is a valid
    // `cpu_set_t` of the size passed, alive for the whole call.
    let pinned = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) } == 0;
    pinned.then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// A plan server behind a loopback socket front end.
struct Rig {
    plan: Arc<PlanServer>,
    sock: SocketServer,
}

impl Drop for Rig {
    fn drop(&mut self) {
        self.sock.drain();
        self.plan.shutdown();
    }
}

/// Starts the rig and solves every instance once over the wire, so the
/// measured traffic is memo hits.
fn start(cases: &[Case], config: &PdwConfig) -> Rig {
    let plan = Arc::new(PlanServer::start(ServeConfig::default()));
    let addr = NetAddr::parse("127.0.0.1:0").expect("loopback address parses");
    let listener = NetListener::bind(&addr).expect("bind a loopback port");
    let sock = SocketServer::start(Arc::clone(&plan), listener, NetConfig::default());
    let mut client = PlanClient::new(sock.local_addr(), ClientConfig::default());
    for c in cases {
        let remote = client
            .solve(&c.bench, &c.synthesis, config, None)
            .expect("warm-up solve over loopback");
        assert!(
            remote.artifact.result.schedule == c.reference.schedule,
            "{}: warm-up plan differs from its cold reference",
            c.name
        );
    }
    Rig { plan, sock }
}

/// What the client loop records beyond latencies.
#[derive(Default)]
struct Records {
    retries: u64,
    memo_hits: u64,
    objectives: BTreeMap<usize, f64>,
}

/// The client's closed loop until `seconds` have passed, in whole passes
/// over the instances, each in a fresh seeded order, calling `between`
/// after each pass and leaving its time out of the window.
fn client_loop(
    cases: &[Case],
    addr: &NetAddr,
    config: &PdwConfig,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    between: Between,
) -> (Window, Records) {
    let mut client = PlanClient::new(
        addr.clone(),
        ClientConfig {
            jitter_seed: seed,
            ..ClientConfig::default()
        },
    );
    let mut window = Window::default();
    let mut rec = Records::default();
    let start = Instant::now();
    let mut left_out = 0.0;
    let active = |left_out: f64| start.elapsed().as_secs_f64() - left_out;
    let mut request = 0u64;
    for pass in 0u64.. {
        if pass > 0 && active(left_out) >= seconds {
            break;
        }
        for case in inputs::permutation(cases.len(), inputs::mix(seed, pass)) {
            let c = &cases[case];
            let t0 = Instant::now();
            let result = client.solve(&c.bench, &c.synthesis, config, None);
            let t1 = Instant::now();
            window.attempted += 1;
            match result {
                Ok(remote) if remote.artifact.result.schedule == c.reference.schedule => {
                    if let Some(tr) = tracer {
                        tr.record("wire.request", request, None, t0, t1);
                    }
                    window.latencies_ms.push((t1 - t0).as_secs_f64() * 1e3);
                    rec.memo_hits += u64::from(remote.memo_hit);
                    rec.objectives.entry(case).or_insert_with(|| {
                        objective_of(&remote.artifact.result.schedule, &Weights::default())
                    });
                }
                Ok(_) => window.fail(format!(
                    "{}: served plan differs from its cold reference",
                    c.name
                )),
                Err(e) => window.fail(format!("{}: {e}", c.name)),
            }
            request += 1;
        }
        left_out += between(active(left_out) / seconds);
    }
    rec.retries = client.retries_total();
    window.seconds = active(left_out);
    window.completed = window.latencies_ms.len();
    (window, rec)
}

/// Per-instance replay of what one memo-hit round trip computes, step by
/// step through the public calls the client and the socket server make.
#[derive(Default)]
struct Replay {
    steps: BTreeMap<&'static str, Vec<f64>>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

impl Replay {
    fn step<R>(
        &mut self,
        tracer: &Tracer,
        name: &'static str,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let (r, ms) = timed(Some(tracer), name, request, None, f);
        self.steps.entry(name).or_default().push(ms);
        r
    }

    fn mean_ms(&self, name: &str) -> f64 {
        self.steps.get(name).map_or(0.0, |v| mean(v))
    }
}

fn replay(
    rig: &Rig,
    cases: &[Case],
    config: &PdwConfig,
    tracer: &Tracer,
    window: &mut Window,
) -> Replay {
    let mut rep = Replay::default();
    let fingerprint = config_fingerprint(config);
    for (i, c) in cases.iter().enumerate() {
        let request = REPLAY_REQUEST_BASE + i as u64;
        let solve = NetRequest::Solve {
            id: request,
            budget_us: None,
            solve: Box::new(SolveRequest {
                bench: c.bench.clone(),
                synthesis: c.synthesis.clone(),
                config: config.clone(),
            }),
        };
        let frame = rep.step(tracer, "codec.request_encode", request, || {
            encode_frame(FrameType::NetRequest, &solve)
        });
        rep.request_bytes.push(frame.len() as f64);
        let decoded = rep.step(tracer, "codec.request_decode", request, || {
            decode_frame::<NetRequest>(FrameType::NetRequest, &frame)
        });
        let Ok(NetRequest::Solve { solve, .. }) = decoded else {
            window.fail(format!(
                "replay: {}: request frame does not round-trip",
                c.name
            ));
            continue;
        };
        let SolveRequest {
            bench, synthesis, ..
        } = *solve;
        let instance = rep.step(tracer, "codec.instance_hash", request, || {
            Arc::new(Instance::new(bench, synthesis))
        });
        let served = rig
            .plan
            .submit(ServeRequest::Solve {
                instance: Arc::clone(&instance),
            })
            .map_err(|e| e.to_string())
            .and_then(|ticket| ticket.wait().map_err(|e| e.to_string()));
        let served = match served {
            Ok(s) if s.memo_hit => s,
            Ok(_) => {
                window.fail(format!("replay: {}: not a memo hit", c.name));
                continue;
            }
            Err(e) => {
                window.fail(format!("replay: {}: {e}", c.name));
                continue;
            }
        };
        rep.steps
            .entry("server.service.hit")
            .or_default()
            .push(served.service_s * 1e3);
        let artifact = rep.step(tracer, "codec.certify", request, || {
            PlanArtifact::certified(
                instance.instance_hash(),
                fingerprint,
                served.plan.rung,
                instance.bench(),
                instance.synthesis(),
                served.plan.result.clone(),
            )
        });
        let response = NetResponse::Plan {
            id: request,
            memo_hit: true,
            degraded: false,
            artifact: Box::new(artifact),
        };
        let frame = rep.step(tracer, "codec.artifact_encode", request, || {
            encode_frame(FrameType::NetResponse, &response)
        });
        rep.response_bytes.push(frame.len() as f64);
        let decoded = rep.step(tracer, "codec.artifact_decode", request, || {
            decode_frame::<NetResponse>(FrameType::NetResponse, &frame)
        });
        let Ok(NetResponse::Plan { artifact, .. }) = decoded else {
            window.fail(format!(
                "replay: {}: response frame does not round-trip",
                c.name
            ));
            continue;
        };
        let verified = rep.step(tracer, "net.client_verify", request, || {
            artifact.verify(&c.bench, &c.synthesis)
        });
        if let Err(e) = verified {
            window.fail(format!(
                "replay: {}: certificate does not verify: {e}",
                c.name
            ));
        }
    }
    let mut client = PlanClient::new(rig.sock.local_addr(), ClientConfig::default());
    for i in 0..PINGS {
        let request = REPLAY_REQUEST_BASE + (cases.len() + i) as u64;
        match rep.step(tracer, "net.ping", request, || client.ping()) {
            Ok(_) => {}
            Err(e) => window.fail(format!("replay: ping: {e}")),
        }
    }
    rep
}

/// The steps of one memo-hit round trip the replay accounts for.
const ROUND_TRIP_STEPS: [&str; 8] = [
    "codec.request_encode",
    "codec.request_decode",
    "codec.instance_hash",
    "server.service.hit",
    "codec.certify",
    "codec.artifact_encode",
    "codec.artifact_decode",
    "net.client_verify",
];

/// `wire-hits` (see the module docs).
pub fn hits(ctx: &RunCtx) -> Outcome {
    // Before any server thread starts, so that they all inherit the CPU.
    let pinned = pin_to_one_cpu();
    let config = inputs::serve_planner();
    let build = || {
        let mut log = SetupLog::default();
        let cases = inputs::bundled_cases(&mut log, &config);
        let rig = start(&cases, &config);
        (cases, rig, log)
    };
    let (mut setups, (cases, rig, log)) = Setups::start(build);
    let addr = rig.sock.local_addr();
    let windows = workloads::measure(ctx, &mut setups, |seconds, tracer, between| {
        client_loop(&cases, &addr, &config, ctx.seed, seconds, tracer, between)
    });
    let (window, rec) = windows.untraced;
    let mut layers = Layers::new();
    let mut notes = vec![match pinned {
        Some(cpu) => format!("every thread ran on CPU {cpu}"),
        None => "threads not pinned: pinning to one CPU is unavailable here".to_string(),
    }];
    let (traced, tracer) = match windows.traced {
        Some((mut traced, traced_rec, tracer)) => {
            workloads::setup_layers(&log, &mut layers);
            let rep = replay(&rig, &cases, &config, &tracer, &mut traced);
            let served = traced.latencies_ms.len() as f64;
            if served > 0.0 {
                layers.insert(l::MEMO_HIT_RATIO, traced_rec.memo_hits as f64 / served);
            }
            layers.insert(l::RETRIES, traced_rec.retries as f64);
            layers.insert(l::SERVICE_HIT_MS, rep.mean_ms("server.service.hit"));
            layers.insert(l::INSTANCE_HASH_MS, rep.mean_ms("codec.instance_hash"));
            layers.insert(l::CERTIFY_MS, rep.mean_ms("codec.certify"));
            layers.insert(l::ENCODE_MS, rep.mean_ms("codec.artifact_encode"));
            layers.insert(l::DECODE_MS, rep.mean_ms("codec.artifact_decode"));
            layers.insert(l::REQUEST_BYTES, mean(&rep.request_bytes));
            layers.insert(l::RESPONSE_BYTES, mean(&rep.response_bytes));
            layers.insert(l::PING_RTT_MS, rep.mean_ms("net.ping"));
            layers.insert(l::CLIENT_VERIFY_MS, rep.mean_ms("net.client_verify"));
            let replayed: f64 = ROUND_TRIP_STEPS.iter().map(|s| rep.mean_ms(s)).sum();
            let round_trip = mean(&traced.latencies_ms);
            layers.insert(l::RESIDUAL_MS, round_trip - replayed);
            let parts: Vec<String> = ROUND_TRIP_STEPS
                .iter()
                .map(|s| format!("{s} {:.3}", rep.mean_ms(s)))
                .collect();
            notes.push(format!(
                "round trip: p50 {:.3} ms, mean {round_trip:.3} ms = replayed {replayed:.3} ms [{}] + net.residual_ms {:.3}",
                median(&traced.latencies_ms),
                parts.join(", "),
                round_trip - replayed,
            ));
            // Per instance, when no replay step failed: what a hit costs
            // next to the size of the artifact it carries.
            if ROUND_TRIP_STEPS
                .iter()
                .all(|s| rep.steps.get(s).is_some_and(|v| v.len() == cases.len()))
            {
                for (i, c) in cases.iter().enumerate() {
                    let ms: f64 = ROUND_TRIP_STEPS.iter().map(|s| rep.steps[s][i]).sum();
                    notes.push(format!(
                        "replayed hit {}: {ms:.3} ms, response {} bytes",
                        c.name, rep.response_bytes[i]
                    ));
                }
            }
            (Some(traced), Some(tracer))
        }
        None => (None, None),
    };
    drop((cases, rig));
    Outcome {
        setup_s: setups.finish(),
        window,
        peak_rss_mb: windows.peak_rss_mb,
        traced,
        objective_sum: rec.objectives.values().sum(),
        distinct_instances: rec.objectives.len(),
        layers,
        tracer,
        notes,
    }
}
