//! Plan-server load benchmark: open-loop throughput and latency of
//! [`pdw_serve::PlanServer`] under the seeded
//! [`request_stream`](pdw_gen::request_stream), at two or more load
//! levels.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--smoke] [--out FILE] [--requests N] [--workers N] [--memo-path FILE]
//! ```
//!
//! The instance pool is the bundled corpus (suite + demo). Each load level
//! replays the same seeded stream paced at a different mean inter-arrival
//! gap, then:
//!
//! - every served **solve** is oracle-verified (`pdw_sim::validate` +
//!   `propagate`) and bit-compared to a cold `plan_resilient` of its
//!   instance;
//! - every repair session's terminal plan is re-verified against the
//!   session's mutated chip;
//! - p50/p99 queue-to-completion latency and plans/sec are recorded per
//!   level, plus the memo-hit vs cold-solve service-time medians.
//!
//! `--smoke` is the CI regression gate: it asserts every plan verified,
//! every solve bit-identical to cold, and the memo-hit p50 service time at
//! least 10x faster than a cold solve at every level, then writes
//! `BENCH_serve_smoke.json`; the full run writes `BENCH_serve.json`.
//!
//! Both runs finish with a **warm-restart phase**: a server with a
//! persistent memo store (`--memo-path`, default a scratch file) takes a
//! solve-only stream cold, shuts down, and a *restarted* server on the
//! same file takes the identical stream — every request must then be
//! served from the persisted, certificate-re-verified artifacts with zero
//! fresh solves, bit-identical to the cold run's plans.

use std::sync::Arc;
use std::time::{Duration, Instant};

use pathdriver_wash::{plan_resilient, NetAddr, NetListener};
use pdw_assay::benchmarks;
use pdw_gen::{request_stream, StreamOptions};
use pdw_serve::{
    materialize, run_open_loop, run_socket_load, ChaosSpec, ClientConfig, Instance, LoadReport,
    NetConfig, PlanServer, ServeConfig, ServeRequest, SocketJob, SocketServer, Submission,
};
use pdw_synth::synthesize;
use serde::Serialize;

/// One load level's outcome.
#[derive(Debug, Serialize)]
struct Level {
    label: &'static str,
    mean_gap_us: u64,
    report: LoadReport,
    /// Every served solve passed independent validation + the oracle.
    all_verified: bool,
    /// Every served solve was bit-identical to a cold solve.
    all_identical: bool,
    /// Repair sessions whose terminal plan re-verified on the mutated chip.
    sessions_verified: usize,
}

/// The warm-restart phase: the same solve-only stream against a cold
/// persistent store and against a *restarted* server on that store.
#[derive(Debug, Serialize)]
struct Restart {
    /// Requests in each of the two runs.
    requests: usize,
    /// Fresh solves in the cold run (populates the store).
    cold_solves: u64,
    /// Artifacts persisted by the cold run.
    persisted: u64,
    /// Fresh solves after restart — must be 0.
    warm_solves: u64,
    /// Requests served from persisted artifacts after their verification
    /// certificate re-verified against the live instance.
    warm_persist_hits: u64,
    /// Persisted artifacts rejected at serve time — must be 0.
    warm_persist_rejected: u64,
    /// Every warm plan bit-identical to its cold-run counterpart.
    all_identical: bool,
    cold_p50_ms: f64,
    warm_p50_ms: f64,
}

/// One chaos-proxy fault mode's outcome in the socket phase.
#[derive(Debug, Serialize)]
struct ChaosOutcome {
    spec: String,
    requests: usize,
    served: usize,
    transport_errors: usize,
    serve_errors: usize,
    retries: u64,
}

/// The socket phase: the same traffic through `SocketServer`/`PlanClient`
/// over loopback TCP versus straight into the in-process `PlanServer`,
/// plus the chaos-proxy sweep.
#[derive(Debug, Serialize)]
struct SocketPhase {
    requests: usize,
    clients: usize,
    served: usize,
    retries: u64,
    /// End-to-end latency over the socket (codec + syscalls + transit).
    socket_p50_ms: f64,
    socket_p99_ms: f64,
    /// The same requests submitted in-process (no wire).
    inproc_p50_ms: f64,
    inproc_p99_ms: f64,
    /// What the loopback hop costs at the median, ms.
    loopback_overhead_p50_ms: f64,
    chaos: Vec<ChaosOutcome>,
}

#[derive(Debug, Serialize)]
struct Report {
    pool: usize,
    requests: usize,
    workers: usize,
    levels: Vec<Level>,
    /// Minimum memo-hit speedup across levels — the `--smoke` gate (≥ 10x).
    memo_hit_speedup_min: f64,
    restart: Restart,
    /// Present under `--socket`.
    socket: Option<SocketPhase>,
}

/// Runs the socket phase; a chaos-sweep failure writes `net-chaos-repro.txt`
/// (the failing spec + every typed error line) before panicking, so CI can
/// upload the repro.
fn socket_phase(workers: usize, requests: usize, smoke: bool) -> SocketPhase {
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    // A small pool keeps per-request wire payloads representative without
    // dominating the run with synthesis transfer.
    let bench = benchmarks::demo();
    let base = synthesize(&bench).expect("demo synthesizes");
    let mut pool = vec![(bench.clone(), base.clone())];
    let mut seed = 0u64;
    while pool.len() < 4 {
        seed += 1;
        let variant = pdw_gen::inject_faults(&base, seed);
        let hash = |s: &pdw_synth::Synthesis| Instance::new(bench.clone(), s.clone()).chip_hash();
        if pool.iter().all(|(_, s)| hash(s) != hash(&variant)) {
            pool.push((bench.clone(), variant));
        }
    }
    let jobs: Vec<SocketJob> = (0..requests)
        .map(|i| SocketJob {
            at_us: 0,
            pool_index: (i * 7 + 3) % pool.len(),
            budget: None,
        })
        .collect();
    let clients = 4usize;
    let client_cfg = ClientConfig {
        connect_timeout: Duration::from_millis(500),
        backoff_base: Duration::from_millis(5),
        backoff_max: Duration::from_millis(50),
        ..ClientConfig::default()
    };

    // Socket side: a listening server on loopback TCP.
    let plan = Arc::new(PlanServer::start(cfg.clone()));
    let listener =
        NetListener::bind(&NetAddr::parse("127.0.0.1:0").expect("addr")).expect("bind loopback");
    let sock = SocketServer::start(Arc::clone(&plan), listener, NetConfig::default());
    let report = run_socket_load(
        &sock.local_addr(),
        &pool,
        &cfg.planner,
        &jobs,
        clients,
        client_cfg,
        false,
    );
    assert_eq!(
        report.served + report.transport_errors + report.serve_errors,
        report.requests,
        "socket phase: an untyped outcome"
    );
    sock.drain();
    plan.shutdown();

    // In-process side: the identical requests without the wire.
    let plan = PlanServer::start(cfg.clone());
    let instances: Vec<Arc<Instance>> = pool
        .iter()
        .map(|(b, s)| Arc::new(Instance::new(b.clone(), s.clone())))
        .collect();
    let mut inproc_ms: Vec<f64> = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let t = Instant::now();
        let ticket = plan
            .submit(ServeRequest::Solve {
                instance: Arc::clone(&instances[job.pool_index % instances.len()]),
            })
            .expect("admitted");
        ticket.wait().expect("served");
        inproc_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    plan.shutdown();
    let inproc_p50_ms = pdw_serve::harness::percentile(&mut inproc_ms, 0.50);
    let inproc_p99_ms = pdw_serve::harness::percentile(&mut inproc_ms, 0.99);

    // Chaos sweep: every fault mode against the first proxied connection;
    // with retries on, nothing may be lost and nothing may be untyped.
    let chaos_requests = if smoke { 6 } else { 12 };
    let chaos_jobs: Vec<SocketJob> = (0..chaos_requests)
        .map(|i| SocketJob {
            at_us: 0,
            pool_index: i % pool.len(),
            budget: None,
        })
        .collect();
    let mut chaos = Vec::new();
    for spec in ChaosSpec::all_modes(1) {
        let plan = Arc::new(PlanServer::start(cfg.clone()));
        let listener = NetListener::bind(&NetAddr::parse("127.0.0.1:0").expect("addr"))
            .expect("bind loopback");
        let sock = SocketServer::start(Arc::clone(&plan), listener, NetConfig::default());
        let mut proxy = pdw_serve::ChaosProxy::start(sock.local_addr(), vec![spec]);
        let r = run_socket_load(
            &proxy.local_addr(),
            &pool,
            &cfg.planner,
            &chaos_jobs,
            2,
            client_cfg,
            false,
        );
        proxy.stop();
        sock.shutdown();
        plan.shutdown();
        let outcome = ChaosOutcome {
            spec: spec.to_string(),
            requests: r.requests,
            served: r.served,
            transport_errors: r.transport_errors,
            serve_errors: r.serve_errors,
            retries: r.retries,
        };
        if r.served != r.requests {
            let repro = format!(
                "chaos sweep failure\nspec: {spec}\nserved {}/{} (transport {}, serve {}, retries {})\nerrors:\n{}\n",
                r.served,
                r.requests,
                r.transport_errors,
                r.serve_errors,
                r.retries,
                r.errors.join("\n"),
            );
            std::fs::write("net-chaos-repro.txt", &repro).expect("write chaos repro");
            panic!("chaos sweep lost requests under {spec}; repro in net-chaos-repro.txt");
        }
        chaos.push(outcome);
    }

    let phase = SocketPhase {
        requests,
        clients,
        served: report.served,
        retries: report.retries,
        socket_p50_ms: report.p50_ms,
        socket_p99_ms: report.p99_ms,
        inproc_p50_ms,
        inproc_p99_ms,
        loopback_overhead_p50_ms: report.p50_ms - inproc_p50_ms,
        chaos,
    };
    println!(
        "socket : {}/{} served over loopback, p50 {:.3}ms p99 {:.3}ms \
         (in-process p50 {:.3}ms p99 {:.3}ms, overhead {:.3}ms), {} retries, chaos sweep {} modes clean",
        phase.served,
        phase.requests,
        phase.socket_p50_ms,
        phase.socket_p99_ms,
        phase.inproc_p50_ms,
        phase.inproc_p99_ms,
        phase.loopback_overhead_p50_ms,
        phase.retries,
        phase.chaos.len(),
    );
    phase
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let with_socket = args.iter().any(|a| a == "--socket");
    let arg = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(|v| {
                v.parse::<usize>()
                    .unwrap_or_else(|_| panic!("bad {flag} `{v}`"))
            })
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if smoke {
            "BENCH_serve_smoke.json"
        } else {
            "BENCH_serve.json"
        });
    let requests = arg("--requests").unwrap_or(if smoke { 150 } else { 500 });
    let workers = arg("--workers").unwrap_or(if smoke { 2 } else { 4 });

    // The pool: every bundled benchmark, synthesized once.
    let pool: Vec<Arc<Instance>> = benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .map(|bench| {
            let synthesis = synthesize(&bench).expect("bundled benchmark synthesizes");
            Arc::new(Instance::new(bench, synthesis))
        })
        .collect();
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    // Cold references, one per pool instance — the bit-identity baseline
    // (and the cold-side cost every memo hit avoids).
    let cold: Vec<_> = pool
        .iter()
        .map(|i| {
            plan_resilient(i.bench(), i.synthesis(), &cfg.planner)
                .served
                .expect("bundled corpus serves")
        })
        .collect();

    let levels_spec: &[(&'static str, u64)] = if smoke {
        &[("light", 1_000), ("heavy", 100)]
    } else {
        &[("light", 2_000), ("medium", 500), ("heavy", 100)]
    };

    let mut levels: Vec<Level> = Vec::new();
    for &(label, mean_gap_us) in levels_spec {
        let events = request_stream(&StreamOptions {
            seed: 7,
            requests,
            pool: pool.len(),
            mean_gap_us,
            reuse: 0.7,
            delta_ratio: 0.1,
        });
        let timed = materialize(&events, &pool, None);
        let server = PlanServer::start(cfg.clone());
        let run = run_open_loop(&server, &timed, true);

        let mut all_verified = true;
        let mut all_identical = true;
        for (i, row) in run.rows.iter().enumerate() {
            let served = match row {
                Submission::Done {
                    response: Ok(s), ..
                } => s,
                Submission::Done {
                    response: Err(e), ..
                } => {
                    panic!("request {i} failed: {e}")
                }
                Submission::Shed(r) => panic!("request {i} shed: {r}"),
            };
            if served.repaired {
                continue;
            }
            let instance = &pool[events[i].pool_index];
            let plan = &served.plan.result;
            if plan.schedule != cold[events[i].pool_index].schedule {
                all_identical = false;
            }
            let chip = &instance.synthesis().chip;
            let graph = &instance.bench().graph;
            if pdw_sim::validate(chip, graph, &plan.schedule).is_err()
                || !pdw_sim::propagate(chip, graph, &plan.schedule).is_clean()
            {
                all_verified = false;
            }
        }
        let mut sessions_verified = 0usize;
        for instance in &pool {
            if let Some((synthesis, Some(last))) = server.repair_state(instance) {
                let graph = &instance.bench().graph;
                assert!(
                    pdw_sim::validate(&synthesis.chip, graph, &last.schedule).is_ok()
                        && pdw_sim::propagate(&synthesis.chip, graph, &last.schedule).is_clean(),
                    "terminal repair plan must verify on the mutated chip"
                );
                sessions_verified += 1;
            }
        }
        let report = run.report;
        println!(
            "{label:<7} gap {mean_gap_us:>5}us: {}/{} served, p50 {:.3}ms p99 {:.3}ms, \
             {:.0} plans/s, memo {}x ({} hits), verified={} identical={}",
            report.served,
            report.requests,
            report.p50_ms,
            report.p99_ms,
            report.plans_per_sec,
            report.memo_hit_speedup.round(),
            report.memo_hits,
            all_verified,
            all_identical,
        );
        levels.push(Level {
            label,
            mean_gap_us,
            report,
            all_verified,
            all_identical,
            sessions_verified,
        });
        server.shutdown();
    }

    let memo_hit_speedup_min = levels
        .iter()
        .map(|l| l.report.memo_hit_speedup)
        .fold(f64::INFINITY, f64::min);

    // ---- Warm-restart phase -------------------------------------------
    // A solve-only stream against a fresh persistent store, then the
    // *identical* stream against a restarted server on the same file.
    let explicit_memo_path = args
        .iter()
        .position(|a| a == "--memo-path")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let memo_path = explicit_memo_path.clone().unwrap_or_else(|| {
        std::env::temp_dir()
            .join(format!("pdw-bench-memo-{}.log", std::process::id()))
            .display()
            .to_string()
    });
    let _ = std::fs::remove_file(&memo_path);
    let restart_requests = requests.min(120);
    let events = request_stream(&StreamOptions {
        seed: 11,
        requests: restart_requests,
        pool: pool.len(),
        mean_gap_us: 300,
        reuse: 0.5,
        delta_ratio: 0.0,
    });
    let timed = materialize(&events, &pool, None);
    let restart_cfg = ServeConfig {
        workers,
        memo_path: Some(std::path::PathBuf::from(&memo_path)),
        ..ServeConfig::default()
    };
    let pass = |label: &str| {
        let server = PlanServer::start(restart_cfg.clone());
        let run = run_open_loop(&server, &timed, true);
        let schedules: Vec<_> = run
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| match row {
                Submission::Done {
                    response: Ok(s), ..
                } => s.plan.result.schedule.clone(),
                Submission::Done {
                    response: Err(e), ..
                } => panic!("restart {label} request {i} failed: {e}"),
                Submission::Shed(r) => panic!("restart {label} request {i} shed: {r}"),
            })
            .collect();
        let stats = server.stats();
        server.shutdown();
        (schedules, stats, run.report.p50_ms)
    };
    let (cold_plans, cold_stats, cold_p50_ms) = pass("cold");
    let (warm_plans, warm_stats, warm_p50_ms) = pass("warm");
    let all_identical = cold_plans == warm_plans;
    let restart = Restart {
        requests: restart_requests,
        cold_solves: cold_stats.solves,
        persisted: cold_stats.persist_entries,
        warm_solves: warm_stats.solves,
        warm_persist_hits: warm_stats.persist_hits,
        warm_persist_rejected: warm_stats.persist_rejected,
        all_identical,
        cold_p50_ms,
        warm_p50_ms,
    };
    println!(
        "restart: cold {} solves -> {} persisted; warm {} solves, {} persist hits \
         ({} rejected), identical={}, p50 {:.3}ms -> {:.3}ms",
        restart.cold_solves,
        restart.persisted,
        restart.warm_solves,
        restart.warm_persist_hits,
        restart.warm_persist_rejected,
        restart.all_identical,
        restart.cold_p50_ms,
        restart.warm_p50_ms,
    );
    if explicit_memo_path.is_none() {
        let _ = std::fs::remove_file(&memo_path);
    }

    let socket = with_socket.then(|| socket_phase(workers, if smoke { 100 } else { 300 }, smoke));

    let report = Report {
        pool: pool.len(),
        requests,
        workers,
        levels,
        memo_hit_speedup_min,
        restart,
        socket,
    };

    if let (true, Some(s)) = (smoke, report.socket.as_ref()) {
        assert_eq!(
            s.served, s.requests,
            "socket smoke: a loopback request was lost"
        );
        assert!(
            s.chaos.iter().all(|c| c.served == c.requests),
            "socket smoke: the chaos sweep lost requests"
        );
    }

    if smoke {
        assert!(
            report.levels.iter().all(|l| l.all_verified),
            "a served plan failed oracle re-verification"
        );
        assert!(
            report.levels.iter().all(|l| l.all_identical),
            "a served solve diverged from its cold reference"
        );
        assert!(
            report.levels.iter().all(|l| l.report.memo_hits > 0),
            "no memo hits under a reuse-heavy stream"
        );
        assert!(
            memo_hit_speedup_min >= 10.0,
            "memo-hit speedup {memo_hit_speedup_min:.1}x below the 10x gate"
        );
        let restart = &report.restart;
        assert_eq!(restart.warm_solves, 0, "the restarted server re-solved");
        assert!(
            restart.warm_persist_hits > 0,
            "no request was served from the persistent store after restart"
        );
        assert_eq!(
            restart.warm_persist_rejected, 0,
            "a persisted artifact failed certificate re-verification"
        );
        assert!(
            restart.all_identical,
            "a restarted plan diverged from its cold-run counterpart"
        );
        println!(
            "smoke regression gate ok (memo hit ≥ 10x cold, all plans verified, \
             warm restart solve-free)"
        );
    }

    pdw_bench::models::write_report(out_path, &report);
}
