//! End-to-end tests of out-of-process region planning through the real
//! `pdw worker` binary (`CARGO_BIN_EXE_pdw`). Every contract runs over both
//! [`StreamExecutor`] connectors — a spawned worker child framed over its
//! stdio, and a dialed `pdw worker --listen` peer:
//!
//! - worker plans are bit-identical to in-process plans on the mega
//!   family;
//! - workers killed or corrupting their replies mid-plan (chaos `die:1`,
//!   `corrupt:1`) degrade to in-process replanning with one typed event
//!   per fallback, never a wrong or missing plan;
//! - a worker that cannot be reached at all (a dead port, a nonexistent
//!   argv) burns the lane's respawn budget and falls back;
//! - a lane whose worker dies on every request exhausts the default
//!   budget of three respawns and degrades in-process.
//!
//! A malformed `PDW_WORKER_CHAOS` is refused by both worker modes before
//! they read a frame.

use std::io::BufRead;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use pathdriver_wash::{
    plan_partitioned, plan_partitioned_with, ExecutorEvent, ExecutorReport, NetAddr, PdwConfig,
    PlanOutcome, StreamExecutor,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;

/// The respawn budget every lane gets per run.
const RESPAWN_BUDGET: usize = 3;

/// How a case's executor reaches its workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Connector {
    /// `pdw worker` children framed over their stdin/stdout.
    Spawn,
    /// `pdw worker --listen` peers dialed over TCP.
    Dial,
}

const CONNECTORS: [Connector; 2] = [Connector::Spawn, Connector::Dial];

/// A `pdw worker` argv; chaos is injected via `env(1)`, so it stays scoped
/// to the children of one executor instead of mutating this
/// (multi-threaded) test process's environment.
fn worker_cmd(chaos: Option<&str>) -> Vec<String> {
    let mut argv: Vec<String> = chaos
        .map(|spec| vec!["env".to_string(), format!("PDW_WORKER_CHAOS={spec}")])
        .unwrap_or_default();
    argv.extend([env!("CARGO_BIN_EXE_pdw").to_string(), "worker".to_string()]);
    argv
}

/// A live `pdw worker --listen` child whose bound address was scraped from
/// its startup line, killed on drop so chaos tests can't leak processes.
struct ListeningWorker {
    child: std::process::Child,
    addr: NetAddr,
}

impl ListeningWorker {
    /// Spawns `pdw worker --listen 127.0.0.1:0` (plus optional chaos env)
    /// and waits for its "listening on" stderr line to learn the port.
    fn spawn(chaos: Option<&str>) -> ListeningWorker {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_pdw"));
        cmd.args(["worker", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        if let Some(spec) = chaos {
            cmd.env("PDW_WORKER_CHAOS", spec);
        }
        let mut child = cmd.spawn().expect("worker binary spawns");
        let stderr = child.stderr.take().expect("stderr piped");
        let mut line = String::new();
        std::io::BufReader::new(stderr)
            .read_line(&mut line)
            .expect("worker announces its address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("announcement ends with the address");
        let addr = NetAddr::parse(addr).expect("announced address parses");
        ListeningWorker { child, addr }
    }
}

impl Drop for ListeningWorker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// An executor with `lanes` lanes whose workers run `chaos`, plus the
/// listening peer a dialing executor shares across its lanes.
fn fleet(
    connector: Connector,
    chaos: Option<&str>,
    lanes: usize,
) -> (StreamExecutor, Option<ListeningWorker>) {
    match connector {
        Connector::Spawn => (StreamExecutor::spawn(worker_cmd(chaos), lanes), None),
        Connector::Dial => {
            let peer = ListeningWorker::spawn(chaos);
            let executor = StreamExecutor::dial(vec![peer.addr.clone(); lanes]);
            (executor, Some(peer))
        }
    }
}

/// A one-lane executor whose worker can never be reached.
fn unreachable(connector: Connector) -> StreamExecutor {
    match connector {
        Connector::Spawn => StreamExecutor::spawn(
            vec!["/nonexistent/pdw".to_string(), "worker".to_string()],
            1,
        ),
        Connector::Dial => {
            // Bind-then-drop reserves a port that is then guaranteed dead.
            let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = l.local_addr().expect("addr").to_string();
            StreamExecutor::dial(vec![NetAddr::parse(&addr).expect("parses")])
        }
    }
}

fn config() -> PdwConfig {
    PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    }
}

/// Mega-family instances: pristine and fault-injected, several seeds.
fn mega_pool() -> Vec<(Benchmark, Synthesis, String)> {
    let mut pool = Vec::new();
    for seed in [1u64, 2] {
        let spec = pdw_gen::mega_spec(65, 12, seed);
        let (bench, pristine) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
        let faulted = pdw_gen::inject_faults(&pristine, seed);
        pool.push((bench.clone(), pristine, format!("mega seed {seed}")));
        pool.push((bench, faulted, format!("mega seed {seed} faulted")));
    }
    pool
}

/// Plans the instance at K = 4 through `executor` and asserts the served
/// plan is the in-process `reference` — same rung, schedule and metrics —
/// and passes the validator and the contamination oracle. Returns the
/// executor's report after checking the plan's stats agree with it.
fn plan_through(
    label: &str,
    executor: &StreamExecutor,
    (bench, s): (&Benchmark, &Synthesis),
    reference: &PlanOutcome,
) -> ExecutorReport {
    let subject = plan_partitioned_with(bench, s, &config(), 4, Some(executor));
    assert_eq!(subject.rung, reference.rung, "{label}: rung differs");
    let (r, served) = (
        reference.served.as_ref().expect("reference serves"),
        subject.served.as_ref().expect("subject serves"),
    );
    assert_eq!(served.schedule, r.schedule, "{label}: schedule differs");
    assert_eq!(served.metrics, r.metrics, "{label}: metrics differ");
    pdw_sim::validate(&s.chip, &bench.graph, &served.schedule).expect("plan validates");
    assert!(
        pdw_sim::propagate(&s.chip, &bench.graph, &served.schedule).is_clean(),
        "{label}: plan is oracle-clean"
    );

    let report = executor.report();
    eprintln!(
        "{label}: {} remote, {} fallback(s), {} exhausted, events {:?}",
        report.remote_jobs, report.fallbacks, report.exhausted_lanes, report.events
    );
    let stats = &served.pipeline;
    assert_eq!(stats.subprocess_jobs, report.remote_jobs, "{label}");
    assert_eq!(stats.subprocess_fallbacks, report.fallbacks, "{label}");
    assert_eq!(
        stats.subprocess_exhausted, report.exhausted_lanes,
        "{label}"
    );
    if report.fallbacks > 0 {
        assert!(stats
            .degradation_events()
            .iter()
            .any(|e| e == "some region workers failed; jobs replanned in-process"));
    }
    if report.exhausted_lanes > 0 {
        assert!(stats
            .degradation_events()
            .iter()
            .any(|e| e == "worker respawn budget exhausted; lane degraded to in-process"));
    }
    report
}

fn count(report: &ExecutorReport, pred: fn(&ExecutorEvent) -> bool) -> usize {
    report.events.iter().filter(|e| pred(e)).count()
}

fn failed(e: &ExecutorEvent) -> bool {
    matches!(e, ExecutorEvent::WorkerFailed { .. })
}

fn respawned(e: &ExecutorEvent) -> bool {
    matches!(e, ExecutorEvent::WorkerRespawned { .. })
}

#[test]
fn subprocess_plans_are_bit_identical_on_the_mega_family() {
    bit_identity(Connector::Spawn);
}

#[test]
fn socket_workers_plan_bit_identically_through_the_real_binary() {
    bit_identity(Connector::Dial);
}

/// The bit-identity contract: healthy workers serve the in-process plan on
/// every mega instance, with every job planned remotely and no fallback.
fn bit_identity(connector: Connector) {
    let (executor, _peer) = fleet(connector, None, 2);
    for (bench, s, label) in mega_pool() {
        let reference = plan_partitioned(&bench, &s, &config(), 4);
        let label = format!("{label} over {connector:?}");
        let report = plan_through(&label, &executor, (&bench, &s), &reference);
        assert!(report.remote_jobs > 0, "{label}: no job went to a worker");
        assert_eq!(
            report.fallbacks, 0,
            "{label}: healthy workers never fall back"
        );
        assert!(report.events.is_empty(), "{label}: no transport events");
    }
}

#[test]
fn killed_workers_degrade_to_in_process_with_typed_events() {
    chaos_sweep("die:1", &[Connector::Spawn]);
}

#[test]
fn dead_socket_peer_degrades_to_in_process_with_typed_events() {
    chaos_sweep("die:1", &[Connector::Dial]);
}

#[test]
fn corrupting_workers_degrade_to_in_process_with_typed_events() {
    chaos_sweep("corrupt:1", &CONNECTORS);
}

/// The chaos contract: every worker dies (or corrupts its reply) on its
/// first request — a listening peer takes its whole process down with it —
/// so every region job falls back to the in-process front end, each with
/// one typed event, and the plan is still the in-process plan.
fn chaos_sweep(chaos: &str, connectors: &[Connector]) {
    let (bench, s, _) = mega_pool().swap_remove(0);
    let reference = plan_partitioned(&bench, &s, &config(), 4);
    for &connector in connectors {
        let label = format!("{chaos} over {connector:?}");
        let (executor, _peer) = fleet(connector, Some(chaos), 2);
        let report = plan_through(&label, &executor, (&bench, &s), &reference);
        assert_eq!(report.remote_jobs, 0, "{label}: no chaos job succeeds");
        assert!(report.fallbacks > 0, "{label}: every job falls back");
        assert_eq!(report.exhausted_lanes, 0, "{label}: no lane has 5 jobs");
        assert_eq!(
            count(&report, failed),
            report.fallbacks,
            "{label}: one typed event per fallback"
        );
        // A spawning lane that gets a second job respawns its dead worker
        // first; a dead listening peer refuses every redial.
        if connector == Connector::Spawn && report.fallbacks > 2 {
            assert!(count(&report, respawned) > 0, "{label}: respawn recorded");
        }
    }
}

/// A worker nobody can reach: every connect fails, so the lane records one
/// failure per attempt — the first plus three budgeted respawns — then
/// exhausts, and every job is planned in-process.
#[test]
fn unreachable_workers_exhaust_and_fall_back() {
    let (bench, s, _) = mega_pool().swap_remove(0);
    let reference = plan_partitioned(&bench, &s, &config(), 4);
    for connector in CONNECTORS {
        let label = format!("unreachable over {connector:?}");
        let executor = unreachable(connector);
        let report = plan_through(&label, &executor, (&bench, &s), &reference);
        assert_eq!(report.remote_jobs, 0, "{label}");
        assert_eq!(count(&report, failed), RESPAWN_BUDGET + 1, "{label}");
        assert_eq!(
            count(&report, respawned),
            0,
            "{label}: nothing ever connects"
        );
        assert_eq!(report.exhausted_lanes, 1, "{label}");
        assert!(
            report.fallbacks > RESPAWN_BUDGET + 1,
            "{label}: all jobs fall back"
        );
    }
}

/// A lane whose worker dies on *every* request burns the default budget
/// of three respawns, emits [`ExecutorEvent::RespawnBudgetExhausted`] and
/// surfaces the degradation in the served plan's stats — and the plan is
/// still bit-identical to in-process planning.
#[test]
fn respawn_budget_exhaustion_degrades_the_lane_in_process() {
    let (bench, s, _) = mega_pool().swap_remove(0);
    let reference = plan_partitioned(&bench, &s, &config(), 4);
    for connector in CONNECTORS {
        let label = format!("exhausted lane over {connector:?}");
        // One lane, so every job queues behind the same dying worker.
        let (executor, _peer) = fleet(connector, Some("die:1"), 1);
        let report = plan_through(&label, &executor, (&bench, &s), &reference);
        assert_eq!(
            report.remote_jobs, 0,
            "{label}: die:1 never completes a job"
        );
        assert_eq!(
            report.exhausted_lanes, 1,
            "{label}: the single lane exhausts"
        );
        assert!(
            report
                .events
                .contains(&ExecutorEvent::RespawnBudgetExhausted {
                    worker: 0,
                    budget: RESPAWN_BUDGET,
                }),
            "{label}: exhaustion is a typed event"
        );
        assert_eq!(count(&report, failed), RESPAWN_BUDGET + 1, "{label}");
        assert!(
            report.fallbacks > RESPAWN_BUDGET + 1,
            "{label}: all jobs fall back"
        );
        // A spawned worker dies per request, so every respawn succeeds
        // before the job fails; the listening peer died with its first.
        let respawns = match connector {
            Connector::Spawn => RESPAWN_BUDGET,
            Connector::Dial => 0,
        };
        assert_eq!(count(&report, respawned), respawns, "{label}");
    }
}

/// A mistyped chaos spec must not run a healthy worker: both worker modes
/// exit non-zero with one stderr line naming the spec, before reading a
/// frame (stdin stays open, so a worker that accepted the spec would
/// block on it or sit listening until the deadline).
#[test]
fn malformed_chaos_specs_are_refused_at_startup() {
    for spec in ["die:0", "dei:1", "corrupt:x", "die:1:2"] {
        for args in [&["worker"][..], &["worker", "--listen", "127.0.0.1:0"]] {
            let label = format!("PDW_WORKER_CHAOS={spec} pdw {}", args.join(" "));
            let mut child = Command::new(env!("CARGO_BIN_EXE_pdw"))
                .args(args)
                .env("PDW_WORKER_CHAOS", spec)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("worker binary spawns");
            let deadline = Instant::now() + Duration::from_secs(10);
            let exited = loop {
                if child.try_wait().expect("poll worker").is_some() {
                    break true;
                }
                if Instant::now() > deadline {
                    let _ = child.kill();
                    break false;
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            let out = child.wait_with_output().expect("worker output");
            assert!(exited, "{label}: worker kept running");
            assert!(!out.status.success(), "{label}: exit status {}", out.status);
            assert!(out.stdout.is_empty(), "{label}: wrote to stdout");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(stderr.lines().count(), 1, "{label}: stderr {stderr:?}");
            assert!(stderr.contains(spec), "{label}: stderr {stderr:?}");
        }
    }
}
