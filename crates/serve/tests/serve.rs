//! Deterministic integration tests of the plan server: stampede
//! single-flight, deadline expiry in the queue, idle workers taking queued
//! requests, admission-control shedding,
//! LRU churn bit-identity, the 1k-request chaos soak, a paced seeded
//! stream over the bundled corpus, and warm restarts from a persistent
//! memo store.
//!
//! The concurrency tests run at worker counts {1, 8} and drive time
//! through the injectable [`ManualClock`] (or ignore time entirely), so
//! outcomes do not depend on scheduling luck.

use std::sync::Arc;
use std::time::Duration;

use pathdriver_wash::{memo_key, plan_resilient, PlanArtifact, PlanDelta, RepairSession};
use pdw_assay::benchmarks;
use pdw_gen::{request_stream, StreamOptions};
use pdw_serve::{
    materialize, run_open_loop, FileMemoStore, HookPoint, InMemoryMemoStore, Instance, ManualClock,
    MemoStore, PlanServer, Rejected, ServeConfig, ServeError, ServeRequest, Served, Submission,
    WallClock,
};
use pdw_synth::synthesize;

fn demo_instance() -> Arc<Instance> {
    let bench = benchmarks::demo();
    let synthesis = synthesize(&bench).unwrap();
    Arc::new(Instance::new(bench, synthesis))
}

/// A pool of `n` instances on distinct chips: the pristine demo chip plus
/// fault-injected variants.
fn faulted_pool(n: usize) -> Vec<Arc<Instance>> {
    let bench = benchmarks::demo();
    let base = synthesize(&bench).unwrap();
    let mut pool = vec![Arc::new(Instance::new(bench.clone(), base.clone()))];
    let mut seed = 0u64;
    while pool.len() < n {
        seed += 1;
        let variant = pdw_gen::inject_faults(&base, seed);
        let instance = Instance::new(bench.clone(), variant);
        if pool.iter().all(|p| p.chip_hash() != instance.chip_hash()) {
            pool.push(Arc::new(instance));
        }
    }
    pool
}

/// Every bundled benchmark (the Table II suite plus the demo),
/// synthesized once.
fn bundled_pool() -> Vec<Arc<Instance>> {
    benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .map(|bench| {
            let synthesis = synthesize(&bench).expect("bundled benchmark synthesizes");
            Arc::new(Instance::new(bench, synthesis))
        })
        .collect()
}

/// The served response of a completed row; any shed or error fails.
fn served_row<'a>(row: &'a Submission, context: &str) -> &'a Served {
    match row {
        Submission::Done {
            response: Ok(s), ..
        } => s,
        Submission::Done {
            response: Err(e), ..
        } => panic!("{context}: failed: {e}"),
        Submission::Shed(r) => panic!("{context}: shed: {r}"),
    }
}

fn solve(instance: &Arc<Instance>) -> ServeRequest {
    ServeRequest::Solve {
        instance: Arc::clone(instance),
    }
}

/// Oracle re-verification: the served schedule must be executable and
/// contamination-free on the instance's (possibly faulted) chip.
fn assert_verified(
    bench: &benchmarks::Benchmark,
    synthesis: &pdw_synth::Synthesis,
    plan: &pathdriver_wash::WashResult,
) {
    pdw_sim::validate(&synthesis.chip, &bench.graph, &plan.schedule)
        .expect("served plan validates");
    let oracle = pdw_sim::propagate(&synthesis.chip, &bench.graph, &plan.schedule);
    assert!(oracle.is_clean(), "served plan is oracle-clean");
}

#[test]
fn stampede_resolves_to_one_solve() {
    let instance = demo_instance();
    let cfg = ServeConfig::default();
    let reference = plan_resilient(instance.bench(), instance.synthesis(), &cfg.planner)
        .served
        .expect("demo instance solves");
    for workers in [1, 8] {
        let server = PlanServer::start(ServeConfig {
            workers,
            ..cfg.clone()
        });
        server.pause();
        let tickets: Vec<_> = (0..32)
            .map(|_| server.submit(solve(&instance)).expect("admitted"))
            .collect();
        server.resume();
        let mut hits = 0;
        for ticket in &tickets {
            let served = ticket.wait().expect("served");
            assert_eq!(
                served.plan.result.schedule, reference.schedule,
                "workers={workers}: every waiter gets the leader's plan"
            );
            assert!(!served.degraded && !served.repaired);
            if served.memo_hit {
                hits += 1;
            }
            assert_verified(instance.bench(), instance.synthesis(), &served.plan.result);
        }
        let stats = server.stats();
        assert_eq!(stats.solves, 1, "workers={workers}: exactly one solve");
        assert_eq!(stats.memo_hits, hits);
        assert_eq!(hits, 31, "workers={workers}: all but the leader hit");
        assert_eq!(stats.served, 32);
        assert_eq!(stats.worker_panics, 0);
    }
}

#[test]
fn deadline_expiry_mid_batch_does_not_poison_the_batch() {
    let instance = demo_instance();
    for workers in [1, 8] {
        let clock = Arc::new(ManualClock::new());
        let server = PlanServer::start_with(
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
            clock.clone(),
            None,
            None,
        );
        server.pause();
        // Queued together: a request whose budget will expire in queue,
        // then a healthy sibling.
        let doomed = server
            .submit_with_budget(solve(&instance), Some(Duration::from_millis(5)))
            .expect("admitted");
        let healthy = server.submit(solve(&instance)).expect("admitted");
        clock.advance(Duration::from_millis(10));
        server.resume();
        match doomed.wait() {
            Err(ServeError::DeadlineExpired { waited }) => {
                assert!(waited >= Duration::from_millis(10))
            }
            other => panic!("workers={workers}: expected DeadlineExpired, got {other:?}"),
        }
        let served = healthy.wait().expect("sibling must still serve");
        assert_verified(instance.bench(), instance.synthesis(), &served.plan.result);
        let stats = server.stats();
        assert_eq!(stats.deadline_expired, 1);
        assert_eq!(stats.served, 1);
    }
}

/// Workers take one request at a time: while request 0's solve is blocked,
/// the other worker picks up request 1 instead of leaving it queued behind
/// request 0 in the blocked worker's hands.
#[test]
fn an_idle_worker_picks_up_the_request_queued_behind_a_blocked_solve() {
    let demo = demo_instance();
    let pcr = {
        let bench = benchmarks::pcr();
        let synthesis = synthesize(&bench).unwrap();
        Arc::new(Instance::new(bench, synthesis))
    };
    let (release, blocked) = std::sync::mpsc::channel::<()>();
    let blocked = std::sync::Mutex::new(blocked);
    let hook: pdw_serve::Hook = Arc::new(move |point, id| {
        if point == HookPoint::Solve && id == 0 {
            let _ = blocked.lock().unwrap().recv();
        }
    });
    let server = PlanServer::start_with(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        Arc::new(WallClock::new()),
        Some(hook),
        None,
    );
    server.pause();
    let first = server.submit(solve(&demo)).expect("admitted");
    let second = server.submit(solve(&pcr)).expect("admitted");
    assert_eq!((first.id(), second.id()), (0, 1));
    server.resume();

    let cap = std::time::Instant::now() + Duration::from_secs(10);
    let response = loop {
        match second.try_response() {
            Some(response) => break Some(response),
            None if std::time::Instant::now() >= cap => break None,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    let first_was_pending = first.try_response().is_none();
    // Release request 0 before asserting, so a failure does not leave a
    // worker blocked in the hook.
    release.send(()).unwrap();
    let served = response
        .expect("request 1 waited behind the blocked solve of request 0")
        .expect("request 1 served");
    assert_verified(pcr.bench(), pcr.synthesis(), &served.plan.result);
    assert!(first_was_pending, "request 0 finished before its release");
    let served = first.wait().expect("request 0 served once released");
    assert_verified(demo.bench(), demo.synthesis(), &served.plan.result);
}

#[test]
fn saturated_queue_sheds_typed_and_counted() {
    let instance = demo_instance();
    let cost = instance.cost();
    for workers in [1, 8] {
        let server = PlanServer::start(ServeConfig {
            workers,
            queue_cost_budget: 2 * cost,
            ..ServeConfig::default()
        });
        server.pause();
        let a = server.submit(solve(&instance)).expect("first admitted");
        let b = server.submit(solve(&instance)).expect("second admitted");
        match server.submit(solve(&instance)) {
            Err(Rejected::Saturated {
                queued_cost,
                cost: c,
                budget,
            }) => {
                assert_eq!(queued_cost, 2 * cost);
                assert_eq!(c, cost);
                assert_eq!(budget, 2 * cost);
            }
            Err(other) => panic!("workers={workers}: expected Saturated, got {other}"),
            Ok(_) => panic!("workers={workers}: third request must be shed"),
        }
        assert_eq!(server.queue_depth(), 2);
        assert_eq!(server.stats().shed, 1);
        server.resume();
        // The admitted requests are unaffected by the shed one.
        assert!(a.wait().is_ok());
        assert!(b.wait().is_ok());
        assert_eq!(server.stats().served, 2);
        server.shutdown();
        assert!(matches!(
            server.submit(solve(&instance)),
            Err(Rejected::ShuttingDown)
        ));
    }
}

#[test]
fn lru_churn_never_serves_a_foreign_context() {
    // More distinct chips than LRU capacity: every solve must still be
    // bit-identical to a cold solve of its own instance.
    let pool = faulted_pool(5);
    let cfg = ServeConfig {
        context_lru: 2,
        ..ServeConfig::default()
    };
    let references: Vec<_> = pool
        .iter()
        .map(|i| plan_resilient(i.bench(), i.synthesis(), &cfg.planner).served)
        .collect();
    for workers in [1, 8] {
        let server = PlanServer::start(ServeConfig {
            workers,
            ..cfg.clone()
        });
        for (instance, reference) in pool.iter().zip(&references) {
            let ticket = server.submit(solve(instance)).expect("admitted");
            match (ticket.wait(), reference) {
                (Ok(served), Some(reference)) => {
                    assert_eq!(
                        served.plan.result.schedule, reference.schedule,
                        "workers={workers}: warm-context solve == cold solve"
                    );
                    assert_eq!(served.plan.result.metrics, reference.metrics);
                    assert_verified(instance.bench(), instance.synthesis(), &served.plan.result);
                }
                (Err(ServeError::Unservable(_)), None) => {}
                (got, want) => panic!(
                    "workers={workers}: served {:?} but cold reference served={}",
                    got.map(|s| s.plan.rung),
                    want.is_some()
                ),
            }
        }
        let stats = server.stats();
        assert!(
            stats.lru_evictions > 0,
            "workers={workers}: churn must actually evict (cap 2, {} chips)",
            pool.len()
        );
    }
}

#[test]
fn same_chip_different_schedule_strips_warm_state() {
    // Two instances sharing one chip but differing in base schedule: the
    // LRU may reuse the scratch pool across them, never the analyses.
    let bench = benchmarks::demo();
    let base = synthesize(&bench).unwrap();
    let cfg = ServeConfig {
        context_lru: 2,
        ..ServeConfig::default()
    };
    let op = base.schedule.ops().first().expect("demo has ops").op;
    let mut session = RepairSession::new(bench.clone(), base.clone(), cfg.planner.clone());
    session.plan();
    let repaired = session.repair(&PlanDelta::DelayOp { op, delay: 3 });
    assert!(repaired.is_served(), "delay repair must serve");
    let delayed = session.synthesis().clone();

    let a = Arc::new(Instance::new(bench.clone(), base));
    let b = Arc::new(Instance::new(bench, delayed));
    assert_eq!(a.chip_hash(), b.chip_hash(), "same chip");
    assert_ne!(a.instance_hash(), b.instance_hash(), "different schedule");
    let ref_b = plan_resilient(b.bench(), b.synthesis(), &cfg.planner)
        .served
        .expect("delayed instance solves");

    let server = PlanServer::start(ServeConfig { workers: 1, ..cfg });
    // Warm the LRU with A's context, then solve B on the same chip.
    server
        .submit(solve(&a))
        .expect("admitted")
        .wait()
        .expect("A serves");
    let served_b = server
        .submit(solve(&b))
        .expect("admitted")
        .wait()
        .expect("B serves");
    assert_eq!(
        served_b.plan.result.schedule, ref_b.schedule,
        "B must match its own cold solve, not inherit A's cached analyses"
    );
    let stats = server.stats();
    assert_eq!(stats.lru_pool_hits, 1, "B reused only A's scratch pool");
    assert_eq!(stats.lru_warm_hits, 0);
}

#[test]
fn soak_1k_requests_with_injected_panics() {
    let pool = faulted_pool(4);
    let cfg = ServeConfig::default();
    let cold: Vec<_> = pool
        .iter()
        .map(|i| plan_resilient(i.bench(), i.synthesis(), &cfg.planner).served)
        .collect();
    let events = request_stream(&StreamOptions {
        seed: 42,
        requests: 1000,
        pool: pool.len(),
        mean_gap_us: 1,
        reuse: 0.7,
        delta_ratio: 0.15,
    });
    let requests = materialize(&events, &pool, None);

    for workers in [1, 8] {
        // Chaos: crash the worker at dequeue for ids ≡ 13 (mod 97), and at
        // the memo-leader solve point for ids ≡ 50 (mod 101). Dequeue
        // crashes hit a known id set; solve crashes hit whoever happens to
        // lead — both must surface as typed errors, never kill the server.
        let hook: pdw_serve::Hook = Arc::new(|point, id| match point {
            HookPoint::Dequeue if id % 97 == 13 => panic!("injected dequeue crash"),
            HookPoint::Solve if id % 101 == 50 => panic!("injected solve crash"),
            _ => {}
        });
        let server = PlanServer::start_with(
            ServeConfig {
                workers,
                ..cfg.clone()
            },
            Arc::new(pdw_serve::WallClock::new()),
            Some(hook),
            None,
        );
        let run = run_open_loop(&server, &requests, false);
        assert_eq!(run.rows.len(), 1000);

        let mut panics = 0;
        for (i, row) in run.rows.iter().enumerate() {
            let (response, _) = match row {
                Submission::Done { response, latency } => (response, latency),
                Submission::Shed(r) => panic!("workers={workers}: unexpected shed: {r}"),
            };
            let id = i as u64; // single submitting thread: ids are ordinal
            match response {
                Ok(served) => {
                    assert!(
                        id % 97 != 13,
                        "workers={workers}: dequeue-hooked id {id} must not serve"
                    );
                    if !served.repaired {
                        // Solve responses are bit-identical to the cold
                        // reference of their instance.
                        let instance = &pool[events[i].pool_index];
                        let reference = cold[events[i].pool_index]
                            .as_ref()
                            .expect("served implies cold reference serves");
                        assert_eq!(served.plan.result.schedule, reference.schedule);
                        assert_verified(
                            instance.bench(),
                            instance.synthesis(),
                            &served.plan.result,
                        );
                    }
                }
                Err(ServeError::WorkerPanic(msg)) => {
                    panics += 1;
                    assert!(msg.contains("injected"), "only injected crashes: {msg}");
                }
                Err(other) => {
                    panic!("workers={workers}: request {id} unexpected error: {other}")
                }
            }
        }
        let stats = server.stats();
        assert_eq!(stats.worker_panics, panics as u64);
        assert!(panics >= 10, "the dequeue hook fires ~10 times in 1k ids");
        assert!(
            stats.memo_hits > 300,
            "workers={workers}: reuse-heavy stream mostly memo-hits (got {})",
            stats.memo_hits
        );
        assert!(stats.repairs > 0, "the stream carries repair deltas");

        // Terminal repair-session state re-verifies against its own
        // (mutated) instance: every repair response was ladder-verified at
        // serve time; here we independently re-check the last one against
        // the session's final chip state.
        let mut verified_sessions = 0;
        for instance in &pool {
            if let Some((synthesis, Some(last))) = server.repair_state(instance) {
                pdw_sim::validate(&synthesis.chip, &instance.bench().graph, &last.schedule)
                    .expect("terminal repaired plan validates on the mutated chip");
                let oracle =
                    pdw_sim::propagate(&synthesis.chip, &instance.bench().graph, &last.schedule);
                assert!(oracle.is_clean(), "terminal repaired plan is oracle-clean");
                verified_sessions += 1;
            }
        }
        assert!(
            verified_sessions > 0,
            "workers={workers}: at least one repair session exists"
        );

        // The server survives the chaos: it still serves after the storm.
        let after = server
            .submit(solve(&pool[0]))
            .expect("still admitting")
            .wait()
            .expect("still serving");
        assert!(after.memo_hit, "pool[0] is memoized by now");
    }
}

/// A seeded, reuse-heavy stream with repair deltas over the bundled
/// corpus, paced at a light and a heavy arrival rate against 2 workers:
/// every served solve is oracle-verified and bit-identical to its cold
/// solve, every repair session's terminal plan verifies on its mutated
/// chip, and a memo hit is served at least 10x faster than a cold solve
/// (service-time medians).
#[test]
fn bundled_stream_serves_verified_plans_and_fast_memo_hits() {
    let pool = bundled_pool();
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let cold: Vec<_> = pool
        .iter()
        .map(|i| {
            plan_resilient(i.bench(), i.synthesis(), &cfg.planner)
                .served
                .expect("bundled corpus serves")
        })
        .collect();
    for mean_gap_us in [1_000, 100] {
        let events = request_stream(&StreamOptions {
            seed: 7,
            requests: 150,
            pool: pool.len(),
            mean_gap_us,
            reuse: 0.7,
            delta_ratio: 0.1,
        });
        let server = PlanServer::start(cfg.clone());
        let run = run_open_loop(&server, &materialize(&events, &pool, None), true);
        for (i, row) in run.rows.iter().enumerate() {
            let served = served_row(row, &format!("gap {mean_gap_us}us request {i}"));
            if served.repaired {
                continue;
            }
            let index = events[i].pool_index;
            assert_eq!(
                served.plan.result.schedule, cold[index].schedule,
                "gap {mean_gap_us}us request {i}: served solve differs from its cold solve"
            );
            assert_verified(
                pool[index].bench(),
                pool[index].synthesis(),
                &served.plan.result,
            );
        }
        for instance in &pool {
            if let Some((synthesis, Some(last))) = server.repair_state(instance) {
                assert_verified(instance.bench(), &synthesis, &last);
            }
        }
        let report = run.report;
        assert!(
            report.memo_hits > 0,
            "gap {mean_gap_us}us: no memo hits under a reuse-heavy stream"
        );
        assert!(
            report.memo_hit_speedup >= 10.0,
            "gap {mean_gap_us}us: memo-hit speedup {:.1}x below 10x",
            report.memo_hit_speedup
        );
        server.shutdown();
    }
}

/// A server on the production clock whose persistent memo tier is the
/// store log at `path`.
fn start_persistent(cfg: ServeConfig, path: &std::path::Path) -> PlanServer {
    let (store, _) = FileMemoStore::open(path).expect("open the persistent memo store");
    PlanServer::start_with(cfg, Arc::new(WallClock::new()), None, Some(Arc::new(store)))
}

#[test]
fn warm_restart_serves_persisted_artifacts() {
    let path =
        std::env::temp_dir().join(format!("pdw-memo-{}-warm-restart.log", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let instance = demo_instance();
    let cfg = ServeConfig::default();

    // Cold server: one fresh solve, persisted on the way out.
    let first = {
        let server = start_persistent(cfg.clone(), &path);
        let served = server
            .submit(solve(&instance))
            .expect("admitted")
            .wait()
            .expect("served");
        assert!(!served.memo_hit && !served.degraded);
        let stats = server.stats();
        assert_eq!(stats.solves, 1);
        assert_eq!(stats.persist_hits, 0);
        assert_eq!(stats.persist_entries, 1, "the solve was persisted");
        server.shutdown();
        served
    };

    // Restarted server, same path: the memo cache is empty, so the request
    // becomes a memo leader — and is fulfilled from the persistent store
    // after its certificate re-verifies, with no fresh solve.
    let server = start_persistent(cfg, &path);
    let served = server
        .submit(solve(&instance))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(served.memo_hit, "persisted artifact counts as a memo hit");
    assert_eq!(
        served.plan.result.schedule, first.plan.result.schedule,
        "the restarted server serves the identical persisted plan"
    );
    assert_eq!(served.plan.rung, first.plan.rung);
    assert_verified(instance.bench(), instance.synthesis(), &served.plan.result);

    // Subsequent requests hit the promoted in-memory memo, not the store.
    let again = server
        .submit(solve(&instance))
        .expect("admitted")
        .wait()
        .expect("served");
    assert!(again.memo_hit);

    let stats = server.stats();
    assert_eq!(stats.solves, 0, "the restart never re-solved");
    assert_eq!(stats.persist_hits, 1, "exactly one store round trip");
    assert_eq!(stats.persist_rejected, 0);
    assert_eq!(stats.persist_entries, 1);
    server.shutdown();
    let _ = std::fs::remove_file(&path);

    // The bundled corpus: a paced solve-only stream against a fresh store,
    // then the identical stream against a restarted server on that store.
    let pool = bundled_pool();
    let events = request_stream(&StreamOptions {
        seed: 11,
        requests: 120,
        pool: pool.len(),
        mean_gap_us: 300,
        reuse: 0.5,
        delta_ratio: 0.0,
    });
    let requests = materialize(&events, &pool, None);
    let cfg = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    };
    let pass = |label: &str| {
        let server = start_persistent(cfg.clone(), &path);
        let run = run_open_loop(&server, &requests, true);
        let schedules: Vec<_> = run
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                served_row(row, &format!("{label} pass request {i}"))
                    .plan
                    .result
                    .schedule
                    .clone()
            })
            .collect();
        let stats = server.stats();
        server.shutdown();
        (schedules, stats)
    };
    let (cold_plans, _) = pass("cold");
    let (warm_plans, warm_stats) = pass("warm");
    assert_eq!(warm_stats.solves, 0, "the restarted server re-solved");
    assert!(
        warm_stats.persist_hits > 0,
        "no request was served from the persistent store after restart"
    );
    assert_eq!(
        warm_stats.persist_rejected, 0,
        "a persisted artifact failed certificate re-verification"
    );
    assert!(
        cold_plans == warm_plans,
        "a restarted plan diverged from its cold-pass counterpart"
    );
    let _ = std::fs::remove_file(&path);
}

/// A store whose appends all fail after keeping the entry in memory, like
/// a log on a full disk.
struct FullDiskStore(InMemoryMemoStore);

impl MemoStore for FullDiskStore {
    fn get(&self, key: u64) -> Option<Arc<PlanArtifact>> {
        self.0.get(key)
    }

    fn put(&self, key: u64, artifact: Arc<PlanArtifact>) -> std::io::Result<()> {
        self.0.put(key, artifact)?;
        Err(std::io::Error::other("disk full"))
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}

/// Persisting a fresh solve shares the memo entry's certified artifact
/// with the store (one certification, one `Arc`), and a failed append is
/// counted, not swallowed — the plan still serves.
#[test]
fn persisting_shares_the_certified_artifact_and_counts_failed_writes() {
    let store = Arc::new(FullDiskStore(InMemoryMemoStore::new()));
    let server = PlanServer::start_with(
        ServeConfig::default(),
        Arc::new(WallClock::new()),
        None,
        Some(Arc::clone(&store) as Arc<dyn MemoStore>),
    );
    let instance = demo_instance();
    let served = server
        .submit(solve(&instance))
        .expect("admitted")
        .wait()
        .expect("served despite the failed append");
    let stats = server.stats();
    assert_eq!(stats.persist_write_failures, 1);
    assert_eq!(stats.certifications, 1);
    let key = memo_key(instance.instance_hash(), server.config_fingerprint());
    let stored = store.get(key).expect("the store kept the entry");
    let cert = served.plan.certified().expect("persisting certified it");
    assert!(Arc::ptr_eq(&stored, cert.artifact()), "one shared artifact");
    // Certifying again (as a socket response would) reuses it.
    assert!(std::ptr::eq(server.certify(&instance, &served.plan), cert));
    assert_eq!(server.stats().certifications, 1);
    server.shutdown();
}
