//! The in-process serving workloads: one generator thread keeps a closed
//! window of requests outstanding against a `PlanServer` with 2 workers.
//!
//! A closed window, not an open-loop rate: at an open-loop 400 req/s, p99
//! varied from 22 to 66 ms between identical runs, while a closed window
//! repeats within a few percent. The traffic comes in rounds, each on a
//! fresh server, so cold solves recur through the whole run instead of
//! stopping once the memo holds every instance. Every round asks the same
//! requests; the workload seed sets the order they arrive in.

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pathdriver_wash::verify::objective_of;
use pathdriver_wash::{plan_resilient_ctx, ContextParts, PdwConfig, PlanContext, Weights};
use pdw_gen::{request_stream, StreamOptions};
use pdw_serve::{
    materialize, Instance, PlanServer, ServeConfig, ServeRequest, ServeStats, ServedPlan, Ticket,
};

use crate::inputs::{self, Case, SetupLog};
use crate::layers::{self as l, Layers};
use crate::plan::{identical_to_reference, ladder_layers, plan_once};
use crate::stats::{mean, median, percentile, sorted};
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Between, Outcome, RunCtx, Setups, Window};

/// Requests kept outstanding by the generator: a completion, whichever
/// request it ends, frees a place for the next one. Refilling only as the
/// oldest request completed let the window run nearly empty behind a slow
/// cold solve, and then about half the requests met an idle worker; the
/// median latency sat on the cliff between those and the queued ones.
const WINDOW: usize = 16;
/// How long the generator sleeps when the window is full and no ticket
/// has completed (`Ticket` offers no wait on several tickets at once).
/// Latencies are the server's own `Ticket::latency`, so the poll delays
/// only the next submission. A completion comes about every millisecond,
/// so the window stays nearly full; a 50 µs poll could wake the generator
/// 20 000 times a second, on a 2-core machine whose cores the two workers
/// already keep busy.
const POLL: Duration = Duration::from_micros(200);
/// `serve-solve`: generated instances, and requests per cold one (reuse
/// 0.8): each round on a fresh server asks 640 requests.
const SOLVE_POOL: usize = 128;
const COLD_EVERY: usize = 5;
/// `serve-repair`: requests per fresh server.
const REPAIR_ROUND: usize = 250;
/// Seed of the `pdw_gen::request_stream` that fixes what a round asks.
const CONTENT_SEED: u64 = 0;
/// Request ids of the serial replay start here (live requests count up
/// from 0).
const REPLAY_REQUEST_BASE: u64 = 1 << 40;

/// How a served request was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Lead,
    Repair,
}

/// One completed request (plans themselves are not kept: holding every
/// round's plans alive would grow the benchmark's own memory with the
/// number of rounds and blur `peak_rss_mb`).
struct Done {
    kind: Kind,
    latency_ms: f64,
    service_ms: f64,
    /// The repair counters of a repaired plan.
    repair: Option<RepairStats>,
}

#[derive(Clone, Copy)]
struct RepairStats {
    cache_served: bool,
    invalidated_analyses: usize,
    reach_recomputed: usize,
}

/// What the windows record beyond latencies.
#[derive(Default)]
struct Records {
    done: Vec<Done>,
    /// Server counters, one snapshot per round.
    rounds: Vec<ServeStats>,
    /// Each round's full-window completion rate, per second.
    round_rates: Vec<f64>,
    /// Objective of the first plan served per distinct instance.
    objectives: BTreeMap<usize, f64>,
}

/// What a serving workload's rounds ask.
enum Traffic {
    /// `serve-solve`: see [`read_round`].
    Reads,
    /// `serve-repair`: the [`script`], merged by [`interleave`].
    Script(Vec<Vec<ServeRequest>>),
}

impl Traffic {
    /// The requests of one round, each with the index of the instance it
    /// targets.
    fn round(&self, pool: &[Arc<Instance>], seed: u64) -> Vec<(usize, ServeRequest)> {
        match self {
            Traffic::Reads => read_round(pool, seed),
            Traffic::Script(script) => interleave(script, seed),
        }
    }
}

struct Pending {
    case: usize,
    ticket: Ticket,
    submitted: Instant,
    request: u64,
}

/// A read round: every [`COLD_EVERY`]th request is the first, cold request
/// for the next instance of a seeded order of the pool, so cold solves run
/// through the whole round and each instance is solved cold exactly once;
/// every other request re-asks an instance already asked, drawn from the
/// seed. Drawing cold requests at random instead (as `pdw_gen`'s stream
/// does) left the end of each round to hits alone, and the median latency
/// sat on the cliff between those and the requests queued behind solves.
fn read_round(pool: &[Arc<Instance>], seed: u64) -> Vec<(usize, ServeRequest)> {
    let order = inputs::permutation(pool.len(), seed);
    let mut state = inputs::mix(seed, u64::MAX);
    (0..pool.len() * COLD_EVERY)
        .map(|k| {
            let asked = k / COLD_EVERY + 1;
            let case = if k % COLD_EVERY == 0 {
                order[asked - 1]
            } else {
                state = inputs::mix(state, k as u64);
                order[(state % asked as u64) as usize]
            };
            (
                case,
                ServeRequest::Solve {
                    instance: Arc::clone(&pool[case]),
                },
            )
        })
        .collect()
}

/// What every `serve-repair` round asks, per pool instance in the order
/// asked: the `pdw_gen` stream at [`CONTENT_SEED`] (reuse 0.95, half the
/// reuses repair deltas), with the deltas sampled by `materialize`. It is
/// the same for every round and every workload seed. Drawn from the
/// workload seed instead, it changed which repair deltas were drawn (a
/// repair costs from 0.1 to 300 ms), and so moved a round's work by more
/// than the bounds.
fn script(pool: &[Arc<Instance>]) -> Vec<Vec<ServeRequest>> {
    let events = request_stream(&StreamOptions {
        seed: CONTENT_SEED,
        requests: REPAIR_ROUND,
        pool: pool.len(),
        mean_gap_us: 1,
        reuse: 0.95,
        delta_ratio: 0.5,
    });
    let mut script = vec![Vec::new(); pool.len()];
    for (event, timed) in events.iter().zip(materialize(&events, pool, None)) {
        script[event.pool_index].push(timed.request);
    }
    script
}

/// One round's requests, each with the index of the instance it targets:
/// the script's per-instance queues merged in a random order drawn from
/// `seed` that keeps each instance's own order (its first request stays
/// the cold one, and its deltas reach its repair session in script order)
/// and spreads each instance's requests over the round: the `j`th of an
/// instance's `k` requests lands at a random point of the round's `j`th
/// `k`th. Merged uniformly instead, one session's deltas bunched up now and
/// then and held both workers on its mutex, and rounds varied more.
fn interleave(script: &[Vec<ServeRequest>], seed: u64) -> Vec<(usize, ServeRequest)> {
    let mut state = seed;
    let mut placed: Vec<(f64, usize, usize)> = Vec::new();
    for (case, queue) in script.iter().enumerate() {
        for j in 0..queue.len() {
            state = inputs::mix(state, ((case << 32) | j) as u64);
            let jitter = (state >> 11) as f64 / (1u64 << 53) as f64;
            placed.push(((j as f64 + jitter) / queue.len() as f64, case, j));
        }
    }
    placed.sort_by(|a, b| a.0.total_cmp(&b.0));
    placed
        .into_iter()
        .map(|(_, case, j)| (case, script[case][j].clone()))
        .collect()
}

/// Runs whole rounds of `traffic` against fresh servers until `seconds` of
/// serving have elapsed, calling `between` after each round (neither the
/// checks between rounds nor `between` are counted). Every round asks the
/// same requests, and the window pools them: its latencies are every
/// request's, and its throughput counts each round's full-window phase,
/// the requests completed up to its last submission, over that phase's
/// time. The drain after the last submission waits on whichever slow
/// request came last, and moved a `serve-repair` round's rate by up to 20%.
fn rounds(
    cases: &[Case],
    pool: &[Arc<Instance>],
    traffic: &Traffic,
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    between: Between,
) -> (Window, Records) {
    let planner = inputs::serve_planner();
    let mut window = Window::default();
    let mut rec = Records::default();
    let mut active = Duration::ZERO;
    let mut next_request = 0u64;
    let mut round = 0u64;
    while round == 0 || active.as_secs_f64() < seconds {
        let requests = traffic.round(pool, inputs::mix(seed, round));
        let server = PlanServer::start(ServeConfig::default());
        let start = Instant::now();
        let mut pending: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
        let mut repaired: Vec<usize> = Vec::new();
        let mut solved: HashMap<*const ServedPlan, (usize, Arc<ServedPlan>)> = HashMap::new();
        let served_before = window.latencies_ms.len();
        let mut done = Vec::new();
        let mut finish =
            |p: Pending, window: &mut Window, rec: &mut Records, done: &mut Vec<Done>| {
                let response = p.ticket.wait();
                let latency = p.ticket.latency().unwrap_or_default();
                let served = match response {
                    Ok(served) => served,
                    Err(e) => return window.fail(format!("{}: {e}", cases[p.case].name)),
                };
                let kind = match (served.repaired, served.memo_hit) {
                    (true, _) => Kind::Repair,
                    (false, true) => Kind::Hit,
                    (false, false) => Kind::Lead,
                };
                // Memo hits share their leader's plan object: each distinct one
                // is compared with the reference once.
                if kind != Kind::Repair && !solved.contains_key(&Arc::as_ptr(&served.plan)) {
                    if let Err(e) = identical_to_reference(&cases[p.case], &served.plan.result) {
                        return window.fail(e);
                    }
                    solved.insert(
                        Arc::as_ptr(&served.plan),
                        (p.case, Arc::clone(&served.plan)),
                    );
                    rec.objectives.entry(p.case).or_insert_with(|| {
                        objective_of(&served.plan.result.schedule, &Weights::default())
                    });
                }
                let latency_ms = latency.as_secs_f64() * 1e3;
                let service_ms = served.service_s * 1e3;
                if let Some(tr) = tracer {
                    let end = p.submitted + latency;
                    let wait_end = end - Duration::from_secs_f64(served.service_s).min(latency);
                    let root = tr.record("serve.request", p.request, None, p.submitted, end);
                    tr.record(
                        "server.queue_wait",
                        p.request,
                        Some(root),
                        p.submitted,
                        wait_end,
                    );
                    let service = match kind {
                        Kind::Hit => "server.service.hit",
                        Kind::Lead => "server.service.lead",
                        Kind::Repair => "server.service.repair",
                    };
                    tr.record(service, p.request, Some(root), wait_end, end);
                }
                window.latencies_ms.push(latency_ms);
                let p = &served.plan.result.pipeline;
                done.push(Done {
                    kind,
                    latency_ms,
                    service_ms,
                    repair: (kind == Kind::Repair).then_some(RepairStats {
                        cache_served: p.repair_cache_served,
                        invalidated_analyses: p.repair_invalidated_analyses,
                        reach_recomputed: p.repair_reach_recomputed,
                    }),
                });
            };
        for (case, request) in requests {
            while pending.len() >= WINDOW {
                match pending
                    .iter()
                    .position(|p| p.ticket.try_response().is_some())
                {
                    Some(i) => {
                        let p = pending.remove(i).expect("position is in range");
                        finish(p, &mut window, &mut rec, &mut done);
                    }
                    None => std::thread::sleep(POLL),
                }
            }
            if matches!(request, ServeRequest::Repair { .. }) {
                repaired.push(case);
            }
            window.attempted += 1;
            let submitted = Instant::now();
            match server.submit(request) {
                Ok(ticket) => pending.push_back(Pending {
                    case,
                    ticket,
                    submitted,
                    request: next_request,
                }),
                Err(shed) => window.fail(format!(
                    "{}: refused at admission: {shed}",
                    cases[case].name
                )),
            }
            next_request += 1;
        }
        let full_window_s = start.elapsed().as_secs_f64();
        let full_window_completed = window.latencies_ms.len() - served_before;
        while let Some(p) = pending.pop_front() {
            finish(p, &mut window, &mut rec, &mut done);
        }
        active += start.elapsed();
        window.completed += full_window_completed;
        window.seconds += full_window_s;
        rec.round_rates
            .push(full_window_completed as f64 / full_window_s.max(1e-9));
        rec.done.extend(done);
        rec.rounds.push(server.stats());

        // Every distinct solve plan object re-verified on its instance.
        for (case, plan) in solved.values() {
            let c = &cases[*case];
            let chip = &c.synthesis.chip;
            let schedule = &plan.result.schedule;
            if pdw_sim::validate(chip, &c.bench.graph, schedule).is_err()
                || !pdw_sim::propagate(chip, &c.bench.graph, schedule).is_clean()
            {
                window.fail(format!("{}: served plan fails re-verification", c.name));
            }
        }
        // Each repair session's terminal plan: valid and clean on the
        // session's mutated chip, and bit-identical to a cold solve of it.
        repaired.sort_unstable();
        repaired.dedup();
        for case in repaired {
            let c = &cases[case];
            match server.repair_state(&pool[case]) {
                Some((synthesis, Some(last))) => {
                    let graph = &c.bench.graph;
                    let cold = pathdriver_wash::plan_resilient(&c.bench, &synthesis, &planner);
                    let ok = pdw_sim::validate(&synthesis.chip, graph, &last.schedule).is_ok()
                        && pdw_sim::propagate(&synthesis.chip, graph, &last.schedule).is_clean()
                        && cold.served.is_some_and(|w| w.schedule == last.schedule);
                    if !ok {
                        window.fail(format!(
                            "{}: terminal repair plan fails verification",
                            c.name
                        ));
                    }
                }
                _ => window.fail(format!("{}: repair session holds no terminal plan", c.name)),
            }
        }
        server.shutdown();
        round += 1;
        between(active.as_secs_f64() / seconds);
    }
    (window, rec)
}

/// The server and repair layer metrics of the traced rounds.
fn serve_layers(rec: &Records, layers: &mut Layers) {
    let of = |kind: Kind, f: &dyn Fn(&Done) -> f64| -> Vec<f64> {
        rec.done.iter().filter(|d| d.kind == kind).map(f).collect()
    };
    let waits: Vec<f64> = rec
        .done
        .iter()
        .map(|d| (d.latency_ms - d.service_ms).max(0.0))
        .collect();
    layers.insert(l::QUEUE_WAIT_P50_MS, percentile(&waits, 0.5));
    layers.insert(l::QUEUE_WAIT_P99_MS, percentile(&waits, 0.99));
    layers.insert(l::SERVICE_HIT_MS, mean(&of(Kind::Hit, &|d| d.service_ms)));
    layers.insert(l::SERVICE_LEAD_MS, mean(&of(Kind::Lead, &|d| d.service_ms)));
    let hits = of(Kind::Hit, &|_| 1.0).len() as f64;
    let leads = of(Kind::Lead, &|_| 1.0).len() as f64;
    if hits + leads > 0.0 {
        layers.insert(l::MEMO_HIT_RATIO, hits / (hits + leads));
    }
    let per_round = |f: &dyn Fn(&ServeStats) -> u64| {
        mean(&rec.rounds.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
    };
    layers.insert(l::SOLVES, per_round(&|s| s.solves));
    layers.insert(l::LRU_WARM_HITS, per_round(&|s| s.lru_warm_hits));
    layers.insert(l::LRU_MISSES, per_round(&|s| s.lru_misses));
    layers.insert(l::SHED, per_round(&|s| s.shed));
    let repairs = of(Kind::Repair, &|d| d.service_ms);
    if !repairs.is_empty() {
        let stat = |f: &dyn Fn(&RepairStats) -> f64| {
            mean(
                &rec.done
                    .iter()
                    .filter_map(|d| d.repair.as_ref())
                    .map(f)
                    .collect::<Vec<_>>(),
            )
        };
        layers.insert(l::SERVICE_REPAIR_MS, mean(&repairs));
        layers.insert(l::REPAIR_P50_MS, percentile(&repairs, 0.5));
        layers.insert(l::REPAIR_P99_MS, percentile(&repairs, 0.99));
        layers.insert(
            l::REPAIR_CACHE_SERVED,
            stat(&|r| f64::from(u8::from(r.cache_served))),
        );
        layers.insert(
            l::REPAIR_INVALIDATED,
            stat(&|r| r.invalidated_analyses as f64),
        );
        layers.insert(l::REPAIR_REACH, stat(&|r| r.reach_recomputed as f64));
    }
}

/// Serial replay of every distinct instance through the public calls a
/// cold memo leader makes — `Instance::new`, then `plan_resilient_ctx` on
/// a fresh context, then the `pdw-sim` gate — to split a cold solve by
/// layer without the two workers' interleaving (and with exact routing
/// counters, which are process-global).
fn replay(
    cases: &[Case],
    config: &PdwConfig,
    tracer: &Tracer,
    window: &mut Window,
    layers: &mut Layers,
) {
    let solve = |c: &Case| {
        let mut ctx = PlanContext::from_parts(&c.bench, &c.synthesis, ContextParts::default());
        plan_resilient_ctx(&mut ctx, config)
    };
    let mut hash_ms = Vec::with_capacity(cases.len());
    let mut calls = Vec::with_capacity(cases.len());
    for (i, c) in cases.iter().enumerate() {
        let request = REPLAY_REQUEST_BASE + i as u64;
        let (bench, synthesis) = (c.bench.clone(), c.synthesis.clone());
        let (_, ms) = timed(Some(tracer), "codec.instance_hash", request, None, || {
            Instance::new(bench, synthesis)
        });
        hash_ms.push(ms);
        let (call, verdict) = plan_once(
            cases,
            i,
            request,
            Some(tracer),
            &solve,
            &identical_to_reference,
        );
        if let Err(e) = verdict {
            window.fail(format!("replay: {e}"));
        }
        calls.push(call);
    }
    layers.insert(l::INSTANCE_HASH_MS, mean(&hash_ms));
    ladder_layers(&calls, 1, layers);
}

/// Builds the outcome of a serving workload.
fn serve_outcome(
    ctx: &RunCtx,
    cases: &[Case],
    pool: &[Arc<Instance>],
    traffic: &Traffic,
    mut setups: Setups,
    log: &SetupLog,
) -> Outcome {
    let windows = workloads::measure(ctx, &mut setups, |seconds, tracer, between| {
        rounds(cases, pool, traffic, ctx.seed, seconds, tracer, between)
    });
    let setup_s = setups.finish();
    let (window, rec) = windows.untraced;
    let mut layers = Layers::new();
    let (traced, tracer) = match windows.traced {
        Some((mut traced, traced_rec, tracer)) => {
            workloads::setup_layers(log, &mut layers);
            serve_layers(&traced_rec, &mut layers);
            replay(
                cases,
                &inputs::serve_planner(),
                &tracer,
                &mut traced,
                &mut layers,
            );
            (Some(traced), Some(tracer))
        }
        None => (None, None),
    };
    let round = traffic.round(pool, 0);
    let instances: BTreeSet<usize> = round.iter().map(|(case, _)| *case).collect();
    let repairs = round
        .iter()
        .filter(|(_, r)| matches!(r, ServeRequest::Repair { .. }))
        .count();
    let rates = sorted(&rec.round_rates);
    let mut notes = vec![
        format!(
            "each round: {} requests over {} instances, {repairs} of them repair deltas",
            round.len(),
            instances.len(),
        ),
        format!(
            "{} rounds, full-window rates: slowest {:.2}, median {:.2}, fastest {:.2} /s",
            rates.len(),
            rates.first().copied().unwrap_or_default(),
            median(&rates),
            rates.last().copied().unwrap_or_default(),
        ),
    ];
    notes.extend(workloads::unservable_note(log));
    Outcome {
        setup_s,
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

/// Wraps screened cases as server instances (hashing is part of set-up).
fn instances(cases: &[Case]) -> Vec<Arc<Instance>> {
    cases
        .iter()
        .map(|c| Arc::new(Instance::new(c.bench.clone(), c.synthesis.clone())))
        .collect()
}

/// Sets up, measures and reports one serving workload.
fn serve(
    ctx: &RunCtx,
    build: impl Fn() -> (Vec<Case>, SetupLog),
    traffic: impl Fn(&[Arc<Instance>]) -> Traffic,
) -> Outcome {
    let with_pool = || {
        let (cases, log) = build();
        let pool = instances(&cases);
        let traffic = traffic(&pool);
        (cases, pool, traffic, log)
    };
    let (setups, (cases, pool, traffic, log)) = Setups::start(with_pool);
    serve_outcome(ctx, &cases, &pool, &traffic, setups, &log)
}

/// `serve-solve`: the read path. Solve-only traffic, 80% of it re-asking
/// an instance already seen, over 128 generated instances — far more than
/// the 8-entry context LRU holds.
pub fn solve(ctx: &RunCtx) -> Outcome {
    let planner = inputs::serve_planner();
    let build = || {
        let mut log = SetupLog::default();
        (inputs::generated_cases(SOLVE_POOL, &mut log, &planner), log)
    };
    serve(ctx, build, |_| Traffic::Reads)
}

/// `serve-repair`: the write path. Over the bundled instances, 95% of
/// requests revisit a seen instance and half of those are repair deltas,
/// which mutate per-instance sessions under their mutex.
pub fn repair(ctx: &RunCtx) -> Outcome {
    let planner = inputs::serve_planner();
    let build = || {
        let mut log = SetupLog::default();
        (inputs::bundled_cases(&mut log, &planner), log)
    };
    serve(ctx, build, |pool| Traffic::Script(script(pool)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each request's instance and kind, with the repair delta spelled out.
    fn shape(requests: &[(usize, ServeRequest)]) -> Vec<(usize, String)> {
        requests
            .iter()
            .map(|(case, r)| {
                let kind = match r {
                    ServeRequest::Solve { .. } => "solve".to_string(),
                    ServeRequest::Repair { delta, .. } => format!("{delta:?}"),
                };
                (*case, kind)
            })
            .collect()
    }

    /// The requests of one instance, in arrival order.
    fn of_case(shape: &[(usize, String)], case: usize) -> Vec<String> {
        shape
            .iter()
            .filter(|(c, _)| *c == case)
            .map(|(_, k)| k.clone())
            .collect()
    }

    fn pool() -> Vec<Arc<Instance>> {
        inputs::bundled(&mut SetupLog::default())
            .into_iter()
            .map(|(b, s)| Arc::new(Instance::new(b, s)))
            .collect()
    }

    #[test]
    fn repair_rounds_ask_the_same_requests_in_a_seeded_order() {
        let pool = pool();
        let traffic = Traffic::Script(script(&pool));
        let a = shape(&traffic.round(&pool, inputs::mix(3, 0)));
        assert_eq!(a.len(), REPAIR_ROUND);
        assert_eq!(
            a,
            shape(&Traffic::Script(script(&pool)).round(&pool, inputs::mix(3, 0)))
        );
        for other in [inputs::mix(4, 0), inputs::mix(3, 1)] {
            let b = shape(&traffic.round(&pool, other));
            assert_ne!(a, b, "another seed or round reorders the traffic");
            for case in 0..pool.len() {
                assert_eq!(
                    of_case(&a, case),
                    of_case(&b, case),
                    "each instance keeps its own order"
                );
            }
        }
        assert!(
            a.iter().any(|(_, kind)| kind != "solve"),
            "repair traffic carries deltas"
        );
        assert!(
            (0..pool.len()).all(|case| of_case(&a, case)[0] == "solve"),
            "an instance starts cold"
        );
    }

    #[test]
    fn read_rounds_solve_every_instance_cold_once_through_the_round() {
        let pool = pool();
        let a = shape(&Traffic::Reads.round(&pool, 7));
        assert_eq!(a, shape(&Traffic::Reads.round(&pool, 7)));
        assert_ne!(a, shape(&Traffic::Reads.round(&pool, 8)));
        assert_eq!(a.len(), pool.len() * COLD_EVERY);
        let mut seen = BTreeSet::new();
        for (k, (case, kind)) in a.iter().enumerate() {
            assert_eq!(kind, "solve");
            // A request is an instance's first exactly at the cold positions.
            assert_eq!(seen.insert(*case), k % COLD_EVERY == 0, "request {k}");
        }
        assert_eq!(seen.len(), pool.len());
    }
}
