//! The offline planning workloads: one caller in a closed loop, cold
//! solves (a fresh `PlanContext` per call), whole passes over a fixed set
//! of instances in a seed-derived order.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use pathdriver_wash::verify::objective_of;
use pathdriver_wash::{
    PdwConfig, PipelineStats, PlanOutcome, RungKind, SolverReport, WashResult, Weights,
};
use pdw_biochip::RoutingCounters;

use crate::inputs::{self, Case, SetupLog};
use crate::layers::{self as l, Layers};
use crate::stats::mean;
use crate::trace::{timed, Tracer};
use crate::workloads::{self, Between, Outcome, RunCtx, Setups, Window};

/// Generated instances in the `plan-corpus` workload (next to the 9
/// bundled ones).
const CORPUS_GENERATED: usize = 64;
/// `plan-ilp`: the ILP budget per solve. Every `plan-ilp` instance is one
/// whose ILP proves optimality well within it (see [`inputs::ilp_cases`]),
/// so a solve's time is the branch and bound's, not the budget's.
const ILP_BUDGET: Duration = Duration::from_secs(1);
/// `plan-mega`: instances, and regions per `plan_partitioned` call.
const MEGA_INSTANCES: usize = 4;
const MEGA_REGIONS: usize = 4;

/// One timed plan call and what the program reported about it.
pub struct PlanCall {
    pub case: usize,
    pub latency_ms: f64,
    pub rung: Option<RungKind>,
    pub rejections: usize,
    pub pipeline: PipelineStats,
    pub solver: Option<SolverReport>,
    pub objective: f64,
    pub validate_ms: f64,
    pub propagate_ms: f64,
    pub routing: RoutingCounters,
}

/// Solves `cases[index]` once with `solve`, timing it from outside, then
/// runs the correctness gate on the served plan: `pdw_sim::validate` and
/// the `propagate` oracle (each its own span), the Eq. 26 objective
/// recomputed by `verify::objective_of`, and the workload's own `check`.
///
/// The routing counters are process-global: their delta is exact only
/// while nothing else plans, which holds for every caller of this function.
pub fn plan_once(
    cases: &[Case],
    index: usize,
    request: u64,
    tracer: Option<&Tracer>,
    solve: &dyn Fn(&Case) -> PlanOutcome,
    check: &dyn Fn(&Case, &WashResult) -> Result<(), String>,
) -> (PlanCall, Result<(), String>) {
    let case = &cases[index];
    let root = tracer.map(Tracer::reserve);
    let before = pdw_biochip::routing_counters();
    let t0 = Instant::now();
    let outcome = solve(case);
    let t1 = Instant::now();
    let routing = pdw_biochip::routing_counters() - before;
    let mut call = PlanCall {
        case: index,
        latency_ms: (t1 - t0).as_secs_f64() * 1e3,
        rung: outcome.rung,
        rejections: outcome
            .attempts
            .iter()
            .filter(|a| a.rejection.is_some())
            .count(),
        pipeline: PipelineStats::default(),
        solver: None,
        objective: 0.0,
        validate_ms: 0.0,
        propagate_ms: 0.0,
        routing,
    };
    let Some(result) = outcome.served else {
        let why = outcome
            .attempts
            .iter()
            .filter_map(|a| a.rejection.as_ref().map(|r| format!("{}: {r}", a.rung)))
            .collect::<Vec<_>>()
            .join("; ");
        return (call, Err(format!("{}: unservable ({why})", case.name)));
    };
    if let (Some(tr), Some(root)) = (tracer, root) {
        let ladder = tr.record("ladder", request, Some(root), t0, t1);
        let p = &result.pipeline;
        tr.record_stages(
            request,
            ladder,
            t0,
            t1,
            &[
                ("contam.necessity", p.necessity_s),
                ("frontend.grouping", p.grouping_s),
                ("frontend.merge", p.merge_s),
                ("frontend.greedy", p.greedy_s),
                ("ilp", p.ilp_s),
            ],
        );
    }
    let chip = &case.synthesis.chip;
    let graph = &case.bench.graph;
    let schedule = &result.schedule;
    let (valid, validate_ms) = timed(tracer, "sim.validate", request, root, || {
        pdw_sim::validate(chip, graph, schedule)
    });
    let (oracle, propagate_ms) = timed(tracer, "sim.propagate", request, root, || {
        pdw_sim::propagate(chip, graph, schedule)
    });
    let weights = Weights::default();
    let objective = objective_of(schedule, &weights);
    let verdict = if let Err(e) = valid {
        Err(format!("{}: served plan fails validation: {e}", case.name))
    } else if !oracle.is_clean() {
        Err(format!(
            "{}: served plan fails the oracle: {oracle}",
            case.name
        ))
    } else if objective != result.objective(&weights) {
        Err(format!(
            "{}: objective {} disagrees with its recomputation {objective}",
            case.name,
            result.objective(&weights)
        ))
    } else {
        check(case, &result)
    };
    if let (Some(tr), Some(root)) = (tracer, root) {
        tr.record_as(root, "plan", request, None, t0, Instant::now());
    }
    call.pipeline = result.pipeline;
    call.solver = Some(result.solver);
    call.objective = objective;
    call.validate_ms = validate_ms;
    call.propagate_ms = propagate_ms;
    (call, verdict)
}

/// The gate for deterministic plans: bit-identical to the cold reference.
pub fn identical_to_reference(case: &Case, result: &WashResult) -> Result<(), String> {
    if result.schedule == case.reference.schedule {
        Ok(())
    } else {
        Err(format!(
            "{}: plan differs from its cold reference",
            case.name
        ))
    }
}

/// Whole passes over `cases`, each in a fresh seed-derived order, until
/// `seconds` have elapsed (at least one pass), calling `between` after
/// each pass and leaving its time out of the window. The window's time
/// includes the correctness gate after each call, so its throughput is the
/// caller's rate of checked plans. Returns the window, every call, and the
/// number of passes.
fn passes(
    cases: &[Case],
    seed: u64,
    seconds: f64,
    tracer: Option<&Tracer>,
    between: Between,
    solve: &dyn Fn(&Case) -> PlanOutcome,
    check: &dyn Fn(&Case, &WashResult) -> Result<(), String>,
) -> (Window, (Vec<PlanCall>, usize)) {
    let mut window = Window::default();
    let mut calls = Vec::new();
    let start = Instant::now();
    let mut left_out = 0.0;
    let active = |left_out: f64| start.elapsed().as_secs_f64() - left_out;
    let mut pass = 0usize;
    while pass == 0 || active(left_out) < seconds {
        for index in inputs::permutation(cases.len(), inputs::mix(seed, pass as u64)) {
            let (call, verdict) = plan_once(cases, index, calls.len() as u64, tracer, solve, check);
            window.attempted += 1;
            match verdict {
                Ok(()) => window.latencies_ms.push(call.latency_ms),
                Err(e) => window.fail(e),
            }
            calls.push(call);
        }
        pass += 1;
        left_out += between(active(left_out) / seconds);
    }
    window.seconds = active(left_out);
    window.completed = window.latencies_ms.len();
    (window, (calls, pass))
}

/// The ladder, front-end, routing and `pdw-sim` layer metrics of a set of
/// calls covering `passes` whole passes. Counts are per pass (the calls of
/// a pass are a pure function of the instances); times are per call.
pub fn ladder_layers(calls: &[PlanCall], passes: usize, layers: &mut Layers) {
    let per_call = |f: &dyn Fn(&PlanCall) -> f64| mean(&calls.iter().map(f).collect::<Vec<_>>());
    let per_pass = |f: &dyn Fn(&PlanCall) -> f64| calls.iter().map(f).sum::<f64>() / passes as f64;
    let served = |rung: RungKind| per_pass(&|c| f64::from(u8::from(c.rung == Some(rung))));
    layers.insert(l::NECESSITY_MS, per_call(&|c| c.pipeline.necessity_s * 1e3));
    layers.insert(l::GROUPING_MS, per_call(&|c| c.pipeline.grouping_s * 1e3));
    layers.insert(l::MERGE_MS, per_call(&|c| c.pipeline.merge_s * 1e3));
    layers.insert(l::GREEDY_MS, per_call(&|c| c.pipeline.greedy_s * 1e3));
    layers.insert(l::GROUPS, per_pass(&|c| c.pipeline.groups as f64));
    layers.insert(l::CANDIDATES, per_pass(&|c| c.pipeline.candidates as f64));
    layers.insert(l::ROUTE_CALLS, per_pass(&|c| c.routing.route_calls as f64));
    layers.insert(l::BFS_RUNS, per_pass(&|c| c.routing.bfs_runs as f64));
    layers.insert(
        l::SCRATCH_REUSES,
        per_pass(&|c| c.routing.scratch_reuses as f64),
    );
    layers.insert(l::LADDER_MS, per_call(&|c| c.latency_ms));
    layers.insert(l::SERVED_PDW, served(RungKind::Pdw));
    layers.insert(l::SERVED_GREEDY, served(RungKind::Greedy));
    layers.insert(l::SERVED_DAWO, served(RungKind::Dawo));
    layers.insert(l::REJECTIONS, per_pass(&|c| c.rejections as f64));
    layers.insert(l::VALIDATE_MS, per_call(&|c| c.validate_ms));
    layers.insert(l::PROPAGATE_MS, per_call(&|c| c.propagate_ms));
}

/// The worst objective served per instance, summed.
fn objective_sum(calls: &[PlanCall]) -> (f64, usize) {
    let mut worst: BTreeMap<usize, f64> = BTreeMap::new();
    for c in calls.iter().filter(|c| c.solver.is_some()) {
        let w = worst.entry(c.case).or_insert(c.objective);
        *w = w.max(c.objective);
    }
    (worst.values().sum(), worst.len())
}

/// Assembles the outcome of a plan workload; `extra` adds the workload's
/// own layer metrics from the traced calls.
fn outcome(
    cases: &[Case],
    setup_s: Vec<f64>,
    log: &SetupLog,
    windows: workloads::Windows<(Vec<PlanCall>, usize)>,
    extra: impl FnOnce(&[PlanCall], usize, &mut Layers),
) -> Outcome {
    let (window, (calls, _)) = windows.untraced;
    let (objective_sum, distinct_instances) = objective_sum(&calls);
    let mut layers = Layers::new();
    let mut notes: Vec<String> = workloads::unservable_note(log).into_iter().collect();
    let (traced, tracer) = match windows.traced {
        Some((traced, (calls, passes), tracer)) => {
            workloads::setup_layers(log, &mut layers);
            ladder_layers(&calls, passes, &mut layers);
            extra(&calls, passes, &mut layers);
            let sum = [
                l::NECESSITY_MS,
                l::GROUPING_MS,
                l::MERGE_MS,
                l::GREEDY_MS,
                l::ILP_MS,
                l::VALIDATE_MS,
                l::PROPAGATE_MS,
            ]
            .iter()
            .map(|k| layers.get(k).copied().unwrap_or(0.0))
            .sum::<f64>();
            let latency = layers[l::LADDER_MS];
            notes.push(format!(
                "per plan: necessity + front end + ILP + pdw-sim spans {sum:.3} ms vs plan latency {latency:.3} ms ({:+.1}%)",
                (sum / latency - 1.0) * 100.0
            ));
            let mean_of = |case: usize, f: &dyn Fn(&PlanCall) -> f64| {
                mean(
                    &calls
                        .iter()
                        .filter(|c| c.case == case)
                        .map(f)
                        .collect::<Vec<_>>(),
                )
            };
            if let Some(slowest) = (0..cases.len()).max_by(|&a, &b| {
                mean_of(a, &|c| c.latency_ms).total_cmp(&mean_of(b, &|c| c.latency_ms))
            }) {
                notes.push(format!(
                    "slowest instance {}: {:.3} ms per plan, of it grouping {:.3} ms and merge {:.3} ms",
                    cases[slowest].name,
                    mean_of(slowest, &|c| c.latency_ms),
                    mean_of(slowest, &|c| c.pipeline.grouping_s * 1e3),
                    mean_of(slowest, &|c| c.pipeline.merge_s * 1e3),
                ));
            }
            (Some(traced), Some(tracer))
        }
        None => (None, None),
    };
    Outcome {
        setup_s,
        window,
        peak_rss_mb: windows.peak_rss_mb,
        traced,
        objective_sum,
        distinct_instances,
        layers,
        tracer,
        notes,
    }
}

/// `plan-corpus`: cold `plan_resilient` under the serving config over the
/// bundled instances and the first 64 servable generated ones.
pub fn corpus(ctx: &RunCtx) -> Outcome {
    let config = inputs::serve_planner();
    let build = || {
        let mut log = SetupLog::default();
        let mut cases = inputs::bundled_cases(&mut log, &config);
        cases.extend(inputs::generated_cases(CORPUS_GENERATED, &mut log, &config));
        (cases, log)
    };
    let (mut setups, (cases, log)) = Setups::start(build);
    let solve = |c: &Case| pathdriver_wash::plan_resilient(&c.bench, &c.synthesis, &config);
    let windows = workloads::measure(ctx, &mut setups, |seconds, tracer, between| {
        passes(
            &cases,
            ctx.seed,
            seconds,
            tracer,
            between,
            &solve,
            &identical_to_reference,
        )
    });
    outcome(&cases, setups.finish(), &log, windows, |_, _, _| {})
}

/// `plan-ilp`: the full method (ILP on, 1 thread) over small generated
/// instances whose ILP proves optimality within the budget. Every plan
/// must be proved optimal, with the screening solve's objective. The
/// schedule itself may differ between solves: an instance can have
/// several optimal plans, and in repeated solves of one instance the ILP
/// returned different ones.
pub fn ilp(ctx: &RunCtx) -> Outcome {
    let config = PdwConfig {
        ilp: true,
        ilp_budget: ILP_BUDGET,
        threads: 1,
        ..PdwConfig::default()
    };
    let build = || {
        let mut log = SetupLog::default();
        let cases = inputs::ilp_cases(&mut log, &config);
        (cases, log)
    };
    let (mut setups, (cases, log)) = Setups::start(build);
    let weights = Weights::default();
    let solve = |c: &Case| pathdriver_wash::plan_resilient(&c.bench, &c.synthesis, &config);
    let optimal = |c: &Case, r: &WashResult| {
        let (got, optimum) = (r.objective(&weights), c.reference.objective(&weights));
        if !r.solver.optimal {
            Err(format!(
                "{}: the ILP did not prove optimality within {ILP_BUDGET:?}",
                c.name
            ))
        } else if (got - optimum).abs() > 1e-9 * optimum.abs() {
            Err(format!(
                "{}: optimal objective {got} differs from the screening solve's {optimum}",
                c.name
            ))
        } else {
            Ok(())
        }
    };
    let windows = workloads::measure(ctx, &mut setups, |seconds, tracer, between| {
        passes(&cases, ctx.seed, seconds, tracer, between, &solve, &optimal)
    });
    let greedy_config = PdwConfig {
        ilp: false,
        ..config.clone()
    };
    outcome(
        &cases,
        setups.finish(),
        &log,
        windows,
        |calls, passes, layers| {
            let solver: Vec<&SolverReport> =
                calls.iter().filter_map(|c| c.solver.as_ref()).collect();
            let stats: Vec<_> = solver.iter().filter_map(|s| s.stats.as_ref()).collect();
            let per_pass = |n: usize| n as f64 / passes as f64;
            layers.insert(
                l::ILP_MS,
                mean(
                    &calls
                        .iter()
                        .map(|c| c.pipeline.ilp_s * 1e3)
                        .collect::<Vec<_>>(),
                ),
            );
            layers.insert(
                l::ILP_NODES,
                mean(&solver.iter().map(|s| s.nodes as f64).collect::<Vec<_>>()),
            );
            layers.insert(
                l::ILP_PIVOTS,
                mean(&stats.iter().map(|s| s.lp_pivots as f64).collect::<Vec<_>>()),
            );
            layers.insert(
                l::ILP_FIRST_INCUMBENT_MS,
                mean(
                    &stats
                        .iter()
                        .filter_map(|s| s.time_to_first_incumbent_s)
                        .map(|t| t * 1e3)
                        .collect::<Vec<_>>(),
                ),
            );
            layers.insert(
                l::ILP_ADOPTED,
                per_pass(solver.iter().filter(|s| s.used_ilp).count()),
            );
            // The greedy plan each ILP solve starts from, solved once per
            // instance for the comparison.
            let greedy: Vec<f64> = cases
                .iter()
                .map(|c| {
                    pathdriver_wash::plan_resilient(&c.bench, &c.synthesis, &greedy_config)
                        .served
                        .map_or(f64::INFINITY, |r| r.objective(&weights))
                })
                .collect();
            layers.insert(
                l::ILP_IMPROVED,
                per_pass(
                    calls
                        .iter()
                        .filter(|c| c.solver.is_some() && c.objective < greedy[c.case])
                        .count(),
                ),
            );
            let overrun = calls
                .iter()
                .map(|c| (c.pipeline.ilp_s - ILP_BUDGET.as_secs_f64()).max(0.0) * 1e3)
                .fold(0.0, f64::max);
            layers.insert(l::ILP_OVERRUN_MS, overrun);
        },
    )
}

/// `plan-mega`: `plan_partitioned` with 4 regions on 1 thread over four
/// 41×41, 10-operation `mega` instances; partitioned plans are
/// deterministic, so each is compared bit for bit with the screening
/// solve. The traced run also times one whole-chip (K = 1) solve per
/// instance.
pub fn mega(ctx: &RunCtx) -> Outcome {
    let config = inputs::serve_planner();
    let build = || {
        let mut log = SetupLog::default();
        let cases = inputs::mega_cases(MEGA_INSTANCES, MEGA_REGIONS, &mut log, &config);
        (cases, log)
    };
    let (mut setups, (cases, log)) = Setups::start(build);
    let solve =
        |c: &Case| pathdriver_wash::plan_partitioned(&c.bench, &c.synthesis, &config, MEGA_REGIONS);
    let partitioned = |c: &Case, r: &WashResult| {
        if r.pipeline.partition_regions == 0 {
            return Err(format!("{}: not served by the partitioned rung", c.name));
        }
        identical_to_reference(c, r)
    };
    let windows = workloads::measure(ctx, &mut setups, |seconds, tracer, between| {
        passes(
            &cases,
            ctx.seed,
            seconds,
            tracer,
            between,
            &solve,
            &partitioned,
        )
    });
    outcome(
        &cases,
        setups.finish(),
        &log,
        windows,
        |calls, passes, layers| {
            let per_pass = |f: &dyn Fn(&PipelineStats) -> usize| {
                calls.iter().map(|c| f(&c.pipeline) as f64).sum::<f64>() / passes as f64
            };
            layers.insert(l::REGIONS, per_pass(&|p| p.partition_regions));
            layers.insert(l::REGIONS_SKIPPED, per_pass(&|p| p.regions_skipped));
            layers.insert(l::SEAM_GROUPS, per_pass(&|p| p.seam_groups));
            let whole: Vec<f64> = cases
                .iter()
                .map(|c| {
                    let t = Instant::now();
                    let _ = pathdriver_wash::plan_partitioned(&c.bench, &c.synthesis, &config, 1);
                    t.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            layers.insert(l::WHOLE_CHIP_MS, mean(&whole));
        },
    )
}
