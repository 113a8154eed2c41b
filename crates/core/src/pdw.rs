//! The PathDriver-Wash pipeline.

use std::fmt;

use pdw_assay::benchmarks::Benchmark;
use pdw_contam::{verify_clean, Classification, CleanlinessViolation, NecessityOptions};
use pdw_sched::Schedule;
use pdw_sim::{validate, Metrics, SimError};
use pdw_synth::Synthesis;

use crate::config::{CandidatePolicy, PdwConfig};
use crate::context::{FrontEndKey, PlanContext};
use crate::deadline::Deadline;
use crate::greedy::insert_washes_protected;
use crate::groups::{merge_groups_pooled, spot_cluster_groups_pooled};
use crate::model::{refine_with_ilp, IlpMiss};
use crate::par::par_map_ctx;
use crate::stats::{PipelineStats, StageTimer};

/// How the final schedule was obtained.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverReport {
    /// Whether the ILP produced the returned schedule (`false` = greedy).
    pub used_ilp: bool,
    /// Whether the ILP proved optimality within its budget.
    pub optimal: bool,
    /// Branch-and-bound nodes processed (0 for greedy).
    pub nodes: u64,
    /// Detailed solver counters and timings (`None` when the ILP never ran
    /// or its refinement was rejected).
    pub stats: Option<pdw_ilp::SolverStats>,
}

impl SolverReport {
    /// A report for a schedule produced without the ILP.
    pub fn greedy() -> Self {
        SolverReport {
            used_ilp: false,
            optimal: false,
            nodes: 0,
            stats: None,
        }
    }
}

/// The outcome of a wash optimization run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WashResult {
    /// The optimized, validated, contamination-free schedule.
    pub schedule: Schedule,
    /// The paper's metrics for this schedule.
    pub metrics: Metrics,
    /// `(Type 1, Type 2, Type 3)` exemption counts from the necessity
    /// analysis.
    pub exemptions: (usize, usize, usize),
    /// Number of excess removals integrated into washes (ψ = 1 count).
    pub integrated: usize,
    /// Solver diagnostics.
    pub solver: SolverReport,
    /// Per-stage wall times and routing-effort counters. Stages served from
    /// a warm [`PlanContext`] cache (e.g. `necessity_s` on the second
    /// planner sharing a context) report the time actually spent, ≈0.
    pub pipeline: PipelineStats,
}

impl WashResult {
    /// The paper's objective `α·N_wash + β·L_wash + γ·T_assay` (Eq. 26).
    pub fn objective(&self, w: &crate::config::Weights) -> f64 {
        w.objective(&self.metrics)
    }
}

/// Failure modes of wash optimization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PdwError {
    /// The produced schedule violates a physical constraint (internal
    /// invariant breach — please report).
    Invalid(SimError),
    /// The produced schedule still lets a delivery cross residue (internal
    /// invariant breach — please report).
    Dirty(CleanlinessViolation),
    /// The chip could not be partitioned as requested (e.g. a cut would
    /// sever a device footprint, or zero regions were asked for).
    Partition(String),
}

impl fmt::Display for PdwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PdwError::Invalid(e) => write!(f, "optimized schedule is invalid: {e}"),
            PdwError::Dirty(v) => write!(f, "optimized schedule is contaminated: {v}"),
            PdwError::Partition(msg) => write!(f, "chip partitioning failed: {msg}"),
        }
    }
}

impl std::error::Error for PdwError {}

pub(crate) fn finish(
    bench: &Benchmark,
    synthesis: &Synthesis,
    schedule: Schedule,
    exemptions: (usize, usize, usize),
    integrated: usize,
    solver: SolverReport,
    pipeline: PipelineStats,
) -> Result<WashResult, PdwError> {
    validate(&synthesis.chip, &bench.graph, &schedule).map_err(PdwError::Invalid)?;
    verify_clean(&synthesis.chip, &bench.graph, &schedule).map_err(PdwError::Dirty)?;
    let metrics = Metrics::measure(&bench.graph, &schedule);
    Ok(WashResult {
        schedule,
        metrics,
        exemptions,
        integrated,
        solver,
        pipeline,
    })
}

/// Runs PathDriver-Wash: necessity analysis, wash grouping/merging, greedy
/// warm start, and ILP refinement of wash paths and time windows.
///
/// This is the one-shot wrapper: it builds a throwaway [`PlanContext`] for
/// the instance. Callers solving an instance more than once — DAWO beside
/// PDW, several configurations — should build one context and call
/// [`pdw_ctx`] (and [`dawo_ctx`](crate::dawo_ctx)) on it instead, so the
/// necessity analysis and routing state are computed once.
///
/// # Errors
///
/// Returns [`PdwError`] only if an internal invariant is broken — every
/// returned schedule has passed [`pdw_sim::validate`] and
/// [`pdw_contam::verify_clean`].
pub fn pdw(
    bench: &Benchmark,
    synthesis: &Synthesis,
    config: &PdwConfig,
) -> Result<WashResult, PdwError> {
    let mut ctx = PlanContext::new(bench, synthesis);
    pdw_ctx(&mut ctx, config)
}

/// The PathDriver-Wash pipeline against a (possibly warm) [`PlanContext`];
/// `config.ilp: false` stops it at its greedy warm start. The result is a
/// pure function of `(instance, config)` — context warmth only changes
/// wall time — except where a budget-bound ILP search stops.
///
/// # Errors
///
/// As [`pdw`].
pub fn pdw_ctx(ctx: &mut PlanContext<'_>, config: &PdwConfig) -> Result<WashResult, PdwError> {
    let bench = ctx.bench();
    let synthesis = ctx.synthesis();
    let mut timer = StageTimer::start(config.threads);
    let deadline = Deadline::start(config.pipeline_budget);

    let necessity = if config.necessity_analysis {
        NecessityOptions::full()
    } else {
        NecessityOptions::reuse_only()
    };
    timer.stats.necessity_s = ctx.ensure_analysis(necessity);
    let exemptions = {
        let analysis = ctx.analysis(necessity);
        (
            analysis.count(Classification::Type1Unused),
            analysis.count(Classification::Type2SameFluid),
            analysis.count(Classification::Type3WasteOnly),
        )
    };

    // Deadline checkpoint: if the budget is already gone, cut the front end
    // over to its cheapest variant — one candidate per group, no merging —
    // so even a zero-budget run returns a (degraded but valid) plan.
    let degraded = deadline.expired();
    if degraded {
        timer.stats.deadline_expired = true;
        timer.stats.degraded_front_end = true;
    }
    let candidates = if degraded { 1 } else { config.candidates };
    let merging = if degraded { false } else { config.merging };

    // The front-end groups are a pure function of the instance and these
    // config fields (thread counts are result-invariant), so a warm context
    // serves them as a clone instead of re-routing every candidate path.
    let key = FrontEndKey {
        necessity,
        policy: CandidatePolicy::Shortest,
        candidates,
        merged: merging,
    };
    let mut groups = match ctx.front_end(key) {
        // Cache hit: the clone is charged to the grouping stage, which then
        // reports ≈0 — exactly the time actually spent.
        Some(cached) => timer.stage(|s| &mut s.grouping_s, || cached.to_vec()),
        None => {
            let analysis = ctx.analysis(necessity);
            let pool = ctx.scratch_pool();
            let groups = timer.stage(
                |s| &mut s.grouping_s,
                || {
                    // Work at spot-cluster granularity (fine washes schedule
                    // concurrently far more easily), then let merging coarsen
                    // only where it pays off.
                    spot_cluster_groups_pooled(
                        &synthesis.chip,
                        &synthesis.schedule,
                        &analysis.requirements,
                        CandidatePolicy::Shortest,
                        candidates,
                        config.threads,
                        pool,
                    )
                },
            );
            let groups = timer.stage(
                |s| &mut s.merge_s,
                || {
                    if merging {
                        merge_groups_pooled(
                            &synthesis.chip,
                            &synthesis.schedule,
                            groups,
                            candidates,
                            false,
                            pool,
                        )
                    } else {
                        groups
                    }
                },
            );
            ctx.store_front_end(key, groups.clone());
            groups
        }
    };
    if config.exact_paths {
        // Deadline checkpoint: exact-path solves are the most expensive
        // optional stage; an expired deadline drops them outright, and a
        // live one clamps each solve to the time remaining.
        if deadline.expired() {
            timer.stats.deadline_expired = true;
            timer.stats.exact_paths_skipped = true;
        } else {
            let exact_budget = deadline.clamp(config.ilp_budget);
            // One budget-bound flow-ILP solve per group, fanned across
            // workers; each group's refinement is independent and results
            // apply in input order, so the outcome matches the serial loop.
            let exacts = par_map_ctx(
                &groups,
                config.threads,
                || (),
                |(), _, g| {
                    let warm = g.candidates[0].path.clone();
                    crate::exact_path::exact_wash_path(
                        &synthesis.chip,
                        &g.targets(),
                        Some(&warm),
                        exact_budget,
                    )
                },
            );
            timer.stats.exact_path_giveups = exacts.iter().filter(|e| e.is_none()).count();
            for (g, exact) in groups.iter_mut().zip(exacts) {
                if let Some(exact) = exact {
                    if exact.path.len() < g.candidates[0].path.len() {
                        g.candidates.insert(0, exact);
                        g.candidates.truncate(candidates.max(1));
                    }
                }
            }
        }
    }

    // Only provably-safe removals may be integrated away: deleting a
    // removal that witnesses a Type-2/3 exemption would re-expose residue
    // unless a wash already covers the cell (`Analysis::deletable`).
    let analysis = ctx.analysis(necessity);
    let protected: std::collections::HashSet<pdw_sched::TaskId> = synthesis
        .schedule
        .tasks()
        .filter(|(_, t)| t.kind().is_waste_disposal())
        .map(|(id, _)| id)
        .filter(|id| !analysis.deletable.contains(id))
        .collect();
    let greedy = timer.stage(
        |s| &mut s.greedy_s,
        || {
            insert_washes_protected(
                &synthesis.chip,
                &synthesis.schedule,
                &groups,
                config.integration,
                &protected,
            )
        },
    );
    let integrated = greedy.integrated.len();
    timer.stats.groups = greedy.groups.len();
    timer.stats.candidates = greedy.groups.iter().map(|g| g.candidates.len()).sum();

    if config.ilp {
        // Deadline checkpoint: skip the back-end outright once expired;
        // otherwise clamp its budget to the pipeline time remaining.
        if deadline.expired() {
            timer.stats.deadline_expired = true;
            timer.stats.ilp_skipped = true;
        } else {
            let ilp_config = PdwConfig {
                ilp_budget: deadline.clamp(config.ilp_budget),
                ..config.clone()
            };
            let refined = timer.stage(
                |s| &mut s.ilp_s,
                || {
                    refine_with_ilp(
                        &synthesis.chip,
                        &bench.graph,
                        &greedy.groups,
                        &greedy,
                        &ilp_config,
                    )
                },
            );
            let refined = match refined {
                Ok(refined) => Some(refined),
                Err(IlpMiss::Refused { rows, cols }) => {
                    timer.stats.ilp_refused_model = Some((rows, cols));
                    None
                }
                Err(IlpMiss::Unsolved) => None,
            };
            if let Some(refined) = refined {
                timer.stats.ilp_budget_expired = !refined.optimal;
                let report = SolverReport {
                    used_ilp: true,
                    optimal: refined.optimal,
                    nodes: refined.nodes,
                    stats: Some(refined.stats),
                };
                // The ILP schedule must independently pass validation; on any
                // breach, fall back to the (always valid) greedy schedule.
                if let Ok(result) = finish(
                    bench,
                    synthesis,
                    refined.schedule,
                    exemptions,
                    integrated,
                    report,
                    timer.seal(),
                ) {
                    // Only adopt the refinement when it does not regress the
                    // paper's objective (floor-rounding can cost a second).
                    let greedy_metrics = Metrics::measure(&bench.graph, &greedy.schedule);
                    let w = &config.weights;
                    if result.objective(w) <= w.objective(&greedy_metrics) {
                        return Ok(result);
                    }
                }
            }
            // Any fall-through means the refinement was not served.
            timer.stats.ilp_rejected = true;
        }
    }

    finish(
        bench,
        synthesis,
        greedy.schedule,
        exemptions,
        integrated,
        SolverReport::greedy(),
        timer.seal(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    #[test]
    fn demo_pdw_produces_clean_valid_schedule() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let r = pdw(&bench, &s, &PdwConfig::default()).unwrap();
        assert!(r.metrics.n_wash > 0);
        assert!(r.metrics.l_wash_mm > 0.0);
    }

    #[test]
    fn planners_share_a_context_without_changing_results() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };

        // Cold one-shot calls.
        let cold_dawo = crate::dawo(&bench, &s).unwrap();
        let cold_greedy = pdw(&bench, &s, &config).unwrap();

        // The same solves through one shared context.
        let mut ctx = PlanContext::new(&bench, &s);
        let warm_dawo = crate::dawo_ctx(&mut ctx).unwrap();
        let warm_greedy = pdw_ctx(&mut ctx, &config).unwrap();
        // Re-running the greedy pipeline hits every cache; still identical.
        let warm_greedy2 = pdw_ctx(&mut ctx, &config).unwrap();

        assert_eq!(warm_dawo.schedule, cold_dawo.schedule);
        assert_eq!(warm_dawo.metrics, cold_dawo.metrics);
        assert_eq!(warm_greedy.schedule, cold_greedy.schedule);
        assert_eq!(warm_greedy.metrics, cold_greedy.metrics);
        assert_eq!(warm_greedy2.schedule, cold_greedy.schedule);
        // Two distinct analyses were cached: reuse-only (DAWO) + full. The
        // same goes for the front ends (DAWO's nearest-policy groups + the
        // greedy pipeline's — the re-run was served from the cache).
        assert_eq!(ctx.cached_analyses(), 2);
        assert_eq!(ctx.cached_front_ends(), 2);
    }

    #[test]
    fn necessity_analysis_reduces_wash_count() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let full = pdw(&bench, &s, &PdwConfig::default()).unwrap();
        let no_necessity = pdw(
            &bench,
            &s,
            &PdwConfig {
                necessity_analysis: false,
                ..PdwConfig::default()
            },
        )
        .unwrap();
        assert!(full.metrics.n_wash <= no_necessity.metrics.n_wash);
    }

    #[test]
    fn greedy_only_mode_skips_the_solver() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let r = pdw(
            &bench,
            &s,
            &PdwConfig {
                ilp: false,
                ..PdwConfig::default()
            },
        )
        .unwrap();
        assert!(!r.solver.used_ilp);
    }

    /// A 60-operation synthetic assay's ILP (27,504 rows × 2,333 columns,
    /// 64M tableau entries) is over the size guard and refused before
    /// solving; the served greedy plan names the refused model's size.
    #[test]
    fn refused_ilp_model_is_named_in_the_degradation_events() {
        let spec = pdw_assay::synthetic::SyntheticSpec {
            name: "oversized-ilp".into(),
            ops: 60,
            edges: 80,
            devices: 10,
            seed: 1,
            grid: (25, 25),
        };
        let (bench, s) = pdw_gen::instance(&spec).expect("spec synthesizes");
        let r = pdw(&bench, &s, &PdwConfig::default()).unwrap();
        assert!(!r.solver.used_ilp);
        assert_eq!(r.solver.stats, None);
        assert_eq!(r.pipeline.ilp_refused_model, Some((27504, 2333)));
        let events = r.pipeline.degradation_events();
        assert!(
            events
                .iter()
                .any(|e| e.starts_with("ILP refinement rejected (a 27504-row × 2333-column")),
            "{events:?}"
        );
    }

    /// Kinase act-2, the largest Table II model (12,715 rows × 1,670
    /// columns), is admitted: the ILP searches it within a short budget
    /// and the served plan validates.
    #[test]
    fn kinase_act_2_ilp_is_searched_and_serves_a_valid_plan() {
        let bench = benchmarks::kinase_act_2();
        let s = synthesize(&bench).unwrap();
        let r = pdw(
            &bench,
            &s,
            &PdwConfig {
                ilp_budget: std::time::Duration::from_secs(1),
                ..PdwConfig::default()
            },
        )
        .unwrap();
        assert!(r.solver.used_ilp);
        assert!(r.solver.stats.is_some());
        assert_eq!(r.pipeline.ilp_refused_model, None);
        validate(&s.chip, &bench.graph, &r.schedule).unwrap();
    }

    #[test]
    fn zero_pipeline_budget_degrades_deterministically() {
        // A zero pipeline budget must still return a valid plan — the fully
        // degraded front end — bit-identically at any thread count, and the
        // stats must record every degradation taken.
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let run = |threads: usize| {
            pdw(
                &bench,
                &s,
                &PdwConfig {
                    exact_paths: true,
                    threads,
                    pipeline_budget: Some(std::time::Duration::ZERO),
                    ..PdwConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        assert!(serial.pipeline.deadline_expired);
        assert!(serial.pipeline.degraded_front_end);
        assert!(serial.pipeline.exact_paths_skipped);
        assert!(serial.pipeline.ilp_skipped);
        assert!(!serial.solver.used_ilp);
        assert!(!serial.pipeline.degradation_events().is_empty());
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.schedule, serial.schedule, "threads={threads}");
            assert_eq!(par.metrics, serial.metrics);
        }
    }

    #[test]
    fn unlimited_pipeline_budget_changes_nothing() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let base = pdw(
            &bench,
            &s,
            &PdwConfig {
                ilp: false,
                ..PdwConfig::default()
            },
        )
        .unwrap();
        let budgeted = pdw(
            &bench,
            &s,
            &PdwConfig {
                ilp: false,
                pipeline_budget: Some(std::time::Duration::from_secs(3600)),
                ..PdwConfig::default()
            },
        )
        .unwrap();
        assert_eq!(base.schedule, budgeted.schedule);
        assert!(!budgeted.pipeline.deadline_expired);
        assert!(budgeted.pipeline.degradation_events().is_empty());
    }

    #[test]
    fn exact_paths_refinement_is_fanned_out_deterministically() {
        // The parallel exact-path refinement must agree with itself across
        // thread counts (generous budget so the anytime solver converges).
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let run = |threads: usize| {
            pdw(
                &bench,
                &s,
                &PdwConfig {
                    ilp: false,
                    exact_paths: true,
                    threads,
                    ..PdwConfig::default()
                },
            )
            .unwrap()
        };
        let serial = run(1);
        let par = run(8);
        assert_eq!(serial.schedule, par.schedule);
        assert_eq!(serial.metrics, par.metrics);
    }
}
