//! The graceful-degradation ladder: (partitioned →) PDW → greedy → DAWO.
//!
//! [`plan_resilient`] and [`plan_partitioned`] are the fault-tolerant entry
//! points of the planner engine, and they share one ladder. It walks the
//! planners from strongest to cheapest — the partitioned pipeline (only
//! when ≥ 2 regions are asked for), the full ILP-refined PathDriver-Wash
//! pipeline, its greedy warm start, the DAWO baseline — under one shared
//! [`Deadline`] and one shared [`PlanContext`], and serves the first rung
//! whose plan passes the plan [`gate`]: *independent* fault-aware
//! re-verification by
//!
//! - [`pdw_sim::validate`] — physical executability, including the chip's
//!   [`FaultSet`](pdw_biochip::FaultSet): a path through a clogged cell, a
//!   stuck valve, or a disabled port is invalid;
//! - [`pdw_sim::propagate`] — the contamination-propagation oracle, which
//!   likewise reports fault crossings.
//!
//! The gate's [`OracleReplay`] travels with the served plan
//! ([`PlanOutcome::replay`]), so a certificate is sealed from it
//! ([`PlanArtifact::sealed`](crate::PlanArtifact::sealed)) without
//! replaying the oracle a second time.
//!
//! Every rung is wrapped in `catch_unwind`, so a planner panic (e.g. an
//! internal assertion tripped by a heavily damaged chip) is converted into
//! a typed [`RungRejection::Panicked`] and the ladder moves on. The
//! partitioned and PDW rungs are skipped with
//! [`RungRejection::DeadlineExpired`] once the deadline has passed; the
//! cheap rungs always run, with a fully-degraded (zero-remaining) budget,
//! so that even a zero deadline still serves a plan when one exists. The
//! returned [`PlanOutcome`] records, for every rung attempted, whether it
//! served or why it was rejected, plus its wall time.
//!
//! `partitions ≤ 1` leaves the partitioned rung out, so
//! [`plan_partitioned`] at `K = 1` is [`plan_resilient`] exactly.
//!
//! Determinism: for budgets `None` and `Some(0)` (and any budget that has
//! certainly expired by the first checkpoint), the outcome's schedule is a
//! pure function of `(instance, config, partitions)` — bit-identical at
//! any thread count. Intermediate budgets race wall clock by design.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;

use crate::codec::{gate, GateRejection, OracleReplay};
use crate::config::PdwConfig;
use crate::context::PlanContext;
use crate::dawo::dawo_ctx;
use crate::deadline::Deadline;
use crate::par::panic_message;
use crate::partition::run_partitioned_pipeline;
use crate::pdw::{pdw_ctx, PdwError, WashResult};

/// A rung of the degradation ladder, strongest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum RungKind {
    /// The partitioned planner: regions planned in parallel, stitched at
    /// the seams (only attempted by [`plan_partitioned`] with ≥ 2
    /// regions).
    Partitioned,
    /// The full PathDriver-Wash pipeline (ILP refinement per the config).
    Pdw,
    /// The pipeline stopped at its greedy warm start (no ILP).
    Greedy,
    /// The DAWO baseline: per-spot washes, independent BFS paths.
    Dawo,
}

impl fmt::Display for RungKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RungKind::Partitioned => "partitioned",
            RungKind::Pdw => "pdw",
            RungKind::Greedy => "greedy",
            RungKind::Dawo => "dawo",
        })
    }
}

/// Why a rung of the ladder did not serve.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum RungRejection {
    /// The pipeline deadline had expired before the rung could start.
    DeadlineExpired,
    /// The rung's planner returned an error (e.g. it could not produce a
    /// valid plan on the faulted chip).
    PlannerError(String),
    /// The rung produced a plan, but independent fault-aware validation
    /// rejected it.
    InvalidPlan(String),
    /// The rung produced a plan, but the contamination-propagation oracle
    /// found violations on it.
    ContaminatedPlan(String),
    /// The rung panicked; the panic was caught and isolated.
    Panicked(String),
}

impl fmt::Display for RungRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RungRejection::DeadlineExpired => write!(f, "deadline expired before the rung started"),
            RungRejection::PlannerError(e) => write!(f, "planner error: {e}"),
            RungRejection::InvalidPlan(e) => write!(f, "plan failed fault-aware validation: {e}"),
            RungRejection::ContaminatedPlan(e) => write!(f, "plan failed the oracle: {e}"),
            RungRejection::Panicked(e) => write!(f, "planner panicked: {e}"),
        }
    }
}

/// One attempted rung of the ladder.
#[derive(Debug, Clone)]
pub struct RungAttempt {
    /// Which rung was attempted.
    pub rung: RungKind,
    /// `None` when this rung's plan was served; otherwise why it wasn't.
    pub rejection: Option<RungRejection>,
    /// Wall time spent on this rung, seconds (0 for skipped rungs).
    pub wall_s: f64,
}

/// The outcome of a resilient solve: which rung (if any) served, and the
/// full audit trail of attempts.
#[derive(Debug, Clone)]
pub struct PlanOutcome {
    /// The served plan, already validated and oracle-clean on the (possibly
    /// faulted) chip. `None` when every rung was rejected.
    pub served: Option<WashResult>,
    /// The gate's oracle replay of the served plan: `Some` exactly when
    /// `served` is. A certificate for the plan is sealed from it.
    pub replay: Option<OracleReplay>,
    /// The rung that served, when one did.
    pub rung: Option<RungKind>,
    /// Every rung attempted, strongest first, each with its disposition.
    pub attempts: Vec<RungAttempt>,
}

impl PlanOutcome {
    /// `true` when some rung served a plan.
    pub fn is_served(&self) -> bool {
        self.served.is_some()
    }

    /// The rejection recorded for `rung`, if that rung was attempted and
    /// rejected.
    pub fn rejection_of(&self, rung: RungKind) -> Option<&RungRejection> {
        self.attempts
            .iter()
            .find(|a| a.rung == rung)
            .and_then(|a| a.rejection.as_ref())
    }
}

impl fmt::Display for PlanOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.rung {
            Some(r) => write!(
                f,
                "served by `{r}` after {} attempt(s)",
                self.attempts.len()
            ),
            None => write!(f, "no rung served ({} attempts)", self.attempts.len()),
        }
    }
}

/// Runs one rung under `catch_unwind`, then puts whatever it produced
/// through the plan [`gate`]. The wall time covers the rung, not the gate.
pub(crate) fn attempt_rung<'a>(
    ctx: &mut PlanContext<'a>,
    rung: impl FnOnce(&mut PlanContext<'a>) -> Result<WashResult, PdwError>,
) -> (Result<(WashResult, OracleReplay), RungRejection>, f64) {
    let t = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| rung(ctx)));
    let wall_s = t.elapsed().as_secs_f64();
    let result = match outcome {
        Err(payload) => return (Err(RungRejection::Panicked(panic_message(payload))), wall_s),
        Ok(Err(e)) => return (Err(RungRejection::PlannerError(e.to_string())), wall_s),
        Ok(Ok(result)) => result,
    };
    // The planner's own checks already ran, but a rung may only serve a
    // plan that the gate finds executable and clean on the chip *as
    // damaged*.
    let gated = match gate(&ctx.synthesis().chip, &ctx.bench().graph, &result.schedule) {
        Ok(replay) => Ok((result, replay)),
        Err(e @ GateRejection::Invalid(_)) => Err(RungRejection::InvalidPlan(e.to_string())),
        Err(e @ GateRejection::Contaminated(_)) => {
            Err(RungRejection::ContaminatedPlan(e.to_string()))
        }
    };
    (gated, wall_s)
}

/// The one degradation ladder (see the [module docs](self)): the rungs
/// `[Partitioned if partitions ≥ 2, Pdw, Greedy, Dawo]` under one
/// [`Deadline`], serving the first whose plan passes the gate.
fn ladder(ctx: &mut PlanContext<'_>, config: &PdwConfig, partitions: usize) -> PlanOutcome {
    const RUNGS: [RungKind; 4] = [
        RungKind::Partitioned,
        RungKind::Pdw,
        RungKind::Greedy,
        RungKind::Dawo,
    ];
    let deadline = Deadline::start(config.pipeline_budget);
    let mut attempts: Vec<RungAttempt> = Vec::new();
    let first = if partitions >= 2 { 0 } else { 1 };
    for &rung in &RUNGS[first..] {
        // The strong rungs are skipped outright once the deadline is gone:
        // their value over the greedy rung is exactly the expensive stages
        // the deadline no longer affords. Greedy and DAWO always run; with
        // zero remaining budget greedy's front end degrades to its
        // cheapest variant, which is precisely the wanted behavior.
        if matches!(rung, RungKind::Partitioned | RungKind::Pdw) && deadline.expired() {
            attempts.push(RungAttempt {
                rung,
                rejection: Some(RungRejection::DeadlineExpired),
                wall_s: 0.0,
            });
            continue;
        }
        let budgeted = PdwConfig {
            pipeline_budget: deadline.remaining(),
            ..config.clone()
        };
        let (gated, wall_s) = attempt_rung(ctx, |ctx| match rung {
            RungKind::Partitioned => run_partitioned_pipeline(ctx, &budgeted, partitions),
            RungKind::Pdw => pdw_ctx(ctx, &budgeted),
            RungKind::Greedy => pdw_ctx(
                ctx,
                &PdwConfig {
                    ilp: false,
                    exact_paths: false,
                    ..budgeted
                },
            ),
            RungKind::Dawo => dawo_ctx(ctx),
        });
        match gated {
            Ok((result, replay)) => {
                attempts.push(RungAttempt {
                    rung,
                    rejection: None,
                    wall_s,
                });
                return PlanOutcome {
                    served: Some(result),
                    replay: Some(replay),
                    rung: Some(rung),
                    attempts,
                };
            }
            Err(rejection) => attempts.push(RungAttempt {
                rung,
                rejection: Some(rejection),
                wall_s,
            }),
        }
    }
    PlanOutcome {
        served: None,
        replay: None,
        rung: None,
        attempts,
    }
}

/// Solves the context's instance with the degradation ladder PDW → greedy
/// → DAWO, serving the first rung whose plan passes the plan
/// [`gate`](crate::codec::gate). `config` configures the strongest rung;
/// the ladder derives the cheaper rungs from it. Never panics.
pub fn plan_resilient_ctx(ctx: &mut PlanContext<'_>, config: &PdwConfig) -> PlanOutcome {
    ladder(ctx, config, 1)
}

/// One-shot wrapper for [`plan_resilient_ctx`]: builds a throwaway
/// [`PlanContext`] for the instance. Never panics.
pub fn plan_resilient(bench: &Benchmark, synthesis: &Synthesis, config: &PdwConfig) -> PlanOutcome {
    let mut ctx = PlanContext::new(bench, synthesis);
    plan_resilient_ctx(&mut ctx, config)
}

/// Solves the context's instance with the partitioned pipeline (see the
/// `partition` module docs) as the ladder's first rung, for
/// `partitions ≥ 2`; on any rejection the PDW → greedy → DAWO rungs take
/// over with the remaining budget. `partitions ≤ 1` is
/// [`plan_resilient_ctx`] exactly — bit-identical output at any thread
/// count. Never panics.
pub fn plan_partitioned_ctx(
    ctx: &mut PlanContext<'_>,
    config: &PdwConfig,
    partitions: usize,
) -> PlanOutcome {
    ladder(ctx, config, partitions)
}

/// One-shot wrapper for [`plan_partitioned_ctx`]: builds a throwaway
/// [`PlanContext`] for the instance. Never panics.
pub fn plan_partitioned(
    bench: &Benchmark,
    synthesis: &Synthesis,
    config: &PdwConfig,
    partitions: usize,
) -> PlanOutcome {
    let mut ctx = PlanContext::new(bench, synthesis);
    plan_partitioned_ctx(&mut ctx, config, partitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;
    use std::time::Duration;

    #[test]
    fn pristine_instance_is_served_by_the_top_rung() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let outcome = plan_resilient(&bench, &s, &config);
        assert_eq!(outcome.rung, Some(RungKind::Pdw));
        assert_eq!(outcome.attempts.len(), 1);
        assert!(outcome.attempts[0].rejection.is_none());
        assert!(outcome.is_served());
        assert!(outcome.replay.is_some(), "a served plan carries its replay");
    }

    /// The demo's served plan, with the instance it was planned for.
    fn demo_plan() -> (benchmarks::Benchmark, pdw_synth::Synthesis, WashResult) {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let config = PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        };
        let served = plan_resilient(&bench, &s, &config).served.unwrap();
        (bench, s, served)
    }

    #[test]
    fn a_rung_plan_without_its_washes_is_rejected_as_contaminated() {
        let (bench, s, mut unwashed) = demo_plan();
        let washes: Vec<_> = unwashed
            .schedule
            .tasks()
            .filter(|(_, t)| t.kind().is_wash())
            .map(|(id, _)| id)
            .collect();
        assert!(!washes.is_empty(), "the demo needs washes");
        for id in washes {
            unwashed.schedule.remove_task(id);
        }
        let mut ctx = PlanContext::new(&bench, &s);
        let (gated, _) = attempt_rung(&mut ctx, |_| Ok(unwashed));
        assert!(
            matches!(gated, Err(RungRejection::ContaminatedPlan(_))),
            "{gated:?}"
        );
    }

    #[test]
    fn a_physically_invalid_rung_plan_is_rejected_as_invalid() {
        let (bench, s, mut invalid) = demo_plan();
        // An operation cut shorter than it needs cannot execute.
        invalid.schedule.ops_mut()[0].duration = 0;
        let mut ctx = PlanContext::new(&bench, &s);
        let (gated, _) = attempt_rung(&mut ctx, |_| Ok(invalid));
        assert!(
            matches!(gated, Err(RungRejection::InvalidPlan(_))),
            "{gated:?}"
        );
    }

    #[test]
    fn zero_budget_serves_a_degraded_rung_deterministically() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let run = |threads: usize| {
            plan_resilient(
                &bench,
                &s,
                &PdwConfig {
                    threads,
                    pipeline_budget: Some(Duration::ZERO),
                    ..PdwConfig::default()
                },
            )
        };
        let serial = run(1);
        // The top rung must be skipped with a typed deadline rejection…
        assert!(matches!(
            serial.rejection_of(RungKind::Pdw),
            Some(RungRejection::DeadlineExpired)
        ));
        // …and a cheaper rung must still serve.
        assert!(serial.is_served());
        assert_ne!(serial.rung, Some(RungKind::Pdw));
        let served = serial.served.as_ref().unwrap();
        assert!(served.pipeline.deadline_expired || serial.rung == Some(RungKind::Dawo));
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.rung, serial.rung);
            let p = par.served.as_ref().unwrap();
            assert_eq!(p.schedule, served.schedule, "threads={threads}");
            assert_eq!(p.metrics, served.metrics);
        }
    }
}
