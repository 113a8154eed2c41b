//! Differential verification of complete wash plans.
//!
//! [`verify_instance`] runs every [`Planner`] the crate offers — the DAWO
//! baseline, the greedy PathDriver-Wash pipeline, and (optionally) the
//! ILP-refined pipeline — through **one shared [`PlanContext`]** for the
//! instance (so the necessity analyses and routing state are computed once,
//! not once per solver run) and pushes each plan through four independent
//! judges:
//!
//! 1. the physical-executability validator ([`pdw_sim::validate`]),
//! 2. the first-error cleanliness check ([`pdw_contam::verify_clean`]),
//! 3. the contamination-propagation oracle ([`pdw_sim::propagate`]), which
//!    replays the schedule cell by cell without consulting the necessity
//!    analysis the solvers scheduled against,
//! 4. an objective cross-check: `α·N_wash + β·L_wash + γ·T_assay` is
//!    recomputed from the raw schedule and must equal the solver's reported
//!    objective with a delta of exactly 0 (bit-identical `f64`s).
//!
//! On top of that the greedy pipeline is re-run at several thread counts
//! (1/2/8 by default) and the resulting schedules must be bit-identical —
//! the parallel front end merges in input order, so any divergence is a
//! determinism bug. The ILP is excluded from this comparison: its
//! branch-and-bound is wall-clock-budget-bound and documented to vary run
//! to run.
//!
//! [`verify_seed`] extends the same check to the seeded random-instance
//! family of [`pdw_gen`], and [`shrink_failure`] reduces a failing seed to
//! the smallest spec that still fails, for a compact repro.
//!
//! # Chaos verification
//!
//! [`chaos_seed`] is the fault-tolerance counterpart: it replays the seeded
//! instance family with seeded chip damage ([`pdw_gen::inject_faults`])
//! under a sweep of pipeline deadlines (including zero), driving
//! [`plan_resilient`](crate::plan_resilient) and asserting the ladder's
//! contract — never a panic, every served plan fault-aware-valid and
//! oracle-clean on the damaged chip, every non-served rung carrying a typed
//! rejection, and bit-identical outcomes across thread counts at the
//! deterministic deadline points.

use std::fmt;
use std::panic::AssertUnwindSafe;
use std::time::Duration;

use pdw_assay::benchmarks::Benchmark;
use pdw_assay::synthetic::SyntheticSpec;
use pdw_assay::AssayGraph;
use pdw_biochip::{Chip, CELL_PITCH_MM};
use pdw_contam::verify_clean;
use pdw_sched::Schedule;
use pdw_sim::{propagate, validate, Metrics, OracleReport};
use pdw_synth::Synthesis;

use crate::config::{PdwConfig, Weights};
use crate::context::PlanContext;
use crate::pdw::WashResult;
use crate::planner::{DawoPlanner, GreedyPlanner, PdwPlanner, Planner};
use crate::resilient::{plan_resilient, PlanOutcome};

/// Knobs of a verification run.
#[derive(Debug, Clone)]
pub struct VerifyOptions {
    /// Also run the ILP-refined pipeline (budget-bound; slower).
    pub ilp: bool,
    /// Wall-clock budget handed to the ILP when enabled.
    pub ilp_budget: Duration,
    /// Thread counts whose greedy schedules must be bit-identical.
    pub threads: Vec<usize>,
}

impl Default for VerifyOptions {
    fn default() -> Self {
        VerifyOptions {
            ilp: true,
            ilp_budget: Duration::from_secs(2),
            threads: vec![1, 2, 8],
        }
    }
}

/// The verdict on one solver's plan for one instance.
#[derive(Debug, Clone)]
pub struct PlanCheck {
    /// Which solver produced the plan (`"dawo"`, `"greedy"`, `"ilp"`).
    pub solver: &'static str,
    /// The solver itself failed (internal invariant breach).
    pub solver_error: Option<String>,
    /// First physical-executability violation, if any.
    pub sim_error: Option<String>,
    /// First cleanliness violation, if any.
    pub clean_error: Option<String>,
    /// Full contamination-propagation replay report.
    pub oracle: OracleReport,
    /// Objective as reported by the solver (from its own metrics).
    pub reported_objective: f64,
    /// Objective recomputed independently from the raw schedule.
    pub recomputed_objective: f64,
    /// The solver's metrics equal a fresh [`Metrics::measure`].
    pub metrics_match: bool,
}

impl PlanCheck {
    /// `true` when every judge accepted the plan.
    pub fn passed(&self) -> bool {
        self.solver_error.is_none()
            && self.sim_error.is_none()
            && self.clean_error.is_none()
            && self.oracle.is_clean()
            && self.oracle.ineffective_washes.is_empty()
            && self.reported_objective == self.recomputed_objective
            && self.metrics_match
    }

    /// Human-readable descriptions of everything that went wrong.
    pub fn failures(&self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some(e) = &self.solver_error {
            out.push(format!("{}: solver failed: {e}", self.solver));
        }
        if let Some(e) = &self.sim_error {
            out.push(format!("{}: invalid schedule: {e}", self.solver));
        }
        if let Some(e) = &self.clean_error {
            out.push(format!("{}: contaminated: {e}", self.solver));
        }
        for v in &self.oracle.violations {
            out.push(format!("{}: oracle: {v}", self.solver));
        }
        for w in &self.oracle.ineffective_washes {
            out.push(format!("{}: oracle: {w}", self.solver));
        }
        if self.reported_objective != self.recomputed_objective {
            out.push(format!(
                "{}: objective mismatch: reported {:.17} != recomputed {:.17}",
                self.solver, self.reported_objective, self.recomputed_objective
            ));
        }
        if !self.metrics_match {
            out.push(format!(
                "{}: metrics drift from schedule remeasure",
                self.solver
            ));
        }
        out
    }
}

/// The verdict on one benchmark instance across all solvers.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Instance name (benchmark name or `prop-<seed>`).
    pub name: String,
    /// Generating seed for random instances (`None` for bundled ones).
    pub seed: Option<u64>,
    /// One verdict per solver run.
    pub plans: Vec<PlanCheck>,
    /// `Some(description)` when greedy schedules diverged across thread
    /// counts; `None` when bit-identical.
    pub thread_mismatch: Option<String>,
}

impl InstanceReport {
    /// `true` when every plan passed and thread counts agreed.
    pub fn passed(&self) -> bool {
        self.thread_mismatch.is_none() && self.plans.iter().all(PlanCheck::passed)
    }

    /// Human-readable descriptions of everything that went wrong.
    pub fn failures(&self) -> Vec<String> {
        let mut out: Vec<String> = self.plans.iter().flat_map(PlanCheck::failures).collect();
        if let Some(m) = &self.thread_mismatch {
            out.push(format!("thread identity: {m}"));
        }
        out
    }
}

impl fmt::Display for InstanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let verdict = if self.passed() { "ok" } else { "FAIL" };
        let solvers: Vec<String> = self
            .plans
            .iter()
            .map(|p| format!("{} {}", p.solver, if p.passed() { "ok" } else { "FAIL" }))
            .collect();
        let threads = if self.thread_mismatch.is_none() {
            "threads ok"
        } else {
            "threads FAIL"
        };
        write!(
            f,
            "{:<14} {:<4} [{}; {}]",
            self.name,
            verdict,
            solvers.join(", "),
            threads
        )
    }
}

/// Recomputes the paper's objective `α·N_wash + β·L_wash + γ·T_assay`
/// (Eq. 26) from the raw schedule, mirroring [`Metrics::measure`]'s
/// summation order so a correct solver reproduces it bit-for-bit.
pub fn objective_of(schedule: &Schedule, w: &Weights) -> f64 {
    let n_wash = schedule.tasks().filter(|(_, t)| t.kind().is_wash()).count();
    let l_wash_mm: f64 = schedule
        .tasks()
        .filter(|(_, t)| t.kind().is_wash())
        .map(|(_, t)| t.path().len() as f64 * CELL_PITCH_MM)
        .sum();
    let remeasured = Metrics {
        n_wash,
        l_wash_mm,
        t_assay: schedule.makespan(),
        total_wash_time: 0,
        avg_wait: 0.0,
        buffer_nl: 0.0,
    };
    w.objective(&remeasured)
}

/// Judges one solver outcome. `result` is `Err` when the solver itself
/// refused to produce a plan.
fn check_plan(
    solver: &'static str,
    chip: &Chip,
    graph: &AssayGraph,
    weights: &Weights,
    result: Result<&WashResult, String>,
) -> PlanCheck {
    match result {
        Err(e) => PlanCheck {
            solver,
            solver_error: Some(e),
            sim_error: None,
            clean_error: None,
            oracle: OracleReport::default(),
            reported_objective: f64::NAN,
            recomputed_objective: f64::NAN,
            metrics_match: false,
        },
        Ok(r) => PlanCheck {
            solver,
            solver_error: None,
            sim_error: validate(chip, graph, &r.schedule)
                .err()
                .map(|e| e.to_string()),
            clean_error: verify_clean(chip, graph, &r.schedule)
                .err()
                .map(|e| e.to_string()),
            oracle: propagate(chip, graph, &r.schedule),
            reported_objective: r.objective(weights),
            recomputed_objective: objective_of(&r.schedule, weights),
            metrics_match: r.metrics == Metrics::measure(graph, &r.schedule),
        },
    }
}

/// Differentially verifies every solver on one instance (see the
/// [module docs](self)).
pub fn verify_instance(
    name: &str,
    bench: &Benchmark,
    synthesis: &Synthesis,
    opts: &VerifyOptions,
) -> InstanceReport {
    let weights = Weights::default();
    let mut plans = Vec::new();

    // One shared context: every planner below reuses its cached necessity
    // analyses and routing scratch. Planner parity with cold one-shot calls
    // is itself property-tested (tests/threads.rs), so sharing here does
    // not weaken the differential check.
    let mut ctx = PlanContext::new(bench, synthesis);

    // DAWO baseline.
    let d = DawoPlanner.plan(&mut ctx).map_err(|e| e.to_string());
    plans.push(check_plan(
        "dawo",
        &synthesis.chip,
        &bench.graph,
        &weights,
        d.as_ref().map_err(Clone::clone),
    ));

    // Greedy pipeline at every requested thread count; the first doubles as
    // the judged greedy plan, the rest must match it bit for bit.
    let threads = if opts.threads.is_empty() {
        vec![0]
    } else {
        opts.threads.clone()
    };
    let mut greedy_runs: Vec<(usize, Result<WashResult, String>)> = Vec::new();
    for &t in &threads {
        let planner = GreedyPlanner::new(PdwConfig {
            threads: t,
            ..PdwConfig::default()
        });
        greedy_runs.push((t, planner.plan(&mut ctx).map_err(|e| e.to_string())));
    }
    plans.push(check_plan(
        "greedy",
        &synthesis.chip,
        &bench.graph,
        &weights,
        greedy_runs[0].1.as_ref().map_err(Clone::clone),
    ));
    let mut thread_mismatch = None;
    if let (t0, Ok(first)) = &greedy_runs[0] {
        for (t, run) in &greedy_runs[1..] {
            match run {
                Ok(r) if r.schedule == first.schedule && r.metrics == first.metrics => {}
                Ok(_) => {
                    thread_mismatch = Some(format!(
                        "greedy schedule at {t} threads differs from {t0} threads"
                    ));
                    break;
                }
                Err(e) => {
                    thread_mismatch = Some(format!("greedy failed at {t} threads: {e}"));
                    break;
                }
            }
        }
    }

    // ILP-refined pipeline.
    if opts.ilp {
        let planner = PdwPlanner::new(PdwConfig {
            ilp_budget: opts.ilp_budget,
            ..PdwConfig::default()
        });
        let r = planner.plan(&mut ctx).map_err(|e| e.to_string());
        plans.push(check_plan(
            "ilp",
            &synthesis.chip,
            &bench.graph,
            &weights,
            r.as_ref().map_err(Clone::clone),
        ));
    }

    InstanceReport {
        name: name.to_string(),
        seed: None,
        plans,
        thread_mismatch,
    }
}

/// Knobs of a chaos (faults × deadlines) verification run.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Pipeline-deadline points swept per faulted instance (`None` =
    /// unlimited). The default covers zero (fully degraded), one
    /// nanosecond (expired by the first checkpoint), and unlimited.
    pub budgets: Vec<Option<Duration>>,
    /// Thread counts whose outcomes must be bit-identical at every swept
    /// deadline point. The sweep keeps the ILP off, so all its rungs are
    /// deterministic.
    pub threads: Vec<usize>,
    /// Partition counts swept per deadline point. `1` (the default) drives
    /// [`plan_resilient`](crate::plan_resilient) exactly as before; larger
    /// counts drive [`plan_partitioned`](crate::plan_partitioned) and hold
    /// the stitched plan to the same fault-aware-validate + oracle
    /// contract.
    pub partitions: Vec<usize>,
}

impl Default for ChaosOptions {
    fn default() -> Self {
        ChaosOptions {
            budgets: vec![Some(Duration::ZERO), Some(Duration::from_nanos(1)), None],
            threads: vec![1, 8],
            partitions: vec![1],
        }
    }
}

/// The verdict of a chaos run on one faulted instance.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Instance name.
    pub name: String,
    /// Generating seed for random instances (`None` for bundled ones).
    pub seed: Option<u64>,
    /// Human-readable summary of the injected damage.
    pub faults: String,
    /// Resilient solves performed (budget points × thread counts).
    pub solves: usize,
    /// Solves that served a plan.
    pub served: usize,
    /// Everything that violated the ladder's contract.
    pub failures: Vec<String>,
}

impl ChaosReport {
    /// `true` when the ladder's contract held at every swept point.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:<4} [{}; {}/{} served]",
            self.name,
            if self.passed() { "ok" } else { "FAIL" },
            self.faults,
            self.served,
            self.solves
        )
    }
}

/// `list`, or `[1]` when it is empty: the thread and partition counts a
/// chaos sweep runs when its options name none.
fn or_one(list: &[usize]) -> &[usize] {
    if list.is_empty() {
        &[1]
    } else {
        list
    }
}

/// The planner configuration at one chaos grid point: ILP off, so every
/// rung is deterministic.
fn chaos_config(threads: usize, budget: Option<Duration>) -> PdwConfig {
    PdwConfig {
        ilp: false,
        threads,
        pipeline_budget: budget,
        ..PdwConfig::default()
    }
}

/// The serving contract, fault-aware: a plan served on `chip` must pass
/// the validator and the contamination oracle. Violations are pushed to
/// `failures`, prefixed with `at`.
fn check_served(
    at: &str,
    chip: &Chip,
    bench: &Benchmark,
    schedule: &Schedule,
    failures: &mut Vec<String>,
) {
    if let Err(e) = validate(chip, &bench.graph, schedule) {
        failures.push(format!("{at}: served plan invalid: {e}"));
    }
    let oracle = propagate(chip, &bench.graph, schedule);
    if !oracle.is_clean() {
        failures.push(format!(
            "{at}: served plan dirty: {} oracle violation(s)",
            oracle.violations.len()
        ));
    }
}

/// `true` when two outcomes served the same rung and, if any, the same
/// plan: schedule and metrics.
fn same_outcome(a: &PlanOutcome, b: &PlanOutcome) -> bool {
    a.rung == b.rung
        && match (&a.served, &b.served) {
            (Some(x), Some(y)) => x.schedule == y.schedule && x.metrics == y.metrics,
            (None, None) => true,
            _ => false,
        }
}

/// Sweeps [`plan_resilient`](crate::plan_resilient) over deadline points ×
/// thread counts on one (already faulted) instance, checking the ladder's
/// contract (see the [module docs](self)). `synthesis` should carry the
/// injected [`FaultSet`](pdw_biochip::FaultSet); a pristine chip is also
/// legal and simply checks the ladder under deadlines alone.
pub fn chaos_instance(
    name: &str,
    bench: &Benchmark,
    synthesis: &Synthesis,
    opts: &ChaosOptions,
) -> ChaosReport {
    let mut failures: Vec<String> = Vec::new();
    let mut solves = 0usize;
    let mut served = 0usize;
    for budget in &opts.budgets {
        for &k in or_one(&opts.partitions) {
            // Baseline outcome of the first thread count at this
            // (deadline, partition-count) point; the others must match it
            // bit for bit.
            let mut baseline: Option<PlanOutcome> = None;
            for &t in or_one(&opts.threads) {
                let config = chaos_config(t, *budget);
                let point = format!("budget {budget:?}, {t} threads, {k} partitions");
                // Both ladders promise to never panic; hold them to that.
                let outcome = match std::panic::catch_unwind(AssertUnwindSafe(|| {
                    if k <= 1 {
                        plan_resilient(bench, synthesis, &config)
                    } else {
                        crate::partition::plan_partitioned(bench, synthesis, &config, k)
                    }
                })) {
                    Ok(o) => o,
                    Err(_) => {
                        failures.push(format!("{point}: planner panicked"));
                        continue;
                    }
                };
                solves += 1;

                // Every non-served rung must carry a typed rejection.
                for a in &outcome.attempts {
                    let served_here = outcome.rung == Some(a.rung) && a.rejection.is_none();
                    if !served_here && a.rejection.is_none() {
                        failures.push(format!("{point}: rung {} has no typed rejection", a.rung));
                    }
                }
                if !outcome.is_served() && outcome.attempts.len() < 3 {
                    failures.push(format!(
                        "{point}: nothing served after only {} attempts",
                        outcome.attempts.len()
                    ));
                }

                // A served plan must hold up under independent fault-aware
                // re-verification on the damaged chip.
                if let Some(r) = &outcome.served {
                    served += 1;
                    check_served(&point, &synthesis.chip, bench, &r.schedule, &mut failures);
                }

                // Outcome identity across thread counts.
                match &baseline {
                    None => baseline = Some(outcome),
                    Some(base) if !same_outcome(base, &outcome) => failures.push(format!(
                        "{point}: served outcome (rung {:?}) differs from baseline (rung {:?})",
                        outcome.rung, base.rung
                    )),
                    Some(_) => {}
                }
            }
        }
    }
    ChaosReport {
        name: name.to_string(),
        seed: None,
        faults: synthesis.chip.faults().to_string(),
        solves,
        served,
        failures,
    }
}

/// Sweeps [`RepairSession::repair`](crate::RepairSession::repair) over the
/// same (deadline × partition × thread) grid as [`chaos_instance`],
/// differentially checking incremental replanning: after every applied
/// delta the repaired outcome must be **bit-identical** to a cold solve of
/// the mutated instance (same served schedule, metrics, and rung), the
/// served plan must re-verify fault-aware on the mutated chip, nothing may
/// panic, and outcomes must agree across thread counts.
///
/// Each point replays the same seeded delta sequence: three chip-fault
/// deltas drawn by [`pdw_gen::fault_delta`] (damage on a pristine chip,
/// a damage/healing mix on a faulted one), then one operation delay. The
/// draws are pure functions of the evolving `(synthesis, seed)`, so every
/// thread count sees the same sequence as long as the repairs agree —
/// which is exactly what the sweep asserts.
pub fn chaos_repair_instance(
    name: &str,
    bench: &Benchmark,
    synthesis: &Synthesis,
    opts: &ChaosOptions,
) -> ChaosReport {
    use crate::repair::{PlanDelta, RepairSession};

    let mut failures: Vec<String> = Vec::new();
    let mut solves = 0usize;
    let mut served = 0usize;
    for budget in &opts.budgets {
        for &k in or_one(&opts.partitions) {
            // Per-step outcomes of the first thread count at this point;
            // the other thread counts must reproduce them bit for bit.
            let mut baseline: Option<Vec<PlanOutcome>> = None;
            for &t in or_one(&opts.threads) {
                let point = format!("budget {budget:?}, {t} threads, {k} partitions");
                let mut session =
                    RepairSession::new(bench.clone(), synthesis.clone(), chaos_config(t, *budget))
                        .with_partitions(k);
                if std::panic::catch_unwind(AssertUnwindSafe(|| session.plan())).is_err() {
                    failures.push(format!("{point}: initial plan panicked"));
                    continue;
                }

                // The seeded delta sequence: three fault deltas, one delay.
                let mut steps: Vec<PlanOutcome> = Vec::new();
                for step in 0u64..4 {
                    let delta = if step < 3 {
                        match pdw_gen::fault_delta(session.synthesis(), 0xC0DE ^ step) {
                            Some(fd) => PlanDelta::Fault(fd),
                            None => break,
                        }
                    } else {
                        match session.synthesis().schedule.ops().first() {
                            Some(op) => PlanDelta::DelayOp {
                                op: op.op,
                                delay: 5,
                            },
                            None => break,
                        }
                    };
                    let outcome =
                        match std::panic::catch_unwind(AssertUnwindSafe(|| session.repair(&delta)))
                        {
                            Ok(o) => o,
                            Err(_) => {
                                failures.push(format!("{point}, step {step}: repair panicked"));
                                break;
                            }
                        };
                    solves += 1;
                    let at = format!("{point}, step {step} ({delta})");

                    // Serving contract on the mutated chip.
                    if let Some(r) = &outcome.served {
                        served += 1;
                        let chip = &session.synthesis().chip;
                        check_served(&at, chip, bench, &r.schedule, &mut failures);
                    }

                    // The incremental-replanning contract: repaired ≡ cold.
                    let cold = session.cold_reference();
                    if !same_outcome(&outcome, &cold) {
                        failures.push(format!(
                            "{at}: repaired outcome (rung {:?}) differs from a cold solve of \
                             the mutated instance (rung {:?})",
                            outcome.rung, cold.rung
                        ));
                    }
                    steps.push(outcome);
                }

                // Outcome identity across thread counts, step by step.
                match &baseline {
                    None => baseline = Some(steps),
                    Some(base) => {
                        if base.len() != steps.len() {
                            failures.push(format!(
                                "{point}: {} repair steps vs baseline {}",
                                steps.len(),
                                base.len()
                            ));
                        }
                        for (i, (a, b)) in base.iter().zip(&steps).enumerate() {
                            if !same_outcome(a, b) {
                                failures.push(format!(
                                    "{point}, step {i}: repaired outcome differs from baseline \
                                     thread count"
                                ));
                            }
                        }
                    }
                }
            }
        }
    }
    ChaosReport {
        name: name.to_string(),
        seed: None,
        faults: synthesis.chip.faults().to_string(),
        solves,
        served,
        failures,
    }
}

/// Chaos-verifies incremental repair on the seeded faulted instance of the
/// [`pdw_gen`] family ([`pdw_gen::faulted_instance`], so the delta sequence
/// mixes damage and healing).
///
/// Returns `None` when the seed's spec is structurally infeasible (skipped,
/// not failed).
pub fn chaos_repair_seed(seed: u64, opts: &ChaosOptions) -> Option<ChaosReport> {
    let spec = pdw_gen::spec_from_seed(seed);
    let (bench, synthesis) = pdw_gen::faulted_instance(&spec).ok()?;
    let mut report = chaos_repair_instance(&bench.name, &bench, &synthesis, opts);
    report.seed = Some(seed);
    Some(report)
}

/// Chaos-verifies the seeded instance of the [`pdw_gen`] family with its
/// seeded fault injection applied ([`pdw_gen::faulted_instance`]).
///
/// Returns `None` when the seed's spec is structurally infeasible (skipped,
/// not failed).
pub fn chaos_seed(seed: u64, opts: &ChaosOptions) -> Option<ChaosReport> {
    let spec = pdw_gen::spec_from_seed(seed);
    let (bench, synthesis) = pdw_gen::faulted_instance(&spec).ok()?;
    let mut report = chaos_instance(&bench.name, &bench, &synthesis, opts);
    report.seed = Some(seed);
    Some(report)
}

/// Verifies the instance generated from `seed` in the [`pdw_gen`] family.
///
/// Returns `None` when the seed's spec is structurally infeasible (skipped,
/// not failed).
pub fn verify_seed(seed: u64, opts: &VerifyOptions) -> Option<InstanceReport> {
    let spec = pdw_gen::spec_from_seed(seed);
    let (bench, synthesis) = pdw_gen::instance(&spec).ok()?;
    let mut report = verify_instance(&bench.name, &bench, &synthesis, opts);
    report.seed = Some(seed);
    Some(report)
}

/// `true` when the instance described by `spec` fails verification
/// (infeasible specs do not fail — they are skipped).
pub fn spec_fails(spec: &SyntheticSpec, opts: &VerifyOptions) -> bool {
    match pdw_gen::instance(spec) {
        Ok((bench, synthesis)) => !verify_instance(&bench.name, &bench, &synthesis, opts).passed(),
        Err(_) => false,
    }
}

/// Shrinks the failing instance of `seed` to the smallest spec that still
/// fails verification. Returns the shrunk spec and the number of accepted
/// reduction steps (0 when the original spec is already minimal).
pub fn shrink_failure(seed: u64, opts: &VerifyOptions) -> (SyntheticSpec, usize) {
    let spec = pdw_gen::spec_from_seed(seed);
    pdw_gen::shrink(&spec, |s| spec_fails(s, opts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pdw::pdw;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    fn quick() -> VerifyOptions {
        VerifyOptions {
            ilp: false,
            threads: vec![1, 2],
            ..VerifyOptions::default()
        }
    }

    #[test]
    fn demo_passes_differential_verification() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let report = verify_instance("demo", &bench, &s, &quick());
        assert!(report.passed(), "{:?}", report.failures());
        assert_eq!(report.plans.len(), 2); // dawo + greedy
    }

    #[test]
    fn objective_recompute_is_bit_identical() {
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
        let w = Weights::default();
        assert_eq!(r.objective(&w), objective_of(&r.schedule, &w));
    }

    #[test]
    fn chaos_on_the_pristine_demo_passes() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let report = chaos_instance("demo", &bench, &s, &ChaosOptions::default());
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.served > 0);
        assert_eq!(report.solves, 6); // 3 budgets × 2 thread counts
    }

    #[test]
    fn chaos_partition_sweep_on_the_demo_passes() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let opts = ChaosOptions {
            budgets: vec![None],
            threads: vec![1, 2],
            partitions: vec![1, 2, 4],
        };
        let report = chaos_instance("demo", &bench, &s, &opts);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.served > 0);
        assert_eq!(report.solves, 6); // 1 budget × 3 partition counts × 2 threads
    }

    #[test]
    fn chaos_repair_on_the_demo_passes() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let opts = ChaosOptions {
            budgets: vec![None],
            threads: vec![1, 2],
            partitions: vec![1],
        };
        let report = chaos_repair_instance("demo", &bench, &s, &opts);
        assert!(report.passed(), "{:?}", report.failures);
        assert!(report.served > 0);
        assert!(report.solves >= 4, "expected ≥4 repair steps per point");
    }

    #[test]
    fn a_chaos_repair_seed_passes_or_skips() {
        let opts = ChaosOptions {
            budgets: vec![None],
            threads: vec![1],
            partitions: vec![1],
        };
        let mut seen = 0;
        for seed in 0..4 {
            if let Some(report) = chaos_repair_seed(seed, &opts) {
                assert!(report.passed(), "seed {seed}: {:?}", report.failures);
                seen += 1;
            }
        }
        assert!(seen > 0, "all chaos repair seeds skipped");
    }

    #[test]
    fn a_chaos_seed_passes_or_skips() {
        let mut seen = 0;
        for seed in 0..6 {
            if let Some(report) = chaos_seed(seed, &ChaosOptions::default()) {
                assert!(report.passed(), "seed {seed}: {:?}", report.failures);
                assert_eq!(report.seed, Some(seed));
                seen += 1;
            }
        }
        assert!(seen > 0, "all chaos seeds skipped");
    }

    #[test]
    fn a_seeded_instance_verifies_or_skips() {
        let mut seen = 0;
        for seed in 0..10 {
            if let Some(report) = verify_seed(seed, &quick()) {
                assert!(report.passed(), "seed {seed}: {:?}", report.failures());
                assert_eq!(report.seed, Some(seed));
                seen += 1;
            }
        }
        assert!(seen > 0, "all ten seeds skipped");
    }
}
