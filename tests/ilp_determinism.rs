//! The paper's ILP end to end on the `plan-ilp` benchmark instances: eleven
//! small synthetic assays whose Eq. 1–26 ILP proves optimality. Every solve
//! must be adopted and proved optimal, each Eq. 26 objective must equal the
//! instance's screened optimum (as must their sum), and the same instance
//! must build and search the same ILP every time and at any thread count:
//! identical node and pivot counts and a byte-identical plan — also when
//! the planner runs through a shared `PlanContext` instead of a one-shot
//! call. Each search ends by proving optimality, not at its budget, so the
//! comparison does not depend on how fast the machine is.

use std::time::Duration;

use pathdriver_wash::codec::canonical_digest;
use pathdriver_wash::verify::objective_of;
use pathdriver_wash::{
    pdw, plan_resilient, DawoPlanner, PdwConfig, PdwPlanner, PlanContext, Planner, WashResult,
    Weights,
};
use pdw_assay::synthetic::SyntheticSpec;

/// `(operations, extended edges, seed, optimal Eq. 26 objective)` of the
/// instances, 6 devices on a 15×15 grid.
const SPECS: [(usize, usize, u64, f64); 11] = [
    (2, 4, 0, 40.3),
    (2, 4, 9, 40.3),
    (2, 4, 10, 41.5),
    (2, 4, 11, 40.3),
    (2, 4, 14, 40.3),
    (2, 4, 21, 40.3),
    (2, 4, 25, 41.1),
    (2, 4, 36, 40.7),
    (3, 5, 1, 77.0),
    (3, 5, 7, 76.2),
    (3, 5, 25, 46.3),
];

/// Sum of the optimal Eq. 26 objectives over [`SPECS`].
const OPTIMUM_SUM: f64 = 524.3;

/// The spec of one [`SPECS`] entry.
fn spec(ops: usize, edges: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: format!("ilp-{ops}op-{seed}"),
        ops,
        edges,
        devices: 6,
        seed,
        grid: (15, 15),
    }
}

/// The ILP on at `threads`, with a budget no instance reaches.
fn config_at(threads: usize) -> PdwConfig {
    PdwConfig {
        ilp: true,
        // Generous: unoptimized builds search far slower than release.
        ilp_budget: Duration::from_secs(120),
        threads,
        ..PdwConfig::default()
    }
}

fn solve(spec: &SyntheticSpec, config: &PdwConfig) -> WashResult {
    let (bench, synthesis) = pdw_gen::instance(spec).expect("spec synthesizes");
    plan_resilient(&bench, &synthesis, config)
        .served
        .unwrap_or_else(|| panic!("{}: unservable", spec.name))
}

/// Each instance is solved twice at one thread, then at two and eight:
/// every search proves optimality with the same nodes, pivots and plan.
#[test]
fn ilp_solves_are_optimal_and_repeat_exactly() {
    let weights = Weights::default();
    let mut sum = 0.0;
    for (ops, edges, seed, optimum) in SPECS {
        let spec = spec(ops, edges, seed);
        let runs: Vec<(usize, WashResult)> = [1, 1, 2, 8]
            .into_iter()
            .map(|threads| (threads, solve(&spec, &config_at(threads))))
            .collect();
        for (threads, r) in &runs {
            assert!(
                r.solver.used_ilp,
                "{} at {threads} threads: ILP plan not adopted",
                spec.name
            );
            assert!(
                r.solver.optimal,
                "{} at {threads} threads: optimality not proved",
                spec.name
            );
        }
        let (_, first) = &runs[0];
        let a = first.solver.stats.as_ref().expect("ILP stats");
        for (threads, r) in &runs[1..] {
            let b = r.solver.stats.as_ref().expect("ILP stats");
            assert_eq!(
                a.nodes, b.nodes,
                "{} at {threads} threads: node counts differ",
                spec.name
            );
            assert_eq!(
                a.lp_pivots, b.lp_pivots,
                "{} at {threads} threads: pivot counts differ",
                spec.name
            );
            assert_eq!(
                canonical_digest(&first.schedule),
                canonical_digest(&r.schedule),
                "{} at {threads} threads: plans differ",
                spec.name
            );
        }
        let objective = objective_of(&first.schedule, &weights);
        assert!(
            (objective - optimum).abs() < 1e-9,
            "{}: objective {objective} != optimum {optimum}",
            spec.name
        );
        sum += objective;
    }
    assert!(
        (sum - OPTIMUM_SUM).abs() < 1e-9,
        "objective sum {sum} != {OPTIMUM_SUM}"
    );
}

/// A `PdwPlanner` run with the ILP on through a `PlanContext` that DAWO
/// planned on first serves the plan a one-shot [`pdw`] call serves.
#[test]
fn shared_context_ilp_plans_match_one_shot_calls() {
    let config = config_at(1);
    for (ops, edges, seed, _) in SPECS {
        let spec = spec(ops, edges, seed);
        let (bench, synthesis) = pdw_gen::instance(&spec).expect("spec synthesizes");
        let mut ctx = PlanContext::new(&bench, &synthesis);
        DawoPlanner.plan(&mut ctx).expect("DAWO plans");
        let shared = PdwPlanner::new(config.clone())
            .plan(&mut ctx)
            .expect("PDW plans on the shared context");
        let one_shot = pdw(&bench, &synthesis, &config).expect("PDW plans one-shot");
        for r in [&shared, &one_shot] {
            assert!(r.solver.used_ilp, "{}: ILP plan not adopted", spec.name);
            assert!(r.solver.optimal, "{}: optimality not proved", spec.name);
        }
        assert_eq!(
            shared.schedule, one_shot.schedule,
            "{}: shared-context plan differs from the one-shot plan",
            spec.name
        );
    }
}
