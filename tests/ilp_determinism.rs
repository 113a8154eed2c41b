//! The paper's ILP end to end on the `plan-ilp` benchmark instances: eleven
//! small synthetic assays whose Eq. 1–26 ILP proves optimality. Every solve
//! must be adopted and proved optimal, the Eq. 26 objectives must sum to
//! the screened optimum, and the same instance must build and search the
//! same ILP every time: identical node and pivot counts and a
//! byte-identical plan.

use std::time::Duration;

use pathdriver_wash::codec::canonical_digest;
use pathdriver_wash::verify::objective_of;
use pathdriver_wash::{plan_resilient, PdwConfig, WashResult, Weights};
use pdw_assay::synthetic::SyntheticSpec;

/// `(operations, extended edges, seed)` of the instances, 6 devices on a
/// 15×15 grid.
const SPECS: [(usize, usize, u64); 11] = [
    (2, 4, 0),
    (2, 4, 9),
    (2, 4, 10),
    (2, 4, 11),
    (2, 4, 14),
    (2, 4, 21),
    (2, 4, 25),
    (2, 4, 36),
    (3, 5, 1),
    (3, 5, 7),
    (3, 5, 25),
];

/// Sum of the optimal Eq. 26 objectives over [`SPECS`].
const OPTIMUM_SUM: f64 = 524.3;

fn solve(spec: &SyntheticSpec, config: &PdwConfig) -> WashResult {
    let (bench, synthesis) = pdw_gen::instance(spec).expect("spec synthesizes");
    plan_resilient(&bench, &synthesis, config)
        .served
        .unwrap_or_else(|| panic!("{}: unservable", spec.name))
}

#[test]
fn ilp_solves_are_optimal_and_repeat_exactly() {
    let config = PdwConfig {
        ilp: true,
        // Generous: unoptimized builds search far slower than release.
        ilp_budget: Duration::from_secs(120),
        threads: 1,
        ..PdwConfig::default()
    };
    let weights = Weights::default();
    let mut sum = 0.0;
    for (ops, edges, seed) in SPECS {
        let spec = SyntheticSpec {
            name: format!("ilp-{ops}op-{seed}"),
            ops,
            edges,
            devices: 6,
            seed,
            grid: (15, 15),
        };
        let first = solve(&spec, &config);
        let second = solve(&spec, &config);
        for r in [&first, &second] {
            assert!(r.solver.used_ilp, "{}: ILP plan not adopted", spec.name);
            assert!(r.solver.optimal, "{}: optimality not proved", spec.name);
        }
        let (a, b) = (
            first.solver.stats.as_ref().expect("ILP stats"),
            second.solver.stats.as_ref().expect("ILP stats"),
        );
        assert_eq!(a.nodes, b.nodes, "{}: node counts differ", spec.name);
        assert_eq!(
            a.lp_pivots, b.lp_pivots,
            "{}: pivot counts differ",
            spec.name
        );
        assert_eq!(
            canonical_digest(&first.schedule),
            canonical_digest(&second.schedule),
            "{}: plans differ",
            spec.name
        );
        sum += objective_of(&first.schedule, &weights);
    }
    assert!(
        (sum - OPTIMUM_SUM).abs() < 1e-9,
        "objective sum {sum} != {OPTIMUM_SUM}"
    );
}
