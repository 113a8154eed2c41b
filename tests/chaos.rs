//! Chaos suite: the degradation ladder and incremental repair on damaged
//! chips under hostile deadlines.
//!
//! Every test here sweeps seeded fault corpora against tiny pipeline
//! budgets and asserts the fault-tolerance contract end to end: the solver
//! never panics, every served plan is physically valid and oracle-clean on
//! the chip *as damaged*, every rejected rung carries a typed reason, and
//! outcomes are bit-identical at any thread count. The repair sweeps drive
//! the full acceptance grid — pipeline budgets × thread counts × partition
//! counts — and hold every repaired plan bit-identical to a cold solve of
//! the mutated instance. The unit tests inside `verify.rs` keep single
//! points fast.

use std::time::Duration;

use pathdriver_wash::{plan_resilient, verify, PdwConfig, RungKind, RungRejection};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_gen::{faulted_instance, inject_faults, spec_from_seed};
use pdw_synth::{synthesize, Synthesis};

fn greedy_config(budget: Option<Duration>) -> PdwConfig {
    PdwConfig {
        ilp: false,
        pipeline_budget: budget,
        ..PdwConfig::default()
    }
}

#[test]
fn seeded_fault_corpus_survives_the_chaos_sweep() {
    let opts = verify::ChaosOptions::default();
    let mut checked = 0;
    for seed in 0..10 {
        let Some(report) = verify::chaos_seed(seed, &opts) else {
            continue;
        };
        assert!(report.passed(), "seed {seed}: {:?}", report.failures);
        assert!(report.served > 0, "seed {seed}: nothing ever served");
        checked += 1;
    }
    assert!(checked >= 3, "only {checked}/10 chaos seeds were feasible");
}

#[test]
fn bundled_suite_survives_chaos_with_injected_faults() {
    let opts = verify::ChaosOptions::default();
    let mut damaged = 0;
    for bench in benchmarks::suite() {
        let s = synthesize(&bench).unwrap();
        let faulted = inject_faults(&s, 0xC0FFEE);
        if !faulted.chip.faults().is_empty() {
            damaged += 1;
        }
        let report = verify::chaos_instance(&bench.name, &bench, &faulted, &opts);
        assert!(report.passed(), "{}: {:?}", bench.name, report.failures);
        assert!(report.served > 0, "{}: nothing ever served", bench.name);
    }
    assert!(damaged > 0, "fault injection never damaged a suite chip");
}

#[test]
fn expired_deadline_records_a_typed_rejection_and_still_serves() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).unwrap();
    let outcome = plan_resilient(&bench, &s, &greedy_config(Some(Duration::ZERO)));
    assert!(outcome.is_served(), "{outcome}");
    assert_eq!(outcome.rung, Some(RungKind::Greedy));
    assert!(matches!(
        outcome.rejection_of(RungKind::Pdw),
        Some(RungRejection::DeadlineExpired)
    ));
    // The ladder's acceptance gate already ran, but the contract is worth
    // restating from outside: the served plan is executable and clean.
    let plan = outcome.served.unwrap();
    pdw_sim::validate(&s.chip, &bench.graph, &plan.schedule).unwrap();
    assert!(pdw_sim::propagate(&s.chip, &bench.graph, &plan.schedule).is_clean());
}

#[test]
fn served_plans_respect_the_faults_of_a_damaged_chip() {
    let mut served_on_damaged = 0;
    for seed in 0..10u64 {
        let Ok((bench, s)) = faulted_instance(&spec_from_seed(seed)) else {
            continue;
        };
        if s.chip.faults().is_empty() {
            continue;
        }
        let outcome = plan_resilient(&bench, &s, &greedy_config(None));
        let Some(plan) = &outcome.served else {
            // Every rejection must be typed; "no plan" is an acceptable
            // outcome on a badly damaged chip, silence is not.
            for a in &outcome.attempts {
                assert!(a.rejection.is_some(), "seed {seed}: untyped rejection");
            }
            continue;
        };
        // Fault-aware re-verification on the damaged chip: validate checks
        // every path against blocked cells/edges/disabled ports, and the
        // oracle re-propagates contamination around them.
        pdw_sim::validate(&s.chip, &bench.graph, &plan.schedule)
            .unwrap_or_else(|e| panic!("seed {seed}: served an invalid plan: {e}"));
        let report = pdw_sim::propagate(&s.chip, &bench.graph, &plan.schedule);
        assert!(
            report.is_clean(),
            "seed {seed}: served a dirty plan: {:?}",
            report.violations
        );
        served_on_damaged += 1;
    }
    assert!(served_on_damaged > 0, "no damaged chip was ever served");
}

#[test]
fn resilient_batch_is_deterministic_across_threads_under_tiny_deadlines() {
    let corpus: Vec<(Benchmark, Synthesis)> = (0..8)
        .filter_map(|seed| faulted_instance(&spec_from_seed(seed)).ok())
        .collect();
    assert!(
        corpus.len() >= 3,
        "corpus too thin for the determinism sweep"
    );

    // Each instance is planned on its own at every thread count of the
    // ladder's config; the outcome must not depend on it.
    for budget in [Some(Duration::ZERO), Some(Duration::from_nanos(1)), None] {
        let plan_at = |threads: usize| -> Vec<_> {
            let config = PdwConfig {
                threads,
                ..greedy_config(budget)
            };
            corpus
                .iter()
                .map(|(b, s)| plan_resilient(b, s, &config))
                .collect()
        };
        let base = plan_at(1);
        for threads in [2, 8] {
            let got = plan_at(threads);
            for (i, (a, b)) in base.iter().zip(&got).enumerate() {
                assert_eq!(
                    a.rung, b.rung,
                    "instance {i} at {threads} threads, budget {budget:?}"
                );
                match (&a.served, &b.served) {
                    (Some(x), Some(y)) => {
                        assert_eq!(x.schedule, y.schedule, "instance {i}");
                        assert_eq!(x.metrics, y.metrics, "instance {i}");
                    }
                    (None, None) => {}
                    _ => panic!("instance {i}: served/unserved flip at {threads} threads"),
                }
            }
        }
    }
}

fn full_grid() -> verify::ChaosOptions {
    verify::ChaosOptions {
        budgets: vec![Some(Duration::ZERO), Some(Duration::from_nanos(1)), None],
        threads: vec![1, 8],
        partitions: vec![1, 2],
    }
}

#[test]
fn repair_matches_cold_solves_across_the_full_chaos_grid() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).unwrap();
    let report = verify::chaos_repair_instance("demo", &bench, &s, &full_grid());
    assert!(report.passed(), "{:#?}", report.failures);
    assert!(report.served > 0, "no repair ever served a plan");
    // 3 budgets × 2 partition counts × 2 thread counts, up to 4 steps each.
    assert!(
        report.solves >= 12,
        "grid under-swept: only {} repair solves",
        report.solves
    );
}

#[test]
fn repair_chaos_holds_on_seeded_faulted_instances() {
    let opts = verify::ChaosOptions {
        budgets: vec![None],
        threads: vec![1, 2],
        partitions: vec![1],
    };
    let mut seen = 0;
    for seed in 0..6 {
        if let Some(report) = verify::chaos_repair_seed(seed, &opts) {
            assert!(report.passed(), "seed {seed}: {:#?}", report.failures);
            seen += 1;
        }
    }
    assert!(seen > 1, "only {seen}/6 repair chaos seeds ran");
}

#[test]
fn ladder_chaos_still_holds_beside_repair() {
    // Guard the pre-repair contract on the same grid: the ladder itself
    // stays panic-free, typed, and thread-identical.
    let bench = benchmarks::demo();
    let s = synthesize(&bench).unwrap();
    let report = verify::chaos_instance("demo", &bench, &s, &full_grid());
    assert!(report.passed(), "{:#?}", report.failures);
    assert!(report.served > 0);
}
