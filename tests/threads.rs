//! Thread-count invariance of the parallel front end.
//!
//! The candidate-enumeration fan-out (`spot_cluster_groups`) distributes work over scoped workers but
//! merges results in input order, so the groups — and everything downstream
//! of them: placements and the final objective — must be bit-identical at
//! any thread count.

use pathdriver_wash::{
    dawo, dawo_ctx, pdw, pdw_ctx, plan_partitioned, plan_resilient, spot_cluster_groups,
    CandidatePolicy, PdwConfig, PlanContext, WashGroup,
};
use pdw_assay::benchmarks;
use pdw_contam::{analyze, NecessityOptions};
use pdw_synth::synthesize;

fn front_end_groups(bench: &pdw_assay::benchmarks::Benchmark, threads: usize) -> Vec<WashGroup> {
    let s = synthesize(bench).expect("benchmark synthesizes");
    let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
    spot_cluster_groups(
        &s.chip,
        &s.schedule,
        &a.requirements,
        CandidatePolicy::Shortest,
        3,
        threads,
    )
}

/// `WashGroup` carries no `PartialEq`; compare the fields that matter.
fn assert_same_groups(a: &[WashGroup], b: &[WashGroup], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: group count differs");
    for (i, (ga, gb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ga.parts, gb.parts, "{ctx}: group {i} parts differ");
        assert_eq!(
            ga.candidates, gb.candidates,
            "{ctx}: group {i} candidates differ"
        );
    }
}

#[test]
fn candidates_are_identical_at_any_thread_count_on_every_benchmark() {
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let serial = front_end_groups(&bench, 1);
        for threads in [2, 8] {
            let par = front_end_groups(&bench, threads);
            assert_same_groups(
                &serial,
                &par,
                &format!("{} at {threads} threads", bench.name),
            );
        }
    }
}

#[test]
fn placements_and_objective_are_thread_count_invariant() {
    // Full pipeline (ILP off keeps the suite fast; the solver is already
    // thread-invariant by its own tests) on every bundled benchmark.
    for bench in benchmarks::suite() {
        let s = synthesize(&bench).expect("benchmark synthesizes");
        let mut results = Vec::new();
        for threads in [1, 2, 8] {
            let config = PdwConfig {
                ilp: false,
                threads,
                ..PdwConfig::default()
            };
            let r = pdw(&bench, &s, &config).expect("pdw runs");
            results.push((threads, r));
        }
        let (_, first) = &results[0];
        for (threads, r) in &results[1..] {
            assert_eq!(
                r.metrics, first.metrics,
                "{}: metrics differ at {threads} threads",
                bench.name
            );
            assert_eq!(
                r.schedule, first.schedule,
                "{}: schedule differs at {threads} threads",
                bench.name
            );
        }
    }
}

#[test]
fn shared_context_results_match_cold_calls_on_every_benchmark() {
    // Context warmth must never change a plan: running DAWO and the greedy
    // pipeline (twice) through one PlanContext has to reproduce the cold
    // one-shot calls bit for bit on every bundled benchmark.
    let config = PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    };
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let s = synthesize(&bench).expect("benchmark synthesizes");
        let cold_d = dawo(&bench, &s).expect("dawo runs");
        let cold_g = pdw(&bench, &s, &config).expect("pdw runs");

        let mut ctx = PlanContext::new(&bench, &s);
        let warm_d = dawo_ctx(&mut ctx).expect("dawo runs");
        let warm_g = pdw_ctx(&mut ctx, &config).expect("greedy runs");
        let warm_g2 = pdw_ctx(&mut ctx, &config).expect("greedy re-runs");

        assert_eq!(warm_d.schedule, cold_d.schedule, "{}: dawo", bench.name);
        assert_eq!(warm_d.metrics, cold_d.metrics, "{}: dawo", bench.name);
        assert_eq!(warm_g.schedule, cold_g.schedule, "{}: greedy", bench.name);
        assert_eq!(warm_g.metrics, cold_g.metrics, "{}: greedy", bench.name);
        assert_eq!(
            warm_g2.schedule, cold_g.schedule,
            "{}: greedy on a fully warm context",
            bench.name
        );
    }
}

#[test]
fn shared_context_solves_are_thread_count_invariant_across_the_corpus() {
    // Per instance, one shared context runs the differential verifier's
    // solves: DAWO, then two greedy configurations that differ only in
    // their thread knob, so the second greedy solve reuses the first one's
    // cached front-end groups. Every plan must be bit-identical to its cold
    // one-shot call. The corpus is the bundled suite, the demo and seeded
    // `pdw-gen` instances.
    let corpus = benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .map(|b| {
            let s = synthesize(&b).expect("benchmark synthesizes");
            (b, s)
        })
        .chain(
            (0..24u64).filter_map(|seed| pdw_gen::instance(&pdw_gen::spec_from_seed(seed)).ok()),
        );
    let configs = [1, 2].map(|threads| PdwConfig {
        ilp: false,
        threads,
        ..PdwConfig::default()
    });
    for (b, s) in corpus {
        let name = &b.name;
        let mut ctx = PlanContext::new(&b, &s);
        let warm = dawo_ctx(&mut ctx).expect("dawo runs");
        let cold = dawo(&b, &s).expect("dawo runs");
        assert_eq!(warm.schedule, cold.schedule, "{name}: dawo");
        assert_eq!(warm.metrics, cold.metrics, "{name}: dawo metrics");
        for config in &configs {
            let threads = config.threads;
            let warm = pdw_ctx(&mut ctx, config).expect("greedy runs");
            let cold = pdw(&b, &s, config).expect("greedy runs");
            assert_eq!(
                warm.schedule, cold.schedule,
                "{name}: greedy at {threads} threads"
            );
            assert_eq!(
                warm.metrics, cold.metrics,
                "{name}: greedy metrics at {threads} threads"
            );
        }
    }
}

#[test]
fn partitioned_k1_is_bit_identical_to_plan_resilient_at_any_thread_count() {
    // `plan_partitioned(.., 1)` must delegate verbatim to the unpartitioned
    // ladder: same rung, same schedule, same metrics — at every thread
    // count, on every bundled benchmark.
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let s = synthesize(&bench).expect("benchmark synthesizes");
        for threads in [1, 2, 8] {
            let config = PdwConfig {
                ilp: false,
                threads,
                ..PdwConfig::default()
            };
            let base = plan_resilient(&bench, &s, &config);
            let part = plan_partitioned(&bench, &s, &config, 1);
            assert_eq!(
                part.rung, base.rung,
                "{}: rung differs at {threads} threads",
                bench.name
            );
            let (b, p) = (
                base.served.as_ref().expect("resilient serves"),
                part.served.as_ref().expect("partitioned k=1 serves"),
            );
            assert_eq!(
                p.schedule, b.schedule,
                "{}: schedule differs at {threads} threads",
                bench.name
            );
            assert_eq!(
                p.metrics, b.metrics,
                "{}: metrics differ at {threads} threads",
                bench.name
            );
        }
    }
}

#[test]
fn full_config_demo_is_thread_count_invariant() {
    // Every technique on, the ILP included: the end-to-end plan must not
    // move with the thread knob. The bundled demo's search never proves
    // optimality (about a million nodes in 90 s), so a plan compared there
    // is the incumbent at its budget and depends on machine speed. This
    // demo is a 3-operation `plan-ilp` assay whose search ends on an
    // optimality proof well inside the budget: nodes, pivots and plan must
    // match at 1, 2 and 8 threads. `tests/ilp_determinism.rs` repeats the
    // check on every `plan-ilp` instance through `plan_resilient`.
    let spec = pdw_assay::synthetic::SyntheticSpec {
        name: "ilp-3op-1".into(),
        ops: 3,
        edges: 5,
        devices: 6,
        seed: 1,
        grid: (15, 15),
    };
    let (bench, s) = pdw_gen::instance(&spec).expect("demo synthesizes");
    let run = |threads: usize| {
        let config = PdwConfig {
            // Generous: unoptimized builds search far slower than release.
            ilp_budget: std::time::Duration::from_secs(120),
            threads,
            ..PdwConfig::default()
        };
        let r = pdw(&bench, &s, &config).expect("pdw runs");
        assert!(
            r.solver.used_ilp,
            "ILP plan not adopted at {threads} threads"
        );
        assert!(
            r.solver.optimal,
            "optimality not proved at {threads} threads"
        );
        r
    };
    let serial = run(1);
    let stats = serial.solver.stats.clone().expect("ILP stats");
    for threads in [2, 8] {
        let par = run(threads);
        let par_stats = par.solver.stats.as_ref().expect("ILP stats");
        assert_eq!(
            (par_stats.nodes, par_stats.lp_pivots),
            (stats.nodes, stats.lp_pivots),
            "search differs at {threads} threads"
        );
        assert_eq!(
            par.metrics, serial.metrics,
            "metrics differ at {threads} threads"
        );
        assert_eq!(
            par.schedule, serial.schedule,
            "schedule differs at {threads} threads"
        );
    }
}
