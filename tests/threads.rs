//! Thread-count invariance of the parallel front end.
//!
//! The candidate-enumeration fan-out (`spot_cluster_groups`) distributes work over scoped workers but
//! merges results in input order, so the groups — and everything downstream
//! of them: placements and the final objective — must be bit-identical at
//! any thread count.

use pathdriver_wash::{
    dawo, pdw, plan_batch, plan_partitioned, plan_resilient, spot_cluster_groups, CandidatePolicy,
    DawoPlanner, GreedyPlanner, PdwConfig, PlanContext, Planner, WashGroup,
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
        let warm_d = DawoPlanner.plan(&mut ctx).expect("dawo planner runs");
        let warm_g = GreedyPlanner::new(config.clone())
            .plan(&mut ctx)
            .expect("greedy planner runs");
        let warm_g2 = GreedyPlanner::new(config.clone())
            .plan(&mut ctx)
            .expect("greedy planner re-runs");

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
fn plan_batch_is_thread_count_invariant_across_the_suite() {
    // The batched driver fans instances across workers with per-worker
    // context reuse; output must be bit-identical to cold one-shot calls at
    // every thread count, in input order.
    let config = PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    };
    let owned: Vec<_> = benchmarks::suite()
        .into_iter()
        .chain([benchmarks::demo()])
        .map(|b| {
            let s = synthesize(&b).expect("benchmark synthesizes");
            (b, s)
        })
        .collect();
    let instances: Vec<(&benchmarks::Benchmark, &pdw_synth::Synthesis)> =
        owned.iter().map(|(b, s)| (b, s)).collect();
    let cold: Vec<_> = owned
        .iter()
        .map(|(b, s)| {
            (
                dawo(b, s).expect("dawo runs"),
                pdw(b, s, &config).expect("pdw runs"),
            )
        })
        .collect();

    let greedy = GreedyPlanner::new(config);
    let planners: Vec<&dyn Planner> = vec![&DawoPlanner, &greedy];
    for threads in [1, 2, 8] {
        let batch = plan_batch(&instances, &planners, threads);
        assert_eq!(batch.len(), owned.len());
        for (i, (row, (cold_d, cold_g))) in batch.iter().zip(&cold).enumerate() {
            let name = &owned[i].0.name;
            let d = row[0].as_ref().expect("dawo planner runs");
            let g = row[1].as_ref().expect("greedy planner runs");
            assert_eq!(
                d.schedule, cold_d.schedule,
                "{name}: dawo at {threads} threads"
            );
            assert_eq!(d.metrics, cold_d.metrics, "{name}: dawo metrics");
            assert_eq!(
                g.schedule, cold_g.schedule,
                "{name}: greedy at {threads} threads"
            );
            assert_eq!(g.metrics, cold_g.metrics, "{name}: greedy metrics");
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
    // ILP included on the small demo benchmark: the end-to-end objective
    // must not move with the thread knob.
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    let run = |threads: usize| {
        let config = PdwConfig {
            threads,
            ..PdwConfig::default()
        };
        pdw(&bench, &s, &config).expect("pdw runs")
    };
    let serial = run(1);
    for threads in [2, 8] {
        let par = run(threads);
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
