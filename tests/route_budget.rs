//! Routing budget of the PDW front end on Kinase act-2, stage by stage.
//!
//! The routing counters are process-wide, so this file is a test binary of
//! its own with a single test: nothing else routes while it measures.
//!
//! The pinned counts are what the front end needs once every query is
//! routed once: `build` routes each part's sequence (and its runs or
//! cells) once, the spot-cluster `split` reuses a piece's candidates
//! when the split leaves it whole, and `merge` never re-routes a pair it
//! already rejected. Routing the same query twice again raises a count
//! and fails the test; a deliberate change re-pins it.
//!
//! `route_calls` counts one (flow port, waste port) query per pair tried;
//! `bfs_runs` counts BFS searches. A flow port's wash prefix is routed once
//! and one BFS fans its last leg out to every waste port, so routing the
//! prefix once per waste port again raises `bfs_runs` and fails the test.

use pathdriver_wash::{build_groups, merge_groups, spot_cluster_groups, CandidatePolicy};
use pdw_assay::benchmarks;
use pdw_biochip::{routing_counters, RoutingCounters};
use pdw_contam::{analyze, NecessityOptions};
use pdw_synth::synthesize;

/// `route_calls` of the build step, the spot-cluster split on top of it,
/// and the merge.
const PINNED: (u64, u64, u64) = (1440, 1249, 2727);

/// `bfs_runs` of the same three stages.
const PINNED_BFS: (u64, u64, u64) = (1806, 1599, 6643);

fn counted<T>(f: impl FnOnce() -> T) -> (T, RoutingCounters) {
    let before = routing_counters();
    let out = f();
    (out, routing_counters() - before)
}

#[test]
fn kinase_act_2_front_end_routes_each_query_once() {
    let bench = benchmarks::kinase_act_2();
    let s = synthesize(&bench).expect("Kinase act-2 synthesizes");
    let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
    let (chip, schedule, reqs) = (&s.chip, &s.schedule, &a.requirements);
    let policy = CandidatePolicy::Shortest;

    let (_, build) = counted(|| build_groups(chip, schedule, reqs, policy, 3, 1));
    let (groups, grouping) = counted(|| spot_cluster_groups(chip, schedule, reqs, policy, 3, 1));
    let (_, merge) = counted(|| merge_groups(chip, schedule, groups, 3));

    assert_eq!(
        (
            build.route_calls,
            grouping.route_calls - build.route_calls,
            merge.route_calls
        ),
        PINNED,
        "route_calls (build, split, merge)"
    );
    assert_eq!(
        (
            build.bfs_runs,
            grouping.bfs_runs - build.bfs_runs,
            merge.bfs_runs
        ),
        PINNED_BFS,
        "bfs_runs (build, split, merge)"
    );
}
