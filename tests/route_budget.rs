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

use pathdriver_wash::{build_groups, merge_groups, spot_cluster_groups, CandidatePolicy};
use pdw_assay::benchmarks;
use pdw_biochip::routing_counters;
use pdw_contam::{analyze, NecessityOptions};
use pdw_synth::synthesize;

/// `route_calls` of the build step, the spot-cluster split on top of it,
/// and the merge.
const PINNED: (u64, u64, u64) = (1440, 1249, 2727);

fn route_calls<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = routing_counters();
    let out = f();
    (out, (routing_counters() - before).route_calls)
}

#[test]
fn kinase_act_2_front_end_routes_each_query_once() {
    let bench = benchmarks::kinase_act_2();
    let s = synthesize(&bench).expect("Kinase act-2 synthesizes");
    let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
    let (chip, schedule, reqs) = (&s.chip, &s.schedule, &a.requirements);
    let policy = CandidatePolicy::Shortest;

    let (_, build) = route_calls(|| build_groups(chip, schedule, reqs, policy, 3, 1));
    let (groups, grouping) =
        route_calls(|| spot_cluster_groups(chip, schedule, reqs, policy, 3, 1));
    let (_, merge) = route_calls(|| merge_groups(chip, schedule, groups, 3));

    assert_eq!(
        (build, grouping - build, merge),
        PINNED,
        "(build, split, merge)"
    );
}
