//! Criterion bench of the two routing-heavy stages: for every bundled
//! instance (the Table II suite and the demo) it times the PDW front end
//! (`spot_cluster_groups` then `merge_groups`, one thread, the planner's
//! three candidates per group) and `synthesize`, whose task and flush
//! routers try every port pair. A routing change can then name the stage
//! it moved.
//!
//! ```text
//! cargo bench -p pdw-bench --bench routing
//! ```

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathdriver_wash::{merge_groups, spot_cluster_groups, CandidatePolicy, PdwConfig};
use pdw_assay::benchmarks;
use pdw_contam::{analyze, NecessityOptions};
use pdw_synth::synthesize;

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(500));
    let k = PdwConfig::default().candidates;
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let s = synthesize(&bench).expect("bundled benchmark synthesizes");
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let (chip, schedule, reqs) = (&s.chip, &s.schedule, &a.requirements);
        let name = &bench.name;
        group.bench_function(BenchmarkId::new("front_end", name), |b| {
            b.iter(|| {
                let groups =
                    spot_cluster_groups(chip, schedule, reqs, CandidatePolicy::Shortest, k, 1);
                merge_groups(chip, schedule, groups, k)
            })
        });
        group.bench_function(BenchmarkId::new("synthesize", name), |b| {
            b.iter(|| synthesize(&bench).expect("bundled benchmark synthesizes"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing);
criterion_main!(benches);
