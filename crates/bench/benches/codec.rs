//! Criterion bench of the canonical codec on what a socket memo hit
//! costs: for every bundled instance (the Table II suite and the demo) it
//! times the instance hash, the certified artifact's frame encode and
//! decode, and the client's verification of the decoded artifact. A codec
//! change can then name the layer it moved.
//!
//! ```text
//! cargo bench -p pdw-bench --bench codec
//! ```

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathdriver_wash::{config_fingerprint, instance_hash, plan_resilient, PlanArtifact};
use pdw_assay::benchmarks;
use pdw_synth::synthesize;

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("codec");
    group.sample_size(20);
    group.measurement_time(Duration::from_millis(500));
    // The plan server's planner, so the artifacts are the ones it serves.
    let config = pdw_serve::ServeConfig::default().planner;
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let synthesis = synthesize(&bench).expect("bundled benchmark synthesizes");
        let outcome = plan_resilient(&bench, &synthesis, &config);
        let hash = instance_hash(&bench, &synthesis);
        let artifact = PlanArtifact::certified(
            hash,
            config_fingerprint(&config),
            outcome.rung.expect("every bundled benchmark is served"),
            &bench,
            &synthesis,
            outcome.served.expect("every bundled benchmark is served"),
        );
        let frame = artifact.encode();
        let name = &bench.name;
        group.bench_function(BenchmarkId::new("instance_hash", name), |b| {
            b.iter(|| instance_hash(&bench, &synthesis))
        });
        group.bench_function(BenchmarkId::new("artifact_encode", name), |b| {
            b.iter(|| artifact.encode())
        });
        group.bench_function(BenchmarkId::new("artifact_decode", name), |b| {
            b.iter(|| PlanArtifact::decode(&frame).expect("artifact decodes"))
        });
        group.bench_function(BenchmarkId::new("verify_hashed", name), |b| {
            b.iter(|| {
                artifact
                    .verify_hashed(hash, &bench, &synthesis)
                    .expect("artifact verifies")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
