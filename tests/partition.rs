//! Integration tests for partitioned planning: edge cases of the cut
//! machinery, stitched-plan cleanliness under injected faults, and the
//! pipeline stats the partition surfaces.

use pathdriver_wash::{plan_partitioned, plan_resilient, PdwConfig, RungKind};
use pdw_assay::benchmarks;
use pdw_biochip::{cut_at, partition, PartitionError};
use pdw_synth::synthesize;

fn config() -> PdwConfig {
    PdwConfig {
        ilp: false,
        ..PdwConfig::default()
    }
}

#[test]
fn cut_through_a_device_footprint_is_a_typed_error() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    // Find a column that severs some device footprint: any column strictly
    // inside a footprint's x-extent.
    let dev = s
        .chip
        .devices()
        .iter()
        .find(|d| {
            let xs: Vec<u16> = d.footprint().iter().map(|c| c.x).collect();
            xs.iter().max() > xs.iter().min()
        })
        .expect("demo has a multi-column device");
    let cut = dev.footprint().iter().map(|c| c.x).max().unwrap();
    match cut_at(&s.chip, &[cut]) {
        Err(PartitionError::CutThroughDevice { column, device }) => {
            assert_eq!(column, cut);
            assert_eq!(device, dev.label());
        }
        other => panic!("expected CutThroughDevice, got {other:?}"),
    }
}

#[test]
fn oversized_k_clamps_to_the_viable_cuts_and_warns() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    let part = partition(&s.chip, 1000).expect("partition clamps, not fails");
    assert!(part.clamped(), "1000 regions cannot fit the demo grid");
    assert!(part.regions().len() < 1000);
    assert_eq!(part.requested(), 1000);

    // End to end: the plan still serves, and the clamp is surfaced as a
    // degradation event when the partitioned rung wins.
    let outcome = plan_partitioned(&bench, &s, &config(), 1000);
    assert!(outcome.is_served(), "{outcome}");
    let served = outcome.served.as_ref().unwrap();
    if outcome.rung == Some(RungKind::Partitioned) {
        assert!(served.pipeline.partition_clamped);
        assert!(served
            .pipeline
            .degradation_events()
            .iter()
            .any(|e| e == "partition clamped (fewer viable cuts than requested regions)"));
    }
}

#[test]
fn zero_partitions_is_rejected_by_the_cut_machinery() {
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    assert!(matches!(
        partition(&s.chip, 0),
        Err(PartitionError::NoRegions)
    ));
}

#[test]
fn dead_regions_are_skipped_and_counted() {
    // A mega instance with far fewer operations than bands leaves whole
    // bands without any wash necessity of their own; the pipeline must
    // count them as skipped rather than paying their front end.
    let spec = pdw_gen::mega_spec(65, 4, 1);
    let (bench, s) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
    let outcome = plan_partitioned(&bench, &s, &config(), 4);
    assert!(outcome.is_served(), "{outcome}");
    let served = outcome.served.as_ref().unwrap();
    assert_eq!(outcome.rung, Some(RungKind::Partitioned));
    assert!(
        served.pipeline.regions_skipped > 0,
        "4 ops on a 65x65 4-band grid should leave a dead band, got stats {:?}",
        served.pipeline
    );
    assert!(served.pipeline.regions_skipped <= served.pipeline.partition_regions);
}

#[test]
fn stitched_mega_plans_with_injected_faults_stay_oracle_clean() {
    // The stitch invariant under chip faults: region views inherit the
    // parent's fault set, the rung gate re-validates fault-aware, and the
    // contamination oracle must find the stitched plan clean.
    for seed in [1u64, 2] {
        let spec = pdw_gen::mega_spec(65, 12, seed);
        let (bench, pristine) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
        let s = pdw_gen::inject_faults(&pristine, seed);
        let outcome = plan_partitioned(&bench, &s, &config(), 4);
        assert!(outcome.is_served(), "seed {seed}: {outcome}");
        let served = outcome.served.as_ref().unwrap();
        pdw_sim::validate(&s.chip, &bench.graph, &served.schedule)
            .unwrap_or_else(|e| panic!("seed {seed}: stitched plan invalid: {e}"));
        let report = pdw_sim::propagate(&s.chip, &bench.graph, &served.schedule);
        assert!(
            report.is_clean(),
            "seed {seed}: contamination in stitched plan: {:?}",
            report.violations
        );
    }
}

#[test]
fn partitioned_matches_whole_chip_when_the_rung_is_beaten() {
    // Whatever rung serves, a partitioned call must never produce a plan
    // that fails the oracle where plan_resilient's would pass — both gates
    // are the same validator + oracle pair.
    let bench = benchmarks::demo();
    let s = synthesize(&bench).expect("demo synthesizes");
    let part = plan_partitioned(&bench, &s, &config(), 3);
    let whole = plan_resilient(&bench, &s, &config());
    assert!(part.is_served() && whole.is_served());
    let p = part.served.as_ref().unwrap();
    pdw_sim::validate(&s.chip, &bench.graph, &p.schedule).expect("partitioned plan validates");
    assert!(pdw_sim::propagate(&s.chip, &bench.graph, &p.schedule).is_clean());
}
