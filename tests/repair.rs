//! The incremental-repair gate over the bundled corpus (suite + demo).
//!
//! Every benchmark is planned once through a [`RepairSession`], then hit
//! with two families of single-fault deltas:
//!
//! - **miss** deltas block spare channel cells far away from the served
//!   plan — the delta's footprint intersects no cached analysis, no cached
//!   candidate path, and no path of the plan, so repair re-verifies the
//!   cached plan and serves it without replanning (the fast path);
//! - **hit** deltas block a cell on one of the plan's own wash paths —
//!   repair must invalidate the crossing caches and replan the suffix warm.
//!
//! Each repair is timed against a cold solve of the *same* mutated
//! instance, rebuilt from the pristine chip so the cold side pays the
//! port-reachability BFS the warm side carries forward. Every repaired
//! plan must be bit-identical to its cold solve, at least one miss must
//! take the fast path, and in optimized builds the median fast-path
//! repair must be at least 10x faster than its cold solve.
//!
//! The test is alone in its binary, so no sibling test competes with its
//! timings.

use std::collections::HashSet;
use std::time::Instant;

use pathdriver_wash::{plan_partitioned, PdwConfig, PlanDelta, PlanOutcome, RepairSession};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_biochip::{CellKind, Coord, FaultDelta};
use pdw_sched::Schedule;
use pdw_synth::{synthesize, Synthesis};

/// Far-away misses per benchmark.
const MISSES: usize = 3;
/// On-path hits per benchmark, each drawn against the current plan.
const HITS: usize = 2;

/// Cells the base (wash-free) schedule and device footprints rely on.
fn base_used(s: &Synthesis) -> HashSet<Coord> {
    let mut used: HashSet<Coord> = HashSet::new();
    for (_, t) in s.schedule.tasks() {
        used.extend(t.path().cells().iter().copied());
    }
    for d in s.chip.devices() {
        used.extend(d.footprint().iter().copied());
    }
    used
}

/// Spare channel cells ranked farthest-first from the served plan's paths:
/// blocking one is always base-schedule-safe and very likely to miss every
/// cached candidate path too (the fast-path family).
fn far_spare_cells(s: &Synthesis, plan: &Schedule, n: usize) -> Vec<Coord> {
    let grid = s.chip.grid();
    let faults = s.chip.faults();
    let mut plan_cells: Vec<Coord> = Vec::new();
    for (_, t) in plan.tasks() {
        plan_cells.extend(t.path().cells().iter().copied());
    }
    let used = base_used(s);
    let mut spares: Vec<(i64, Coord)> = grid
        .coords()
        .filter(|&c| {
            matches!(grid.kind(c), CellKind::Channel)
                && !used.contains(&c)
                && !faults.cell_blocked(c)
                && !plan_cells.contains(&c)
        })
        .map(|c| {
            let d = plan_cells
                .iter()
                .map(|p| {
                    (i64::from(p.x) - i64::from(c.x)).abs()
                        + (i64::from(p.y) - i64::from(c.y)).abs()
                })
                .min()
                .unwrap_or(i64::MAX);
            (d, c)
        })
        .collect();
    spares.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    spares.into_iter().take(n).map(|(_, c)| c).collect()
}

/// A channel cell on one of the plan's wash paths that the base schedule
/// does not use: blocking it keeps the instance valid but forces a replan.
fn wash_hit_cell(s: &Synthesis, plan: &Schedule) -> Option<Coord> {
    let grid = s.chip.grid();
    let faults = s.chip.faults();
    let used = base_used(s);
    plan.tasks()
        .filter(|(_, t)| t.kind().is_wash())
        .flat_map(|(_, t)| t.path().cells().iter().copied())
        .find(|&c| {
            matches!(grid.kind(c), CellKind::Channel)
                && !used.contains(&c)
                && !faults.cell_blocked(c)
        })
}

/// Cold-solves the session's current (mutated) instance from scratch, on
/// a chip rebuilt from the pristine one so the lazy port-reachability
/// cache starts cold. Returns the outcome and its wall time in seconds.
fn cold_solve(
    bench: &Benchmark,
    pristine: &Synthesis,
    mutated: &Synthesis,
    config: &PdwConfig,
) -> (PlanOutcome, f64) {
    let chip = pristine
        .chip
        .with_faults(mutated.chip.faults().clone())
        .expect("session faults are valid");
    let s = Synthesis {
        chip,
        schedule: mutated.schedule.clone(),
        binding: mutated.binding.clone(),
        reagent_ports: mutated.reagent_ports.clone(),
    };
    let t = Instant::now();
    let outcome = plan_partitioned(bench, &s, config, 1);
    (outcome, t.elapsed().as_secs_f64())
}

#[test]
fn repairs_match_cold_solves_and_misses_take_the_fast_path() {
    let config = PdwConfig {
        ilp: false,
        threads: 1,
        ..PdwConfig::default()
    };
    // Cold/repair wall-time ratios of the repairs that served the cached
    // plan without replanning.
    let mut fast_path_speedups: Vec<f64> = Vec::new();
    let mut repairs = 0usize;
    for bench in benchmarks::suite().into_iter().chain([benchmarks::demo()]) {
        let pristine = synthesize(&bench).expect("bundled benchmark synthesizes");
        let mut session = RepairSession::new(bench.clone(), pristine.clone(), config.clone());
        let plan = session
            .plan()
            .served
            .expect("bundled benchmark serves a plan")
            .schedule;
        let misses = far_spare_cells(&pristine, &plan, MISSES);
        for step in 0..misses.len() + HITS {
            let (kind, cell) = match misses.get(step) {
                Some(&c) => ("miss", c),
                None => {
                    // Hits are drawn against the *current* plan, which
                    // changed after each replanning repair.
                    let current = &session
                        .last()
                        .and_then(|o| o.served.as_ref())
                        .expect("session keeps serving")
                        .schedule;
                    match wash_hit_cell(session.synthesis(), current) {
                        Some(c) => ("hit", c),
                        None => break,
                    }
                }
            };
            let delta = PlanDelta::Fault(FaultDelta::BlockCell(cell));
            repairs += 1;
            let t = Instant::now();
            let outcome = session.repair(&delta);
            let repair_s = t.elapsed().as_secs_f64();
            let served = outcome
                .served
                .as_ref()
                .unwrap_or_else(|| panic!("{}: repair served nothing ({delta})", bench.name));

            let (cold, cold_s) = cold_solve(&bench, &pristine, session.synthesis(), &config);
            let cold_plan = cold
                .served
                .as_ref()
                .unwrap_or_else(|| panic!("{}: cold solve served nothing ({delta})", bench.name));
            assert_eq!(
                served.schedule, cold_plan.schedule,
                "{} {kind} {delta}: repaired schedule differs from its cold solve",
                bench.name
            );
            assert_eq!(
                served.metrics, cold_plan.metrics,
                "{} {kind} {delta}: repaired metrics differ from its cold solve",
                bench.name
            );
            assert_eq!(
                outcome.rung, cold.rung,
                "{} {kind} {delta}: repair served another rung than its cold solve",
                bench.name
            );
            if served.pipeline.repair_cache_served {
                fast_path_speedups.push(cold_s / repair_s.max(1e-9));
            }
        }
    }
    assert!(
        !fast_path_speedups.is_empty(),
        "no repair took the fast path; miss-family deltas all collided"
    );

    fast_path_speedups.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = fast_path_speedups[fast_path_speedups.len() / 2];
    println!(
        "fast path: {} of {repairs} repairs, median speedup {median:.1}x",
        fast_path_speedups.len()
    );
    // The ratio holds only with the simulator optimized: the fast path is
    // mostly a `pdw_sim` re-verification, and `pdw-sim` builds at
    // opt-level 0 in the dev profile. On a 2-core machine the median read
    // 14.3–18.4x in release and 8.6–9.5x in dev.
    #[cfg(not(debug_assertions))]
    assert!(
        median >= 10.0,
        "fast-path median speedup {median:.2}x below 10x over {} repairs",
        fast_path_speedups.len()
    );
}
