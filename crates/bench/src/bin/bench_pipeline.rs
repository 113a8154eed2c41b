//! Front-end pipeline benchmark: measures the wash-path front end
//! (grouping + merging + greedy insertion) per bundled benchmark at 1 and 8
//! worker threads, and compares against the committed pre-refactor baseline
//! (`BENCH_pipeline_baseline.json`).
//!
//! Usage:
//!
//! ```text
//! bench_pipeline [--batch] [--smoke] [--out FILE]
//! ```
//!
//! `--smoke` runs only the demo benchmark once, prints the stage breakdown,
//! and writes nothing — a fast CI sanity check that the harness still runs.
//! The full run writes `BENCH_pipeline.json` (or `--out FILE`).
//!
//! `--batch` instead measures the planner engine's batched solve path:
//! a corpus of instances (bundled suite + seeded synthetic instances) is
//! solved by three planners per instance, once with cold one-shot `pdw`/
//! `dawo` calls and once through `plan_batch` with shared `PlanContext`s at
//! 1 and 8 worker threads. The run asserts the three paths produce
//! bit-identical schedules and metrics, then writes `BENCH_batch.json`
//! (or `--out FILE`) with the amortized and parallel speedups.
//! `--batch --smoke` runs a scaled-down corpus and writes nothing.

use std::collections::HashSet;
use std::time::Instant;

use pathdriver_wash::{
    dawo, insert_washes_protected, merge_groups, pdw, plan_batch, spot_cluster_groups,
    CandidatePolicy, DawoPlanner, GreedyPlanner, PdwConfig, Planner, WashResult,
};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_biochip::routing_counters;
use pdw_contam::{analyze, NecessityOptions};
use pdw_synth::Synthesis;
use serde::{Deserialize, Serialize};

/// One front-end measurement (best of three runs, by front-end time).
#[derive(Debug, Clone, Serialize)]
struct Measurement {
    threads: usize,
    requirements: usize,
    groups: usize,
    necessity_s: f64,
    grouping_s: f64,
    merge_s: f64,
    greedy_s: f64,
    front_end_s: f64,
    route_calls: u64,
    bfs_runs: u64,
    scratch_reuses: u64,
}

#[derive(Debug, Serialize)]
struct Row {
    benchmark: String,
    baseline_front_end_s: Option<f64>,
    serial: Measurement,
    parallel: Measurement,
    /// Committed pre-refactor serial front end / 8-thread front end.
    speedup_vs_baseline: Option<f64>,
    /// 1-thread front end / 8-thread front end (same binary).
    speedup_vs_serial: f64,
}

/// The schema of `BENCH_pipeline_baseline.json` (pre-refactor harness).
#[derive(Debug, Deserialize)]
struct BaselineRow {
    benchmark: String,
    front_end_s: f64,
}

fn measure(bench: &Benchmark, s: &Synthesis, threads: usize, repeats: usize) -> Measurement {
    let mut best: Option<Measurement> = None;
    for _ in 0..repeats {
        let c0 = routing_counters();
        let t0 = Instant::now();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let necessity_s = t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        let groups = spot_cluster_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            3,
            threads,
        );
        let grouping_s = t1.elapsed().as_secs_f64();

        let t2 = Instant::now();
        let groups = merge_groups(&s.chip, &s.schedule, groups, 3);
        let merge_s = t2.elapsed().as_secs_f64();

        let protected: HashSet<pdw_sched::TaskId> = s
            .schedule
            .tasks()
            .filter(|(_, t)| t.kind().is_waste_disposal())
            .map(|(id, _)| id)
            .filter(|id| !a.deletable.contains(id))
            .collect();
        let t3 = Instant::now();
        let out = insert_washes_protected(&s.chip, &s.schedule, &groups, true, &protected);
        let greedy_s = t3.elapsed().as_secs_f64();
        let d = routing_counters() - c0;

        let m = Measurement {
            threads,
            requirements: a.requirements.len(),
            groups: out.groups.len(),
            necessity_s,
            grouping_s,
            merge_s,
            greedy_s,
            front_end_s: grouping_s + merge_s + greedy_s,
            route_calls: d.route_calls,
            bfs_runs: d.bfs_runs,
            scratch_reuses: d.scratch_reuses,
        };
        if best.as_ref().is_none_or(|b| m.front_end_s < b.front_end_s) {
            best = Some(m);
        }
    }
    best.expect("at least one repeat")
}

fn print_measurement(name: &str, m: &Measurement) {
    println!(
        "{:<14} t={} req={:<4} groups={:<4} grouping {:.4}s merge {:.4}s greedy {:.4}s \
         front-end {:.4}s (routes {}, bfs {}, reuses {})",
        name,
        m.threads,
        m.requirements,
        m.groups,
        m.grouping_s,
        m.merge_s,
        m.greedy_s,
        m.front_end_s,
        m.route_calls,
        m.bfs_runs,
        m.scratch_reuses,
    );
}

/// The `--batch` report: cold one-shot solves vs `plan_batch` over shared
/// contexts, with the bit-identity verdict.
#[derive(Debug, Serialize)]
struct BatchReport {
    instances: usize,
    planners: Vec<&'static str>,
    repeats: usize,
    /// Serial one-shot `dawo()`/`pdw()` calls, fresh context per call.
    cold_s: f64,
    /// `plan_batch` at 1 thread — isolates context/scratch amortization.
    batch_serial_s: f64,
    /// `plan_batch` at `batch_threads` threads — the headline number.
    batch_parallel_s: f64,
    batch_threads: usize,
    /// `cold_s / batch_serial_s` (shared-context amortization only).
    amortized_speedup: f64,
    /// `cold_s / batch_parallel_s` (amortization + fan-out).
    total_speedup: f64,
    /// Every schedule and metric identical across all three paths.
    bit_identical: bool,
}

/// Builds the batch corpus: bundled benchmarks plus seeded synthetic
/// instances from `pdw-gen` (infeasible seeds are skipped).
fn batch_corpus(smoke: bool) -> Vec<(Benchmark, Synthesis)> {
    let mut owned: Vec<(Benchmark, Synthesis)> = Vec::new();
    let benches: Vec<Benchmark> = if smoke {
        vec![benchmarks::demo()]
    } else {
        benchmarks::suite()
            .into_iter()
            .chain([benchmarks::demo()])
            .collect()
    };
    for b in benches {
        let s = pdw_synth::synthesize(&b).expect("bundled benchmark synthesizes");
        owned.push((b, s));
    }
    let seeds = if smoke { 0..4u64 } else { 0..24u64 };
    for seed in seeds {
        if let Ok((b, s)) = pdw_gen::instance(&pdw_gen::spec_from_seed(seed)) {
            owned.push((b, s));
        }
    }
    owned
}

fn same_plan(a: &WashResult, b: &WashResult) -> bool {
    a.schedule == b.schedule && a.metrics == b.metrics
}

fn batch_mode(smoke: bool, out_path: &str) {
    let owned = batch_corpus(smoke);
    let instances: Vec<(&Benchmark, &Synthesis)> = owned.iter().map(|(b, s)| (b, s)).collect();

    // Three planners per instance: DAWO (reuse-only analysis) plus two
    // greedy configurations differing only in their thread knob — the
    // differential verifier's exact pattern. A shared context computes the
    // full necessity analysis and the front-end groups once; the second
    // greedy solve clones the cached groups instead of re-routing every
    // candidate path. Inner fan-outs are pinned (identically for the cold
    // and batch paths) so the batch driver's per-instance fan-out is the
    // only parallelism being measured.
    let cfg_a = PdwConfig {
        ilp: false,
        threads: 1,
        ..PdwConfig::default()
    };
    let cfg_b = PdwConfig {
        ilp: false,
        threads: 2,
        ..PdwConfig::default()
    };
    let greedy_a = GreedyPlanner::new(cfg_a.clone());
    let greedy_b = GreedyPlanner::new(cfg_b.clone());
    let planners: Vec<&dyn Planner> = vec![&DawoPlanner, &greedy_a, &greedy_b];
    let batch_threads = 8;
    let repeats = if smoke { 1 } else { 3 };

    let run_cold = || -> Vec<Vec<WashResult>> {
        owned
            .iter()
            .map(|(b, s)| {
                vec![
                    dawo(b, s).expect("dawo succeeds"),
                    pdw(b, s, &cfg_a).expect("pdw succeeds"),
                    pdw(b, s, &cfg_b).expect("pdw succeeds"),
                ]
            })
            .collect()
    };

    let mut cold_s = f64::INFINITY;
    let mut cold_results = Vec::new();
    for _ in 0..repeats {
        let t = Instant::now();
        let r = run_cold();
        let elapsed = t.elapsed().as_secs_f64();
        if elapsed < cold_s {
            cold_s = elapsed;
        }
        cold_results = r;
    }

    let timed_batch = |threads: usize| -> (f64, Vec<Vec<WashResult>>) {
        let mut best = f64::INFINITY;
        let mut results = Vec::new();
        for _ in 0..repeats {
            let t = Instant::now();
            let rows = plan_batch(&instances, &planners, threads);
            let elapsed = t.elapsed().as_secs_f64();
            if elapsed < best {
                best = elapsed;
            }
            results = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|r| r.expect("planner succeeds"))
                        .collect()
                })
                .collect();
        }
        (best, results)
    };
    let (batch_serial_s, batch1) = timed_batch(1);
    let (batch_parallel_s, batchn) = timed_batch(batch_threads);

    let bit_identical = cold_results
        .iter()
        .zip(&batch1)
        .zip(&batchn)
        .all(|((cold, b1), bn)| {
            cold.iter()
                .zip(b1)
                .zip(bn)
                .all(|((c, x), y)| same_plan(c, x) && same_plan(c, y))
        });
    assert!(
        bit_identical,
        "batch results diverge from cold one-shot calls"
    );

    let report = BatchReport {
        instances: instances.len(),
        planners: planners.iter().map(|p| p.name()).collect(),
        repeats,
        cold_s,
        batch_serial_s,
        batch_parallel_s,
        batch_threads,
        amortized_speedup: cold_s / batch_serial_s,
        total_speedup: cold_s / batch_parallel_s,
        bit_identical,
    };
    println!(
        "batch: {} instances x {} planners, cold {:.3}s, shared-context {:.3}s \
         ({:.2}x), {}-thread batch {:.3}s ({:.2}x), bit-identical: {}",
        report.instances,
        report.planners.len(),
        report.cold_s,
        report.batch_serial_s,
        report.amortized_speedup,
        report.batch_threads,
        report.batch_parallel_s,
        report.total_speedup,
        report.bit_identical,
    );
    if smoke {
        println!("batch smoke run ok");
        return;
    }
    pdw_bench::models::write_report(out_path, &report);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let batch = args.iter().any(|a| a == "--batch");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if batch {
            "BENCH_batch.json"
        } else {
            "BENCH_pipeline.json"
        });

    if batch {
        batch_mode(smoke, out_path);
        return;
    }

    if smoke {
        let bench = benchmarks::demo();
        let s = pdw_synth::synthesize(&bench).expect("demo synthesizes");
        let m = measure(&bench, &s, 0, 1);
        print_measurement(&bench.name, &m);
        println!("smoke run ok");
        return;
    }

    let baseline: Vec<BaselineRow> = std::fs::read_to_string("BENCH_pipeline_baseline.json")
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
        .unwrap_or_default();

    let mut rows = Vec::new();
    for bench in benchmarks::suite() {
        let s = pdw_synth::synthesize(&bench).expect("benchmark synthesizes");
        let serial = measure(&bench, &s, 1, 3);
        let parallel = measure(&bench, &s, 8, 3);
        let base = baseline
            .iter()
            .find(|b| b.benchmark == bench.name)
            .map(|b| b.front_end_s);
        print_measurement(&bench.name, &serial);
        print_measurement(&bench.name, &parallel);
        let row = Row {
            benchmark: bench.name.clone(),
            baseline_front_end_s: base,
            speedup_vs_baseline: base.map(|b| b / parallel.front_end_s),
            speedup_vs_serial: serial.front_end_s / parallel.front_end_s,
            serial,
            parallel,
        };
        if let Some(sp) = row.speedup_vs_baseline {
            println!(
                "{:<14} {:.2}x vs committed baseline, {:.2}x vs 1-thread",
                row.benchmark, sp, row.speedup_vs_serial
            );
        }
        rows.push(row);
    }

    pdw_bench::models::write_report(out_path, &rows);
}
