//! Chip-partitioning benchmark: whole-chip planning vs the partitioned
//! pipeline on a `mega` instance (banded grid, [`pdw_gen::mega_instance`]).
//!
//! Usage:
//!
//! ```text
//! bench_partition [--smoke] [--out FILE] [--side N] [--ops N] [--seed N]
//! ```
//!
//! The full run sweeps K ∈ {1, 4, 16} partitions × {1, 8} worker threads on
//! one mega instance (default 129×129, 16 ops, seed 5 — sized so the
//! whole-chip baseline completes in about a second on one core; the
//! whole-chip front end is super-linear, so 257×257 with 32 ops takes about
//! 16 s and 385×385 with 48 ops minutes), records wall
//! time and objective per point, and writes `BENCH_partition.json` (or
//! `--out FILE`). K = 1 *is* the whole-chip path (`plan_partitioned`
//! delegates to the unpartitioned ladder), so the headline speedup is
//! `wall(K=1) / wall(K=16)` at 8 threads.
//!
//! `--smoke` runs a small instance (65×65, 16 ops) at K ∈ {1, 4} only,
//! asserts the partitioned objective stays within 5% of the whole-chip
//! objective, and writes `BENCH_partition_smoke.json` (or `--out FILE`) —
//! the CI regression gate.
//!
//! Not every `--side`/`--ops`/`--seed` synthesizes (513×513 with 64 ops
//! does not on seeds 5 and 6): such a spec prints the synthesis error and
//! exits 1.

use std::time::Instant;

use pathdriver_wash::{plan_partitioned, PdwConfig, RungKind, Weights};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;
use serde::Serialize;

/// One (partitions, threads) measurement.
#[derive(Debug, Serialize)]
struct Point {
    partitions: usize,
    threads: usize,
    wall_s: f64,
    objective: f64,
    n_wash: usize,
    rung: String,
    regions: usize,
    regions_skipped: usize,
    regions_refused: usize,
    seam_groups: usize,
}

#[derive(Debug, Serialize)]
struct Report {
    instance: String,
    side: u16,
    ops: usize,
    points: Vec<Point>,
    /// `wall(K=1) / wall(K=max)` at 8 threads — the headline number.
    speedup_8t: f64,
    /// `wall(K=1) / wall(K=max)`, both single-threaded (cut benefit alone).
    speedup_1t: f64,
    /// Worst `objective(K) / objective(K=1) − 1` over the sweep at 8
    /// threads (how much plan quality the cuts cost).
    objective_gap: f64,
}

fn print_point(p: &Point) {
    println!(
        "K={:<3} t={} wall {:>8.3}s objective {:>12.1} (N_wash {}, rung {}, \
         {} regions, {} skipped, {} refused, {} seam groups)",
        p.partitions,
        p.threads,
        p.wall_s,
        p.objective,
        p.n_wash,
        p.rung,
        p.regions,
        p.regions_skipped,
        p.regions_refused,
        p.seam_groups,
    );
}

fn solve(bench: &Benchmark, s: &Synthesis, partitions: usize, threads: usize) -> Point {
    let config = PdwConfig {
        ilp: false,
        threads,
        ..PdwConfig::default()
    };
    let t0 = Instant::now();
    let outcome = plan_partitioned(bench, s, &config, partitions);
    let wall_s = t0.elapsed().as_secs_f64();
    let r = outcome.served.expect("mega instance serves a plan");
    let point = Point {
        partitions,
        threads,
        wall_s,
        objective: r.objective(&Weights::default()),
        n_wash: r.metrics.n_wash,
        rung: outcome
            .rung
            .map(|k| k.to_string())
            .unwrap_or_else(|| "none".into()),
        regions: r.pipeline.partition_regions,
        regions_skipped: r.pipeline.regions_skipped,
        regions_refused: r.pipeline.regions_refused,
        seam_groups: r.pipeline.seam_groups,
    };
    if partitions >= 2 {
        assert_eq!(
            outcome.rung,
            Some(RungKind::Partitioned),
            "partitioned rung rejected at K={partitions}, {threads} threads"
        );
    }
    point
}

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {flag} `{v}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(if smoke {
            "BENCH_partition_smoke.json"
        } else {
            "BENCH_partition.json"
        });
    let side = arg_value(&args, "--side").unwrap_or(if smoke { 65 } else { 129 }) as u16;
    let ops = arg_value(&args, "--ops").unwrap_or(16) as usize;
    let seed = arg_value(&args, "--seed").unwrap_or(if smoke { 3 } else { 5 });

    let spec = pdw_gen::mega_spec(side, ops, seed);
    let (bench, s) = match pdw_gen::mega_instance(&spec) {
        Ok(instance) => instance,
        Err(skip) => {
            eprintln!("bench_partition: {side}x{side}, {ops} ops, seed {seed}: {skip}");
            std::process::exit(1);
        }
    };
    println!(
        "instance {} ({}x{} cells, {} ops, {} devices)",
        bench.name,
        side,
        side,
        bench.op_count(),
        bench.device_count()
    );

    let ks: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let mut points = Vec::new();
    for &k in ks {
        for threads in [1usize, 8] {
            let p = solve(&bench, &s, k, threads);
            print_point(&p);
            points.push(p);
        }
    }

    let k_max = *ks.last().expect("sweep is non-empty");
    let at = |k: usize, t: usize| {
        points
            .iter()
            .find(|p| p.partitions == k && p.threads == t)
            .expect("swept point")
    };
    let whole_8t = at(1, 8);
    let speedup_8t = whole_8t.wall_s / at(k_max, 8).wall_s;
    let speedup_1t = at(1, 1).wall_s / at(k_max, 1).wall_s;
    let objective_gap = points
        .iter()
        .filter(|p| p.threads == 8)
        .map(|p| p.objective / whole_8t.objective - 1.0)
        .fold(0.0f64, f64::max);
    println!(
        "speedup K={k_max} vs whole-chip: {speedup_8t:.2}x at 8 threads, \
         {speedup_1t:.2}x at 1 thread; worst objective gap {:.2}%",
        objective_gap * 100.0
    );

    if smoke {
        // The CI regression gate: cutting the chip may not cost more than
        // 5% objective on the smoke instance.
        assert!(
            objective_gap <= 0.05,
            "partitioned objective gap {:.4} exceeds 1.05x whole-chip",
            objective_gap
        );
        println!("smoke regression gate ok (gap <= 5%)");
    }

    let report = Report {
        instance: bench.name.clone(),
        side,
        ops,
        points,
        speedup_8t,
        speedup_1t,
        objective_gap,
    };
    pdw_bench::models::write_report(out_path, &report);
}
