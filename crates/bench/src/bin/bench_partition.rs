//! Chip-partitioning benchmark: whole-chip planning vs the partitioned
//! pipeline on a `mega` instance (banded grid, [`pdw_gen::mega_instance`]).
//!
//! Usage:
//!
//! ```text
//! bench_partition [--smoke] [--subprocess] [--out FILE] [--side N] [--ops N] [--seed N]
//! ```
//!
//! The full run sweeps K ∈ {1, 4, 16} partitions × {1, 8} worker threads on
//! one mega instance (default 129×129, 16 ops, seed 5 — sized so the
//! super-linear whole-chip baseline completes in about a minute on one core;
//! push `--side` up to 1000 and `--ops` into the hundreds on bigger
//! machines), records wall
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
//! `--subprocess` adds a column: every K ≥ 2 point is re-measured with
//! region front ends running in out-of-process workers (this binary
//! re-executed with `--worker`), and the subprocess schedule is asserted
//! bit-identical to the in-process one.

use std::time::Instant;

use pathdriver_wash::{
    plan_partitioned_with, PdwConfig, RungKind, StreamExecutor, Weights, WorkerChaos,
};
use pdw_assay::benchmarks::Benchmark;
use pdw_synth::Synthesis;
use serde::Serialize;

/// One (partitions, threads) measurement.
#[derive(Debug, Serialize)]
struct Point {
    partitions: usize,
    threads: usize,
    /// Where region front ends ran: `in-process` or `subprocess`.
    executor: String,
    /// Region jobs answered by a worker process (0 in-process).
    subprocess_jobs: usize,
    /// Region jobs replanned in-process after a worker failure.
    subprocess_fallbacks: usize,
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
    /// `wall(subprocess) / wall(in-process) − 1` at (K=max, 8 threads):
    /// what crossing a process boundary costs. `None` without
    /// `--subprocess`.
    subprocess_overhead: Option<f64>,
}

fn print_point(p: &Point) {
    println!(
        "K={:<3} t={} [{}] wall {:>8.3}s objective {:>12.1} (N_wash {}, rung {}, \
         {} regions, {} skipped, {} refused, {} seam groups, {} remote, {} fallback)",
        p.partitions,
        p.threads,
        p.executor,
        p.wall_s,
        p.objective,
        p.n_wash,
        p.rung,
        p.regions,
        p.regions_skipped,
        p.regions_refused,
        p.seam_groups,
        p.subprocess_jobs,
        p.subprocess_fallbacks,
    );
}

fn solve(
    bench: &Benchmark,
    s: &Synthesis,
    partitions: usize,
    threads: usize,
    executor: Option<&StreamExecutor>,
) -> (Point, pdw_sched::Schedule) {
    let config = PdwConfig {
        ilp: false,
        threads,
        ..PdwConfig::default()
    };
    let t0 = Instant::now();
    let outcome = plan_partitioned_with(bench, s, &config, partitions, executor);
    let wall_s = t0.elapsed().as_secs_f64();
    let report = executor.map(StreamExecutor::report).unwrap_or_default();
    let r = outcome.served.expect("mega instance serves a plan");
    let schedule = r.schedule.clone();
    let point = Point {
        partitions,
        threads,
        executor: executor.map_or("in-process", StreamExecutor::name).into(),
        subprocess_jobs: report.remote_jobs,
        subprocess_fallbacks: report.fallbacks,
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
    (point, schedule)
}

fn arg_value(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().unwrap_or_else(|_| panic!("bad {flag} `{v}`")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        // Child mode for --subprocess: a framed region-planning loop on
        // stdin/stdout, exactly like `pdw worker`.
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let chaos = WorkerChaos::from_env().expect("PDW_WORKER_CHAOS parses");
        pathdriver_wash::run_worker(&mut stdin.lock(), &mut stdout.lock(), chaos)
            .expect("worker protocol");
        return;
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let subprocess = args.iter().any(|a| a == "--subprocess");
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
    let (bench, s) = pdw_gen::mega_instance(&spec).expect("mega instance synthesizes");
    println!(
        "instance {} ({}x{} cells, {} ops, {} devices)",
        bench.name,
        side,
        side,
        bench.op_count(),
        bench.device_count()
    );

    let ks: &[usize] = if smoke { &[1, 4] } else { &[1, 4, 16] };
    let worker_cmd = std::env::current_exe()
        .map(|exe| vec![exe.display().to_string(), "--worker".to_string()])
        .expect("locate own binary");
    let mut points = Vec::new();
    for &k in ks {
        for threads in [1usize, 8] {
            let (p, schedule) = solve(&bench, &s, k, threads, None);
            print_point(&p);
            // The --subprocess column: same point, front ends in worker
            // processes, schedule asserted bit-identical.
            if subprocess && k >= 2 {
                let executor = StreamExecutor::spawn(worker_cmd.clone(), threads);
                let (sp, sp_schedule) = solve(&bench, &s, k, threads, Some(&executor));
                print_point(&sp);
                assert_eq!(
                    sp_schedule, schedule,
                    "K={k} t={threads}: subprocess schedule diverged from in-process"
                );
                assert_eq!(
                    sp.subprocess_fallbacks, 0,
                    "K={k} t={threads}: healthy workers fell back"
                );
                assert!(sp.subprocess_jobs > 0, "K={k} t={threads}: no remote jobs");
                points.push(sp);
            }
            points.push(p);
        }
    }

    let k_max = *ks.last().expect("sweep is non-empty");
    let at = |k: usize, t: usize| {
        points
            .iter()
            .find(|p| p.partitions == k && p.threads == t && p.executor == "in-process")
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
    // Transport cost of crossing a process boundary per region job, at the
    // widest sweep point (only meaningful with --subprocess).
    let subprocess_overhead = points
        .iter()
        .find(|p| p.partitions == k_max && p.threads == 8 && p.executor != "in-process")
        .map(|p| p.wall_s / at(k_max, 8).wall_s - 1.0);
    println!(
        "speedup K={k_max} vs whole-chip: {speedup_8t:.2}x at 8 threads, \
         {speedup_1t:.2}x at 1 thread; worst objective gap {:.2}%",
        objective_gap * 100.0
    );
    if let Some(overhead) = subprocess_overhead {
        println!(
            "subprocess overhead at K={k_max}, 8 threads: {:+.1}% (bit-identical schedules)",
            overhead * 100.0
        );
    }

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
        subprocess_overhead,
    };
    pdw_bench::models::write_report(out_path, &report);
}
