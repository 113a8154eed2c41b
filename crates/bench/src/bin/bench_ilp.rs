//! MILP solver baseline: node throughput, warm-start effectiveness, and
//! thread-scaling on synthetic models plus the full Table II pipeline.
//!
//! Usage: `cargo run -p pdw-bench --bin bench_ilp --release [-- --out <path>]`
//!
//! Writes `BENCH_ilp.json` (machine-readable [`pdw_ilp::SolverStats`] per
//! run) and prints a human summary. The committed JSON is the reference
//! baseline for the solver's performance; regenerate it on the same class
//! of machine before comparing numbers.
//!
//! Two throughput views are reported per synthetic model:
//!
//! - `nodes_per_sec` at 1/2/4 threads (thread scaling; objectives must be
//!   identical at every thread count), with the single-thread run's full
//!   tableau rebuilds and basis-repair pivots next to it, and
//! - `node_speedup_vs_cold_lp`: the per-node time of the search divided
//!   into the time of one standalone cold LP solve (`solve_lp`) of the same
//!   model — i.e. how much the warm-started, workspace-reusing node path
//!   gains over solving every node from scratch, which is what the
//!   sequential solver did before warm starts.

use std::time::Instant;

use pdw_bench::models::{difference_chain, disjunctive, disjunctive_chain, multi_knapsack};
use pdw_ilp::{solve, solve_lp, LpOutcome, Model, SolveOptions, SolverStats};
use serde::Serialize;

#[derive(Serialize)]
struct Run {
    threads: usize,
    objective: f64,
    optimal: bool,
    stats: SolverStats,
}

#[derive(Serialize)]
struct SyntheticReport {
    model: String,
    rows: usize,
    vars: usize,
    runs: Vec<Run>,
    /// Milliseconds for one standalone cold LP solve of the root model.
    cold_lp_ms: f64,
    /// Milliseconds per branch-and-bound node (single-thread run).
    per_node_ms: f64,
    /// `cold_lp_ms / per_node_ms` — per-node gain of the warm-started path
    /// over from-scratch node LPs.
    node_speedup_vs_cold_lp: f64,
}

#[derive(Serialize)]
struct Table2Report {
    benchmark: String,
    used_ilp: bool,
    /// Whether the search found a better incumbent than its greedy warm
    /// start (a served ILP plan may be the warm start unchanged).
    improved_on_greedy: bool,
    /// Rows and columns of a model the dense-tableau size guard refused.
    refused_model: Option<(usize, usize)>,
    stats: Option<SolverStats>,
}

#[derive(Serialize)]
struct Report {
    available_parallelism: usize,
    thread_counts: Vec<usize>,
    synthetic: Vec<SyntheticReport>,
    table2: Vec<Table2Report>,
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

fn time_cold_lp(m: &Model) -> f64 {
    // Warm the caches once, then take the best of a few runs (least noise).
    let _ = solve_lp(m);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t = Instant::now();
        let out = solve_lp(m);
        let dt = t.elapsed().as_secs_f64() * 1e3;
        assert!(
            matches!(out, LpOutcome::Optimal(_)),
            "baseline LP must solve"
        );
        best = best.min(dt);
    }
    best
}

fn synthetic(name: &str, m: Model) -> SyntheticReport {
    let mut runs = Vec::new();
    for &threads in &THREAD_COUNTS {
        let opts = SolveOptions {
            threads,
            ..SolveOptions::default()
        };
        let sol = solve(&m, &opts).expect("synthetic model is feasible");
        runs.push(Run {
            threads,
            objective: sol.objective,
            optimal: sol.status == pdw_ilp::SolveStatus::Optimal,
            stats: sol.stats,
        });
    }
    // The search must prove the same optimum at every thread count.
    for r in &runs[1..] {
        assert!(
            (r.objective - runs[0].objective).abs() < 1e-9,
            "{name}: objective at {} threads ({}) differs from 1 thread ({})",
            r.threads,
            r.objective,
            runs[0].objective
        );
    }
    let cold_lp_ms = time_cold_lp(&m);
    let single = &runs[0].stats;
    let per_node_ms = if single.nodes > 0 {
        single.search_time_s * 1e3 / single.nodes as f64
    } else {
        0.0
    };
    SyntheticReport {
        model: name.to_string(),
        rows: m.num_constraints(),
        vars: m.num_vars(),
        runs,
        cold_lp_ms,
        per_node_ms,
        node_speedup_vs_cold_lp: if per_node_ms > 0.0 {
            cold_lp_ms / per_node_ms
        } else {
            0.0
        },
    }
}

fn main() {
    let mut out = "BENCH_ilp.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" {
            out = args.next().expect("--out needs a path");
        }
    }

    let synthetic_reports = vec![
        synthetic("difference_chain_400", difference_chain(400)),
        synthetic("disjunctive_5", disjunctive(5)),
        synthetic("disjunctive_6", disjunctive(6)),
        synthetic("disjunctive_chain_4x60", disjunctive_chain(4, 60)),
        synthetic("disjunctive_chain_5x40", disjunctive_chain(5, 40)),
        synthetic("multi_knapsack_18x3", multi_knapsack(18, 3)),
    ];

    println!(
        "{:<22} {:>6} {:>6} | {:>9} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>7}",
        "model",
        "rows",
        "vars",
        "n/s @1t",
        "n/s @2t",
        "n/s @4t",
        "warm%",
        "rebuilds",
        "repair",
        "LP ms",
        "vs cold"
    );
    for r in &synthetic_reports {
        let nps: Vec<f64> = r.runs.iter().map(|x| x.stats.nodes_per_sec).collect();
        let warm_pct = {
            let s = &r.runs[0].stats;
            let total = s.warm_lps + s.cold_lps;
            if total > 0 {
                100.0 * s.warm_lps as f64 / total as f64
            } else {
                0.0
            }
        };
        println!(
            "{:<22} {:>6} {:>6} | {:>9.0} {:>9.0} {:>9.0} | {:>7.1}% {:>8} {:>8} {:>8.3} {:>6.1}x",
            r.model,
            r.rows,
            r.vars,
            nps[0],
            nps[1],
            nps[2],
            warm_pct,
            r.runs[0].stats.refactorizations,
            r.runs[0].stats.basis_repair_pivots,
            r.cold_lp_ms,
            r.node_speedup_vs_cold_lp
        );
    }

    let config = pdw_bench::experiment_config();
    let table2: Vec<Table2Report> = pdw_bench::run_suite(&config)
        .into_iter()
        .map(|row| Table2Report {
            benchmark: row.name,
            used_ilp: row.used_ilp,
            // The warm start is the timeline's first incumbent.
            improved_on_greedy: row
                .solver_stats
                .as_ref()
                .is_some_and(|s| s.incumbent_timeline.len() > 1),
            refused_model: row.ilp_refused_model,
            stats: row.solver_stats,
        })
        .collect();
    for t in &table2 {
        match (&t.stats, t.refused_model) {
            (Some(s), _) => println!(
                "table2[{}]: {}x{} model, {} nodes in {:.2}s, {:.0} nodes/s, {} pivots, \
                 warm/cold {}/{}, {} rebuilds, {} repair pivots, {}",
                t.benchmark,
                s.rows,
                s.cols,
                s.nodes,
                s.wall_time_s,
                s.nodes_per_sec,
                s.lp_pivots,
                s.warm_lps,
                s.cold_lps,
                s.refactorizations,
                s.basis_repair_pivots,
                if t.improved_on_greedy {
                    "improved on greedy"
                } else {
                    "greedy warm start kept"
                }
            ),
            (None, Some((rows, cols))) => println!(
                "table2[{}]: {rows}x{cols} model refused by the dense-tableau size guard",
                t.benchmark
            ),
            (None, None) => println!("table2[{}]: ILP refinement not adopted", t.benchmark),
        }
    }
    let improved = table2.iter().filter(|t| t.improved_on_greedy).count();
    let served = table2.iter().filter(|t| t.used_ilp).count();
    println!(
        "table2: ILP plan served on {served} of {}, improved on greedy on {improved}",
        table2.len()
    );

    let report = Report {
        available_parallelism: std::thread::available_parallelism().map_or(1, |p| p.get()),
        thread_counts: THREAD_COUNTS.to_vec(),
        synthetic: synthetic_reports,
        table2,
    };
    pdw_bench::models::write_report(&out, &report);
}
