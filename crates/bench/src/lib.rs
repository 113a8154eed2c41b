//! Benchmark harness regenerating every table and figure of the
//! PathDriver-Wash paper.
//!
//! The binaries in `src/bin` print the artifacts:
//!
//! - `table1` — the demo assay's complete flow-path listing and schedules
//!   (Table I / Figs. 2(b)–3),
//! - `table2` — the DAWO-vs-PDW comparison on all eight benchmarks
//!   (Table II),
//! - `fig4` — average waiting time of biochemical operations per benchmark,
//! - `fig5` — total wash time per benchmark.
//!
//! The Criterion benches in `benches/` time the optimizers themselves and
//! the ablations of the three PDW techniques.

use std::time::Duration;

use pathdriver_wash::{dawo_ctx, pdw_ctx, PdwConfig, PlanContext, SolverStats, WashResult};
use pdw_assay::benchmarks::{self, Benchmark};
use pdw_sim::Metrics;
use pdw_synth::{synthesize, Synthesis};
use serde::Serialize;

pub mod models;

/// One benchmark's results under both methods.
#[derive(Debug, Clone, Serialize)]
pub struct Row {
    /// Benchmark name (Table II, column 1).
    pub name: String,
    /// `|O| / |D| / |E|` (Table II, column 2).
    pub sizes: (usize, usize, usize),
    /// Metrics of the wash-free synthesized schedule (delay reference).
    pub base: Metrics,
    /// DAWO metrics.
    pub dawo: Metrics,
    /// PDW metrics.
    pub pdw: Metrics,
    /// Excess removals integrated into washes by PDW.
    pub integrated: usize,
    /// Whether PDW's ILP refinement produced the final schedule.
    pub used_ilp: bool,
    /// Detailed ILP solver counters (`None` when the ILP never ran or its
    /// refinement was rejected).
    pub solver_stats: Option<SolverStats>,
    /// Rows and columns of an ILP model the tableau size guard
    /// refused before solving.
    pub ilp_refused_model: Option<(usize, usize)>,
}

impl Row {
    /// `T_delay` for DAWO: wash-induced delay over the wash-free schedule.
    pub fn dawo_delay(&self) -> u32 {
        self.dawo.delay_vs(&self.base)
    }

    /// `T_delay` for PDW.
    pub fn pdw_delay(&self) -> u32 {
        self.pdw.delay_vs(&self.base)
    }
}

/// Percentage improvement of `new` over `old` (positive = better).
pub fn improvement(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        0.0
    } else {
        (old - new) / old * 100.0
    }
}

/// Runs one benchmark through synthesis, DAWO, and PDW.
///
/// # Panics
///
/// Panics if synthesis or either optimizer fails — the harness treats any
/// failure as a reproduction bug.
pub fn run_benchmark(bench: &Benchmark, config: &PdwConfig) -> Row {
    let synthesis: Synthesis = synthesize(bench).expect("synthesis succeeds");
    let base = Metrics::measure(&bench.graph, &synthesis.schedule);
    // Both methods run against one shared PlanContext: the instance's
    // necessity analyses and routing state are computed once.
    let mut ctx = PlanContext::new(bench, &synthesis);
    let d: WashResult = dawo_ctx(&mut ctx).expect("dawo succeeds");
    let p: WashResult = pdw_ctx(&mut ctx, config).expect("pdw succeeds");
    Row {
        name: bench.name.clone(),
        sizes: (bench.op_count(), bench.device_count(), bench.edge_count()),
        base,
        dawo: d.metrics,
        pdw: p.metrics,
        integrated: p.integrated,
        used_ilp: p.solver.used_ilp,
        solver_stats: p.solver.stats,
        ilp_refused_model: p.pipeline.ilp_refused_model,
    }
}

/// Runs the whole Table II suite.
pub fn run_suite(config: &PdwConfig) -> Vec<Row> {
    benchmarks::suite()
        .iter()
        .map(|b| run_benchmark(b, config))
        .collect()
}

/// The default experiment configuration: full PDW with a per-benchmark ILP
/// budget (pass seconds via the `PDW_BUDGET_S` environment variable to
/// change it; the paper used 15 minutes).
pub fn experiment_config() -> PdwConfig {
    let secs = std::env::var("PDW_BUDGET_S")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(5);
    PdwConfig {
        ilp_budget: Duration::from_secs(secs),
        ..PdwConfig::default()
    }
}
