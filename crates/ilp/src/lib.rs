//! A self-contained mixed-integer linear programming (MILP) solver.
//!
//! The PathDriver-Wash paper formulates wash optimization as integer linear
//! programs and solves them with Gurobi under a wall-clock budget. No ILP
//! solver exists in this build's offline crate registry, so this crate
//! provides one from scratch:
//!
//! - [`Model`] — variables (continuous/integer/binary with bounds), linear
//!   constraints (`≤`, `≥`, `=`), and a linear objective to *minimize*;
//! - a **bounded-variable two-phase primal simplex** for LP relaxations
//!   ([`solve_lp`]) over a condensed tableau: one bounded logical per row,
//!   no slack or artificial columns, and one column per nonbasic variable
//!   only;
//! - **parallel branch-and-bound** over the integer variables ([`solve`])
//!   with best-first lanes merged in a fixed order, depth-first diving,
//!   warm-started node LPs, a wall-clock budget, and anytime incumbents —
//!   mirroring the paper's "15-minute best-effort" solver usage. Each
//!   lane's tableau stays live from node to node and is pivoted to the next
//!   node's basis rather than rebuilt;
//! - a [`SolverStats`] report on every solution (node throughput, LP
//!   pivots, warm-start hit rate, basis-repair pivots and full tableau
//!   rebuilds, incumbent timeline).
//!
//! The solver is deterministic: an identical model runs an identical search
//! (the same nodes, pivots and solution) at any configured thread count
//! ([`SolveOptions::threads`]); threads change only how fast it goes, and
//! so where a wall-clock budget stops it.
//!
//! # Example
//!
//! ```
//! use pdw_ilp::{Model, Relation, SolveOptions};
//!
//! // maximize x + 2y  s.t.  x + y <= 4, x,y in {0,1,2,3}  (minimize the negation)
//! let mut m = Model::new("toy");
//! let x = m.integer("x", 0.0, 3.0, -1.0);
//! let y = m.integer("y", 0.0, 3.0, -2.0);
//! m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! let sol = pdw_ilp::solve(&m, &SolveOptions::default()).expect("feasible");
//! assert_eq!(sol.value(y).round() as i64, 3);
//! assert_eq!(sol.value(x).round() as i64, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod model;
mod presolve;
mod simplex;

pub use branch::{
    solve, IncumbentEvent, MilpError, Solution, SolveOptions, SolveStatus, SolverStats,
};
pub use model::{LinExpr, Model, Relation, VarId, VarType};
pub use presolve::{presolve, presolve_with_stats, PresolveStats, Presolved};
pub use simplex::{solve_lp, solve_lp_with_bounds, solve_lp_with_deadline, LpOutcome, LpSolution};

/// Feasibility tolerance used throughout the solver.
pub const FEAS_TOL: f64 = 1e-7;

/// Integrality tolerance: a value within this distance of an integer is
/// considered integral.
pub const INT_TOL: f64 = 1e-6;
