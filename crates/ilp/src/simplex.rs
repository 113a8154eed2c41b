//! Bounded-variable two-phase primal simplex over a dense tableau, with
//! warm-started reoptimization for branch-and-bound.
//!
//! Variable bounds are handled natively (nonbasic variables rest at either
//! bound; the ratio test includes bound flips), which keeps binary-heavy
//! scheduling models — the PathDriver-Wash workload — at half the row count
//! of the textbook formulation.
//!
//! The solver is split for reuse across branch-and-bound nodes:
//!
//! - [`Prepared`] holds the canonical constraint matrix built **once** per
//!   model (fixed column layout: structurals, then one slack per inequality
//!   row, then one artificial per row), so a node solve starts from a flat
//!   `memcpy` instead of re-assembling rows.
//! - [`Workspace`] owns every mutable buffer (tableau, basic values, reduced
//!   costs, pivot row). A branch-and-bound worker keeps one workspace and
//!   reuses it for every node it processes — zero per-node allocations.
//! - [`Basis`] snapshots a parent node's optimal basis. A child LP differs
//!   from its parent by a single variable bound, so the parent basis stays
//!   dual feasible and the child is reoptimized with the **dual simplex**,
//!   skipping phase 1 entirely on the hot path.
//!
//! The workspace's tableau stays **live** from one node to the next. Every
//! row operation is also applied to the unshifted right-hand side, so the
//! tableau carries `B⁻¹b` and any node's basic values follow from it, the
//! node's lower bounds and its columns at their upper bound in one
//! O(m·ncols) pass. A warm solve therefore pivots in only the columns of the
//! node's basis that the live basis lacks: none for a dive child, which
//! inherits the basis its parent just left behind, and a few for a node
//! popped from elsewhere in the tree. The tableau is rebuilt from the raw
//! matrix (a full Gauss-Jordan elimination) only when a needed pivot is
//! numerically too small or more than m pivots have accumulated since the
//! last build, which bounds round-off drift.
//!
//! A deadline is checked before every pivot — in both phases, the dual
//! simplex, the basis repair and the rebuild. One pivot on a large tableau
//! costs milliseconds while a rebuild can take seconds, so a solve stops
//! within one pivot of its deadline.
//!
//! The standalone entry points ([`solve_lp`], [`solve_lp_with_bounds`],
//! [`solve_lp_with_deadline`]) build a `Prepared`/`Workspace` pair
//! internally and run the cold two-phase path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::model::{Model, Relation};
use crate::FEAS_TOL;

/// A solved LP relaxation: values in the *original* variable space plus the
/// objective.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Value per variable, indexed by [`VarId`](crate::VarId).
    pub values: Vec<f64>,
    /// Objective value `cᵀx`.
    pub objective: f64,
}

/// Result of an LP solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimal basic solution was found.
    Optimal(LpSolution),
    /// The constraints admit no solution within the bounds.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// The iteration limit was hit before convergence (numerically cycling
    /// or extremely degenerate instance). Treated as "unknown" by callers.
    Stalled,
}

/// Solves the LP relaxation of `model` (integrality dropped) with the
/// model's own bounds.
pub fn solve_lp(model: &Model) -> LpOutcome {
    let lb: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].lb).collect();
    let ub: Vec<f64> = (0..model.num_vars()).map(|j| model.vars[j].ub).collect();
    solve_lp_with_bounds(model, &lb, &ub)
}

/// Solves the LP relaxation with overridden variable bounds (used by
/// branch-and-bound).
pub fn solve_lp_with_bounds(model: &Model, lb: &[f64], ub: &[f64]) -> LpOutcome {
    solve_lp_with_deadline(model, lb, ub, None)
}

/// Like [`solve_lp_with_bounds`], aborting with [`LpOutcome::Stalled`] once
/// `deadline` passes — a single large LP must not blow through the MILP's
/// wall-clock budget.
pub fn solve_lp_with_deadline(
    model: &Model,
    lb: &[f64],
    ub: &[f64],
    deadline: Option<Instant>,
) -> LpOutcome {
    let prep = Prepared::new(model);
    let mut ws = Workspace::new();
    solve_cold(&prep, &mut ws, lb, ub, deadline)
}

/// Per-column simplex status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Status {
    Basic,
    #[default]
    Lower,
    Upper,
}

/// A basis snapshot: which column is basic in each row, plus the resting
/// bound of every nonbasic column. Enough to reconstruct the tableau of the
/// node that produced it — or of a child differing only in variable bounds.
#[derive(Debug, Clone)]
pub(crate) struct Basis {
    pub(crate) cols: Vec<usize>,
    pub(crate) status: Vec<Status>,
}

enum Phase1 {
    Feasible,
    Infeasible,
    Stalled,
}

enum Phase2 {
    Optimal,
    Unbounded,
    Stalled,
}

enum Step {
    Moved,
    Converged,
    Unbounded,
}

enum Dual {
    PrimalFeasible,
    Infeasible,
    Stalled,
}

/// How bringing the tableau to a target basis ended.
enum Load {
    Loaded,
    /// Some column's best pivot fell below [`REBUILD_TOL`].
    Singular,
    /// The deadline passed between two pivots.
    Stalled,
}

/// Why a warm-started solve could not be completed (the caller falls back to
/// the cold two-phase path).
pub(crate) enum WarmError {
    /// The parent basis is numerically singular under the child's matrix.
    Singular,
    /// Loading the basis or the dual/primal cleanup loops hit their
    /// iteration or time budget.
    Stalled,
}

const RC_TOL: f64 = 1e-9;
const PIVOT_TOL: f64 = 1e-9;
const DEGENERATE_STREAK: u32 = 60;
/// A basis column whose best pivot falls below this is treated as singular.
const REBUILD_TOL: f64 = 1e-8;

/// Source of [`Prepared::id`].
static NEXT_PREPARED_ID: AtomicU64 = AtomicU64::new(1);

/// The canonical constraint matrix of one model, built once and shared by
/// every node solve (read-only).
///
/// Column layout (fixed, independent of node bounds):
/// `[0, n)` structurals · `[n, art0)` slacks (`+1` per `≤` row, `−1` per `≥`
/// row, in constraint order) · `[art0, ncols)` one artificial per row
/// (stored as zero here; materialized as an identity entry when a tableau is
/// loaded).
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// Identifies the matrix, so a [`Workspace`] can tell whether its live
    /// tableau was built from it.
    id: u64,
    n: usize,
    m: usize,
    ncols: usize,
    art0: usize,
    /// Dense `m × ncols` matrix, row-major.
    a: Vec<f64>,
    /// Unshifted right-hand sides.
    rhs: Vec<f64>,
    /// Phase-2 cost (structural objective coefficients; 0 elsewhere).
    cost: Vec<f64>,
    /// Slack column of each row (`None` for equality rows).
    slack_of_row: Vec<Option<usize>>,
}

impl Prepared {
    pub(crate) fn new(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        let n_slacks = model
            .constraints
            .iter()
            .filter(|c| c.rel != Relation::Eq)
            .count();
        let art0 = n + n_slacks;
        let ncols = art0 + m;

        let mut a = vec![0.0; m * ncols];
        let mut rhs = Vec::with_capacity(m);
        let mut slack_of_row = Vec::with_capacity(m);
        let mut next_slack = n;
        for (i, c) in model.constraints.iter().enumerate() {
            let row = &mut a[i * ncols..(i + 1) * ncols];
            for &(v, coef) in c.expr.terms() {
                row[v.0] += coef;
            }
            slack_of_row.push(match c.rel {
                Relation::Le => {
                    row[next_slack] = 1.0;
                    next_slack += 1;
                    Some(next_slack - 1)
                }
                Relation::Ge => {
                    row[next_slack] = -1.0;
                    next_slack += 1;
                    Some(next_slack - 1)
                }
                Relation::Eq => None,
            });
            rhs.push(c.rhs);
        }

        let mut cost = vec![0.0; ncols];
        for (j, cj) in cost.iter_mut().enumerate().take(n) {
            *cj = model.vars[j].obj;
        }

        Prepared {
            id: NEXT_PREPARED_ID.fetch_add(1, Ordering::Relaxed),
            n,
            m,
            ncols,
            art0,
            a,
            rhs,
            cost,
            slack_of_row,
        }
    }

    fn iter_limit(&self) -> u64 {
        200 * (self.m as u64 + self.ncols as u64) + 2_000
    }
}

/// Reusable mutable state for node solves. One per worker thread; every
/// buffer is resized on first use with a given [`Prepared`] and then reused
/// allocation-free.
///
/// Between solves the tableau stays valid for the model it was built from:
/// column `basis[i]` of `rows` is the `i`-th identity column, and `binv_b`
/// has seen every row operation `rows` has.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    rows: Vec<f64>,
    /// The unshifted right-hand side under the tableau's row operations
    /// (`B⁻¹b`).
    binv_b: Vec<f64>,
    beta: Vec<f64>,
    basis: Vec<usize>,
    status: Vec<Status>,
    upper: Vec<f64>,
    rc: Vec<f64>,
    pivot_row: Vec<f64>,
    /// Per-column offset of the basic values from `binv_b` (scratch for
    /// [`Solver::basic_values`]).
    shift: Vec<f64>,
    row_of: Vec<usize>,
    degenerate_streak: u32,
    /// [`Prepared::id`] of the matrix the tableau was built from (0: none).
    built_from: u64,
    /// Basis changes since the tableau was last built from the raw matrix.
    etas: usize,
    /// Total pivots (basis changes and bound flips) performed through this
    /// workspace; the branch-and-bound layer aggregates these into
    /// [`SolverStats`](crate::SolverStats).
    pub(crate) pivots: u64,
    /// Pivots spent moving the live tableau to a node's basis.
    pub(crate) repair_pivots: u64,
    /// Full rebuilds of the tableau for a warm start.
    pub(crate) refactorizations: u64,
}

impl Workspace {
    pub(crate) fn new() -> Self {
        Workspace::default()
    }

    /// Restarts the tableau from the raw matrix of `prep`.
    fn reset(&mut self, prep: &Prepared) {
        self.rows.clear();
        self.rows.extend_from_slice(&prep.a);
        self.binv_b.clear();
        self.binv_b.extend_from_slice(&prep.rhs);
        self.beta.clear();
        self.basis.clear();
        self.status.clear();
        self.status.resize(prep.ncols, Status::Lower);
        self.upper.clear();
        self.upper.resize(prep.ncols, f64::INFINITY);
        self.rc.clear();
        self.rc.resize(prep.ncols, 0.0);
        self.pivot_row.clear();
        self.pivot_row.resize(prep.ncols, 0.0);
        self.shift.clear();
        self.shift.resize(prep.ncols, 0.0);
        self.row_of.clear();
        self.row_of.resize(prep.ncols, usize::MAX);
        self.degenerate_streak = 0;
        self.built_from = prep.id;
        self.etas = 0;
    }

    /// Snapshots the current basis (valid after an optimal solve).
    pub(crate) fn snapshot_basis(&self) -> Basis {
        Basis {
            cols: self.basis.clone(),
            status: self.status.clone(),
        }
    }
}

/// Solves one LP from scratch (two-phase), reusing `ws` buffers.
pub(crate) fn solve_cold(
    prep: &Prepared,
    ws: &mut Workspace,
    lb: &[f64],
    ub: &[f64],
    deadline: Option<Instant>,
) -> LpOutcome {
    for j in 0..prep.n {
        if lb[j] > ub[j] + FEAS_TOL {
            return LpOutcome::Infeasible;
        }
    }
    let mut s = Solver { prep, ws, deadline };
    s.load_cold(lb, ub);
    match s.phase1() {
        Phase1::Feasible => {}
        Phase1::Infeasible => return LpOutcome::Infeasible,
        Phase1::Stalled => return LpOutcome::Stalled,
    }
    match s.phase2() {
        Phase2::Optimal => {}
        Phase2::Unbounded => return LpOutcome::Unbounded,
        Phase2::Stalled => return LpOutcome::Stalled,
    }
    LpOutcome::Optimal(s.extract(lb))
}

/// Solves one LP warm-started from a parent basis: moves the tableau to
/// that basis, restores primal feasibility with the dual simplex, and
/// polishes with primal phase 2. Falls back to the caller on numerical
/// trouble rather than guessing.
pub(crate) fn solve_warm(
    prep: &Prepared,
    ws: &mut Workspace,
    lb: &[f64],
    ub: &[f64],
    basis: &Basis,
    deadline: Option<Instant>,
) -> Result<LpOutcome, WarmError> {
    for j in 0..prep.n {
        if lb[j] > ub[j] + FEAS_TOL {
            return Ok(LpOutcome::Infeasible);
        }
    }
    debug_assert_eq!(basis.cols.len(), prep.m);
    debug_assert_eq!(basis.status.len(), prep.ncols);
    let mut s = Solver { prep, ws, deadline };
    match s.load_basis(basis) {
        Load::Loaded => {}
        Load::Singular => return Err(WarmError::Singular),
        Load::Stalled => return Err(WarmError::Stalled),
    }
    s.set_structural_uppers(lb, ub);
    for j in prep.art0..prep.ncols {
        s.ws.upper[j] = 0.0;
    }
    s.basic_values(lb);
    match s.dual_simplex() {
        Dual::PrimalFeasible => {}
        Dual::Infeasible => return Ok(LpOutcome::Infeasible),
        Dual::Stalled => return Err(WarmError::Stalled),
    }
    match s.phase2() {
        Phase2::Optimal => {}
        Phase2::Unbounded => return Ok(LpOutcome::Unbounded),
        Phase2::Stalled => return Err(WarmError::Stalled),
    }
    Ok(LpOutcome::Optimal(s.extract(lb)))
}

/// Whether `deadline` has passed; read before every pivot, where one clock
/// read is noise next to an O(m·ncols) elimination.
pub(crate) fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

struct Solver<'a> {
    prep: &'a Prepared,
    ws: &'a mut Workspace,
    deadline: Option<Instant>,
}

impl Solver<'_> {
    fn set_structural_uppers(&mut self, lb: &[f64], ub: &[f64]) {
        for j in 0..self.prep.n {
            self.ws.upper[j] = ub[j] - lb[j];
        }
    }

    /// Loads the classic phase-1 start: slack basis where the slack sign
    /// works out, artificial basis elsewhere.
    fn load_cold(&mut self, lb: &[f64], ub: &[f64]) {
        let prep = self.prep;
        self.ws.reset(prep);
        self.set_structural_uppers(lb, ub);
        let ws = &mut *self.ws;
        let nc = prep.ncols;
        for i in 0..prep.m {
            let row = &mut ws.rows[i * nc..(i + 1) * nc];
            // Shifted right-hand side: rhs_i − Σ_j a_ij · lb_j.
            let mut r = prep.rhs[i]
                - row[..prep.n]
                    .iter()
                    .zip(lb)
                    .filter(|(&a, _)| a != 0.0)
                    .map(|(&a, &l)| a * l)
                    .sum::<f64>();
            // Normalize rhs >= 0 by flipping the working row (the canonical
            // matrix in `prep` is untouched).
            if r < 0.0 {
                for x in row.iter_mut() {
                    *x = -*x;
                }
                r = -r;
                ws.binv_b[i] = -ws.binv_b[i];
            }
            // A +1 slack can start basic; otherwise the row's artificial.
            let basic = match prep.slack_of_row[i] {
                Some(sj) if row[sj] > 0.0 => sj,
                _ => {
                    let aj = prep.art0 + i;
                    row[aj] = 1.0;
                    aj
                }
            };
            ws.basis.push(basic);
            ws.status[basic] = Status::Basic;
            ws.beta.push(r);
        }
        // Artificials not in the basis can never move.
        for j in prep.art0..nc {
            if ws.status[j] != Status::Basic {
                ws.upper[j] = 0.0;
            }
        }
    }

    /// Brings the tableau to `basis`. A live tableau of this model that has
    /// taken at most m basis changes since its last build is pivoted there
    /// directly; otherwise, or if a pivot is too small, it is rebuilt.
    fn load_basis(&mut self, basis: &Basis) -> Load {
        let ws = &mut *self.ws;
        ws.degenerate_streak = 0;
        if ws.built_from == self.prep.id && ws.etas <= self.prep.m {
            let before = ws.etas;
            let entered = self.enter_basis(basis);
            self.ws.repair_pivots += (self.ws.etas - before) as u64;
            if !matches!(entered, Load::Singular) {
                return entered;
            }
        }
        self.load_warm(basis)
    }

    /// Rebuilds the tableau for `basis` from the raw matrix: starting from
    /// the artificial identity basis, every basic column is pivoted in
    /// (Gauss-Jordan elimination with partial pivoting).
    fn load_warm(&mut self, basis: &Basis) -> Load {
        let prep = self.prep;
        let ws = &mut *self.ws;
        ws.reset(prep);
        ws.refactorizations += 1;
        for i in 0..prep.m {
            let aj = prep.art0 + i;
            ws.rows[i * prep.ncols + aj] = 1.0;
            ws.basis.push(aj);
            ws.status[aj] = Status::Basic;
        }
        let entered = self.enter_basis(basis);
        self.ws.etas = 0;
        entered
    }

    /// Pivots each column of `target` that the tableau's basis lacks into
    /// the row, among those whose basic column `target` drops, with the
    /// largest-magnitude entry; then adopts `target`'s nonbasic statuses.
    /// Stops early — [`Load::Singular`] if some column's best pivot is below
    /// [`REBUILD_TOL`], [`Load::Stalled`] once the deadline passes (a full
    /// rebuild of a large tableau can take seconds); the tableau stays
    /// consistent either way.
    fn enter_basis(&mut self, target: &Basis) -> Load {
        let prep = self.prep;
        let ws = &mut *self.ws;
        let nc = prep.ncols;
        for &c in &target.cols {
            if ws.status[c] == Status::Basic {
                continue;
            }
            if past(self.deadline) {
                return Load::Stalled;
            }
            let (mut row, mut best_abs) = (0, 0.0);
            for r in 0..prep.m {
                let a = ws.rows[r * nc + c].abs();
                if a > best_abs && target.status[ws.basis[r]] != Status::Basic {
                    best_abs = a;
                    row = r;
                }
            }
            if best_abs < REBUILD_TOL {
                return Load::Singular;
            }
            let leaver = ws.basis[row];
            ws.status[leaver] = target.status[leaver];
            Self::eliminate(ws, nc, prep.m, row, c);
            ws.basis[row] = c;
            ws.status[c] = Status::Basic;
        }
        ws.status.copy_from_slice(&target.status);
        Load::Loaded
    }

    /// Basic values for the node bounds `lb` (and the uppers already in
    /// the workspace): `beta = B⁻¹b − Σ_j T_j · (lb_j + [j at upper] u_j)`,
    /// in the shifted space where every structural's lower bound is zero.
    fn basic_values(&mut self, lb: &[f64]) {
        let prep = self.prep;
        let ws = &mut *self.ws;
        let nc = prep.ncols;
        for (j, s) in ws.shift.iter_mut().enumerate() {
            let base = if j < prep.n { lb[j] } else { 0.0 };
            *s = match ws.status[j] {
                Status::Upper => base + ws.upper[j],
                _ => base,
            };
        }
        ws.beta.clear();
        for (i, &b) in ws.binv_b.iter().enumerate() {
            let row = &ws.rows[i * nc..(i + 1) * nc];
            let shifted: f64 = row.iter().zip(&ws.shift).map(|(t, s)| t * s).sum();
            ws.beta.push(b - shifted);
        }
    }

    /// Reduced costs `rc_j = c_j − c_Bᵀ T_j` into the workspace buffer.
    fn reduced_costs(&mut self, cost: &[f64]) {
        let ws = &mut *self.ws;
        let nc = self.prep.ncols;
        ws.rc.copy_from_slice(cost);
        for i in 0..self.prep.m {
            let cb = cost[ws.basis[i]];
            if cb != 0.0 {
                let row = &ws.rows[i * nc..(i + 1) * nc];
                for (rcj, &t) in ws.rc.iter_mut().zip(row) {
                    *rcj -= cb * t;
                }
            }
        }
    }

    /// One primal simplex iteration for the given costs. `allow_artificial`
    /// permits artificial columns to enter (phase 1 only).
    fn step(&mut self, cost: &[f64], allow_artificial: bool) -> Step {
        self.reduced_costs(cost);
        let prep = self.prep;
        let ws = &mut *self.ws;
        let nc = prep.ncols;
        let bland = ws.degenerate_streak >= DEGENERATE_STREAK;

        // Entering column: eligible if improving given its status.
        let mut entering: Option<(usize, bool)> = None; // (col, from_lower)
        let mut best = RC_TOL;
        for (j, &rcj) in ws.rc.iter().enumerate() {
            if ws.status[j] == Status::Basic {
                continue;
            }
            if !allow_artificial && j >= prep.art0 {
                continue;
            }
            let (eligible, from_lower, score) = match ws.status[j] {
                Status::Lower => (rcj < -RC_TOL, true, -rcj),
                Status::Upper => (rcj > RC_TOL, false, rcj),
                Status::Basic => unreachable!(),
            };
            if eligible {
                if bland {
                    entering = Some((j, from_lower));
                    break;
                }
                if score > best {
                    best = score;
                    entering = Some((j, from_lower));
                }
            }
        }
        let Some((q, from_lower)) = entering else {
            return Step::Converged;
        };

        // Ratio test.
        let mut t_limit = ws.upper[q]; // bound-flip distance
        let mut leaving: Option<(usize, Status)> = None; // (row, bound the leaver hits)
        for i in 0..prep.m {
            let c = ws.rows[i * nc + q];
            if c.abs() <= PIVOT_TOL {
                continue;
            }
            let ub_b = ws.upper[ws.basis[i]];
            // Movement t >= 0 changes basics by -t*c (from lower) or +t*c
            // (from upper).
            let (dist, hits) = if from_lower {
                if c > 0.0 {
                    (ws.beta[i] / c, Status::Lower)
                } else if ub_b.is_finite() {
                    ((ub_b - ws.beta[i]) / -c, Status::Upper)
                } else {
                    continue;
                }
            } else if c < 0.0 {
                (ws.beta[i] / -c, Status::Lower)
            } else if ub_b.is_finite() {
                ((ub_b - ws.beta[i]) / c, Status::Upper)
            } else {
                continue;
            };
            let dist = dist.max(0.0);
            let replace = match leaving {
                // Ties with the bound-flip distance keep the cheaper flip.
                None => dist < t_limit,
                Some((r, _)) => {
                    dist < t_limit - PIVOT_TOL
                        || ((dist - t_limit).abs() <= PIVOT_TOL
                            && bland
                            && ws.basis[i] < ws.basis[r])
                }
            };
            if replace {
                t_limit = t_limit.min(dist);
                leaving = Some((i, hits));
            }
        }

        if leaving.is_none() && t_limit.is_infinite() {
            return Step::Unbounded;
        }

        let t = t_limit;
        if t <= PIVOT_TOL {
            ws.degenerate_streak += 1;
        } else {
            ws.degenerate_streak = 0;
        }

        // Update basic values.
        for i in 0..prep.m {
            let c = ws.rows[i * nc + q];
            if from_lower {
                ws.beta[i] -= t * c;
            } else {
                ws.beta[i] += t * c;
            }
        }
        ws.pivots += 1;

        match leaving {
            None => {
                // Pure bound flip.
                ws.status[q] = if from_lower {
                    Status::Upper
                } else {
                    Status::Lower
                };
                Step::Moved
            }
            Some((r, hits)) => {
                // Pivot: q enters the basis in row r.
                let leaver = ws.basis[r];
                ws.status[leaver] = hits;
                let entering_value = if from_lower { t } else { ws.upper[q] - t };
                Self::eliminate(ws, nc, prep.m, r, q);
                ws.basis[r] = q;
                ws.status[q] = Status::Basic;
                ws.beta[r] = entering_value;
                Step::Moved
            }
        }
    }

    /// Row-reduces column `q` to the `r`-th identity column, carrying
    /// `B⁻¹b` along.
    fn eliminate(ws: &mut Workspace, nc: usize, m: usize, r: usize, q: usize) {
        let piv = ws.rows[r * nc + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot element too small");
        let inv = 1.0 / piv;
        for x in ws.rows[r * nc..(r + 1) * nc].iter_mut() {
            *x *= inv;
        }
        ws.binv_b[r] *= inv;
        let pivot_b = ws.binv_b[r];
        ws.pivot_row.copy_from_slice(&ws.rows[r * nc..(r + 1) * nc]);
        for i in 0..m {
            if i == r {
                continue;
            }
            let f = ws.rows[i * nc + q];
            if f.abs() > 1e-12 {
                let row = &mut ws.rows[i * nc..(i + 1) * nc];
                for (x, p) in row.iter_mut().zip(&ws.pivot_row) {
                    *x -= f * p;
                }
                row[q] = 0.0; // clean cancellation
                ws.binv_b[i] -= f * pivot_b;
            }
        }
        ws.etas += 1;
    }

    fn phase1(&mut self) -> Phase1 {
        let prep = self.prep;
        let nc = prep.ncols;
        if !self.ws.basis.iter().any(|&b| b >= prep.art0) {
            return Phase1::Feasible;
        }
        let mut cost = vec![0.0; nc];
        for cj in cost.iter_mut().skip(prep.art0) {
            *cj = 1.0;
        }
        let iter_limit = prep.iter_limit();
        let mut iters = 0u64;
        loop {
            if past(self.deadline) {
                return Phase1::Stalled;
            }
            match self.step(&cost, true) {
                Step::Converged => break,
                Step::Unbounded => break, // phase-1 objective is bounded below by 0
                Step::Moved => {}
            }
            iters += 1;
            if iters > iter_limit {
                return Phase1::Stalled;
            }
        }
        let ws = &mut *self.ws;
        let infeas: f64 = (0..prep.m)
            .filter(|&i| ws.basis[i] >= prep.art0)
            .map(|i| ws.beta[i])
            .sum();
        if infeas > 1e-6 {
            return Phase1::Infeasible;
        }
        // Drive basic artificials (at zero) out of the basis where possible.
        for i in 0..prep.m {
            if ws.basis[i] < prep.art0 {
                continue;
            }
            if past(self.deadline) {
                return Phase1::Stalled;
            }
            let pivot_col = (0..prep.art0)
                .find(|&j| ws.status[j] != Status::Basic && ws.rows[i * nc + j].abs() > 1e-7);
            if let Some(q) = pivot_col {
                let leaver = ws.basis[i];
                ws.status[leaver] = Status::Lower;
                ws.upper[leaver] = 0.0;
                Self::eliminate(ws, nc, prep.m, i, q);
                ws.basis[i] = q;
                // Zero-displacement pivot: the solution point is unchanged,
                // so the entering variable keeps its current (bound) value.
                ws.beta[i] = match ws.status[q] {
                    Status::Lower => 0.0,
                    Status::Upper => ws.upper[q],
                    Status::Basic => unreachable!("entering column was nonbasic"),
                };
                ws.status[q] = Status::Basic;
            }
            // If no pivot column exists the row is redundant; the artificial
            // stays basic at zero and is clamped there.
        }
        // Clamp all artificials to zero so they never move again.
        for j in prep.art0..nc {
            ws.upper[j] = 0.0;
        }
        Phase1::Feasible
    }

    fn phase2(&mut self) -> Phase2 {
        let prep = self.prep;
        let iter_limit = prep.iter_limit();
        let mut iters = 0u64;
        loop {
            if past(self.deadline) {
                return Phase2::Stalled;
            }
            match self.step(&prep.cost, false) {
                Step::Converged => return Phase2::Optimal,
                Step::Unbounded => return Phase2::Unbounded,
                Step::Moved => {}
            }
            iters += 1;
            if iters > iter_limit {
                return Phase2::Stalled;
            }
        }
    }

    /// Bounded-variable dual simplex: starting from a dual-feasible basis
    /// (inherited from a phase-2-optimal parent), drives out primal bound
    /// violations one leaving row at a time while keeping the reduced costs
    /// sign-feasible.
    fn dual_simplex(&mut self) -> Dual {
        let prep = self.prep;
        let nc = prep.ncols;
        let iter_limit = prep.iter_limit();
        let mut iters = 0u64;
        loop {
            // Most-violated leaving row (deterministic: first on ties).
            let ws = &*self.ws;
            let mut leaving: Option<(usize, bool)> = None; // (row, below_lower)
            let mut worst = FEAS_TOL;
            for i in 0..prep.m {
                let b = ws.beta[i];
                let ub_b = ws.upper[ws.basis[i]];
                if -b > worst {
                    worst = -b;
                    leaving = Some((i, true));
                } else if ub_b.is_finite() && b - ub_b > worst {
                    worst = b - ub_b;
                    leaving = Some((i, false));
                }
            }
            let Some((r, below)) = leaving else {
                return Dual::PrimalFeasible;
            };
            if past(self.deadline) {
                return Dual::Stalled;
            }

            self.reduced_costs(&prep.cost);
            let ws = &mut *self.ws;

            // Entering column: smallest dual ratio |rc_j| / |T_rj| among
            // sign-compatible nonbasic columns; ties break on the lowest
            // index for determinism.
            let mut entering: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..prep.art0 {
                if ws.status[j] == Status::Basic {
                    continue;
                }
                let t = ws.rows[r * nc + j];
                if t.abs() <= PIVOT_TOL {
                    continue;
                }
                // Fixed columns (upper 0) cannot re-enter meaningfully.
                if ws.upper[j] <= 0.0 {
                    continue;
                }
                let compatible = match (below, ws.status[j]) {
                    (true, Status::Lower) => t < 0.0,
                    (true, Status::Upper) => t > 0.0,
                    (false, Status::Lower) => t > 0.0,
                    (false, Status::Upper) => t < 0.0,
                    (_, Status::Basic) => unreachable!(),
                };
                if !compatible {
                    continue;
                }
                let ratio = ws.rc[j].abs() / t.abs();
                if ratio < best_ratio - RC_TOL {
                    best_ratio = ratio;
                    entering = Some(j);
                }
            }
            let Some(q) = entering else {
                // No compatible column: the violated row cannot be repaired;
                // the LP is infeasible (dual unbounded).
                return Dual::Infeasible;
            };

            // Pivot: basis[r] leaves to the violated bound, q enters.
            let target = if below { 0.0 } else { ws.upper[ws.basis[r]] };
            let t_rq = ws.rows[r * nc + q];
            let delta = (ws.beta[r] - target) / t_rq;
            let q_old = match ws.status[q] {
                Status::Lower => 0.0,
                Status::Upper => ws.upper[q],
                Status::Basic => unreachable!(),
            };
            for i in 0..prep.m {
                if i != r {
                    ws.beta[i] -= ws.rows[i * nc + q] * delta;
                }
            }
            let leaver = ws.basis[r];
            ws.status[leaver] = if below { Status::Lower } else { Status::Upper };
            Self::eliminate(ws, nc, prep.m, r, q);
            ws.basis[r] = q;
            ws.status[q] = Status::Basic;
            ws.beta[r] = q_old + delta;
            ws.pivots += 1;

            iters += 1;
            if iters > iter_limit {
                return Dual::Stalled;
            }
        }
    }

    /// Recovers original-space structural values.
    fn extract(&mut self, lb: &[f64]) -> LpSolution {
        let prep = self.prep;
        let ws = &mut *self.ws;
        for x in ws.row_of.iter_mut() {
            *x = usize::MAX;
        }
        for (i, &b) in ws.basis.iter().enumerate() {
            ws.row_of[b] = i;
        }
        let mut values = Vec::with_capacity(prep.n);
        let mut objective = 0.0;
        for (j, &lo) in lb.iter().enumerate().take(prep.n) {
            let shifted = match ws.status[j] {
                Status::Lower => 0.0,
                Status::Upper => ws.upper[j],
                Status::Basic => ws.beta[ws.row_of[j]],
            };
            let v = lo + shifted;
            objective += prep.cost[j] * v;
            values.push(v);
        }
        LpSolution { values, objective }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation};
    use proptest::prelude::*;

    fn assert_opt(outcome: LpOutcome, expected_obj: f64) -> LpSolution {
        match outcome {
            LpOutcome::Optimal(s) => {
                assert!(
                    (s.objective - expected_obj).abs() < 1e-6,
                    "objective {} != expected {expected_obj}",
                    s.objective
                );
                s
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    #[test]
    fn solves_basic_2d_lp() {
        // min -x - 2y  s.t.  x + y <= 4, x <= 3, y <= 3, x,y >= 0.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 3.0, -1.0);
        let y = m.continuous("y", 0.0, 3.0, -2.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        let s = assert_opt(solve_lp(&m), -7.0);
        assert!((s.values[x.0] - 1.0).abs() < 1e-6);
        assert!((s.values[y.0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn handles_ge_and_eq_rows() {
        // min x + y  s.t.  x + y >= 3, x - y = 1  =>  x = 2, y = 1.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, f64::INFINITY, 1.0);
        let y = m.continuous("y", 0.0, f64::INFINITY, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        m.constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = assert_opt(solve_lp(&m), 3.0);
        assert!((s.values[x.0] - 2.0).abs() < 1e-6);
        assert!((s.values[y.0] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 1.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve_lp(&m), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, f64::INFINITY, -1.0);
        m.constraint([(x, -1.0)], Relation::Le, 0.0);
        assert_eq!(solve_lp(&m), LpOutcome::Unbounded);
    }

    #[test]
    fn respects_shifted_lower_bounds() {
        // min x  s.t.  x >= 0 with lb 5: optimum at the bound.
        let mut m = Model::new("t");
        let x = m.continuous("x", 5.0, 100.0, 1.0);
        let s = assert_opt(solve_lp(&m), 5.0);
        assert!((s.values[x.0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bound_flip_reaches_upper_bound() {
        // min -x with x in [2, 7] and no constraints: x = 7.
        let mut m = Model::new("t");
        let x = m.continuous("x", 2.0, 7.0, -1.0);
        let s = assert_opt(solve_lp(&m), -7.0);
        assert!((s.values[x.0] - 7.0).abs() < 1e-9);
    }

    #[test]
    fn unconstrained_infinite_is_unbounded() {
        let mut m = Model::new("t");
        let _x = m.continuous("x", 0.0, f64::INFINITY, -1.0);
        assert_eq!(solve_lp(&m), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_rows_are_normalized() {
        // min x  s.t.  -x <= -3  (i.e. x >= 3).
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 1.0);
        m.constraint([(x, -1.0)], Relation::Le, -3.0);
        let s = assert_opt(solve_lp(&m), 3.0);
        assert!((s.values[x.0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_converges() {
        // Multiple redundant constraints through the optimum.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, -1.0);
        let y = m.continuous("y", 0.0, 10.0, -1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        m.constraint([(x, 2.0), (y, 2.0)], Relation::Le, 8.0);
        m.constraint([(x, 1.0)], Relation::Le, 4.0);
        m.constraint([(y, 1.0)], Relation::Le, 4.0);
        let s = assert_opt(solve_lp(&m), -4.0);
        assert!(m.check_feasible(&s.values, 1e-6).is_ok());
    }

    #[test]
    fn equality_only_system_solves() {
        // x + y = 5, x - y = 1: unique point (3, 2); any objective.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 2.0);
        let y = m.continuous("y", 0.0, 10.0, 3.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        m.constraint([(x, 1.0), (y, -1.0)], Relation::Eq, 1.0);
        let s = assert_opt(solve_lp(&m), 12.0);
        assert!((s.values[x.0] - 3.0).abs() < 1e-6);
        assert!((s.values[y.0] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows_do_not_break_phase1() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Eq, 4.0);
        m.constraint([(x, 2.0)], Relation::Eq, 8.0); // redundant copy
        let s = assert_opt(solve_lp(&m), 4.0);
        assert!((s.values[x.0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn crossing_branch_bounds_reports_infeasible() {
        let mut m = Model::new("t");
        let _x = m.continuous("x", 0.0, 10.0, 1.0);
        assert_eq!(
            solve_lp_with_bounds(&m, &[5.0], &[4.0]),
            LpOutcome::Infeasible
        );
    }

    #[test]
    fn big_m_disjunction_relaxation() {
        // Classic big-M pair: s2 >= e1 - M(1-k), s1 >= e2 - Mk. The LP
        // relaxation must be feasible and bounded.
        let mut m = Model::new("t");
        let s1 = m.continuous("s1", 0.0, 1e4, 1.0);
        let s2 = m.continuous("s2", 0.0, 1e4, 1.0);
        let k = m.continuous("k", 0.0, 1.0, 0.0);
        const M: f64 = 1e4;
        // s2 - s1 + M*k >= 3  and  s1 - s2 - M*k >= 2 - M
        m.constraint([(s2, 1.0), (s1, -1.0), (k, M)], Relation::Ge, 3.0);
        m.constraint([(s1, 1.0), (s2, -1.0), (k, -M)], Relation::Ge, 2.0 - M);
        match solve_lp(&m) {
            LpOutcome::Optimal(s) => {
                assert!(m.check_feasible(&s.values, 1e-5).is_ok());
            }
            other => panic!("expected optimal, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Warm-start path
    // ------------------------------------------------------------------

    /// A small mixed model with inequality, equality, and bound structure.
    fn warm_model() -> (Model, Vec<crate::VarId>) {
        let mut m = Model::new("warm");
        let x = m.continuous("x", 0.0, 6.0, -1.0);
        let y = m.continuous("y", 0.0, 6.0, -2.0);
        let z = m.continuous("z", 0.0, 6.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0), (z, -1.0)], Relation::Le, 5.0);
        m.constraint([(x, 1.0), (y, -1.0)], Relation::Ge, -3.0);
        m.constraint([(x, 1.0), (y, 1.0), (z, 1.0)], Relation::Le, 9.0);
        (m, vec![x, y, z])
    }

    fn bounds_of(m: &Model) -> (Vec<f64>, Vec<f64>) {
        let lb = (0..m.num_vars()).map(|j| m.vars[j].lb).collect();
        let ub = (0..m.num_vars()).map(|j| m.vars[j].ub).collect();
        (lb, ub)
    }

    /// Warm solves after each single-bound tightening must agree with the
    /// cold solver — the exact branch-and-bound access pattern.
    #[test]
    fn warm_restart_matches_cold_after_bound_changes() {
        let (m, vars) = warm_model();
        let prep = Prepared::new(&m);
        let mut ws = Workspace::new();
        let (lb0, ub0) = bounds_of(&m);
        let root = match solve_cold(&prep, &mut ws, &lb0, &ub0, None) {
            LpOutcome::Optimal(s) => s,
            o => panic!("root not optimal: {o:?}"),
        };
        let basis = ws.snapshot_basis();

        for &v in &vars {
            for (dl, du) in [(1.0, f64::INFINITY), (0.0, 2.0), (2.0, 2.0)] {
                let mut lb = lb0.clone();
                let mut ub = ub0.clone();
                lb[v.0] = lb[v.0].max(dl);
                if du.is_finite() {
                    ub[v.0] = ub[v.0].min(du);
                }
                let mut ws_cold = Workspace::new();
                let cold = solve_cold(&prep, &mut ws_cold, &lb, &ub, None);
                let warm = solve_warm(&prep, &mut ws, &lb, &ub, &basis, None)
                    .unwrap_or_else(|_| panic!("warm solve fell back for {v:?}"));
                match (&cold, &warm) {
                    (LpOutcome::Optimal(a), LpOutcome::Optimal(b)) => {
                        assert!(
                            (a.objective - b.objective).abs() < 1e-6,
                            "cold {} != warm {} (var {v:?}, root {})",
                            a.objective,
                            b.objective,
                            root.objective
                        );
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    other => panic!("cold/warm disagree: {other:?}"),
                }
            }
        }
    }

    /// A child whose branched bound removes all feasible points must be
    /// recognized by the dual simplex, not mislabeled optimal.
    #[test]
    fn warm_restart_detects_infeasible_child() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 1.0);
        let y = m.continuous("y", 0.0, 10.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 2.0);
        let prep = Prepared::new(&m);
        let mut ws = Workspace::new();
        let (lb0, ub0) = bounds_of(&m);
        assert!(matches!(
            solve_cold(&prep, &mut ws, &lb0, &ub0, None),
            LpOutcome::Optimal(_)
        ));
        let basis = ws.snapshot_basis();
        // x >= 3 and y >= 3 violates x + y <= 4.
        let lb = vec![3.0, 3.0];
        let outcome = solve_warm(&prep, &mut ws, &lb, &ub0, &basis, None)
            .unwrap_or_else(|_| panic!("warm solve fell back"));
        assert_eq!(outcome, LpOutcome::Infeasible);
    }

    /// Past the deadline neither a tableau rebuild nor a pivot of the live
    /// tableau starts: the warm solve stalls and the cold one too.
    #[test]
    fn expired_deadline_stalls_before_any_pivot() {
        let (m, vars) = warm_model();
        let prep = Prepared::new(&m);
        let mut ws = Workspace::new();
        let (lb0, ub0) = bounds_of(&m);
        assert!(matches!(
            solve_cold(&prep, &mut ws, &lb0, &ub0, None),
            LpOutcome::Optimal(_)
        ));
        let basis = ws.snapshot_basis();
        let expired = Some(Instant::now());
        let mut lb = lb0.clone();
        lb[vars[0].0] = 1.0;
        // A fresh workspace must rebuild; the live one is already there.
        for mut ws in [Workspace::new(), ws] {
            let pivots = ws.pivots;
            assert!(matches!(
                solve_warm(&prep, &mut ws, &lb, &ub0, &basis, expired),
                Err(WarmError::Stalled)
            ));
            assert_eq!(ws.pivots, pivots);
        }
        assert_eq!(
            solve_cold(&prep, &mut Workspace::new(), &lb0, &ub0, expired),
            LpOutcome::Stalled
        );
    }

    /// Repeated warm solves through one workspace must not leak state
    /// between solves (buffers are reused, not reallocated).
    #[test]
    fn workspace_reuse_is_stateless() {
        let (m, vars) = warm_model();
        let prep = Prepared::new(&m);
        let mut ws = Workspace::new();
        let (lb0, ub0) = bounds_of(&m);
        let first = match solve_cold(&prep, &mut ws, &lb0, &ub0, None) {
            LpOutcome::Optimal(s) => s.objective,
            o => panic!("unexpected {o:?}"),
        };
        let basis = ws.snapshot_basis();
        let x = vars[0];
        let mut ub = ub0.clone();
        ub[x.0] = 1.0;
        // Interleave warm and cold solves through the same workspace.
        for _ in 0..3 {
            match solve_warm(&prep, &mut ws, &lb0, &ub, &basis, None) {
                Ok(LpOutcome::Optimal(_)) => {}
                o => panic!("warm solve failed: {:?}", o.is_err()),
            }
            match solve_cold(&prep, &mut ws, &lb0, &ub0, None) {
                LpOutcome::Optimal(s) => {
                    assert!((s.objective - first).abs() < 1e-9);
                }
                o => panic!("unexpected {o:?}"),
            }
        }
    }

    /// A small random LP: bounded variables, integer data.
    #[derive(Debug, Clone)]
    struct RandomLp {
        obj: Vec<i32>,
        ub: Vec<u8>,
        rows: Vec<(Vec<i32>, u8, i32)>,
    }

    fn random_lp() -> impl Strategy<Value = RandomLp> {
        (2usize..=5).prop_flat_map(|n| {
            let row = (proptest::collection::vec(-4i32..=4, n), 0u8..3, -6i32..=14);
            (
                proptest::collection::vec(-9i32..=9, n),
                proptest::collection::vec(1u8..=8, n),
                proptest::collection::vec(row, 1..=4),
            )
                .prop_map(|(obj, ub, rows)| RandomLp { obj, ub, rows })
        })
    }

    fn build_lp(p: &RandomLp) -> Model {
        let mut m = Model::new("random");
        let vars: Vec<_> = p
            .obj
            .iter()
            .zip(&p.ub)
            .enumerate()
            .map(|(j, (&c, &u))| m.continuous(&format!("x{j}"), 0.0, u as f64, c as f64))
            .collect();
        for (coeffs, rel, rhs) in &p.rows {
            let rel = match rel {
                0 => Relation::Le,
                1 => Relation::Ge,
                _ => Relation::Eq,
            };
            let terms: Vec<_> = vars
                .iter()
                .zip(coeffs)
                .map(|(&v, &a)| (v, a as f64))
                .collect();
            m.constraint(terms, rel, *rhs as f64);
        }
        m
    }

    /// An open node: its bounds and the basis of the parent that made it.
    struct OpenNode {
        lb: Vec<f64>,
        ub: Vec<f64>,
        basis: std::sync::Arc<Basis>,
    }

    /// Pushes both children of a node split on `var` at the integer nearest
    /// `percent` of its range; the second pushed is the one a dive takes next.
    fn push_children(
        open: &mut Vec<OpenNode>,
        lb: &[f64],
        ub: &[f64],
        basis: Basis,
        var: usize,
        percent: u32,
    ) {
        let j = var % lb.len();
        let split = (lb[j] + f64::from(percent) / 100.0 * (ub[j] - lb[j])).floor();
        let basis = std::sync::Arc::new(basis);
        let mut down = (lb.to_vec(), ub.to_vec());
        down.1[j] = down.1[j].min(split);
        let mut up = (lb.to_vec(), ub.to_vec());
        up.0[j] = up.0[j].max(split + 1.0);
        for (lb, ub) in [down, up] {
            open.push(OpenNode {
                lb,
                ub,
                basis: basis.clone(),
            });
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Replays a branch-and-bound access pattern through one reused
        /// workspace — dives onto a fresh child, jumps to an open node
        /// elsewhere in the tree (a sibling's parent basis), and tightens
        /// bounds at every step — and checks each warm solve against a
        /// cold solve of the same node.
        #[test]
        fn warm_solves_through_a_live_tableau_match_cold(
            lp in random_lp(),
            steps in proptest::collection::vec((0usize..6, 0usize..5, 0u32..100), 1..16),
        ) {
            let m = build_lp(&lp);
            let prep = Prepared::new(&m);
            let mut ws = Workspace::new();
            let (lb0, ub0) = bounds_of(&m);
            if !matches!(solve_cold(&prep, &mut ws, &lb0, &ub0, None), LpOutcome::Optimal(_)) {
                return Ok(());
            }
            let mut open = Vec::new();
            push_children(&mut open, &lb0, &ub0, ws.snapshot_basis(), steps[0].1, steps[0].2);
            for &(pick, var, percent) in &steps {
                if open.is_empty() {
                    break;
                }
                // Every third step dives; the others jump across the tree.
                let at = if pick % 3 == 0 { open.len() - 1 } else { pick % open.len() };
                let node = open.remove(at);
                let warm = solve_warm(&prep, &mut ws, &node.lb, &node.ub, &node.basis, None)
                    .unwrap_or_else(|_| solve_cold(&prep, &mut ws, &node.lb, &node.ub, None));
                let cold = solve_cold(&prep, &mut Workspace::new(), &node.lb, &node.ub, None);
                match (&warm, &cold) {
                    (LpOutcome::Optimal(w), LpOutcome::Optimal(c)) => {
                        prop_assert!(
                            (w.objective - c.objective).abs() < 1e-6,
                            "warm {} != cold {}", w.objective, c.objective
                        );
                        prop_assert!(m.check_feasible(&w.values, 1e-6).is_ok());
                        prop_assert!(w.values.iter().zip(&node.lb).zip(&node.ub)
                            .all(|((v, l), u)| *v >= l - 1e-6 && *v <= u + 1e-6));
                        push_children(&mut open, &node.lb, &node.ub, ws.snapshot_basis(), var, percent);
                    }
                    (LpOutcome::Infeasible, LpOutcome::Infeasible) => {}
                    other => prop_assert!(false, "warm/cold disagree: {other:?}"),
                }
            }
        }
    }

    /// The workspace pivot counter increases monotonically across solves.
    #[test]
    fn pivot_counter_accumulates() {
        let (m, _) = warm_model();
        let prep = Prepared::new(&m);
        let mut ws = Workspace::new();
        let (lb0, ub0) = bounds_of(&m);
        let _ = solve_cold(&prep, &mut ws, &lb0, &ub0, None);
        let after_first = ws.pivots;
        assert!(after_first > 0, "an LP with pivots recorded none");
        let _ = solve_cold(&prep, &mut ws, &lb0, &ub0, None);
        assert!(ws.pivots >= 2 * after_first);
    }
}
