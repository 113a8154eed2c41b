//! Bounded-variable primal and dual simplex over a condensed (dictionary)
//! tableau, with warm-started reoptimization for branch-and-bound.
//!
//! Every constraint row `i` gets one **logical** variable, its activity
//! `r_i = a_i·x`, bounded by the row's relation: `≤ b` gives `[−∞, b]`,
//! `≥ b` gives `[b, ∞]` and `= b` gives `[b, b]`. The system `Ax − r = 0`
//! then has `n + m` variables and a zero right-hand side, and every bound —
//! structural or logical — is handled natively: a nonbasic variable rests
//! at one of its bounds, and the ratio test includes bound flips. No slack
//! or artificial columns exist.
//!
//! The tableau is stored in dictionary form (Jordan exchange): one row per
//! basic variable, one column per **nonbasic** variable only, so it holds
//! `m × n` doubles whatever the row relations. Row `i` expresses the basic
//! variable of that row as `Σ_k T[i][k] · x_{nonbasic[k]}`. Next to it the
//! workspace keeps the basic values `β` (the right-hand side of the
//! dictionary at the current point), the value of every nonbasic slot, and
//! the reduced-cost row. A pivot swaps the entering slot with the leaving
//! row in place in `O(m·n)` and updates the reduced costs in `O(n)`.
//!
//! A cold solve starts from the all-logical basis (`T = A`). Phase 1
//! minimizes the sum of the bound infeasibilities of the basic variables;
//! a basic variable that reaches its violated bound blocks the step there
//! and leaves at that bound. Phase 2 then minimizes `cᵀx` from the
//! feasible basis.
//!
//! The solver is split for reuse across branch-and-bound nodes:
//!
//! - [`Prepared`] holds the model's constraint matrix in compressed sparse
//!   rows, the logical bounds and the costs, built **once** per model.
//! - [`Workspace`] owns every mutable buffer (tableau, basic and nonbasic
//!   values, reduced costs, bounds). A branch-and-bound worker keeps one
//!   workspace and reuses it for every node it processes — zero per-node
//!   allocations.
//! - [`Basis`] snapshots a parent node's optimal basis. A child LP differs
//!   from its parent by a single variable bound, so the parent basis stays
//!   dual feasible and the child is reoptimized with the **dual simplex**,
//!   skipping phase 1 entirely on the hot path.
//!
//! The workspace's tableau stays **live** from one node to the next. A warm
//! solve pivots in only the basic variables of the node's basis that the
//! live basis lacks — none for a dive child, which inherits the basis its
//! parent just left behind, and a few for a node popped from elsewhere in
//! the tree — then moves each nonbasic variable whose resting value changed
//! and updates `β` by that column alone. The tableau is rebuilt (from the
//! all-logical basis, pivoting in the node's basic structurals) only when a
//! needed pivot is numerically too small or more than m basis changes have
//! accumulated since the last build, which bounds round-off drift.
//!
//! Both ratio tests break near-ties toward the largest pivot, and the dual
//! ratio test skips pivots below [`REL_PIVOT_TOL`] of the leaving row's
//! largest entry: one such pivot on a big-M row can blow the basic values
//! up past any repair. A row that only such pivots could repair gets the
//! tableau rebuilt at the current basis once; if that does not help, the
//! warm solve gives up and the caller solves the node cold.
//!
//! A deadline is checked before every pivot — in both phases, the dual
//! simplex, the basis repair and the rebuild. One pivot on a large tableau
//! costs milliseconds, so a solve stops within one pivot of its deadline.
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

/// Per-variable simplex status.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Status {
    Basic,
    #[default]
    Lower,
    Upper,
}

/// A basis snapshot: which variable is basic in each row, plus the status
/// of every variable — the `n` structurals, then one logical per row.
/// Enough to reconstruct the tableau of the node that produced it — or of a
/// child differing only in variable bounds.
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
    /// Only pivots below the relative pivot tolerance could repair the
    /// leaving row.
    Tiny,
    Stalled,
}

/// How bringing the tableau to a target basis ended.
enum Load {
    Loaded,
    /// Some variable's best pivot fell below [`REBUILD_TOL`].
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
/// A basic variable whose best pivot falls below this is treated as
/// singular.
const REBUILD_TOL: f64 = 1e-8;
/// The dual ratio test skips pivots below this fraction of the largest
/// entry in the leaving row.
const REL_PIVOT_TOL: f64 = 1e-9;
/// Phase 1 declares a basis feasible once its summed bound violation is at
/// most this.
const PHASE1_TOL: f64 = 1e-6;

/// Source of [`Prepared::id`].
static NEXT_PREPARED_ID: AtomicU64 = AtomicU64::new(1);

/// The constraint matrix of one model, built once and shared by every node
/// solve (read-only).
///
/// Variables are numbered `[0, n)` for the structurals and `n + i` for the
/// logical of row `i`.
#[derive(Debug, Clone)]
pub(crate) struct Prepared {
    /// Identifies the matrix, so a [`Workspace`] can tell whether its live
    /// tableau was built from it.
    id: u64,
    n: usize,
    m: usize,
    /// Compressed sparse rows: row `i`'s entries are
    /// `cols[starts[i]..starts[i + 1]]` with values `vals[…]`, duplicate
    /// terms summed and zeros dropped.
    starts: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Bounds of each row's logical (its activity), from the relation.
    row_lo: Vec<f64>,
    row_hi: Vec<f64>,
    /// Objective coefficient of every structural.
    cost: Vec<f64>,
}

impl Prepared {
    pub(crate) fn new(model: &Model) -> Self {
        let n = model.num_vars();
        let m = model.num_constraints();
        let mut starts = Vec::with_capacity(m + 1);
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        let (mut row_lo, mut row_hi) = (Vec::with_capacity(m), Vec::with_capacity(m));
        // Dense accumulator, cleared through the row's own terms.
        let mut acc = vec![0.0; n];
        let mut touched = Vec::new();
        starts.push(0);
        for c in &model.constraints {
            for &(v, coef) in c.expr.terms() {
                if acc[v.0] == 0.0 {
                    touched.push(v.0);
                }
                acc[v.0] += coef;
            }
            touched.sort_unstable();
            touched.dedup();
            for &j in &touched {
                if acc[j] != 0.0 {
                    cols.push(j);
                    vals.push(acc[j]);
                }
                acc[j] = 0.0;
            }
            touched.clear();
            starts.push(cols.len());
            let (lo, hi) = match c.rel {
                Relation::Le => (f64::NEG_INFINITY, c.rhs),
                Relation::Ge => (c.rhs, f64::INFINITY),
                Relation::Eq => (c.rhs, c.rhs),
            };
            row_lo.push(lo);
            row_hi.push(hi);
        }
        Prepared {
            id: NEXT_PREPARED_ID.fetch_add(1, Ordering::Relaxed),
            n,
            m,
            starts,
            cols,
            vals,
            row_lo,
            row_hi,
            cost: model.vars.iter().map(|v| v.obj).collect(),
        }
    }

    fn iter_limit(&self) -> u64 {
        200 * (2 * self.m as u64 + self.n as u64) + 2_000
    }
}

/// Reusable mutable state for node solves. One per worker thread; every
/// buffer is resized on first use with a given [`Prepared`] and then reused
/// allocation-free.
///
/// Between solves the tableau stays valid for the model it was built from,
/// and `beta[i] = Σ_k tab[i·n + k] · xn[k]` holds for every row.
#[derive(Debug, Default)]
pub(crate) struct Workspace {
    /// `m × n`, row-major: row `i` expresses `basis[i]` in the nonbasic
    /// variables, column `k` belongs to `nonbasic[k]`.
    tab: Vec<f64>,
    /// Value of each row's basic variable.
    beta: Vec<f64>,
    /// Value of each nonbasic slot's variable.
    xn: Vec<f64>,
    /// Reduced cost of each nonbasic slot.
    d: Vec<f64>,
    /// Phase-1 reduced costs (scratch).
    d1: Vec<f64>,
    /// The new pivot row while a pivot runs, and its nonzero slots
    /// (scratch).
    prow: Vec<f64>,
    nz: Vec<usize>,
    basis: Vec<usize>,
    nonbasic: Vec<usize>,
    /// Per variable: its status, and its row (basic) or slot (nonbasic).
    status: Vec<Status>,
    pos: Vec<usize>,
    /// Per variable: the node's bounds (structurals) or the row's
    /// (logicals).
    lo: Vec<f64>,
    hi: Vec<f64>,
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

    /// Restarts from the all-logical basis of `prep` (`T = A`), every
    /// structural nonbasic at its lower bound in `lb`.
    fn reset(&mut self, prep: &Prepared, lb: &[f64], ub: &[f64]) {
        let (n, m) = (prep.n, prep.m);
        self.tab.clear();
        self.tab.resize(m * n, 0.0);
        self.beta.clear();
        for i in 0..m {
            let row = &mut self.tab[i * n..(i + 1) * n];
            let mut activity = 0.0;
            for e in prep.starts[i]..prep.starts[i + 1] {
                let (j, a) = (prep.cols[e], prep.vals[e]);
                row[j] = a;
                activity += a * lb[j];
            }
            self.beta.push(activity);
        }
        self.xn.clear();
        self.xn.extend_from_slice(&lb[..n]);
        self.d.clear();
        self.d.extend_from_slice(&prep.cost);
        self.d1.clear();
        self.d1.resize(n, 0.0);
        self.prow.clear();
        self.prow.resize(n, 0.0);
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.nonbasic.clear();
        self.nonbasic.extend(0..n);
        self.status.clear();
        self.status.resize(n, Status::Lower);
        self.status.resize(n + m, Status::Basic);
        self.pos.clear();
        self.pos.extend(0..n);
        self.pos.extend(0..m);
        self.lo.clear();
        self.lo.extend_from_slice(&lb[..n]);
        self.lo.extend_from_slice(&prep.row_lo);
        self.hi.clear();
        self.hi.extend_from_slice(&ub[..n]);
        self.hi.extend_from_slice(&prep.row_hi);
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

    /// The value a nonbasic variable rests at: the bound its status names,
    /// or the other one if that bound is infinite.
    fn resting(&self, j: usize) -> f64 {
        let (lo, hi) = (self.lo[j], self.hi[j]);
        let at_upper = match self.status[j] {
            Status::Upper => hi.is_finite(),
            _ => !lo.is_finite(),
        };
        if at_upper {
            hi
        } else {
            lo
        }
    }

    /// Jordan exchange: the nonbasic variable of slot `q` becomes basic in
    /// row `r`, whose basic variable takes slot `q`. The point does not
    /// move — each variable keeps its value — so the caller sets the
    /// leaver's status.
    fn exchange(&mut self, n: usize, r: usize, q: usize) {
        let piv = self.tab[r * n + q];
        debug_assert!(piv.abs() > PIVOT_TOL, "pivot element too small");
        let inv = 1.0 / piv;
        for (p, &t) in self.prow.iter_mut().zip(&self.tab[r * n..(r + 1) * n]) {
            *p = -t * inv;
        }
        self.prow[q] = 0.0;
        // `x += f · prow`, over the pivot row's nonzeros only when it is
        // sparse (skipped entries would add exact zeros).
        self.nz.clear();
        self.nz.extend((0..n).filter(|&k| self.prow[k] != 0.0));
        let sparse = self.nz.len() * 4 < n;
        let (prow, nz) = (&self.prow, &self.nz);
        let axpy = |x: &mut [f64], f: f64| {
            if sparse {
                for &k in nz {
                    x[k] += f * prow[k];
                }
            } else {
                for (x, p) in x.iter_mut().zip(prow) {
                    *x += f * p;
                }
            }
        };
        for (i, row) in self.tab.chunks_exact_mut(n).enumerate() {
            let f = row[q];
            if i == r || f == 0.0 {
                continue;
            }
            if f.abs() > 1e-12 {
                axpy(row, f);
            }
            row[q] = f * inv;
        }
        let f = self.d[q];
        if f != 0.0 {
            axpy(&mut self.d, f);
            self.d[q] = f * inv;
        }
        let row = &mut self.tab[r * n..(r + 1) * n];
        row.copy_from_slice(&self.prow);
        row[q] = inv;

        let (entering, leaver) = (self.nonbasic[q], self.basis[r]);
        self.basis[r] = entering;
        self.nonbasic[q] = leaver;
        self.pos[entering] = r;
        self.pos[leaver] = q;
        self.status[entering] = Status::Basic;
        std::mem::swap(&mut self.beta[r], &mut self.xn[q]);
        self.etas += 1;
    }

    /// Moves nonbasic slot `q` to `value`, carrying every basic value along
    /// its column.
    fn shift_nonbasic(&mut self, n: usize, q: usize, value: f64) {
        let delta = value - self.xn[q];
        if delta != 0.0 {
            for (b, row) in self.beta.iter_mut().zip(self.tab.chunks_exact(n)) {
                *b += row[q] * delta;
            }
        }
        self.xn[q] = value;
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
    ws.reset(prep, lb, ub);
    let mut s = Solver { prep, ws, deadline };
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
    LpOutcome::Optimal(s.extract())
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
    debug_assert_eq!(basis.status.len(), prep.n + prep.m);
    let mut s = Solver { prep, ws, deadline };
    match s.load_basis(basis, lb, ub) {
        Load::Loaded => {}
        Load::Singular => return Err(WarmError::Singular),
        Load::Stalled => return Err(WarmError::Stalled),
    }
    s.settle(lb, ub);
    // A leaving row that only too small pivots could repair is often
    // round-off in a long-lived tableau: unless the load just built it,
    // rebuild it at the current basis once before giving up on the warm
    // start.
    let mut refreshed = s.ws.etas == 0;
    loop {
        match s.dual_simplex() {
            Dual::PrimalFeasible => break,
            Dual::Infeasible => return Ok(LpOutcome::Infeasible),
            Dual::Tiny if !refreshed => {
                refreshed = true;
                let current = s.ws.snapshot_basis();
                match s.rebuild(&current, lb, ub) {
                    Load::Loaded => s.settle(lb, ub),
                    Load::Singular => return Err(WarmError::Singular),
                    Load::Stalled => return Err(WarmError::Stalled),
                }
            }
            Dual::Tiny | Dual::Stalled => return Err(WarmError::Stalled),
        }
    }
    match s.phase2() {
        Phase2::Optimal => {}
        Phase2::Unbounded => return Ok(LpOutcome::Unbounded),
        Phase2::Stalled => return Err(WarmError::Stalled),
    }
    Ok(LpOutcome::Optimal(s.extract()))
}

/// Whether `deadline` has passed; read before every pivot, where one clock
/// read is noise next to an O(m·n) exchange.
pub(crate) fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

struct Solver<'a> {
    prep: &'a Prepared,
    ws: &'a mut Workspace,
    deadline: Option<Instant>,
}

impl Solver<'_> {
    /// Brings the tableau to `basis`. A live tableau of this model that has
    /// taken at most m basis changes since its last build is pivoted there
    /// directly; otherwise, or if a pivot is too small, it is rebuilt.
    fn load_basis(&mut self, basis: &Basis, lb: &[f64], ub: &[f64]) -> Load {
        self.ws.degenerate_streak = 0;
        if self.ws.built_from == self.prep.id && self.ws.etas <= self.prep.m {
            let before = self.ws.etas;
            let entered = self.enter_basis(basis);
            self.ws.repair_pivots += (self.ws.etas - before) as u64;
            if !matches!(entered, Load::Singular) {
                return entered;
            }
        }
        self.rebuild(basis, lb, ub)
    }

    /// Rebuilds the tableau for `basis` from the raw matrix: from the
    /// all-logical basis, every basic structural of `basis` is pivoted in.
    fn rebuild(&mut self, basis: &Basis, lb: &[f64], ub: &[f64]) -> Load {
        self.ws.reset(self.prep, lb, ub);
        self.ws.refactorizations += 1;
        let entered = self.enter_basis(basis);
        self.ws.etas = 0;
        entered
    }

    /// Pivots each basic variable of `target` that the tableau lacks into
    /// the row, among those whose basic variable `target` drops, with the
    /// largest-magnitude entry; then adopts `target`'s nonbasic statuses.
    /// Stops early — [`Load::Singular`] if some variable's best pivot is
    /// below [`REBUILD_TOL`], [`Load::Stalled`] once the deadline passes (a
    /// rebuild of a large tableau pivots many times); the tableau stays
    /// consistent either way.
    fn enter_basis(&mut self, target: &Basis) -> Load {
        let (n, m) = (self.prep.n, self.prep.m);
        let ws = &mut *self.ws;
        for &c in &target.cols {
            if ws.status[c] == Status::Basic {
                continue;
            }
            if past(self.deadline) {
                return Load::Stalled;
            }
            let q = ws.pos[c];
            let (mut row, mut best_abs) = (0, 0.0);
            for r in 0..m {
                let a = ws.tab[r * n + q].abs();
                if a > best_abs && target.status[ws.basis[r]] != Status::Basic {
                    best_abs = a;
                    row = r;
                }
            }
            if best_abs < REBUILD_TOL {
                return Load::Singular;
            }
            let leaver = ws.basis[row];
            ws.exchange(n, row, q);
            ws.status[leaver] = target.status[leaver];
        }
        ws.status.copy_from_slice(&target.status);
        Load::Loaded
    }

    /// Installs the node bounds `lb`/`ub` and moves every nonbasic variable
    /// to the bound its status names, updating `β` column by column for
    /// the ones that moved.
    fn settle(&mut self, lb: &[f64], ub: &[f64]) {
        let n = self.prep.n;
        let ws = &mut *self.ws;
        ws.lo[..n].copy_from_slice(&lb[..n]);
        ws.hi[..n].copy_from_slice(&ub[..n]);
        for q in 0..n {
            let value = ws.resting(ws.nonbasic[q]);
            if value != ws.xn[q] {
                ws.shift_nonbasic(n, q, value);
            }
        }
    }

    /// The entering slot for reduced costs `rc`: Dantzig's largest
    /// improving `|rc|` (lowest variable index on ties), or under Bland's
    /// rule the lowest-index improving variable. Fixed variables never
    /// enter. Returns the slot and its direction (`+1` up from its lower
    /// bound, `−1` down from its upper).
    fn price(&self, rc: &[f64], bland: bool) -> Option<(usize, f64)> {
        let ws = &*self.ws;
        let mut entering: Option<(usize, f64)> = None;
        let (mut best, mut best_var) = (RC_TOL, usize::MAX);
        for (q, &rcq) in rc.iter().enumerate() {
            let j = ws.nonbasic[q];
            let (score, dir) = match ws.status[j] {
                Status::Lower => (-rcq, 1.0),
                Status::Upper => (rcq, -1.0),
                Status::Basic => unreachable!("slot {q} holds a basic variable"),
            };
            if score <= RC_TOL || ws.hi[j] <= ws.lo[j] {
                continue;
            }
            let better = if bland {
                j < best_var
            } else {
                score > best || (score == best && j < best_var)
            };
            if better {
                best = score;
                best_var = j;
                entering = Some((q, dir));
            }
        }
        entering
    }

    /// One primal iteration for reduced costs `rc`. In `phase1` a basic
    /// variable outside its bounds may move freely away from feasibility
    /// and blocks only where it reaches its violated bound.
    fn step(&mut self, rc_phase1: bool) -> Step {
        let (n, m) = (self.prep.n, self.prep.m);
        let bland = self.ws.degenerate_streak >= DEGENERATE_STREAK;
        let rc = if rc_phase1 { &self.ws.d1 } else { &self.ws.d };
        let Some((q, dir)) = self.price(rc, bland) else {
            return Step::Converged;
        };
        let ws = &mut *self.ws;
        let e = ws.nonbasic[q];

        // Ratio test over the basic variables; the entering variable's own
        // range is the bound-flip distance.
        let mut t_limit = ws.hi[e] - ws.lo[e];
        let mut leaving: Option<(usize, Status)> = None; // (row, bound the leaver hits)
        let mut best_abs = 0.0;
        for i in 0..m {
            let a = ws.tab[i * n + q] * dir;
            if a.abs() <= PIVOT_TOL {
                continue;
            }
            let b = ws.basis[i];
            let (x, lo, hi) = (ws.beta[i], ws.lo[b], ws.hi[b]);
            let below = rc_phase1 && x < lo - FEAS_TOL;
            let above = rc_phase1 && x > hi + FEAS_TOL;
            // Moving at rate `a`, x_b rises toward `hi` or falls toward
            // `lo` — or, infeasible in phase 1, toward its violated bound.
            let (dist, hits) = if a > 0.0 {
                if below {
                    ((lo - x) / a, Status::Lower)
                } else if above || !hi.is_finite() {
                    continue;
                } else {
                    ((hi - x) / a, Status::Upper)
                }
            } else if above {
                ((x - hi) / -a, Status::Upper)
            } else if below || !lo.is_finite() {
                continue;
            } else {
                ((x - lo) / -a, Status::Lower)
            };
            let dist = dist.max(0.0);
            // Ties with the bound-flip distance keep the cheaper flip; ties
            // between rows take the larger pivot, or under Bland's rule the
            // lower variable index.
            let replace = match leaving {
                None => dist < t_limit,
                Some((r, _)) => {
                    dist < t_limit - PIVOT_TOL
                        || ((dist - t_limit).abs() <= PIVOT_TOL
                            && if bland {
                                b < ws.basis[r]
                            } else {
                                a.abs() > best_abs
                            })
                }
            };
            if replace {
                t_limit = t_limit.min(dist);
                best_abs = a.abs();
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
        ws.pivots += 1;
        match leaving {
            None => {
                // Pure bound flip.
                ws.status[e] = if dir > 0.0 {
                    Status::Upper
                } else {
                    Status::Lower
                };
                let value = ws.resting(e);
                ws.shift_nonbasic(n, q, value);
            }
            Some((r, hits)) => {
                // Pivot: e enters the basis in row r; the leaver lands
                // exactly on the bound it hits.
                ws.shift_nonbasic(n, q, ws.xn[q] + dir * t);
                let leaver = ws.basis[r];
                ws.beta[r] = match hits {
                    Status::Lower => ws.lo[leaver],
                    _ => ws.hi[leaver],
                };
                ws.exchange(n, r, q);
                ws.status[leaver] = hits;
            }
        }
        Step::Moved
    }

    /// Phase-1 reduced costs `d1 = Σ_i w_i T[i]` over the basic variables
    /// outside their bounds (`w = −1` below, `+1` above) and their summed
    /// violation.
    fn phase1_costs(&mut self) -> f64 {
        let n = self.prep.n;
        let ws = &mut *self.ws;
        ws.d1.fill(0.0);
        let mut violation = 0.0;
        for i in 0..self.prep.m {
            let b = ws.basis[i];
            let x = ws.beta[i];
            let w = if x < ws.lo[b] - FEAS_TOL {
                violation += ws.lo[b] - x;
                -1.0
            } else if x > ws.hi[b] + FEAS_TOL {
                violation += x - ws.hi[b];
                1.0
            } else {
                continue;
            };
            for (c, &t) in ws.d1.iter_mut().zip(&ws.tab[i * n..(i + 1) * n]) {
                *c += w * t;
            }
        }
        violation
    }

    fn phase1(&mut self) -> Phase1 {
        let iter_limit = self.prep.iter_limit();
        let mut iters = 0u64;
        loop {
            let violation = self.phase1_costs();
            if violation == 0.0 {
                return Phase1::Feasible;
            }
            if past(self.deadline) {
                return Phase1::Stalled;
            }
            match self.step(true) {
                Step::Converged if violation <= PHASE1_TOL => return Phase1::Feasible,
                Step::Converged => return Phase1::Infeasible,
                // Every improving direction reaches some violated bound.
                Step::Unbounded => return Phase1::Stalled,
                Step::Moved => {}
            }
            iters += 1;
            if iters > iter_limit {
                return Phase1::Stalled;
            }
        }
    }

    fn phase2(&mut self) -> Phase2 {
        let iter_limit = self.prep.iter_limit();
        let mut iters = 0u64;
        loop {
            if past(self.deadline) {
                return Phase2::Stalled;
            }
            match self.step(false) {
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
        let (n, m) = (self.prep.n, self.prep.m);
        let iter_limit = self.prep.iter_limit();
        let mut iters = 0u64;
        loop {
            let ws = &mut *self.ws;
            // Most-violated leaving row (deterministic: first on ties).
            let mut leaving: Option<(usize, bool)> = None; // (row, below its lower bound)
            let mut worst = FEAS_TOL;
            for i in 0..m {
                let (x, b) = (ws.beta[i], ws.basis[i]);
                if ws.lo[b] - x > worst {
                    worst = ws.lo[b] - x;
                    leaving = Some((i, true));
                } else if x - ws.hi[b] > worst {
                    worst = x - ws.hi[b];
                    leaving = Some((i, false));
                }
            }
            let Some((r, below)) = leaving else {
                return Dual::PrimalFeasible;
            };
            if past(self.deadline) {
                return Dual::Stalled;
            }

            // Entering slot by a two-pass (Harris) ratio test over the
            // movable nonbasic variables that push the leaver toward its
            // violated bound: the first pass bounds the dual step with every
            // reduced cost relaxed by RC_TOL, the second takes the largest
            // pivot |T_rk| among the ratios within that bound (lowest
            // variable index on ties).
            let row = &ws.tab[r * n..(r + 1) * n];
            // Pivots this far below the row's largest entry amplify
            // round-off past repair.
            let tol = row
                .iter()
                .fold(PIVOT_TOL, |acc, t| acc.max(REL_PIVOT_TOL * t.abs()));
            let mut tiny = false;
            // The reduced cost's slack toward dual infeasibility, for a
            // compatible variable.
            let mut slack = |k: usize, t: f64| -> Option<f64> {
                let j = ws.nonbasic[k];
                if t.abs() <= PIVOT_TOL || ws.hi[j] <= ws.lo[j] {
                    return None;
                }
                let sl = match ws.status[j] {
                    Status::Lower if (t > 0.0) == below => ws.d[k].max(0.0),
                    Status::Upper if (t < 0.0) == below => (-ws.d[k]).max(0.0),
                    _ => return None,
                };
                if t.abs() <= tol {
                    tiny = true;
                    return None;
                }
                Some(sl)
            };
            let mut bound = f64::INFINITY;
            for (k, &t) in row.iter().enumerate() {
                if let Some(sl) = slack(k, t) {
                    bound = bound.min((sl + RC_TOL) / t.abs());
                }
            }
            let mut entering: Option<usize> = None;
            let (mut best_abs, mut best_var) = (0.0, usize::MAX);
            for (k, &t) in row.iter().enumerate() {
                let Some(sl) = slack(k, t) else { continue };
                let j = ws.nonbasic[k];
                if sl / t.abs() <= bound
                    && (t.abs() > best_abs || (t.abs() == best_abs && j < best_var))
                {
                    best_abs = t.abs();
                    best_var = j;
                    entering = Some(k);
                }
            }
            let Some(q) = entering else {
                // No compatible variable: the violated row cannot be
                // repaired; the LP is infeasible (dual unbounded) — unless
                // only too small pivots could repair it.
                return if tiny { Dual::Tiny } else { Dual::Infeasible };
            };

            // Pivot: the leaver lands on its violated bound, q enters.
            let leaver = ws.basis[r];
            let target = if below { ws.lo[leaver] } else { ws.hi[leaver] };
            let delta = (target - ws.beta[r]) / ws.tab[r * n + q];
            ws.shift_nonbasic(n, q, ws.xn[q] + delta);
            ws.beta[r] = target;
            ws.exchange(n, r, q);
            ws.status[leaver] = if below { Status::Lower } else { Status::Upper };
            ws.pivots += 1;

            iters += 1;
            if iters > iter_limit {
                return Dual::Stalled;
            }
        }
    }

    /// The structural values and objective at the current basis.
    fn extract(&self) -> LpSolution {
        let ws = &*self.ws;
        let values: Vec<f64> = (0..self.prep.n)
            .map(|j| match ws.status[j] {
                Status::Basic => ws.beta[ws.pos[j]],
                _ => ws.xn[ws.pos[j]],
            })
            .collect();
        let objective = values.iter().zip(&self.prep.cost).map(|(v, c)| v * c).sum();
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

    /// A tiny bounded LP: at most 4 variables in `[0, ub]`, at most 3 rows
    /// of any relation.
    fn tiny_lp() -> impl Strategy<Value = RandomLp> {
        (1usize..=4).prop_flat_map(|n| {
            let row = (proptest::collection::vec(-3i32..=3, n), 0u8..3, -5i32..=8);
            (
                proptest::collection::vec(-5i32..=5, n),
                proptest::collection::vec(1u8..=4, n),
                proptest::collection::vec(row, 0..=3),
            )
                .prop_map(|(obj, ub, rows)| RandomLp { obj, ub, rows })
        })
    }

    /// The optimum of `p` by enumeration, independent of the simplex code:
    /// every vertex of the bounded feasible set is the solution of `n`
    /// linearly independent hyperplanes among the variable bounds and the
    /// rows taken at equality, so the best feasible such point is optimal;
    /// `None` when no such point is feasible.
    fn enumerate_vertices(p: &RandomLp) -> Option<f64> {
        let n = p.obj.len();
        // Hyperplanes `a·x = b`: x_j = 0, x_j = ub_j, then each row.
        let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
        for j in 0..n {
            let unit: Vec<f64> = (0..n).map(|k| f64::from(u8::from(k == j))).collect();
            planes.push((unit.clone(), 0.0));
            planes.push((unit, f64::from(p.ub[j])));
        }
        for (coeffs, _, rhs) in &p.rows {
            planes.push((
                coeffs.iter().map(|&a| f64::from(a)).collect(),
                f64::from(*rhs),
            ));
        }
        let feasible = |x: &[f64]| {
            let tol = 1e-7;
            x.iter()
                .zip(&p.ub)
                .all(|(&v, &u)| v >= -tol && v <= f64::from(u) + tol)
                && p.rows.iter().all(|(coeffs, rel, rhs)| {
                    let lhs: f64 = coeffs.iter().zip(x).map(|(&a, v)| f64::from(a) * v).sum();
                    let rhs = f64::from(*rhs);
                    match rel {
                        0 => lhs <= rhs + tol,
                        1 => lhs >= rhs - tol,
                        _ => (lhs - rhs).abs() <= tol,
                    }
                })
        };
        let mut best: Option<f64> = None;
        // Every n-subset of the hyperplanes, as a bit mask.
        for mask in 0u32..(1 << planes.len()) {
            if mask.count_ones() as usize != n {
                continue;
            }
            let mut sys: Vec<Vec<f64>> = (0..planes.len())
                .filter(|&i| mask >> i & 1 == 1)
                .map(|i| {
                    let mut r = planes[i].0.clone();
                    r.push(planes[i].1);
                    r
                })
                .collect();
            // Gaussian elimination with partial pivoting.
            let mut singular = false;
            for c in 0..n {
                let piv = (c..n)
                    .max_by(|&a, &b| sys[a][c].abs().total_cmp(&sys[b][c].abs()))
                    .unwrap();
                if sys[piv][c].abs() < 1e-9 {
                    singular = true;
                    break;
                }
                sys.swap(c, piv);
                let pivot_row = sys[c].clone();
                for (r, row) in sys.iter_mut().enumerate() {
                    if r != c {
                        let f = row[c] / pivot_row[c];
                        for (x, p) in row.iter_mut().zip(&pivot_row).skip(c) {
                            *x -= f * p;
                        }
                    }
                }
            }
            if singular {
                continue;
            }
            let x: Vec<f64> = (0..n).map(|r| sys[r][n] / sys[r][r]).collect();
            if feasible(&x) {
                let obj: f64 = x.iter().zip(&p.obj).map(|(v, &c)| v * f64::from(c)).sum();
                if best.is_none_or(|b| obj < b) {
                    best = Some(obj);
                }
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `solve_lp` agrees with vertex enumeration: the same optimal
        /// objective at a feasible point, or infeasible exactly when no
        /// vertex is feasible.
        #[test]
        fn solve_lp_matches_vertex_enumeration(p in tiny_lp()) {
            let m = build_lp(&p);
            match (solve_lp(&m), enumerate_vertices(&p)) {
                (LpOutcome::Optimal(s), Some(best)) => {
                    prop_assert!(
                        (s.objective - best).abs() < 1e-6,
                        "simplex {} != enumeration {best}", s.objective
                    );
                    prop_assert!(m.check_feasible(&s.values, 1e-6).is_ok());
                }
                (LpOutcome::Infeasible, None) => {}
                other => prop_assert!(false, "simplex and enumeration disagree: {other:?}"),
            }
        }
    }
}
