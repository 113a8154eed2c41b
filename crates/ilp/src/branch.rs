//! Parallel branch-and-bound over the integer variables.
//!
//! The search runs a pool of workers over a shared best-first frontier
//! (ordered by parent LP bound, ties broken by creation sequence so a
//! single-threaded run is fully reproducible). Each worker *dives*: after
//! branching it keeps the child nearer to the fractional LP value and pushes
//! the other onto the shared heap, which gives depth-first incumbent
//! discovery inside a best-first global ordering.
//!
//! Three things keep the per-node cost low:
//!
//! - **Copy-on-write bounds.** A node stores only its single branched bound
//!   as a [`BoundDelta`] linked to the parent's chain via `Arc`, instead of
//!   cloning full `lb`/`ub` vectors; workers materialize the chain into
//!   reusable scratch buffers.
//! - **Warm-started LPs.** Each node shares its optimal basis with both
//!   children ([`Basis`]), so a child LP restarts with the dual simplex
//!   instead of a cold two-phase solve. Numerical trouble falls back to the
//!   cold path (counted in [`SolverStats::warm_start_fallbacks`]).
//! - **A live tableau per worker.** Every worker owns one [`Workspace`]
//!   whose tableau carries over from node to node: a dive child starts
//!   from the basis its parent left behind, and a node popped from the heap
//!   pivots in only the few basis columns it differs by (counted in
//!   [`SolverStats::basis_repair_pivots`]). Full rebuilds are the exception
//!   ([`SolverStats::refactorizations`]), and node solves are
//!   allocation-free apart from the two `Arc`s per branching.
//!
//! Pruning is conservative (`bound >= incumbent - 1e-9`, same as the
//! sequential version), so an exhausted search proves optimality and the
//! final objective is identical regardless of thread count.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::model::{Model, VarType};
use crate::presolve::{presolve_with_stats, PresolveStats, Presolved};
use crate::simplex::{past, solve_cold, solve_warm, Basis, LpOutcome, Prepared, Workspace};
use crate::INT_TOL;

/// Options controlling a MILP solve.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Wall-clock budget. On expiry the best incumbent found so far is
    /// returned with [`SolveStatus::Feasible`] (the paper runs Gurobi with a
    /// 15-minute budget and reports best-effort results the same way).
    pub time_limit: Duration,
    /// Maximum number of branch-and-bound nodes.
    pub node_limit: u64,
    /// A known-feasible starting assignment (e.g. from a heuristic). Its
    /// objective becomes the initial cutoff, guaranteeing the result is
    /// never worse than the warm start.
    pub warm_start: Option<Vec<f64>>,
    /// Worker threads for the tree search. `0` (the default) uses the
    /// machine's available parallelism. The objective is thread-count
    /// invariant; only wall-clock time changes.
    pub threads: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            time_limit: Duration::from_secs(10),
            node_limit: 2_000_000,
            warm_start: None,
            threads: 0,
        }
    }
}

/// How a returned solution should be interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal.
    Optimal,
    /// Feasible incumbent; optimality not proven (budget or node limit hit,
    /// or an LP relaxation stalled numerically).
    Feasible,
}

/// A point on the incumbent-improvement timeline.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IncumbentEvent {
    /// Seconds since the solve started.
    pub at_s: f64,
    /// The new incumbent objective.
    pub objective: f64,
}

/// Observability counters for one MILP solve: where the time went and how
/// hard the search had to work. Serialized into benchmark reports.
#[derive(Debug, Clone, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SolverStats {
    /// Branch-and-bound nodes processed (LP relaxations solved).
    pub nodes: u64,
    /// Worker threads used for the tree search.
    pub threads: usize,
    /// Total wall-clock time of the solve, in seconds.
    pub wall_time_s: f64,
    /// Node throughput over the search phase.
    pub nodes_per_sec: f64,
    /// Simplex pivots across all node LPs (basis changes and bound flips).
    pub lp_pivots: u64,
    /// Node LPs solved warm from the parent basis (dual simplex restart),
    /// including warm solves the deadline stopped. With
    /// [`cold_lps`](Self::cold_lps) it accounts for every node.
    pub warm_lps: u64,
    /// Node LPs solved cold (two-phase from scratch).
    pub cold_lps: u64,
    /// Warm starts abandoned for the cold path (singular or stalled basis).
    pub warm_start_fallbacks: u64,
    /// Warm starts that rebuilt the tableau from the raw matrix instead of
    /// pivoting the live one to the node's basis.
    pub refactorizations: u64,
    /// Pivots spent moving the live tableau to a node's basis before its
    /// dual simplex (not part of [`lp_pivots`](Self::lp_pivots)).
    pub basis_repair_pivots: u64,
    /// Seconds spent in presolve.
    pub presolve_time_s: f64,
    /// Seconds spent in the tree search.
    pub search_time_s: f64,
    /// Seconds until the first feasible incumbent, if any was found.
    pub time_to_first_incumbent_s: Option<f64>,
    /// Every incumbent improvement, in order.
    pub incumbent_timeline: Vec<IncumbentEvent>,
    /// What presolve reduced before the search started.
    pub presolve: PresolveStats,
    /// Constraint rows of the searched (presolved) model.
    pub rows: usize,
    /// Variables of the searched (presolved) model.
    pub cols: usize,
}

/// A feasible MILP solution.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Value per variable, indexed by [`VarId`](crate::VarId). Integer
    /// variables are snapped to exact integers.
    pub values: Vec<f64>,
    /// Objective value `cᵀx`.
    pub objective: f64,
    /// Optimality status.
    pub status: SolveStatus,
    /// Number of branch-and-bound nodes processed.
    pub nodes: u64,
    /// Detailed counters and timings for this solve.
    pub stats: SolverStats,
}

impl Solution {
    /// Value of a variable.
    pub fn value(&self, var: crate::VarId) -> f64 {
        self.values[var.0]
    }

    /// Value of a binary/integer variable as `i64`.
    pub fn int_value(&self, var: crate::VarId) -> i64 {
        self.values[var.0].round() as i64
    }

    /// Value of a binary variable as `bool`.
    pub fn bool_value(&self, var: crate::VarId) -> bool {
        self.values[var.0].round() as i64 != 0
    }
}

/// Failure modes of a MILP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MilpError {
    /// The model has no feasible assignment.
    Infeasible,
    /// The LP relaxation is unbounded below.
    Unbounded,
    /// The budget expired before any feasible assignment was found.
    NoSolutionFound,
}

impl fmt::Display for MilpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MilpError::Infeasible => write!(f, "model is infeasible"),
            MilpError::Unbounded => write!(f, "objective is unbounded below"),
            MilpError::NoSolutionFound => {
                write!(f, "budget expired before a feasible solution was found")
            }
        }
    }
}

impl std::error::Error for MilpError {}

/// One branched bound, chained to the parent node's chain. Materializing a
/// node's bounds walks the chain over the root bounds; branching only ever
/// tightens, so `max`/`min` make the walk order-independent.
struct BoundDelta {
    var: usize,
    /// `true` tightens the lower bound, `false` the upper.
    lower: bool,
    value: f64,
    parent: Option<Arc<BoundDelta>>,
}

struct Node {
    /// Parent LP objective: a lower bound on everything in this subtree.
    bound: f64,
    /// Creation sequence; `0` is the root. Deterministic heap tie-break.
    seq: u64,
    delta: Option<Arc<BoundDelta>>,
    basis: Option<Arc<Basis>>,
}

/// Max-heap wrapper inverted into "smallest bound pops first".
struct HeapNode(Node);

impl PartialEq for HeapNode {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for HeapNode {}
impl PartialOrd for HeapNode {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapNode {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .bound
            .total_cmp(&self.0.bound)
            .then_with(|| other.0.seq.cmp(&self.0.seq))
    }
}

/// Cap on the open-node frontier; beyond it, far children are dropped and
/// the solve reports [`SolveStatus::Feasible`] instead of exploding memory.
const MAX_OPEN: usize = 100_000;

struct Queue {
    heap: BinaryHeap<HeapNode>,
    /// Workers currently diving on a node (not waiting).
    active: usize,
    stop: bool,
}

struct Incumbent {
    values: Option<Vec<f64>>,
    objective: f64,
    timeline: Vec<IncumbentEvent>,
}

/// Shared search state; one instance per solve, borrowed by every worker.
struct Search<'a> {
    model: &'a Model,
    prep: Prepared,
    int_vars: Vec<usize>,
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
    start: Instant,
    deadline: Option<Instant>,
    time_limit: Duration,
    node_limit: u64,
    queue: Mutex<Queue>,
    cv: Condvar,
    incumbent: Mutex<Incumbent>,
    /// Bit pattern of the incumbent objective (`+inf` when none): lets the
    /// hot pruning path skip the mutex.
    inc_bits: AtomicU64,
    nodes: AtomicU64,
    next_seq: AtomicU64,
    pivots: AtomicU64,
    repair_pivots: AtomicU64,
    refactorizations: AtomicU64,
    warm_lps: AtomicU64,
    cold_lps: AtomicU64,
    fallbacks: AtomicU64,
    any_stall: AtomicBool,
    truncated: AtomicBool,
    root_unbounded: AtomicBool,
}

/// Solves `model` to optimality or best effort within the budget.
///
/// # Errors
///
/// - [`MilpError::Infeasible`] if no assignment satisfies the constraints,
/// - [`MilpError::Unbounded`] if the relaxation is unbounded below,
/// - [`MilpError::NoSolutionFound`] if the budget expired with no incumbent.
pub fn solve(model: &Model, opts: &SolveOptions) -> Result<Solution, MilpError> {
    let start = Instant::now();
    // Cheap reductions first: fewer rows shrink every tableau quadratically.
    let (presolved, presolve_stats) = presolve_with_stats(model);
    let presolve_time = start.elapsed();
    let reduced = match presolved {
        Presolved::Reduced(m) => m,
        Presolved::Infeasible => return Err(MilpError::Infeasible),
    };
    let model = &reduced;
    let n = model.num_vars();
    let int_vars: Vec<usize> = (0..n)
        .filter(|&j| model.vars[j].vtype == VarType::Integer)
        .collect();

    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    };

    let search = Search {
        model,
        prep: Prepared::new(model),
        int_vars,
        root_lb: (0..n).map(|j| model.vars[j].lb).collect(),
        root_ub: (0..n).map(|j| model.vars[j].ub).collect(),
        start,
        deadline: start.checked_add(opts.time_limit),
        time_limit: opts.time_limit,
        node_limit: opts.node_limit,
        queue: Mutex::new(Queue {
            heap: BinaryHeap::from([HeapNode(Node {
                bound: f64::NEG_INFINITY,
                seq: 0,
                delta: None,
                basis: None,
            })]),
            active: 0,
            stop: false,
        }),
        cv: Condvar::new(),
        incumbent: Mutex::new(Incumbent {
            values: None,
            objective: f64::INFINITY,
            timeline: Vec::new(),
        }),
        inc_bits: AtomicU64::new(f64::INFINITY.to_bits()),
        nodes: AtomicU64::new(0),
        next_seq: AtomicU64::new(1),
        pivots: AtomicU64::new(0),
        repair_pivots: AtomicU64::new(0),
        refactorizations: AtomicU64::new(0),
        warm_lps: AtomicU64::new(0),
        cold_lps: AtomicU64::new(0),
        fallbacks: AtomicU64::new(0),
        any_stall: AtomicBool::new(false),
        truncated: AtomicBool::new(false),
        root_unbounded: AtomicBool::new(false),
    };

    if let Some(ws) = &opts.warm_start {
        assert_eq!(ws.len(), n, "warm start has wrong dimension");
        if model.check_feasible(ws, 1e-6).is_ok() {
            let mut vals = ws.clone();
            snap_integers(&mut vals, &search.int_vars);
            let obj = model.objective_value(&vals);
            search.offer_incumbent(vals, obj);
        }
    }

    let search_start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| worker(&search));
        }
    });
    let search_time = search_start.elapsed();

    if search.root_unbounded.load(Ordering::Relaxed) {
        return Err(MilpError::Unbounded);
    }

    let nodes = search.nodes.load(Ordering::Relaxed);
    let exhausted = !search.truncated.load(Ordering::Relaxed);
    let any_stall = search.any_stall.load(Ordering::Relaxed);
    let incumbent = search.incumbent.into_inner().unwrap();

    let stats = SolverStats {
        nodes,
        threads,
        wall_time_s: start.elapsed().as_secs_f64(),
        nodes_per_sec: if search_time.as_secs_f64() > 0.0 {
            nodes as f64 / search_time.as_secs_f64()
        } else {
            0.0
        },
        lp_pivots: search.pivots.load(Ordering::Relaxed),
        warm_lps: search.warm_lps.load(Ordering::Relaxed),
        cold_lps: search.cold_lps.load(Ordering::Relaxed),
        warm_start_fallbacks: search.fallbacks.load(Ordering::Relaxed),
        refactorizations: search.refactorizations.load(Ordering::Relaxed),
        basis_repair_pivots: search.repair_pivots.load(Ordering::Relaxed),
        presolve_time_s: presolve_time.as_secs_f64(),
        search_time_s: search_time.as_secs_f64(),
        time_to_first_incumbent_s: incumbent.timeline.first().map(|e| e.at_s),
        incumbent_timeline: incumbent.timeline,
        presolve: presolve_stats,
        rows: model.num_constraints(),
        cols: n,
    };

    match incumbent.values {
        Some(values) => Ok(Solution {
            objective: incumbent.objective,
            values,
            status: if exhausted && !any_stall {
                SolveStatus::Optimal
            } else {
                SolveStatus::Feasible
            },
            nodes,
            stats,
        }),
        None => {
            if exhausted && !any_stall {
                Err(MilpError::Infeasible)
            } else {
                Err(MilpError::NoSolutionFound)
            }
        }
    }
}

impl Search<'_> {
    /// Pops the best open node, waiting while other workers might still
    /// produce children. Returns `None` when the search is over.
    fn next_node(&self) -> Option<Node> {
        let mut q = self.queue.lock().unwrap();
        loop {
            if q.stop {
                return None;
            }
            if let Some(HeapNode(node)) = q.heap.pop() {
                q.active += 1;
                return Some(node);
            }
            if q.active == 0 {
                q.stop = true;
                self.cv.notify_all();
                return None;
            }
            q = self.cv.wait(q).unwrap();
        }
    }

    fn finish_dive(&self) {
        let mut q = self.queue.lock().unwrap();
        q.active -= 1;
        if q.active == 0 && q.heap.is_empty() {
            q.stop = true;
            self.cv.notify_all();
        }
    }

    fn stop_all(&self) {
        let mut q = self.queue.lock().unwrap();
        q.stop = true;
        self.cv.notify_all();
    }

    fn incumbent_objective(&self) -> f64 {
        f64::from_bits(self.inc_bits.load(Ordering::Relaxed))
    }

    /// Installs `values` as the incumbent if strictly better; at an equal
    /// objective the lexicographically smaller vector wins, which stabilizes
    /// the reported solution across thread interleavings.
    fn offer_incumbent(&self, values: Vec<f64>, objective: f64) {
        let mut inc = self.incumbent.lock().unwrap();
        if objective < inc.objective - 1e-9 {
            inc.objective = objective;
            inc.values = Some(values);
            inc.timeline.push(IncumbentEvent {
                at_s: self.start.elapsed().as_secs_f64(),
                objective,
            });
            self.inc_bits.store(objective.to_bits(), Ordering::Relaxed);
        } else if (objective - inc.objective).abs() <= 1e-9
            && inc.values.as_ref().is_some_and(|v| lex_less(&values, v))
        {
            inc.values = Some(values);
        }
    }
}

fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        if (x - y).abs() > 1e-9 {
            return x < y;
        }
    }
    false
}

/// Applies a node's delta chain over the root bounds into scratch buffers.
fn materialize_bounds(
    delta: &Option<Arc<BoundDelta>>,
    root_lb: &[f64],
    root_ub: &[f64],
    lb: &mut [f64],
    ub: &mut [f64],
) {
    lb.copy_from_slice(root_lb);
    ub.copy_from_slice(root_ub);
    let mut cur = delta.as_deref();
    while let Some(d) = cur {
        if d.lower {
            lb[d.var] = lb[d.var].max(d.value);
        } else {
            ub[d.var] = ub[d.var].min(d.value);
        }
        cur = d.parent.as_deref();
    }
}

/// One search worker: pops the globally best node, then dives down its
/// subtree keeping the nearer child in hand.
fn worker(s: &Search) {
    let mut ws = Workspace::new();
    let n = s.root_lb.len();
    let mut lb = vec![0.0; n];
    let mut ub = vec![0.0; n];

    while let Some(node) = s.next_node() {
        let mut cur = Some(node);
        while let Some(node) = cur.take() {
            if s.nodes.load(Ordering::Relaxed) >= s.node_limit || s.start.elapsed() >= s.time_limit
            {
                s.truncated.store(true, Ordering::Relaxed);
                s.stop_all();
                break;
            }
            // Bound-based pruning against the incumbent cutoff.
            if node.bound >= s.incumbent_objective() - 1e-9 {
                break;
            }
            s.nodes.fetch_add(1, Ordering::Relaxed);
            materialize_bounds(&node.delta, &s.root_lb, &s.root_ub, &mut lb, &mut ub);

            let outcome = match &node.basis {
                Some(basis) => match solve_warm(&s.prep, &mut ws, &lb, &ub, basis, s.deadline) {
                    Ok(o) => {
                        s.warm_lps.fetch_add(1, Ordering::Relaxed);
                        o
                    }
                    // Past the deadline a cold solve could only stall too.
                    Err(_) if past(s.deadline) => {
                        s.warm_lps.fetch_add(1, Ordering::Relaxed);
                        LpOutcome::Stalled
                    }
                    Err(_) => {
                        s.fallbacks.fetch_add(1, Ordering::Relaxed);
                        s.cold_lps.fetch_add(1, Ordering::Relaxed);
                        solve_cold(&s.prep, &mut ws, &lb, &ub, s.deadline)
                    }
                },
                None => {
                    s.cold_lps.fetch_add(1, Ordering::Relaxed);
                    solve_cold(&s.prep, &mut ws, &lb, &ub, s.deadline)
                }
            };

            let mut sol = match outcome {
                LpOutcome::Infeasible => break,
                LpOutcome::Unbounded => {
                    if node.seq == 0 {
                        s.root_unbounded.store(true, Ordering::Relaxed);
                        s.stop_all();
                    } else {
                        // A child cannot be unbounded if the root was
                        // bounded, but guard against numerical surprises:
                        // treat as unexplorable.
                        s.any_stall.store(true, Ordering::Relaxed);
                    }
                    break;
                }
                LpOutcome::Stalled => {
                    s.any_stall.store(true, Ordering::Relaxed);
                    break;
                }
                LpOutcome::Optimal(sol) => sol,
            };

            if sol.objective >= s.incumbent_objective() - 1e-9 {
                break;
            }

            // Find the most fractional integer variable.
            let mut branch: Option<(usize, f64)> = None;
            let mut best_frac = INT_TOL;
            for &j in &s.int_vars {
                let v = sol.values[j];
                let frac = (v - v.round()).abs();
                if frac > best_frac {
                    best_frac = frac;
                    branch = Some((j, v));
                }
            }

            let Some((j, v)) = branch else {
                // Integral: candidate incumbent. Snap in place — the LP
                // values are not needed again on this path.
                snap_integers(&mut sol.values, &s.int_vars);
                if s.model.check_feasible(&sol.values, 1e-5).is_ok() {
                    let obj = s.model.objective_value(&sol.values);
                    s.offer_incumbent(sol.values, obj);
                }
                break;
            };

            let basis = Arc::new(ws.snapshot_basis());
            let floor = v.floor();
            let down = Node {
                bound: sol.objective,
                seq: s.next_seq.fetch_add(1, Ordering::Relaxed),
                delta: Some(Arc::new(BoundDelta {
                    var: j,
                    lower: false,
                    value: floor,
                    parent: node.delta.clone(),
                })),
                basis: Some(Arc::clone(&basis)),
            };
            let up = Node {
                bound: sol.objective,
                seq: s.next_seq.fetch_add(1, Ordering::Relaxed),
                delta: Some(Arc::new(BoundDelta {
                    var: j,
                    lower: true,
                    value: floor + 1.0,
                    parent: node.delta,
                })),
                basis: Some(basis),
            };
            // Dive toward the nearer integer; the far child goes to the heap.
            let (near, far) = if v - floor <= 0.5 {
                (down, up)
            } else {
                (up, down)
            };
            {
                let mut q = s.queue.lock().unwrap();
                if q.heap.len() >= MAX_OPEN {
                    // Dropping a child forfeits the optimality proof.
                    s.truncated.store(true, Ordering::Relaxed);
                } else {
                    q.heap.push(HeapNode(far));
                    s.cv.notify_one();
                }
            }
            cur = Some(near);
        }
        s.finish_dive();
    }
    s.pivots.fetch_add(ws.pivots, Ordering::Relaxed);
    s.repair_pivots
        .fetch_add(ws.repair_pivots, Ordering::Relaxed);
    s.refactorizations
        .fetch_add(ws.refactorizations, Ordering::Relaxed);
}

fn snap_integers(values: &mut [f64], int_vars: &[usize]) {
    for &j in int_vars {
        values[j] = values[j].round();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Model, Relation};

    fn opts() -> SolveOptions {
        SolveOptions {
            time_limit: Duration::from_secs(30),
            ..SolveOptions::default()
        }
    }

    #[test]
    fn knapsack_is_solved_exactly() {
        // max 10a + 13b + 7c  s.t.  4a + 5b + 3c <= 8  (binaries).
        // Optimum: b + c = 20 (weight 8).
        let mut m = Model::new("knap");
        let a = m.binary("a", -10.0);
        let b = m.binary("b", -13.0);
        let c = m.binary("c", -7.0);
        m.constraint([(a, 4.0), (b, 5.0), (c, 3.0)], Relation::Le, 8.0);
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective + 20.0).abs() < 1e-6);
        assert!(!s.bool_value(a));
        assert!(s.bool_value(b));
        assert!(s.bool_value(c));
    }

    #[test]
    fn integer_rounding_is_not_assumed() {
        // min y  s.t.  y >= 1.5 x, y >= 3 (1 - x), x binary, y <= 10.
        // x=1 -> y=1.5 ; x=0 -> y=3. LP relaxation would pick x≈0.67.
        let mut m = Model::new("t");
        let x = m.binary("x", 0.0);
        let y = m.continuous("y", 0.0, 10.0, 1.0);
        m.constraint([(y, 1.0), (x, -1.5)], Relation::Ge, 0.0);
        m.constraint([(y, 1.0), (x, 3.0)], Relation::Ge, 3.0);
        let s = solve(&m, &opts()).unwrap();
        assert!(s.bool_value(x));
        assert!((s.objective - 1.5).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 2x = 3 with x integer: LP-feasible, IP-infeasible.
        let mut m = Model::new("t");
        let x = m.integer("x", 0.0, 10.0, 1.0);
        m.constraint([(x, 2.0)], Relation::Eq, 3.0);
        assert_eq!(solve(&m, &opts()).unwrap_err(), MilpError::Infeasible);
    }

    #[test]
    fn warm_start_bounds_the_result() {
        let mut m = Model::new("t");
        let x = m.binary("x", -1.0);
        let y = m.binary("y", -1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        // Feasible warm start: x=1, y=0, obj -1 (also optimal).
        let s = solve(
            &m,
            &SolveOptions {
                warm_start: Some(vec![1.0, 0.0]),
                ..opts()
            },
        )
        .unwrap();
        assert!((s.objective + 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_time_budget_returns_warm_start() {
        let mut m = Model::new("t");
        let x = m.binary("x", -1.0);
        m.constraint([(x, 1.0)], Relation::Le, 1.0);
        let s = solve(
            &m,
            &SolveOptions {
                time_limit: Duration::ZERO,
                warm_start: Some(vec![0.0]),
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, SolveStatus::Feasible);
        assert_eq!(s.int_value(x), 0);
    }

    #[test]
    fn zero_time_budget_without_warm_start_fails() {
        let mut m = Model::new("t");
        let _x = m.binary("x", -1.0);
        let err = solve(
            &m,
            &SolveOptions {
                time_limit: Duration::ZERO,
                ..SolveOptions::default()
            },
        )
        .unwrap_err();
        assert_eq!(err, MilpError::NoSolutionFound);
    }

    #[test]
    fn big_m_ordering_disjunction() {
        // Two unit jobs on one machine: either A before B or B before A.
        // min end = max completion; optimum 2.
        let mut m = Model::new("seq");
        const M: f64 = 100.0;
        let sa = m.continuous("sa", 0.0, 50.0, 0.0);
        let sb = m.continuous("sb", 0.0, 50.0, 0.0);
        let end = m.continuous("end", 0.0, 100.0, 1.0);
        let k = m.binary("k", 0.0);
        // sb >= sa + 1 - M(1-k)  and  sa >= sb + 1 - Mk
        m.constraint([(sb, 1.0), (sa, -1.0), (k, -M)], Relation::Ge, 1.0 - M);
        m.constraint([(sa, 1.0), (sb, -1.0), (k, M)], Relation::Ge, 1.0);
        m.constraint([(end, 1.0), (sa, -1.0)], Relation::Ge, 1.0);
        m.constraint([(end, 1.0), (sb, -1.0)], Relation::Ge, 1.0);
        let s = solve(&m, &opts()).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(
            (s.objective - 2.0).abs() < 1e-5,
            "objective {}",
            s.objective
        );
    }

    #[test]
    fn general_integers_branch_correctly() {
        // max 3x + 4y  s.t.  2x + 3y <= 12, 2x + y <= 8, x,y int >= 0.
        // LP opt is fractional; IP opt is x=3, y=2 (obj 17).
        let mut m = Model::new("int");
        let x = m.integer("x", 0.0, 10.0, -3.0);
        let y = m.integer("y", 0.0, 10.0, -4.0);
        m.constraint([(x, 2.0), (y, 3.0)], Relation::Le, 12.0);
        m.constraint([(x, 2.0), (y, 1.0)], Relation::Le, 8.0);
        let s = solve(&m, &opts()).unwrap();
        assert!(
            (s.objective + 17.0).abs() < 1e-6,
            "objective {}",
            s.objective
        );
        assert_eq!(s.int_value(x), 3);
        assert_eq!(s.int_value(y), 2);
    }

    /// A model whose LP relaxation is fractional enough to force real
    /// branching (several dozen nodes).
    fn branching_model() -> Model {
        let mut m = Model::new("branchy");
        let n = 8;
        let xs: Vec<_> = (0..n)
            .map(|i| m.binary(&format!("x{i}"), -((i % 5) as f64 + 3.0)))
            .collect();
        for w in xs.windows(3) {
            m.constraint([(w[0], 2.0), (w[1], 3.0), (w[2], 5.0)], Relation::Le, 7.0);
        }
        m.constraint(
            xs.iter().map(|&x| (x, 1.0)).collect::<Vec<_>>(),
            Relation::Le,
            n as f64 - 2.0,
        );
        m
    }

    #[test]
    fn objective_is_thread_count_invariant() {
        let m = branching_model();
        let reference = solve(
            &m,
            &SolveOptions {
                threads: 1,
                ..opts()
            },
        )
        .unwrap();
        assert_eq!(reference.status, SolveStatus::Optimal);
        for threads in [2, 4, 8] {
            let s = solve(&m, &SolveOptions { threads, ..opts() }).unwrap();
            assert_eq!(s.status, SolveStatus::Optimal, "threads={threads}");
            assert!(
                (s.objective - reference.objective).abs() < 1e-9,
                "threads={threads}: {} != {}",
                s.objective,
                reference.objective
            );
        }
    }

    #[test]
    fn stats_account_for_every_node() {
        let m = branching_model();
        let s = solve(
            &m,
            &SolveOptions {
                threads: 2,
                ..opts()
            },
        )
        .unwrap();
        let st = &s.stats;
        assert_eq!(st.nodes, s.nodes);
        assert!(st.nodes > 1, "expected branching, got {} nodes", st.nodes);
        // Every processed node solves exactly one LP, warm or cold.
        assert_eq!(st.warm_lps + st.cold_lps, st.nodes, "stats: {st:?}");
        assert!(st.warm_lps > 0, "child nodes should warm-start: {st:?}");
        // Each full tableau rebuild serves one warm LP.
        assert!(st.refactorizations <= st.warm_lps, "stats: {st:?}");
        assert!(st.lp_pivots > 0);
        assert!(st.threads == 2);
        assert!(st.nodes_per_sec > 0.0);
        assert!(st.time_to_first_incumbent_s.is_some());
        assert!(!st.incumbent_timeline.is_empty());
        // The timeline improves monotonically.
        for pair in st.incumbent_timeline.windows(2) {
            assert!(pair[1].objective < pair[0].objective + 1e-12);
            assert!(pair[1].at_s >= pair[0].at_s);
        }

        // Every node is still one warm or cold LP when the budget stops
        // the search mid-tree. min −Σx with 2·Σx ≤ 41: every LP relaxation
        // reaches −20.5 until twenty-odd binaries are fixed, so nothing
        // prunes against the −20 warm start and the tree far outlasts the
        // budget.
        let mut m = Model::new("parity");
        let xs: Vec<_> = (0..41).map(|i| m.binary(&format!("x{i}"), -1.0)).collect();
        m.constraint(
            xs.iter().map(|&x| (x, 2.0)).collect::<Vec<_>>(),
            Relation::Le,
            41.0,
        );
        let warm = (0..41).map(|i| f64::from(u8::from(i < 20))).collect();
        let s = solve(
            &m,
            &SolveOptions {
                time_limit: Duration::from_millis(200),
                warm_start: Some(warm),
                // Each worker the deadline catches mid-solve stalls a node.
                threads: 4,
                ..SolveOptions::default()
            },
        )
        .unwrap();
        assert_eq!(s.status, SolveStatus::Feasible, "the budget must hit");
        let st = &s.stats;
        assert!(st.nodes > 1, "stats: {st:?}");
        assert_eq!(st.warm_lps + st.cold_lps, st.nodes, "stats: {st:?}");
    }

    #[test]
    fn stats_serialize_to_json() {
        let m = branching_model();
        let s = solve(&m, &opts()).unwrap();
        let json = serde_json::to_string(&s.stats).expect("stats serialize");
        assert!(json.contains("\"nodes\""), "json: {json}");
        assert!(json.contains("\"incumbent_timeline\""), "json: {json}");
        assert!(json.contains("\"presolve\""), "json: {json}");
    }
}
