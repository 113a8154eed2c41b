//! Parallel branch-and-bound over the integer variables.
//!
//! The search runs up to four **lanes** over a shared best-first frontier
//! (ordered by parent LP bound, ties broken by creation sequence). Each
//! lane *dives*: after branching it keeps the child nearer to the
//! fractional LP value in hand and hands the other to the heap, which gives
//! depth-first incumbent discovery inside a best-first global ordering.
//!
//! The search proceeds in rounds. At the start of a round every idle lane
//! takes the best open node; then each lane dives for up to 32 node LPs
//! against the round's incumbent; then the lanes' outcomes — new
//! incumbents, far children, stalls — are applied in lane order. The lanes
//! of a round run side by side on up to `threads` threads, but nothing a
//! lane does depends on the others until the merge, so the search — every
//! node, pivot and incumbent — is the same at any thread count; threads
//! change only how fast it goes, and so where a wall-clock budget stops
//! it. The lane count depends on the model alone: four, or fewer when
//! their tableaux would hold more than 40M entries together.
//!
//! Three things keep the per-node cost low:
//!
//! - **Copy-on-write bounds.** A node stores only its single branched bound
//!   as a [`BoundDelta`] linked to the parent's chain via `Arc`, instead of
//!   cloning full `lb`/`ub` vectors; lanes materialize the chain into
//!   reusable scratch buffers.
//! - **Warm-started LPs.** Each node shares its optimal basis with both
//!   children ([`Basis`]), so a child LP restarts with the dual simplex
//!   instead of a cold two-phase solve. Numerical trouble falls back to the
//!   cold path (counted in [`SolverStats::warm_start_fallbacks`]).
//! - **A live tableau per lane.** Every lane owns one [`Workspace`] whose
//!   tableau carries over from node to node: a dive child starts from the
//!   basis its parent left behind, and a node popped from the heap pivots
//!   in only the few basic variables it differs by (counted in
//!   [`SolverStats::basis_repair_pivots`]). Full rebuilds are the exception
//!   ([`SolverStats::refactorizations`]), and node solves are
//!   allocation-free apart from the two `Arc`s per branching.
//!
//! Pruning is conservative (a node survives while its bound beats the
//! incumbent by more than a relative 1e-9, which also keeps round-off from
//! counting as an improvement), so an exhausted search proves optimality.

use std::collections::BinaryHeap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
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
    /// Threads that run the search's lanes. `0` (the default) uses the
    /// machine's available parallelism. The search is the same at any
    /// thread count; only wall-clock time changes (module doc).
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
    /// Threads that ran the search's lanes.
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
    /// Warm starts that rebuilt the tableau from the raw matrix, instead of
    /// pivoting the live one to the node's basis or because only too small
    /// pivots could repair a row; at most one per warm start.
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

/// Most search lanes one solve runs (module doc).
const MAX_LANES: usize = 4;

/// Node LPs a lane solves per round, diving, before the lanes merge.
const ROUND_STEPS: usize = 32;

/// Tableau entries a solve's lanes may hold together: a large model gets
/// fewer lanes, down to one.
const LANE_TABLEAU_ENTRIES: u64 = 40_000_000;

/// Improvements smaller than this fraction of the incumbent objective are
/// round-off, not progress: they neither replace the incumbent nor keep a
/// node alive.
const IMPROVE_TOL: f64 = 1e-9;

/// What the search reads while lanes run side by side.
struct Shared<'a> {
    model: &'a Model,
    prep: Prepared,
    int_vars: Vec<usize>,
    root_lb: Vec<f64>,
    root_ub: Vec<f64>,
    deadline: Option<Instant>,
}

/// One search lane: a workspace whose tableau stays live from node to
/// node, its bound scratch, the node of its dive in hand, and what its
/// node LPs led to this round.
struct Lane {
    ws: Workspace,
    lb: Vec<f64>,
    ub: Vec<f64>,
    node: Option<Node>,
    outcomes: Vec<Outcome>,
    warm_lps: u64,
    cold_lps: u64,
    fallbacks: u64,
}

/// What one node LP of a lane led to; applied in lane order after the
/// round.
enum Outcome {
    /// The node LP is infeasible or cannot beat the lane's cutoff.
    Fathomed,
    Stalled,
    /// The LP is unbounded (`true` at the root).
    Unbounded(bool),
    /// An integral, feasible LP solution and its objective.
    Integral(Vec<f64>, f64),
    /// A fractional LP solution of this objective; the lane dives on into
    /// the nearer child and `far` waits for the heap.
    Branch {
        objective: f64,
        far: Node,
    },
}

struct Incumbent {
    values: Option<Vec<f64>>,
    objective: f64,
    timeline: Vec<IncumbentEvent>,
}

/// The search's own state, touched only between rounds.
struct Frontier {
    heap: BinaryHeap<HeapNode>,
    next_seq: u64,
    nodes: u64,
    incumbent: Incumbent,
    any_stall: bool,
    truncated: bool,
    root_unbounded: bool,
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
    // Cheap reductions first: every row dropped is a tableau row no pivot
    // touches.
    let (presolved, presolve_stats) = presolve_with_stats(model);
    let presolve_time = start.elapsed();
    let reduced = match presolved {
        Presolved::Reduced(m) => m,
        Presolved::Infeasible => return Err(MilpError::Infeasible),
    };
    let model = &reduced;
    let n = model.num_vars();
    let shared = Shared {
        model,
        prep: Prepared::new(model),
        int_vars: (0..n)
            .filter(|&j| model.vars[j].vtype == VarType::Integer)
            .collect(),
        root_lb: (0..n).map(|j| model.vars[j].lb).collect(),
        root_ub: (0..n).map(|j| model.vars[j].ub).collect(),
        deadline: start.checked_add(opts.time_limit),
    };

    let entries = model.num_constraints() as u64 * (n as u64 + 1);
    let lane_count = MAX_LANES
        .min((LANE_TABLEAU_ENTRIES / entries.max(1)) as usize)
        .max(1);
    let threads = match opts.threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        t => t,
    }
    .min(lane_count);

    let mut frontier = Frontier {
        heap: BinaryHeap::from([HeapNode(Node {
            bound: f64::NEG_INFINITY,
            seq: 0,
            delta: None,
            basis: None,
        })]),
        next_seq: 1,
        nodes: 0,
        incumbent: Incumbent {
            values: None,
            objective: f64::INFINITY,
            timeline: Vec::new(),
        },
        any_stall: false,
        truncated: false,
        root_unbounded: false,
    };
    if let Some(ws) = &opts.warm_start {
        assert_eq!(ws.len(), n, "warm start has wrong dimension");
        if model.check_feasible(ws, 1e-6).is_ok() {
            let mut vals = ws.clone();
            snap_integers(&mut vals, &shared.int_vars);
            let obj = model.objective_value(&vals);
            frontier.offer_incumbent(vals, obj, start);
        }
    }

    let lanes: Vec<Mutex<Lane>> = (0..lane_count)
        .map(|_| {
            Mutex::new(Lane {
                ws: Workspace::new(),
                lb: vec![0.0; n],
                ub: vec![0.0; n],
                node: None,
                outcomes: Vec::new(),
                warm_lps: 0,
                cold_lps: 0,
                fallbacks: 0,
            })
        })
        .collect();
    let limits = (opts.time_limit, opts.node_limit);
    let search_start = Instant::now();
    // Rounds: every lane takes a node, the lanes' LPs run (side by side on
    // up to `threads` threads, lane `v` on thread `v % threads`), then their
    // outcomes are applied in lane order. The search is therefore the same
    // at any thread count.
    let cutoff = AtomicU64::new(0);
    let run = |first: usize| {
        let at = f64::from_bits(cutoff.load(Ordering::Relaxed));
        for lane in lanes.iter().skip(first).step_by(threads) {
            run_lane(&shared, &mut lane.lock().unwrap(), at);
        }
    };
    let next_round = |frontier: &mut Frontier| {
        let go = frontier.assign(&lanes, start, limits);
        cutoff.store(frontier.incumbent.objective.to_bits(), Ordering::Relaxed);
        go
    };
    if threads == 1 {
        // One thread runs the lanes itself: no spawn, no barriers.
        while next_round(&mut frontier) {
            run(0);
            frontier.merge(&lanes, start);
        }
    } else {
        let barrier = Barrier::new(threads);
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for t in 1..threads {
                let (barrier, stop, run) = (&barrier, &stop, &run);
                scope.spawn(move || loop {
                    barrier.wait();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    run(t);
                    barrier.wait();
                });
            }
            loop {
                let go = next_round(&mut frontier);
                stop.store(!go, Ordering::Relaxed);
                barrier.wait();
                if !go {
                    break;
                }
                run(0);
                barrier.wait();
                frontier.merge(&lanes, start);
            }
        });
    }
    let search_time = search_start.elapsed();

    if frontier.root_unbounded {
        return Err(MilpError::Unbounded);
    }
    let lanes: Vec<Lane> = lanes.into_iter().map(|l| l.into_inner().unwrap()).collect();
    let sum = |f: fn(&Lane) -> u64| lanes.iter().map(f).sum::<u64>();
    let nodes = frontier.nodes;
    let proved = !frontier.truncated && !frontier.any_stall;
    let incumbent = frontier.incumbent;

    let stats = SolverStats {
        nodes,
        threads,
        wall_time_s: start.elapsed().as_secs_f64(),
        nodes_per_sec: if search_time.as_secs_f64() > 0.0 {
            nodes as f64 / search_time.as_secs_f64()
        } else {
            0.0
        },
        lp_pivots: sum(|l| l.ws.pivots),
        warm_lps: sum(|l| l.warm_lps),
        cold_lps: sum(|l| l.cold_lps),
        warm_start_fallbacks: sum(|l| l.fallbacks),
        refactorizations: sum(|l| l.ws.refactorizations),
        basis_repair_pivots: sum(|l| l.ws.repair_pivots),
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
            status: if proved {
                SolveStatus::Optimal
            } else {
                SolveStatus::Feasible
            },
            nodes,
            stats,
        }),
        None if proved => Err(MilpError::Infeasible),
        None => Err(MilpError::NoSolutionFound),
    }
}

/// Whether `objective` beats `incumbent` by more than round-off.
fn beats(objective: f64, incumbent: f64) -> bool {
    if !incumbent.is_finite() {
        return objective < incumbent;
    }
    objective < incumbent - IMPROVE_TOL * incumbent.abs().max(1.0)
}

impl Frontier {
    /// Installs `values` as the incumbent if it is strictly better.
    fn offer_incumbent(&mut self, values: Vec<f64>, objective: f64, start: Instant) {
        let inc = &mut self.incumbent;
        if beats(objective, inc.objective) {
            inc.objective = objective;
            inc.values = Some(values);
            inc.timeline.push(IncumbentEvent {
                at_s: start.elapsed().as_secs_f64(),
                objective,
            });
        }
    }

    /// Prepares a round: drops held nodes the incumbent prunes, hands idle
    /// lanes the best open nodes, and stops the search — `false` — once
    /// no lane has a node, or the budget or node limit is spent.
    fn assign(&mut self, lanes: &[Mutex<Lane>], start: Instant, limits: (Duration, u64)) -> bool {
        let inc = self.incumbent.objective;
        let mut busy = false;
        for lane in lanes {
            let mut lane = lane.lock().unwrap();
            if lane.node.as_ref().is_some_and(|n| !beats(n.bound, inc)) {
                lane.node = None;
            }
            while lane.node.is_none() {
                match self.heap.pop() {
                    Some(HeapNode(n)) if beats(n.bound, inc) => lane.node = Some(n),
                    Some(_) => {}
                    None => break,
                }
            }
            busy |= lane.node.is_some();
        }
        let (time_limit, node_limit) = limits;
        if busy && (self.nodes >= node_limit || start.elapsed() >= time_limit) {
            self.truncated = true;
            return false;
        }
        busy
    }

    /// Applies the round's outcomes in lane order: node counts, stalls,
    /// incumbents, and far children onto the heap.
    fn merge(&mut self, lanes: &[Mutex<Lane>], start: Instant) {
        for lane in lanes {
            for outcome in lane.lock().unwrap().outcomes.drain(..) {
                self.nodes += 1;
                match outcome {
                    Outcome::Fathomed => {}
                    Outcome::Stalled => self.any_stall = true,
                    Outcome::Unbounded(true) => self.root_unbounded = true,
                    // A child cannot be unbounded if the root was bounded;
                    // a numerical surprise leaves it unexplored.
                    Outcome::Unbounded(false) => self.any_stall = true,
                    Outcome::Integral(values, objective) => {
                        self.offer_incumbent(values, objective, start)
                    }
                    Outcome::Branch { objective, mut far } => {
                        if !beats(objective, self.incumbent.objective) {
                            continue;
                        }
                        if self.heap.len() >= MAX_OPEN {
                            // Dropping a child forfeits the optimality proof.
                            self.truncated = true;
                            continue;
                        }
                        far.seq = self.next_seq;
                        self.next_seq += 1;
                        self.heap.push(HeapNode(far));
                    }
                }
            }
        }
        if self.root_unbounded {
            self.heap.clear();
            for lane in lanes {
                lane.lock().unwrap().node = None;
            }
        }
    }
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

/// Dives from the lane's node for up to [`ROUND_STEPS`] node LPs, keeping
/// the nearer child of each branching in hand, against the round's
/// incumbent objective `cutoff` (lowered by the lane's own finds).
fn run_lane(s: &Shared, lane: &mut Lane, mut cutoff: f64) {
    for _ in 0..ROUND_STEPS {
        let Some(node) = lane.node.take() else {
            return;
        };
        if !beats(node.bound, cutoff) {
            return;
        }
        let outcome = solve_node(s, lane, node, cutoff);
        if let Outcome::Integral(_, objective) = outcome {
            cutoff = cutoff.min(objective);
        }
        lane.outcomes.push(outcome);
    }
}

/// Solves the LP of `node` in the lane's workspace and says what it leads
/// to against the incumbent objective `cutoff`; a branching leaves the
/// nearer child in the lane's hand.
fn solve_node(s: &Shared, lane: &mut Lane, node: Node, cutoff: f64) -> Outcome {
    let ws = &mut lane.ws;
    let (lb, ub) = (&mut lane.lb, &mut lane.ub);
    materialize_bounds(&node.delta, &s.root_lb, &s.root_ub, lb, ub);
    let lp = match &node.basis {
        Some(basis) => match solve_warm(&s.prep, ws, lb, ub, basis, s.deadline) {
            Ok(o) => {
                lane.warm_lps += 1;
                o
            }
            // Past the deadline a cold solve could only stall too.
            Err(_) if past(s.deadline) => {
                lane.warm_lps += 1;
                LpOutcome::Stalled
            }
            Err(_) => {
                lane.fallbacks += 1;
                lane.cold_lps += 1;
                solve_cold(&s.prep, ws, lb, ub, s.deadline)
            }
        },
        None => {
            lane.cold_lps += 1;
            solve_cold(&s.prep, ws, lb, ub, s.deadline)
        }
    };
    let mut sol = match lp {
        LpOutcome::Infeasible => return Outcome::Fathomed,
        LpOutcome::Unbounded => return Outcome::Unbounded(node.seq == 0),
        LpOutcome::Stalled => return Outcome::Stalled,
        LpOutcome::Optimal(sol) if beats(sol.objective, cutoff) => sol,
        LpOutcome::Optimal(_) => return Outcome::Fathomed,
    };
    // The most fractional integer variable.
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
    let Some((var, value)) = branch else {
        // Integral: snap in place; the LP values are not needed again.
        snap_integers(&mut sol.values, &s.int_vars);
        if s.model.check_feasible(&sol.values, 1e-5).is_err() {
            return Outcome::Fathomed;
        }
        let objective = s.model.objective_value(&sol.values);
        return Outcome::Integral(sol.values, objective);
    };
    let basis = Arc::new(ws.snapshot_basis());
    let floor = value.floor();
    // The merge numbers the far child; the near one never reaches the heap.
    let child = |lower: bool| Node {
        bound: sol.objective,
        seq: u64::MAX,
        delta: Some(Arc::new(BoundDelta {
            var,
            lower,
            value: if lower { floor + 1.0 } else { floor },
            parent: node.delta.clone(),
        })),
        basis: Some(Arc::clone(&basis)),
    };
    // Dive toward the nearer integer.
    let up_is_near = value - floor > 0.5;
    lane.node = Some(child(up_is_near));
    Outcome::Branch {
        objective: sol.objective,
        far: child(!up_is_near),
    }
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

    /// Lanes merge in a fixed order, so the whole search repeats at any
    /// thread count: the same nodes, pivots, incumbents and solution.
    #[test]
    fn search_is_identical_at_any_thread_count() {
        let m = branching_model();
        let run = |threads| solve(&m, &SolveOptions { threads, ..opts() }).unwrap();
        let reference = run(1);
        for threads in [2, 3, 4, 8] {
            let s = run(threads);
            assert_eq!(s.values, reference.values, "threads={threads}");
            assert_eq!(s.nodes, reference.nodes, "threads={threads}");
            let (a, b) = (&s.stats, &reference.stats);
            assert_eq!(a.lp_pivots, b.lp_pivots, "threads={threads}");
            assert_eq!(a.basis_repair_pivots, b.basis_repair_pivots);
            let objectives = |st: &SolverStats| {
                st.incumbent_timeline
                    .iter()
                    .map(|e| e.objective)
                    .collect::<Vec<_>>()
            };
            assert_eq!(objectives(a), objectives(b), "threads={threads}");
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
