//! The PathDriver-Wash ILP: joint retiming of every fluidic manipulation
//! plus wash path/window selection.
//!
//! The paper's formulation (Eqs. 1–26) re-decides *all* start times and all
//! pairwise orders. Re-deciding the order of the base tasks explodes the
//! binary count, and the paper itself runs its solver as best-effort under a
//! wall-clock budget; this implementation therefore keeps the *relative
//! order* of the base schedule's tasks fixed (those `κ`/`ε` binaries of
//! Eqs. 3/8 are constants) while keeping, as decision variables:
//!
//! - the start time of **every** operation and task (full retiming),
//! - the wash path of each wash group (candidate-selection binaries,
//!   standing in for the per-cell path variables of Eqs. 12–15 — every
//!   candidate satisfies those constraints by construction),
//! - each wash's time window (Eqs. 16–18) and its ordering against
//!   conflicting tasks, operations, and other washes (`μ`/`η` binaries of
//!   Eqs. 19–20),
//! - the assay completion time `T_assay` (Eq. 22),
//!
//! minimizing `β·L_wash + γ·T_assay` (the `α·N_wash` term is fixed once the
//! groups are formed; group merging handles it upstream). The greedy
//! insertion result warm-starts branch-and-bound, so the ILP can only
//! improve on it.
//!
//! # Folded disjunction rows
//!
//! The solver's tableau is dense, so every row costs a full row of the
//! tableau. The disjunction families are therefore emitted in a folded form
//! whose integer feasible set equals that of the textbook one-row-pair-per-
//! candidate-pair form, and whose LP relaxation is at least as tight row for
//! row. The argument rests on one fact: the choice row `Σ_c y_c = 1` makes
//! exactly one `y` per group 1, so for any candidate set `C` the sum
//! `Y_C = Σ_{c∈C} y_c` is 0 or 1 at an integer point, and `Y_C ≥ y_c` for
//! every `c ∈ C` at any LP point.
//!
//! - **μ (Eq. 19).** For a group `g` and a node with order binary `μ`, let
//!   `C` be the candidates that share cells with the node. One row pair
//!   relaxed by `M(1 − Y_C)` replaces the pair per `c ∈ C` relaxed by
//!   `M(1 − y_c)`. At an integer point `Y_C = 1` exactly when the chosen
//!   candidate conflicts, which is when one of the old pairs binds — the
//!   same pair. In the LP `M(1 − Y_C) ≤ M(1 − y_c)`, so the folded row
//!   implies each row it replaces.
//! - **η (Eq. 20).** For groups `g_i, g_j` with order binary `η`, let `P`
//!   be the overlapping candidate pairs. If `P` is every pair, some pair
//!   overlaps whatever is chosen, so one row pair with no `y` terms is
//!   exact. Otherwise one row pair per candidate `c` on the side with fewer
//!   conflicting candidates (ties to `g_i`), relaxed by
//!   `M(1 − y_c) + M(1 − Y_{O(c)})` with `O(c)` the partners `c` overlaps:
//!   at an integer point it binds exactly when `c` and one of its partners
//!   are chosen, that is when the old row of that pair binds, and in the LP
//!   `Y_{O(c)} ≥ y_{c'}` makes it imply each old row `(c, c')`.
//! - **`T_assay` (Eq. 22).** Every precedence edge weighs its source's
//!   duration, so a node with a successor ends no later than the successor
//!   starts, which is no later than some sink ends: only sinks of the
//!   precedence DAG get a `T_assay` row. A wash with a deadline row ends
//!   before a node that `T_assay` already bounds; only washes without one
//!   get a row. Dropping implied rows leaves even the LP feasible set as is.
//!
//! Pairs the greedy schedule puts far apart keep their greedy order as one
//! fixed-order row and get no binary (a restriction, never an
//! unsoundness).

use std::collections::HashMap;

use pdw_assay::{AssayGraph, OpId};
use pdw_biochip::{Chip, CELL_PITCH_MM};
use pdw_ilp::{LinExpr, Model, Relation, SolveOptions, VarId};
use pdw_sched::{Schedule, TaskId, TaskKind, Time};

use crate::config::PdwConfig;
use crate::greedy::GreedyOutcome;
use crate::groups::WashGroup;

/// A dense-tableau LP of r rows costs roughly r × (vars + 2r) doubles
/// (slacks plus worst-case artificials), and every search worker holds its
/// own tableau. Models above this many entries are refused before solving,
/// and a model is searched by at most as many workers as keep their
/// tableaux together within it.
const MAX_TABLEAU_ENTRIES: u64 = 40_000_000;

/// Far-apart pairs (a gap of at least this many seconds in the greedy
/// schedule) keep their greedy order as a fixed-order row; only temporally
/// close pairs get an order binary.
const NEAR_S: Time = 30;

/// A retimed schedule extracted from the ILP.
#[derive(Debug, Clone)]
pub(crate) struct Refined {
    /// The optimized schedule (base tasks retimed, washes placed).
    pub schedule: Schedule,
    /// Whether the solver proved optimality within the budget.
    pub optimal: bool,
    /// Branch-and-bound nodes processed.
    pub nodes: u64,
    /// Detailed solver counters and timings.
    pub stats: pdw_ilp::SolverStats,
}

/// Why [`refine_with_ilp`] returned no refinement (callers fall back to the
/// greedy schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IlpMiss {
    /// The model's dense tableau is too large to solve even once within a
    /// budget; it was refused before solving.
    Refused {
        /// Constraint rows of the refused model.
        rows: usize,
        /// Variables of the refused model.
        cols: usize,
    },
    /// The solver found no feasible assignment within the budget.
    Unsolved,
}

/// Rows emitted per constraint family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct FamilyRows {
    /// Base precedence edges after transitive reduction (Eqs. 2/8).
    pub precedence: usize,
    /// One-candidate-per-group rows and candidates banned by an integrated
    /// removal.
    pub choice: usize,
    /// Wash windows: after every source, before every use (Eq. 16).
    pub window: usize,
    /// Wash-vs-task/op order rows (Eq. 19).
    pub mu: usize,
    /// Wash-vs-wash order rows (Eq. 20).
    pub eta: usize,
    /// Greedy orders kept for far-apart pairs.
    pub fixed_order: usize,
    /// `T_assay` bounds (Eq. 22).
    pub t_assay: usize,
}

impl FamilyRows {
    fn total(&self) -> usize {
        self.precedence
            + self.choice
            + self.window
            + self.mu
            + self.eta
            + self.fixed_order
            + self.t_assay
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Op(OpId),
    Task(TaskId),
}

/// A wash group's variables: its start and one selection binary per
/// candidate, with the candidates' durations.
struct WashVars {
    start: VarId,
    y: Vec<VarId>,
    dur: Vec<f64>,
}

impl WashVars {
    /// `var - e_g` with the wash end `e_g = s_g + Σ_c dur_c·y_c`, for rows
    /// bounding the end from above.
    fn minus_end(&self, var: VarId) -> Vec<(VarId, f64)> {
        let mut terms = vec![(var, 1.0), (self.start, -1.0)];
        terms.extend(self.y.iter().zip(&self.dur).map(|(&y, &d)| (y, -d)));
        terms
    }

    /// `-M·Σ_{c∈cands} y_c`: the `y` part of a relaxation `M(1 - Σ y)`.
    fn relax(&self, cands: &[usize], big_m: f64) -> Vec<(VarId, f64)> {
        cands.iter().map(|&c| (self.y[c], -big_m)).collect()
    }
}

/// Emits the folded Eq. 19 row pair ordering wash `w` against a node
/// (start `node`, duration `dur`) that shares cells with the candidates
/// `conflicting`; `mu = 1` puts the node first. Returns the rows emitted.
fn mu_rows(
    m: &mut Model,
    big_m: f64,
    w: &WashVars,
    node: VarId,
    dur: f64,
    conflicting: &[usize],
    mu: VarId,
) -> usize {
    // μ = 0 binds: wash ends before the node starts:
    //   s_node - e_g ≥ -M·μ - M(1 - Σ_C y)
    //   ⇔ s_node - e_g + M·μ - M·Σ_C y ≥ -M
    let mut terms = w.minus_end(node);
    terms.push((mu, big_m));
    terms.extend(w.relax(conflicting, big_m));
    m.constraint(terms, Relation::Ge, -big_m);
    // μ = 1 binds: wash starts after the node ends:
    //   s_g - s_node ≥ d - M(1-μ) - M(1 - Σ_C y)
    //   ⇔ s_g - s_node - M·μ - M·Σ_C y ≥ d - 2M
    let mut terms = vec![(w.start, 1.0), (node, -1.0), (mu, -big_m)];
    terms.extend(w.relax(conflicting, big_m));
    m.constraint(terms, Relation::Ge, dur - 2.0 * big_m);
    2
}

/// Emits the folded Eq. 20 rows ordering washes `a` and `b`, where
/// `overlaps[ca][cb]` tells whether candidate `ca` of `a` overlaps candidate
/// `cb` of `b` (at least one pair does); `eta = 1` puts `a` first. Returns
/// the rows emitted.
fn eta_rows(
    m: &mut Model,
    big_m: f64,
    a: &WashVars,
    b: &WashVars,
    overlaps: &[Vec<bool>],
    eta: VarId,
) -> usize {
    // O(c) for each candidate of each side.
    let partners_a: Vec<Vec<usize>> = overlaps
        .iter()
        .map(|row| (0..b.y.len()).filter(|&cb| row[cb]).collect())
        .collect();
    let partners_b: Vec<Vec<usize>> = (0..b.y.len())
        .map(|cb| (0..a.y.len()).filter(|&ca| overlaps[ca][cb]).collect())
        .collect();
    // Each relaxation: its `-M·y` terms and how many `M`s it adds.
    let relaxations: Vec<(Vec<(VarId, f64)>, f64)> =
        if partners_a.iter().all(|o| o.len() == b.y.len()) {
            // Every pair overlaps: whatever is chosen conflicts.
            vec![(Vec::new(), 0.0)]
        } else {
            let active = |p: &[Vec<usize>]| p.iter().filter(|o| !o.is_empty()).count();
            let (side, other, partners) = if active(&partners_a) <= active(&partners_b) {
                (a, b, partners_a)
            } else {
                (b, a, partners_b)
            };
            partners
                .iter()
                .enumerate()
                .filter(|(_, o)| !o.is_empty())
                .map(|(c, o)| {
                    let mut terms = side.relax(&[c], big_m);
                    terms.extend(other.relax(o, big_m));
                    (terms, 2.0)
                })
                .collect()
        };
    let rows = 2 * relaxations.len();
    for (y_terms, k) in relaxations {
        // η = 1 binds: wash a ends before b starts:
        //   s_b - e_a ≥ -M(1-η) - relaxation
        //   ⇔ s_b - e_a - M·η - M·Σy ≥ -(1+k)M
        let mut terms = a.minus_end(b.start);
        terms.push((eta, -big_m));
        terms.extend(y_terms.iter().copied());
        m.constraint(terms, Relation::Ge, -(1.0 + k) * big_m);
        // η = 0 binds: wash b ends before a starts:
        //   s_a - e_b ≥ -M·η - relaxation
        //   ⇔ s_a - e_b + M·η - M·Σy ≥ -k·M
        let mut terms = b.minus_end(a.start);
        terms.push((eta, big_m));
        terms.extend(y_terms);
        m.constraint(terms, Relation::Ge, -k * big_m);
    }
    rows
}

/// The retiming ILP of one greedy outcome, built but not yet solved.
pub(crate) struct IlpModel {
    model: Model,
    /// The greedy solution as a feasible assignment.
    warm: Vec<f64>,
    /// The greedy schedule without its washes.
    base: Schedule,
    op_var: HashMap<OpId, VarId>,
    task_var: HashMap<TaskId, VarId>,
    wash_vars: Vec<WashVars>,
    /// Rows per constraint family; they sum to the model's rows.
    pub rows: FamilyRows,
}

impl IlpModel {
    /// Constraint rows and variables of the model.
    pub(crate) fn size(&self) -> (usize, usize) {
        debug_assert_eq!(self.rows.total(), self.model.num_constraints());
        (self.model.num_constraints(), self.model.num_vars())
    }

    /// Entries of one dense tableau of the model.
    fn tableau_entries(&self) -> u64 {
        let (rows, vars) = self.size();
        let (rows, vars) = (rows as u64, vars as u64);
        rows * (vars + 2 * rows)
    }

    /// Whether the model's dense tableau fits the size guard.
    pub(crate) fn fits(&self) -> bool {
        self.tableau_entries() <= MAX_TABLEAU_ENTRIES
    }

    /// Search workers for a machine offering `available` threads: at most
    /// as many as keep one tableau each within [`MAX_TABLEAU_ENTRIES`], and
    /// at least one.
    pub(crate) fn workers(&self, available: usize) -> usize {
        let fit = MAX_TABLEAU_ENTRIES / self.tableau_entries().max(1);
        available.min(fit as usize).max(1)
    }

    /// Solves the model within `config`'s budget and extracts the retimed
    /// schedule. `None` when the solver finds nothing within the budget.
    fn solve(self, groups: &[WashGroup], config: &PdwConfig) -> Option<Refined> {
        let options = SolveOptions {
            time_limit: config.ilp_budget,
            threads: self.workers(crate::par::resolve_threads(config.threads)),
            warm_start: Some(self.warm),
            ..SolveOptions::default()
        };
        let sol = pdw_ilp::solve(&self.model, &options).ok()?;

        // Floor the starts: difference constraints with integer offsets stay
        // satisfied under uniform flooring.
        let start_of = |v: VarId| snap_start(sol.value(v));
        let mut schedule = self.base;
        for op in schedule.ops_mut() {
            op.start = start_of(self.op_var[&op.op]);
        }
        let ids: Vec<TaskId> = schedule.tasks().map(|(id, _)| id).collect();
        for id in ids {
            let s = start_of(self.task_var[&id]);
            schedule.task_mut(id).set_start(s);
        }
        for (g, wv) in groups.iter().zip(&self.wash_vars) {
            let ci =
                wv.y.iter()
                    .position(|&yv| sol.bool_value(yv))
                    .expect("exactly one candidate is chosen");
            let cand = &g.candidates[ci];
            schedule.push_task(pdw_sched::Task::new(
                TaskKind::Wash {
                    targets: g.targets(),
                },
                cand.path.clone(),
                start_of(wv.start),
                cand.duration,
                pdw_assay::FluidType::BUFFER,
            ));
        }

        Some(Refined {
            schedule,
            optimal: sol.status == pdw_ilp::SolveStatus::Optimal,
            nodes: sol.nodes,
            stats: sol.stats,
        })
    }
}

/// Builds and solves the retiming ILP. A model whose dense tableau would not
/// fit one solve into the budget is refused before solving — the greedy
/// schedule stands (best-effort semantics).
pub(crate) fn refine_with_ilp(
    chip: &Chip,
    graph: &AssayGraph,
    groups: &[WashGroup],
    greedy: &GreedyOutcome,
    config: &PdwConfig,
) -> Result<Refined, IlpMiss> {
    let built = build_model(chip, graph, groups, greedy, config);
    if !built.fits() {
        let (rows, cols) = built.size();
        return Err(IlpMiss::Refused { rows, cols });
    }
    built.solve(groups, config).ok_or(IlpMiss::Unsolved)
}

/// Builds the retiming ILP of `greedy` (whose washes realize `groups`)
/// without solving it.
pub(crate) fn build_model(
    chip: &Chip,
    graph: &AssayGraph,
    groups: &[WashGroup],
    greedy: &GreedyOutcome,
    config: &PdwConfig,
) -> IlpModel {
    // Work on the greedy schedule *without* its wash tasks: base tasks are
    // retimed, washes re-placed. Integrated removals stay deleted.
    let mut base = greedy.schedule.clone();
    let wash_ids: Vec<TaskId> = base
        .tasks()
        .filter(|(_, t)| t.kind().is_wash())
        .map(|(id, _)| id)
        .collect();
    let mut greedy_wash: HashMap<usize, (usize, Time)> = HashMap::new();
    for p in &greedy.placements {
        let t = base.task(p.task);
        greedy_wash.insert(p.group, (p.candidate, t.start()));
    }
    for id in wash_ids {
        base.remove_task(id);
    }

    let horizon = (greedy.schedule.makespan() as f64 * 2.0 + 64.0).max(256.0);
    let big_m = horizon;

    let mut m = Model::new("pdw");
    let mut rows = FamilyRows::default();

    // Start-time variables.
    let mut op_var: HashMap<OpId, VarId> = HashMap::new();
    for sop in base.ops() {
        op_var.insert(
            sop.op,
            m.continuous(&format!("s_{}", sop.op), 0.0, horizon, 0.0),
        );
    }
    let mut task_var: HashMap<TaskId, VarId> = HashMap::new();
    for (id, _) in base.tasks() {
        task_var.insert(id, m.continuous(&format!("s_{id}"), 0.0, horizon, 0.0));
    }
    let dur_of = |n: Node| -> Time {
        match n {
            Node::Op(o) => base.scheduled_op(o).expect("op scheduled").duration,
            Node::Task(t) => base.task(t).duration(),
        }
    };
    let var_of = |n: Node| -> VarId {
        match n {
            Node::Op(o) => op_var[&o],
            Node::Task(t) => task_var[&t],
        }
    };

    // ---- Base precedence edges (orders fixed to the base schedule). ----
    // Every edge weighs its source's duration; the `T_assay` rows rely on it.
    let mut edges: HashMap<(Node, Node), Time> = HashMap::new();
    let add_edge = |edges: &mut HashMap<(Node, Node), Time>, a: Node, b: Node| {
        edges.insert((a, b), dur_of(a));
    };

    // Structural chains: deliveries/removals feed operations, transports
    // leave operations, output removals follow operations.
    for (id, task) in base.tasks() {
        match *task.kind() {
            TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => {
                add_edge(&mut edges, Node::Task(id), Node::Op(op));
            }
            TaskKind::Transport { from_op, to_op } => {
                add_edge(&mut edges, Node::Op(from_op), Node::Task(id));
                add_edge(&mut edges, Node::Task(id), Node::Op(to_op));
            }
            TaskKind::OutputRemoval { op } => {
                add_edge(&mut edges, Node::Op(op), Node::Task(id));
            }
            TaskKind::Wash { .. } => unreachable!("washes were removed"),
        }
    }
    // Operation dependencies (Eq. 2).
    for (parent, child) in graph.dep_edges() {
        add_edge(&mut edges, Node::Op(parent), Node::Op(child));
    }

    // Cell-sharing pairs, ordered as in the base schedule (ε of Eq. 8 fixed)
    // — including operation executions as footprint intervals.
    let mut intervals: Vec<(Node, Time, Vec<pdw_biochip::Coord>)> = Vec::new();
    for (id, task) in base.tasks() {
        intervals.push((Node::Task(id), task.start(), task.path().cells().to_vec()));
    }
    for sop in base.ops() {
        intervals.push((
            Node::Op(sop.op),
            sop.start,
            chip.device(sop.device).footprint().to_vec(),
        ));
    }
    intervals.sort_by_key(|(_, s, _)| *s);
    for i in 0..intervals.len() {
        for j in i + 1..intervals.len() {
            let (a, _, ca) = &intervals[i];
            let (b, _, cb) = &intervals[j];
            if ca.iter().any(|c| cb.contains(c)) {
                add_edge(&mut edges, *a, *b);
            }
        }
    }

    // Transitive reduction: drop edges implied by longer paths. Rows are
    // emitted in variable order, so one instance always builds one model.
    let reduced = transitive_reduce(&edges, &intervals);
    let mut precedence: Vec<(VarId, VarId, Time)> = reduced
        .iter()
        .map(|(&(a, b), &w)| (var_of(a), var_of(b), w))
        .collect();
    precedence.sort_unstable();
    for (a, b, w) in precedence {
        // s_b - s_a >= w
        m.constraint([(b, 1.0), (a, -1.0)], Relation::Ge, w as f64);
        rows.precedence += 1;
    }

    // Reachability in the precedence DAG, for pruning wash order binaries:
    // a node with a precedence path *to* a wash's source ends before the
    // wash starts; a node reachable *from* a deadline use starts after the
    // wash ends. Neither needs a μ binary.
    let node_index: HashMap<Node, usize> = intervals
        .iter()
        .enumerate()
        .map(|(i, (n, _, _))| (*n, i))
        .collect();
    let nn = intervals.len();
    let mut succ: Vec<Vec<usize>> = vec![Vec::new(); nn];
    let mut pred: Vec<Vec<usize>> = vec![Vec::new(); nn];
    for (a, b) in edges.keys() {
        succ[node_index[a]].push(node_index[b]);
        pred[node_index[b]].push(node_index[a]);
    }
    let reach = |seeds: Vec<usize>, adj: &Vec<Vec<usize>>| -> Vec<bool> {
        let mut seen = vec![false; nn];
        let mut stack = seeds;
        while let Some(u) = stack.pop() {
            if seen[u] {
                continue;
            }
            seen[u] = true;
            stack.extend(adj[u].iter().copied());
        }
        seen
    };
    let source_node = |s: &pdw_contam::Source| -> Option<usize> {
        match s {
            pdw_contam::Source::Task(t) => node_index.get(&Node::Task(*t)).copied(),
            pdw_contam::Source::Op(o) => node_index.get(&Node::Op(*o)).copied(),
        }
    };
    // Tasks delivering into an op: the op's occupancy starts with them.
    let feeders = |o: OpId| -> Vec<TaskId> {
        base.tasks()
            .filter(|(_, task)| match *task.kind() {
                TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => op == o,
                TaskKind::Transport { to_op, .. } => to_op == o,
                _ => false,
            })
            .map(|(id, _)| id)
            .collect()
    };

    // ---- Wash variables. ----
    let beta = config.weights.beta;
    let gamma = config.weights.gamma;
    let t_assay = m.continuous("T_assay", 0.0, horizon, gamma);

    let mut wash_vars: Vec<WashVars> = Vec::new();
    for (gi, g) in groups.iter().enumerate() {
        let start = m.continuous(&format!("w{gi}_s"), 0.0, horizon, 0.0);
        let y: Vec<VarId> = g
            .candidates
            .iter()
            .enumerate()
            .map(|(ci, c)| {
                m.binary(
                    &format!("w{gi}_y{ci}"),
                    beta * c.path.len() as f64 * CELL_PITCH_MM,
                )
            })
            .collect();
        // Exactly one candidate (Eq. 12–15 are satisfied by construction).
        let expr: LinExpr = y.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>().into();
        m.constraint(expr, Relation::Eq, 1.0);
        rows.choice += 1;
        let dur = g.candidates.iter().map(|c| c.duration as f64).collect();
        wash_vars.push(WashVars { start, y, dur });
    }

    // Window constraints (Eq. 16): after sources, before uses.
    let mut has_deadline_row = vec![false; groups.len()];
    for (gi, g) in groups.iter().enumerate() {
        for &src in &g.ready_refs() {
            let (v, d) = match src {
                pdw_contam::Source::Task(t) => {
                    if base.get_task(t).is_none() {
                        continue; // integrated away; residue no longer exists
                    }
                    (task_var[&t], base.task(t).duration())
                }
                pdw_contam::Source::Op(o) => (op_var[&o], dur_of(Node::Op(o))),
            };
            // s_g >= s_src + dur_src
            m.constraint(
                [(wash_vars[gi].start, 1.0), (v, -1.0)],
                Relation::Ge,
                d as f64,
            );
            rows.window += 1;
        }
        for &usage in &g.deadline_refs() {
            let bounds: Vec<VarId> = match usage {
                pdw_contam::Source::Task(t) => match task_var.get(&t) {
                    Some(&v) => vec![v],
                    None => continue,
                },
                // The wash must end before the op's occupancy begins:
                // before the op itself and before each of its deliveries.
                pdw_contam::Source::Op(o) => std::iter::once(op_var[&o])
                    .chain(feeders(o).into_iter().map(|id| task_var[&id]))
                    .collect(),
            };
            for v in bounds {
                // e_g <= s_use   =>   s_use - e_g >= 0
                m.constraint(wash_vars[gi].minus_end(v), Relation::Ge, 0.0);
                rows.window += 1;
                has_deadline_row[gi] = true;
            }
        }
    }

    // Wash-vs-task and wash-vs-op conflicts (Eq. 19): one order binary and
    // one row pair per (group, node) pair that shares cells with any
    // candidate, relaxed by `1 - Σ_C y_c` over the conflicting candidates C.
    let mut mu: HashMap<(usize, Node), VarId> = HashMap::new();
    for (gi, g) in groups.iter().enumerate() {
        let before = reach(
            g.ready_refs().iter().filter_map(source_node).collect(),
            &pred,
        );
        let deadline_refs = g.deadline_refs();
        let mut after_seeds: Vec<usize> = deadline_refs.iter().filter_map(source_node).collect();
        // An op-typed deadline also bounds the wash by the op's deliveries
        // (occupancy start), so their descendants are ordered after too.
        for d in &deadline_refs {
            if let pdw_contam::Source::Op(o) = d {
                after_seeds.extend(feeders(*o).iter().map(|&id| node_index[&Node::Task(id)]));
            }
        }
        let after = reach(after_seeds, &succ);
        let (gci, gstart) = greedy_wash[&gi];
        let gend = gstart + g.candidates[gci].duration;
        for (node, _, cells) in &intervals {
            let ni = node_index[node];
            if before[ni] || after[ni] {
                continue; // order already forced by window + precedence
            }
            let conflicting: Vec<usize> = g
                .candidates
                .iter()
                .enumerate()
                .filter(|(_, c)| cells.iter().any(|x| c.path.contains(*x)))
                .map(|(ci, _)| ci)
                .collect();
            if conflicting.is_empty() {
                continue;
            }
            let node_start = match node {
                Node::Op(o) => base.scheduled_op(*o).expect("scheduled").start,
                Node::Task(t) => base.task(*t).start(),
            };
            let nv = var_of(*node);
            let nd = dur_of(*node) as f64;
            if node_start + dur_of(*node) + NEAR_S <= gstart {
                // Node well before the wash: keep node → wash.
                m.constraint([(wash_vars[gi].start, 1.0), (nv, -1.0)], Relation::Ge, nd);
                rows.fixed_order += 1;
                continue;
            }
            if gend + NEAR_S <= node_start {
                // Wash well before the node: keep wash → node (end expr).
                m.constraint(wash_vars[gi].minus_end(nv), Relation::Ge, 0.0);
                rows.fixed_order += 1;
                continue;
            }
            let mv = *mu
                .entry((gi, *node))
                .or_insert_with(|| m.binary(&format!("mu_w{gi}_{node:?}"), 0.0));
            rows.mu += mu_rows(&mut m, big_m, &wash_vars[gi], nv, nd, &conflicting, mv);
        }
    }

    // Wash-vs-wash conflicts (Eq. 20).
    let mut eta: HashMap<(usize, usize), VarId> = HashMap::new();
    for gi in 0..groups.len() {
        for gj in gi + 1..groups.len() {
            // overlaps[ci][cj]: candidate ci of gi overlaps candidate cj of gj.
            let overlaps: Vec<Vec<bool>> = groups[gi]
                .candidates
                .iter()
                .map(|a| {
                    groups[gj]
                        .candidates
                        .iter()
                        .map(|b| a.path.overlaps(&b.path))
                        .collect()
                })
                .collect();
            if !overlaps.iter().flatten().any(|&o| o) {
                continue;
            }
            // Washes far apart in the greedy schedule keep their order as a
            // single linear constraint; only close pairs get a binary.
            let (ci_g, si) = greedy_wash[&gi];
            let (cj_g, sj) = greedy_wash[&gj];
            let ei = si + groups[gi].candidates[ci_g].duration;
            let ej = sj + groups[gj].candidates[cj_g].duration;
            if ei + NEAR_S <= sj {
                // gi well before gj: e_gi <= s_gj.
                m.constraint(
                    wash_vars[gi].minus_end(wash_vars[gj].start),
                    Relation::Ge,
                    0.0,
                );
                rows.fixed_order += 1;
                continue;
            }
            if ej + NEAR_S <= si {
                m.constraint(
                    wash_vars[gj].minus_end(wash_vars[gi].start),
                    Relation::Ge,
                    0.0,
                );
                rows.fixed_order += 1;
                continue;
            }
            let ev = m.binary(&format!("eta_{gi}_{gj}"), 0.0);
            eta.insert((gi, gj), ev);
            rows.eta += eta_rows(&mut m, big_m, &wash_vars[gi], &wash_vars[gj], &overlaps, ev);
        }
    }

    // Integrated removals (ψ fixed from the greedy pass): the wash that
    // absorbed a removal must keep covering its excess cells — candidates
    // that do not cover them are forbidden for that group.
    for p in &greedy.placements {
        let g = &groups[p.group];
        for (_, removed) in &greedy.integrated {
            let rop = match *removed.kind() {
                TaskKind::ExcessRemoval { op } => op,
                _ => continue,
            };
            let excess = crate::greedy::excess_targets(chip, &base, rop, removed);
            if excess.is_empty()
                || !excess
                    .iter()
                    .all(|c| g.candidates[p.candidate].path.contains(*c))
            {
                continue; // absorbed by a different group's wash
            }
            for (ci, cand) in g.candidates.iter().enumerate() {
                if !excess.iter().all(|c| cand.path.contains(*c)) {
                    m.constraint([(wash_vars[p.group].y[ci], 1.0)], Relation::Eq, 0.0);
                    rows.choice += 1;
                }
            }
        }
    }

    // T_assay bounds every end (Eq. 22, extended to tasks and washes); only
    // the ends nothing else already bounds get a row (module doc).
    let is_sink = |n: Node| succ[node_index[&n]].is_empty();
    for sop in base.ops().iter().filter(|sop| is_sink(Node::Op(sop.op))) {
        m.constraint(
            [(t_assay, 1.0), (op_var[&sop.op], -1.0)],
            Relation::Ge,
            sop.duration as f64,
        );
        rows.t_assay += 1;
    }
    for (id, task) in base.tasks().filter(|&(id, _)| is_sink(Node::Task(id))) {
        m.constraint(
            [(t_assay, 1.0), (task_var[&id], -1.0)],
            Relation::Ge,
            task.duration() as f64,
        );
        rows.t_assay += 1;
    }
    for gi in (0..groups.len()).filter(|&gi| !has_deadline_row[gi]) {
        m.constraint(wash_vars[gi].minus_end(t_assay), Relation::Ge, 0.0);
        rows.t_assay += 1;
    }

    // ---- Warm start from the greedy solution. ----
    let mut warm = vec![0.0; m.num_vars()];
    for sop in base.ops() {
        warm[op_var[&sop.op].0] = sop.start as f64;
    }
    for (id, task) in base.tasks() {
        warm[task_var[&id].0] = task.start() as f64;
    }
    for (gi, wv) in wash_vars.iter().enumerate() {
        let (chosen, start) = greedy_wash[&gi];
        warm[wv.start.0] = start as f64;
        for (ci, &yv) in wv.y.iter().enumerate() {
            warm[yv.0] = if ci == chosen { 1.0 } else { 0.0 };
        }
    }
    warm[t_assay.0] = greedy.schedule.makespan() as f64;
    // Order binaries consistent with greedy times.
    for ((gi, node), &mv) in &mu {
        let (ci, wstart) = greedy_wash[gi];
        let wend = wstart + groups[*gi].candidates[ci].duration;
        let node_start = match node {
            Node::Op(o) => greedy.schedule.scheduled_op(*o).expect("scheduled").start,
            Node::Task(t) => greedy.schedule.task(*t).start(),
        };
        // μ = 0 ⇔ the wash ends before the node starts.
        warm[mv.0] = if wend <= node_start { 0.0 } else { 1.0 };
    }
    for ((gi, gj), &ev) in &eta {
        let (ci, si) = greedy_wash[gi];
        let (_, sj) = greedy_wash[gj];
        let ei = si + groups[*gi].candidates[ci].duration;
        // η = 1 ⇔ wash gi runs before wash gj.
        warm[ev.0] = if ei <= sj { 1.0 } else { 0.0 };
    }

    IlpModel {
        model: m,
        warm,
        base,
        op_var,
        task_var,
        wash_vars,
        rows,
    }
}

/// An LP start time as a whole second: floored, after a shift by the
/// integrality tolerance so a value a hair below an integer (12.9999999)
/// is not floored a second early. Every start shifts alike, so integer-offset
/// difference constraints survive the flooring.
fn snap_start(v: f64) -> Time {
    (v + pdw_ilp::INT_TOL).floor() as Time
}

/// Transitive reduction of the precedence edges: an edge `(a, b, w)` is
/// dropped when some other path from `a` to `b` already has length ≥ `w`.
fn transitive_reduce(
    edges: &HashMap<(Node, Node), Time>,
    intervals: &[(Node, Time, Vec<pdw_biochip::Coord>)],
) -> HashMap<(Node, Node), Time> {
    // Topological order: base start times (ties by discovery order).
    let order: Vec<Node> = intervals.iter().map(|(n, _, _)| *n).collect();
    let index: HashMap<Node, usize> = order.iter().enumerate().map(|(i, &n)| (n, i)).collect();

    let mut out: HashMap<usize, Vec<(usize, Time)>> = HashMap::new();
    for (&(a, b), &w) in edges {
        out.entry(index[&a]).or_default().push((index[&b], w));
    }

    let mut kept = HashMap::new();
    for (&(a, b), &w) in edges {
        let (ia, ib) = (index[&a], index[&b]);
        // Longest path a→b not using the direct edge.
        let mut dist: Vec<Option<Time>> = vec![None; order.len()];
        dist[ia] = Some(0);
        for u in ia..=ib {
            let Some(du) = dist[u] else { continue };
            if let Some(succ) = out.get(&u) {
                for &(v, ew) in succ {
                    if u == ia && v == ib {
                        continue; // skip the direct edge itself
                    }
                    if v <= ib {
                        let nd = du + ew;
                        if dist[v].is_none_or(|d| nd > d) {
                            dist[v] = Some(nd);
                        }
                    }
                }
            }
        }
        if dist[ib].is_none_or(|d| d < w) {
            kept.insert((a, b), w);
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CandidatePolicy, PdwConfig};
    use crate::greedy::{insert_washes, insert_washes_protected};
    use crate::groups::{merge_groups, spot_cluster_groups};
    use pdw_assay::benchmarks;
    use pdw_contam::{analyze, NecessityOptions};
    use pdw_sim::Metrics;
    use pdw_synth::synthesize;

    #[test]
    fn snap_start_floors_within_integrality_tolerance() {
        assert_eq!(snap_start(12.9999999), 13);
        assert_eq!(snap_start(13.4), 13);
        assert_eq!(snap_start(0.0), 0);
    }

    #[test]
    fn transitive_reduction_drops_implied_edges() {
        use pdw_assay::OpId;
        let a = Node::Op(OpId(0));
        let b = Node::Op(OpId(1));
        let c = Node::Op(OpId(2));
        let mut edges = HashMap::new();
        edges.insert((a, b), 3);
        edges.insert((b, c), 4);
        edges.insert((a, c), 5); // implied: a→b→c has length 7 ≥ 5
        let intervals = vec![(a, 0, vec![]), (b, 3, vec![]), (c, 7, vec![])];
        let reduced = transitive_reduce(&edges, &intervals);
        assert!(reduced.contains_key(&(a, b)));
        assert!(reduced.contains_key(&(b, c)));
        assert!(!reduced.contains_key(&(a, c)), "implied edge kept");
    }

    #[test]
    fn transitive_reduction_keeps_tighter_direct_edges() {
        use pdw_assay::OpId;
        let a = Node::Op(OpId(0));
        let b = Node::Op(OpId(1));
        let c = Node::Op(OpId(2));
        let mut edges = HashMap::new();
        edges.insert((a, b), 1);
        edges.insert((b, c), 1);
        edges.insert((a, c), 9); // tighter than the 2-long path: must stay
        let intervals = vec![(a, 0, vec![]), (b, 1, vec![]), (c, 9, vec![])];
        let reduced = transitive_reduce(&edges, &intervals);
        assert!(reduced.contains_key(&(a, c)));
    }

    const TOY_M: f64 = 100.0;
    const TOY_STARTS: [f64; 5] = [0.0, 3.0, 5.0, 9.0, 20.0];

    /// A wash over free starts with one binary per candidate duration and
    /// its one-candidate row.
    fn toy_wash(m: &mut Model, durs: &[f64]) -> WashVars {
        let start = m.continuous("s", 0.0, TOY_M, 0.0);
        let y: Vec<VarId> = durs.iter().map(|_| m.binary("y", 0.0)).collect();
        m.constraint(y.iter().map(|&v| (v, 1.0)), Relation::Eq, 1.0);
        WashVars {
            start,
            y,
            dur: durs.to_vec(),
        }
    }

    /// An integer point: `(var, value)` pairs over an all-zero vector.
    fn point(m: &Model, set: &[(VarId, f64)]) -> Vec<f64> {
        let mut v = vec![0.0; m.num_vars()];
        for &(var, x) in set {
            v[var.0] = x;
        }
        v
    }

    /// The folded μ rows admit exactly the integer points the per-candidate
    /// disjunction admits: a chosen conflicting candidate must be ordered
    /// against the node as μ says, any other choice leaves both free.
    #[test]
    fn mu_fold_admits_exactly_the_disjunction() {
        let durs = [3.0, 5.0, 7.0];
        let node_dur = 4.0;
        for conflicting in [vec![0], vec![0, 2], vec![1, 2], vec![0, 1, 2]] {
            let mut m = Model::new("mu");
            let w = toy_wash(&mut m, &durs);
            let node = m.continuous("n", 0.0, TOY_M, 0.0);
            let mu = m.binary("mu", 0.0);
            assert_eq!(
                mu_rows(&mut m, TOY_M, &w, node, node_dur, &conflicting, mu),
                2
            );
            for (c, &dur) in durs.iter().enumerate() {
                for bit in [0.0, 1.0] {
                    for sw in TOY_STARTS {
                        for sn in TOY_STARTS {
                            let truth = !conflicting.contains(&c)
                                || (bit == 0.0 && sn >= sw + dur)
                                || (bit == 1.0 && sw >= sn + node_dur);
                            let x =
                                point(&m, &[(w.start, sw), (w.y[c], 1.0), (node, sn), (mu, bit)]);
                            assert_eq!(
                                m.check_feasible(&x, 1e-9).is_ok(),
                                truth,
                                "C={conflicting:?} c={c} mu={bit} s_w={sw} s_n={sn}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The folded η rows admit exactly the integer points the per-pair
    /// disjunction admits, for full and partial overlap patterns on either
    /// side, including candidates with several overlapping partners.
    #[test]
    fn eta_fold_admits_exactly_the_disjunction() {
        let (t, f) = (true, false);
        // Overlap matrices (a's candidates by b's) and the rows they need.
        let patterns = [
            (vec![vec![t, t], vec![t, t]], 2),
            (vec![vec![t, f], vec![t, t]], 4),
            (vec![vec![f, t], vec![f, f]], 2),
            (vec![vec![t, t, t], vec![f, f, f]], 2),
            // Fewer conflicting candidates on b's side: rows per b candidate.
            (vec![vec![t, f], vec![t, f], vec![f, f]], 2),
            (vec![vec![t, f], vec![t, t], vec![t, f]], 4),
        ];
        for (overlaps, expected_rows) in patterns {
            let da = &[3.0, 5.0, 7.0][..overlaps.len()];
            let db = &[4.0, 6.0, 7.0][..overlaps[0].len()];
            let mut m = Model::new("eta");
            let a = toy_wash(&mut m, da);
            let b = toy_wash(&mut m, db);
            let eta = m.binary("eta", 0.0);
            assert_eq!(
                eta_rows(&mut m, TOY_M, &a, &b, &overlaps, eta),
                expected_rows,
                "{overlaps:?}"
            );
            for ca in 0..da.len() {
                for cb in 0..db.len() {
                    for bit in [0.0, 1.0] {
                        for sa in TOY_STARTS {
                            for sb in TOY_STARTS {
                                let truth = !overlaps[ca][cb]
                                    || (bit == 1.0 && sb >= sa + da[ca])
                                    || (bit == 0.0 && sa >= sb + db[cb]);
                                let x = point(
                                    &m,
                                    &[
                                        (a.start, sa),
                                        (a.y[ca], 1.0),
                                        (b.start, sb),
                                        (b.y[cb], 1.0),
                                        (eta, bit),
                                    ],
                                );
                                assert_eq!(
                                    m.check_feasible(&x, 1e-9).is_ok(),
                                    truth,
                                    "{overlaps:?} a{ca} b{cb} eta={bit} s_a={sa} s_b={sb}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// The ILP `pdw run` builds for `bench` at the default configuration:
    /// the same front end and greedy warm start, not solved.
    fn pipeline_model(bench: &benchmarks::Benchmark) -> IlpModel {
        let s = synthesize(bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let config = PdwConfig::default();
        let groups = spot_cluster_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            config.candidates,
            0,
        );
        let groups = merge_groups(&s.chip, &s.schedule, groups, config.candidates);
        let protected = s
            .schedule
            .tasks()
            .filter(|(id, t)| t.kind().is_waste_disposal() && !a.deletable.contains(id))
            .map(|(id, _)| id)
            .collect();
        let greedy = insert_washes_protected(
            &s.chip,
            &s.schedule,
            &groups,
            config.integration,
            &protected,
        );
        build_model(&s.chip, &bench.graph, &greedy.groups, &greedy, &config)
    }

    /// Every Table II model but Kinase act-2's passes the dense-tableau
    /// guard, each family keeps its pinned row count, and an admitted
    /// model's search workers hold at most the guard's entries together,
    /// however many cores `threads: 0` finds.
    #[test]
    fn table2_models_pass_the_guard_except_kinase_act_2() {
        let fam = |precedence, choice, window, mu, eta, fixed_order, t_assay| FamilyRows {
            precedence,
            choice,
            window,
            mu,
            eta,
            fixed_order,
            t_assay,
        };
        // (name, rows per family, passes the guard, workers on 64 cores)
        let pinned = [
            ("PCR", fam(47, 30, 68, 112, 300, 264, 1), true, 24),
            ("IVD", fam(71, 61, 181, 234, 1114, 1471, 2), true, 1),
            ("ProteinSplit", fam(72, 60, 175, 216, 932, 1460, 1), true, 2),
            ("Kinase act-1", fam(34, 43, 97, 76, 694, 711, 1), true, 6),
            (
                "Kinase act-2",
                fam(108, 139, 417, 498, 2794, 8755, 4),
                false,
                1,
            ),
            ("Synthetic1", fam(43, 27, 64, 68, 314, 245, 1), true, 29),
            ("Synthetic2", fam(87, 42, 97, 226, 450, 511, 1), true, 8),
            ("Synthetic3", fam(92, 65, 195, 318, 1360, 1724, 1), true, 1),
        ];
        let suite = benchmarks::suite();
        assert_eq!(suite.len(), pinned.len());
        for (bench, (name, rows, fits, workers)) in suite.iter().zip(pinned) {
            assert_eq!(bench.name, name);
            let built = pipeline_model(bench);
            assert_eq!(built.rows, rows, "{name}: rows per family");
            assert_eq!(built.size().0, rows.total(), "{name}: rows");
            assert_eq!(built.fits(), fits, "{name}: guard");
            assert_eq!(built.workers(64), workers, "{name}: workers on 64 cores");
            if fits {
                for available in [1, 2, 64, crate::par::resolve_threads(0)] {
                    let held = built.workers(available) as u64 * built.tableau_entries();
                    assert!(
                        held <= MAX_TABLEAU_ENTRIES,
                        "{name}: {available} cores hold {held} entries"
                    );
                }
            }
        }
    }

    /// The ILP, warm-started from greedy, never returns a worse objective
    /// than the greedy schedule it started from.
    #[test]
    fn ilp_never_regresses_the_greedy_objective() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let config = PdwConfig {
            ilp_budget: std::time::Duration::from_secs(3),
            ..PdwConfig::default()
        };
        let groups = spot_cluster_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            config.candidates,
            0,
        );
        let groups = merge_groups(&s.chip, &s.schedule, groups, config.candidates);
        let greedy = insert_washes(&s.chip, &s.schedule, &groups, config.integration);
        let greedy_metrics = Metrics::measure(&bench.graph, &greedy.schedule);

        if let Ok(refined) =
            refine_with_ilp(&s.chip, &bench.graph, &greedy.groups, &greedy, &config)
        {
            // The refined schedule must validate, and its makespan must not
            // exceed the greedy one (γ > 0 and the warm start is feasible).
            pdw_sim::validate(&s.chip, &bench.graph, &refined.schedule).unwrap();
            let m = Metrics::measure(&bench.graph, &refined.schedule);
            let w = &config.weights;
            let obj = |x: &Metrics| {
                w.alpha * x.n_wash as f64 + w.beta * x.l_wash_mm + w.gamma * x.t_assay as f64
            };
            assert!(
                obj(&m) <= obj(&greedy_metrics) + 1e-6,
                "ILP objective {} worse than greedy {}",
                obj(&m),
                obj(&greedy_metrics)
            );
        }
    }
}
