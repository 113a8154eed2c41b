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

use std::collections::HashMap;

use pdw_assay::{AssayGraph, OpId};
use pdw_biochip::{Chip, CELL_PITCH_MM};
use pdw_ilp::{LinExpr, Model, Relation, SolveOptions, VarId};
use pdw_sched::{Schedule, TaskId, TaskKind, Time};

use crate::config::PdwConfig;
use crate::greedy::GreedyOutcome;
use crate::groups::WashGroup;

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

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Node {
    Op(OpId),
    Task(TaskId),
}

/// Builds and solves the retiming ILP. Returns `None` when the solver finds
/// nothing within the budget (callers fall back to the greedy schedule).
pub(crate) fn refine_with_ilp(
    chip: &Chip,
    graph: &AssayGraph,
    groups: &[WashGroup],
    greedy: &GreedyOutcome,
    config: &PdwConfig,
) -> Option<Refined> {
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
    let mut edges: HashMap<(Node, Node), Time> = HashMap::new();
    let add_edge = |edges: &mut HashMap<(Node, Node), Time>, a: Node, b: Node, w: Time| {
        let e = edges.entry((a, b)).or_insert(0);
        *e = (*e).max(w);
    };

    // Structural chains: deliveries/removals feed operations, transports
    // leave operations, output removals follow operations.
    for (id, task) in base.tasks() {
        match *task.kind() {
            TaskKind::Injection { op, .. } => {
                add_edge(&mut edges, Node::Task(id), Node::Op(op), task.duration());
            }
            TaskKind::Transport { from_op, to_op } => {
                add_edge(
                    &mut edges,
                    Node::Op(from_op),
                    Node::Task(id),
                    dur_of(Node::Op(from_op)),
                );
                add_edge(&mut edges, Node::Task(id), Node::Op(to_op), task.duration());
            }
            TaskKind::ExcessRemoval { op } => {
                add_edge(&mut edges, Node::Task(id), Node::Op(op), task.duration());
            }
            TaskKind::OutputRemoval { op } => {
                add_edge(
                    &mut edges,
                    Node::Op(op),
                    Node::Task(id),
                    dur_of(Node::Op(op)),
                );
            }
            TaskKind::Wash { .. } => unreachable!("washes were removed"),
        }
    }
    // Operation dependencies (Eq. 2).
    for (parent, child) in graph.dep_edges() {
        add_edge(
            &mut edges,
            Node::Op(parent),
            Node::Op(child),
            dur_of(Node::Op(parent)),
        );
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
                add_edge(&mut edges, *a, *b, dur_of(*a));
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

    // ---- Wash variables. ----
    let beta = config.weights.beta;
    let gamma = config.weights.gamma;
    let t_assay = m.continuous("T_assay", 0.0, horizon, gamma);

    struct WashVars {
        start: VarId,
        y: Vec<VarId>,
    }
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
        wash_vars.push(WashVars { start, y });
    }
    // Wash end expression: e_g = s_g + Σ dur_c y_c.
    let wash_end_terms = |gi: usize| -> Vec<(VarId, f64)> {
        let mut terms = vec![(wash_vars[gi].start, 1.0)];
        for (ci, &yv) in wash_vars[gi].y.iter().enumerate() {
            terms.push((yv, groups[gi].candidates[ci].duration as f64));
        }
        terms
    };

    // Window constraints (Eq. 16): after sources, before uses.
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
        }
        for &usage in &g.deadline_refs() {
            let bounds: Vec<VarId> = match usage {
                pdw_contam::Source::Task(t) => match task_var.get(&t) {
                    Some(&v) => vec![v],
                    None => continue,
                },
                pdw_contam::Source::Op(o) => {
                    // The wash must end before the op's occupancy begins:
                    // before the op itself and before each of its deliveries.
                    let mut vs = vec![op_var[&o]];
                    for (id, task) in base.tasks() {
                        let feeds = match *task.kind() {
                            TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => {
                                op == o
                            }
                            TaskKind::Transport { to_op, .. } => to_op == o,
                            _ => false,
                        };
                        if feeds {
                            vs.push(task_var[&id]);
                        }
                    }
                    vs
                }
            };
            for v in bounds {
                // e_g <= s_use   =>   s_use - e_g >= 0
                let mut terms = vec![(v, 1.0)];
                for (tv, c) in wash_end_terms(gi) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, 0.0);
            }
        }
    }

    // Wash-vs-task and wash-vs-op conflicts (Eqs. 19): one order binary per
    // (group, node) pair that shares cells with any candidate; constraints
    // are relaxed by `1 - y_c` so only the chosen candidate binds.
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
                for (id, task) in base.tasks() {
                    let feeds = match *task.kind() {
                        TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => op == *o,
                        TaskKind::Transport { to_op, .. } => to_op == *o,
                        _ => false,
                    };
                    if feeds {
                        after_seeds.push(node_index[&Node::Task(id)]);
                    }
                }
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
            // Far-apart pairs keep their greedy order as a plain linear
            // constraint; only temporally close pairs get an order binary.
            // (A fixed order is a restriction, never an unsoundness.)
            const NEAR_S: Time = 30;
            let node_start = match node {
                Node::Op(o) => base.scheduled_op(*o).expect("scheduled").start,
                Node::Task(t) => base.task(*t).start(),
            };
            let node_end = node_start + dur_of(*node);
            if node_end + NEAR_S <= gstart {
                // Node well before the wash: keep node → wash.
                m.constraint(
                    [(wash_vars[gi].start, 1.0), (var_of(*node), -1.0)],
                    Relation::Ge,
                    dur_of(*node) as f64,
                );
                continue;
            }
            if gend + NEAR_S <= node_start {
                // Wash well before the node: keep wash → node (end expr).
                let mut terms = vec![(var_of(*node), 1.0)];
                for (tv, c) in wash_end_terms(gi) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, 0.0);
                continue;
            }
            let mv = *mu
                .entry((gi, *node))
                .or_insert_with(|| m.binary(&format!("mu_w{gi}_{node:?}"), 0.0));
            let nv = var_of(*node);
            let nd = dur_of(*node) as f64;
            for ci in conflicting {
                let yv = wash_vars[gi].y[ci];
                // μ = 0 binds: wash ends before the node starts:
                //   s_node - e_g ≥ -M·μ - M(1 - y_c)
                //   ⇔ s_node - e_g + M·μ - M·y_c ≥ -M
                let mut terms = vec![(nv, 1.0), (mv, big_m), (yv, -big_m)];
                for (tv, c) in wash_end_terms(gi) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, -big_m);
                // μ = 1 binds: wash starts after the node ends:
                //   s_g - s_node ≥ d - M(1-μ) - M(1 - y_c)
                //   ⇔ s_g - s_node - M·μ - M·y_c ≥ d - 2M
                m.constraint(
                    [
                        (wash_vars[gi].start, 1.0),
                        (nv, -1.0),
                        (mv, -big_m),
                        (yv, -big_m),
                    ],
                    Relation::Ge,
                    nd - 2.0 * big_m,
                );
            }
        }
    }

    // Wash-vs-wash conflicts (Eq. 20).
    let mut eta: HashMap<(usize, usize), VarId> = HashMap::new();
    for gi in 0..groups.len() {
        for gj in gi + 1..groups.len() {
            let pairs: Vec<(usize, usize)> = groups[gi]
                .candidates
                .iter()
                .enumerate()
                .flat_map(|(ci, a)| {
                    groups[gj]
                        .candidates
                        .iter()
                        .enumerate()
                        .filter(move |(_, b)| a.path.overlaps(&b.path))
                        .map(move |(cj, _)| (ci, cj))
                })
                .collect();
            if pairs.is_empty() {
                continue;
            }
            // Washes far apart in the greedy schedule keep their order as a
            // single linear constraint; only close pairs get a binary.
            const NEAR_S: Time = 30;
            let (ci_g, si) = greedy_wash[&gi];
            let (cj_g, sj) = greedy_wash[&gj];
            let ei = si + groups[gi].candidates[ci_g].duration;
            let ej = sj + groups[gj].candidates[cj_g].duration;
            if ei + NEAR_S <= sj {
                // gi well before gj: e_gi <= s_gj.
                let mut terms = vec![(wash_vars[gj].start, 1.0)];
                for (tv, c) in wash_end_terms(gi) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, 0.0);
                continue;
            }
            if ej + NEAR_S <= si {
                let mut terms = vec![(wash_vars[gi].start, 1.0)];
                for (tv, c) in wash_end_terms(gj) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, 0.0);
                continue;
            }
            let ev = m.binary(&format!("eta_{gi}_{gj}"), 0.0);
            eta.insert((gi, gj), ev);
            for (ci, cj) in pairs {
                let yi = wash_vars[gi].y[ci];
                let yj = wash_vars[gj].y[cj];
                // η = 1 binds: wash gi ends before gj starts:
                //   s_gj - e_gi ≥ -M(1-η) - M(1-y_i) - M(1-y_j)
                //   ⇔ s_gj - e_gi - M·η - M·y_i - M·y_j ≥ -3M
                let mut terms = vec![
                    (wash_vars[gj].start, 1.0),
                    (ev, -big_m),
                    (yi, -big_m),
                    (yj, -big_m),
                ];
                for (tv, c) in wash_end_terms(gi) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, -3.0 * big_m);
                // η = 0 binds: wash gj ends before gi starts:
                //   s_gi - e_gj ≥ -M·η - M(1-y_i) - M(1-y_j)
                //   ⇔ s_gi - e_gj + M·η - M·y_i - M·y_j ≥ -2M
                let mut terms = vec![
                    (wash_vars[gi].start, 1.0),
                    (ev, big_m),
                    (yi, -big_m),
                    (yj, -big_m),
                ];
                for (tv, c) in wash_end_terms(gj) {
                    terms.push((tv, -c));
                }
                m.constraint(terms, Relation::Ge, -2.0 * big_m);
            }
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
                }
            }
        }
    }

    // T_assay bounds every end (Eq. 22, extended to tasks and washes).
    for sop in base.ops() {
        m.constraint(
            [(t_assay, 1.0), (op_var[&sop.op], -1.0)],
            Relation::Ge,
            sop.duration as f64,
        );
    }
    for (id, task) in base.tasks() {
        m.constraint(
            [(t_assay, 1.0), (task_var[&id], -1.0)],
            Relation::Ge,
            task.duration() as f64,
        );
    }
    for gi in 0..groups.len() {
        let mut terms = vec![(t_assay, 1.0)];
        for (tv, c) in wash_end_terms(gi) {
            terms.push((tv, -c));
        }
        m.constraint(terms, Relation::Ge, 0.0);
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

    // A dense-tableau LP of r rows costs roughly r × (vars + r) doubles.
    // Refuse models whose relaxation would not even fit one solve into the
    // budget — the greedy schedule stands (best-effort semantics).
    let rows = m.num_constraints() as u64;
    let cols = m.num_vars() as u64 + 2 * rows; // slacks + worst-case artificials
    if std::env::var_os("PDW_MODEL_DEBUG").is_some() {
        eprintln!(
            "pdw ilp model: {} rows x {} vars (tableau ~{} MB)",
            rows,
            m.num_vars(),
            rows * cols * 8 / 1_000_000
        );
    }
    if rows * cols > 40_000_000 {
        return None;
    }

    let options = SolveOptions {
        time_limit: config.ilp_budget,
        warm_start: Some(warm),
        threads: config.threads,
        ..SolveOptions::default()
    };
    let sol = pdw_ilp::solve(&m, &options).ok()?;

    // ---- Extract: floor the starts (difference constraints with integer
    // offsets stay satisfied under uniform flooring). ----
    let start_of = |v: VarId| snap_start(sol.value(v));
    let mut schedule = base.clone();
    for op in schedule.ops_mut() {
        op.start = start_of(op_var[&op.op]);
    }
    let ids: Vec<TaskId> = schedule.tasks().map(|(id, _)| id).collect();
    for id in ids {
        let s = start_of(task_var[&id]);
        schedule.task_mut(id).set_start(s);
    }
    for (gi, g) in groups.iter().enumerate() {
        let ci = wash_vars[gi]
            .y
            .iter()
            .position(|&yv| sol.bool_value(yv))
            .expect("exactly one candidate is chosen");
        let cand = &g.candidates[ci];
        schedule.push_task(pdw_sched::Task::new(
            TaskKind::Wash {
                targets: g.targets(),
            },
            cand.path.clone(),
            start_of(wash_vars[gi].start),
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
    use crate::greedy::insert_washes;
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

        if let Some(refined) =
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
