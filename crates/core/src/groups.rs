//! Wash-target grouping, merging, and candidate-path enumeration.

use pdw_biochip::{CellSet, Chip, Coord, FlowPath, RouteScratch, ScratchPool};
use pdw_contam::{Source, WashRequirement};
use pdw_sched::{flow_duration, Schedule, TaskKind, Time};
use pdw_sim::DISSOLUTION_S;

use crate::config::CandidatePolicy;
use crate::par::par_map_ctx;
use crate::timeline::Timeline;

/// A candidate wash path for a group.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Candidate {
    /// The complete `[flow port → targets → waste port]` path.
    pub path: FlowPath,
    /// Required wash duration: flush time plus dissolution (Eq. 17).
    pub duration: Time,
}

impl Candidate {
    /// Builds a candidate from a complete wash path, deriving its required
    /// duration (flush + dissolution, Eq. 17).
    pub fn from_path(path: FlowPath) -> Self {
        let duration = flow_duration(path.len()) + DISSOLUTION_S;
        Self { path, duration }
    }
}

/// The targets contributed by one contaminating source: its dirty cells in
/// source-path order, with each cell's own reuse deadlines.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct WashPart {
    /// Dirty cells, ordered along the contaminating flow path.
    pub seq: Vec<Coord>,
    /// The residue's source: the wash may start only after it ends
    /// (`t_{j,e}`, Eq. 16).
    pub ready: Source,
    /// Per-cell reuse deadlines (`t_{j,s}`, Eq. 16), parallel to `seq`.
    pub cell_deadlines: Vec<Vec<Source>>,
}

impl WashPart {
    fn singleton(cell: Coord, ready: Source, deadlines: Vec<Source>) -> Self {
        Self {
            seq: vec![cell],
            ready,
            cell_deadlines: vec![deadlines],
        }
    }

    /// Splits this part into single-cell parts, each keeping only its own
    /// deadlines.
    pub fn split_cells(&self) -> Vec<WashPart> {
        self.seq
            .iter()
            .zip(&self.cell_deadlines)
            .map(|(&c, d)| WashPart::singleton(c, self.ready, d.clone()))
            .collect()
    }
}

/// A wash operation under construction: one or more parts plus candidate
/// paths covering all their cells.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct WashGroup {
    /// The contamination sources this wash serves.
    pub parts: Vec<WashPart>,
    /// Candidate wash paths, shortest first.
    pub candidates: Vec<Candidate>,
}

impl WashGroup {
    /// All target cells (flattened).
    pub fn targets(&self) -> Vec<Coord> {
        self.parts
            .iter()
            .flat_map(|p| p.seq.iter().copied())
            .collect()
    }

    /// All ready references (one per part).
    pub fn ready_refs(&self) -> Vec<Source> {
        self.parts.iter().map(|p| p.ready).collect()
    }

    /// All deadline references, deduplicated.
    pub fn deadline_refs(&self) -> Vec<Source> {
        let mut out: Vec<Source> = Vec::new();
        for p in &self.parts {
            for ds in &p.cell_deadlines {
                for &d in ds {
                    if !out.contains(&d) {
                        out.push(d);
                    }
                }
            }
        }
        out
    }

    /// The target sequences (one per part), for candidate enumeration.
    pub fn target_seqs(&self) -> Vec<Vec<Coord>> {
        self.parts.iter().map(|p| p.seq.clone()).collect()
    }
}

/// End time of a residue source in the current schedule. A source task that
/// was integrated away no longer deposits residue; it imposes no lower
/// bound.
pub(crate) fn source_end(schedule: &Schedule, s: Source) -> Time {
    match s {
        Source::Task(t) => schedule.get_task(t).map(|t| t.end()).unwrap_or(0),
        Source::Op(o) => schedule.scheduled_op(o).expect("op scheduled").end(),
    }
}

/// Start time of a future use in the current schedule. For an operation this
/// is the start of its device *occupancy* (its first delivery): a wash
/// covering device cells must finish before loading begins.
pub(crate) fn use_start(schedule: &Schedule, s: Source) -> Time {
    match s {
        Source::Task(t) => schedule.get_task(t).map(|t| t.start()).unwrap_or(Time::MAX),
        Source::Op(o) => {
            let mut start = schedule.scheduled_op(o).expect("op scheduled").start;
            for (_, task) in schedule.tasks() {
                let feeds = match *task.kind() {
                    TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => op == o,
                    TaskKind::Transport { to_op, .. } => to_op == o,
                    _ => false,
                };
                if feeds {
                    start = start.min(task.start());
                }
            }
            start
        }
    }
}

/// Current `[ready, deadline]` window of a group.
pub(crate) fn window(schedule: &Schedule, g: &WashGroup) -> (Time, Time) {
    let ready = g
        .parts
        .iter()
        .map(|p| source_end(schedule, p.ready))
        .max()
        .unwrap_or(0);
    let deadline = g
        .parts
        .iter()
        .flat_map(|p| p.cell_deadlines.iter().flatten())
        .map(|&s| use_start(schedule, s))
        .min()
        .unwrap_or(Time::MAX);
    (ready, deadline)
}

/// Cells blocked while routing a wash for `targets`: the footprints of every
/// device that contains none of the targets. A wash may thread through a
/// device only to wash it — an apparently idle device may hold a resident
/// plug exactly inside the wash's only feasible window.
fn wash_blocked(chip: &Chip, targets: &CellSet) -> Vec<Coord> {
    chip.devices()
        .iter()
        .filter(|d| !d.footprint().iter().any(|c| targets.contains(*c)))
        .flat_map(|d| d.footprint().iter().copied())
        .collect()
}

/// Enumerates candidate wash paths for the target sequences, shortest first.
///
/// Every flow/waste port pair is tried; target sequences are visited as
/// blocks (each forward or reversed, blocks ordered by distance from the
/// entry port) so the router follows the contamination trails.
pub fn enumerate_candidates(chip: &Chip, target_seqs: &[Vec<Coord>], k: usize) -> Vec<Candidate> {
    let mut scratch = RouteScratch::for_chip(chip);
    enumerate_with(chip, &mut scratch, target_seqs, k)
}

/// [`enumerate_candidates`] against a caller-held scratch (allocation-free
/// after warm-up).
fn enumerate_with(
    chip: &Chip,
    scratch: &mut RouteScratch,
    target_seqs: &[Vec<Coord>],
    k: usize,
) -> Vec<Candidate> {
    let mut found: Vec<FlowPath> = Vec::new();
    route_washes(
        chip,
        scratch,
        target_seqs,
        |_, _| false,
        |path| {
            if !found.contains(&path) {
                found.push(path);
            }
            false
        },
    );
    found.sort_by_key(|p| p.len());
    found.truncate(k.max(1));
    found.into_iter().map(Candidate::from_path).collect()
}

/// Whether any wash path covers `seq` — [`enumerate_with`] is nonempty —
/// stopping at the first path found.
fn coverable(chip: &Chip, scratch: &mut RouteScratch, seq: &[Coord]) -> bool {
    let mut any = false;
    route_washes(
        chip,
        scratch,
        &[seq.to_vec()],
        |_, _| false,
        |_| {
            any = true;
            true
        },
    );
    any
}

/// Routes a wash through the target sequences for every flow/waste port
/// pair in turn but those `skip` names, handing each path found to `stop`
/// until it returns `true`. Each flow port's legs through the targets are
/// routed once and fanned out to its waste ports.
fn route_washes(
    chip: &Chip,
    scratch: &mut RouteScratch,
    target_seqs: &[Vec<Coord>],
    skip: impl Fn(Coord, Coord) -> bool,
    mut stop: impl FnMut(FlowPath) -> bool,
) {
    let targets: CellSet = target_seqs.iter().flatten().copied().collect();
    // Hopeless-query pruning: `route_via` greedily routes port-free legs, so
    // a target cell unreachable from a port with *no* blocking can never lie
    // on a wash path from that port — skipping those pairs cannot change the
    // output. Reachability of every target is equivalent to reachability of
    // any one (the via legs chain them into one port-free component).
    let reach = chip.port_reach();
    if targets.iter().any(|c| !reach.washable(c)) {
        return;
    }
    let blocked = wash_blocked(chip, &targets);
    scratch.load_blocked(blocked);

    for (pi, fp) in chip.flow_ports().enumerate() {
        if targets.iter().any(|c| !reach.flow_reaches(pi, c)) {
            continue;
        }
        // Order the blocks near-to-far from the entry port; orient each
        // block to enter at its end nearest the previous position.
        let mut seqs: Vec<Vec<Coord>> = target_seqs.to_vec();
        seqs.sort_by_key(|s| s.iter().map(|c| c.manhattan(fp)).min().unwrap_or(u32::MAX));
        let mut via: Vec<Coord> = Vec::new();
        let mut pos = fp;
        for mut seq in seqs {
            let d_front = seq.first().map(|c| c.manhattan(pos)).unwrap_or(0);
            let d_back = seq.last().map(|c| c.manhattan(pos)).unwrap_or(0);
            if d_back < d_front {
                seq.reverse();
            }
            pos = *seq.last().expect("sequences are nonempty");
            via.extend(seq);
        }
        let wps: Vec<Coord> = chip
            .waste_ports()
            .enumerate()
            .filter(|&(wi, wp)| !skip(fp, wp) && targets.iter().all(|c| reach.waste_reaches(wi, c)))
            .map(|(_, wp)| wp)
            .collect();
        let mut stopped = false;
        chip.route_via_fan_with(scratch, fp, &via, &wps, |_, cells| {
            stopped = stop(FlowPath::new(cells).expect("route_via returns a simple path"));
            stopped
        });
        if stopped {
            return;
        }
    }
}

/// Builds the initial wash groups from the requirements: one group per
/// contaminating source, targets in source-path order, per-cell deadlines.
/// Groups no single device-avoiding path covers are split into runs along
/// the contamination trail (and cells, if needed).
///
/// Candidate enumeration fans out over `threads` workers (0 = all cores),
/// one routing scratch per worker; per-source work is independent and
/// results merge in input order, so the output is identical at any thread
/// count.
pub fn build_groups(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    let parts = source_parts(schedule, requirements);
    let nested = par_map_ctx(
        &parts,
        threads,
        || pool.checkout(chip),
        |scratch, _, part| {
            let scratch: &mut RouteScratch = scratch;
            let k = build_k(policy, k);
            let cands = enumerate_with(chip, scratch, std::slice::from_ref(&part.seq), k);
            let pieces = if cands.is_empty() {
                uncoverable_pieces(chip, scratch, schedule, part, k)
            } else {
                vec![(part.clone(), cands)]
            };
            pieces
                .into_iter()
                .map(|(piece, cands)| piece_group(chip, scratch, piece, cands, policy))
                .collect::<Vec<_>>()
        },
    );
    nested.into_iter().flatten().collect()
}

/// Candidates the build stage keeps per piece: `k`, or one for
/// [`CandidatePolicy::Nearest`], which replaces them with its own path.
fn build_k(policy: CandidatePolicy, k: usize) -> usize {
    match policy {
        CandidatePolicy::Shortest => k,
        CandidatePolicy::Nearest => 1,
    }
}

/// Gap, in source-path steps, below which dirty cells share a spot cluster.
const SPOT_CLUSTER_GAP: usize = 4;

/// The planners' grouping stage: [`build_groups`], then one group per
/// contaminated *spot cluster* of every piece (the DAWO baseline's
/// behaviour: wash operations are introduced per contaminated spot region
/// and their paths constructed independently — no resource sharing). Dirty
/// cells closer than four steps along the source path fall into the same
/// cluster; the clean cells bridging them are flushed along (wastefully,
/// but that is the baseline). PDW then lets merging coarsen the clusters
/// only where it pays off.
///
/// Both steps run under one policy and one `k`, so a piece the cluster
/// split returns unchanged keeps the candidates the build step routed for
/// it instead of routing the same sequence again. Fan-out and output order
/// are as in [`build_groups`].
pub fn spot_cluster_groups(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    spot_cluster_groups_pooled(chip, schedule, requirements, policy, k, threads, &pool)
}

/// [`spot_cluster_groups`] drawing worker scratches from a caller-held pool,
/// so a context-carrying caller reuses warm buffers across calls (and
/// across instances). Output is identical to [`spot_cluster_groups`].
pub(crate) fn spot_cluster_groups_pooled(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    policy: CandidatePolicy,
    k: usize,
    threads: usize,
    pool: &ScratchPool,
) -> Vec<WashGroup> {
    let parts = source_parts(schedule, requirements);
    let nested = par_map_ctx(
        &parts,
        threads,
        || pool.checkout(chip),
        |scratch, _, part| {
            let scratch: &mut RouteScratch = scratch;
            let mut out: Vec<WashGroup> = Vec::new();
            let clusters = split_runs_gapped(schedule, part, SPOT_CLUSTER_GAP);
            if clusters.len() == 1 && clusters[0] == *part {
                // One cluster: the build step's candidates are its own.
                let seq = std::slice::from_ref(&part.seq);
                let cands = enumerate_with(chip, scratch, seq, build_k(policy, k));
                if !cands.is_empty() {
                    return vec![piece_group(chip, scratch, part.clone(), cands, policy)];
                }
            } else if coverable(chip, scratch, &part.seq) {
                // The whole part is the one piece, and its clusters are
                // known already: only its coverage needs routing.
                spot_cluster_runs(chip, scratch, clusters, policy, k, &mut out);
                return out;
            }
            // No single path covers the part: split it as `build_groups`
            // does, then cluster each piece, reusing what the split routed.
            let pieces = uncoverable_pieces(chip, scratch, schedule, part, build_k(policy, k));
            for (piece, cands) in pieces {
                let runs = split_runs_gapped(schedule, &piece, SPOT_CLUSTER_GAP);
                if runs.len() == 1 && runs[0] == piece {
                    out.push(piece_group(chip, scratch, piece, cands, policy));
                } else {
                    spot_cluster_runs(chip, scratch, runs, policy, k, &mut out);
                }
            }
            out
        },
    );
    nested.into_iter().flatten().collect()
}

/// One part per contaminating source, each part's cells ordered along its
/// source path.
fn source_parts(schedule: &Schedule, requirements: &[WashRequirement]) -> Vec<WashPart> {
    let mut parts: Vec<WashPart> = Vec::new();
    for r in requirements {
        if let Some(p) = parts.iter_mut().find(|p| p.ready == r.source) {
            if let Some(i) = p.seq.iter().position(|&c| c == r.cell) {
                if !p.cell_deadlines[i].contains(&r.next_use) {
                    p.cell_deadlines[i].push(r.next_use);
                }
            } else {
                p.seq.push(r.cell);
                p.cell_deadlines.push(vec![r.next_use]);
            }
        } else {
            parts.push(WashPart::singleton(r.cell, r.source, vec![r.next_use]));
        }
    }

    // Order each part's cells along its source path.
    for p in &mut parts {
        let mut order: Vec<usize> = (0..p.seq.len()).collect();
        match p.ready {
            Source::Task(t) => {
                let path = schedule.task(t).path();
                order.sort_by_key(|&i| {
                    path.cells()
                        .iter()
                        .position(|c| *c == p.seq[i])
                        .unwrap_or(usize::MAX)
                });
            }
            Source::Op(_) => order.sort_by_key(|&i| p.seq[i]),
        }
        p.seq = order.iter().map(|&i| p.seq[i]).collect();
        p.cell_deadlines = order.iter().map(|&i| p.cell_deadlines[i].clone()).collect();
    }
    parts
}

/// The group for one piece, from the candidates routed for it.
fn piece_group(
    chip: &Chip,
    scratch: &mut RouteScratch,
    piece: WashPart,
    candidates: Vec<Candidate>,
    policy: CandidatePolicy,
) -> WashGroup {
    assert!(
        !candidates.is_empty(),
        "no wash path reaches {:?}; chip layout is broken",
        piece.seq
    );
    let mut g = WashGroup {
        parts: vec![piece],
        candidates,
    };
    if policy == CandidatePolicy::Nearest {
        nearest_candidate(chip, scratch, &mut g);
    }
    g
}

/// Splits a part no single device-avoiding path covers into pieces that one
/// path can cover: its maximal source-path runs, else their cells. Each
/// piece comes with its enumerated candidates.
fn uncoverable_pieces(
    chip: &Chip,
    scratch: &mut RouteScratch,
    schedule: &Schedule,
    part: &WashPart,
    k: usize,
) -> Vec<(WashPart, Vec<Candidate>)> {
    let mut out = Vec::new();
    for run in split_runs(schedule, part) {
        let cands = enumerate_with(chip, scratch, std::slice::from_ref(&run.seq), k);
        if cands.is_empty() {
            for cell in run.split_cells() {
                let cands = enumerate_with(chip, scratch, std::slice::from_ref(&cell.seq), k);
                out.push((cell, cands));
            }
        } else {
            out.push((run, cands));
        }
    }
    out
}

/// Splits a part into maximal runs of cells that are consecutive on the
/// contaminating source's flow path (singletons when the source is an
/// operation).
fn split_runs(schedule: &Schedule, part: &WashPart) -> Vec<WashPart> {
    split_runs_gapped(schedule, part, 1)
}

/// Like [`split_runs`], but cells up to `gap` positions apart on the source
/// path stay in one run, with the bridging (clean) cells included in the
/// wash targets.
fn split_runs_gapped(schedule: &Schedule, part: &WashPart, gap: usize) -> Vec<WashPart> {
    let Source::Task(t) = part.ready else {
        // Operation residue covers its device footprint: contiguous cells
        // form one spot cluster.
        let mut runs: Vec<WashPart> = Vec::new();
        for (i, &c) in part.seq.iter().enumerate() {
            let deadlines = part.cell_deadlines[i].clone();
            match runs.last_mut() {
                Some(run) if run.seq.iter().any(|&p| p.is_adjacent(c)) => {
                    run.seq.push(c);
                    run.cell_deadlines.push(deadlines);
                }
                _ => runs.push(WashPart::singleton(c, part.ready, deadlines)),
            }
        }
        return runs;
    };
    let path = schedule.task(t).path();
    let pos = |c: &Coord| {
        path.cells()
            .iter()
            .position(|p| p == c)
            .unwrap_or(usize::MAX)
    };
    let mut runs: Vec<WashPart> = Vec::new();
    for (i, &c) in part.seq.iter().enumerate() {
        let deadlines = part.cell_deadlines[i].clone();
        let p = pos(&c);
        match runs.last_mut() {
            Some(run) if p.saturating_sub(pos(run.seq.last().expect("nonempty"))) <= gap => {
                // Bridge across exempt cells on the source path.
                let last = pos(run.seq.last().expect("nonempty"));
                for bridge in last + 1..p {
                    run.seq.push(path.cells()[bridge]);
                    run.cell_deadlines.push(Vec::new());
                }
                run.seq.push(c);
                run.cell_deadlines.push(deadlines);
            }
            _ => runs.push(WashPart::singleton(c, part.ready, deadlines)),
        }
    }
    runs
}

/// Replaces a group's candidates with the DAWO-style single path: BFS from
/// the flow port nearest the targets, to the first waste port that works.
fn nearest_candidate(chip: &Chip, scratch: &mut RouteScratch, g: &mut WashGroup) {
    let targets = g.targets();
    let target_set: CellSet = targets.iter().copied().collect();
    let blocked = wash_blocked(chip, &target_set);
    scratch.load_blocked(blocked);
    let mut fps: Vec<Coord> = chip.flow_ports().collect();
    fps.sort_by_key(|fp| {
        targets
            .iter()
            .map(|c| c.manhattan(*fp))
            .min()
            .unwrap_or(u32::MAX)
    });
    for fp in fps {
        let mut via: Vec<Coord> = Vec::new();
        let mut pos = fp;
        for p in &g.parts {
            let mut seq = p.seq.clone();
            let d_front = seq.first().map(|c| c.manhattan(pos)).unwrap_or(0);
            let d_back = seq.last().map(|c| c.manhattan(pos)).unwrap_or(0);
            if d_back < d_front {
                seq.reverse();
            }
            pos = *seq.last().expect("nonempty");
            via.extend(seq);
        }
        let mut wps: Vec<Coord> = chip.waste_ports().collect();
        wps.sort_by_key(|wp| pos.manhattan(*wp));
        let mut found = None;
        chip.route_via_fan_with(scratch, fp, &via, &wps, |_, cells| {
            found = Some(cells);
            true
        });
        if let Some(cells) = found {
            let path = FlowPath::new(cells).expect("simple path");
            g.candidates = vec![Candidate::from_path(path)];
            return;
        }
    }
    g.candidates.truncate(1);
}

/// Appends one group per run to `out`, routed independently; a run no
/// single path covers is washed cell by cell.
fn spot_cluster_runs(
    chip: &Chip,
    scratch: &mut RouteScratch,
    runs: Vec<WashPart>,
    policy: CandidatePolicy,
    k: usize,
    out: &mut Vec<WashGroup>,
) {
    for run in runs {
        let cands = enumerate_with(chip, scratch, std::slice::from_ref(&run.seq), k);
        if !cands.is_empty() {
            out.push(piece_group(chip, scratch, run, cands, policy));
            continue;
        }
        // Unreachable as one flush: wash cell by cell.
        for cell in run.split_cells() {
            let cands = enumerate_with(chip, scratch, std::slice::from_ref(&cell.seq), k);
            assert!(!cands.is_empty(), "unreachable channel cell");
            out.push(piece_group(chip, scratch, cell, cands, policy));
        }
    }
}

/// Greedily merges compatible groups: overlapping time windows, a routable
/// combined path no longer than the separate ones, and — crucially — a
/// conflict-free slot for the combined wash inside the combined window of
/// the *current* schedule. (Without the fit check a merge can become a delay
/// trap: e.g. a device wash pinned under another member's earlier deadline
/// while the device still holds a resident plug.)
pub fn merge_groups(
    chip: &Chip,
    schedule: &Schedule,
    groups: Vec<WashGroup>,
    k: usize,
) -> Vec<WashGroup> {
    let pool = ScratchPool::new();
    merge_groups_pooled(chip, schedule, groups, k, false, &pool)
}

/// [`merge_groups`] drawing its scratch from a caller-held pool. Output is
/// identical to [`merge_groups`] when `overlapping_only` is off.
///
/// With `overlapping_only`, only pairs whose current best candidate paths
/// share at least one cell are tried. That is the partitioned pipeline's
/// cross-bucket cleanup pass: in-bucket merging already consolidated
/// whatever shares a span view, and across buckets a profitable merge all
/// but requires the two washes to traverse common channels — disjoint best
/// paths would make the combined path longer than the separate ones.
///
/// Each scan merges the lexicographically first acceptable pair and starts
/// over. A pair's verdict depends only on its two groups (the schedule, the
/// timeline and `k` are fixed for the call), so a rejected pair is recorded
/// under the groups' ids and never routed again; a merged group takes a
/// fresh id, which makes every verdict involving it new.
pub(crate) fn merge_groups_pooled(
    chip: &Chip,
    schedule: &Schedule,
    mut groups: Vec<WashGroup>,
    k: usize,
    overlapping_only: bool,
    pool: &ScratchPool,
) -> Vec<WashGroup> {
    let timeline = Timeline::new(chip, schedule);
    let mut scratch = pool.checkout(chip);
    let scratch: &mut RouteScratch = &mut scratch;
    let mut ids: Vec<usize> = (0..groups.len()).collect();
    let mut windows: Vec<(Time, Time)> = groups.iter().map(|g| window(schedule, g)).collect();
    let mut rejected = PairSet::new(2 * groups.len());
    let mut next_id = groups.len();
    'scan: loop {
        for i in 0..groups.len() {
            let (ri, di) = windows[i];
            for j in i + 1..groups.len() {
                if rejected.contains(ids[i], ids[j]) {
                    continue;
                }
                let (rj, dj) = windows[j];
                let (gi, gj) = (&groups[i], &groups[j]);
                let ready = ri.max(rj);
                let deadline = di.min(dj);
                let Some(cands) = merged_candidates(
                    chip,
                    scratch,
                    &timeline,
                    (gi, gj),
                    (ready, deadline),
                    k,
                    overlapping_only,
                ) else {
                    rejected.insert(ids[i], ids[j]);
                    continue;
                };
                let gj = groups.remove(j);
                ids.remove(j);
                windows.remove(j);
                groups[i].parts.extend(gj.parts);
                groups[i].candidates = cands;
                ids[i] = next_id;
                next_id += 1;
                windows[i] = (ready, deadline);
                continue 'scan;
            }
        }
        return groups;
    }
}

/// The candidates of the merged group `a ∪ b` if the merge is acceptable,
/// the combined window being `[ready, deadline]`.
fn merged_candidates(
    chip: &Chip,
    scratch: &mut RouteScratch,
    timeline: &Timeline,
    (a, b): (&WashGroup, &WashGroup),
    (ready, deadline): (Time, Time),
    k: usize,
    overlapping_only: bool,
) -> Option<Vec<Candidate>> {
    if a.parts.len() + b.parts.len() > 6 {
        return None; // keep waypoint ordering tractable
    }
    let (pa, pb) = (&a.candidates[0].path, &b.candidates[0].path);
    if overlapping_only && !pa.mask().intersects(pb.mask()) {
        return None; // disjoint paths: a merge cannot shorten L_wash
    }
    if ready >= deadline {
        return None;
    }
    // The verdict turns on the shortest candidate alone, and no candidate
    // is shorter than the bound of its port pair (see `wash_len_bound`). A
    // pair whose bound already fails the length or duration check cannot
    // yield a passing shortest path, so only the other pairs are routed;
    // none left, or the targets alone finding no slot for the shortest
    // flush, rejects outright.
    let mut seqs = a.target_seqs();
    seqs.extend(b.target_seqs());
    let targets: CellSet = seqs.iter().flatten().copied().collect();
    let (walk, between) = wash_len_bound(&targets);
    let passes = |len: usize| {
        // Merging must not lengthen L_wash more than α saves.
        len <= pa.len() + pb.len() && ready + flow_duration(len) + DISSOLUTION_S <= deadline
    };
    let entry = chip.flow_ports().map(&walk).min().unwrap_or(0);
    let exit = chip.waste_ports().map(&walk).min().unwrap_or(0);
    if !passes(entry + between + exit) {
        return None;
    }
    let least = flow_duration(entry + between + exit) + DISSOLUTION_S;
    timeline.earliest_fit(&targets, ready, least, Some(deadline))?;
    let mut best: Option<FlowPath> = None;
    let skip = |fp, wp| !passes(walk(fp) + between + walk(wp));
    route_washes(chip, scratch, &seqs, skip, |path| {
        if best.as_ref().is_none_or(|b| path.len() < b.len()) {
            best = Some(path);
        }
        false
    });
    let best = Candidate::from_path(best?);
    if !passes(best.path.len()) {
        return None;
    }
    // The combined wash must actually fit in the window now.
    timeline.earliest_fit(best.path.mask(), ready, best.duration, Some(deadline))?;
    Some(enumerate_with(chip, scratch, &seqs, k))
}

/// Lower bounds on the cells of a wash path covering `targets` from flow
/// port `f` to waste port `w`: `walk(f) + between + walk(w)`. The cells
/// before the path's first target walk there from `f`, the cells after its
/// last walk on to `w`, and the cells in between hold every target and span
/// the targets' Manhattan diameter.
fn wash_len_bound(targets: &CellSet) -> (impl Fn(Coord) -> usize + '_, usize) {
    let walk = |port: Coord| {
        let d = targets.iter().map(|c| c.manhattan(port)).min();
        d.unwrap_or(0) as usize
    };
    // The Manhattan diameter is the wider spread of x + y and of x − y.
    let spread = |f: fn(Coord) -> i32| {
        let (lo, hi) = targets
            .iter()
            .map(f)
            .fold((i32::MAX, i32::MIN), |(lo, hi), v| (lo.min(v), hi.max(v)));
        (hi - lo).max(0) as usize
    };
    let diameter = spread(|c| c.x as i32 + c.y as i32).max(spread(|c| c.x as i32 - c.y as i32));
    (walk, targets.len().max(diameter + 1))
}

/// A set of unordered pairs of distinct ids below a fixed bound, as a flat
/// triangular bit matrix.
struct PairSet(Vec<u64>);

impl PairSet {
    fn new(ids: usize) -> Self {
        Self(vec![0; (ids * ids / 2).div_ceil(64)])
    }

    /// The word and mask of the pair's bit.
    fn bit(a: usize, b: usize) -> (usize, u64) {
        let (lo, hi) = (a.min(b), a.max(b));
        let i = hi * (hi - 1) / 2 + lo;
        (i / 64, 1 << (i % 64))
    }

    fn contains(&self, a: usize, b: usize) -> bool {
        let (word, mask) = Self::bit(a, b);
        self.0[word] & mask != 0
    }

    fn insert(&mut self, a: usize, b: usize) {
        let (word, mask) = Self::bit(a, b);
        self.0[word] |= mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_contam::{analyze, NecessityOptions};
    use pdw_synth::synthesize;

    fn demo_groups(policy: CandidatePolicy) -> (pdw_synth::Synthesis, Vec<WashGroup>) {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let g = build_groups(&s.chip, &s.schedule, &a.requirements, policy, 3, 0);
        (s, g)
    }

    #[test]
    fn every_group_covers_its_targets() {
        let (_, groups) = demo_groups(CandidatePolicy::Shortest);
        assert!(!groups.is_empty());
        for g in &groups {
            assert!(!g.candidates.is_empty());
            for cand in &g.candidates {
                for cell in g.targets() {
                    assert!(cand.path.contains(cell), "candidate misses target {cell}");
                }
            }
        }
    }

    #[test]
    fn groups_cover_every_requirement_cell() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let a = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let groups = build_groups(
            &s.chip,
            &s.schedule,
            &a.requirements,
            CandidatePolicy::Shortest,
            3,
            0,
        );
        for r in &a.requirements {
            assert!(
                groups.iter().any(|g| g
                    .parts
                    .iter()
                    .any(|p| p.ready == r.source && p.seq.contains(&r.cell))),
                "requirement {:?} not covered by any group",
                r
            );
        }
    }

    #[test]
    fn candidates_are_sorted_shortest_first() {
        let (_, groups) = demo_groups(CandidatePolicy::Shortest);
        for g in &groups {
            assert!(g
                .candidates
                .windows(2)
                .all(|w| w[0].path.len() <= w[1].path.len()));
        }
    }

    #[test]
    fn merging_never_increases_group_count() {
        let (s, groups) = demo_groups(CandidatePolicy::Shortest);
        let before = groups.len();
        let merged = merge_groups(&s.chip, &s.schedule, groups, 3);
        assert!(merged.len() <= before);
        for g in &merged {
            assert!(!g.candidates.is_empty());
        }
    }

    #[test]
    fn nearest_policy_yields_single_candidates() {
        let (_, groups) = demo_groups(CandidatePolicy::Nearest);
        for g in &groups {
            assert_eq!(g.candidates.len(), 1);
        }
    }

    #[test]
    fn group_windows_are_ordered() {
        // Ready may equal the deadline (back-to-back tasks leave no slack;
        // the schedulers then shift the schedule), but never exceed it.
        let (s, groups) = demo_groups(CandidatePolicy::Shortest);
        for g in &groups {
            let (ready, deadline) = window(&s.schedule, g);
            assert!(ready <= deadline, "window [{ready}, {deadline}] inverted");
        }
    }
}
