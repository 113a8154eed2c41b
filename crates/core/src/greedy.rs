//! Greedy (sweep-line) wash insertion.
//!
//! Washes are placed one by one, earliest deadline first, into the first
//! conflict-free slot of their time window; when no slot exists the schedule
//! is right-shifted from the deadline onward. This is both the DAWO
//! baseline's scheduling strategy and the warm start handed to the
//! PathDriver-Wash ILP.

use std::collections::HashSet;

use pdw_assay::FluidType;
use pdw_biochip::{CellSet, Chip, Coord};
use pdw_sched::{Schedule, Task, TaskId, TaskKind, Time};

use crate::groups::{window, WashGroup};
use crate::timeline::{shift_from, Timeline};

/// Where a group's wash ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the group (into [`GreedyOutcome::groups`]).
    pub group: usize,
    /// Index of the chosen candidate path.
    pub candidate: usize,
    /// The wash task inserted into the schedule.
    pub task: TaskId,
}

/// Result of greedy insertion.
#[derive(Debug, Clone)]
pub struct GreedyOutcome {
    /// The schedule with washes inserted (and integrated removals deleted).
    pub schedule: Schedule,
    /// The effective wash groups. Input groups whose wash could not be
    /// scheduled as one flush (a device residency pinned under a merged
    /// member's earlier deadline) are split, so this list may be longer
    /// than the input.
    pub groups: Vec<WashGroup>,
    /// One placement per effective group.
    pub placements: Vec<Placement>,
    /// Excess removals that were integrated into washes and deleted
    /// (id plus the removed task itself, for downstream bookkeeping).
    pub integrated: Vec<(TaskId, Task)>,
}

/// First task after `from` (exclusive of `except`) that shares a cell with
/// `cells`; returns its start time.
fn next_use_of_cells(
    schedule: &Schedule,
    cells: &CellSet,
    from: Time,
    except: TaskId,
) -> Option<Time> {
    schedule
        .tasks()
        .filter(|(id, t)| *id != except && !t.kind().is_wash() && t.start() >= from)
        .filter(|(_, t)| t.path().mask().intersects(cells))
        .map(|(_, t)| t.start())
        .min()
}

/// The cells an excess-removal task exists to flush: the cells of its path
/// adjacent to its operation's device (where the excess fluid is cached).
pub(crate) fn excess_targets(
    chip: &Chip,
    schedule: &Schedule,
    op: pdw_assay::OpId,
    r: &Task,
) -> Vec<Coord> {
    let Some(sop) = schedule.scheduled_op(op) else {
        return r.path().cells().to_vec();
    };
    let foot = chip.device(sop.device).footprint();
    r.path()
        .iter()
        .copied()
        .filter(|c| foot.iter().any(|f| f.is_adjacent(*c)))
        .collect()
}

/// Latest delivery of `op` ending at or before `by`; the excess a removal
/// flushes appears when its delivery ends.
fn delivery_end_for(schedule: &Schedule, op: pdw_assay::OpId, by: Time) -> Time {
    schedule
        .tasks()
        .filter(|(_, t)| match *t.kind() {
            TaskKind::Injection { op: o, .. } => o == op,
            TaskKind::Transport { to_op, .. } => to_op == op,
            _ => false,
        })
        .map(|(_, t)| t.end())
        .filter(|&e| e <= by)
        .max()
        .unwrap_or(0)
}

/// Inserts a wash for every group into (a clone of) `base`.
///
/// Groups are processed earliest-deadline-first (recomputed after every
/// insertion, since insertions may shift the schedule). With `integration`
/// enabled, an excess-removal task whose cached excess cells the chosen
/// wash path covers (within its window) is deleted — the wash does its job
/// (ψ = 1 in Eq. 21). **Prefer [`insert_washes_protected`] when enabling
/// integration**: deleting a removal that witnesses a Type-2/3 exemption
/// can re-expose residue; [`pdw_contam::Analysis::deletable`] identifies
/// the removals that are safe to delete.
///
/// # Panics
///
/// Panics if a single-cell wash cannot be scheduled at all, which would mean
/// the chip layout cannot reach one of its own channels.
pub fn insert_washes(
    chip: &Chip,
    base: &Schedule,
    groups: &[WashGroup],
    integration: bool,
) -> GreedyOutcome {
    insert_washes_protected(chip, base, groups, integration, &HashSet::new())
}

/// Like [`insert_washes`], but never integrates (deletes) a removal in
/// `protected` — the set of tasks witnessing a Type-2/3 wash exemption,
/// whose disappearance would re-expose residue.
pub fn insert_washes_protected(
    chip: &Chip,
    base: &Schedule,
    groups: &[WashGroup],
    integration: bool,
    protected: &HashSet<TaskId>,
) -> GreedyOutcome {
    let mut schedule = base.clone();
    let mut groups: Vec<WashGroup> = groups.to_vec();
    let mut placements: Vec<Placement> = Vec::new();
    let mut integrated: Vec<(TaskId, Task)> = Vec::new();
    let mut remaining: Vec<usize> = (0..groups.len()).collect();
    // The occupancy index and each group's window persist across
    // placements until a shift or an integrated removal changes them:
    // pushing a wash moves no residency and no window (windows read only
    // operations and non-wash tasks, and task ids are never reused).
    let mut timeline: Option<Timeline> = None;
    let mut windows: Vec<Option<(Time, Time)>> = vec![None; groups.len()];

    while !remaining.is_empty() {
        // Earliest current deadline first (sweep line).
        for &gi in &remaining {
            if windows[gi].is_none() {
                windows[gi] = Some(window(&schedule, &groups[gi]));
            }
        }
        remaining.sort_by_key(|&gi| windows[gi].expect("window just filled").1);
        let gi = remaining.remove(0);
        let (ready, deadline) = windows[gi].expect("window just filled");

        let tl = timeline.get_or_insert_with(|| Timeline::new(chip, &schedule));
        // Try candidates shortest-first inside the window.
        let mut choice: Option<(usize, Time, Time)> = None; // (ci, t, delay)
        for (ci, cand) in groups[gi].candidates.iter().enumerate() {
            if deadline.checked_sub(cand.duration).is_none() {
                continue;
            }
            if let Some(t) = tl.earliest_fit(cand.path.mask(), ready, cand.duration, Some(deadline))
            {
                choice = Some((ci, t, 0));
                break;
            }
        }
        // No slot inside the window: find, per candidate, the earliest slot
        // that survives a right-shift from the deadline (device residencies
        // straddling the deadline stretch instead of moving — such slots
        // are rejected). Pick the candidate needing the smallest delay.
        if choice.is_none() {
            for (ci, cand) in groups[gi].candidates.iter().enumerate() {
                if let Some(t) =
                    tl.earliest_fit_shifted(cand.path.mask(), ready, cand.duration, deadline)
                {
                    let delay = (t + cand.duration).saturating_sub(deadline);
                    if choice.is_none_or(|(_, _, d)| delay < d) {
                        choice = Some((ci, t, delay));
                    }
                }
            }
        }
        // Still nothing: every candidate is pinned under a stretching
        // residency. Split the group (merged members get their own windows;
        // multi-cell parts fall back to per-cell washes) and retry.
        let Some((ci, start, delay)) = choice else {
            let g = groups[gi].clone();
            let pieces: Vec<WashGroup> = if g.parts.len() > 1 {
                g.parts
                    .iter()
                    .map(|p| WashGroup {
                        candidates: crate::groups::enumerate_candidates(
                            chip,
                            std::slice::from_ref(&p.seq),
                            groups[gi].candidates.len().max(1),
                        ),
                        parts: vec![p.clone()],
                    })
                    .collect()
            } else {
                g.parts[0]
                    .split_cells()
                    .into_iter()
                    .map(|p| WashGroup {
                        candidates: crate::groups::enumerate_candidates(
                            chip,
                            std::slice::from_ref(&p.seq),
                            3,
                        ),
                        parts: vec![p],
                    })
                    .collect()
            };
            assert!(
                pieces.iter().all(|p| !p.candidates.is_empty()),
                "wash group cannot be split into schedulable pieces"
            );
            assert!(
                g.parts.len() > 1 || g.parts[0].seq.len() > 1,
                "single-cell wash for {:?} cannot be scheduled; chip layout is broken",
                g.targets()
            );
            let mut pieces = pieces.into_iter();
            groups[gi] = pieces.next().expect("split produces at least one piece");
            windows[gi] = None;
            remaining.push(gi);
            for piece in pieces {
                remaining.push(groups.len());
                groups.push(piece);
                windows.push(None);
            }
            continue;
        };
        if delay > 0 {
            shift_from(&mut schedule, deadline, delay);
        }

        let cand = groups[gi].candidates[ci].clone();
        // Integration: delete excess removals the wash subsumes (ψ = 1).
        // An integrated removal never runs, so it never deposits residue:
        // pending wash groups sourced by it are pruned afterwards — the
        // paper's technique 2 cascades into technique 1.
        let mut newly_integrated: Vec<TaskId> = Vec::new();
        if integration {
            let removals: Vec<(TaskId, pdw_assay::OpId)> = schedule
                .tasks()
                .filter_map(|(id, t)| match *t.kind() {
                    TaskKind::ExcessRemoval { op } => Some((id, op)),
                    _ => None,
                })
                .collect();
            for (rid, rop) in removals {
                if protected.contains(&rid) {
                    continue;
                }
                let r = schedule.task(rid).clone();
                // The wash subsumes the removal when it covers the cached
                // excess cells — a complete port-to-port flush then carries
                // the excess to a waste port exactly as the removal would.
                let excess = excess_targets(chip, &schedule, rop, &r);
                if excess.is_empty() || !excess.iter().all(|c| cand.path.contains(*c)) {
                    continue;
                }
                let appears = delivery_end_for(&schedule, rop, r.start());
                if start < appears {
                    continue;
                }
                let e_cells: CellSet = excess.into_iter().collect();
                let next_use =
                    next_use_of_cells(&schedule, &e_cells, r.start(), rid).unwrap_or(Time::MAX);
                if start + cand.duration > next_use {
                    continue;
                }
                let removed = schedule.remove_task(rid);
                integrated.push((rid, removed));
                newly_integrated.push(rid);
            }
        }
        // Note: groups sourced by an integrated removal are kept. Their
        // washes still serve the *older* residues on those cells — exactly
        // what makes deleting the removal safe (see `Analysis::deletable`).
        if delay > 0 || !newly_integrated.is_empty() {
            timeline = None;
            windows.fill(None);
        }

        let task = schedule.push_task(Task::new(
            TaskKind::Wash {
                targets: groups[gi].targets(),
            },
            cand.path.clone(),
            start,
            cand.duration,
            FluidType::BUFFER,
        ));
        if let Some(tl) = &mut timeline {
            tl.push_wash(schedule.task(task));
        }
        placements.push(Placement {
            group: gi,
            candidate: ci,
            task,
        });
    }

    // Groups fully pruned by integration were never placed; re-index so the
    // returned groups and placements correspond one-to-one.
    let mut final_groups = Vec::with_capacity(placements.len());
    let mut final_placements = Vec::with_capacity(placements.len());
    for p in placements {
        final_placements.push(Placement {
            group: final_groups.len(),
            ..p
        });
        final_groups.push(groups[p.group].clone());
    }
    GreedyOutcome {
        schedule,
        groups: final_groups,
        placements: final_placements,
        integrated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CandidatePolicy;
    use crate::groups::{build_groups, merge_groups};
    use pdw_assay::benchmarks;
    use pdw_contam::{analyze, verify_clean, NecessityOptions};
    use pdw_synth::synthesize;

    fn run(
        integration: bool,
    ) -> (
        pdw_assay::benchmarks::Benchmark,
        pdw_synth::Synthesis,
        GreedyOutcome,
    ) {
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
        let groups = merge_groups(&s.chip, &s.schedule, groups, 3);
        // Integration may only delete provably-safe removals.
        let protected: HashSet<TaskId> = s
            .schedule
            .tasks()
            .filter(|(_, t)| t.kind().is_waste_disposal())
            .map(|(id, _)| id)
            .filter(|id| !a.deletable.contains(id))
            .collect();
        let out = insert_washes_protected(&s.chip, &s.schedule, &groups, integration, &protected);
        (bench, s, out)
    }

    #[test]
    fn inserted_schedule_is_valid_and_clean() {
        let (bench, s, out) = run(false);
        pdw_sim::validate(&s.chip, &bench.graph, &out.schedule).unwrap();
        verify_clean(&s.chip, &bench.graph, &out.schedule).unwrap();
        assert!(!out.placements.is_empty());
        assert_eq!(out.placements.len(), out.groups.len());
    }

    #[test]
    fn integration_only_removes_excess_removals() {
        let (bench, s, out) = run(true);
        pdw_sim::validate(&s.chip, &bench.graph, &out.schedule).unwrap();
        verify_clean(&s.chip, &bench.graph, &out.schedule).unwrap();
        for (id, removed) in &out.integrated {
            assert!(out.schedule.get_task(*id).is_none());
            assert!(matches!(removed.kind(), TaskKind::ExcessRemoval { .. }));
        }
    }

    #[test]
    fn washes_cover_their_targets_before_reuse() {
        let (_, _, out) = run(false);
        for p in &out.placements {
            let t = out.schedule.task(p.task);
            assert!(t.kind().is_wash());
        }
    }
}
