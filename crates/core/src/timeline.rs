//! Cell/time occupancy view of a schedule, for wash insertion.

use std::collections::HashMap;

use pdw_biochip::{CellSet, Chip};
use pdw_sched::{Schedule, Task, TaskKind, Time};

/// One busy interval on a set of cells: a task's path over its window, or a
/// device footprint from the start of an operation's loading to the pickup
/// of its result.
#[derive(Debug, Clone)]
struct Item {
    cells: CellSet,
    start: Time,
    end: Time,
    /// Start time of the item's *last* component: a task's own start, or an
    /// operation occupancy's result-pickup start. If a right-shift pivot
    /// falls at or before `moves_at` (but after `start`), the item
    /// stretches over the gap instead of moving out of it.
    moves_at: Time,
}

impl Item {
    /// A task's path over its window.
    fn task(t: &Task) -> Self {
        Item {
            cells: t.path().mask().clone(),
            start: t.start(),
            end: t.end(),
            moves_at: t.start(),
        }
    }
}

/// An occupancy index over a schedule.
///
/// Rebuilt after a mutation that moves or removes anything — schedules are
/// small (hundreds of tasks), so reconstruction is cheaper than maintaining
/// the index incrementally — and grown in place by
/// [`push_wash`](Self::push_wash).
#[derive(Debug, Clone)]
pub(crate) struct Timeline {
    items: Vec<Item>,
}

impl Timeline {
    /// Builds the occupancy index: every task plus every operation's
    /// loading-to-pickup device residency.
    pub fn new(chip: &Chip, schedule: &Schedule) -> Self {
        let mut items: Vec<Item> = schedule.tasks().map(|(_, t)| Item::task(t)).collect();

        // Device occupancy windows: (load start, pickup end, pickup start).
        let mut occupancy: HashMap<_, (Time, Time, Time)> = schedule
            .ops()
            .iter()
            .map(|sop| (sop.op, (sop.start, sop.end(), sop.start)))
            .collect();
        for (_, task) in schedule.tasks() {
            match *task.kind() {
                TaskKind::Injection { op, .. } | TaskKind::ExcessRemoval { op } => {
                    if let Some(w) = occupancy.get_mut(&op) {
                        w.0 = w.0.min(task.start());
                    }
                }
                TaskKind::Transport { from_op, to_op } => {
                    if let Some(w) = occupancy.get_mut(&to_op) {
                        w.0 = w.0.min(task.start());
                    }
                    if let Some(w) = occupancy.get_mut(&from_op) {
                        if task.end() > w.1 {
                            w.1 = task.end();
                            w.2 = w.2.max(task.start());
                        }
                    }
                }
                TaskKind::OutputRemoval { op } => {
                    if let Some(w) = occupancy.get_mut(&op) {
                        if task.end() > w.1 {
                            w.1 = task.end();
                            w.2 = w.2.max(task.start());
                        }
                    }
                }
                TaskKind::Wash { .. } => {}
            }
        }
        for sop in schedule.ops() {
            let (start, end, moves_at) = occupancy[&sop.op];
            items.push(Item {
                cells: CellSet::from_cells(chip.device(sop.device).footprint()),
                start,
                end,
                moves_at,
            });
        }
        Timeline { items }
    }

    /// Adds the busy interval of a wash task just pushed onto the indexed
    /// schedule. A wash moves no device residency, and the fit queries do
    /// not depend on item order, so the result answers every query as a
    /// [`new`](Self::new) index over the grown schedule does.
    pub fn push_wash(&mut self, wash: &Task) {
        debug_assert!(
            wash.kind().is_wash(),
            "only a wash leaves residencies alone"
        );
        self.items.push(Item::task(wash));
    }

    /// Earliest `t ≥ ready` with `t + dur ≤ deadline` (when given) such that
    /// `cells` are free over `[t, t + dur)`.
    pub fn earliest_fit(
        &self,
        cells: &CellSet,
        ready: Time,
        dur: Time,
        deadline: Option<Time>,
    ) -> Option<Time> {
        let relevant: Vec<&Item> = self
            .items
            .iter()
            .filter(|it| it.cells.intersects(cells))
            .collect();
        let mut candidates: Vec<Time> = vec![ready];
        candidates.extend(relevant.iter().map(|it| it.end).filter(|&e| e > ready));
        candidates.sort_unstable();
        candidates.dedup();
        'outer: for &t in &candidates {
            if let Some(d) = deadline {
                if t + dur > d {
                    return None; // candidates ascend; nothing later fits either
                }
            }
            for it in &relevant {
                if t < it.end && it.start < t + dur {
                    continue 'outer;
                }
            }
            return Some(t);
        }
        None
    }

    /// Earliest `t ≥ ready` such that `cells` stay free over `[t, t + dur)`
    /// *after* a right-shift of everything starting at or after `pivot`
    /// (with the shift sized so the shifted block lands after `t + dur`):
    ///
    /// - items starting at or after `pivot` move past the wash — ignored;
    /// - items entirely before `pivot` are fixed — checked as usual;
    /// - items that straddle (`start < pivot ≤ moves_at`) *stretch* across
    ///   the gap: they block their cells from `start` onward, forever.
    ///
    /// Returns `None` when a straddling item covers the cells from before
    /// `ready`, i.e. no shift of this shape can ever make room.
    pub fn earliest_fit_shifted(
        &self,
        cells: &CellSet,
        ready: Time,
        dur: Time,
        pivot: Time,
    ) -> Option<Time> {
        let relevant: Vec<(Time, Option<Time>)> = self
            .items
            .iter()
            .filter(|it| it.cells.intersects(cells))
            .filter_map(|it| {
                if it.start >= pivot {
                    None // moves wholesale past the inserted gap
                } else if it.moves_at >= pivot && it.end > pivot {
                    Some((it.start, None)) // stretches: open-ended
                } else {
                    Some((it.start, Some(it.end)))
                }
            })
            .collect();
        let mut candidates: Vec<Time> = vec![ready];
        candidates.extend(
            relevant
                .iter()
                .filter_map(|(_, e)| *e)
                .filter(|&e| e > ready),
        );
        candidates.sort_unstable();
        candidates.dedup();
        'outer: for &t in &candidates {
            for &(start, end) in &relevant {
                let blocked = match end {
                    Some(end) => t < end && start < t + dur,
                    None => start < t + dur,
                };
                if blocked {
                    continue 'outer;
                }
            }
            return Some(t);
        }
        None
    }
}

/// Shifts every operation and task starting at or after `pivot` by `delay`
/// seconds. Relative orders are preserved, so a valid schedule stays valid;
/// gaps between unshifted and shifted items only grow.
pub(crate) fn shift_from(schedule: &mut Schedule, pivot: Time, delay: Time) {
    if delay == 0 {
        return;
    }
    for op in schedule.ops_mut() {
        if op.start >= pivot {
            op.start += delay;
        }
    }
    let ids: Vec<_> = schedule.tasks().map(|(id, _)| id).collect();
    for id in ids {
        let t = schedule.task_mut(id);
        if t.start() >= pivot {
            t.set_start(t.start() + delay);
        }
    }
}

/// Counts tasks of `old` starting strictly before `t` that reappear
/// bit-identically (same kind, path, timing, fluid) in `new` — the repair
/// engine's certification that the schedule prefix up to the delta's first
/// affected event time was frozen across a replan.
pub(crate) fn frozen_prefix_len(old: &Schedule, new: &Schedule, t: Time) -> usize {
    old.tasks()
        .filter(|(_, task)| task.start() < t)
        .filter(|(_, task)| new.tasks().any(|(_, n)| n == *task))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_biochip::Coord;
    use pdw_synth::synthesize;

    #[test]
    fn earliest_fit_respects_deadline() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let tl = Timeline::new(&s.chip, &s.schedule);
        // A task's own cells are busy during its window.
        let (_, t0) = s.schedule.tasks().next().unwrap();
        let cells = t0.path().mask().clone();
        let fit = tl.earliest_fit(&cells, t0.start(), t0.duration(), Some(t0.start() + 1));
        assert_eq!(fit, None);
        // Without a deadline, a fit exists after everything ends.
        let fit = tl.earliest_fit(&cells, 0, 1, None);
        assert!(fit.is_some());
    }

    #[test]
    fn frozen_prefix_counts_identical_early_tasks() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let total = s.schedule.tasks().count();
        assert_eq!(
            frozen_prefix_len(&s.schedule, &s.schedule, Time::MAX),
            total
        );
        assert_eq!(frozen_prefix_len(&s.schedule, &s.schedule, 0), 0);
        // Shifting the tail leaves exactly the strict prefix certified.
        let pivot = s.schedule.tasks().map(|(_, t)| t.start()).max().unwrap();
        let mut moved = s.schedule.clone();
        shift_from(&mut moved, pivot, 7);
        let expect = s
            .schedule
            .tasks()
            .filter(|(_, t)| t.start() < pivot)
            .count();
        assert!(expect < total);
        assert_eq!(frozen_prefix_len(&s.schedule, &moved, pivot), expect);
        assert_eq!(frozen_prefix_len(&s.schedule, &moved, Time::MAX), expect);
    }

    #[test]
    fn shift_preserves_relative_order() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut moved = s.schedule.clone();
        let pivot = moved.makespan() / 2;
        shift_from(&mut moved, pivot, 7);
        for (id, t) in s.schedule.tasks() {
            let new = moved.task(id);
            if t.start() >= pivot {
                assert_eq!(new.start(), t.start() + 7);
            } else {
                assert_eq!(new.start(), t.start());
            }
        }
        // Shifted schedules stay physically valid.
        pdw_sim::validate(&s.chip, &bench.graph, &moved).unwrap();
    }

    /// A hand-built timeline with one item occupying `cells` over
    /// `[start, end)` whose last component begins at `moves_at`.
    fn fixture(start: Time, end: Time, moves_at: Time) -> (Timeline, CellSet) {
        let cells: CellSet = [Coord::new(1, 1)].into_iter().collect();
        let tl = Timeline {
            items: vec![Item {
                cells: cells.clone(),
                start,
                end,
                moves_at,
            }],
        };
        (tl, cells)
    }

    #[test]
    fn shifted_fit_ignores_items_starting_at_the_pivot() {
        // start == pivot: the item moves wholesale past the gap, so the
        // window it used to occupy is free immediately.
        let (tl, cells) = fixture(5, 9, 5);
        assert_eq!(tl.earliest_fit_shifted(&cells, 5, 3, 5), Some(5));
        // One tick earlier and the item stays put: the fit lands at its end.
        assert_eq!(tl.earliest_fit_shifted(&cells, 5, 3, 6), Some(9));
    }

    #[test]
    fn shifted_fit_treats_straddling_items_as_open_ended() {
        // start < pivot <= moves_at and end > pivot: the item stretches over
        // the gap, blocking its cells from `start` forever.
        let (tl, cells) = fixture(2, 9, 6);
        assert_eq!(tl.earliest_fit_shifted(&cells, 3, 2, 6), None);
        // But a slot strictly before the straddler's start still fits.
        assert_eq!(tl.earliest_fit_shifted(&cells, 0, 2, 6), Some(0));
    }

    #[test]
    fn shifted_fit_accepts_zero_length_windows() {
        // dur == 0 occupies no time: only instants strictly inside the item
        // are blocked. Both boundaries are fair game.
        let (tl, cells) = fixture(5, 9, 5);
        assert_eq!(tl.earliest_fit_shifted(&cells, 5, 0, 20), Some(5));
        assert_eq!(tl.earliest_fit_shifted(&cells, 6, 0, 20), Some(9));
        assert_eq!(tl.earliest_fit_shifted(&cells, 0, 0, 20), Some(0));
    }

    #[test]
    fn zero_length_items_never_block() {
        // A degenerate item with start == end occupies no time at all.
        let (tl, cells) = fixture(5, 5, 5);
        assert_eq!(tl.earliest_fit_shifted(&cells, 0, 3, 20), Some(0));
        assert_eq!(tl.earliest_fit(&cells, 0, 3, None), Some(0));
    }

    #[test]
    fn shift_moves_tasks_starting_exactly_at_the_pivot() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        // Pivot on a task's exact start: `>=` must include it.
        let (id, t) = s.schedule.tasks().next().unwrap();
        let pivot = t.start();
        let mut moved = s.schedule.clone();
        shift_from(&mut moved, pivot, 4);
        assert_eq!(moved.task(id).start(), pivot + 4);
        // Ops starting exactly at the pivot move too.
        for (old, new) in s.schedule.ops().iter().zip(moved.ops()) {
            if old.start >= pivot {
                assert_eq!(new.start, old.start + 4);
            } else {
                assert_eq!(new.start, old.start);
            }
        }
    }

    #[test]
    fn zero_delay_shift_is_a_no_op() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut moved = s.schedule.clone();
        shift_from(&mut moved, 0, 0);
        for (id, t) in s.schedule.tasks() {
            assert_eq!(moved.task(id).start(), t.start());
        }
    }

    #[test]
    fn occupancy_blocks_the_device_window() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let tl = Timeline::new(&s.chip, &s.schedule);
        let sop = s.schedule.ops()[0];
        let foot = CellSet::from_cells(s.chip.device(sop.device).footprint());
        // No fit inside the op execution window.
        let fit = tl.earliest_fit(&foot, sop.start, 1, Some(sop.end()));
        assert_eq!(fit, None);
    }
}
