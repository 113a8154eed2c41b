//! The schedule: scheduled operations plus fluidic tasks.

use serde::{Deserialize, Serialize};
use std::fmt;

use pdw_assay::OpId;
use pdw_biochip::DeviceId;

use crate::task::{Task, TaskId};
use crate::Time;

/// A biochemical operation bound to a device and scheduled in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledOp {
    /// The operation.
    pub op: OpId,
    /// The device executing it.
    pub device: DeviceId,
    /// Start time `t^s_{o_i}`.
    pub start: Time,
    /// Execution duration (≥ `t(o_i)`, Eq. 1).
    pub duration: Time,
}

impl ScheduledOp {
    /// End time `t^e = t^s + duration`.
    pub fn end(&self) -> Time {
        self.start + self.duration
    }
}

/// A complete assay execution plan: operation placements/times plus every
/// fluidic task with its flow path and time window.
///
/// The schedule is an ordinary mutable data structure — wash optimizers
/// shift task start times, insert wash tasks, and delete excess-removal
/// tasks that were integrated into washes. Whether a schedule is *valid*
/// (dependency, exclusivity, and conflict constraints) is checked by the
/// simulator crate, not enforced here.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Schedule {
    ops: Vec<ScheduledOp>,
    tasks: Vec<Option<Task>>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a scheduled operation.
    pub fn push_op(&mut self, op: ScheduledOp) {
        self.ops.push(op);
    }

    /// All scheduled operations.
    pub fn ops(&self) -> &[ScheduledOp] {
        &self.ops
    }

    /// Mutable access to the scheduled operations (for rescheduling).
    pub fn ops_mut(&mut self) -> &mut [ScheduledOp] {
        &mut self.ops
    }

    /// Finds the scheduled instance of operation `op`.
    pub fn scheduled_op(&self, op: OpId) -> Option<&ScheduledOp> {
        self.ops.iter().find(|s| s.op == op)
    }

    /// Adds a task and returns its id. Ids are stable under removal.
    pub fn push_task(&mut self, task: Task) -> TaskId {
        let id = TaskId(self.tasks.len() as u32);
        self.tasks.push(Some(task));
        id
    }

    /// Looks up a task by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the task was removed.
    pub fn task(&self, id: TaskId) -> &Task {
        self.tasks[id.0 as usize]
            .as_ref()
            .expect("task was removed from the schedule")
    }

    /// Mutable lookup.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range or the task was removed.
    pub fn task_mut(&mut self, id: TaskId) -> &mut Task {
        self.tasks[id.0 as usize]
            .as_mut()
            .expect("task was removed from the schedule")
    }

    /// Returns the task if it exists and was not removed.
    pub fn get_task(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.0 as usize).and_then(|t| t.as_ref())
    }

    /// Removes a task (e.g. an excess removal integrated into a wash,
    /// ψ = 1 in Eq. 7/21). Returns the removed task.
    ///
    /// # Panics
    ///
    /// Panics if the task was already removed.
    pub fn remove_task(&mut self, id: TaskId) -> Task {
        self.tasks[id.0 as usize]
            .take()
            .expect("task was already removed")
    }

    /// Iterates over `(id, task)` for all live tasks.
    pub fn tasks(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TaskId(i as u32), t)))
    }

    /// Number of live tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.is_some()).count()
    }

    /// All live task ids, sorted by `(start, id)` — useful for replaying the
    /// schedule chronologically.
    pub fn tasks_chronological(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.tasks().map(|(id, _)| id).collect();
        ids.sort_by_key(|&id| (self.task(id).start(), id));
        ids
    }

    /// Assay completion time `T_assay`: the latest end over operations and
    /// tasks (Eq. 22, extended to fluidic tasks so trailing removals count).
    pub fn makespan(&self) -> Time {
        let op_end = self.ops.iter().map(|o| o.end()).max().unwrap_or(0);
        let task_end = self.tasks().map(|(_, t)| t.end()).max().unwrap_or(0);
        op_end.max(task_end)
    }

    /// Completion time of biochemical operations only (`T_assay` in the
    /// paper's Table II sense: when the last operation finishes).
    pub fn op_makespan(&self) -> Time {
        self.ops.iter().map(|o| o.end()).max().unwrap_or(0)
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "schedule: {} ops, {} tasks, makespan {} s",
            self.ops.len(),
            self.task_count(),
            self.makespan()
        )?;
        let mut ops = self.ops.clone();
        ops.sort_by_key(|o| (o.start, o.op));
        for o in &ops {
            writeln!(
                f,
                "  [{:>3}..{:>3}) {} on {}",
                o.start,
                o.end(),
                o.op,
                o.device
            )?;
        }
        for id in self.tasks_chronological() {
            writeln!(f, "  {}", self.task(id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskKind;
    use pdw_assay::FluidType;
    use pdw_biochip::{Coord, FlowPath};

    fn wash_task(start: Time) -> Task {
        let p = FlowPath::new(vec![Coord::new(0, 0), Coord::new(1, 0)]).unwrap();
        Task::new(
            TaskKind::Wash { targets: vec![] },
            p,
            start,
            2,
            FluidType::BUFFER,
        )
    }

    #[test]
    fn task_ids_are_stable_under_removal() {
        let mut s = Schedule::new();
        let a = s.push_task(wash_task(0));
        let b = s.push_task(wash_task(5));
        s.remove_task(a);
        assert_eq!(s.task(b).start(), 5);
        assert!(s.get_task(a).is_none());
        assert_eq!(s.task_count(), 1);
    }

    #[test]
    fn makespan_covers_ops_and_tasks() {
        let mut s = Schedule::new();
        s.push_op(ScheduledOp {
            op: OpId(0),
            device: DeviceId(0),
            start: 0,
            duration: 4,
        });
        assert_eq!(s.makespan(), 4);
        assert_eq!(s.op_makespan(), 4);
        s.push_task(wash_task(10));
        assert_eq!(s.makespan(), 12);
        assert_eq!(s.op_makespan(), 4);
    }

    #[test]
    fn chronological_order_sorts_by_start() {
        let mut s = Schedule::new();
        let late = s.push_task(wash_task(9));
        let early = s.push_task(wash_task(1));
        assert_eq!(s.tasks_chronological(), vec![early, late]);
    }

    #[test]
    fn scheduled_op_lookup() {
        let mut s = Schedule::new();
        s.push_op(ScheduledOp {
            op: OpId(3),
            device: DeviceId(1),
            start: 2,
            duration: 5,
        });
        assert_eq!(s.scheduled_op(OpId(3)).unwrap().end(), 7);
        assert!(s.scheduled_op(OpId(4)).is_none());
    }

    #[test]
    #[should_panic(expected = "already removed")]
    fn double_removal_panics() {
        let mut s = Schedule::new();
        let a = s.push_task(wash_task(0));
        s.remove_task(a);
        s.remove_task(a);
    }
}
