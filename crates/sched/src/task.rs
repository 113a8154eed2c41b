//! Fluidic tasks: anything that moves fluid along a flow path.

use serde::{Deserialize, Serialize};
use std::fmt;

use pdw_assay::{FluidType, OpId, ReagentId};
use pdw_biochip::{Coord, FlowPath};

use crate::Time;

/// Identifier of a task within a [`Schedule`](crate::Schedule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// What a fluidic task does.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Injection of a reagent from a flow port into the device of `op`
    /// (input slot `slot` of the operation).
    Injection {
        /// The injected reagent.
        reagent: ReagentId,
        /// Receiving operation.
        op: OpId,
        /// Positional input slot of the operation.
        slot: usize,
    },
    /// Transport of the result of `from_op` to the device of `to_op`
    /// (`p_{j,i,1}` in the paper).
    Transport {
        /// Producing operation `j`.
        from_op: OpId,
        /// Consuming operation `i`.
        to_op: OpId,
    },
    /// Removal of excess fluid cached at the ends of the device of `op`
    /// after a fluid arrived there (`p_{j,i,2}` in the paper).
    ExcessRemoval {
        /// The operation whose device ends hold the excess fluid.
        op: OpId,
    },
    /// Removal of the (waste) result of sink operation `op` off the chip.
    OutputRemoval {
        /// The sink operation.
        op: OpId,
    },
    /// A wash operation flushing buffer over `targets`
    /// (`w_j` in the paper; the path covers all target cells, Eq. 15).
    Wash {
        /// Contaminated cells this wash is responsible for.
        targets: Vec<Coord>,
    },
}

impl TaskKind {
    /// Returns `true` for tasks whose purpose is disposal: their payload is
    /// waste headed off-chip (`Q_{p}=1` in Eq. 10, the Type-3 exemption).
    pub fn is_waste_disposal(&self) -> bool {
        matches!(
            self,
            TaskKind::ExcessRemoval { .. } | TaskKind::OutputRemoval { .. }
        )
    }

    /// Returns `true` for wash operations.
    pub fn is_wash(&self) -> bool {
        matches!(self, TaskKind::Wash { .. })
    }

    /// Returns `true` for the `p_{j,i,1}`-class tasks that deliver a fluid
    /// to a device for processing (injections and transports).
    pub fn is_delivery(&self) -> bool {
        matches!(
            self,
            TaskKind::Injection { .. } | TaskKind::Transport { .. }
        )
    }

    /// Short tag for display: `inj`, `trans`, `excess`, `out`, `wash`.
    pub fn tag(&self) -> &'static str {
        match self {
            TaskKind::Injection { .. } => "inj",
            TaskKind::Transport { .. } => "trans",
            TaskKind::ExcessRemoval { .. } => "excess",
            TaskKind::OutputRemoval { .. } => "out",
            TaskKind::Wash { .. } => "wash",
        }
    }
}

/// A scheduled fluidic task: a kind, a complete flow path, a start time, a
/// duration, and the fluid type that traverses the path.
///
/// Wash tasks carry [`FluidType::BUFFER`]; every other task's fluid leaves
/// residue of its type on the interior cells of the path.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Task {
    kind: TaskKind,
    path: FlowPath,
    start: Time,
    duration: Time,
    fluid: FluidType,
}

impl Task {
    /// Creates a task.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is zero — every fluid movement takes time.
    pub fn new(
        kind: TaskKind,
        path: FlowPath,
        start: Time,
        duration: Time,
        fluid: FluidType,
    ) -> Self {
        assert!(duration > 0, "task duration must be nonzero");
        Self {
            kind,
            path,
            start,
            duration,
            fluid,
        }
    }

    /// The task's kind.
    pub fn kind(&self) -> &TaskKind {
        &self.kind
    }

    /// The complete flow path the task occupies.
    pub fn path(&self) -> &FlowPath {
        &self.path
    }

    /// Start time `t^s` in seconds.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Duration in seconds.
    pub fn duration(&self) -> Time {
        self.duration
    }

    /// End time `t^e = t^s + duration`.
    pub fn end(&self) -> Time {
        self.start + self.duration
    }

    /// The fluid type traversing the path.
    pub fn fluid(&self) -> FluidType {
        self.fluid
    }

    /// Moves the task to a new start time.
    pub fn set_start(&mut self, start: Time) {
        self.start = start;
    }

    /// Replaces the task's path (used when a wash path is (re)computed).
    pub fn set_path(&mut self, path: FlowPath) {
        self.path = path;
    }

    /// Returns `true` if this task's active window overlaps `other`'s
    /// (half-open intervals `[start, end)`).
    pub fn time_overlaps(&self, other: &Task) -> bool {
        self.start < other.end() && other.start < self.end()
    }

    /// Returns `true` if this task conflicts with `other`: their windows
    /// overlap in time *and* their paths share a cell (Eq. 8/19/20).
    pub fn conflicts_with(&self, other: &Task) -> bool {
        self.time_overlaps(other) && self.path.overlaps(&other.path)
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}..{}) {} {} via {} cells",
            self.start,
            self.end(),
            self.kind.tag(),
            self.fluid,
            self.path.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_biochip::Coord;

    fn path(y: u16, n: u16) -> FlowPath {
        FlowPath::new((0..n).map(|x| Coord::new(x, y)).collect()).unwrap()
    }

    fn wash(y: u16, start: Time, dur: Time) -> Task {
        Task::new(
            TaskKind::Wash { targets: vec![] },
            path(y, 4),
            start,
            dur,
            FluidType::BUFFER,
        )
    }

    #[test]
    fn end_is_start_plus_duration() {
        let t = wash(0, 5, 3);
        assert_eq!(t.end(), 8);
    }

    #[test]
    fn time_overlap_is_half_open() {
        let a = wash(0, 0, 5);
        let b = wash(0, 5, 5);
        assert!(!a.time_overlaps(&b));
        let c = wash(0, 4, 5);
        assert!(a.time_overlaps(&c));
    }

    #[test]
    fn conflict_needs_both_overlap_kinds() {
        let a = wash(0, 0, 5);
        let same_path_later = wash(0, 10, 5);
        let other_path_same_time = wash(1, 0, 5);
        let clash = wash(0, 2, 5);
        assert!(!a.conflicts_with(&same_path_later));
        assert!(!a.conflicts_with(&other_path_same_time));
        assert!(a.conflicts_with(&clash));
    }

    #[test]
    fn kind_predicates() {
        assert!(TaskKind::ExcessRemoval { op: OpId(0) }.is_waste_disposal());
        assert!(TaskKind::OutputRemoval { op: OpId(0) }.is_waste_disposal());
        assert!(!TaskKind::Transport {
            from_op: OpId(0),
            to_op: OpId(1)
        }
        .is_waste_disposal());
        assert!(TaskKind::Wash { targets: vec![] }.is_wash());
        assert!(TaskKind::Injection {
            reagent: ReagentId(0),
            op: OpId(0),
            slot: 0
        }
        .is_delivery());
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_duration_panics() {
        let _ = wash(0, 0, 0);
    }
}
