//! Chip-fault model: blocked cells, disabled ports, stuck valves.
//!
//! Real valve-array chips degrade in the field: channels clog, inlet tubing
//! detaches, and control valves stick closed (cf. *Testing Microfluidic
//! Fully Programmable Valve Arrays*). A [`FaultSet`] describes such damage
//! declaratively:
//!
//! - **blocked cells** — clogged channel/device cells no fluid may
//!   traverse,
//! - **disabled flow/waste ports** — inlets or outlets that can no longer
//!   move fluid, even as path endpoints,
//! - **blocked edges** — stuck-closed valves between two adjacent cells:
//!   both cells stay usable, but flow cannot cross between them.
//!
//! A chip carries its fault set ([`Chip::with_faults`]); every routing
//! primitive — the BFS core, the `route`/`route_via` wrappers, the
//! [`PortReach`](crate::PortReach) pruning fields, and
//! [`Chip::validate_path`] — consults it, so planners built on those
//! primitives transparently route *around* faults, and validators reject
//! schedules that drive fluid *through* them. Faults only ever shrink
//! reachability, so the `PortReach` pruning argument (a cell unreachable in
//! the cached fields can never be routed) still holds on a faulted chip.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::chip::{FlowPortId, WastePortId};
use crate::grid::Coord;

/// Canonical (sorted) form of an undirected edge between adjacent cells.
fn edge_key(a: Coord, b: Coord) -> (Coord, Coord) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// A set of physical faults on a chip (see the `fault` module docs).
///
/// Internally every component is kept sorted and deduplicated, so
/// membership queries on the routing hot path are binary searches and two
/// fault sets describing the same damage compare equal regardless of
/// insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSet {
    /// Clogged cells, sorted row-major.
    blocked_cells: Vec<Coord>,
    /// Disabled inlets, sorted by id.
    disabled_flow: Vec<u32>,
    /// Disabled outlets, sorted by id.
    disabled_waste: Vec<u32>,
    /// Stuck-closed valves as canonical `(min, max)` cell pairs.
    blocked_edges: Vec<(Coord, Coord)>,
}

impl FaultSet {
    /// An empty fault set (a pristine chip).
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no fault is recorded.
    pub fn is_empty(&self) -> bool {
        self.blocked_cells.is_empty()
            && self.disabled_flow.is_empty()
            && self.disabled_waste.is_empty()
            && self.blocked_edges.is_empty()
    }

    /// Number of recorded faults across all categories.
    pub fn len(&self) -> usize {
        self.blocked_cells.len()
            + self.disabled_flow.len()
            + self.disabled_waste.len()
            + self.blocked_edges.len()
    }

    /// Marks `cell` as clogged. Idempotent.
    pub fn block_cell(&mut self, cell: Coord) -> &mut Self {
        if let Err(i) = self.blocked_cells.binary_search(&cell) {
            self.blocked_cells.insert(i, cell);
        }
        self
    }

    /// Marks the flow port `id` as disabled. Idempotent.
    pub fn disable_flow_port(&mut self, id: FlowPortId) -> &mut Self {
        if let Err(i) = self.disabled_flow.binary_search(&id.0) {
            self.disabled_flow.insert(i, id.0);
        }
        self
    }

    /// Marks the waste port `id` as disabled. Idempotent.
    pub fn disable_waste_port(&mut self, id: WastePortId) -> &mut Self {
        if let Err(i) = self.disabled_waste.binary_search(&id.0) {
            self.disabled_waste.insert(i, id.0);
        }
        self
    }

    /// Marks the valve between adjacent cells `a` and `b` as stuck closed.
    /// The edge is undirected; insertion order of the endpoints does not
    /// matter. Idempotent.
    pub fn block_edge(&mut self, a: Coord, b: Coord) -> &mut Self {
        let key = edge_key(a, b);
        if let Err(i) = self.blocked_edges.binary_search(&key) {
            self.blocked_edges.insert(i, key);
        }
        self
    }

    /// Clears a clog at `cell` (a repaired channel). Idempotent; returns
    /// `true` if the cell was actually blocked.
    pub fn unblock_cell(&mut self, cell: Coord) -> bool {
        match self.blocked_cells.binary_search(&cell) {
            Ok(i) => {
                self.blocked_cells.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Re-enables the flow port `id`. Idempotent; returns `true` if the
    /// port was actually disabled.
    pub fn enable_flow_port(&mut self, id: FlowPortId) -> bool {
        match self.disabled_flow.binary_search(&id.0) {
            Ok(i) => {
                self.disabled_flow.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Re-enables the waste port `id`. Idempotent; returns `true` if the
    /// port was actually disabled.
    pub fn enable_waste_port(&mut self, id: WastePortId) -> bool {
        match self.disabled_waste.binary_search(&id.0) {
            Ok(i) => {
                self.disabled_waste.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Releases the stuck valve between `a` and `b` (either endpoint
    /// order). Idempotent; returns `true` if the edge was actually blocked.
    pub fn unblock_edge(&mut self, a: Coord, b: Coord) -> bool {
        match self.blocked_edges.binary_search(&edge_key(a, b)) {
            Ok(i) => {
                self.blocked_edges.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// `true` if `cell` is clogged.
    #[inline]
    pub fn cell_blocked(&self, cell: Coord) -> bool {
        !self.blocked_cells.is_empty() && self.blocked_cells.binary_search(&cell).is_ok()
    }

    /// `true` if the flow port `id` is disabled.
    #[inline]
    pub fn flow_port_disabled(&self, id: FlowPortId) -> bool {
        !self.disabled_flow.is_empty() && self.disabled_flow.binary_search(&id.0).is_ok()
    }

    /// `true` if the waste port `id` is disabled.
    #[inline]
    pub fn waste_port_disabled(&self, id: WastePortId) -> bool {
        !self.disabled_waste.is_empty() && self.disabled_waste.binary_search(&id.0).is_ok()
    }

    /// `true` if the valve between `a` and `b` is stuck closed (in either
    /// direction).
    #[inline]
    pub fn edge_blocked(&self, a: Coord, b: Coord) -> bool {
        !self.blocked_edges.is_empty() && self.blocked_edges.binary_search(&edge_key(a, b)).is_ok()
    }

    /// The clogged cells, sorted row-major.
    pub fn blocked_cells(&self) -> &[Coord] {
        &self.blocked_cells
    }

    /// The stuck-closed valves as canonical cell pairs.
    pub fn blocked_edges(&self) -> &[(Coord, Coord)] {
        &self.blocked_edges
    }

    /// The disabled flow-port ids.
    pub fn disabled_flow_ports(&self) -> impl ExactSizeIterator<Item = FlowPortId> + '_ {
        self.disabled_flow.iter().map(|&i| FlowPortId(i))
    }

    /// The disabled waste-port ids.
    pub fn disabled_waste_ports(&self) -> impl ExactSizeIterator<Item = WastePortId> + '_ {
        self.disabled_waste.iter().map(|&i| WastePortId(i))
    }
}

/// A single fault-set edit: one fault appearing (damage) or disappearing
/// (a field repair).
///
/// Deltas drive incremental replanning: the planner engine maps a delta to
/// the grid cells it can possibly affect ([`FaultDelta::cells`])
/// and invalidates only the cached state that footprint touches. Deltas
/// that *add* faults only shrink reachability, so caches whose stored
/// artifacts avoid the footprint survive verbatim; deltas that *remove*
/// faults can expand reachability anywhere ([`FaultDelta::expands_reach`])
/// and force a broader flush.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultDelta {
    /// A channel/device cell clogs.
    BlockCell(Coord),
    /// A clogged cell is cleared.
    UnblockCell(Coord),
    /// The valve between two adjacent cells sticks closed.
    BlockEdge(Coord, Coord),
    /// A stuck valve is released.
    UnblockEdge(Coord, Coord),
    /// An inlet detaches.
    DisableFlowPort(FlowPortId),
    /// An inlet is reconnected.
    EnableFlowPort(FlowPortId),
    /// An outlet detaches.
    DisableWastePort(WastePortId),
    /// An outlet is reconnected.
    EnableWastePort(WastePortId),
}

impl FaultDelta {
    /// Applies the delta to `faults`. Returns `false` when the delta is a
    /// no-op (blocking an already-blocked cell, clearing a fault that was
    /// never recorded, …), in which case `faults` is unchanged.
    pub fn apply(&self, faults: &mut FaultSet) -> bool {
        match *self {
            FaultDelta::BlockCell(c) => {
                if faults.cell_blocked(c) {
                    false
                } else {
                    faults.block_cell(c);
                    true
                }
            }
            FaultDelta::UnblockCell(c) => faults.unblock_cell(c),
            FaultDelta::BlockEdge(a, b) => {
                if faults.edge_blocked(a, b) {
                    false
                } else {
                    faults.block_edge(a, b);
                    true
                }
            }
            FaultDelta::UnblockEdge(a, b) => faults.unblock_edge(a, b),
            FaultDelta::DisableFlowPort(id) => {
                if faults.flow_port_disabled(id) {
                    false
                } else {
                    faults.disable_flow_port(id);
                    true
                }
            }
            FaultDelta::EnableFlowPort(id) => faults.enable_flow_port(id),
            FaultDelta::DisableWastePort(id) => {
                if faults.waste_port_disabled(id) {
                    false
                } else {
                    faults.disable_waste_port(id);
                    true
                }
            }
            FaultDelta::EnableWastePort(id) => faults.enable_waste_port(id),
        }
    }

    /// `true` when the delta removes a fault and can therefore *expand*
    /// reachability. Fault additions only ever shrink it.
    pub fn expands_reach(&self) -> bool {
        matches!(
            self,
            FaultDelta::UnblockCell(_)
                | FaultDelta::UnblockEdge(..)
                | FaultDelta::EnableFlowPort(_)
                | FaultDelta::EnableWastePort(_)
        )
    }

    /// The grid cells the delta directly touches: the blocked/cleared cell,
    /// both endpoints of an edge, or nothing for a port delta (the port
    /// coordinate lives outside the routable grid; callers resolve it via
    /// the chip's port table).
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        let (a, b) = match *self {
            FaultDelta::BlockCell(c) | FaultDelta::UnblockCell(c) => (Some(c), None),
            FaultDelta::BlockEdge(a, b) | FaultDelta::UnblockEdge(a, b) => (Some(a), Some(b)),
            _ => (None, None),
        };
        a.into_iter().chain(b)
    }
}

impl fmt::Display for FaultDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultDelta::BlockCell(c) => write!(f, "block cell {c}"),
            FaultDelta::UnblockCell(c) => write!(f, "unblock cell {c}"),
            FaultDelta::BlockEdge(a, b) => write!(f, "block edge {a}-{b}"),
            FaultDelta::UnblockEdge(a, b) => write!(f, "unblock edge {a}-{b}"),
            FaultDelta::DisableFlowPort(id) => write!(f, "disable inlet {}", id.0),
            FaultDelta::EnableFlowPort(id) => write!(f, "enable inlet {}", id.0),
            FaultDelta::DisableWastePort(id) => write!(f, "disable outlet {}", id.0),
            FaultDelta::EnableWastePort(id) => write!(f, "enable outlet {}", id.0),
        }
    }
}

impl fmt::Display for FaultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} blocked cell(s), {} blocked edge(s), {} disabled inlet(s), {} disabled outlet(s)",
            self.blocked_cells.len(),
            self.blocked_edges.len(),
            self.disabled_flow.len(),
            self.disabled_waste.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_set_matches_nothing() {
        let f = FaultSet::new();
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert!(!f.cell_blocked(Coord::new(1, 1)));
        assert!(!f.edge_blocked(Coord::new(0, 0), Coord::new(1, 0)));
        assert!(!f.flow_port_disabled(FlowPortId(0)));
        assert!(!f.waste_port_disabled(WastePortId(0)));
    }

    #[test]
    fn membership_is_insertion_order_independent() {
        let mut a = FaultSet::new();
        a.block_cell(Coord::new(3, 1))
            .block_cell(Coord::new(1, 2))
            .block_edge(Coord::new(5, 5), Coord::new(5, 4));
        let mut b = FaultSet::new();
        b.block_edge(Coord::new(5, 4), Coord::new(5, 5))
            .block_cell(Coord::new(1, 2))
            .block_cell(Coord::new(3, 1));
        assert_eq!(a, b);
        assert!(a.cell_blocked(Coord::new(3, 1)));
        assert!(a.edge_blocked(Coord::new(5, 5), Coord::new(5, 4)));
        assert!(a.edge_blocked(Coord::new(5, 4), Coord::new(5, 5)));
    }

    #[test]
    fn inserts_are_idempotent() {
        let mut f = FaultSet::new();
        f.block_cell(Coord::new(1, 1)).block_cell(Coord::new(1, 1));
        f.disable_flow_port(FlowPortId(2))
            .disable_flow_port(FlowPortId(2));
        f.disable_waste_port(WastePortId(1));
        f.block_edge(Coord::new(0, 0), Coord::new(0, 1))
            .block_edge(Coord::new(0, 1), Coord::new(0, 0));
        assert_eq!(f.len(), 4);
        assert!(f.flow_port_disabled(FlowPortId(2)));
        assert!(!f.flow_port_disabled(FlowPortId(0)));
        assert!(f.waste_port_disabled(WastePortId(1)));
    }

    #[test]
    fn removals_undo_inserts_and_report_whether_anything_changed() {
        let mut f = FaultSet::new();
        f.block_cell(Coord::new(1, 1))
            .block_edge(Coord::new(0, 0), Coord::new(0, 1))
            .disable_flow_port(FlowPortId(2))
            .disable_waste_port(WastePortId(1));
        assert!(f.unblock_cell(Coord::new(1, 1)));
        assert!(!f.unblock_cell(Coord::new(1, 1)));
        assert!(f.unblock_edge(Coord::new(0, 1), Coord::new(0, 0)));
        assert!(!f.unblock_edge(Coord::new(0, 0), Coord::new(0, 1)));
        assert!(f.enable_flow_port(FlowPortId(2)));
        assert!(!f.enable_flow_port(FlowPortId(0)));
        assert!(f.enable_waste_port(WastePortId(1)));
        assert!(!f.enable_waste_port(WastePortId(1)));
        assert!(f.is_empty());
        assert_eq!(f, FaultSet::new());
    }

    #[test]
    fn deltas_apply_and_invert() {
        let deltas = [
            FaultDelta::BlockCell(Coord::new(2, 2)),
            FaultDelta::BlockEdge(Coord::new(3, 3), Coord::new(3, 4)),
            FaultDelta::DisableFlowPort(FlowPortId(0)),
            FaultDelta::DisableWastePort(WastePortId(3)),
        ];
        let inverses = [
            FaultDelta::UnblockCell(Coord::new(2, 2)),
            FaultDelta::UnblockEdge(Coord::new(3, 4), Coord::new(3, 3)),
            FaultDelta::EnableFlowPort(FlowPortId(0)),
            FaultDelta::EnableWastePort(WastePortId(3)),
        ];
        let mut f = FaultSet::new();
        for d in &deltas {
            assert!(!d.expands_reach());
            assert!(d.apply(&mut f), "{d} should change an empty set");
            assert!(!d.apply(&mut f), "{d} applied twice must be a no-op");
        }
        assert_eq!(f.len(), 4);
        for d in &inverses {
            assert!(d.expands_reach());
            assert!(d.apply(&mut f), "{d} should clear a recorded fault");
            assert!(!d.apply(&mut f), "{d} applied twice must be a no-op");
        }
        assert!(f.is_empty());
    }

    #[test]
    fn delta_cells_cover_cell_and_edge_variants_only() {
        let c = Coord::new(5, 6);
        let cells: Vec<_> = FaultDelta::BlockCell(c).cells().collect();
        assert_eq!(cells, vec![c]);
        let cells: Vec<_> = FaultDelta::UnblockEdge(Coord::new(1, 0), Coord::new(2, 0))
            .cells()
            .collect();
        assert_eq!(cells, vec![Coord::new(1, 0), Coord::new(2, 0)]);
        assert_eq!(
            FaultDelta::DisableFlowPort(FlowPortId(1)).cells().count(),
            0
        );
    }

    #[test]
    fn serde_roundtrip_preserves_the_set() {
        let mut f = FaultSet::new();
        f.block_cell(Coord::new(2, 3))
            .disable_flow_port(FlowPortId(1))
            .block_edge(Coord::new(4, 4), Coord::new(4, 5));
        let v = f.to_value();
        let back = FaultSet::from_value(&v).unwrap();
        assert_eq!(back, f);
    }
}
