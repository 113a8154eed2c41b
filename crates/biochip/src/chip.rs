//! A validated chip architecture: grid, devices, and ports.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use crate::device::{Device, DeviceId};
use crate::error::ChipError;
use crate::fault::FaultSet;
use crate::grid::{CellKind, Coord, Grid};
use crate::path::FlowPath;
use crate::routing::{build_neighbor_table, PortReach, RouteScratch};

/// Identifier of a flow (inlet) port on a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowPortId(pub u32);

impl fmt::Display for FlowPortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "in{}", self.0)
    }
}

/// Identifier of a waste (outlet) port on a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WastePortId(pub u32);

impl fmt::Display for WastePortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "out{}", self.0)
    }
}

/// A labeled port location.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Port {
    pub label: String,
    pub coord: Coord,
}

/// A complete, validated chip architecture.
///
/// Constructed through [`ChipBuilder`](crate::ChipBuilder). A chip owns the
/// virtual grid, the placed devices, and the flow/waste ports, and offers
/// routing queries over the channel network.
#[derive(Debug, Clone)]
pub struct Chip {
    grid: Grid,
    devices: Vec<Device>,
    flow_ports: Vec<Port>,
    waste_ports: Vec<Port>,
    labels: HashMap<String, Coord>,
    /// Physical faults the chip currently suffers (empty on a pristine
    /// chip). Part of the chip's identity: routing, path validation, and
    /// equality all consult it.
    faults: FaultSet,
    /// Lazily computed port reachability fields (see [`PortReach`]). Not
    /// part of the chip's identity: excluded from equality and
    /// serialization.
    reach: OnceLock<PortReach>,
    /// Lazily built per-cell neighbor bytes (see [`build_neighbor_table`]),
    /// excluded from identity like `reach`.
    neighbor_table: OnceLock<Vec<u8>>,
}

impl PartialEq for Chip {
    fn eq(&self, other: &Self) -> bool {
        self.grid == other.grid
            && self.devices == other.devices
            && self.flow_ports == other.flow_ports
            && self.waste_ports == other.waste_ports
            && self.labels == other.labels
            && self.faults == other.faults
    }
}

// Manual impls (the derive would serialize the `reach` cache): same wire
// format as the former derive — an object with the persistent fields in
// declaration order. The `faults` field is emitted only when non-empty and
// tolerated as absent, so pristine chips keep the pre-fault wire format in
// both directions.
impl Serialize for Chip {
    fn serialize<S: serde::Sink + ?Sized>(&self, out: &mut S) {
        let faults = !self.faults.is_empty();
        out.map(5 + usize::from(faults));
        out.key("grid");
        self.grid.serialize(out);
        out.key("devices");
        self.devices.serialize(out);
        out.key("flow_ports");
        self.flow_ports.serialize(out);
        out.key("waste_ports");
        self.waste_ports.serialize(out);
        out.key("labels");
        self.labels.serialize(out);
        if faults {
            out.key("faults");
            self.faults.serialize(out);
        }
    }
}

impl Deserialize for Chip {
    fn deserialize<S: serde::Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        const FIELDS: [&str; 6] = [
            "grid",
            "devices",
            "flow_ports",
            "waste_ports",
            "labels",
            "faults",
        ];
        let len = src.map().map_err(|e| e.context("Chip"))?;
        let (mut grid, mut devices, mut flow_ports, mut waste_ports, mut labels, mut faults) =
            (None, None, None, None, None, None);
        for _ in 0..len {
            let i = src.field(&FIELDS)?;
            let at = |e: serde::Error| e.context(format_args!("Chip.{}", FIELDS[i]));
            match i {
                0 if grid.is_none() => grid = Some(Grid::deserialize(src).map_err(at)?),
                1 if devices.is_none() => devices = Some(Vec::deserialize(src).map_err(at)?),
                2 if flow_ports.is_none() => flow_ports = Some(Vec::deserialize(src).map_err(at)?),
                3 if waste_ports.is_none() => {
                    waste_ports = Some(Vec::deserialize(src).map_err(at)?)
                }
                4 if labels.is_none() => labels = Some(Deserialize::deserialize(src).map_err(at)?),
                5 if faults.is_none() => faults = Some(FaultSet::deserialize(src).map_err(at)?),
                _ => src.skip()?,
            }
        }
        Ok(Chip {
            grid: grid.map_or_else(|| serde::missing("Chip", "grid"), Ok)?,
            devices: devices.map_or_else(|| serde::missing("Chip", "devices"), Ok)?,
            flow_ports: flow_ports.map_or_else(|| serde::missing("Chip", "flow_ports"), Ok)?,
            waste_ports: waste_ports.map_or_else(|| serde::missing("Chip", "waste_ports"), Ok)?,
            labels: labels.map_or_else(|| serde::missing("Chip", "labels"), Ok)?,
            faults: faults.unwrap_or_default(),
            reach: OnceLock::new(),
            neighbor_table: OnceLock::new(),
        })
    }
}

thread_local! {
    /// Per-thread scratch backing the allocation-free `route`/`route_via`
    /// wrappers; rebuilt only when the grid size changes.
    static SCRATCH: RefCell<Option<RouteScratch>> = const { RefCell::new(None) };
}

impl Chip {
    pub(crate) fn from_parts(
        grid: Grid,
        devices: Vec<Device>,
        flow_ports: Vec<Port>,
        waste_ports: Vec<Port>,
    ) -> Self {
        let mut labels = HashMap::new();
        for p in flow_ports.iter().chain(waste_ports.iter()) {
            labels.insert(p.label.clone(), p.coord);
        }
        for d in &devices {
            labels.insert(d.label().to_string(), d.inlet_end());
        }
        Self {
            grid,
            devices,
            flow_ports,
            waste_ports,
            labels,
            faults: FaultSet::default(),
            reach: OnceLock::new(),
            neighbor_table: OnceLock::new(),
        }
    }

    /// A copy of this chip carrying `faults`, replacing any existing fault
    /// set. The routing caches (reachability fields and neighbor table)
    /// are rebuilt lazily against the faulted topology.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::BadFault`] when a fault references a
    /// coordinate outside the grid, a port id the chip does not have, or an
    /// edge between non-adjacent cells.
    pub fn with_faults(&self, faults: FaultSet) -> Result<Chip, ChipError> {
        for &c in faults.blocked_cells() {
            if !self.grid.contains(c) {
                return Err(ChipError::BadFault {
                    reason: format!("blocked cell {c} lies outside the grid"),
                });
            }
        }
        for id in faults.disabled_flow_ports() {
            if id.0 as usize >= self.flow_ports.len() {
                return Err(ChipError::BadFault {
                    reason: format!("disabled flow port {id} does not exist"),
                });
            }
        }
        for id in faults.disabled_waste_ports() {
            if id.0 as usize >= self.waste_ports.len() {
                return Err(ChipError::BadFault {
                    reason: format!("disabled waste port {id} does not exist"),
                });
            }
        }
        for &(a, b) in faults.blocked_edges() {
            if !self.grid.contains(a) || !self.grid.contains(b) || !a.is_adjacent(b) {
                return Err(ChipError::BadFault {
                    reason: format!("blocked edge {a}–{b} does not join adjacent grid cells"),
                });
            }
        }
        Ok(Chip {
            grid: self.grid.clone(),
            devices: self.devices.clone(),
            flow_ports: self.flow_ports.clone(),
            waste_ports: self.waste_ports.clone(),
            labels: self.labels.clone(),
            faults,
            reach: OnceLock::new(),
            neighbor_table: OnceLock::new(),
        })
    }

    /// The labeled flow-port entries (for intra-crate views that must
    /// preserve port identity, e.g. [`partition`](crate::partition)).
    pub(crate) fn flow_port_entries(&self) -> &[Port] {
        &self.flow_ports
    }

    /// The labeled waste-port entries (see
    /// [`flow_port_entries`](Self::flow_port_entries)).
    pub(crate) fn waste_port_entries(&self) -> &[Port] {
        &self.waste_ports
    }

    /// The chip's current fault set (empty on a pristine chip).
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// The underlying virtual grid.
    pub fn grid(&self) -> &Grid {
        &self.grid
    }

    /// All placed devices, indexed by [`DeviceId`].
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Looks up a device by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this chip.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Looks up a device by id, returning `None` when `id` does not belong
    /// to this chip — the fallible twin of [`device`](Self::device) for
    /// callers replaying untrusted or malformed schedules.
    pub fn try_device(&self, id: DeviceId) -> Option<&Device> {
        self.devices.get(id.0 as usize)
    }

    /// Coordinates of all flow ports, indexed by [`FlowPortId`].
    pub fn flow_ports(&self) -> impl ExactSizeIterator<Item = Coord> + '_ {
        self.flow_ports.iter().map(|p| p.coord)
    }

    /// Coordinates of all waste ports, indexed by [`WastePortId`].
    pub fn waste_ports(&self) -> impl ExactSizeIterator<Item = Coord> + '_ {
        self.waste_ports.iter().map(|p| p.coord)
    }

    /// Coordinate of the flow port `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this chip.
    pub fn flow_port(&self, id: FlowPortId) -> Coord {
        self.flow_ports[id.0 as usize].coord
    }

    /// Coordinate of the flow port `id`, or `None` when the chip has no
    /// such port — the fallible twin of [`flow_port`](Self::flow_port).
    pub fn try_flow_port(&self, id: FlowPortId) -> Option<Coord> {
        self.flow_ports.get(id.0 as usize).map(|p| p.coord)
    }

    /// Coordinate of the waste port `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this chip.
    pub fn waste_port(&self, id: WastePortId) -> Coord {
        self.waste_ports[id.0 as usize].coord
    }

    /// Coordinate of the waste port `id`, or `None` when the chip has no
    /// such port — the fallible twin of [`waste_port`](Self::waste_port).
    pub fn try_waste_port(&self, id: WastePortId) -> Option<Coord> {
        self.waste_ports.get(id.0 as usize).map(|p| p.coord)
    }

    /// Resolves a port or device label to its anchor coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`ChipError::UnknownLabel`] if no port or device carries the
    /// label.
    pub fn locate(&self, label: &str) -> Result<Coord, ChipError> {
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| ChipError::UnknownLabel {
                label: label.to_string(),
            })
    }

    /// Returns a short display label for a coordinate: a port/device label if
    /// one is anchored there, otherwise `s(x,y)` for channels.
    pub fn describe(&self, c: Coord) -> String {
        match self.grid.get(c) {
            Some(CellKind::FlowPort(id)) => self.flow_ports[id.0 as usize].label.clone(),
            Some(CellKind::WastePort(id)) => self.waste_ports[id.0 as usize].label.clone(),
            Some(CellKind::Device(id)) => self.devices[id.0 as usize].label().to_string(),
            _ => format!("s({},{})", c.x, c.y),
        }
    }

    /// Returns `true` if a fluid may traverse `c` on a path whose endpoints
    /// are `src` and `dst`.
    ///
    /// Ports other than the endpoints are impassable: fluid entering another
    /// inlet's tubing or a closed outlet is physically meaningless. Faulted
    /// cells and disabled ports are impassable outright.
    pub(crate) fn passable(&self, c: Coord, src: Coord, dst: Coord) -> bool {
        if self.faults.cell_blocked(c) {
            return false;
        }
        match self.grid.get(c) {
            None | Some(CellKind::Empty) => false,
            Some(CellKind::Channel) | Some(CellKind::Device(_)) => true,
            Some(CellKind::FlowPort(id)) => {
                (c == src || c == dst) && !self.faults.flow_port_disabled(id)
            }
            Some(CellKind::WastePort(id)) => {
                (c == src || c == dst) && !self.faults.waste_port_disabled(id)
            }
        }
    }

    /// Returns `true` if fluid may cross between the adjacent cells `a` and
    /// `b` — i.e. no stuck-closed valve sits on that edge.
    pub(crate) fn edge_passable(&self, a: Coord, b: Coord) -> bool {
        !self.faults.edge_blocked(a, b)
    }

    /// BFS shortest path from `from` to `to` over routable cells, avoiding
    /// `blocked` cells. Returns the full cell sequence including endpoints,
    /// or `None` if unreachable.
    ///
    /// Backed by a per-thread [`RouteScratch`]; hot loops that probe many
    /// endpoint pairs against one blocked set should hold their own scratch
    /// and call [`route_with`](Self::route_with) instead.
    pub fn route(&self, from: Coord, to: Coord, blocked: &[Coord]) -> Option<Vec<Coord>> {
        self.with_scratch(|chip, scratch| {
            scratch.load_blocked(blocked.iter().copied());
            chip.route_with(scratch, from, to)
        })
    }

    /// Routes a simple path `from → via[0] → via[1] → … → to`, visiting the
    /// via cells in order without revisiting any cell.
    ///
    /// Each leg is routed by BFS with all previously used cells blocked; the
    /// construction is greedy, so `None` does not prove that no such simple
    /// path exists — callers enumerate several via-orders.
    pub fn route_via(
        &self,
        from: Coord,
        via: &[Coord],
        to: Coord,
        blocked: &[Coord],
    ) -> Option<Vec<Coord>> {
        self.with_scratch(|chip, scratch| {
            scratch.load_blocked(blocked.iter().copied());
            chip.route_via_with(scratch, from, via, to)
        })
    }

    /// Routes `from → via… → tos[i]` for every `tos[i]` (port cells when
    /// more than one), avoiding `blocked` cells, and hands each path found
    /// to `each(i, path)` in `tos` order until it returns `true`. Each path
    /// is the one [`route_via`](Self::route_via) returns for that `to`, lent
    /// as a slice; the legs through `via` are routed once. See
    /// [`route_via_fan_with`](Self::route_via_fan_with).
    ///
    /// Backed by the same per-thread scratch as `route_via`, so `each` must
    /// not route on this thread.
    pub fn route_via_fan(
        &self,
        from: Coord,
        via: &[Coord],
        tos: &[Coord],
        blocked: &[Coord],
        each: impl FnMut(usize, &[Coord]) -> bool,
    ) {
        self.with_scratch(|chip, scratch| {
            scratch.load_blocked(blocked.iter().copied());
            chip.route_via_fan_with(scratch, from, via, tos, each)
        })
    }

    fn with_scratch<R>(&self, f: impl FnOnce(&Chip, &mut RouteScratch) -> R) -> R {
        SCRATCH.with(|slot| {
            let mut slot = slot.borrow_mut();
            if slot.as_ref().is_none_or(|s| !s.fits(self)) {
                *slot = Some(RouteScratch::for_chip(self));
            }
            f(self, slot.as_mut().expect("scratch just installed"))
        })
    }

    /// Cached unblocked reachability fields from every flow and waste port,
    /// computed on first use (the chip is immutable, so the cache never
    /// goes stale).
    pub fn port_reach(&self) -> &PortReach {
        self.reach.get_or_init(|| PortReach::compute(self))
    }

    /// The routing table: one byte per cell saying which neighbors a
    /// route may step to from it (see [`build_neighbor_table`]), built on
    /// first use.
    pub(crate) fn neighbor_table(&self) -> &[u8] {
        self.neighbor_table
            .get_or_init(|| build_neighbor_table(self))
    }

    /// Pre-populates the lazy reachability cache, e.g. with fields carried
    /// forward from a pre-delta chip via [`PortReach::carry_forward`]. A
    /// no-op if [`port_reach`](Self::port_reach) already ran. The seeded
    /// fields must equal what `PortReach::compute` would produce for this
    /// chip — `carry_forward` guarantees exactly that.
    pub fn seed_reach(&self, reach: PortReach) {
        let _ = self.reach.set(reach);
    }

    /// Validates that `path` is a complete flow path on this chip: it starts
    /// at an enabled flow port, ends at an enabled waste port, every interior
    /// cell is a channel or device cell (no intermediate port, no empty
    /// cell), and no cell or edge of the path is faulted.
    ///
    /// # Errors
    ///
    /// Returns the first [`PathValidationError`] encountered, scanning
    /// source, sink, interior cells, then faults along the path in order.
    pub fn validate_path(&self, path: &FlowPath) -> Result<(), PathValidationError> {
        let cells = path.cells();
        match self.grid.get(path.source()) {
            Some(CellKind::FlowPort(id)) => {
                if self.faults.flow_port_disabled(id) {
                    return Err(PathValidationError::DisabledPort(path.source()));
                }
            }
            _ => return Err(PathValidationError::SourceNotFlowPort(path.source())),
        }
        match self.grid.get(path.sink()) {
            Some(CellKind::WastePort(id)) => {
                if self.faults.waste_port_disabled(id) {
                    return Err(PathValidationError::DisabledPort(path.sink()));
                }
            }
            _ => return Err(PathValidationError::SinkNotWastePort(path.sink())),
        }
        for &c in &cells[1..cells.len() - 1] {
            match self.grid.get(c) {
                Some(CellKind::Channel) | Some(CellKind::Device(_)) => {}
                _ => return Err(PathValidationError::BadInterior(c)),
            }
        }
        if !self.faults.is_empty() {
            for &c in cells {
                if self.faults.cell_blocked(c) {
                    return Err(PathValidationError::FaultedCell(c));
                }
            }
            for w in cells.windows(2) {
                if self.faults.edge_blocked(w[0], w[1]) {
                    return Err(PathValidationError::FaultedEdge(w[0], w[1]));
                }
            }
        }
        Ok(())
    }
}

/// Why a path is not a valid complete flow path on a chip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PathValidationError {
    /// The first cell is not a flow port.
    SourceNotFlowPort(Coord),
    /// The last cell is not a waste port.
    SinkNotWastePort(Coord),
    /// An interior cell is empty, off-grid, or a port.
    BadInterior(Coord),
    /// A cell on the path is blocked by a chip fault.
    FaultedCell(Coord),
    /// The path crosses a stuck-closed valve between two adjacent cells.
    FaultedEdge(Coord, Coord),
    /// A path endpoint is a disabled port.
    DisabledPort(Coord),
}

impl fmt::Display for PathValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathValidationError::SourceNotFlowPort(c) => {
                write!(f, "path source {c} is not a flow port")
            }
            PathValidationError::SinkNotWastePort(c) => {
                write!(f, "path sink {c} is not a waste port")
            }
            PathValidationError::BadInterior(c) => {
                write!(f, "interior cell {c} is not a channel or device cell")
            }
            PathValidationError::FaultedCell(c) => {
                write!(f, "path cell {c} is blocked by a chip fault")
            }
            PathValidationError::FaultedEdge(a, b) => {
                write!(f, "path crosses a stuck-closed valve between {a} and {b}")
            }
            PathValidationError::DisabledPort(c) => {
                write!(f, "path endpoint {c} is a disabled port")
            }
        }
    }
}

impl std::error::Error for PathValidationError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChipBuilder;
    use crate::device::DeviceKind;

    /// An 8x8 chip with a horizontal channel from in1 (0,3) to out1 (7,3)
    /// through a 2-cell mixer, plus a dead-end stub at (3,1)-(3,2).
    fn chip() -> Chip {
        ChipBuilder::new(8, 8)
            .flow_port("in1", Coord::new(0, 3))
            .unwrap()
            .waste_port("out1", Coord::new(7, 3))
            .unwrap()
            .device(
                DeviceKind::Mixer,
                "mixer",
                Coord::new(3, 3),
                Coord::new(4, 3),
            )
            .unwrap()
            .channel(Coord::new(1, 3))
            .unwrap()
            .channel(Coord::new(2, 3))
            .unwrap()
            .channel(Coord::new(5, 3))
            .unwrap()
            .channel(Coord::new(6, 3))
            .unwrap()
            .channel(Coord::new(3, 2))
            .unwrap()
            .channel(Coord::new(3, 1))
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn route_finds_shortest_path() {
        let c = chip();
        let p = c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap();
        assert_eq!(p.len(), 8);
        assert_eq!(p[0], Coord::new(0, 3));
        assert_eq!(p[7], Coord::new(7, 3));
    }

    #[test]
    fn route_respects_blocked_cells() {
        let c = chip();
        // Blocking the only corridor makes the sink unreachable.
        let blocked = [Coord::new(2, 3)];
        assert!(c
            .route(Coord::new(0, 3), Coord::new(7, 3), &blocked)
            .is_none());
    }

    #[test]
    fn route_does_not_cross_foreign_ports() {
        let c = ChipBuilder::new(5, 1)
            .flow_port("in1", Coord::new(0, 0))
            .unwrap()
            .waste_port("mid", Coord::new(2, 0))
            .unwrap()
            .waste_port("out", Coord::new(4, 0))
            .unwrap()
            .channel(Coord::new(1, 0))
            .unwrap()
            .channel(Coord::new(3, 0))
            .unwrap()
            .build()
            .unwrap();
        // Route to the far port would have to pass through the mid port.
        assert!(c.route(Coord::new(0, 0), Coord::new(4, 0), &[]).is_none());
        // Route to the mid port itself is fine.
        assert!(c.route(Coord::new(0, 0), Coord::new(2, 0), &[]).is_some());
    }

    #[test]
    fn route_via_visits_stops_in_order() {
        let c = chip();
        let p = c
            .route_via(Coord::new(0, 3), &[Coord::new(3, 3)], Coord::new(7, 3), &[])
            .unwrap();
        let path = FlowPath::new(p).expect("route_via returns a simple path");
        assert!(path.contains(Coord::new(3, 3)));
        assert_eq!(path.source(), Coord::new(0, 3));
        assert_eq!(path.sink(), Coord::new(7, 3));
    }

    #[test]
    fn route_via_fails_when_stop_forces_revisit() {
        let c = chip();
        // Going out to the stub tip and back would revisit (3,2)/(3,3).
        let p = c.route_via(Coord::new(0, 3), &[Coord::new(3, 1)], Coord::new(7, 3), &[]);
        assert!(p.is_none());
    }

    #[test]
    fn validate_path_checks_endpoints_and_interior() {
        let c = chip();
        let good =
            FlowPath::new(c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap()).unwrap();
        assert!(c.validate_path(&good).is_ok());

        let bad_src = FlowPath::new(vec![Coord::new(1, 3), Coord::new(2, 3)]).unwrap();
        assert_eq!(
            c.validate_path(&bad_src),
            Err(PathValidationError::SourceNotFlowPort(Coord::new(1, 3)))
        );
    }

    #[test]
    fn locate_and_describe() {
        let c = chip();
        assert_eq!(c.locate("in1").unwrap(), Coord::new(0, 3));
        assert_eq!(c.locate("mixer").unwrap(), Coord::new(3, 3));
        assert!(c.locate("nope").is_err());
        assert_eq!(c.describe(Coord::new(0, 3)), "in1");
        assert_eq!(c.describe(Coord::new(1, 3)), "s(1,3)");
        assert_eq!(c.describe(Coord::new(4, 3)), "mixer");
    }

    #[test]
    fn same_source_and_sink_routes_to_single_cell() {
        let c = chip();
        let p = c.route(Coord::new(0, 3), Coord::new(0, 3), &[]).unwrap();
        assert_eq!(p, vec![Coord::new(0, 3)]);
    }

    #[test]
    fn faulted_cell_is_routed_around_or_fails() {
        let c = chip();
        let mut faults = crate::FaultSet::new();
        // The corridor is the only route; clogging it severs the chip.
        faults.block_cell(Coord::new(2, 3));
        let f = c.with_faults(faults).unwrap();
        assert!(f.route(Coord::new(0, 3), Coord::new(7, 3), &[]).is_none());
        // The pristine chip still routes — `with_faults` did not mutate it.
        assert!(c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).is_some());
        assert_ne!(f, c);
    }

    #[test]
    fn stuck_valve_blocks_the_edge_but_not_the_cells() {
        let c = chip();
        let mut faults = crate::FaultSet::new();
        faults.block_edge(Coord::new(1, 3), Coord::new(2, 3));
        let f = c.with_faults(faults).unwrap();
        // The edge is the only way across; routing fails…
        assert!(f.route(Coord::new(0, 3), Coord::new(7, 3), &[]).is_none());
        // …but both endpoint cells remain individually reachable.
        assert!(f.route(Coord::new(0, 3), Coord::new(1, 3), &[]).is_some());
        assert!(f.route(Coord::new(2, 3), Coord::new(7, 3), &[]).is_some());
    }

    #[test]
    fn disabled_port_rejects_paths_and_routing() {
        let c = chip();
        let mut faults = crate::FaultSet::new();
        faults.disable_flow_port(FlowPortId(0));
        let f = c.with_faults(faults).unwrap();
        assert!(f.route(Coord::new(0, 3), Coord::new(7, 3), &[]).is_none());
        let good =
            FlowPath::new(c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap()).unwrap();
        assert_eq!(
            f.validate_path(&good),
            Err(PathValidationError::DisabledPort(Coord::new(0, 3)))
        );
    }

    #[test]
    fn validate_path_reports_faulted_cells_and_edges() {
        let c = chip();
        let good =
            FlowPath::new(c.route(Coord::new(0, 3), Coord::new(7, 3), &[]).unwrap()).unwrap();

        let mut cell_fault = crate::FaultSet::new();
        cell_fault.block_cell(Coord::new(2, 3));
        let f = c.with_faults(cell_fault).unwrap();
        assert_eq!(
            f.validate_path(&good),
            Err(PathValidationError::FaultedCell(Coord::new(2, 3)))
        );

        let mut edge_fault = crate::FaultSet::new();
        edge_fault.block_edge(Coord::new(2, 3), Coord::new(1, 3));
        let f = c.with_faults(edge_fault).unwrap();
        assert_eq!(
            f.validate_path(&good),
            Err(PathValidationError::FaultedEdge(
                Coord::new(1, 3),
                Coord::new(2, 3)
            ))
        );
    }

    #[test]
    fn with_faults_rejects_nonsense() {
        let c = chip();
        let mut oob = crate::FaultSet::new();
        oob.block_cell(Coord::new(99, 99));
        assert!(matches!(
            c.with_faults(oob),
            Err(ChipError::BadFault { .. })
        ));
        let mut bad_port = crate::FaultSet::new();
        bad_port.disable_flow_port(FlowPortId(9));
        assert!(matches!(
            c.with_faults(bad_port),
            Err(ChipError::BadFault { .. })
        ));
        let mut bad_edge = crate::FaultSet::new();
        bad_edge.block_edge(Coord::new(0, 0), Coord::new(2, 0));
        assert!(matches!(
            c.with_faults(bad_edge),
            Err(ChipError::BadFault { .. })
        ));
    }

    #[test]
    fn faulted_chip_serde_roundtrip_keeps_faults() {
        use serde::{Deserialize, Serialize};
        let c = chip();
        // Pristine chips keep the pre-fault wire format: no `faults` key.
        let v = c.to_value();
        if let serde::Value::Object(fields) = &v {
            assert!(fields.iter().all(|(k, _)| k != "faults"));
        } else {
            panic!("chip serializes to an object");
        }
        assert_eq!(Chip::from_value(&v).unwrap(), c);

        let mut faults = crate::FaultSet::new();
        faults
            .block_cell(Coord::new(3, 1))
            .block_edge(Coord::new(1, 3), Coord::new(2, 3))
            .disable_flow_port(FlowPortId(0));
        let f = c.with_faults(faults).unwrap();
        let back = Chip::from_value(&f.to_value()).unwrap();
        assert_eq!(back, f);
        assert!(back.faults().cell_blocked(Coord::new(3, 1)));
    }

    #[test]
    fn try_lookups_mirror_the_panicking_accessors() {
        let c = chip();
        assert_eq!(
            c.try_flow_port(FlowPortId(0)),
            Some(c.flow_port(FlowPortId(0)))
        );
        assert_eq!(
            c.try_waste_port(WastePortId(0)),
            Some(c.waste_port(WastePortId(0)))
        );
        assert_eq!(
            c.try_device(crate::DeviceId(0)).map(|d| d.label()),
            Some(c.device(crate::DeviceId(0)).label())
        );
        assert_eq!(c.try_flow_port(FlowPortId(7)), None);
        assert_eq!(c.try_waste_port(WastePortId(7)), None);
        assert!(c.try_device(crate::DeviceId(42)).is_none());
    }
}
