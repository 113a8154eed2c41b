//! Grid partitioning for mega-chips: vertical cuts along low-traffic
//! columns, producing per-region sub-[`Chip`] views.
//!
//! A partition slices the grid into `K` column bands. Each band becomes a
//! [`Region`] carrying a full-dimension sub-chip view: cells outside the
//! band are blanked to [`CellKind::Empty`] and ports outside the band are
//! disabled through the region's [`FaultSet`](crate::FaultSet), while
//! coordinates, device ids, and port ids are all preserved. A path routed inside a region view
//! is therefore directly valid on the whole chip, and the view's lazily
//! computed [`PortReach`](crate::PortReach) is automatically per-region.
//!
//! Cut columns are chosen greedily: near the ideal balanced positions, the
//! boundary with the lowest *traffic estimate* wins. The estimate combines
//! the physical cut width (open channel crossings) with proximity of device
//! placements (where operations execute) and ports (where flows terminate)
//! — the structural proxies for how much fluid wants to cross a boundary.
//! A cut may never sever a device footprint: explicit cuts through one are
//! rejected with a typed [`PartitionError`], and the greedy search simply
//! skips such boundaries. When fewer viable cuts exist than requested, the
//! partition is clamped and flagged ([`Partition::clamped`]).

use std::fmt;

use crate::cellset::CellSet;
use crate::chip::{Chip, FlowPortId, WastePortId};
use crate::grid::{CellKind, Coord};

/// Minimum width (in columns) of a region. Narrower bands have no interior
/// to route in and only add stitching overhead.
pub const MIN_REGION_WIDTH: u16 = 4;

/// Failure modes of grid partitioning.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PartitionError {
    /// A requested cut column would sever a device footprint.
    CutThroughDevice {
        /// The cut column (the cut runs between `column - 1` and `column`).
        column: u16,
        /// Label of the severed device.
        device: String,
    },
    /// A requested cut column is outside the grid interior.
    CutOutOfRange {
        /// The offending column.
        column: u16,
        /// The grid width.
        width: u16,
    },
    /// Zero regions were requested.
    NoRegions,
}

impl fmt::Display for PartitionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PartitionError::CutThroughDevice { column, device } => write!(
                f,
                "cut at column {column} severs the footprint of device `{device}`"
            ),
            PartitionError::CutOutOfRange { column, width } => write!(
                f,
                "cut column {column} is outside the grid interior (width {width})"
            ),
            PartitionError::NoRegions => write!(f, "a partition needs at least one region"),
        }
    }
}

impl std::error::Error for PartitionError {}

/// One column band of a partition, with its sub-chip view.
#[derive(Debug, Clone)]
pub struct Region {
    /// Position of this region in the partition, left to right.
    pub index: usize,
    /// First column of the band (inclusive).
    pub x_lo: u16,
    /// Last column of the band (inclusive).
    pub x_hi: u16,
    chip: Chip,
    flow_ports: usize,
    waste_ports: usize,
}

impl Region {
    /// The region's sub-chip view: same grid dimensions and ids as the
    /// parent chip, cells outside the band blanked, ports outside the band
    /// disabled via the view's fault set (on top of the parent's faults).
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// `true` when `c` lies inside this band.
    pub fn contains(&self, c: Coord) -> bool {
        (self.x_lo..=self.x_hi).contains(&c.x)
    }

    /// Band width in columns.
    pub fn width(&self) -> u16 {
        self.x_hi - self.x_lo + 1
    }

    /// Enabled flow ports inside the band.
    pub fn flow_ports(&self) -> usize {
        self.flow_ports
    }

    /// Enabled waste ports inside the band.
    pub fn waste_ports(&self) -> usize {
        self.waste_ports
    }

    /// `true` when the region can route complete wash paths on its own: it
    /// has at least one enabled flow port *and* one enabled waste port.
    pub fn plannable(&self) -> bool {
        self.flow_ports > 0 && self.waste_ports > 0
    }
}

/// The explicit interface of one cut: the open channel crossings through
/// which fluid can pass between the two adjacent regions. These are the
/// "cut ports" a cross-boundary coordination step reasons over.
#[derive(Debug, Clone)]
pub struct CutInterface {
    /// The cut runs between columns `column - 1` and `column`.
    pub column: u16,
    /// Passable cell pairs `(left, right)` across the cut, top to bottom.
    pub channels: Vec<(Coord, Coord)>,
}

/// A chip sliced into column-band regions along low-traffic cuts.
#[derive(Debug, Clone)]
pub struct Partition {
    regions: Vec<Region>,
    interfaces: Vec<CutInterface>,
    requested: usize,
    clamped: bool,
}

impl Partition {
    /// The regions, left to right.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// The cut interfaces, left to right (one fewer than regions).
    pub fn interfaces(&self) -> &[CutInterface] {
        &self.interfaces
    }

    /// The chosen cut columns, ascending.
    pub fn cut_columns(&self) -> Vec<u16> {
        self.interfaces.iter().map(|i| i.column).collect()
    }

    /// How many regions were requested.
    pub fn requested(&self) -> usize {
        self.requested
    }

    /// `true` when fewer viable cuts existed than requested and the
    /// partition was clamped to fewer regions. Callers should surface this
    /// as a warning.
    pub fn clamped(&self) -> bool {
        self.clamped
    }

    /// Index of the region containing `c`.
    pub fn region_of(&self, c: Coord) -> usize {
        self.regions
            .iter()
            .position(|r| r.contains(c))
            .expect("every grid column belongs to exactly one band")
    }

    /// All cells participating in a cut interface, as a set.
    pub fn interface_cells(&self) -> CellSet {
        self.interfaces
            .iter()
            .flat_map(|i| i.channels.iter().flat_map(|&(a, b)| [a, b]))
            .collect()
    }
}

/// Per-boundary traffic estimate; entry `b - 1` scores the cut between
/// columns `b - 1` and `b`, for `b` in `1..width`.
///
/// The estimate is the physical cut width (open channel crossings) plus
/// proximity terms for device placements and enabled ports: a boundary next
/// to a device or a port will carry the flows that serve them, so cutting
/// there forces cross-region coordination. Pure function of the chip.
pub fn traffic_profile(chip: &Chip) -> Vec<f64> {
    let width = chip.grid().width();
    let mut traffic = vec![0.0f64; width.saturating_sub(1) as usize];
    for (i, t) in traffic.iter_mut().enumerate() {
        let b = (i + 1) as u16;
        *t = crossings(chip, b).len() as f64;
    }
    // Device placements: operations execute on devices, so boundaries near
    // a footprint see the result/excess flows of those operations.
    for d in chip.devices() {
        for &c in d.footprint() {
            for (i, t) in traffic.iter_mut().enumerate() {
                let b = (i + 1) as u16;
                let dx = if c.x < b { b - 1 - c.x } else { c.x - b };
                *t += 3.0 / (1.0 + dx as f64);
            }
        }
    }
    // Port positions: every flow starts at a flow port and ends at a waste
    // port, so boundaries near an enabled port see their traffic.
    let faults = chip.faults();
    let ports = chip
        .flow_ports()
        .enumerate()
        .filter(|&(i, _)| !faults.flow_port_disabled(FlowPortId(i as u32)))
        .map(|(_, c)| c)
        .chain(
            chip.waste_ports()
                .enumerate()
                .filter(|&(i, _)| !faults.waste_port_disabled(WastePortId(i as u32)))
                .map(|(_, c)| c),
        );
    for c in ports {
        for (i, t) in traffic.iter_mut().enumerate() {
            let b = (i + 1) as u16;
            let dx = if c.x < b { b - 1 - c.x } else { c.x - b };
            *t += 2.0 / (1.0 + dx as f64);
        }
    }
    traffic
}

/// The open channel crossings of the cut between columns `b - 1` and `b`:
/// adjacent cell pairs that are routable on both sides, not fault-blocked,
/// and whose joining edge is not stuck closed.
fn crossings(chip: &Chip, b: u16) -> Vec<(Coord, Coord)> {
    let grid = chip.grid();
    let faults = chip.faults();
    let mut out = Vec::new();
    for y in 0..grid.height() {
        let left = Coord::new(b - 1, y);
        let right = Coord::new(b, y);
        if grid.kind(left).is_routable()
            && grid.kind(right).is_routable()
            && !faults.cell_blocked(left)
            && !faults.cell_blocked(right)
            && !faults.edge_blocked(left, right)
        {
            out.push((left, right));
        }
    }
    out
}

/// Checks that a cut at `column` is structurally legal: inside the grid
/// interior and not through any device footprint.
///
/// # Errors
///
/// [`PartitionError::CutOutOfRange`] or
/// [`PartitionError::CutThroughDevice`].
pub fn check_cut(chip: &Chip, column: u16) -> Result<(), PartitionError> {
    let width = chip.grid().width();
    if column == 0 || column >= width {
        return Err(PartitionError::CutOutOfRange { column, width });
    }
    for d in chip.devices() {
        let left = d.footprint().iter().any(|c| c.x < column);
        let right = d.footprint().iter().any(|c| c.x >= column);
        if left && right {
            return Err(PartitionError::CutThroughDevice {
                column,
                device: d.label().to_string(),
            });
        }
    }
    Ok(())
}

/// Builds a partition from explicit cut columns (ascending order not
/// required; duplicates are ignored).
///
/// # Errors
///
/// [`PartitionError`] when a cut is out of range or severs a device
/// footprint.
pub fn cut_at(chip: &Chip, columns: &[u16]) -> Result<Partition, PartitionError> {
    let mut cuts: Vec<u16> = columns.to_vec();
    cuts.sort_unstable();
    cuts.dedup();
    for &c in &cuts {
        check_cut(chip, c)?;
    }
    Ok(assemble(chip, &cuts, cuts.len() + 1, false))
}

/// Cuts the chip into (up to) `k` regions along low-traffic boundaries
/// using the chip's own [`traffic_profile`].
///
/// # Errors
///
/// [`PartitionError::NoRegions`] when `k == 0`.
pub fn partition(chip: &Chip, k: usize) -> Result<Partition, PartitionError> {
    partition_with_traffic(chip, k, &[])
}

/// Like [`partition`], but adds `extra` (indexed like [`traffic_profile`];
/// shorter slices are zero-extended) onto the structural estimate — e.g.
/// observed path crossings of a concrete schedule.
///
/// # Errors
///
/// [`PartitionError::NoRegions`] when `k == 0`.
pub fn partition_with_traffic(
    chip: &Chip,
    k: usize,
    extra: &[f64],
) -> Result<Partition, PartitionError> {
    if k == 0 {
        return Err(PartitionError::NoRegions);
    }
    let width = chip.grid().width();
    let mut traffic = traffic_profile(chip);
    for (t, e) in traffic.iter_mut().zip(extra) {
        *t += e;
    }

    // Greedy min-traffic selection near the balanced ideal positions. Each
    // wanted cut searches a window around `width * i / k`; within the
    // window the viable boundary with the lowest traffic wins (ties to the
    // left). Windows that contain no viable boundary are skipped — that is
    // the clamp.
    let mut cuts: Vec<u16> = Vec::new();
    let span = (width as usize / k.max(1)) as i32;
    for i in 1..k {
        let ideal = (width as usize * i / k) as i32;
        let lo = (ideal - span / 2).max(1);
        let hi = (ideal + span / 2).min(width as i32 - 1);
        let floor = cuts.last().map_or(MIN_REGION_WIDTH as i32, |&c| {
            c as i32 + MIN_REGION_WIDTH as i32
        });
        let ceil = width as i32 - MIN_REGION_WIDTH as i32;
        let mut best: Option<(f64, u16)> = None;
        for b in lo.max(floor)..=hi.min(ceil) {
            let b = b as u16;
            if check_cut(chip, b).is_err() {
                continue;
            }
            let t = traffic[b as usize - 1];
            if best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, b));
            }
        }
        if let Some((_, b)) = best {
            cuts.push(b);
        }
    }
    let clamped = cuts.len() + 1 < k;
    Ok(assemble(chip, &cuts, k, clamped))
}

/// Assembles the partition from validated cut columns.
fn assemble(chip: &Chip, cuts: &[u16], requested: usize, clamped: bool) -> Partition {
    let width = chip.grid().width();
    let mut regions = Vec::with_capacity(cuts.len() + 1);
    let mut x_lo = 0u16;
    for (index, &cut) in cuts.iter().chain([&width]).enumerate() {
        let x_hi = cut - 1;
        regions.push(carve(chip, index, x_lo, x_hi));
        x_lo = cut;
    }
    let interfaces = cuts
        .iter()
        .map(|&column| CutInterface {
            column,
            channels: crossings(chip, column),
        })
        .collect();
    Partition {
        regions,
        interfaces,
        requested,
        clamped,
    }
}

/// Carves a standalone band view covering columns `x_lo..=x_hi` — the same
/// view a [`Region`] of a [`Partition`] gets, but over an arbitrary column
/// span. Partitioned planners use this to plan a cross-cut flow path on the
/// union of the bands it touches rather than the whole chip: the span keeps
/// full grid dimensions and stable cell/port ids, so paths found on it are
/// valid on the parent chip verbatim.
///
/// The returned [`Region`] is not part of any partition; its `index` is 0.
pub fn span_view(chip: &Chip, x_lo: u16, x_hi: u16) -> Region {
    carve(chip, 0, x_lo.min(x_hi), x_lo.max(x_hi))
}

/// Builds the sub-chip view for one band: out-of-band cells blanked (port
/// cells excepted — their ids must stay addressable), out-of-band ports
/// disabled through the fault set on top of the parent chip's faults.
fn carve(chip: &Chip, index: usize, x_lo: u16, x_hi: u16) -> Region {
    let in_band = |x: u16| (x_lo..=x_hi).contains(&x);
    let mut grid = chip.grid().clone();
    for c in chip.grid().coords() {
        if !in_band(c.x) && !matches!(grid.kind(c), CellKind::FlowPort(_) | CellKind::WastePort(_))
        {
            grid.set(c, CellKind::Empty);
        }
    }

    let mut faults = chip.faults().clone();
    let mut flow_ports = 0usize;
    let mut waste_ports = 0usize;
    for (i, c) in chip.flow_ports().enumerate() {
        let id = FlowPortId(i as u32);
        if !in_band(c.x) {
            faults.disable_flow_port(id);
        } else if !chip.faults().flow_port_disabled(id) {
            flow_ports += 1;
        }
    }
    for (i, c) in chip.waste_ports().enumerate() {
        let id = WastePortId(i as u32);
        if !in_band(c.x) {
            faults.disable_waste_port(id);
        } else if !chip.faults().waste_port_disabled(id) {
            waste_ports += 1;
        }
    }

    let view = Chip::from_parts(
        grid,
        chip.devices().to_vec(),
        chip.flow_port_entries().to_vec(),
        chip.waste_port_entries().to_vec(),
    );
    let chip = view
        .with_faults(faults)
        .expect("region faults reference the parent chip's own cells and ports");
    Region {
        index,
        x_lo,
        x_hi,
        chip,
        flow_ports,
        waste_ports,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ChipBuilder;
    use crate::device::DeviceKind;
    use crate::FaultSet;

    /// A 20×7 corridor chip: full channel fill, one device at (8..=10, 3),
    /// flow ports on the west/top, waste ports on the east/bottom.
    fn chip() -> Chip {
        let claimed = [
            Coord::new(0, 2),
            Coord::new(14, 0),
            Coord::new(19, 4),
            Coord::new(4, 6),
            Coord::new(8, 3),
            Coord::new(9, 3),
            Coord::new(10, 3),
        ];
        let mut b = ChipBuilder::new(20, 7)
            .flow_port("in1", Coord::new(0, 2))
            .unwrap()
            .flow_port("in2", Coord::new(14, 0))
            .unwrap()
            .waste_port("out1", Coord::new(19, 4))
            .unwrap()
            .waste_port("out2", Coord::new(4, 6))
            .unwrap()
            .device(
                DeviceKind::Mixer,
                "mixer1",
                Coord::new(8, 3),
                Coord::new(10, 3),
            )
            .unwrap();
        for y in 0..7 {
            for x in 0..20 {
                let c = Coord::new(x, y);
                if !claimed.contains(&c) {
                    b = b.channel(c).unwrap();
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn cut_through_device_is_a_typed_error() {
        let chip = chip();
        for column in [9, 10] {
            let err = cut_at(&chip, &[column]).unwrap_err();
            assert!(
                matches!(
                    &err,
                    PartitionError::CutThroughDevice { device, .. } if device == "mixer1"
                ),
                "column {column}: {err}"
            );
        }
        // Just past the footprint is fine.
        assert!(cut_at(&chip, &[11]).is_ok());
    }

    #[test]
    fn out_of_range_cut_is_rejected() {
        let chip = chip();
        assert!(matches!(
            cut_at(&chip, &[0]),
            Err(PartitionError::CutOutOfRange { .. })
        ));
        assert!(matches!(
            cut_at(&chip, &[20]),
            Err(PartitionError::CutOutOfRange { .. })
        ));
    }

    #[test]
    fn partition_clamps_when_k_exceeds_viable_cuts() {
        let chip = chip();
        let p = partition(&chip, 64).unwrap();
        assert!(p.clamped(), "64 regions cannot fit 20 columns");
        assert!(p.regions().len() < 64);
        assert_eq!(p.requested(), 64);
        assert!(!p.regions().is_empty());
    }

    #[test]
    fn traffic_overlay_moves_cuts_off_high_traffic_columns() {
        let chip = chip();
        let base = partition(&chip, 2).unwrap();
        let c0 = base.interfaces()[0].column;

        // An empty overlay is exactly the structural profile.
        let same = partition_with_traffic(&chip, 2, &[]).unwrap();
        assert_eq!(same.interfaces()[0].column, c0);

        // Pile observed crossings onto the structurally-chosen boundary
        // (index b-1 scores the cut between columns b-1 and b; shorter
        // overlays zero-extend). The cut must move to another viable,
        // min-width-respecting column.
        let mut extra = vec![0.0; c0 as usize];
        extra[c0 as usize - 1] = 1e6;
        let moved = partition_with_traffic(&chip, 2, &extra).unwrap();
        let c1 = moved.interfaces()[0].column;
        assert_ne!(c1, c0, "cut stayed on the high-traffic column");
        assert!(check_cut(&chip, c1).is_ok());
        for r in moved.regions() {
            assert!(r.width() >= MIN_REGION_WIDTH);
        }

        // Load the new column too: the pick keeps dodging hot columns.
        let mut extra2 = vec![0.0; c0.max(c1) as usize];
        extra2[c0 as usize - 1] = 1e6;
        extra2[c1 as usize - 1] = 1e6;
        let moved2 = partition_with_traffic(&chip, 2, &extra2).unwrap();
        let c2 = moved2.interfaces()[0].column;
        assert!(c2 != c0 && c2 != c1, "cut landed back on a hot column");

        // A uniform overlay shifts every boundary equally and changes
        // nothing (ties still resolve to the left).
        let uniform = partition_with_traffic(&chip, 2, &[7.5; 19]).unwrap();
        assert_eq!(uniform.interfaces()[0].column, c0);
    }

    #[test]
    fn zero_regions_is_rejected() {
        assert!(matches!(
            partition(&chip(), 0),
            Err(PartitionError::NoRegions)
        ));
    }

    #[test]
    fn single_region_partition_is_the_whole_chip_view() {
        let chip = chip();
        let p = partition(&chip, 1).unwrap();
        assert_eq!(p.regions().len(), 1);
        assert!(!p.clamped());
        assert!(p.interfaces().is_empty());
        let r = &p.regions()[0];
        assert_eq!((r.x_lo, r.x_hi), (0, 19));
        assert_eq!(r.chip().grid(), chip.grid());
        assert_eq!(r.chip().faults(), chip.faults());
    }

    #[test]
    fn regions_tile_the_grid_and_respect_min_width() {
        let chip = chip();
        let p = partition(&chip, 3).unwrap();
        assert_eq!(p.regions().len(), 3, "20 columns fit 3 regions");
        let mut next = 0u16;
        for r in p.regions() {
            assert_eq!(r.x_lo, next, "bands must tile without gaps");
            assert!(r.width() >= MIN_REGION_WIDTH);
            next = r.x_hi + 1;
        }
        assert_eq!(next, 20);
        for c in chip.grid().coords() {
            let i = p.region_of(c);
            assert!(p.regions()[i].contains(c));
        }
    }

    #[test]
    fn region_views_preserve_coordinates_and_disable_outside_ports() {
        let chip = chip();
        let p = cut_at(&chip, &[7, 13]).unwrap();
        let mid = &p.regions()[1];
        // In-band cells identical to the parent grid.
        for c in chip.grid().coords() {
            if mid.contains(c) {
                assert_eq!(mid.chip().grid().kind(c), chip.grid().kind(c), "{c}");
            } else if !matches!(
                chip.grid().kind(c),
                CellKind::FlowPort(_) | CellKind::WastePort(_)
            ) {
                assert_eq!(mid.chip().grid().kind(c), CellKind::Empty, "{c}");
            }
        }
        // The middle band holds in2 (x=14? no: x=14 is right band). It has
        // the device but no ports: out-of-band ports must be disabled.
        let f = mid.chip().faults();
        assert!(f.flow_port_disabled(FlowPortId(0)));
        assert!(f.waste_port_disabled(WastePortId(0)));
        assert!(!mid.plannable());
        // The left band keeps in1/out2 enabled.
        let left = &p.regions()[0];
        assert!(!left.chip().faults().flow_port_disabled(FlowPortId(0)));
        assert!(!left.chip().faults().waste_port_disabled(WastePortId(1)));
        assert!(left.plannable());
    }

    #[test]
    fn region_port_reach_is_confined_to_the_band() {
        let chip = chip();
        let p = cut_at(&chip, &[7]).unwrap();
        let left = &p.regions()[0];
        let reach = left.chip().port_reach();
        assert!(reach.washable(Coord::new(3, 3)));
        assert!(
            !reach.washable(Coord::new(15, 3)),
            "cells beyond the cut must be unreachable in the region view"
        );
    }

    #[test]
    fn interfaces_enumerate_open_crossings() {
        let chip = chip();
        let p = cut_at(&chip, &[7]).unwrap();
        assert_eq!(p.interfaces().len(), 1);
        let iface = &p.interfaces()[0];
        assert_eq!(iface.column, 7);
        // Full-fill chip: every row crosses.
        assert_eq!(iface.channels.len(), 7);
        for &(a, b) in &iface.channels {
            assert_eq!(a.x, 6);
            assert_eq!(b.x, 7);
            assert!(a.is_adjacent(b));
        }
        assert!(p.interface_cells().contains(Coord::new(6, 0)));
    }

    #[test]
    fn parent_faults_carry_into_region_views() {
        let base = chip();
        let mut faults = FaultSet::new();
        faults.block_cell(Coord::new(2, 2));
        let chip = base.with_faults(faults).unwrap();
        let p = cut_at(&chip, &[7]).unwrap();
        assert!(p.regions()[0]
            .chip()
            .faults()
            .cell_blocked(Coord::new(2, 2)));
        assert!(p.regions()[1]
            .chip()
            .faults()
            .cell_blocked(Coord::new(2, 2)));
    }

    #[test]
    fn traffic_prefers_quiet_boundaries() {
        let chip = chip();
        let t = traffic_profile(&chip);
        assert_eq!(t.len(), 19);
        // Boundaries through the device's columns see the device's traffic
        // contribution at full weight; a distant boundary sees less.
        assert!(t[8] > t[3]);
        // The greedy pick avoids the device: its cuts are viable.
        let p = partition(&chip, 2).unwrap();
        for c in p.cut_columns() {
            assert!(check_cut(&chip, c).is_ok());
        }
    }
}
