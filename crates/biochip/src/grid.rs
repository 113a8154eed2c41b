//! The virtual grid `R` and its cells.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::device::DeviceId;
use crate::{FlowPortId, WastePortId};

/// A coordinate on the virtual grid.
///
/// `x` grows to the right, `y` grows downward. Coordinates are compared
/// lexicographically by `(y, x)` so that iteration order matches row-major
/// grid order.
///
/// A coordinate serializes as one unsigned word, `x | y << 16`, and reads
/// back through a range-checked `u32`, so every word that fits is a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    /// Column index.
    pub x: u16,
    /// Row index.
    pub y: u16,
}

impl Coord {
    /// Creates a coordinate from column and row indices.
    pub const fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to `other`, in cells.
    pub fn manhattan(self, other: Coord) -> u32 {
        let dx = (self.x as i32 - other.x as i32).unsigned_abs();
        let dy = (self.y as i32 - other.y as i32).unsigned_abs();
        dx + dy
    }

    /// Returns `true` if `other` is 4-connected adjacent to `self`.
    pub fn is_adjacent(self, other: Coord) -> bool {
        self.manhattan(other) == 1
    }
}

impl Serialize for Coord {
    fn serialize<S: serde::Sink + ?Sized>(&self, out: &mut S) {
        (u32::from(self.x) | u32::from(self.y) << 16).serialize(out);
    }
}

impl Deserialize for Coord {
    fn deserialize<S: serde::Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let word = u32::deserialize(src).map_err(|e| e.context("Coord"))?;
        Ok(Coord::new(word as u16, (word >> 16) as u16))
    }
}

impl PartialOrd for Coord {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Coord {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.y, self.x).cmp(&(other.y, other.x))
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// What occupies a single grid cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CellKind {
    /// Unused chip area; fluids cannot traverse it.
    #[default]
    Empty,
    /// An etched flow channel segment.
    Channel,
    /// Part of the footprint of a placed device.
    Device(DeviceId),
    /// A fluid inlet connected to an external reservoir/pump.
    FlowPort(FlowPortId),
    /// A fluid outlet releasing waste fluids and displaced air.
    WastePort(WastePortId),
}

impl CellKind {
    /// Returns `true` if a fluid plug can traverse this cell.
    pub fn is_routable(self) -> bool {
        !matches!(self, CellKind::Empty)
    }

    /// Returns `true` if residue can be left behind on this cell.
    ///
    /// Ports are connected to external tubing and are not considered
    /// contaminated by on-chip flows.
    pub fn can_hold_residue(self) -> bool {
        matches!(self, CellKind::Channel | CellKind::Device(_))
    }
}

/// The `(dx, dy)` steps to a cell's four neighbors, in the order
/// [`Grid::neighbors`] yields them (+x, −x, +y, −y) and routing expands them.
pub(crate) const NEIGHBOR_DELTAS: [(i32, i32); 4] = [(1, 0), (-1, 0), (0, 1), (0, -1)];

/// The virtual grid `R` of size `W_G × H_G`.
///
/// Devices and channels are placed on the cells of the grid; routing is
/// 4-connected.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Grid {
    width: u16,
    height: u16,
    cells: Vec<CellKind>,
}

impl Grid {
    /// Creates an all-[`CellKind::Empty`] grid.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "grid dimensions must be nonzero");
        Self {
            width,
            height,
            cells: vec![CellKind::Empty; width as usize * height as usize],
        }
    }

    /// Grid width (number of columns).
    pub fn width(&self) -> u16 {
        self.width
    }

    /// Grid height (number of rows).
    pub fn height(&self) -> u16 {
        self.height
    }

    /// Returns `true` if `c` lies inside the grid.
    pub fn contains(&self, c: Coord) -> bool {
        c.x < self.width && c.y < self.height
    }

    fn index(&self, c: Coord) -> usize {
        debug_assert!(self.contains(c));
        c.y as usize * self.width as usize + c.x as usize
    }

    /// Returns the kind of cell at `c`, or `None` if out of bounds.
    pub fn get(&self, c: Coord) -> Option<CellKind> {
        self.contains(c).then(|| self.cells[self.index(c)])
    }

    /// Returns the kind of cell at `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn kind(&self, c: Coord) -> CellKind {
        self.cells[self.index(c)]
    }

    /// Sets the kind of cell at `c`, returning the previous kind.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of bounds.
    pub fn set(&mut self, c: Coord, kind: CellKind) -> CellKind {
        let i = self.index(c);
        std::mem::replace(&mut self.cells[i], kind)
    }

    /// The 4-connected in-bounds neighbors of `c`, in +x, −x, +y, −y
    /// order.
    pub fn neighbors(&self, c: Coord) -> impl Iterator<Item = Coord> + '_ {
        NEIGHBOR_DELTAS.into_iter().filter_map(move |(dx, dy)| {
            let x = c.x as i32 + dx;
            let y = c.y as i32 + dy;
            if x >= 0 && y >= 0 {
                let n = Coord::new(x as u16, y as u16);
                self.contains(n).then_some(n)
            } else {
                None
            }
        })
    }

    /// Iterates over all coordinates in row-major order.
    pub fn coords(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.height).flat_map(move |y| (0..self.width).map(move |x| Coord::new(x, y)))
    }

    /// Iterates over `(coord, kind)` pairs of all non-empty cells.
    pub fn occupied(&self) -> impl Iterator<Item = (Coord, CellKind)> + '_ {
        self.coords()
            .map(move |c| (c, self.kind(c)))
            .filter(|(_, k)| k.is_routable())
    }

    /// Number of non-empty cells.
    pub fn occupied_count(&self) -> usize {
        self.cells.iter().filter(|k| k.is_routable()).count()
    }
}

impl fmt::Display for Grid {
    /// Renders the grid as ASCII art: `.` empty, `-` channel, `D` device,
    /// `I` flow port, `O` waste port.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for y in 0..self.height {
            for x in 0..self.width {
                let ch = match self.kind(Coord::new(x, y)) {
                    CellKind::Empty => '.',
                    CellKind::Channel => '-',
                    CellKind::Device(_) => 'D',
                    CellKind::FlowPort(_) => 'I',
                    CellKind::WastePort(_) => 'O',
                };
                write!(f, "{ch}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_manhattan_and_adjacency() {
        let a = Coord::new(2, 3);
        let b = Coord::new(4, 0);
        assert_eq!(a.manhattan(b), 5);
        assert_eq!(b.manhattan(a), 5);
        assert!(a.is_adjacent(Coord::new(2, 4)));
        assert!(a.is_adjacent(Coord::new(1, 3)));
        assert!(!a.is_adjacent(a));
        assert!(!a.is_adjacent(Coord::new(3, 4)));
    }

    #[test]
    fn coord_order_is_row_major() {
        let mut v = vec![Coord::new(1, 1), Coord::new(0, 0), Coord::new(2, 0)];
        v.sort();
        assert_eq!(
            v,
            vec![Coord::new(0, 0), Coord::new(2, 0), Coord::new(1, 1)]
        );
    }

    #[test]
    fn grid_set_get_roundtrip() {
        let mut g = Grid::new(4, 3);
        assert_eq!(g.kind(Coord::new(3, 2)), CellKind::Empty);
        let prev = g.set(Coord::new(3, 2), CellKind::Channel);
        assert_eq!(prev, CellKind::Empty);
        assert_eq!(g.kind(Coord::new(3, 2)), CellKind::Channel);
        assert_eq!(g.get(Coord::new(4, 0)), None);
        assert_eq!(g.get(Coord::new(0, 3)), None);
    }

    #[test]
    fn grid_neighbors_respect_bounds() {
        let g = Grid::new(3, 3);
        let corner: Vec<_> = g.neighbors(Coord::new(0, 0)).collect();
        assert_eq!(corner.len(), 2);
        let center: Vec<_> = g.neighbors(Coord::new(1, 1)).collect();
        assert_eq!(center.len(), 4);
        let edge: Vec<_> = g.neighbors(Coord::new(2, 1)).collect();
        assert_eq!(edge.len(), 3);
    }

    #[test]
    fn grid_coords_cover_all_cells_once() {
        let g = Grid::new(5, 4);
        let coords: Vec<_> = g.coords().collect();
        assert_eq!(coords.len(), 20);
        let unique: std::collections::HashSet<_> = coords.iter().collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn occupied_counts_non_empty_cells() {
        let mut g = Grid::new(3, 3);
        g.set(Coord::new(0, 0), CellKind::Channel);
        g.set(Coord::new(1, 1), CellKind::Channel);
        assert_eq!(g.occupied_count(), 2);
        assert_eq!(g.occupied().count(), 2);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_sized_grid_panics() {
        let _ = Grid::new(0, 5);
    }

    #[test]
    fn display_renders_ascii() {
        let mut g = Grid::new(2, 2);
        g.set(Coord::new(0, 0), CellKind::Channel);
        let s = g.to_string();
        assert_eq!(s, "-.\n..\n");
    }

    #[test]
    fn cell_kind_predicates() {
        assert!(!CellKind::Empty.is_routable());
        assert!(CellKind::Channel.is_routable());
        assert!(CellKind::Channel.can_hold_residue());
        assert!(!CellKind::FlowPort(FlowPortId(0)).can_hold_residue());
        assert!(CellKind::FlowPort(FlowPortId(0)).is_routable());
    }
}
