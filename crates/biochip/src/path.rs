//! Flow paths: simple port-to-port cell sequences.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::cellset::CellSet;
use crate::grid::Coord;
use crate::CELL_PITCH_MM;

/// Errors raised when constructing a [`FlowPath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PathError {
    /// The cell sequence is empty.
    Empty,
    /// Two consecutive cells are not 4-connected.
    NotAdjacent {
        /// Index of the first cell of the offending pair.
        index: usize,
    },
    /// The same cell appears twice (paths must be simple).
    RepeatedCell {
        /// The repeated coordinate.
        coord: Coord,
    },
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Empty => write!(f, "flow path has no cells"),
            PathError::NotAdjacent { index } => {
                write!(f, "cells {index} and {} are not adjacent", index + 1)
            }
            PathError::RepeatedCell { coord } => {
                write!(f, "cell {coord} appears more than once in the path")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// A simple (self-avoiding) 4-connected path of grid cells.
///
/// Complete flow paths on a chip run `[flow port → … → waste port]`: fluid is
/// driven by pressure from an inlet and vents through an outlet (Table I of
/// the paper lists such paths for transports, removals, and washes). The
/// path type itself only enforces the geometric invariants — adjacency and
/// simplicity; whether the endpoints are ports of a specific chip is checked
/// by [`Chip::validate_path`](crate::Chip::validate_path).
#[derive(Debug, Clone)]
pub struct FlowPath {
    cells: Vec<Coord>,
    /// Word-packed occupancy mask over the path's bounding box, precomputed
    /// so overlap/subset/membership queries need no per-call set building.
    /// Derived from `cells`: excluded from equality, hashing, and
    /// serialization.
    mask: CellSet,
}

impl PartialEq for FlowPath {
    fn eq(&self, other: &Self) -> bool {
        self.cells == other.cells
    }
}

impl Eq for FlowPath {}

impl Hash for FlowPath {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cells.hash(state);
    }
}

// Manual impls (the derive would serialize the derived `mask`): same wire
// format as the former derive — an object holding only `cells`.
impl Serialize for FlowPath {
    fn serialize<S: serde::Sink + ?Sized>(&self, out: &mut S) {
        out.map(1);
        out.key("cells");
        self.cells.serialize(out);
    }
}

impl Deserialize for FlowPath {
    fn deserialize<S: serde::Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let len = src.map().map_err(|e| e.context("FlowPath"))?;
        let mut cells: Option<Vec<Coord>> = None;
        for _ in 0..len {
            match src.field(&["cells"])? {
                0 if cells.is_none() => {
                    cells = Some(Vec::deserialize(src).map_err(|e| e.context("FlowPath.cells"))?)
                }
                _ => src.skip()?,
            }
        }
        let cells = cells.map_or_else(|| serde::missing("FlowPath", "cells"), Ok)?;
        FlowPath::new(cells).map_err(serde::Error::custom)
    }
}

impl FlowPath {
    /// Builds a path from a cell sequence.
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] if the sequence is empty, a consecutive pair is
    /// not 4-connected, or a cell repeats.
    pub fn new(cells: Vec<Coord>) -> Result<Self, PathError> {
        if cells.is_empty() {
            return Err(PathError::Empty);
        }
        for (i, w) in cells.windows(2).enumerate() {
            if !w[0].is_adjacent(w[1]) {
                return Err(PathError::NotAdjacent { index: i });
            }
        }
        let mask = CellSet::from_cells(&cells);
        if mask.len() != cells.len() {
            // Cold path: rediscover the first repeat for the error report.
            let mut seen = std::collections::HashSet::with_capacity(cells.len());
            for &c in &cells {
                if !seen.insert(c) {
                    return Err(PathError::RepeatedCell { coord: c });
                }
            }
            unreachable!("mask/cells length mismatch implies a repeated cell");
        }
        Ok(Self { cells, mask })
    }

    /// The cells of the path, in traversal order.
    pub fn cells(&self) -> &[Coord] {
        &self.cells
    }

    /// Number of cells on the path.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the path has no cells (never true for a
    /// constructed path).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// First cell (the source port for a complete flow path).
    pub fn source(&self) -> Coord {
        self.cells[0]
    }

    /// Last cell (the sink port for a complete flow path).
    pub fn sink(&self) -> Coord {
        *self.cells.last().expect("path is nonempty")
    }

    /// Physical length of the path in millimeters (`len × CELL_PITCH_MM`).
    pub fn length_mm(&self) -> f64 {
        self.cells.len() as f64 * CELL_PITCH_MM
    }

    /// Returns `true` if `c` lies on the path.
    pub fn contains(&self, c: Coord) -> bool {
        self.mask.contains(c)
    }

    /// The path's occupancy mask (the same cells as [`cells`](Self::cells),
    /// as a word-packed [`CellSet`]).
    pub fn mask(&self) -> &CellSet {
        &self.mask
    }

    /// Returns `true` if the two paths share at least one cell
    /// (`l_a ∩ l_b ≠ ∅` in the paper's conflict constraints).
    pub fn overlaps(&self, other: &FlowPath) -> bool {
        self.mask.intersects(&other.mask)
    }

    /// Returns `true` if every cell of `self` lies on `other`
    /// (`l_a ⊆ l_b`, used by the removal-integration rule, Eq. 21).
    pub fn is_subpath_of(&self, other: &FlowPath) -> bool {
        self.mask.is_subset_of(&other.mask)
    }

    /// Iterates over the cells of the path.
    pub fn iter(&self) -> std::slice::Iter<'_, Coord> {
        self.cells.iter()
    }
}

impl<'a> IntoIterator for &'a FlowPath {
    type Item = &'a Coord;
    type IntoIter = std::slice::Iter<'a, Coord>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

impl fmt::Display for FlowPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in &self.cells {
            if !first {
                write!(f, " -> ")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u16) -> Vec<Coord> {
        (0..n).map(|x| Coord::new(x, 0)).collect()
    }

    #[test]
    fn valid_path_roundtrips() {
        let p = FlowPath::new(line(4)).unwrap();
        assert_eq!(p.len(), 4);
        assert_eq!(p.source(), Coord::new(0, 0));
        assert_eq!(p.sink(), Coord::new(3, 0));
        assert!((p.length_mm() - 4.0 * CELL_PITCH_MM).abs() < 1e-12);
    }

    #[test]
    fn rejects_empty() {
        assert_eq!(FlowPath::new(vec![]), Err(PathError::Empty));
    }

    #[test]
    fn rejects_non_adjacent() {
        let err = FlowPath::new(vec![Coord::new(0, 0), Coord::new(2, 0)]).unwrap_err();
        assert_eq!(err, PathError::NotAdjacent { index: 0 });
    }

    #[test]
    fn rejects_repeats() {
        let cells = vec![
            Coord::new(0, 0),
            Coord::new(1, 0),
            Coord::new(1, 1),
            Coord::new(1, 0),
        ];
        let err = FlowPath::new(cells).unwrap_err();
        assert_eq!(
            err,
            PathError::RepeatedCell {
                coord: Coord::new(1, 0)
            }
        );
    }

    #[test]
    fn overlap_and_subpath() {
        let a = FlowPath::new(line(4)).unwrap();
        let b = FlowPath::new(vec![Coord::new(1, 0), Coord::new(2, 0)]).unwrap();
        let c = FlowPath::new(vec![Coord::new(0, 2), Coord::new(1, 2)]).unwrap();
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.is_subpath_of(&a));
        assert!(!a.is_subpath_of(&b));
    }

    /// Pairwise oracle check of the bitset-backed `overlaps`/`is_subpath_of`
    /// against the old `HashSet` semantics: single-cell paths, identical
    /// paths, disjoint paths, and subpaths at either end.
    #[test]
    fn overlap_subpath_edge_cases_match_naive() {
        use std::collections::HashSet;
        let paths = [
            FlowPath::new(vec![Coord::new(2, 0)]).unwrap(), // single cell on the line
            FlowPath::new(vec![Coord::new(7, 7)]).unwrap(), // single cell off the line
            FlowPath::new(line(4)).unwrap(),                // (0,0)..(3,0)
            FlowPath::new(line(4)).unwrap(),                // identical copy
            FlowPath::new(vec![Coord::new(0, 0), Coord::new(1, 0)]).unwrap(), // front subpath
            FlowPath::new(vec![Coord::new(2, 0), Coord::new(3, 0)]).unwrap(), // back subpath
            FlowPath::new(vec![Coord::new(0, 5), Coord::new(1, 5)]).unwrap(), // disjoint
            FlowPath::new(vec![Coord::new(3, 0), Coord::new(3, 1)]).unwrap(), // crosses one end
        ];
        for a in &paths {
            for b in &paths {
                let sa: HashSet<_> = a.cells().iter().collect();
                let sb: HashSet<_> = b.cells().iter().collect();
                assert_eq!(a.overlaps(b), !sa.is_disjoint(&sb), "overlaps: {a} vs {b}");
                assert_eq!(b.overlaps(a), !sb.is_disjoint(&sa), "overlaps: {b} vs {a}");
                assert_eq!(a.is_subpath_of(b), sa.is_subset(&sb), "subpath: {a} vs {b}");
            }
        }
        for p in &paths {
            for &c in p.cells() {
                assert!(p.contains(c));
            }
            assert!(!p.contains(Coord::new(9, 9)));
        }
    }

    #[test]
    fn single_cell_path_is_valid() {
        let p = FlowPath::new(vec![Coord::new(5, 5)]).unwrap();
        assert_eq!(p.source(), p.sink());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn display_uses_arrows() {
        let p = FlowPath::new(line(2)).unwrap();
        assert_eq!(p.to_string(), "(0, 0) -> (1, 0)");
    }
}
