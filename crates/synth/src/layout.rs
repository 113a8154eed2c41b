//! Chip layout generation: corridor mesh, device placement, port placement.
//!
//! The layout mirrors the chips of the PathDriver papers (Fig. 2(a)): a
//! rectangular virtual grid whose channels form a corridor mesh (every cell
//! is etched except isolated "pillar" cells at odd/odd coordinates), devices
//! placed inline in the mesh, flow ports on the west/north boundary, and
//! waste ports on the east/south boundary. Every device end and every port
//! is reachable through the mesh, so the scheduler can always search
//! complete `[flow port → … → waste port]` paths.

use pdw_assay::benchmarks::Benchmark;
use pdw_assay::OpKind;
use pdw_biochip::{Chip, ChipBuilder, Coord, DeviceKind};

use crate::error::SynthError;

/// Maps an operation kind to the device kind that executes it.
pub fn device_kind_for(op: OpKind) -> DeviceKind {
    match op {
        OpKind::Mix => DeviceKind::Mixer,
        OpKind::Heat => DeviceKind::Heater,
        OpKind::Detect => DeviceKind::Detector,
        OpKind::Filter => DeviceKind::Filter,
        OpKind::Separate => DeviceKind::Separator,
        OpKind::Store => DeviceKind::Storage,
    }
}

/// Anchor coordinates available for 3-cell devices on a `width × height`
/// grid.
///
/// Devices sit on even corridor rows with an **odd** anchor column, so the
/// cells adjacent to both device ends are mesh junctions (even/even
/// coordinates, degree ≥ 3). This matters for excess-fluid removal: the
/// cached excess right at a device's ends must be flushable by a path that
/// does *not* cross the (occupied) device, which requires those cells to
/// have a way around it.
pub fn device_slots(width: u16, height: u16) -> Vec<Coord> {
    let mut slots = Vec::new();
    let mut y = 2;
    while y + 2 < height {
        let mut x = 3;
        // Keep both end junctions strictly interior: a junction on the
        // boundary could coincide with (or be cut off by) a port.
        while x + 4 < width {
            slots.push(Coord::new(x, y));
            x += 6;
        }
        y += 2;
    }
    slots
}

/// Builds the chip for a benchmark: places `bench.devices` on the grid,
/// four flow ports (west/north) and four waste ports (east/south), and
/// etches the corridor mesh.
///
/// # Errors
///
/// Returns [`SynthError::GridTooSmall`] if the library does not fit, or a
/// wrapped [`ChipError`](pdw_biochip::ChipError) on placement conflicts.
pub fn build_chip(bench: &Benchmark) -> Result<Chip, SynthError> {
    let (width, height) = bench.grid;
    let slots = device_slots(width, height);
    if bench.devices.len() > slots.len() {
        return Err(SynthError::GridTooSmall {
            devices: bench.devices.len(),
            capacity: slots.len(),
        });
    }

    let builder = ChipBuilder::new(width, height);

    // Ports: even coordinates so the adjacent mesh cell is a channel.
    // Inlets and outlets are interleaved around the perimeter (as in the
    // paper's Fig. 2(a) chip) so every region of the mesh has both a nearby
    // pressure source and a nearby vent — complete port-to-port paths then
    // exist from any device to any device.
    let even = |v: u16| v & !1;
    let third = |len: u16, k: u16| even(even((len as u32 * k as u32 / 3) as u16).clamp(2, len - 3));
    let flow_ports = [
        Coord::new(0, third(height, 2)),
        Coord::new(third(width, 1), 0),
        Coord::new(width - 1, third(height, 1)),
        Coord::new(third(width, 2), height - 1),
    ];
    let waste_ports = [
        Coord::new(0, third(height, 1)),
        Coord::new(third(width, 2), 0),
        Coord::new(width - 1, third(height, 2)),
        Coord::new(third(width, 1), height - 1),
    ];
    let builder = builder_with_ports(builder, &flow_ports, &waste_ports)?;
    let anchors: Vec<Coord> = slots.into_iter().take(bench.devices.len()).collect();
    assemble(bench, builder, &flow_ports, &waste_ports, &anchors)
}

/// Builds a *banded* chip for a benchmark: one flow port on the north edge
/// and one waste port on the south edge per vertical band, with devices
/// spread evenly over the whole slot grid instead of packed top-first.
///
/// This is the layout of the `mega` instance family: every column band of
/// the chip owns a complete port pair, so a vertical
/// [`partition`](pdw_biochip::partition()) cut leaves each region able to
/// route complete `[flow port → … → waste port]` wash paths on its own.
/// `bands` is clamped to what the grid width can carry.
///
/// # Errors
///
/// Returns [`SynthError::GridTooSmall`] if the library does not fit, or a
/// wrapped [`ChipError`](pdw_biochip::ChipError) on placement conflicts.
pub fn build_chip_banded(bench: &Benchmark, bands: u16) -> Result<Chip, SynthError> {
    let (width, height) = bench.grid;
    let slots = device_slots(width, height);
    if bench.devices.len() > slots.len() {
        return Err(SynthError::GridTooSmall {
            devices: bench.devices.len(),
            capacity: slots.len(),
        });
    }

    let builder = ChipBuilder::new(width, height);

    // One port pair per band, at the band's center column (even, so the
    // mesh cell inside the edge is a channel). Band centers sit ≥ 6 cells
    // apart after clamping, so the columns never collide.
    let bands = bands.clamp(1, (width / 6).max(1));
    let even = |v: u16| v & !1;
    let mut flow_ports = Vec::new();
    let mut waste_ports = Vec::new();
    for b in 0..bands {
        let center = (width as u32 * (2 * b as u32 + 1) / (2 * bands as u32)) as u16;
        let cx = even(center).clamp(2, even(width - 3));
        flow_ports.push(Coord::new(cx, 0));
        waste_ports.push(Coord::new(cx, height - 1));
    }

    // Devices: stride over the full slot list so every band gets its share
    // (the top-first packing of [`build_chip`] would strand lower bands
    // device-free on large grids).
    let n = bench.devices.len();
    let anchors: Vec<Coord> = (0..n).map(|i| slots[i * slots.len() / n.max(1)]).collect();
    let builder = builder_with_ports(builder, &flow_ports, &waste_ports)?;
    assemble(bench, builder, &flow_ports, &waste_ports, &anchors)
}

/// Adds the given ports to the builder (labels `in1…`, `out1…`).
fn builder_with_ports(
    mut builder: ChipBuilder,
    flow_ports: &[Coord],
    waste_ports: &[Coord],
) -> Result<ChipBuilder, SynthError> {
    for (i, &c) in flow_ports.iter().enumerate() {
        builder = builder.flow_port(&format!("in{}", i + 1), c)?;
    }
    for (i, &c) in waste_ports.iter().enumerate() {
        builder = builder.waste_port(&format!("out{}", i + 1), c)?;
    }
    Ok(builder)
}

/// Places the devices on `anchors`, etches the corridor mesh, and builds.
fn assemble(
    bench: &Benchmark,
    mut builder: ChipBuilder,
    flow_ports: &[Coord],
    waste_ports: &[Coord],
    anchors: &[Coord],
) -> Result<Chip, SynthError> {
    let (width, height) = bench.grid;

    // Devices: 3-cell horizontal footprints on the chosen anchors.
    let mut claimed: std::collections::HashSet<Coord> = flow_ports
        .iter()
        .chain(waste_ports.iter())
        .copied()
        .collect();
    let mut kind_counts = std::collections::HashMap::new();
    for (&op_kind, &anchor) in bench.devices.iter().zip(anchors) {
        let kind = device_kind_for(op_kind);
        let n = kind_counts.entry(kind).or_insert(0u32);
        *n += 1;
        let label = format!("{}{}", kind.name(), n);
        let end = Coord::new(anchor.x + 2, anchor.y);
        builder = builder.device(kind, &label, anchor, end)?;
        claimed.insert(anchor);
        claimed.insert(Coord::new(anchor.x + 1, anchor.y));
        claimed.insert(end);
    }

    // Corridor mesh: etch all unclaimed cells except odd/odd pillars.
    for y in 0..height {
        for x in 0..width {
            if x % 2 == 1 && y % 2 == 1 {
                continue;
            }
            let c = Coord::new(x, y);
            if !claimed.contains(&c) {
                builder = builder.channel(c)?;
            }
        }
    }

    Ok(builder.build()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_biochip::CellKind;

    #[test]
    fn op_kinds_map_one_to_one() {
        use OpKind::*;
        let kinds: std::collections::HashSet<_> = [Mix, Heat, Detect, Filter, Separate, Store]
            .into_iter()
            .map(device_kind_for)
            .collect();
        assert_eq!(kinds.len(), 6);
    }

    #[test]
    fn slots_fit_expected_counts() {
        assert!(device_slots(13, 13).len() >= 5);
        assert!(device_slots(15, 15).len() >= 9);
        assert!(device_slots(17, 17).len() >= 12);
        assert!(device_slots(21, 21).len() >= 18);
    }

    #[test]
    fn device_end_neighbors_are_junctions() {
        // Both cells adjacent to a device's ends must have even/even
        // coordinates (mesh junctions), so excess flushes can route around
        // the occupied device.
        for slot in device_slots(15, 15) {
            let before = Coord::new(slot.x - 1, slot.y);
            let after = Coord::new(slot.x + 3, slot.y);
            assert_eq!(before.x % 2, 0, "{before} not a junction");
            assert_eq!(before.y % 2, 0);
            assert_eq!(after.x % 2, 0, "{after} not a junction");
        }
    }

    #[test]
    fn demo_chip_builds_with_all_parts() {
        let chip = build_chip(&benchmarks::demo()).unwrap();
        assert_eq!(chip.devices().len(), 5);
        assert_eq!(chip.flow_ports().len(), 4);
        assert_eq!(chip.waste_ports().len(), 4);
    }

    #[test]
    fn every_port_reaches_every_port() {
        let chip = build_chip(&benchmarks::demo()).unwrap();
        for fp in chip.flow_ports() {
            for wp in chip.waste_ports() {
                assert!(chip.route(fp, wp, &[]).is_some(), "no route {fp} -> {wp}");
            }
        }
    }

    #[test]
    fn every_device_is_reachable() {
        let chip = build_chip(&benchmarks::suite()[2]).unwrap(); // ProteinSplit, 11 devices
        let fp = chip.flow_ports().next().unwrap();
        for d in chip.devices() {
            assert!(
                chip.route(fp, d.inlet_end(), &[]).is_some(),
                "device {} unreachable",
                d.label()
            );
        }
    }

    #[test]
    fn pillars_are_empty_everything_else_routable() {
        let chip = build_chip(&benchmarks::demo()).unwrap();
        let g = chip.grid();
        for c in g.coords() {
            let pillar = c.x % 2 == 1 && c.y % 2 == 1;
            if pillar {
                assert!(
                    matches!(g.kind(c), CellKind::Empty | CellKind::Device(_)),
                    "pillar {c} should be empty or device"
                );
            } else {
                assert!(g.kind(c).is_routable(), "cell {c} should be routable");
            }
        }
    }

    #[test]
    fn banded_chip_gives_every_band_a_port_pair_and_devices() {
        let mut bench = benchmarks::demo();
        bench.grid = (41, 21);
        let bands = 4u16;
        let chip = build_chip_banded(&bench, bands).unwrap();
        assert_eq!(chip.flow_ports().len(), bands as usize);
        assert_eq!(chip.waste_ports().len(), bands as usize);
        let band_of = |c: Coord| (c.x as u32 * bands as u32 / 41) as u16;
        // One flow port on the north edge and one waste port on the south
        // edge per band.
        for b in 0..bands {
            assert_eq!(chip.flow_ports().filter(|&c| band_of(c) == b).count(), 1);
            assert_eq!(chip.waste_ports().filter(|&c| band_of(c) == b).count(), 1);
        }
        // Devices spread: the strided assignment must not pack all five
        // into the top band of rows.
        let rows: std::collections::HashSet<u16> =
            chip.devices().iter().map(|d| d.footprint()[0].y).collect();
        assert!(rows.len() > 1, "devices all landed on one row");
        // Complete port-to-port paths still exist everywhere.
        for fp in chip.flow_ports() {
            for wp in chip.waste_ports() {
                assert!(chip.route(fp, wp, &[]).is_some(), "no route {fp} -> {wp}");
            }
        }
    }

    #[test]
    fn banded_band_count_is_clamped_to_the_grid() {
        let mut bench = benchmarks::demo();
        bench.grid = (15, 15);
        let chip = build_chip_banded(&bench, 64).unwrap();
        assert!(chip.flow_ports().len() <= 2);
        assert_eq!(chip.flow_ports().len(), chip.waste_ports().len());
    }

    #[test]
    fn too_many_devices_is_reported() {
        let mut bench = benchmarks::demo();
        bench.grid = (7, 7);
        bench.devices = vec![pdw_assay::OpKind::Mix; 20];
        assert!(matches!(
            build_chip(&bench),
            Err(SynthError::GridTooSmall { .. })
        ));
    }

    #[test]
    fn all_suite_chips_build() {
        for bench in benchmarks::suite() {
            let chip = build_chip(&bench).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(chip.devices().len(), bench.devices.len());
        }
    }
}
