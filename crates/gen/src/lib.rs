//! Seeded random-instance generation and shrinking for verification.
//!
//! The differential verification harness (`pdw verify`, the `verify` bench
//! binary) and the `random_pipeline` property test all need the same thing:
//! a family of feasible random assay instances, reproducible from a single
//! `u64` seed, plus a way to *shrink* a failing instance to the smallest
//! spec that still fails. This crate is that shared module.
//!
//! - [`spec_strategy`] — the proptest strategy over [`SyntheticSpec`]s
//!   (promoted from the `random_pipeline` test so every consumer draws from
//!   the same distribution);
//! - [`spec_from_seed`] — the same distribution collapsed onto a single
//!   seed, for corpus-style iteration (`for seed in 0..n`);
//! - [`instance`] — spec → generated benchmark → synthesized chip/schedule,
//!   with structurally infeasible specs reported as [`Skip`] rather than
//!   errors;
//! - [`shrink`] — greedy descent over the spec's size knobs. The vendored
//!   proptest stand-in has no shrinking, so the harness shrinks at the spec
//!   level instead: ops, extra edges, devices, and grid are reduced one at
//!   a time while the caller's failure predicate keeps holding.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashSet;

use pdw_assay::benchmarks::Benchmark;
use pdw_assay::synthetic::{generate, SyntheticSpec};
use pdw_biochip::{CellKind, Coord, FaultDelta, FaultSet, FlowPortId, WastePortId};
use pdw_synth::{
    build_chip_banded, device_slots, synthesize, synthesize_on, SynthError, Synthesis,
};
use proptest::Strategy;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bounds of the random-instance family. Kept in one place so the strategy
/// and the seed-based generator cannot drift apart.
const OPS: std::ops::RangeInclusive<usize> = 4..=10;
const EXTRA_EDGES: std::ops::RangeInclusive<usize> = 0..=4;
const DEVICES: std::ops::RangeInclusive<usize> = 6..=9;
const GRID: (u16, u16) = (15, 15);

/// Builds the spec for the given size knobs.
///
/// `|E| = |O| + mixes + extra inputs + sinks`; the edge count keeps the
/// instance feasible around the generator's structural family.
fn spec(ops: usize, extra: usize, devices: usize, seed: u64) -> SyntheticSpec {
    SyntheticSpec {
        name: format!("prop-{seed:x}"),
        ops,
        edges: 2 * ops - ops / 2 + extra,
        devices,
        seed,
        grid: GRID,
    }
}

/// The proptest strategy over synthetic specs used by the `random_pipeline`
/// property test.
pub fn spec_strategy() -> impl Strategy<Value = SyntheticSpec> {
    (OPS, EXTRA_EDGES, DEVICES, proptest::any::<u64>())
        .prop_map(|(ops, extra, devices, seed)| spec(ops, extra, devices, seed))
}

/// Derives a spec deterministically from a single seed, drawing the size
/// knobs from the same ranges as [`spec_strategy`].
pub fn spec_from_seed(seed: u64) -> SyntheticSpec {
    let mut rng = StdRng::seed_from_u64(seed);
    let ops = rng.gen_range(OPS);
    let extra = rng.gen_range(EXTRA_EDGES);
    let devices = rng.gen_range(DEVICES);
    spec(ops, extra, devices, seed)
}

/// Why a spec produced no instance. Skips are expected — heavily chained
/// assays on a minimal device library can exceed what list scheduling
/// without result relocation supports — and are not verification failures.
#[derive(Debug, Clone)]
pub enum Skip {
    /// Synthesis deadlocked (`SynthError::Deadlock`): the instance is
    /// structurally under-provisioned, not wrong.
    Deadlock(String),
    /// Any other synthesis infeasibility (e.g. a shrunk grid too small for
    /// the device library). At the family's default grid this should not
    /// occur; the `random_pipeline` property test asserts as much.
    Infeasible(String),
}

impl std::fmt::Display for Skip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Skip::Deadlock(e) => write!(f, "skipped (synthesis deadlock): {e}"),
            Skip::Infeasible(e) => write!(f, "skipped (infeasible): {e}"),
        }
    }
}

/// Generates and synthesizes the instance described by `spec`.
///
/// # Errors
///
/// Returns [`Skip`] for infeasible specs; the call itself never fails.
pub fn instance(spec: &SyntheticSpec) -> Result<(Benchmark, Synthesis), Skip> {
    let bench = generate(spec);
    match synthesize(&bench) {
        Ok(s) => Ok((bench, s)),
        Err(e @ SynthError::Deadlock { .. }) => Err(Skip::Deadlock(e.to_string())),
        Err(e) => Err(Skip::Infeasible(e.to_string())),
    }
}

/// Number of vertical port bands [`mega_instance`] lays out for a grid of
/// `width` columns — one flow and one waste port per band, so a
/// [`partition`](pdw_biochip::partition) cut leaves every region able to
/// wash on its own.
pub fn mega_bands(width: u16) -> u16 {
    (width / 16).clamp(2, 16)
}

/// The spec of a seeded `mega`-family instance: a `side × side` grid
/// (sides up to 1000 cells) running an `ops`-operation assay (up to
/// thousand-op). The device library scales with the assay and is clamped to
/// what the grid can hold; the edge count follows the same structural
/// family as [`spec_from_seed`].
pub fn mega_spec(side: u16, ops: usize, seed: u64) -> SyntheticSpec {
    let side = side.max(15);
    let capacity = device_slots(side, side).len();
    let devices = (ops * 3 / 4).clamp(6, capacity.max(6));
    SyntheticSpec {
        name: format!("mega-{side}x{side}-{ops}op-{seed:x}"),
        ops,
        edges: 2 * ops - ops / 2,
        devices,
        seed,
        grid: (side, side),
    }
}

/// Generates and synthesizes a `mega` instance on its *banded* chip
/// ([`build_chip_banded`]): one flow/waste port pair per vertical band
/// ([`mega_bands`]), devices spread across the whole grid instead of packed
/// top-first. This is the instance family of the partitioned-planning
/// benchmarks (`bench_partition`).
///
/// # Errors
///
/// Returns [`Skip`] for infeasible specs, exactly like [`instance`].
pub fn mega_instance(spec: &SyntheticSpec) -> Result<(Benchmark, Synthesis), Skip> {
    let bench = generate(spec);
    let chip = match build_chip_banded(&bench, mega_bands(spec.grid.0)) {
        Ok(c) => c,
        Err(e) => return Err(Skip::Infeasible(e.to_string())),
    };
    match synthesize_on(&bench, chip) {
        Ok(s) => Ok((bench, s)),
        Err(e @ SynthError::Deadlock { .. }) => Err(Skip::Deadlock(e.to_string())),
        Err(e) => Err(Skip::Infeasible(e.to_string())),
    }
}

/// Canonical form of an undirected edge for the used-edge set.
fn edge_key(a: Coord, b: Coord) -> (Coord, Coord) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// The chip elements the base schedule does *not* rely on: safe targets for
/// fault injection. Pools are in deterministic row-major / port-index order
/// and exclude anything already faulted.
struct SparePools {
    cells: Vec<Coord>,
    edges: Vec<(Coord, Coord)>,
    flow: Vec<FlowPortId>,
    waste: Vec<WastePortId>,
}

fn spare_pools(synthesis: &Synthesis) -> SparePools {
    let chip = &synthesis.chip;
    let grid = chip.grid();
    let faults = chip.faults();

    // Everything the base schedule relies on.
    let mut used_cells: HashSet<Coord> = HashSet::new();
    let mut used_edges: HashSet<(Coord, Coord)> = HashSet::new();
    let mut used_endpoints: HashSet<Coord> = HashSet::new();
    for (_, task) in synthesis.schedule.tasks() {
        let cells = task.path().cells();
        used_cells.extend(cells.iter().copied());
        used_edges.extend(cells.windows(2).map(|w| edge_key(w[0], w[1])));
        used_endpoints.insert(task.path().source());
        used_endpoints.insert(task.path().sink());
    }
    for dev in chip.devices() {
        used_cells.extend(dev.footprint().iter().copied());
    }

    let mut cells: Vec<Coord> = Vec::new();
    let mut edges: Vec<(Coord, Coord)> = Vec::new();
    for c in grid.coords() {
        if matches!(grid.kind(c), CellKind::Channel)
            && !used_cells.contains(&c)
            && !faults.cell_blocked(c)
        {
            cells.push(c);
        }
        for n in grid.neighbors(c) {
            let key = edge_key(c, n);
            if key != (c, n) {
                continue; // visit each undirected edge once
            }
            if grid.kind(c).is_routable()
                && grid.kind(n).is_routable()
                && !used_edges.contains(&key)
                && !faults.edge_blocked(key.0, key.1)
            {
                edges.push(key);
            }
        }
    }
    let flow: Vec<_> = chip
        .flow_ports()
        .enumerate()
        .filter(|(_, c)| !used_endpoints.contains(c))
        .map(|(i, _)| FlowPortId(i as u32))
        .filter(|id| !faults.flow_port_disabled(*id))
        .collect();
    let waste: Vec<_> = chip
        .waste_ports()
        .enumerate()
        .filter(|(_, c)| !used_endpoints.contains(c))
        .map(|(i, _)| WastePortId(i as u32))
        .filter(|id| !faults.waste_port_disabled(*id))
        .collect();
    SparePools {
        cells,
        edges,
        flow,
        waste,
    }
}

/// Derives a seeded [`FaultSet`] for a synthesized instance and applies it,
/// returning the same schedule on the now-faulted chip.
///
/// Faults are sampled only from the parts of the chip the *base* (wash-free)
/// schedule does not use — cells and valve edges no task path or device
/// footprint touches, and ports no path terminates at (always leaving at
/// least one inlet and one outlet enabled). The base schedule therefore
/// stays physically valid on the faulted chip by construction; what changes
/// is the *routing slack* the wash planners have to work with, which is
/// exactly what chaos testing wants to squeeze.
///
/// The sampling is a pure function of `(synthesis, seed)`, so faulted
/// corpora are as reproducible as the pristine ones.
pub fn inject_faults(synthesis: &Synthesis, seed: u64) -> Synthesis {
    let chip = &synthesis.chip;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7fa0_17ed_c0ff_ee00);

    let SparePools {
        cells: spare_cells,
        edges: spare_edges,
        flow: spare_flow,
        waste: spare_waste,
    } = spare_pools(synthesis);

    let mut faults = FaultSet::new();
    let pick = |pool_len: usize, max: usize, rng: &mut StdRng| -> Vec<usize> {
        let want = rng.gen_range(0..=max.min(pool_len));
        let mut idx: Vec<usize> = (0..pool_len).collect();
        let mut out = Vec::with_capacity(want);
        for _ in 0..want {
            out.push(idx.remove(rng.gen_range(0..idx.len())));
        }
        out
    };
    for i in pick(spare_cells.len(), 3, &mut rng) {
        faults.block_cell(spare_cells[i]);
    }
    for i in pick(spare_edges.len(), 3, &mut rng) {
        faults.block_edge(spare_edges[i].0, spare_edges[i].1);
    }
    // Keep at least one inlet and one outlet enabled: only ever disable
    // ports that are spare, and never all of them.
    let flow_cap = spare_flow
        .len()
        .min(chip.flow_ports().len().saturating_sub(1));
    for i in pick(spare_flow.len().min(flow_cap), 1, &mut rng) {
        faults.disable_flow_port(spare_flow[i]);
    }
    let waste_cap = spare_waste
        .len()
        .min(chip.waste_ports().len().saturating_sub(1));
    for i in pick(spare_waste.len().min(waste_cap), 1, &mut rng) {
        faults.disable_waste_port(spare_waste[i]);
    }

    let faulted = chip
        .with_faults(faults)
        .expect("faults sampled from the chip's own cells/ports are valid");
    debug_assert!(
        synthesis
            .schedule
            .tasks()
            .all(|(_, t)| faulted.validate_path(t.path()).is_ok()),
        "fault injection must not invalidate the base schedule"
    );
    Synthesis {
        chip: faulted,
        schedule: synthesis.schedule.clone(),
        binding: synthesis.binding.clone(),
        reagent_ports: synthesis.reagent_ports.clone(),
    }
}

/// [`instance`] composed with [`inject_faults`]: the seeded instance with
/// seeded damage applied to its chip.
///
/// # Errors
///
/// Returns [`Skip`] for infeasible specs, exactly like [`instance`].
pub fn faulted_instance(spec: &SyntheticSpec) -> Result<(Benchmark, Synthesis), Skip> {
    let (bench, s) = instance(spec)?;
    let faulted = inject_faults(&s, spec.seed);
    Ok((bench, faulted))
}

/// Derives one seeded [`FaultDelta`] for a synthesized instance — the unit
/// of chaos for incremental-replanning tests (`RepairSession::repair`).
///
/// Damage deltas (`Block*`/`Disable*`) are sampled from the same spare
/// pools as [`inject_faults`] — chip elements the base schedule does not
/// use — so applying the delta always keeps the base schedule physically
/// valid. Healing deltas (`Unblock*`/`Enable*`) are sampled from the faults
/// the chip *currently* carries, so on a [`faulted_instance`] a seed sweep
/// exercises both directions. Port disables keep at least one inlet and one
/// outlet enabled.
///
/// Returns `None` only when the chip offers nothing to mutate (no spare
/// elements and no present faults). The sampling is a pure function of
/// `(synthesis, seed)`.
pub fn fault_delta(synthesis: &Synthesis, seed: u64) -> Option<FaultDelta> {
    let chip = &synthesis.chip;
    let faults = chip.faults();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0de1_7a5e_eded_0001);

    let pools = spare_pools(synthesis);
    // One representative per applicable delta kind, drawn in fixed order so
    // the sampling stays deterministic.
    let mut options: Vec<FaultDelta> = Vec::new();
    if !pools.cells.is_empty() {
        options.push(FaultDelta::BlockCell(
            pools.cells[rng.gen_range(0..pools.cells.len())],
        ));
    }
    if !pools.edges.is_empty() {
        let (a, b) = pools.edges[rng.gen_range(0..pools.edges.len())];
        options.push(FaultDelta::BlockEdge(a, b));
    }
    // Keep at least one inlet and one outlet enabled.
    let enabled_flow = chip.flow_ports().len() - faults.disabled_flow_ports().len();
    if !pools.flow.is_empty() && enabled_flow >= 2 {
        options.push(FaultDelta::DisableFlowPort(
            pools.flow[rng.gen_range(0..pools.flow.len())],
        ));
    }
    let enabled_waste = chip.waste_ports().len() - faults.disabled_waste_ports().len();
    if !pools.waste.is_empty() && enabled_waste >= 2 {
        options.push(FaultDelta::DisableWastePort(
            pools.waste[rng.gen_range(0..pools.waste.len())],
        ));
    }
    // Healing deltas from whatever the chip currently suffers.
    let blocked = faults.blocked_cells();
    if !blocked.is_empty() {
        options.push(FaultDelta::UnblockCell(
            blocked[rng.gen_range(0..blocked.len())],
        ));
    }
    let blocked_edges = faults.blocked_edges();
    if !blocked_edges.is_empty() {
        let (a, b) = blocked_edges[rng.gen_range(0..blocked_edges.len())];
        options.push(FaultDelta::UnblockEdge(a, b));
    }
    let disabled_flow: Vec<_> = faults.disabled_flow_ports().collect();
    if !disabled_flow.is_empty() {
        options.push(FaultDelta::EnableFlowPort(
            disabled_flow[rng.gen_range(0..disabled_flow.len())],
        ));
    }
    let disabled_waste: Vec<_> = faults.disabled_waste_ports().collect();
    if !disabled_waste.is_empty() {
        options.push(FaultDelta::EnableWastePort(
            disabled_waste[rng.gen_range(0..disabled_waste.len())],
        ));
    }
    if options.is_empty() {
        return None;
    }
    Some(options[rng.gen_range(0..options.len())])
}

/// Options of the seeded open-loop request stream ([`request_stream`]).
///
/// The defaults describe a light, memo-friendly load: ~8 distinct
/// instances, 60% chip reuse, 15% repair deltas, 2 ms mean inter-arrival.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOptions {
    /// Stream seed; the whole stream is a pure function of the options.
    pub seed: u64,
    /// Number of request events to emit.
    pub requests: usize,
    /// Size of the instance pool indices are drawn from.
    pub pool: usize,
    /// Mean inter-arrival gap in microseconds (exponential draws).
    pub mean_gap_us: u64,
    /// Probability in `[0, 1]` that a request re-targets an instance the
    /// stream has already touched (a memo/context-cache hit opportunity)
    /// instead of a fresh pool entry.
    pub reuse: f64,
    /// Probability in `[0, 1]` that a request against an already-touched
    /// instance is a *repair delta* rather than a plain solve.
    pub delta_ratio: f64,
}

impl Default for StreamOptions {
    fn default() -> Self {
        StreamOptions {
            seed: 0,
            requests: 100,
            pool: 8,
            mean_gap_us: 2_000,
            reuse: 0.6,
            delta_ratio: 0.15,
        }
    }
}

/// What one open-loop request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamEventKind {
    /// Plan the instance from scratch (or serve it from the memo cache).
    Solve,
    /// Apply a seeded [`fault_delta`] against the instance's repair session
    /// (`delta_seed` is the sampling seed).
    Repair {
        /// Seed for [`fault_delta`] sampling at materialization time.
        delta_seed: u64,
    },
}

/// One event of the open-loop request stream: at `at_us` microseconds after
/// stream start, issue `kind` against pool instance `pool_index`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamEvent {
    /// Arrival time, microseconds since stream start (strictly increasing).
    pub at_us: u64,
    /// Which pool instance the request targets.
    pub pool_index: usize,
    /// Solve or repair.
    pub kind: StreamEventKind,
}

/// A `[0, 1)` fraction from the generator's next 64 bits.
fn unit(rng: &mut StdRng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Generates a seeded open-loop request stream (see [`StreamOptions`]).
///
/// Inter-arrival gaps are exponential with mean `mean_gap_us` (clamped to
/// `[1, 20 × mean]` so a single draw cannot stall the stream); arrival
/// times are strictly increasing. The first event always targets a fresh
/// pool entry; later events re-target an already-touched instance with
/// probability `reuse` (and, among those, become repair deltas with
/// probability `delta_ratio`), otherwise they touch the next fresh entry
/// until the pool is exhausted. The stream is a pure function of the
/// options — the serve tests, `pdw serve` and the `serve-solve` and
/// `serve-repair` benchmark workloads replay identical traffic.
pub fn request_stream(opts: &StreamOptions) -> Vec<StreamEvent> {
    assert!(opts.pool > 0, "request_stream needs a non-empty pool");
    let mut rng = StdRng::seed_from_u64(opts.seed ^ 0x5e4e_57a7_ea00_0001);
    let mut events = Vec::with_capacity(opts.requests);
    let mut touched: Vec<usize> = Vec::new();
    let mut at_us: u64 = 0;
    for _ in 0..opts.requests {
        let mean = opts.mean_gap_us.max(1) as f64;
        let gap = (-(1.0 - unit(&mut rng)).ln() * mean) as u64;
        at_us = at_us.saturating_add(gap.clamp(1, opts.mean_gap_us.max(1) * 20));

        let reuse_now = !touched.is_empty() && unit(&mut rng) < opts.reuse;
        let (pool_index, kind) = if reuse_now {
            let idx = touched[rng.gen_range(0..touched.len())];
            let kind = if unit(&mut rng) < opts.delta_ratio {
                StreamEventKind::Repair {
                    delta_seed: rng.next_u64(),
                }
            } else {
                StreamEventKind::Solve
            };
            (idx, kind)
        } else {
            // Next untouched pool entry, wrapping to uniform once the pool
            // is saturated.
            let idx = if touched.len() < opts.pool {
                touched.len()
            } else {
                rng.gen_range(0..opts.pool)
            };
            (idx, StreamEventKind::Solve)
        };
        if !touched.contains(&pool_index) {
            touched.push(pool_index);
        }
        events.push(StreamEvent {
            at_us,
            pool_index,
            kind,
        });
    }
    events
}

/// Shrinks a failing spec: repeatedly tries to reduce one size knob at a
/// time (operations, extra edges, devices, grid side), keeping a reduction
/// only when `fails` still returns `true` for the reduced spec, until no
/// single reduction reproduces the failure. Returns the smallest failing
/// spec found and the number of accepted reduction steps.
///
/// `fails` should treat skipped instances (see [`instance`]) as *not*
/// failing. The descent is deterministic, so a shrunk repro is as
/// reproducible as the original seed.
pub fn shrink(
    spec: &SyntheticSpec,
    fails: impl Fn(&SyntheticSpec) -> bool,
) -> (SyntheticSpec, usize) {
    let mut best = spec.clone();
    let mut steps = 0usize;
    loop {
        let mut candidates: Vec<SyntheticSpec> = Vec::new();
        if best.ops > *OPS.start() {
            // Keep the edge/op ratio of the family when dropping an op.
            let ops = best.ops - 1;
            let base_edges = 2 * ops - ops / 2;
            let extra = best.edges.saturating_sub(2 * best.ops - best.ops / 2);
            candidates.push(SyntheticSpec {
                ops,
                edges: base_edges + extra,
                ..best.clone()
            });
        }
        if best.edges > 2 * best.ops - best.ops / 2 {
            candidates.push(SyntheticSpec {
                edges: best.edges - 1,
                ..best.clone()
            });
        }
        if best.devices > *DEVICES.start() {
            candidates.push(SyntheticSpec {
                devices: best.devices - 1,
                ..best.clone()
            });
        }
        if best.grid.0 > 11 && best.grid.1 > 11 {
            candidates.push(SyntheticSpec {
                grid: (best.grid.0 - 2, best.grid.1 - 2),
                ..best.clone()
            });
        }
        let Some(reduced) = candidates.into_iter().find(|c| fails(c)) else {
            return (best, steps);
        };
        best = reduced;
        steps += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_specs_are_deterministic_and_in_family() {
        for seed in 0..50 {
            let a = spec_from_seed(seed);
            let b = spec_from_seed(seed);
            assert_eq!(a, b);
            assert!(OPS.contains(&a.ops));
            assert!(DEVICES.contains(&a.devices));
            assert!(a.edges >= 2 * a.ops - a.ops / 2);
            assert!(a.edges <= 2 * a.ops - a.ops / 2 + EXTRA_EDGES.end());
        }
    }

    #[test]
    fn most_seeds_synthesize() {
        let mut ok = 0;
        for seed in 0..25 {
            if instance(&spec_from_seed(seed)).is_ok() {
                ok += 1;
            }
        }
        assert!(ok > 10, "only {ok}/25 seeds produced instances");
    }

    #[test]
    fn fault_injection_is_deterministic_and_preserves_the_base_schedule() {
        let mut damaged = 0;
        for seed in 0..20 {
            let Ok((_, s)) = instance(&spec_from_seed(seed)) else {
                continue;
            };
            let a = inject_faults(&s, seed);
            let b = inject_faults(&s, seed);
            assert_eq!(
                a.chip.faults(),
                b.chip.faults(),
                "seed {seed} not deterministic"
            );
            // The base schedule must remain valid on the damaged chip.
            for (_, t) in s.schedule.tasks() {
                a.chip
                    .validate_path(t.path())
                    .unwrap_or_else(|e| panic!("seed {seed}: base schedule broken: {e}"));
            }
            if !a.chip.faults().is_empty() {
                damaged += 1;
            }
        }
        assert!(damaged > 5, "only {damaged} seeds produced any damage");
    }

    #[test]
    fn different_fault_seeds_produce_different_damage() {
        let (_, s) = instance(&spec_from_seed(0)).expect("seed 0 synthesizes");
        let sets: Vec<_> = (0..8)
            .map(|fs| inject_faults(&s, fs).chip.faults().clone())
            .collect();
        let distinct: HashSet<_> = sets.iter().map(|f| format!("{f:?}")).collect();
        assert!(distinct.len() > 1, "all fault seeds collapsed to one set");
    }

    #[test]
    fn mega_instances_synthesize_deterministically_on_banded_chips() {
        let spec = mega_spec(61, 12, 3);
        assert_eq!(spec.grid, (61, 61));
        let (bench, s) = mega_instance(&spec).expect("mega seed 3 synthesizes");
        assert_eq!(bench.devices.len(), spec.devices);
        // One port pair per band.
        let bands = mega_bands(61) as usize;
        assert_eq!(s.chip.flow_ports().len(), bands);
        assert_eq!(s.chip.waste_ports().len(), bands);
        // Deterministic re-generation.
        let (_, s2) = mega_instance(&spec).unwrap();
        assert_eq!(s.chip.grid(), s2.chip.grid());
        assert_eq!(s.schedule, s2.schedule);
        // Fault injection composes with the mega family and keeps the base
        // schedule valid on the damaged chip.
        let faulted = inject_faults(&s, spec.seed);
        for (_, t) in faulted.schedule.tasks() {
            faulted.chip.validate_path(t.path()).unwrap();
        }
    }

    #[test]
    fn fault_deltas_are_deterministic_varied_and_schedule_preserving() {
        let (_, s) = instance(&spec_from_seed(0)).expect("seed 0 synthesizes");
        let mut kinds: HashSet<String> = HashSet::new();
        for seed in 0..20 {
            let a = fault_delta(&s, seed).expect("pristine demo-family chip has spares");
            let b = fault_delta(&s, seed).unwrap();
            assert_eq!(a, b, "seed {seed} not deterministic");
            kinds.insert(format!("{a}"));
            // A damage delta must keep the base schedule valid.
            let mut faults = s.chip.faults().clone();
            assert!(a.apply(&mut faults), "sampled delta must change the chip");
            let mutated = s.chip.with_faults(faults).unwrap();
            for (_, t) in s.schedule.tasks() {
                mutated
                    .validate_path(t.path())
                    .unwrap_or_else(|e| panic!("seed {seed}: base schedule broken: {e}"));
            }
        }
        assert!(kinds.len() > 3, "delta seeds collapsed: {kinds:?}");
    }

    #[test]
    fn fault_deltas_on_damaged_chips_include_healing() {
        // A faulted instance carries damage, so the sampler must sometimes
        // pick a healing (Unblock*/Enable*) delta.
        for seed in 0..20 {
            let Ok((_, s)) = faulted_instance(&spec_from_seed(seed)) else {
                continue;
            };
            if s.chip.faults().is_empty() {
                continue;
            }
            let healed = (0..30).filter_map(|ds| fault_delta(&s, ds)).any(|d| {
                matches!(
                    d,
                    FaultDelta::UnblockCell(_)
                        | FaultDelta::UnblockEdge(_, _)
                        | FaultDelta::EnableFlowPort(_)
                        | FaultDelta::EnableWastePort(_)
                )
            });
            assert!(healed, "seed {seed}: no healing delta in 30 draws");
            return;
        }
        panic!("no faulted instance found in 20 seeds");
    }

    #[test]
    fn shrink_reaches_a_local_minimum() {
        let start = spec_from_seed(1);
        // "Fails" whenever the instance synthesizes at all: shrinking must
        // walk down to a spec where no single further reduction works.
        let fails = |s: &SyntheticSpec| instance(s).is_ok();
        assert!(fails(&start), "pick a seed that synthesizes");
        let (small, steps) = shrink(&start, fails);
        assert!(fails(&small));
        assert!(steps > 0, "nothing was reduced");
        assert!(small.ops <= start.ops);
        // Re-running is deterministic.
        let (again, steps2) = shrink(&start, fails);
        assert_eq!(small, again);
        assert_eq!(steps, steps2);
    }

    #[test]
    fn request_streams_are_deterministic_and_monotone() {
        let opts = StreamOptions::default();
        let a = request_stream(&opts);
        let b = request_stream(&opts);
        assert_eq!(a, b);
        assert_eq!(a.len(), opts.requests);
        for w in a.windows(2) {
            assert!(w[0].at_us < w[1].at_us, "arrival times strictly increase");
        }
        assert!(a.iter().all(|e| e.pool_index < opts.pool));
        // A different seed produces different traffic.
        let c = request_stream(&StreamOptions {
            seed: 1,
            ..opts.clone()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn reuse_ratio_shapes_the_distinct_instance_count() {
        let base = StreamOptions {
            requests: 60,
            pool: 60,
            ..StreamOptions::default()
        };
        let distinct = |reuse: f64| {
            let evs = request_stream(&StreamOptions {
                reuse,
                ..base.clone()
            });
            evs.iter()
                .map(|e| e.pool_index)
                .collect::<HashSet<_>>()
                .len()
        };
        // Full reuse collapses onto one instance; zero reuse walks the pool.
        assert_eq!(distinct(1.0), 1);
        assert_eq!(distinct(0.0), base.pool);
        let mid = distinct(0.6);
        assert!(mid > 1 && mid < base.pool, "got {mid}");
    }

    #[test]
    fn delta_events_only_target_touched_instances() {
        let evs = request_stream(&StreamOptions {
            requests: 300,
            delta_ratio: 0.5,
            ..StreamOptions::default()
        });
        let mut touched: HashSet<usize> = HashSet::new();
        let mut deltas = 0;
        for e in &evs {
            if let StreamEventKind::Repair { .. } = e.kind {
                assert!(
                    touched.contains(&e.pool_index),
                    "repair before any solve of instance {}",
                    e.pool_index
                );
                deltas += 1;
            }
            touched.insert(e.pool_index);
        }
        assert!(deltas > 10, "only {deltas} repair events in 300");
        // The first event is always a fresh solve.
        assert_eq!(evs[0].kind, StreamEventKind::Solve);
    }

    #[test]
    fn shrink_keeps_failing_spec_when_nothing_reduces() {
        let start = spec_from_seed(2);
        let (same, steps) = shrink(&start, |_| false);
        assert_eq!(same, start);
        assert_eq!(steps, 0);
    }
}
