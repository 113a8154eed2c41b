//! Binding and list scheduling: from a sequencing graph to a full schedule
//! with routed flow paths.

use std::collections::HashMap;

use pdw_assay::benchmarks::Benchmark;
use pdw_assay::{AssayGraph, FluidType, OpId, OpInput};
use pdw_biochip::{Chip, Coord, DeviceId, DeviceKind, FlowPath};
pub use pdw_sched::{flow_duration, CELLS_PER_SECOND};
use pdw_sched::{Schedule, ScheduledOp, Task, TaskKind, Time};

use crate::error::SynthError;
use crate::layout::device_kind_for;
use crate::reservations::{ResId, Reservations};

/// How many cells on each side of a device cache excess fluid after a
/// delivery (the `p_{j,i,2}` targets). The layout guarantees the cell right
/// at each device end is a mesh junction, so a span of 1 is always
/// flushable around the device.
pub const EXCESS_SPAN: usize = 1;

/// The output of the synthesis flow.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Synthesis {
    /// The chip architecture the schedule runs on.
    pub chip: Chip,
    /// The wash-free schedule (operations + fluidic tasks).
    pub schedule: Schedule,
    /// Device bound to each operation, indexed by [`OpId`].
    pub binding: Vec<DeviceId>,
    /// Flow-port coordinate assigned to each reagent, indexed by
    /// [`ReagentId`](pdw_assay::ReagentId).
    pub reagent_ports: Vec<Coord>,
}

/// Routes a complete `[flow port → via… → waste port]` path visiting `via`
/// in order, avoiding `blocked` cells. Tries every port pair and returns the
/// shortest result.
pub fn route_task(chip: &Chip, via: &[Coord], blocked: &[Coord]) -> Option<FlowPath> {
    let wps: Vec<Coord> = chip.waste_ports().collect();
    let mut best = None;
    for fp in chip.flow_ports() {
        keep_shortest(chip, fp, via, &wps, blocked, &mut best);
    }
    best.map(|cells| FlowPath::new(cells).expect("route_via returns a simple path"))
}

/// Like [`route_task`] but with a fixed entry flow port (reagent injections
/// must start at the port plumbed to that reagent's reservoir).
pub fn route_task_from(
    chip: &Chip,
    from: Coord,
    via: &[Coord],
    blocked: &[Coord],
) -> Option<FlowPath> {
    let wps: Vec<Coord> = chip.waste_ports().collect();
    let mut best = None;
    keep_shortest(chip, from, via, &wps, blocked, &mut best);
    best.map(|cells| FlowPath::new(cells).expect("route_via returns a simple path"))
}

/// Routes a flush path covering all `targets` (order chosen by the router),
/// avoiding `blocked` cells. Used for excess removals and as the building
/// block for wash paths.
pub fn route_flush(chip: &Chip, targets: &[Coord], blocked: &[Coord]) -> Option<FlowPath> {
    let wps: Vec<Coord> = chip.waste_ports().collect();
    let mut best = None;
    for fp in chip.flow_ports() {
        // Visit targets near-to-far from the entry port.
        let mut ordered = targets.to_vec();
        ordered.sort_by_key(|c| (c.manhattan(fp), *c));
        keep_shortest(chip, fp, &ordered, &wps, blocked, &mut best);
    }
    best.map(|cells| FlowPath::new(cells).expect("route_via returns a simple path"))
}

/// Routes `from → via… → wp` for every waste port `wp` in `wps` (the legs
/// through `via` once) and keeps each path strictly shorter than `best`.
fn keep_shortest(
    chip: &Chip,
    from: Coord,
    via: &[Coord],
    wps: &[Coord],
    blocked: &[Coord],
    best: &mut Option<Vec<Coord>>,
) {
    chip.route_via_fan(from, via, wps, blocked, |_, p| {
        if best.as_ref().is_none_or(|b| p.len() < b.len()) {
            *best = Some(p);
        }
        false
    });
}

/// All device footprint cells except those of `allowed` devices.
pub fn blocked_footprints(chip: &Chip, allowed: &[DeviceId]) -> Vec<Coord> {
    chip.devices()
        .iter()
        .filter(|d| !allowed.contains(&d.id()))
        .flat_map(|d| d.footprint().iter().copied())
        .collect()
}

/// Cells of `path` holding excess fluid after a delivery into `device_cells`,
/// grouped by device side: up to [`EXCESS_SPAN`] path cells before and after
/// the device, excluding the end ports.
pub fn excess_groups(path: &FlowPath, device_cells: &[Coord]) -> (Vec<Coord>, Vec<Coord>) {
    let cells = path.cells();
    let first = cells.iter().position(|c| device_cells.contains(c));
    let last = cells.iter().rposition(|c| device_cells.contains(c));
    let (Some(first), Some(last)) = (first, last) else {
        return (Vec::new(), Vec::new());
    };
    // Before the device (never index 0, the flow port).
    let lo = first.saturating_sub(EXCESS_SPAN).max(1);
    let before = cells[lo..first].to_vec();
    // After the device (never the final waste port).
    let hi = (last + 1 + EXCESS_SPAN).min(cells.len() - 1);
    let after = cells[last + 1..hi].to_vec();
    (before, after)
}

/// Flat list of excess cells (both sides of [`excess_groups`]).
pub fn excess_cells(path: &FlowPath, device_cells: &[Coord]) -> Vec<Coord> {
    let (mut before, after) = excess_groups(path, device_cells);
    before.extend(after);
    before
}

#[derive(Debug, Clone, Copy)]
struct DevState {
    free_at: Time,
    /// Open footprint reservation while a result sits in the device.
    open: Option<ResId>,
    /// The operation whose result currently sits in the device.
    resident_for: Option<OpId>,
    /// Operation whose inputs are being loaded early (deadlock breaking):
    /// the device is spoken for until that operation executes on it.
    pinned_for: Option<OpId>,
}

/// Loading state of an operation whose device was bound early so a blocking
/// resident result could be delivered into it ahead of schedule.
#[derive(Debug, Clone)]
struct PreBind {
    device: DeviceId,
    my_res: ResId,
    prev_delivery_end: Time,
    ready_for_op: Time,
    delivered: Vec<OpId>,
}

#[derive(Debug, Clone, Copy)]
struct Done {
    device: DeviceId,
    end: Time,
}

/// Binds and schedules `bench` on an already-built `chip`.
///
/// Operations are scheduled by list scheduling with downstream-critical-path
/// priority; every fluid movement becomes a conflict-free task with a
/// complete routed flow path.
///
/// # Errors
///
/// Returns [`SynthError::Unroutable`] when a needed flow path does not exist
/// on the chip and [`SynthError::Deadlock`] when every ready operation is
/// blocked by devices holding unconsumed results.
pub fn synthesize_on(bench: &Benchmark, chip: Chip) -> Result<Synthesis, SynthError> {
    // List scheduling can deadlock when every ready operation needs a device
    // that holds a result whose consumer is not ready yet. Retry with
    // orderings that prefer freeing devices before claiming new ones.
    let mut last = None;
    for order in [
        ReadyOrder::Priority,
        ReadyOrder::ConsumersFirst,
        ReadyOrder::Topological,
    ] {
        match synthesize_ordered(bench, chip.clone(), order) {
            Ok(s) => return Ok(s),
            Err(e @ SynthError::Deadlock { .. }) => last = Some(e),
            Err(e) => return Err(e),
        }
    }
    Err(last.expect("loop ran at least once"))
}

/// Tie-breaking policy for picking among ready operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReadyOrder {
    /// Downstream-critical-path priority (the default).
    Priority,
    /// Operations that consume a currently-resident result first (frees
    /// devices; avoids most residency deadlocks), then priority.
    ConsumersFirst,
    /// Plain topological index order.
    Topological,
}

fn synthesize_ordered(
    bench: &Benchmark,
    chip: Chip,
    order: ReadyOrder,
) -> Result<Synthesis, SynthError> {
    let graph = &bench.graph;
    let n_ops = graph.ops().len();

    // Devices grouped by kind.
    let mut by_kind: HashMap<DeviceKind, Vec<DeviceId>> = HashMap::new();
    for d in chip.devices() {
        by_kind.entry(d.kind()).or_default().push(d.id());
    }

    // Reagents are assigned flow ports round-robin.
    let fports: Vec<Coord> = chip.flow_ports().collect();
    let reagent_ports: Vec<Coord> = (0..graph.reagents().len())
        .map(|r| fports[r % fports.len()])
        .collect();

    let priority = downstream_priority(graph);

    let mut res = Reservations::new();
    let mut schedule = Schedule::new();
    let mut dev: Vec<DevState> = chip
        .devices()
        .iter()
        .map(|_| DevState {
            free_at: 0,
            open: None,
            resident_for: None,
            pinned_for: None,
        })
        .collect();
    let mut done: Vec<Option<Done>> = vec![None; n_ops];
    let mut binding: Vec<Option<DeviceId>> = vec![None; n_ops];
    let mut pre: Vec<Option<PreBind>> = vec![None; n_ops];

    let mut unscheduled: Vec<OpId> = graph.op_ids().collect();
    while !unscheduled.is_empty() {
        // Ready: all parent results computed.
        let mut ready: Vec<OpId> = unscheduled
            .iter()
            .copied()
            .filter(|&i| {
                graph
                    .op(i)
                    .parent_ops()
                    .all(|p| done[p.0 as usize].is_some())
            })
            .collect();
        match order {
            ReadyOrder::Priority => {
                ready.sort_by_key(|&i| (std::cmp::Reverse(priority[i.0 as usize]), i));
            }
            ReadyOrder::ConsumersFirst => {
                let consumes_resident = |i: OpId| {
                    graph
                        .op(i)
                        .parent_ops()
                        .any(|p| dev.iter().any(|d| d.resident_for == Some(p)))
                };
                ready.sort_by_key(|&i| {
                    (
                        std::cmp::Reverse(consumes_resident(i) as u8),
                        std::cmp::Reverse(priority[i.0 as usize]),
                        i,
                    )
                });
            }
            ReadyOrder::Topological => ready.sort(),
        }

        let mut scheduled_one = false;
        for &i in &ready {
            // Pre-bound operations must run on their pre-loaded device.
            let d = if let Some(p) = &pre[i.0 as usize] {
                Some(p.device)
            } else {
                let kind = device_kind_for(graph.op(i).kind());
                let candidates = by_kind.get(&kind).cloned().unwrap_or_default();
                // A device is eligible if idle and unpinned, or if its
                // resident fluid is one of this operation's own inputs
                // (mixer-chain reuse).
                let mut eligible: Vec<DeviceId> = candidates
                    .iter()
                    .copied()
                    .filter(|&d| dev[d.0 as usize].pinned_for.is_none())
                    .filter(|&d| match dev[d.0 as usize].resident_for {
                        None => true,
                        Some(r) => graph.op(i).parent_ops().any(|p| p == r),
                    })
                    .collect();
                eligible.sort_by_key(|&d| (dev[d.0 as usize].free_at, d));
                eligible.first().copied()
            };
            let Some(d) = d else {
                continue;
            };
            schedule_op(
                graph,
                &chip,
                &reagent_ports,
                i,
                d,
                pre[i.0 as usize].take(),
                &mut res,
                &mut schedule,
                &mut dev,
                &mut done,
            )?;
            dev[d.0 as usize].pinned_for = None;
            binding[i.0 as usize] = Some(d);
            unscheduled.retain(|&o| o != i);
            scheduled_one = true;
            break;
        }
        if !scheduled_one {
            // Residency deadlock: every ready operation needs a device that
            // holds a result whose consumer is not ready. Break it by
            // pre-binding such a consumer's device and delivering the
            // blocking result into it early (plugs queue in the device) —
            // the holder is freed for the ready operations.
            let mut broke = false;
            'residents: for dj in 0..dev.len() {
                let Some(j) = dev[dj].resident_for else {
                    continue;
                };
                let Some(c) = graph.consumer_of(j) else {
                    continue;
                };
                if done[c.0 as usize].is_some() {
                    continue;
                }
                if let Some(p) = &pre[c.0 as usize] {
                    if p.delivered.contains(&j) {
                        continue;
                    }
                }
                // Fix the consumer's device now (or reuse its pre-binding).
                let cd = match &pre[c.0 as usize] {
                    Some(p) => p.device,
                    None => {
                        let kind = device_kind_for(graph.op(c).kind());
                        let mut options: Vec<DeviceId> = by_kind
                            .get(&kind)
                            .cloned()
                            .unwrap_or_default()
                            .into_iter()
                            .filter(|&d| {
                                dev[d.0 as usize].resident_for.is_none()
                                    && dev[d.0 as usize].pinned_for.is_none()
                            })
                            .collect();
                        options.sort_by_key(|&d| (dev[d.0 as usize].free_at, d));
                        match options.first() {
                            Some(&d) => d,
                            None => continue 'residents,
                        }
                    }
                };
                let slot = graph
                    .op(c)
                    .inputs()
                    .iter()
                    .position(|&inp| inp == pdw_assay::OpInput::Op(j))
                    .expect("consumer consumes the resident");
                let foot: Vec<Coord> = chip.device(cd).footprint().to_vec();
                let (mut my_res, mut prev_end, mut ready_for) = match pre[c.0 as usize].take() {
                    Some(p) => (Some(p.my_res), p.prev_delivery_end, p.ready_for_op),
                    None => {
                        let start = dev[cd.0 as usize].free_at.max(
                            res.free_from(foot.iter().copied(), &[])
                                .expect("unpinned idle devices have no open reservation"),
                        );
                        (None, start, start)
                    }
                };
                let mut delivered = match &pre[c.0 as usize] {
                    Some(p) => p.delivered.clone(),
                    None => Vec::new(),
                };
                let removal_end = deliver_input(
                    graph,
                    &chip,
                    &reagent_ports,
                    c,
                    slot,
                    pdw_assay::OpInput::Op(j),
                    cd,
                    &mut res,
                    &mut schedule,
                    &mut dev,
                    &mut done,
                    &mut my_res,
                    &mut prev_end,
                )?;
                ready_for = ready_for.max(removal_end);
                delivered.push(j);
                dev[cd.0 as usize].pinned_for = Some(c);
                pre[c.0 as usize] = Some(PreBind {
                    device: cd,
                    my_res: my_res.expect("delivery opened the reservation"),
                    prev_delivery_end: prev_end,
                    ready_for_op: ready_for,
                    delivered,
                });
                broke = true;
                break;
            }
            if !broke {
                return Err(SynthError::Deadlock {
                    unscheduled: unscheduled.len(),
                });
            }
        }
    }

    Ok(Synthesis {
        chip,
        schedule,
        binding: binding
            .into_iter()
            .map(|b| b.expect("all ops bound"))
            .collect(),
        reagent_ports,
    })
}

/// All orientation combinations for passing through a sequence of devices:
/// each device's full footprint is visited cell-by-cell, inlet→outlet or
/// outlet→inlet.
fn through_orders(devices: &[&[Coord]]) -> Vec<Vec<Coord>> {
    let mut orders: Vec<Vec<Coord>> = vec![Vec::new()];
    for cells in devices {
        let mut next = Vec::new();
        for base in &orders {
            let forward = cells.to_vec();
            let mut backward = cells.to_vec();
            backward.reverse();
            for o in [forward, backward] {
                let mut v = base.clone();
                v.extend(o);
                next.push(v);
            }
        }
        orders = next;
    }
    orders
}

/// Delivers one input of operation `i` into device `d`: routes the complete
/// port-to-port flow path, reserves it at the earliest conflict-free time
/// (after any previous load into `d`), opens the destination-footprint
/// reservation on the first load, frees the parent's device, and schedules
/// the excess-fluid removal(s). Returns the time by which the delivery and
/// its removals are done.
#[allow(clippy::too_many_arguments)]
fn deliver_input(
    graph: &AssayGraph,
    chip: &Chip,
    reagent_ports: &[Coord],
    i: OpId,
    slot: usize,
    input: OpInput,
    d: DeviceId,
    res: &mut Reservations,
    schedule: &mut Schedule,
    dev: &mut [DevState],
    done: &mut [Option<Done>],
    my_res: &mut Option<ResId>,
    prev_delivery_end: &mut Time,
) -> Result<Time, SynthError> {
    let device = chip.device(d);
    let foot: Vec<Coord> = device.footprint().to_vec();
    let dst = device.footprint();
    let (vias, ready, fluid, parent, kind): (
        Vec<Vec<Coord>>,
        Time,
        FluidType,
        Option<OpId>,
        TaskKind,
    ) = match input {
        OpInput::Reagent(r) => (
            through_orders(&[dst]),
            0,
            graph.reagent_fluid(r),
            None,
            TaskKind::Injection {
                reagent: r,
                op: i,
                slot,
            },
        ),
        OpInput::Op(j) => {
            let src = done[j.0 as usize].expect("parent is done");
            let sdev = chip.device(src.device);
            (
                through_orders(&[sdev.footprint(), dst]),
                src.end,
                graph.output_fluid(j),
                Some(j),
                TaskKind::Transport {
                    from_op: j,
                    to_op: i,
                },
            )
        }
    };

    // Route: other devices are obstacles; source and destination pass.
    let mut allowed = vec![d];
    if let Some(j) = parent {
        allowed.push(done[j.0 as usize].expect("parent is done").device);
    }
    let blocked = blocked_footprints(chip, &allowed);
    let mut path: Option<FlowPath> = None;
    for via in &vias {
        let candidate = match input {
            OpInput::Reagent(r) => {
                // Prefer the reagent's plumbed port; fall back to any
                // port (reservoir re-plumbing is a design-time choice).
                route_task_from(chip, reagent_ports[r.0 as usize], via, &blocked)
                    .or_else(|| route_task(chip, via, &blocked))
            }
            OpInput::Op(_) => route_task(chip, via, &blocked),
        };
        if let Some(p) = candidate {
            if path.as_ref().is_none_or(|b| p.len() < b.len()) {
                path = Some(p);
            }
        }
    }
    let path = path.ok_or(SynthError::Unroutable {
        op: i,
        what: if parent.is_some() {
            "transport"
        } else {
            "injection"
        },
    })?;
    let dur = flow_duration(path.len());

    let mut ignore: Vec<ResId> = my_res.iter().copied().collect();
    if let Some(j) = parent {
        let pd = done[j.0 as usize].expect("parent is done").device;
        ignore.extend(dev[pd.0 as usize].open);
    }
    let ready = ready.max(*prev_delivery_end);
    let start = res
        .earliest_fit(path.cells().iter().copied(), ready, dur, &ignore)
        .expect("closed reservations always leave a future slot");
    *prev_delivery_end = start + dur;
    res.add(path.cells().iter().copied(), start, start + dur);

    // Claim the destination footprint from the first delivery onward.
    if my_res.is_none() {
        *my_res = Some(res.add_open(foot.iter().copied(), start));
    }
    // Free the parent's device.
    if let Some(j) = parent {
        let pd = done[j.0 as usize].expect("parent is done").device;
        if let Some(open) = dev[pd.0 as usize].open.take() {
            res.close(open, start + dur);
        }
        dev[pd.0 as usize].resident_for = None;
        dev[pd.0 as usize].free_at = start + dur;
    }

    // Excess fluid removal (p_{j,i,2}) for this delivery: one flush covering
    // both device sides when a single simple path exists, otherwise one
    // flush per side.
    let (before, after) = excess_groups(&path, &foot);
    let mut removal_end = start + dur;
    if !(before.is_empty() && after.is_empty()) {
        let all_blocked = blocked_footprints(chip, &[]);
        let combined: Vec<Coord> = before.iter().chain(after.iter()).copied().collect();
        let groups: Vec<Vec<Coord>> = match route_flush(chip, &combined, &all_blocked) {
            Some(_) => vec![combined],
            None => [before, after]
                .into_iter()
                .filter(|g| !g.is_empty())
                .collect(),
        };
        for group in groups {
            let rpath = route_flush(chip, &group, &all_blocked).ok_or(SynthError::Unroutable {
                op: i,
                what: "excess removal",
            })?;
            let rdur = flow_duration(rpath.len());
            let rstart = res
                .earliest_fit(rpath.cells().iter().copied(), start + dur, rdur, &[])
                .expect("closed reservations always leave a future slot");
            res.add(rpath.cells().iter().copied(), rstart, rstart + rdur);
            schedule.push_task(Task::new(
                TaskKind::ExcessRemoval { op: i },
                rpath,
                rstart,
                rdur,
                fluid,
            ));
            removal_end = removal_end.max(rstart + rdur);
        }
    }

    schedule.push_task(Task::new(kind, path, start, dur, fluid));
    Ok(removal_end)
}

/// Sum of operation durations on the longest downstream chain, per op.
fn downstream_priority(graph: &AssayGraph) -> Vec<Time> {
    let mut prio = vec![0; graph.ops().len()];
    for i in graph.op_ids().collect::<Vec<_>>().into_iter().rev() {
        let own = graph.op(i).duration();
        let down = graph
            .consumer_of(i)
            .map(|c| prio[c.0 as usize])
            .unwrap_or(0);
        prio[i.0 as usize] = own + down;
    }
    prio
}

#[allow(clippy::too_many_arguments)]
fn schedule_op(
    graph: &AssayGraph,
    chip: &Chip,
    reagent_ports: &[Coord],
    i: OpId,
    d: DeviceId,
    pre: Option<PreBind>,
    res: &mut Reservations,
    schedule: &mut Schedule,
    dev: &mut [DevState],
    done: &mut [Option<Done>],
) -> Result<(), SynthError> {
    let op = graph.op(i);
    let device = chip.device(d);
    let foot: Vec<Coord> = device.footprint().to_vec();

    // The device may already hold one of our inputs (resident reuse), or
    // loading may already have begun (deadlock-breaking early delivery): in
    // both cases inherit the open reservation instead of creating one.
    let mut my_res: Option<ResId> = dev[d.0 as usize].open;
    let mut ready_for_op: Time = dev[d.0 as usize].free_at;
    if let Some(r) = dev[d.0 as usize].resident_for {
        ready_for_op = ready_for_op.max(done[r.0 as usize].expect("resident is done").end);
    }
    let pre_delivered: Vec<OpId> = pre
        .as_ref()
        .map(|p| p.delivered.clone())
        .unwrap_or_default();

    // Plugs are loaded into the device strictly one after another: once the
    // first plug is inside, a crossing flow would flush it out, so each
    // delivery must wait for the previous one. Loading cannot begin until
    // every already-booked use of the device footprint (earlier operations,
    // transports crossing the idle device) is over — the footprint must be
    // exclusively ours from first load to result pickup.
    let mut prev_delivery_end: Time = match &pre {
        Some(p) => {
            my_res = Some(p.my_res);
            ready_for_op = ready_for_op.max(p.ready_for_op);
            p.prev_delivery_end
        }
        None => {
            let inherited: Vec<ResId> = my_res.into_iter().collect();
            dev[d.0 as usize].free_at.max(
                res.free_from(foot.iter().copied(), &inherited)
                    .expect("devices with a foreign resident are never eligible"),
            )
        }
    };
    for (slot, &input) in op.inputs().iter().enumerate() {
        // Resident or pre-delivered inputs need no delivery.
        if let OpInput::Op(j) = input {
            if dev[d.0 as usize].resident_for == Some(j) || pre_delivered.contains(&j) {
                continue;
            }
        }

        let removal_end = deliver_input(
            graph,
            chip,
            reagent_ports,
            i,
            slot,
            input,
            d,
            res,
            schedule,
            dev,
            done,
            &mut my_res,
            &mut prev_delivery_end,
        )?;
        ready_for_op = ready_for_op.max(removal_end);
    }

    // If the op had only a resident input (no deliveries), the reservation
    // may still be missing (resident inherited): ensure one exists.
    let my_res = match my_res {
        Some(r) => r,
        None => res.add_open(foot.iter().copied(), ready_for_op),
    };

    // Execute the operation.
    let op_start = res
        .earliest_fit(foot.iter().copied(), ready_for_op, op.duration(), &[my_res])
        .expect("own reservation is ignored");
    let op_end = op_start + op.duration();
    schedule.push_op(ScheduledOp {
        op: i,
        device: d,
        start: op_start,
        duration: op.duration(),
    });
    done[i.0 as usize] = Some(Done {
        device: d,
        end: op_end,
    });

    if graph.consumer_of(i).is_some() {
        // Result stays resident until the consumer's transport picks it up.
        dev[d.0 as usize].open = Some(my_res);
        dev[d.0 as usize].resident_for = Some(i);
        dev[d.0 as usize].free_at = op_end;
    } else {
        // Sink: move the result off-chip.
        let blocked = blocked_footprints(chip, &[d]);
        let mut path: Option<FlowPath> = None;
        for via in through_orders(&[device.footprint()]) {
            if let Some(p) = route_task(chip, &via, &blocked) {
                if path.as_ref().is_none_or(|b| p.len() < b.len()) {
                    path = Some(p);
                }
            }
        }
        let path = path.ok_or(SynthError::Unroutable {
            op: i,
            what: "output removal",
        })?;
        let dur = flow_duration(path.len());
        let start = res
            .earliest_fit(path.cells().iter().copied(), op_end, dur, &[my_res])
            .expect("own reservation is ignored");
        res.add(path.cells().iter().copied(), start, start + dur);
        schedule.push_task(Task::new(
            TaskKind::OutputRemoval { op: i },
            path,
            start,
            dur,
            graph.output_fluid(i),
        ));
        res.close(my_res, start + dur);
        dev[d.0 as usize].open = None;
        dev[d.0 as usize].resident_for = None;
        dev[d.0 as usize].free_at = start + dur;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::build_chip;
    use pdw_assay::benchmarks;

    #[test]
    fn excess_cells_straddle_the_device() {
        // Path: p0 c1 c2 D3 D4 D5 c6 c7 p8 with device at indices 3-5.
        let cells: Vec<Coord> = (0..9).map(|x| Coord::new(x, 0)).collect();
        let path = FlowPath::new(cells.clone()).unwrap();
        let devc = [Coord::new(3, 0), Coord::new(4, 0), Coord::new(5, 0)];
        let ex = excess_cells(&path, &devc);
        assert_eq!(ex, vec![Coord::new(2, 0), Coord::new(6, 0)]);
    }

    #[test]
    fn excess_cells_never_include_ports() {
        // Device right next to both ports.
        let cells: Vec<Coord> = (0..4).map(|x| Coord::new(x, 0)).collect();
        let path = FlowPath::new(cells).unwrap();
        let devc = [Coord::new(1, 0), Coord::new(2, 0)];
        assert!(excess_cells(&path, &devc).is_empty());
    }

    #[test]
    fn demo_synthesizes_without_conflicts_in_time() {
        let bench = benchmarks::demo();
        let chip = build_chip(&bench).unwrap();
        let s = synthesize_on(&bench, chip).unwrap();
        assert_eq!(s.schedule.ops().len(), 7);
        // Every op scheduled after its parents.
        for (a, b) in bench.graph.dep_edges() {
            let pa = s.schedule.scheduled_op(a).unwrap();
            let pb = s.schedule.scheduled_op(b).unwrap();
            assert!(pa.end() <= pb.start, "{a} must precede {b}");
        }
    }

    #[test]
    fn whole_suite_synthesizes() {
        for bench in benchmarks::suite() {
            let s = synthesize(&bench).unwrap_or_else(|e| panic!("{}: {e}", bench.name));
            assert_eq!(s.schedule.ops().len(), bench.graph.ops().len());
            assert!(s.schedule.makespan() > 0);
        }
    }

    use crate::synthesize;

    #[test]
    fn no_two_overlapping_tasks_share_cells() {
        let s = synthesize(&benchmarks::demo()).unwrap();
        let ids = s.schedule.tasks_chronological();
        for (ai, &a) in ids.iter().enumerate() {
            for &b in &ids[ai + 1..] {
                let (ta, tb) = (s.schedule.task(a), s.schedule.task(b));
                assert!(
                    !ta.conflicts_with(tb),
                    "tasks {a} and {b} conflict: {ta} vs {tb}"
                );
            }
        }
    }

    #[test]
    fn deliveries_precede_their_operation() {
        let s = synthesize(&benchmarks::pcr()).unwrap();
        for (_, t) in s.schedule.tasks() {
            let op = match t.kind() {
                TaskKind::Injection { op, .. } => Some(*op),
                TaskKind::Transport { to_op, .. } => Some(*to_op),
                _ => None,
            };
            if let Some(op) = op {
                let so = s.schedule.scheduled_op(op).unwrap();
                assert!(
                    t.end() <= so.start,
                    "delivery {t} must finish before {op} starts at {}",
                    so.start
                );
            }
        }
    }
}
