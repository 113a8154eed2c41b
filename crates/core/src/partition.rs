//! Partitioned planning: cut the chip into regions, plan each region's
//! washes in parallel against its own sub-chip view, coordinate the
//! cross-boundary remainder over the cut interfaces, and stitch everything
//! on one timeline.
//!
//! The whole-chip pipeline walls on mega-grids: candidate enumeration and
//! the port-reachability fields are super-linear in chip area. The
//! partitioned pipeline ([`plan_partitioned`](crate::plan_partitioned))
//! instead
//!
//! 1. cuts the grid into `K` column bands along low-traffic boundaries
//!    ([`pdw_biochip::partition()`]),
//! 2. buckets wash requirements by the **span** of their contaminating
//!    path — the contiguous run of bands the source task's flow path
//!    touches. Single-band buckets plan on their region's view; cross-cut
//!    buckets plan on a carved union of exactly the bands they span
//!    ([`pdw_biochip::span_view`]). A requirement its view cannot wash
//!    alone (no enabled port pair, or the cell is unreachable inside the
//!    view) joins the whole-chip **seam set**,
//! 3. plans every live bucket's front end *in parallel* — each worker sees
//!    only its bucket's carved view, so BFS fields, routing, and candidate
//!    enumeration all shrink to the span; regions with no necessity of
//!    their own are skipped outright,
//! 4. plans the seam set on the whole chip and lets a small coordination
//!    ILP pick, per cut-crossing group, the candidate path that balances
//!    crossings over the cut interfaces,
//! 5. stitches all groups with one greedy sweep-line insertion on the full
//!    chip and re-validates the result end to end.
//!
//! Because every region view preserves the parent grid's dimensions,
//! coordinates, device ids, and port ids, a path enumerated inside a region
//! is directly valid on the whole chip — stitching needs no translation.
//!
//! The pipeline is the first rung of the one degradation ladder (see
//! [`plan_partitioned_ctx`](crate::plan_partitioned_ctx)), which puts its
//! plan through the same gate as every other rung and falls through to
//! PDW → greedy → DAWO on any rejection. `K ≤ 1` leaves the rung out, so
//! the output is bit-identical to [`plan_resilient`](crate::plan_resilient)
//! at any thread count; a partition that clamps to one region runs the
//! unpartitioned pipeline inside the rung.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use pdw_biochip::partition::{Partition, Region};
use pdw_biochip::{CellKind, Chip, Coord, FlowPortId, ScratchPool, WastePortId};
use pdw_contam::{Classification, NecessityOptions, Source, WashRequirement};
use pdw_ilp::{solve, Model, Relation, SolveOptions, SolveStatus, VarId};
use pdw_sched::Schedule;

use crate::config::{CandidatePolicy, PdwConfig};
use crate::context::PlanContext;
use crate::deadline::Deadline;
use crate::greedy::insert_washes_protected;
use crate::groups::{merge_groups_pooled, spot_cluster_groups_pooled, WashGroup};
use crate::par::try_par_map_ctx;
use crate::pdw::{finish, run_pipeline, PdwError, SolverReport, WashResult};
use crate::stats::StageTimer;

/// The front end for one span bucket or the seam set: grouping,
/// spot-cluster splitting, and (optionally) merging. Span buckets run it
/// single-threaded — the parallelism lives across buckets, never inside
/// one.
fn region_front_end(
    chip: &Chip,
    schedule: &Schedule,
    requirements: &[WashRequirement],
    candidates: usize,
    merging: bool,
    threads: usize,
    pool: &ScratchPool,
) -> Vec<WashGroup> {
    let groups = spot_cluster_groups_pooled(
        chip,
        schedule,
        requirements,
        CandidatePolicy::Shortest,
        candidates,
        threads,
        pool,
    );
    if merging {
        merge_groups_pooled(chip, schedule, groups, candidates, false, pool)
    } else {
        groups
    }
}

/// The partitioned pipeline proper (see the [module docs](self)): the
/// ladder's partitioned rung. Requires `partitions ≥ 2`; a partition that
/// clamps to a single region falls back to the unpartitioned
/// [`run_pipeline`].
pub(crate) fn run_partitioned_pipeline(
    ctx: &mut PlanContext<'_>,
    config: &PdwConfig,
    partitions: usize,
) -> Result<WashResult, PdwError> {
    let bench = ctx.bench();
    let synthesis = ctx.synthesis();
    let mut timer = StageTimer::start(config.threads);
    let deadline = Deadline::start(config.pipeline_budget);

    let necessity = if config.necessity_analysis {
        NecessityOptions::full()
    } else {
        NecessityOptions::reuse_only()
    };
    timer.stats.necessity_s = ctx.ensure_analysis(necessity);
    let exemptions = {
        let analysis = ctx.analysis(necessity);
        (
            analysis.count(Classification::Type1Unused),
            analysis.count(Classification::Type2SameFluid),
            analysis.count(Classification::Type3WasteOnly),
        )
    };

    let part = pdw_biochip::partition(&synthesis.chip, partitions)
        .map_err(|e| PdwError::Partition(e.to_string()))?;
    if part.regions().len() < 2 {
        // Every viable cut was clamped away: the "partition" is the whole
        // chip, so the unpartitioned pipeline is the correct (and cheaper)
        // path. The clamp is still surfaced via the returned stats.
        let mut result = run_pipeline(ctx, config)?;
        result.pipeline.partition_regions = 1;
        result.pipeline.partition_clamped = true;
        return Ok(result);
    }
    timer.stats.partition_regions = part.regions().len();
    timer.stats.partition_clamped = part.clamped();

    // Deadline checkpoint, mirroring the unpartitioned front end: an
    // expired budget degrades every region to the cheapest variant.
    let degraded = deadline.expired();
    if degraded {
        timer.stats.deadline_expired = true;
        timer.stats.degraded_front_end = true;
    }
    let candidates = if degraded { 1 } else { config.candidates };
    let merging = if degraded { false } else { config.merging };

    // Assign each requirement by the *span* of its contaminating path: the
    // contiguous run of bands the source task's flow path touches (cached
    // per task; device residues key on their cell's band). Each distinct
    // span plans against its own carved view — a region for single-band
    // spans, a [`pdw_biochip::span_view`] union of bands otherwise — so one
    // wash can still sweep an entire cross-cut contamination run, while
    // never enumerating candidates on more chip than that run touches.
    // Splitting a cross-cut run per band would instead pay one wash per
    // band it crosses; planning it whole-chip would forfeit the speedup.
    let analysis = ctx.analysis(necessity);
    let mut spans: HashMap<pdw_sched::TaskId, (usize, usize)> = HashMap::new();
    let mut buckets: BTreeMap<(usize, usize), Vec<WashRequirement>> = BTreeMap::new();
    for r in &analysis.requirements {
        let cell_band = part.region_of(r.cell);
        let key = match r.source {
            Source::Task(id) => *spans.entry(id).or_insert_with(|| {
                synthesis.schedule.task(id).path().cells().iter().fold(
                    (cell_band, cell_band),
                    |(lo, hi), &c| {
                        let b = part.region_of(c);
                        (lo.min(b), hi.max(b))
                    },
                )
            }),
            Source::Op(_) => (cell_band, cell_band),
        };
        buckets.entry(key).or_default().push(r.clone());
    }

    // One carved view per distinct multi-band span; span boundaries reuse
    // the partition's own validated cut columns. Single-band buckets borrow
    // their region's view. Requirements a view cannot wash alone (no
    // enabled port pair, or the cell is walled off channel-wise inside the
    // view) fall through to the whole-chip seam set.
    let span_views: Vec<((usize, usize), Region)> = buckets
        .keys()
        .filter(|&&(lo, hi)| lo != hi)
        .map(|&(lo, hi)| {
            let x_lo = part.regions()[lo].x_lo;
            let x_hi = part.regions()[hi].x_hi;
            (
                (lo, hi),
                pdw_biochip::span_view(&synthesis.chip, x_lo, x_hi),
            )
        })
        .collect();
    let view_of = |key: (usize, usize)| -> Option<&Region> {
        let view = if key.0 == key.1 {
            &part.regions()[key.0]
        } else {
            span_views
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v)
                .expect("every multi-band bucket carved a span view")
        };
        view.plannable().then_some(view)
    };

    let mut seam: Vec<WashRequirement> = Vec::new();
    let mut work: Vec<((usize, usize), &Region, Vec<WashRequirement>)> = Vec::new();
    let mut band_live = vec![false; part.regions().len()];
    for (key, reqs) in buckets {
        let Some(view) = view_of(key) else {
            seam.extend(reqs);
            continue;
        };
        let reach = BandReach::compute(view.chip());
        let (keep, spill): (Vec<_>, Vec<_>) = reqs
            .into_iter()
            .partition(|r| reach.washable(view.chip(), r.cell));
        seam.extend(spill);
        if !keep.is_empty() {
            if key.0 == key.1 {
                band_live[key.0] = true;
            }
            work.push((key, view, keep));
        }
    }
    // A region with no live band bucket of its own contributes no front end
    // — no reachability fields, no routing, no candidate enumeration.
    timer.stats.regions_skipped = band_live.iter().filter(|live| !**live).count();

    // Plan every live bucket's front end on scoped threads, one serial
    // front end per bucket (the parallelism is across buckets). A bucket
    // that panics — e.g. a cluster-split bridge cell landing outside its
    // view — refuses: its requirements are replanned on the whole chip as
    // seam work.
    let fronts = timer.stage(
        |s| &mut s.grouping_s,
        || {
            try_par_map_ctx(
                &work,
                config.threads,
                ScratchPool::new,
                |pool, _, (_, view, reqs)| {
                    region_front_end(
                        view.chip(),
                        &synthesis.schedule,
                        reqs,
                        candidates,
                        merging,
                        1,
                        pool,
                    )
                },
            )
        },
    );
    let mut groups: Vec<WashGroup> = Vec::new();
    let mut cross_groups: Vec<WashGroup> = Vec::new();
    for (front, (key, _, reqs)) in fronts.into_iter().zip(&work) {
        match front {
            Ok(g) => {
                if key.0 == key.1 {
                    groups.extend(g);
                } else {
                    cross_groups.extend(g);
                }
            }
            Err(_) => {
                timer.stats.regions_refused += 1;
                seam.extend(reqs.iter().cloned());
            }
        }
    }

    // The seam set plans on the whole chip — these groups may use any port
    // and cross any cut.
    let seam_front = timer.stage(
        |s| &mut s.merge_s,
        || {
            if seam.is_empty() {
                Vec::new()
            } else {
                region_front_end(
                    &synthesis.chip,
                    &synthesis.schedule,
                    &seam,
                    candidates,
                    merging,
                    config.threads,
                    ctx.scratch_pool(),
                )
            }
        },
    );
    cross_groups.extend(seam_front);

    // Cross-bucket cleanup: in-bucket merging cannot see washes from other
    // buckets, yet two buckets' washes that traverse common channels (the
    // port funnels, a shared cut crossing) still consolidate profitably.
    // The overlap-gated merge retries exactly those pairs on the whole
    // chip — the mask gate keeps it far below the full quadratic merge.
    let mut all_groups = groups;
    all_groups.extend(cross_groups);
    if merging {
        all_groups = timer.stage(
            |s| &mut s.merge_s,
            || {
                merge_groups_pooled(
                    &synthesis.chip,
                    &synthesis.schedule,
                    all_groups,
                    candidates,
                    true,
                    ctx.scratch_pool(),
                )
            },
        );
    }
    let mut groups = all_groups;
    timer.stats.seam_groups = groups
        .iter()
        .filter(|g| {
            part.interfaces().iter().any(|iface| {
                iface.channels.iter().any(|&(a, b)| {
                    g.candidates[0].path.contains(a) && g.candidates[0].path.contains(b)
                })
            })
        })
        .count();

    // Coordinate the groups' path choices over the cut interfaces. Groups
    // that never cross a cut contribute no crossing terms; the ILP leaves
    // their shortest-first order standing.
    if !groups.is_empty() && !part.interfaces().is_empty() {
        if deadline.expired() {
            timer.stats.deadline_expired = true;
            timer.stats.ilp_skipped = true;
        } else {
            let budget = deadline.clamp(config.ilp_budget);
            timer.stage(
                |s| &mut s.ilp_s,
                || coordinate_seams(&mut groups, &part, budget),
            );
        }
    }

    // Stitch: all groups (band buckets, span buckets, seam) inserted by one
    // greedy sweep line on the full chip and the full base schedule. Bucket
    // paths are valid here verbatim, because carved views preserve all
    // coordinates and ids.
    let protected: HashSet<pdw_sched::TaskId> = synthesis
        .schedule
        .tasks()
        .filter(|(_, t)| t.kind().is_waste_disposal())
        .map(|(id, _)| id)
        .filter(|id| !analysis.deletable.contains(id))
        .collect();
    let greedy = timer.stage(
        |s| &mut s.greedy_s,
        || {
            insert_washes_protected(
                &synthesis.chip,
                &synthesis.schedule,
                &groups,
                config.integration,
                &protected,
            )
        },
    );
    let integrated = greedy.integrated.len();
    timer.stats.groups = greedy.groups.len();
    timer.stats.candidates = greedy.groups.iter().map(|g| g.candidates.len()).sum();

    finish(
        bench,
        synthesis,
        greedy.schedule,
        exemptions,
        integrated,
        SolverReport::greedy(),
        timer.seal(),
    )
}

/// Channel-only flow/waste reachability inside one region view — the
/// passability that candidate enumeration actually uses for wash paths
/// (device-avoiding). The chip's cached `PortReach` fields treat device
/// interiors as routable, which over-promises what a band can wash on its
/// own: a cell admitted by that test but walled off channel-wise would
/// panic the region's front end and refuse the whole band. This stricter
/// check sends such cells straight to the seam set instead.
struct BandReach {
    width: usize,
    flow: Vec<bool>,
    waste: Vec<bool>,
    enabled_ports: HashSet<Coord>,
}

impl BandReach {
    fn compute(chip: &Chip) -> Self {
        let grid = chip.grid();
        let w = grid.width() as usize;
        let h = grid.height() as usize;
        let flood = |ports: Vec<Coord>| -> Vec<bool> {
            let mut seen = vec![false; w * h];
            let mut queue: Vec<Coord> = Vec::new();
            let visit = |from: Coord, seen: &mut Vec<bool>, queue: &mut Vec<Coord>| {
                for n in grid.neighbors(from) {
                    let ni = n.y as usize * w + n.x as usize;
                    if seen[ni]
                        || grid.kind(n) != CellKind::Channel
                        || chip.faults().cell_blocked(n)
                        || chip.faults().edge_blocked(from, n)
                    {
                        continue;
                    }
                    seen[ni] = true;
                    queue.push(n);
                }
            };
            for p in ports {
                visit(p, &mut seen, &mut queue);
            }
            let mut head = 0;
            while head < queue.len() {
                let c = queue[head];
                head += 1;
                visit(c, &mut seen, &mut queue);
            }
            seen
        };
        let flow_ports: Vec<Coord> = chip
            .flow_ports()
            .enumerate()
            .filter(|&(i, _)| !chip.faults().flow_port_disabled(FlowPortId(i as u32)))
            .map(|(_, c)| c)
            .collect();
        let waste_ports: Vec<Coord> = chip
            .waste_ports()
            .enumerate()
            .filter(|&(i, _)| !chip.faults().waste_port_disabled(WastePortId(i as u32)))
            .map(|(_, c)| c)
            .collect();
        let flow = flood(flow_ports.clone());
        let waste = flood(waste_ports.clone());
        BandReach {
            width: w,
            flow,
            waste,
            enabled_ports: flow_ports.into_iter().chain(waste_ports).collect(),
        }
    }

    fn at(&self, field: &[bool], c: Coord) -> bool {
        field[c.y as usize * self.width + c.x as usize]
    }

    /// `true` when a device-avoiding wash path through `cell` can exist on
    /// this chip: channel cells need flow- and waste-side reachability AND
    /// two distinct usable neighbors to enter and leave through — a
    /// dead-end stub at a cut boundary is reachable but not traversable.
    /// Device cells are always seam work: a wash path covers a device
    /// target by traversing its footprint run, and whether that run's exit
    /// survives the cut is a whole-chip question, not a band-local one.
    fn washable(&self, chip: &Chip, cell: Coord) -> bool {
        let grid = chip.grid();
        if grid.kind(cell) != CellKind::Channel
            || !self.at(&self.flow, cell)
            || !self.at(&self.waste, cell)
        {
            return false;
        }
        let exits = grid
            .neighbors(cell)
            .filter(|&n| {
                (grid.kind(n) == CellKind::Channel
                    && (self.at(&self.flow, n) || self.at(&self.waste, n)))
                    || self.enabled_ports.contains(&n)
            })
            .count();
        exits >= 2
    }
}

/// The seam-coordination ILP: pick one candidate path per seam group so
/// that total wash duration is minimized and no cut interface is
/// oversubscribed — seam paths piling onto one cut serialize there, so
/// every crossing beyond the first per cut pays a wash-scale penalty.
///
/// Determinism: the model is built in group order and solved single-
/// threaded; its choice is adopted only when proven optimal. On a budget
/// expiry, a solver error, or a non-optimal incumbent, the shortest-first
/// candidate order stands untouched — the same fallback at any thread
/// count.
fn coordinate_seams(groups: &mut [WashGroup], part: &Partition, budget: Duration) {
    let choosers: Vec<usize> = groups
        .iter()
        .enumerate()
        .filter(|(_, g)| g.candidates.len() > 1)
        .map(|(i, _)| i)
        .collect();
    if choosers.is_empty() {
        return;
    }

    let mut m = Model::new("seam-coordination");
    // x[g][c]: seam group g washes via candidate c; cost = the candidate's
    // wash duration (the objective's length term at stitch granularity).
    let mut xs: Vec<Vec<VarId>> = Vec::new();
    let mut duration_sum = 0.0;
    let mut duration_n = 0usize;
    for &gi in &choosers {
        let vars: Vec<VarId> = groups[gi]
            .candidates
            .iter()
            .enumerate()
            .map(|(ci, cand)| {
                duration_sum += cand.duration as f64;
                duration_n += 1;
                m.binary(&format!("x_{gi}_{ci}"), cand.duration as f64)
            })
            .collect();
        let pick: Vec<(VarId, f64)> = vars.iter().map(|&v| (v, 1.0)).collect();
        m.constraint(pick, Relation::Eq, 1.0);
        xs.push(vars);
    }
    // y[i] ≥ (crossings of cut i) − 1: overflow beyond one shared crossing
    // per cut, penalized at the scale of a typical candidate duration.
    let penalty = duration_sum / duration_n as f64;
    for (ii, iface) in part.interfaces().iter().enumerate() {
        let mut terms: Vec<(VarId, f64)> = Vec::new();
        for (k, &gi) in choosers.iter().enumerate() {
            for (ci, cand) in groups[gi].candidates.iter().enumerate() {
                let crosses = iface
                    .channels
                    .iter()
                    .any(|&(a, b)| cand.path.contains(a) && cand.path.contains(b));
                if crosses {
                    terms.push((xs[k][ci], 1.0));
                }
            }
        }
        if terms.len() > 1 {
            let cap = terms.len() as f64;
            let y = m.integer(&format!("y_{ii}"), 0.0, cap, penalty);
            terms.push((y, -1.0));
            m.constraint(terms, Relation::Le, 1.0);
        }
    }

    let opts = SolveOptions {
        time_limit: budget,
        threads: 1,
        ..SolveOptions::default()
    };
    let Ok(sol) = solve(&m, &opts) else { return };
    if sol.status != SolveStatus::Optimal {
        return;
    }
    // Promote each group's chosen candidate to the front; the greedy
    // stitcher tries candidates in order.
    for (k, &gi) in choosers.iter().enumerate() {
        if let Some(ci) = xs[k].iter().position(|&v| sol.bool_value(v)) {
            if ci > 0 {
                let chosen = groups[gi].candidates.remove(ci);
                groups[gi].candidates.insert(0, chosen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{plan_partitioned, RungKind};
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    fn config() -> PdwConfig {
        PdwConfig {
            ilp: false,
            ..PdwConfig::default()
        }
    }

    #[test]
    fn k1_is_bit_identical_to_plan_resilient() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let base = crate::plan_resilient(&bench, &s, &config());
        let part = plan_partitioned(&bench, &s, &config(), 1);
        assert_eq!(part.rung, base.rung);
        assert_eq!(
            part.served.as_ref().unwrap().schedule,
            base.served.as_ref().unwrap().schedule
        );
        assert_eq!(
            part.served.as_ref().unwrap().metrics,
            base.served.as_ref().unwrap().metrics
        );
    }

    #[test]
    fn partitioned_demo_serves_a_validated_plan() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let outcome = plan_partitioned(&bench, &s, &config(), 2);
        assert!(outcome.is_served(), "{outcome}");
        let served = outcome.served.as_ref().unwrap();
        // The rung gate already ran validate + propagate; spot-check here.
        pdw_sim::validate(&s.chip, &bench.graph, &served.schedule).unwrap();
        assert!(pdw_sim::propagate(&s.chip, &bench.graph, &served.schedule).is_clean());
        if outcome.rung == Some(RungKind::Partitioned) {
            assert!(served.pipeline.partition_regions >= 1);
        }
    }

    #[test]
    fn partitioned_output_is_thread_count_invariant() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let run = |threads: usize| {
            plan_partitioned(
                &bench,
                &s,
                &PdwConfig {
                    threads,
                    ..config()
                },
                4,
            )
        };
        let serial = run(1);
        for threads in [2, 8] {
            let par = run(threads);
            assert_eq!(par.rung, serial.rung);
            assert_eq!(
                par.served.as_ref().unwrap().schedule,
                serial.served.as_ref().unwrap().schedule,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn oversized_k_clamps_and_still_serves() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let outcome = plan_partitioned(&bench, &s, &config(), 64);
        assert!(outcome.is_served(), "{outcome}");
        let served = outcome.served.as_ref().unwrap();
        if outcome.rung == Some(RungKind::Partitioned) {
            assert!(served.pipeline.partition_clamped);
            assert!(served
                .pipeline
                .degradation_events()
                .iter()
                .any(|e| e == "partition clamped (fewer viable cuts than requested regions)"));
        }
    }
}
