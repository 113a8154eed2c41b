//! Incremental replanning: delta-scoped cache invalidation and plan repair.
//!
//! A [`RepairSession`] owns one instance (benchmark + synthesis), a planner
//! configuration, and the warm solve state a [`PlanContext`] accumulates —
//! necessity analyses, front-end wash groups, port-reachability fields, and
//! pooled BFS scratch. When the instance changes — a chip fault appears or
//! is repaired, an operation is delayed, a wash requirement is forced or
//! waived — [`RepairSession::repair`] applies the typed [`PlanDelta`],
//! invalidates only the cached state the delta's cell/port footprint
//! touches, and re-runs the degradation ladder warm:
//!
//! 1. the delta's footprint is computed as a [`CellSet`] mask (blocked/
//!    cleared cells, edge endpoints, port coordinates, edited requirement
//!    cells);
//! 2. cached necessity analyses are dropped only if their scanned cells
//!    intersect the mask ([`Analysis::touches`]); front-end group sets only
//!    if a stored candidate path crosses it; the chip's
//!    [`PortReach`](pdw_biochip::PortReach) fields are carried forward
//!    per-port with epoch-stamped generation counters
//!    ([`PortReach::carry_forward`](pdw_biochip::PortReach::carry_forward))
//!    instead of being recomputed wholesale;
//! 3. the verified schedule prefix before the delta's first affected event
//!    time is certified frozen (`repair_prefix_frozen`): every invalidation
//!    rule above guarantees a surviving cache entry is bit-identical to
//!    what a cold solve would recompute, so the replanned plan provably
//!    reattaches to the same prefix — the certification *counts* the
//!    unchanged prefix tasks rather than trusting the splice;
//! 4. the repaired plan is re-verified with the fault-aware
//!    [`pdw_sim::validate`] + [`pdw_sim::propagate`] oracle before serving,
//!    exactly like [`plan_resilient`](crate::plan_resilient) — including on
//!    the fast path, where a delta that misses every cache entry *and*
//!    every path of the served plan re-serves the cached plan after
//!    re-verification instead of replanning at all.
//!
//! Because every surviving cache entry equals its cold recomputation, a
//! repaired plan is **bit-identical to a cold solve on the mutated
//! instance** (differentially tested by the chaos harness across budgets ×
//! threads × partitions) while skipping most of the work: `tests/repair.rs`
//! gates the fast path at ≥ 10x a cold solve, and the `serve-repair`
//! benchmark workload traces the `repair.*` layers.

use std::time::Instant;

use pdw_assay::benchmarks::Benchmark;
use pdw_assay::{OpId, Seconds as Time};
use pdw_biochip::{CellSet, Coord, FaultDelta};
use pdw_contam::WashRequirement;
use pdw_synth::Synthesis;

use crate::config::PdwConfig;
use crate::context::{ContextParts, PlanContext};
use crate::partition::plan_partitioned_ctx;
use crate::resilient::{PlanOutcome, RungAttempt, RungKind, RungRejection};
use crate::timeline::frozen_prefix_len;

/// A typed, single-step change to a planned instance.
///
/// Deltas are the unit of incremental replanning: each names exactly what
/// changed so [`RepairSession::repair`] can bound the cached state it must
/// throw away. Applying a delta that changes nothing (blocking an
/// already-blocked cell, a zero delay, waiving an already-waived cell) is a
/// no-op: the cached plan is re-served without replanning.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum PlanDelta {
    /// A chip fault appears or is repaired in the field.
    Fault(FaultDelta),
    /// Operation `op` (and everything at or after its start) slips by
    /// `delay` seconds — an op delayed or retimed upstream.
    DelayOp {
        /// The delayed operation.
        op: OpId,
        /// The slip, in schedule seconds.
        delay: Time,
    },
    /// A wash requirement is forced in addition to what the necessity
    /// analysis derives (e.g. an operator-mandated decontamination).
    AddRequirement(WashRequirement),
    /// Analyzed wash requirements on `cell` are waived (e.g. the residue
    /// is known tolerable for the remaining assay).
    DropRequirement {
        /// The cell whose requirements are dropped.
        cell: Coord,
    },
}

impl std::fmt::Display for PlanDelta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanDelta::Fault(d) => write!(f, "{d}"),
            PlanDelta::DelayOp { op, delay } => write!(f, "delay op {} by {delay}s", op.0),
            PlanDelta::AddRequirement(r) => write!(f, "force wash at {}", r.cell),
            PlanDelta::DropRequirement { cell } => write!(f, "waive washes at {cell}"),
        }
    }
}

/// Counters describing what one repair invalidated and what it kept.
#[derive(Debug, Clone, Copy, Default)]
struct RepairAccounting {
    invalidated_analyses: usize,
    kept_analyses: usize,
    invalidated_front_ends: usize,
    kept_front_ends: usize,
    reach_recomputed: usize,
    reach_carried: usize,
    cache_served: bool,
}

/// An owning, incrementally-repairable planning session over one instance
/// (see the [module docs](self)).
pub struct RepairSession {
    bench: Benchmark,
    synthesis: Synthesis,
    config: PdwConfig,
    partitions: usize,
    /// Harvested context caches, threaded across repairs. `None` only
    /// transiently while a ladder run borrows them.
    parts: Option<ContextParts>,
    /// The last outcome served (initial plan or latest repair).
    last: Option<PlanOutcome>,
    /// Repairs performed so far.
    repairs: usize,
}

impl RepairSession {
    /// Opens a session owning `bench` + `synthesis`, planned under
    /// `config` through the unpartitioned degradation ladder.
    pub fn new(bench: Benchmark, synthesis: Synthesis, config: PdwConfig) -> Self {
        RepairSession {
            bench,
            synthesis,
            config,
            partitions: 1,
            parts: Some(ContextParts::default()),
            last: None,
            repairs: 0,
        }
    }

    /// Routes solves through [`plan_partitioned_ctx`] with `partitions`
    /// regions (`<= 1` keeps the plain resilient ladder).
    pub fn with_partitions(mut self, partitions: usize) -> Self {
        self.partitions = partitions;
        self
    }

    /// The benchmark this session plans.
    pub fn bench(&self) -> &Benchmark {
        &self.bench
    }

    /// The instance as currently mutated (chip faults and schedule delays
    /// applied).
    pub fn synthesis(&self) -> &Synthesis {
        &self.synthesis
    }

    /// The planner configuration.
    pub fn config(&self) -> &PdwConfig {
        &self.config
    }

    /// The last outcome served, if any.
    pub fn last(&self) -> Option<&PlanOutcome> {
        self.last.as_ref()
    }

    /// Repairs performed so far.
    pub fn repairs(&self) -> usize {
        self.repairs
    }

    /// Solves the instance through the ladder, populating the session's
    /// caches. The first call is a cold solve; later calls are warm
    /// re-solves (bit-identical, faster).
    pub fn plan(&mut self) -> PlanOutcome {
        let outcome = self.run_ladder();
        self.last = Some(outcome.clone());
        outcome
    }

    /// A cold differential reference: the ladder run on the *current*
    /// (mutated) instance with no cached analyses or front ends — only the
    /// session's requirement overrides carry over, since they are part of
    /// the instance's meaning, not of its cached solve state. A repaired
    /// plan must be bit-identical to this.
    pub fn cold_reference(&self) -> PlanOutcome {
        let overrides = self
            .parts
            .as_ref()
            .map(|p| p.overrides.clone())
            .unwrap_or_default();
        let mut ctx = PlanContext::from_parts(
            &self.bench,
            &self.synthesis,
            ContextParts {
                overrides,
                ..ContextParts::default()
            },
        );
        plan_partitioned_ctx(&mut ctx, &self.config, self.partitions)
    }

    /// Applies `delta` to the owned instance and repairs the plan,
    /// invalidating only the cached state the delta's footprint touches
    /// (see the [module docs](self) for the invalidation rules). The
    /// returned outcome carries `repair_*` counters in its
    /// [`PipelineStats`](crate::PipelineStats).
    ///
    /// A delta that changes nothing re-serves the cached plan; a malformed
    /// delta (unknown op or port id, off-grid fault) serves nothing and
    /// reports a single [`RungRejection::PlannerError`] attempt.
    pub fn repair(&mut self, delta: &PlanDelta) -> PlanOutcome {
        let t = Instant::now();
        let prior_schedule = self
            .last
            .as_ref()
            .and_then(|o| o.served.as_ref())
            .map(|w| w.schedule.clone());
        let mut acct = RepairAccounting::default();

        // 1. Apply the delta to the owned instance, computing its cell/port
        //    footprint and the first schedule time it can affect.
        let freeze_until: Time = match delta {
            PlanDelta::Fault(fd) => {
                if let Err(msg) = self.check_fault_delta(fd) {
                    return self.reject(msg, t.elapsed().as_secs_f64());
                }
                let mut faults = self.synthesis.chip.faults().clone();
                if !fd.apply(&mut faults) {
                    return self.serve_unchanged(t);
                }
                let mutated = match self.synthesis.chip.with_faults(faults) {
                    Ok(c) => c,
                    Err(e) => return self.reject(e.to_string(), t.elapsed().as_secs_f64()),
                };
                // Carry the reachability fields forward per port instead of
                // recomputing them: seed the mutated chip's lazy cache with
                // the carried fields (bit-identical to a cold compute).
                let reach = self.synthesis.chip.port_reach().carry_forward(&mutated, fd);
                acct.reach_recomputed = reach.recomputed_fields();
                acct.reach_carried = reach.carried_fields();
                mutated.seed_reach(reach);
                let mask = self.fault_mask(fd);
                self.synthesis.chip = mutated;

                let parts = self.parts.as_mut().expect("parts present between runs");
                if fd.expands_reach() {
                    // Reachability may grow anywhere: every cached candidate
                    // enumeration is suspect. Analyses replay the schedule,
                    // not the routing graph, so they all survive.
                    acct.invalidated_front_ends = parts.invalidate_front_ends();
                } else {
                    let (a, f) = parts.invalidate_masked(&mask);
                    acct.invalidated_analyses = a;
                    acct.invalidated_front_ends = f;
                }
                acct.kept_analyses = parts.analyses.len();
                acct.kept_front_ends = parts.front_ends.len();

                let plan_missed = prior_schedule.as_ref().is_some_and(|s| {
                    s.tasks()
                        .all(|(_, task)| !task.path().mask().intersects(&mask))
                });
                // Fast path: a shrink delta that missed every cache entry
                // and every path of the served plan cannot change what a
                // cold deterministic solve would produce — re-verify the
                // cached plan on the mutated chip and serve it as-is. The
                // ILP and exact-path refinements consult the chip beyond
                // the caches, so the fast path requires both off.
                if !fd.expands_reach()
                    && acct.invalidated_analyses == 0
                    && acct.invalidated_front_ends == 0
                    && plan_missed
                    && !self.config.ilp
                    && !self.config.exact_paths
                {
                    if let Some(outcome) = self.serve_cached_verified(acct, t) {
                        return outcome;
                    }
                }
                self.first_affected_time(prior_schedule.as_ref(), &mask)
            }
            PlanDelta::DelayOp { op, delay } => {
                let Some(sop) = self.synthesis.schedule.scheduled_op(*op) else {
                    return self.reject(
                        format!("unknown op {} in delay delta", op.0),
                        t.elapsed().as_secs_f64(),
                    );
                };
                if *delay == 0 {
                    return self.serve_unchanged(t);
                }
                let pivot = sop.start;
                crate::timeline::shift_from(&mut self.synthesis.schedule, pivot, *delay);
                let parts = self.parts.as_mut().expect("parts present between runs");
                // The base schedule changed: every analysis and every
                // requirement-derived group set is stale. Reachability and
                // scratch are schedule-independent and survive.
                acct.invalidated_analyses = parts.invalidate_analyses();
                acct.invalidated_front_ends = parts.invalidate_front_ends();
                pivot
            }
            PlanDelta::AddRequirement(req) => {
                let freeze = req.contaminated_at;
                let parts = self.parts.as_mut().expect("parts present between runs");
                parts.overrides.force(req.clone());
                acct.invalidated_analyses = parts.invalidate_analyses();
                acct.invalidated_front_ends = parts.invalidate_front_ends();
                freeze
            }
            PlanDelta::DropRequirement { cell } => {
                let parts = self.parts.as_mut().expect("parts present between runs");
                // First affected time: the earliest window-start of a
                // requirement this waiver removes (0 if unknown).
                let freeze = parts
                    .analyses
                    .iter()
                    .flat_map(|(_, a)| a.requirements.iter())
                    .filter(|r| r.cell == *cell)
                    .map(|r| r.contaminated_at)
                    .min()
                    .unwrap_or(0);
                if !parts.overrides.waive(*cell) {
                    return self.serve_unchanged(t);
                }
                acct.invalidated_analyses = parts.invalidate_analyses();
                acct.invalidated_front_ends = parts.invalidate_front_ends();
                freeze
            }
        };

        // 2. Replan warm through the ladder (every rung re-verifies with
        //    the fault-aware validator + oracle before serving).
        let mut outcome = self.run_ladder();

        // 3. Certify the frozen prefix and stamp the repair counters.
        self.repairs += 1;
        if let Some(w) = outcome.served.as_mut() {
            w.pipeline.repair_prefix_frozen = prior_schedule
                .as_ref()
                .map(|old| frozen_prefix_len(old, &w.schedule, freeze_until))
                .unwrap_or(0);
            Self::stamp(&mut w.pipeline, self.repairs, acct);
        }
        self.last = Some(outcome.clone());
        outcome
    }

    /// Runs the ladder on the current instance around the session caches.
    fn run_ladder(&mut self) -> PlanOutcome {
        let parts = self.parts.take().unwrap_or_default();
        let mut ctx = PlanContext::from_parts(&self.bench, &self.synthesis, parts);
        let outcome = plan_partitioned_ctx(&mut ctx, &self.config, self.partitions);
        self.parts = Some(ctx.into_parts());
        outcome
    }

    /// Serves the cached outcome for a delta that changed nothing at all
    /// (empty footprint). Plans first if nothing was ever served.
    fn serve_unchanged(&mut self, t: Instant) -> PlanOutcome {
        self.repairs += 1;
        let repairs = self.repairs;
        let mut outcome = match self.last.clone() {
            Some(o) => o,
            None => self.run_ladder(),
        };
        if let Some(w) = outcome.served.as_mut() {
            let parts = self.parts.as_ref().expect("parts present between runs");
            let acct = RepairAccounting {
                kept_analyses: parts.analyses.len(),
                kept_front_ends: parts.front_ends.len(),
                reach_carried: self.synthesis.chip.port_reach().carried_fields()
                    + self.synthesis.chip.port_reach().recomputed_fields(),
                cache_served: true,
                ..RepairAccounting::default()
            };
            w.pipeline.repair_prefix_frozen = w.schedule.tasks().count();
            Self::stamp(&mut w.pipeline, repairs, acct);
            w.pipeline.total_s = t.elapsed().as_secs_f64();
        }
        self.last = Some(outcome.clone());
        outcome
    }

    /// Fast path: re-verifies the cached plan on the mutated chip exactly
    /// like a ladder rung and serves it unchanged. Returns `None` (fall
    /// back to a warm replan) if verification fails — which the caller's
    /// preconditions should make impossible, but the serve gate stays
    /// unconditional.
    fn serve_cached_verified(
        &mut self,
        mut acct: RepairAccounting,
        t: Instant,
    ) -> Option<PlanOutcome> {
        let last = self.last.as_ref()?;
        let served = last.served.as_ref()?;
        let chip = &self.synthesis.chip;
        let graph = &self.bench.graph;
        if pdw_sim::validate(chip, graph, &served.schedule).is_err() {
            return None;
        }
        if !pdw_sim::propagate(chip, graph, &served.schedule).is_clean() {
            return None;
        }
        self.repairs += 1;
        acct.cache_served = true;
        let mut outcome = last.clone();
        if let Some(w) = outcome.served.as_mut() {
            w.pipeline.repair_prefix_frozen = w.schedule.tasks().count();
            Self::stamp(&mut w.pipeline, self.repairs, acct);
            w.pipeline.total_s = t.elapsed().as_secs_f64();
        }
        self.last = Some(outcome.clone());
        Some(outcome)
    }

    /// An unserved outcome for a malformed delta: one typed attempt, no
    /// rung.
    fn reject(&self, msg: String, wall_s: f64) -> PlanOutcome {
        PlanOutcome {
            served: None,
            rung: None,
            attempts: vec![RungAttempt {
                rung: if self.partitions > 1 {
                    RungKind::Partitioned
                } else {
                    RungKind::Pdw
                },
                rejection: Some(RungRejection::PlannerError(format!(
                    "rejected delta: {msg}"
                ))),
                wall_s,
            }],
        }
    }

    /// Validates port ids against the chip's port tables (coordinates and
    /// edges are validated by `Chip::with_faults`).
    fn check_fault_delta(&self, fd: &FaultDelta) -> Result<(), String> {
        let chip = &self.synthesis.chip;
        match *fd {
            FaultDelta::DisableFlowPort(id) | FaultDelta::EnableFlowPort(id)
                if id.0 as usize >= chip.flow_ports().len() =>
            {
                Err(format!("unknown flow port {}", id.0))
            }
            FaultDelta::DisableWastePort(id) | FaultDelta::EnableWastePort(id)
                if id.0 as usize >= chip.waste_ports().len() =>
            {
                Err(format!("unknown waste port {}", id.0))
            }
            _ => Ok(()),
        }
    }

    /// The delta's cell/port footprint as a mask: touched cells, edge
    /// endpoints, and the coordinate of a disabled/enabled port (every path
    /// using the port crosses that coordinate).
    fn fault_mask(&self, fd: &FaultDelta) -> CellSet {
        let chip = &self.synthesis.chip;
        let mut cells: Vec<Coord> = fd.cells().collect();
        match *fd {
            FaultDelta::DisableFlowPort(id) | FaultDelta::EnableFlowPort(id) => {
                cells.push(chip.flow_port(id));
            }
            FaultDelta::DisableWastePort(id) | FaultDelta::EnableWastePort(id) => {
                cells.push(chip.waste_port(id));
            }
            _ => {}
        }
        CellSet::from_cells(&cells)
    }

    /// The earliest start among the prior plan's tasks whose path crosses
    /// `mask` — the first schedule time a fault delta can affect. If no
    /// task crosses it, the whole plan is unaffected and the horizon is
    /// past its end.
    fn first_affected_time(&self, prior: Option<&pdw_sched::Schedule>, mask: &CellSet) -> Time {
        let Some(schedule) = prior else { return 0 };
        schedule
            .tasks()
            .filter(|(_, task)| task.path().mask().intersects(mask))
            .map(|(_, task)| task.start())
            .min()
            .unwrap_or_else(|| schedule.makespan().saturating_add(1))
    }

    fn stamp(stats: &mut crate::stats::PipelineStats, repairs: usize, acct: RepairAccounting) {
        stats.repairs = repairs;
        stats.repair_invalidated_analyses = acct.invalidated_analyses;
        stats.repair_kept_analyses = acct.kept_analyses;
        stats.repair_invalidated_front_ends = acct.invalidated_front_ends;
        stats.repair_kept_front_ends = acct.kept_front_ends;
        stats.repair_reach_recomputed = acct.reach_recomputed;
        stats.repair_reach_carried = acct.reach_carried;
        stats.repair_cache_served = acct.cache_served;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::Planner;
    use crate::resilient::attempt_rung;
    use pdw_assay::benchmarks;
    use pdw_biochip::FlowPortId;
    use pdw_synth::synthesize;

    fn quick_config() -> PdwConfig {
        PdwConfig {
            ilp: false,
            threads: 1,
            ..PdwConfig::default()
        }
    }

    fn session() -> RepairSession {
        let bench = benchmarks::demo();
        let synthesis = synthesize(&bench).unwrap();
        RepairSession::new(bench, synthesis, quick_config())
    }

    /// Picks a channel cell no base-schedule task path or device footprint
    /// uses, so blocking it is guaranteed valid and plan-missing.
    fn spare_cell(s: &Synthesis) -> Coord {
        let chip = &s.chip;
        let mut used: std::collections::HashSet<Coord> = std::collections::HashSet::new();
        for (_, t) in s.schedule.tasks() {
            used.extend(t.path().cells().iter().copied());
        }
        for d in chip.devices() {
            used.extend(d.footprint());
        }
        let grid = chip.grid();
        (0..grid.height())
            .flat_map(|y| (0..grid.width()).map(move |x| Coord::new(x, y)))
            .find(|&c| matches!(grid.kind(c), pdw_biochip::CellKind::Channel) && !used.contains(&c))
            .expect("demo chip has a spare channel cell")
    }

    #[test]
    fn repair_after_fault_matches_cold_solve() {
        let mut s = session();
        let first = s.plan();
        assert!(first.is_served());
        let cell = spare_cell(s.synthesis());
        let outcome = s.repair(&PlanDelta::Fault(FaultDelta::BlockCell(cell)));
        let repaired = outcome.served.as_ref().expect("repair serves a plan");
        let cold = s.cold_reference();
        let cold = cold.served.as_ref().expect("cold solve serves a plan");
        assert_eq!(repaired.schedule, cold.schedule);
        assert_eq!(repaired.metrics, cold.metrics);
        assert_eq!(outcome.rung, s.cold_reference().rung);
        assert!(repaired.pipeline.repairs >= 1);
        // The chip really carries the fault now.
        assert!(s.synthesis().chip.faults().cell_blocked(cell));
    }

    #[test]
    fn empty_footprint_delta_is_a_no_op_serving_the_cached_plan() {
        let mut s = session();
        let first = s.plan();
        let baseline = first.served.as_ref().unwrap().schedule.clone();
        let cell = spare_cell(s.synthesis());
        // Block, then block again: the second apply changes nothing.
        s.repair(&PlanDelta::Fault(FaultDelta::BlockCell(cell)));
        let served_after_block = s.last().unwrap().served.as_ref().unwrap().schedule.clone();
        let outcome = s.repair(&PlanDelta::Fault(FaultDelta::BlockCell(cell)));
        let w = outcome.served.as_ref().expect("no-op still serves");
        assert!(w.pipeline.repair_cache_served);
        assert_eq!(w.schedule, served_after_block);
        assert_eq!(
            w.pipeline.repair_prefix_frozen,
            w.schedule.tasks().count(),
            "a no-op freezes the entire plan"
        );
        // Same for a zero delay and an already-waived cell.
        let op = s.synthesis().schedule.ops().first().unwrap().op;
        let outcome = s.repair(&PlanDelta::DelayOp { op, delay: 0 });
        assert!(outcome.served.unwrap().pipeline.repair_cache_served);
        s.repair(&PlanDelta::DropRequirement { cell });
        let outcome = s.repair(&PlanDelta::DropRequirement { cell });
        assert!(outcome.served.unwrap().pipeline.repair_cache_served);
        let _ = baseline;
    }

    #[test]
    fn malformed_deltas_are_rejected_with_a_typed_attempt() {
        let mut s = session();
        s.plan();
        let bad_port = FlowPortId(u32::MAX);
        let outcome = s.repair(&PlanDelta::Fault(FaultDelta::DisableFlowPort(bad_port)));
        assert!(!outcome.is_served());
        assert!(matches!(
            outcome.attempts[0].rejection,
            Some(RungRejection::PlannerError(_))
        ));
        let outcome = s.repair(&PlanDelta::DelayOp {
            op: OpId(u32::MAX),
            delay: 5,
        });
        assert!(!outcome.is_served());
        // The session survives rejections: a valid repair still works.
        let cell = spare_cell(s.synthesis());
        let outcome = s.repair(&PlanDelta::Fault(FaultDelta::BlockCell(cell)));
        assert!(outcome.is_served());
    }

    #[test]
    fn delay_delta_shifts_the_base_schedule_and_replans() {
        let mut s = session();
        s.plan();
        let op = s.synthesis().schedule.ops().first().unwrap().op;
        let pivot = s.synthesis().schedule.scheduled_op(op).unwrap().start;
        let outcome = s.repair(&PlanDelta::DelayOp { op, delay: 11 });
        assert!(outcome.is_served());
        assert_eq!(
            s.synthesis().schedule.scheduled_op(op).unwrap().start,
            pivot + 11
        );
        let cold = s.cold_reference();
        assert_eq!(
            outcome.served.unwrap().schedule,
            cold.served.unwrap().schedule
        );
    }

    #[test]
    fn requirement_deltas_differentially_match_cold() {
        let mut s = session();
        s.plan();
        let some_req = {
            let mut ctx = PlanContext::new(s.bench(), s.synthesis());
            ctx.ensure_analysis(pdw_contam::NecessityOptions::full());
            ctx.analysis(pdw_contam::NecessityOptions::full())
                .requirements[0]
                .clone()
        };
        let outcome = s.repair(&PlanDelta::DropRequirement {
            cell: some_req.cell,
        });
        assert!(outcome.is_served());
        let cold = s.cold_reference();
        assert_eq!(
            outcome.served.unwrap().schedule,
            cold.served.unwrap().schedule
        );
        let outcome = s.repair(&PlanDelta::AddRequirement(some_req));
        assert!(outcome.is_served());
        let cold = s.cold_reference();
        assert_eq!(
            outcome.served.unwrap().schedule,
            cold.served.unwrap().schedule
        );
    }

    /// A planner that panics mid-solve, for pool-unwind coverage.
    struct PanickyRepairPlanner;

    impl Planner for PanickyRepairPlanner {
        fn name(&self) -> &'static str {
            "panicky-repair"
        }

        fn plan(&self, ctx: &mut PlanContext<'_>) -> Result<crate::WashResult, crate::PdwError> {
            // Check something out of the pool first, as a real worker would.
            let _guard = ctx.scratch_pool().checkout(ctx.chip());
            panic!("repair worker dies mid-solve");
        }
    }

    #[test]
    fn scratch_pool_survives_a_panicking_repair_worker() {
        let mut s = session();
        s.plan();
        let parts = s.parts.take().unwrap();
        let available = parts.pool.available();
        assert!(available > 0, "a served plan leaves warm scratch behind");
        let mut ctx = PlanContext::from_parts(&s.bench, &s.synthesis, parts);
        let (served, rejection, _) = attempt_rung(&PanickyRepairPlanner, &mut ctx);
        assert!(served.is_none());
        assert!(matches!(rejection, Some(RungRejection::Panicked(_))));
        let parts = ctx.into_parts();
        assert_eq!(
            parts.pool.available(),
            available,
            "the checked-out scratch returned on unwind"
        );
        // The session keeps repairing after the panic-isolated attempt.
        s.parts = Some(parts);
        let cell = spare_cell(s.synthesis());
        assert!(s
            .repair(&PlanDelta::Fault(FaultDelta::BlockCell(cell)))
            .is_served());
    }
}
