//! Per-stage observability of the wash-optimization pipeline.

use std::time::Instant;

use pdw_biochip::RoutingCounters;
use serde::{Deserialize, Serialize};

/// Wall-clock and routing-effort breakdown of one optimizer run.
///
/// Stage names follow the pipeline: necessity analysis → grouping (group
/// construction plus candidate-path enumeration, including the spot-cluster
/// split) → merging → greedy insertion → ILP refinement. Routing counters
/// are process-wide deltas taken over the run, so they include every BFS the
/// stages triggered.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PipelineStats {
    /// Front-end worker threads used (after resolving 0 = all cores).
    pub threads: usize,
    /// Wash-necessity analysis wall time, seconds.
    pub necessity_s: f64,
    /// Group construction + candidate enumeration wall time, seconds.
    pub grouping_s: f64,
    /// Group merging wall time, seconds.
    pub merge_s: f64,
    /// Greedy sweep-line insertion wall time, seconds.
    pub greedy_s: f64,
    /// ILP refinement wall time, seconds (0 when the ILP is disabled).
    pub ilp_s: f64,
    /// End-to-end optimizer wall time, seconds.
    pub total_s: f64,
    /// Routing queries issued during the run, one per (from, to) pair.
    pub route_calls: u64,
    /// BFS searches run (one per leg; a fan's shared last leg counts once).
    pub bfs_runs: u64,
    /// Routing queries served by an already-warm scratch (no allocation).
    pub scratch_reuses: u64,
    /// Wash groups after merging (as handed to the greedy inserter).
    pub groups: usize,
    /// Candidate wash paths enumerated across those groups.
    pub candidates: usize,
    /// The pipeline deadline was observed expired at some checkpoint.
    pub deadline_expired: bool,
    /// The front end was cut over to its cheapest variant (one candidate
    /// per group, no merging) because the deadline expired before
    /// enumeration.
    pub degraded_front_end: bool,
    /// Exact-path refinement was requested but skipped because the deadline
    /// had expired.
    pub exact_paths_skipped: bool,
    /// Wash groups whose exact-path solve gave up (no path within its
    /// budget); the enumerated candidates were kept instead.
    pub exact_path_giveups: usize,
    /// ILP refinement was requested but skipped because the deadline had
    /// expired.
    pub ilp_skipped: bool,
    /// The ILP ran out of its (possibly deadline-clamped) budget before
    /// proving optimality.
    pub ilp_budget_expired: bool,
    /// The ILP refinement was rejected (its model was refused by the
    /// dense-tableau size guard, or its schedule was invalid, regressed the
    /// objective or was not found) and the greedy schedule was served
    /// instead.
    pub ilp_rejected: bool,
    /// Rows and columns of an ILP model the dense-tableau size guard
    /// refused before solving (`None` when no model was refused). Left out
    /// of the encoding when `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ilp_refused_model: Option<(usize, usize)>,
    /// Regions the chip was cut into (0 when planning was unpartitioned).
    pub partition_regions: usize,
    /// Regions skipped entirely because no wash necessity fell inside them.
    pub regions_skipped: usize,
    /// Span buckets whose front end panicked (e.g. a cluster-split bridge
    /// cell beyond their view); their requirements were replanned on the
    /// whole chip as seam work.
    pub regions_refused: usize,
    /// Wash groups whose chosen path crosses a cut interface — planned on a
    /// multi-band span view or on the whole chip, and coordinated by the
    /// seam ILP.
    pub seam_groups: usize,
    /// Fewer viable cuts existed than requested regions; the partition was
    /// clamped.
    pub partition_clamped: bool,
    /// Region jobs answered by an out-of-process `pdw worker`
    /// (0 when planning ran in-process).
    pub subprocess_jobs: usize,
    /// Region jobs that fell back to in-process planning after a worker
    /// transport failure (death, pipe loss, corrupt frame). The plan is
    /// unaffected — only where it was computed changed.
    pub subprocess_fallbacks: usize,
    /// Executor lanes that exhausted their per-run respawn budget and
    /// degraded to in-process planning for their remaining jobs.
    pub subprocess_exhausted: usize,
    /// This result was produced by [`RepairSession::repair`]
    /// (0 = a cold/initial solve).
    ///
    /// [`RepairSession::repair`]: crate::RepairSession::repair
    pub repairs: usize,
    /// Cached necessity analyses dropped by the repair's delta footprint.
    pub repair_invalidated_analyses: usize,
    /// Cached necessity analyses that survived the repair untouched.
    pub repair_kept_analyses: usize,
    /// Cached front-end group sets dropped by the repair's delta footprint.
    pub repair_invalidated_front_ends: usize,
    /// Cached front-end group sets that survived the repair untouched.
    pub repair_kept_front_ends: usize,
    /// Per-port reachability fields the repair re-ran BFS for.
    pub repair_reach_recomputed: usize,
    /// Per-port reachability fields carried forward verbatim.
    pub repair_reach_carried: usize,
    /// Tasks of the pre-delta plan certified frozen: they start before the
    /// delta's first affected event time and reappear bit-identically in
    /// the repaired plan.
    pub repair_prefix_frozen: usize,
    /// The repair served the cached plan directly (re-verified on the
    /// mutated chip, no replan): the delta's footprint missed every cache
    /// entry and every path of the plan.
    pub repair_cache_served: bool,
}

impl PipelineStats {
    /// Sum of the front-end stages (everything but the ILP back-end):
    /// grouping, merging, and greedy insertion.
    pub fn front_end_s(&self) -> f64 {
        self.grouping_s + self.merge_s + self.greedy_s
    }

    /// Human-readable degradation/fallback events recorded during the run,
    /// in pipeline order. Empty when the run completed every requested
    /// stage at full strength.
    pub fn degradation_events(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        if self.deadline_expired {
            out.push("pipeline deadline expired".into());
        }
        if self.degraded_front_end {
            out.push("front end degraded (1 candidate/group, no merging)".into());
        }
        if self.exact_paths_skipped {
            out.push("exact-path refinement skipped".into());
        }
        if self.exact_path_giveups > 0 {
            out.push("exact-path solver gave up on some groups".into());
        }
        if self.ilp_skipped {
            out.push("ILP refinement skipped".into());
        }
        if self.ilp_budget_expired {
            out.push("ILP budget expired before optimality".into());
        }
        if self.ilp_rejected {
            out.push(match self.ilp_refused_model {
                Some((rows, cols)) => format!(
                    "ILP refinement rejected (a {rows}-row × {cols}-column model is over the \
                     dense-tableau size guard); greedy schedule served"
                ),
                None => "ILP refinement rejected; greedy schedule served".into(),
            });
        }
        if self.partition_clamped {
            out.push("partition clamped (fewer viable cuts than requested regions)".into());
        }
        if self.regions_refused > 0 {
            out.push("some regions refused their front end; replanned as seam work".into());
        }
        if self.subprocess_fallbacks > 0 {
            out.push("some region workers failed; jobs replanned in-process".into());
        }
        if self.subprocess_exhausted > 0 {
            out.push("worker respawn budget exhausted; lane degraded to in-process".into());
        }
        out
    }
}

/// Stage-timing harness for an optimizer run.
///
/// Replaces the per-planner `Instant::now()` / counter-snapshot boilerplate:
/// a planner starts a timer, wraps each stage in [`stage`](Self::stage)
/// naming the stat slot it should charge, and [`seal`](Self::seal)s the
/// run-wide totals (end-to-end wall time plus the process-wide
/// routing-counter deltas accumulated since the timer started). `seal`
/// borrows, so a planner with multiple exits (e.g. ILP adoption vs greedy
/// fallback) can seal at each.
pub(crate) struct StageTimer {
    run_start: Instant,
    counters_start: RoutingCounters,
    /// The stats under construction; planners fill the non-timing fields
    /// (`groups`, `candidates`) directly.
    pub stats: PipelineStats,
}

impl StageTimer {
    /// Starts the run clock and snapshots the routing counters.
    pub fn start(threads: usize) -> Self {
        StageTimer {
            run_start: Instant::now(),
            counters_start: pdw_biochip::routing_counters(),
            stats: PipelineStats {
                threads: crate::par::resolve_threads(threads),
                ..PipelineStats::default()
            },
        }
    }

    /// Runs `f`, charging its wall time to the stat slot picked by `slot`
    /// (e.g. `|s| &mut s.grouping_s`). Times accumulate, so a stage split
    /// across several calls charges one slot correctly.
    pub fn stage<R>(
        &mut self,
        slot: impl FnOnce(&mut PipelineStats) -> &mut f64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t = Instant::now();
        let r = f();
        *slot(&mut self.stats) += t.elapsed().as_secs_f64();
        r
    }

    /// Fills the run-wide totals: end-to-end wall time and routing-counter
    /// deltas since [`start`](Self::start).
    pub fn seal(&self) -> PipelineStats {
        let mut stats = self.stats;
        stats.total_s = self.run_start.elapsed().as_secs_f64();
        let d = pdw_biochip::routing_counters() - self.counters_start;
        stats.route_calls = d.route_calls;
        stats.bfs_runs = d.bfs_runs;
        stats.scratch_reuses = d.scratch_reuses;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_timer_charges_named_slots_and_seals_totals() {
        let mut timer = StageTimer::start(1);
        let out = timer.stage(|s| &mut s.grouping_s, || 41 + 1);
        assert_eq!(out, 42);
        timer.stage(|s| &mut s.grouping_s, || ());
        timer.stage(|s| &mut s.greedy_s, || ());
        let sealed = timer.seal();
        assert!(sealed.grouping_s >= 0.0 && sealed.greedy_s >= 0.0);
        assert!(sealed.total_s >= sealed.grouping_s + sealed.greedy_s);
        assert_eq!(sealed.threads, 1);
        // Sealing is non-consuming: a second exit point can seal again.
        let sealed2 = timer.seal();
        assert!(sealed2.total_s >= sealed.total_s);
    }

    #[test]
    fn front_end_sums_the_non_ilp_stages() {
        let s = PipelineStats {
            grouping_s: 1.0,
            merge_s: 2.0,
            greedy_s: 4.0,
            ilp_s: 100.0,
            necessity_s: 50.0,
            ..PipelineStats::default()
        };
        assert!((s.front_end_s() - 7.0).abs() < 1e-12);
    }

    /// A refused model's size survives the canonical codec, and stats
    /// without one encode as they did before the field existed.
    #[test]
    fn refused_model_size_is_encoded_only_when_present() {
        use crate::codec::{decode_frame, encode_frame, FrameType};
        let plain = PipelineStats::default();
        let json = serde_json::to_string(&plain).unwrap();
        assert!(!json.contains("ilp_refused_model"), "{json}");
        let refused = PipelineStats {
            ilp_rejected: true,
            ilp_refused_model: Some((12715, 1670)),
            ..plain
        };
        for stats in [plain, refused] {
            let frame = encode_frame(FrameType::Artifact, &stats);
            let back: PipelineStats = decode_frame(FrameType::Artifact, &frame).unwrap();
            assert_eq!(back, stats);
        }
    }
}
