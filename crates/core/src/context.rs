//! Shared, reusable per-instance solve state.
//!
//! Every planner needs the same expensive prefix before it can schedule a
//! single wash: the contamination replay + necessity analysis of the base
//! schedule, the chip's port-reachability fields, and warm routing scratch
//! buffers. [`PlanContext`] owns that prefix for one `(benchmark,
//! synthesis)` instance so that running several planners on it — as the
//! differential verifier and the batch driver do — computes each piece
//! once:
//!
//! - necessity analyses are cached per [`NecessityOptions`] (DAWO's
//!   reuse-only analysis and PDW's full analysis are distinct entries),
//! - front-end wash groups (grouping, spot-cluster splitting, merging) are
//!   cached per [`FrontEndKey`] — the configuration fields that affect the
//!   groups, deliberately excluding the thread count, which is
//!   result-invariant; re-solving with a different thread knob (as the
//!   differential verifier does) clones the groups instead of re-routing
//!   every candidate,
//! - the chip's [`PortReach`](pdw_biochip::PortReach) cache is forced warm
//!   on construction,
//! - a [`ScratchPool`] keeps BFS scratch buffers warm across planners, and
//!   across *instances* when the context is rebuilt around a batch worker's
//!   long-lived pool ([`PlanContext::with_pool`] / [`into_pool`]).
//!
//! Everything cached here is a pure function of the instance, so a planner
//! run against a warm context is bit-identical to a cold one-shot run —
//! only the wall time changes.
//!
//! [`into_pool`]: PlanContext::into_pool

use std::time::Instant;

use pdw_assay::benchmarks::Benchmark;
use pdw_biochip::{CellSet, Chip, Coord, ScratchPool};
use pdw_contam::{analyze, Analysis, NecessityOptions, WashRequirement};
use pdw_synth::Synthesis;

use crate::config::CandidatePolicy;
use crate::groups::WashGroup;

/// The configuration fields the front end's wash groups depend on. Thread
/// counts are deliberately absent: the fan-out is result-invariant, so two
/// solves differing only in `threads` share one cache entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontEndKey {
    /// Necessity options the requirements were derived under.
    pub necessity: NecessityOptions,
    /// Candidate-selection policy.
    pub policy: CandidatePolicy,
    /// Candidate paths kept per group.
    pub candidates: usize,
    /// Whether compatible groups were merged after splitting.
    pub merged: bool,
}

/// Post-analysis edits to the wash-requirement set — the "requirement
/// added/dropped" arm of a [`PlanDelta`](crate::PlanDelta).
///
/// Applied deterministically to every necessity analysis the moment it is
/// computed ([`PlanContext::ensure_analysis`]): analyzed requirements on a
/// waived cell are removed, then the forced requirements are appended in
/// insertion order. Forced requirements are *not* subject to waivers, so
/// forcing a requirement on a waived cell re-introduces exactly that
/// requirement. Two contexts with equal overrides produce bit-identical
/// analyses, which is what makes warm repair differentially testable
/// against a cold solve.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequirementOverrides {
    /// Requirements appended after analysis, in insertion order.
    pub forced: Vec<WashRequirement>,
    /// Cells whose analyzed requirements are dropped (sorted, deduped).
    pub waived: Vec<Coord>,
}

impl RequirementOverrides {
    /// No edits at all.
    pub fn is_empty(&self) -> bool {
        self.forced.is_empty() && self.waived.is_empty()
    }

    /// Appends a forced requirement.
    pub fn force(&mut self, req: WashRequirement) {
        self.forced.push(req);
    }

    /// Waives analyzed requirements on `cell`. Idempotent; returns `false`
    /// if the cell was already waived.
    pub fn waive(&mut self, cell: Coord) -> bool {
        match self.waived.binary_search(&cell) {
            Ok(_) => false,
            Err(i) => {
                self.waived.insert(i, cell);
                true
            }
        }
    }

    /// The cells every override mentions (waived cells and forced-
    /// requirement targets) — the delta footprint of an override edit.
    pub fn cells(&self) -> impl Iterator<Item = Coord> + '_ {
        self.waived
            .iter()
            .copied()
            .chain(self.forced.iter().map(|r| r.cell))
    }

    fn apply(&self, analysis: &mut Analysis) {
        if self.is_empty() {
            return;
        }
        analysis
            .requirements
            .retain(|r| self.waived.binary_search(&r.cell).is_err());
        analysis.requirements.extend(self.forced.iter().cloned());
    }
}

/// The owned, instance-independent pieces of a [`PlanContext`]: the scratch
/// pool, both cache vectors, and the requirement overrides.
///
/// A context borrows its benchmark and synthesis, so repairing a mutated
/// instance means tearing the context down ([`PlanContext::into_parts`]),
/// invalidating whatever the delta's footprint touches, and rebuilding
/// around the new borrows ([`PlanContext::from_parts`]). Every surviving
/// entry must be provably identical to what a cold solve on the mutated
/// instance would recompute — the invalidation helpers here enforce that.
#[derive(Debug, Default)]
pub struct ContextParts {
    /// Warm BFS scratch buffers.
    pub pool: ScratchPool,
    /// Cached necessity analyses keyed by options.
    pub analyses: Vec<(NecessityOptions, Analysis)>,
    /// Cached front-end group sets keyed by the config fields shaping them.
    pub front_ends: Vec<(FrontEndKey, Vec<WashGroup>)>,
    /// Requirement edits applied to every analysis.
    pub overrides: RequirementOverrides,
}

impl ContextParts {
    /// Invalidates cache entries a *reachability-shrinking* fault delta
    /// with cell/port footprint `mask` could touch, returning
    /// `(analyses_dropped, front_ends_dropped)`:
    ///
    /// - analyses are dropped iff their scanned footprint intersects the
    ///   mask ([`Analysis::touches`]) — the analysis replays the schedule,
    ///   not the routing graph, so a delta missing every analyzed cell
    ///   cannot change it;
    /// - front-end group sets are dropped iff any stored candidate path's
    ///   cell mask overlaps the delta mask. Blocking cells off every stored
    ///   path preserves BFS path extraction, pruning outcomes, and the
    ///   stable top-k tie-break, so untouched entries re-enumerate
    ///   bit-identically.
    pub fn invalidate_masked(&mut self, mask: &CellSet) -> (usize, usize) {
        let before_a = self.analyses.len();
        self.analyses.retain(|(_, a)| !a.touches(mask));
        let before_f = self.front_ends.len();
        self.front_ends.retain(|(_, groups)| {
            !groups
                .iter()
                .any(|g| g.candidates.iter().any(|c| c.path.mask().intersects(mask)))
        });
        (
            before_a - self.analyses.len(),
            before_f - self.front_ends.len(),
        )
    }

    /// Drops every cached front-end group set (required when reachability
    /// *expands*: new, shorter candidate paths may appear anywhere).
    /// Returns the number of entries dropped.
    pub fn invalidate_front_ends(&mut self) -> usize {
        let n = self.front_ends.len();
        self.front_ends.clear();
        n
    }

    /// Drops every cached analysis (required when the base schedule or the
    /// requirement overrides change). Returns the number dropped.
    pub fn invalidate_analyses(&mut self) -> usize {
        let n = self.analyses.len();
        self.analyses.clear();
        n
    }
}

/// Reusable solve state for one benchmark instance (see the
/// [module docs](self)).
pub struct PlanContext<'a> {
    bench: &'a Benchmark,
    synthesis: &'a Synthesis,
    pool: ScratchPool,
    /// Necessity analyses keyed by the options they were computed under.
    analyses: Vec<(NecessityOptions, Analysis)>,
    /// Front-end group sets keyed by the config fields that shape them.
    front_ends: Vec<(FrontEndKey, Vec<WashGroup>)>,
    /// Requirement edits applied to every analysis as it is computed.
    overrides: RequirementOverrides,
}

impl<'a> PlanContext<'a> {
    /// Builds a context for one instance with a fresh scratch pool.
    pub fn new(bench: &'a Benchmark, synthesis: &'a Synthesis) -> Self {
        Self::with_pool(bench, synthesis, ScratchPool::new())
    }

    /// Builds a context around an existing scratch pool — the batch driver
    /// hands each worker's pool from instance to instance so warm scratch
    /// buffers survive context turnover.
    pub fn with_pool(bench: &'a Benchmark, synthesis: &'a Synthesis, pool: ScratchPool) -> Self {
        Self::from_parts(
            bench,
            synthesis,
            ContextParts {
                pool,
                ..ContextParts::default()
            },
        )
    }

    /// Rebuilds a context around previously harvested
    /// [`parts`](ContextParts) — the repair engine's way of carrying
    /// surviving caches across an instance mutation.
    pub fn from_parts(bench: &'a Benchmark, synthesis: &'a Synthesis, parts: ContextParts) -> Self {
        // Force the chip's port-reachability cache warm so no planner pays
        // for it mid-stage (a no-op when the repair engine seeded it with
        // carried-forward fields).
        let _ = synthesis.chip.port_reach();
        PlanContext {
            bench,
            synthesis,
            pool: parts.pool,
            analyses: parts.analyses,
            front_ends: parts.front_ends,
            overrides: parts.overrides,
        }
    }

    /// Tears the context down into its owned parts, releasing the borrows
    /// on the instance.
    pub fn into_parts(self) -> ContextParts {
        ContextParts {
            pool: self.pool,
            analyses: self.analyses,
            front_ends: self.front_ends,
            overrides: self.overrides,
        }
    }

    /// The benchmark this context plans for.
    pub fn bench(&self) -> &'a Benchmark {
        self.bench
    }

    /// The synthesized chip + base schedule this context plans against.
    pub fn synthesis(&self) -> &'a Synthesis {
        self.synthesis
    }

    /// The instance's chip.
    pub fn chip(&self) -> &'a Chip {
        &self.synthesis.chip
    }

    /// The shared routing-scratch pool.
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Ensures the necessity analysis for `opts` is computed and cached,
    /// returning the wall time spent *in this call* in seconds — ≈0 on a
    /// cache hit, which is exactly what a planner's `necessity_s` stat
    /// should then report.
    pub fn ensure_analysis(&mut self, opts: NecessityOptions) -> f64 {
        if self.analyses.iter().any(|(o, _)| *o == opts) {
            return 0.0;
        }
        let t = Instant::now();
        let mut analysis = analyze(
            &self.synthesis.chip,
            &self.bench.graph,
            &self.synthesis.schedule,
            opts,
        );
        self.overrides.apply(&mut analysis);
        self.analyses.push((opts, analysis));
        t.elapsed().as_secs_f64()
    }

    /// The requirement overrides applied to every analysis this context
    /// computes.
    pub fn overrides(&self) -> &RequirementOverrides {
        &self.overrides
    }

    /// The cached necessity analysis for `opts`.
    ///
    /// # Panics
    ///
    /// Panics if [`ensure_analysis`](Self::ensure_analysis) has not been
    /// called for `opts` — planners always ensure before reading.
    pub fn analysis(&self, opts: NecessityOptions) -> &Analysis {
        self.analyses
            .iter()
            .find(|(o, _)| *o == opts)
            .map(|(_, a)| a)
            .expect("analysis not ensured for these options")
    }

    /// Number of distinct necessity analyses cached so far.
    pub fn cached_analyses(&self) -> usize {
        self.analyses.len()
    }

    /// The cached front-end groups for `key`, if a planner already built
    /// them on this context.
    pub fn front_end(&self, key: FrontEndKey) -> Option<&[WashGroup]> {
        self.front_ends
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, g)| g.as_slice())
    }

    /// Caches the front-end groups built under `key`. Later planners whose
    /// configuration maps to the same key clone these instead of re-routing
    /// every candidate path. No-op if the key is already present.
    pub fn store_front_end(&mut self, key: FrontEndKey, groups: Vec<WashGroup>) {
        if self.front_end(key).is_none() {
            self.front_ends.push((key, groups));
        }
    }

    /// Number of distinct front-end group sets cached so far.
    pub fn cached_front_ends(&self) -> usize {
        self.front_ends.len()
    }

    /// Releases the context, handing its scratch pool back for reuse on the
    /// next instance.
    pub fn into_pool(self) -> ScratchPool {
        self.pool
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    #[test]
    fn analyses_are_cached_per_options() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut ctx = PlanContext::new(&bench, &s);
        assert_eq!(ctx.cached_analyses(), 0);
        ctx.ensure_analysis(NecessityOptions::full());
        assert_eq!(ctx.cached_analyses(), 1);
        // Same options: cache hit, no new entry, zero reported time.
        assert_eq!(ctx.ensure_analysis(NecessityOptions::full()), 0.0);
        assert_eq!(ctx.cached_analyses(), 1);
        // Different options: a distinct entry.
        ctx.ensure_analysis(NecessityOptions::reuse_only());
        assert_eq!(ctx.cached_analyses(), 2);
        // Both stay addressable.
        let full = ctx.analysis(NecessityOptions::full());
        let reuse = ctx.analysis(NecessityOptions::reuse_only());
        assert!(full.requirements.len() <= reuse.requirements.len());
    }

    #[test]
    fn cached_analysis_equals_a_cold_one() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut ctx = PlanContext::new(&bench, &s);
        ctx.ensure_analysis(NecessityOptions::full());
        let cold = analyze(&s.chip, &bench.graph, &s.schedule, NecessityOptions::full());
        let cached = ctx.analysis(NecessityOptions::full());
        assert_eq!(cached.requirements, cold.requirements);
        assert_eq!(cached.classifications, cold.classifications);
        assert_eq!(cached.deletable, cold.deletable);
    }

    #[test]
    fn front_ends_are_cached_per_key() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut ctx = PlanContext::new(&bench, &s);
        let key = FrontEndKey {
            necessity: NecessityOptions::full(),
            policy: CandidatePolicy::Shortest,
            candidates: 3,
            merged: true,
        };
        assert!(ctx.front_end(key).is_none());
        ctx.store_front_end(key, Vec::new());
        assert!(ctx.front_end(key).is_some());
        assert_eq!(ctx.cached_front_ends(), 1);
        // Same key again: no duplicate entry.
        ctx.store_front_end(key, Vec::new());
        assert_eq!(ctx.cached_front_ends(), 1);
        // Any differing field is a distinct entry.
        let unmerged = FrontEndKey {
            merged: false,
            ..key
        };
        assert!(ctx.front_end(unmerged).is_none());
        ctx.store_front_end(unmerged, Vec::new());
        assert_eq!(ctx.cached_front_ends(), 2);
    }

    #[test]
    fn pool_round_trips_through_the_context() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let pool = ScratchPool::for_chip(&s.chip);
        let ctx = PlanContext::with_pool(&bench, &s, pool);
        let back = ctx.into_pool();
        assert_eq!(back.available(), 1);
    }

    #[test]
    fn parts_round_trip_preserves_every_cache() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut ctx = PlanContext::new(&bench, &s);
        ctx.ensure_analysis(NecessityOptions::full());
        let key = FrontEndKey {
            necessity: NecessityOptions::full(),
            policy: CandidatePolicy::Shortest,
            candidates: 3,
            merged: true,
        };
        ctx.store_front_end(key, Vec::new());
        let reference = ctx.analysis(NecessityOptions::full()).clone();

        let parts = ctx.into_parts();
        let mut ctx = PlanContext::from_parts(&bench, &s, parts);
        assert_eq!(ctx.cached_analyses(), 1);
        assert_eq!(ctx.cached_front_ends(), 1);
        assert!(ctx.front_end(key).is_some());
        // The rebuilt context serves the cached analysis without recompute.
        assert_eq!(ctx.ensure_analysis(NecessityOptions::full()), 0.0);
        assert_eq!(
            ctx.analysis(NecessityOptions::full()).requirements,
            reference.requirements
        );
    }

    #[test]
    fn overrides_waive_and_force_requirements() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut plain = PlanContext::new(&bench, &s);
        plain.ensure_analysis(NecessityOptions::full());
        let baseline = plain.analysis(NecessityOptions::full()).clone();
        assert!(!baseline.requirements.is_empty());

        let waived_cell = baseline.requirements[0].cell;
        let mut forced = baseline.requirements[0].clone();
        forced.deadline += 1;
        let mut overrides = RequirementOverrides::default();
        assert!(overrides.waive(waived_cell));
        assert!(!overrides.waive(waived_cell), "waive is idempotent");
        overrides.force(forced.clone());
        assert!(overrides.cells().any(|c| c == waived_cell));

        let mut ctx = PlanContext::from_parts(
            &bench,
            &s,
            ContextParts {
                overrides: overrides.clone(),
                ..ContextParts::default()
            },
        );
        ctx.ensure_analysis(NecessityOptions::full());
        let edited = ctx.analysis(NecessityOptions::full());
        // Analyzed requirements on the waived cell are gone; the forced one
        // (on the same cell — forcing trumps waiving) is appended last.
        assert_eq!(edited.requirements.last(), Some(&forced));
        let analyzed = &edited.requirements[..edited.requirements.len() - 1];
        assert!(analyzed.iter().all(|r| r.cell != waived_cell));
        // The edit is deterministic: a second context reproduces it.
        let mut again = PlanContext::from_parts(
            &bench,
            &s,
            ContextParts {
                overrides,
                ..ContextParts::default()
            },
        );
        again.ensure_analysis(NecessityOptions::full());
        assert_eq!(
            again.analysis(NecessityOptions::full()).requirements,
            edited.requirements
        );
    }

    #[test]
    fn masked_invalidation_drops_only_touched_entries() {
        use crate::groups::Candidate;

        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let mut ctx = PlanContext::new(&bench, &s);
        ctx.ensure_analysis(NecessityOptions::full());
        let touched_cell = ctx.analysis(NecessityOptions::full()).events[0].cell;

        // One front-end entry whose only candidate crosses `path_cell`, and
        // one with no candidates at all.
        let path = s.schedule.tasks().next().unwrap().1.path().clone();
        let path_cell = path.cells()[path.cells().len() / 2];
        let crossing = FrontEndKey {
            necessity: NecessityOptions::full(),
            policy: CandidatePolicy::Shortest,
            candidates: 3,
            merged: true,
        };
        let empty = FrontEndKey {
            merged: false,
            ..crossing
        };
        let group = WashGroup {
            parts: Vec::new(),
            candidates: vec![Candidate::from_path(path)],
        };
        ctx.store_front_end(crossing, vec![group]);
        ctx.store_front_end(empty, Vec::new());

        let mut parts = ctx.into_parts();
        // A mask missing everything drops nothing.
        let far = CellSet::from_cells(&[Coord::new(u16::MAX - 1, u16::MAX - 1)]);
        assert_eq!(parts.invalidate_masked(&far), (0, 0));
        // A mask over the candidate's path drops that front end — and the
        // analysis too, since a base-schedule task's path cells are exactly
        // the event cells the analysis scanned.
        let on_path = CellSet::from_cells(&[path_cell]);
        let (a_dropped, fe_dropped) = parts.invalidate_masked(&on_path);
        assert_eq!(fe_dropped, 1);
        assert_eq!(a_dropped, 1);
        assert_eq!(parts.front_ends.len(), 1);
        assert_eq!(parts.front_ends[0].0, empty);
        assert!(parts.analyses.is_empty());
        // With the analysis already gone, an event-cell mask drops nothing.
        let on_event = CellSet::from_cells(&[touched_cell]);
        assert_eq!(parts.invalidate_masked(&on_event), (0, 0));
        // The blanket flushes clear what's left and report counts.
        assert_eq!(parts.invalidate_front_ends(), 1);
        assert_eq!(parts.invalidate_analyses(), 0);
    }
}
