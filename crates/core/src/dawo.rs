//! DAWO: the delay-aware wash optimization baseline.
//!
//! Reimplemented from the description in the PathDriver-Wash paper
//! (Sections I and IV) of the method of [10] (TC'22):
//!
//! 1. wash operations are introduced per contaminated spot group, with **no**
//!    fluid-type analysis (a contaminated cell demands a wash whenever a
//!    non-waste task reuses it),
//! 2. each wash path is constructed **independently** by BFS from the
//!    nearest flow port — no resource sharing between washes,
//! 3. washes are assigned to time intervals by a **sweep line** over the
//!    existing schedule, right-shifting the assay when no interval fits —
//!    the source of DAWO's delay.

use pdw_assay::benchmarks::Benchmark;
use pdw_contam::{Classification, NecessityOptions};
use pdw_synth::Synthesis;

use crate::config::CandidatePolicy;
use crate::context::{FrontEndKey, PlanContext};
use crate::greedy::insert_washes;
use crate::groups::spot_cluster_groups_pooled;
use crate::pdw::{finish, PdwError, SolverReport, WashResult};
use crate::stats::StageTimer;

/// Runs the DAWO baseline on a synthesized assay.
///
/// This is the one-shot wrapper around a throwaway [`PlanContext`];
/// callers also running other solves on the instance should share one
/// context through [`dawo_ctx`].
///
/// # Errors
///
/// Returns [`PdwError`] only if an internal invariant is broken — every
/// returned schedule has passed [`pdw_sim::validate`] and
/// [`pdw_contam::verify_clean`].
pub fn dawo(bench: &Benchmark, synthesis: &Synthesis) -> Result<WashResult, PdwError> {
    let mut ctx = PlanContext::new(bench, synthesis);
    dawo_ctx(&mut ctx)
}

/// The DAWO baseline against a (possibly warm) [`PlanContext`]; the plan
/// is identical to [`dawo`]'s, context warmth only changes wall time.
///
/// # Errors
///
/// As [`dawo`].
pub fn dawo_ctx(ctx: &mut PlanContext<'_>) -> Result<WashResult, PdwError> {
    let bench = ctx.bench();
    let synthesis = ctx.synthesis();
    let mut timer = StageTimer::start(0);
    timer.stats.necessity_s = ctx.ensure_analysis(NecessityOptions::reuse_only());
    let exemptions = {
        let analysis = ctx.analysis(NecessityOptions::reuse_only());
        (
            analysis.count(Classification::Type1Unused),
            analysis.count(Classification::Type2SameFluid),
            analysis.count(Classification::Type3WasteOnly),
        )
    };

    let key = FrontEndKey {
        necessity: NecessityOptions::reuse_only(),
        policy: CandidatePolicy::Nearest,
        candidates: 1,
        merged: false,
    };
    let groups = match ctx.front_end(key) {
        Some(cached) => timer.stage(|s| &mut s.grouping_s, || cached.to_vec()),
        None => {
            let analysis = ctx.analysis(NecessityOptions::reuse_only());
            let pool = ctx.scratch_pool();
            let groups = timer.stage(
                |s| &mut s.grouping_s,
                || {
                    // DAWO introduces washes per contaminated spot cluster
                    // and constructs each path independently — no resource
                    // sharing across clusters.
                    spot_cluster_groups_pooled(
                        &synthesis.chip,
                        &synthesis.schedule,
                        &analysis.requirements,
                        CandidatePolicy::Nearest,
                        1,
                        0,
                        pool,
                    )
                },
            );
            ctx.store_front_end(key, groups.clone());
            groups
        }
    };
    let out = timer.stage(
        |s| &mut s.greedy_s,
        || insert_washes(&synthesis.chip, &synthesis.schedule, &groups, false),
    );
    timer.stats.groups = out.groups.len();
    timer.stats.candidates = out.groups.iter().map(|g| g.candidates.len()).sum();
    finish(
        bench,
        synthesis,
        out.schedule,
        exemptions,
        0,
        SolverReport::greedy(),
        timer.seal(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdw_assay::benchmarks;
    use pdw_synth::synthesize;

    #[test]
    fn demo_dawo_produces_clean_valid_schedule() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let r = dawo(&bench, &s).unwrap();
        assert!(r.metrics.n_wash > 0);
        assert!(!r.solver.used_ilp);
    }

    #[test]
    fn dawo_never_beats_pdw_on_wash_count() {
        let bench = benchmarks::demo();
        let s = synthesize(&bench).unwrap();
        let base = dawo(&bench, &s).unwrap();
        let opt = crate::pdw(&bench, &s, &crate::PdwConfig::default()).unwrap();
        assert!(opt.metrics.n_wash <= base.metrics.n_wash);
        assert!(opt.metrics.t_assay <= base.metrics.t_assay);
    }
}
