//! Presolve: cheap model reductions applied before branch-and-bound.
//!
//! Scheduling models are full of rows the simplex should never see:
//! singleton rows (`a·x ≤ b`) that are really variable bounds, rows whose
//! variables are all fixed, and empty rows. Folding them away shrinks the
//! tableau and every pivot's work, and tightening integer bounds to integral
//! values removes fractional vertices before the first pivot.
//!
//! On top of the row reductions, an activity-based **bound propagation**
//! pass walks the surviving multi-variable rows: from the row's minimum and
//! maximum activity (each variable at its favorable bound) it derives
//! implied bounds for every variable, rounds them inward for integers, and
//! detects rows that can never be satisfied. On big-M disjunctions this
//! frequently fixes indicator binaries before a single LP is solved.
//!
//! The reduction keeps the variable set (and [`VarId`](crate::VarId)s)
//! intact — only bounds tighten and rows disappear — so solutions of the
//! reduced model are solutions of the original and vice versa.

use crate::model::{Model, Relation};
use crate::{FEAS_TOL, INT_TOL};

/// Result of presolving a model.
#[derive(Debug, Clone)]
pub enum Presolved {
    /// An equivalent model with the same variables, possibly tighter bounds
    /// and fewer rows.
    Reduced(Model),
    /// The reductions proved the model infeasible.
    Infeasible,
}

/// What presolve accomplished, for the solver's observability report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PresolveStats {
    /// Constraint rows eliminated (singletons absorbed, empty rows dropped).
    pub rows_removed: u64,
    /// Variables that presolve newly fixed to a single value.
    pub vars_fixed: u64,
    /// Individual variable bounds strictly tightened (including integral
    /// rounding and activity propagation).
    pub bounds_tightened: u64,
}

/// Minimum improvement for a propagated bound to count as progress. Keeps
/// the fixpoint loop from chasing vanishing tightenings forever.
const PROP_TOL: f64 = 1e-7;

/// Cap on full presolve passes; each pass re-examines every row, so the cap
/// bounds presolve at O(passes · nnz).
const MAX_PASSES: usize = 16;

/// Applies singleton-row absorption, fixed-variable substitution, empty-row
/// elimination, and activity-based bound propagation until a fixpoint.
pub fn presolve(model: &Model) -> Presolved {
    presolve_with_stats(model).0
}

/// Like [`presolve`], additionally reporting what was reduced.
pub fn presolve_with_stats(model: &Model) -> (Presolved, PresolveStats) {
    let mut stats = PresolveStats::default();
    let rows_in = model.num_constraints() as u64;
    let fixed_in = count_fixed(model);

    let mut m = model.clone();
    for _pass in 0..MAX_PASSES {
        let mut changed = false;
        let mut keep = Vec::with_capacity(m.constraints.len());

        for c in std::mem::take(&mut m.constraints) {
            // Fold fixed variables into the right-hand side.
            let mut rhs = c.rhs;
            let mut live: Vec<(crate::VarId, f64)> = Vec::new();
            // Terms folded per column in column order, so a model always
            // presolves to the same rows.
            let mut acc: std::collections::BTreeMap<usize, f64> = std::collections::BTreeMap::new();
            for &(v, coef) in c.expr.terms() {
                *acc.entry(v.0).or_insert(0.0) += coef;
            }
            for (j, coef) in acc {
                if coef == 0.0 {
                    continue;
                }
                let (lb, ub) = (m.vars[j].lb, m.vars[j].ub);
                if (ub - lb).abs() <= FEAS_TOL {
                    rhs -= coef * lb;
                    changed = true;
                } else {
                    live.push((crate::VarId(j), coef));
                }
            }

            match live.len() {
                0 => {
                    // Empty row: feasibility is decided now.
                    let ok = match c.rel {
                        Relation::Le => 0.0 <= rhs + FEAS_TOL,
                        Relation::Ge => 0.0 >= rhs - FEAS_TOL,
                        Relation::Eq => rhs.abs() <= FEAS_TOL,
                    };
                    if !ok {
                        return (Presolved::Infeasible, stats);
                    }
                    changed = true;
                }
                1 => {
                    // Singleton row: absorb into the variable's bounds.
                    let (v, a) = live[0];
                    let var = &mut m.vars[v.0];
                    let bound = rhs / a;
                    let tighten_ub = matches!(
                        (c.rel, a > 0.0),
                        (Relation::Le, true) | (Relation::Ge, false)
                    );
                    let tighten_lb = matches!(
                        (c.rel, a > 0.0),
                        (Relation::Ge, true) | (Relation::Le, false)
                    );
                    let (old_lb, old_ub) = (var.lb, var.ub);
                    if c.rel == Relation::Eq {
                        var.lb = var.lb.max(bound);
                        var.ub = var.ub.min(bound);
                    } else if tighten_ub {
                        var.ub = var.ub.min(bound);
                    } else if tighten_lb {
                        var.lb = var.lb.max(bound);
                    }
                    if var.vtype == crate::VarType::Integer {
                        var.lb = (var.lb - INT_TOL).ceil();
                        var.ub = (var.ub + INT_TOL).floor();
                    }
                    stats.bounds_tightened += (var.lb > old_lb) as u64 + (var.ub < old_ub) as u64;
                    if var.lb > var.ub + FEAS_TOL {
                        return (Presolved::Infeasible, stats);
                    }
                    changed = true;
                }
                _ => {
                    if live.len() != c.expr.terms().len() || rhs != c.rhs {
                        changed = true;
                    }
                    keep.push(crate::model::Constraint {
                        expr: live.into(),
                        rel: c.rel,
                        rhs,
                    });
                }
            }
        }

        // Activity-based bound propagation over the surviving rows.
        match propagate_bounds(&mut m, &keep, &mut stats) {
            Propagation::Infeasible => return (Presolved::Infeasible, stats),
            Propagation::Tightened => changed = true,
            Propagation::Fixpoint => {}
        }

        m.constraints = keep;
        if !changed {
            break;
        }
    }

    stats.rows_removed = rows_in.saturating_sub(m.num_constraints() as u64);
    stats.vars_fixed = count_fixed(&m).saturating_sub(fixed_in);
    (Presolved::Reduced(m), stats)
}

fn count_fixed(m: &Model) -> u64 {
    m.vars
        .iter()
        .filter(|v| (v.ub - v.lb).abs() <= FEAS_TOL)
        .count() as u64
}

enum Propagation {
    Fixpoint,
    Tightened,
    Infeasible,
}

/// The minimum and maximum achievable value of a row's left-hand side,
/// tracked as a finite part plus a count of infinite contributions (so the
/// residual activity excluding one variable stays well-defined).
#[derive(Clone, Copy, Default)]
struct Activity {
    finite: f64,
    inf: u32,
}

impl Activity {
    fn add(&mut self, x: f64) {
        if x.is_finite() {
            self.finite += x;
        } else {
            self.inf += 1;
        }
    }

    /// Activity with one contribution `x` removed; `None` when the residual
    /// is still infinite.
    fn without(&self, x: f64) -> Option<f64> {
        if x.is_finite() {
            (self.inf == 0).then_some(self.finite - x)
        } else {
            (self.inf == 1).then_some(self.finite)
        }
    }

    /// Total of a *minimum* activity: infinite contributions pull it to −∞.
    fn total_min(&self) -> f64 {
        if self.inf > 0 {
            f64::NEG_INFINITY
        } else {
            self.finite
        }
    }

    /// Total of a *maximum* activity: infinite contributions push it to +∞.
    fn total_max(&self) -> f64 {
        if self.inf > 0 {
            f64::INFINITY
        } else {
            self.finite
        }
    }
}

/// One propagation sweep over `rows`. Tightens `m.vars` bounds in place.
fn propagate_bounds(
    m: &mut Model,
    rows: &[crate::model::Constraint],
    stats: &mut PresolveStats,
) -> Propagation {
    let mut tightened = false;
    for c in rows {
        // Minimum/maximum activity with every variable at its favorable
        // bound. Signs: a>0 contributes a·lb to the min, a·ub to the max.
        let mut min_act = Activity::default();
        let mut max_act = Activity::default();
        for &(v, a) in c.expr.terms() {
            let (lb, ub) = (m.vars[v.0].lb, m.vars[v.0].ub);
            let (lo, hi) = if a > 0.0 {
                (a * lb, a * ub)
            } else {
                (a * ub, a * lb)
            };
            min_act.add(lo);
            max_act.add(hi);
        }

        // A row whose best case still violates the relation is proof of
        // infeasibility.
        let lhs_min = min_act.total_min();
        let lhs_max = max_act.total_max();
        match c.rel {
            Relation::Le if lhs_min > c.rhs + FEAS_TOL => return Propagation::Infeasible,
            Relation::Ge if lhs_max < c.rhs - FEAS_TOL => return Propagation::Infeasible,
            Relation::Eq if lhs_min > c.rhs + FEAS_TOL || lhs_max < c.rhs - FEAS_TOL => {
                return Propagation::Infeasible
            }
            _ => {}
        }

        for &(v, a) in c.expr.terms() {
            let var = &m.vars[v.0];
            let (lb, ub) = (var.lb, var.ub);
            let (lo_j, hi_j) = if a > 0.0 {
                (a * lb, a * ub)
            } else {
                (a * ub, a * lb)
            };

            // From Σ ≤ rhs: a_j·x_j ≤ rhs − residual_min.
            let implied_hi = match c.rel {
                Relation::Le | Relation::Eq => min_act.without(lo_j).map(|r| c.rhs - r),
                Relation::Ge => None,
            };
            // From Σ ≥ rhs: a_j·x_j ≥ rhs − residual_max.
            let implied_lo = match c.rel {
                Relation::Ge | Relation::Eq => max_act.without(hi_j).map(|r| c.rhs - r),
                Relation::Le => None,
            };

            let (mut new_lb, mut new_ub) = (lb, ub);
            if let Some(h) = implied_hi {
                if a > 0.0 {
                    new_ub = new_ub.min(h / a);
                } else {
                    new_lb = new_lb.max(h / a);
                }
            }
            if let Some(l) = implied_lo {
                if a > 0.0 {
                    new_lb = new_lb.max(l / a);
                } else {
                    new_ub = new_ub.min(l / a);
                }
            }
            if m.vars[v.0].vtype == crate::VarType::Integer {
                new_lb = (new_lb - INT_TOL).ceil();
                new_ub = (new_ub + INT_TOL).floor();
            }
            if new_lb > new_ub + FEAS_TOL {
                return Propagation::Infeasible;
            }
            // Only meaningful improvements count as progress, otherwise the
            // fixpoint loop chases epsilons.
            let var = &mut m.vars[v.0];
            if new_lb > lb + PROP_TOL {
                var.lb = new_lb;
                stats.bounds_tightened += 1;
                tightened = true;
            }
            if new_ub < ub - PROP_TOL {
                var.ub = new_ub;
                stats.bounds_tightened += 1;
                tightened = true;
            }
        }
    }
    if tightened {
        Propagation::Tightened
    } else {
        Propagation::Fixpoint
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;

    #[test]
    fn singleton_rows_become_bounds() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        m.constraint([(x, 2.0)], Relation::Le, 10.0); // x <= 5
        m.constraint([(x, 1.0)], Relation::Ge, 2.0); // x >= 2
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.num_constraints(), 0);
                assert_eq!(r.lb(x), 2.0);
                assert_eq!(r.ub(x), 5.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn negative_coefficient_singletons_flip_direction() {
        let mut m = Model::new("t");
        let x = m.continuous("x", -0.0, 100.0, 1.0);
        m.constraint([(x, -1.0)], Relation::Le, -3.0); // -x <= -3  =>  x >= 3
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.num_constraints(), 0);
                assert_eq!(r.lb(x), 3.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn integer_bounds_round_inward() {
        let mut m = Model::new("t");
        let x = m.integer("x", 0.0, 10.0, 1.0);
        m.constraint([(x, 2.0)], Relation::Le, 7.0); // x <= 3.5 -> 3
        m.constraint([(x, 3.0)], Relation::Ge, 4.0); // x >= 1.33 -> 2
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.lb(x), 2.0);
                assert_eq!(r.ub(x), 3.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn fixed_variables_fold_into_rhs() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 4.0, 4.0, 0.0); // fixed at 4
        let y = m.continuous("y", 0.0, 100.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 10.0); // y >= 6
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.num_constraints(), 0); // became a singleton, absorbed
                assert_eq!(r.lb(y), 6.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn contradictory_singletons_detect_infeasibility() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Ge, 8.0);
        m.constraint([(x, 1.0)], Relation::Le, 3.0);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn empty_contradiction_detects_infeasibility() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 2.0, 2.0, 0.0);
        m.constraint([(x, 1.0)], Relation::Ge, 5.0); // 2 >= 5: false
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn multi_variable_rows_survive() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 1.0);
        let y = m.continuous("y", 0.0, 10.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        match presolve(&m) {
            Presolved::Reduced(r) => assert_eq!(r.num_constraints(), 1),
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn presolved_model_has_same_optimum() {
        // min x + y  s.t.  x >= 2 (singleton), x + y >= 5.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        let y = m.continuous("y", 0.0, 100.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Ge, 2.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 5.0);
        let orig = match crate::solve_lp(&m) {
            crate::LpOutcome::Optimal(s) => s.objective,
            o => panic!("unexpected {o:?}"),
        };
        let reduced = match presolve(&m) {
            Presolved::Reduced(r) => match crate::solve_lp(&r) {
                crate::LpOutcome::Optimal(s) => s.objective,
                o => panic!("unexpected {o:?}"),
            },
            Presolved::Infeasible => panic!("feasible model"),
        };
        assert!((orig - reduced).abs() < 1e-9);
    }

    // ------------------------------------------------------------------
    // Activity-based bound propagation
    // ------------------------------------------------------------------

    #[test]
    fn propagation_tightens_multi_variable_rows() {
        // 2x + y <= 4 with x, y >= 0: implied x <= 2, y <= 4.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        let y = m.continuous("y", 0.0, 100.0, 1.0);
        m.constraint([(x, 2.0), (y, 1.0)], Relation::Le, 4.0);
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.ub(x), 2.0);
                assert_eq!(r.ub(y), 4.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn propagation_rounds_integer_bounds_inward() {
        // 2x + 2y <= 5, x,y integer in [0, 9]: implied x <= 2 (2.5 floored).
        let mut m = Model::new("t");
        let x = m.integer("x", 0.0, 9.0, 1.0);
        let y = m.integer("y", 0.0, 9.0, 1.0);
        m.constraint([(x, 2.0), (y, 2.0)], Relation::Le, 5.0);
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.ub(x), 2.0);
                assert_eq!(r.ub(y), 2.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn propagation_detects_unsatisfiable_activity() {
        // x + y <= 3 but both variables live in [2, 10]: min activity 4 > 3.
        let mut m = Model::new("t");
        let x = m.continuous("x", 2.0, 10.0, 1.0);
        let y = m.continuous("y", 2.0, 10.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Le, 3.0);
        assert!(matches!(presolve(&m), Presolved::Infeasible));
    }

    #[test]
    fn propagation_handles_infinite_bounds() {
        // x unbounded above: x + y >= 3 cannot tighten y's upper bound, and
        // no spurious infeasibility may be reported.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, f64::INFINITY, 1.0);
        let y = m.continuous("y", 0.0, 5.0, 1.0);
        m.constraint([(x, 1.0), (y, 1.0)], Relation::Ge, 3.0);
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.ub(y), 5.0);
                assert!(r.ub(x).is_infinite());
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn propagation_fixes_big_m_indicator() {
        // y <= 10·k with y in [4, 8] and k binary: k must be 1.
        let mut m = Model::new("t");
        let y = m.continuous("y", 4.0, 8.0, 1.0);
        let k = m.binary("k", 0.0);
        m.constraint([(y, 1.0), (k, -10.0)], Relation::Le, 0.0);
        match presolve(&m) {
            Presolved::Reduced(r) => {
                assert_eq!(r.lb(k), 1.0);
                assert_eq!(r.ub(k), 1.0);
            }
            Presolved::Infeasible => panic!("feasible model"),
        }
    }

    #[test]
    fn stats_report_reductions() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        let y = m.continuous("y", 0.0, 100.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Ge, 2.0); // absorbed
        m.constraint([(x, 1.0), (y, 2.0)], Relation::Le, 10.0); // propagates
        let (p, stats) = presolve_with_stats(&m);
        assert!(matches!(p, Presolved::Reduced(_)));
        assert_eq!(stats.rows_removed, 1);
        assert!(stats.bounds_tightened >= 2, "stats: {stats:?}");
    }

    #[test]
    fn stats_count_newly_fixed_vars() {
        // Equality singleton fixes x; a pre-fixed variable is not counted.
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 100.0, 1.0);
        let _pre = m.continuous("pre", 3.0, 3.0, 0.0);
        m.constraint([(x, 1.0)], Relation::Eq, 7.0);
        let (p, stats) = presolve_with_stats(&m);
        assert!(matches!(p, Presolved::Reduced(_)));
        assert_eq!(stats.vars_fixed, 1);
    }
}
