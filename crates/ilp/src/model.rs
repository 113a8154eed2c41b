//! MILP model: variables, linear constraints, objective.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a decision variable in a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Whether a variable is continuous or integer-constrained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VarType {
    /// Real-valued within its bounds.
    Continuous,
    /// Integer-valued within its bounds (binaries are integers in `[0, 1]`).
    Integer,
}

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Relation {
    /// `expr ≤ rhs`
    Le,
    /// `expr ≥ rhs`
    Ge,
    /// `expr = rhs`
    Eq,
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Relation::Le => "<=",
            Relation::Ge => ">=",
            Relation::Eq => "=",
        })
    }
}

/// A linear expression: a sum of `coefficient × variable` terms.
///
/// Duplicate variables are allowed and their coefficients accumulate.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinExpr {
    terms: Vec<(VarId, f64)>,
}

impl LinExpr {
    /// An empty expression.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `coef × var` and returns `self` for chaining.
    pub fn term(mut self, var: VarId, coef: f64) -> Self {
        self.terms.push((var, coef));
        self
    }

    /// The raw terms.
    pub fn terms(&self) -> &[(VarId, f64)] {
        &self.terms
    }

    /// Evaluates the expression for an assignment (indexed by `VarId`).
    pub fn eval(&self, values: &[f64]) -> f64 {
        self.terms.iter().map(|&(v, c)| c * values[v.0]).sum()
    }
}

impl<I: IntoIterator<Item = (VarId, f64)>> From<I> for LinExpr {
    fn from(iter: I) -> Self {
        Self {
            terms: iter.into_iter().collect(),
        }
    }
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Variable {
    pub name: String,
    pub lb: f64,
    pub ub: f64,
    pub obj: f64,
    pub vtype: VarType,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Constraint {
    pub expr: LinExpr,
    pub rel: Relation,
    pub rhs: f64,
}

/// A mixed-integer linear program: minimize `cᵀx` subject to linear
/// constraints and variable bounds, with a subset of variables integral.
///
/// The objective sense is always *minimize*; negate coefficients to
/// maximize.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Model {
    name: String,
    pub(crate) vars: Vec<Variable>,
    pub(crate) constraints: Vec<Constraint>,
}

impl Model {
    /// Creates an empty model.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            vars: Vec::new(),
            constraints: Vec::new(),
        }
    }

    /// The model's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn add_var(&mut self, name: &str, lb: f64, ub: f64, obj: f64, vtype: VarType) -> VarId {
        assert!(
            lb.is_finite(),
            "variable `{name}`: lower bound must be finite"
        );
        assert!(
            lb <= ub,
            "variable `{name}`: lower bound {lb} exceeds upper bound {ub}"
        );
        let id = VarId(self.vars.len());
        self.vars.push(Variable {
            name: name.to_string(),
            lb,
            ub,
            obj,
            vtype,
        });
        id
    }

    /// Adds a continuous variable with bounds `[lb, ub]` and objective
    /// coefficient `obj`. `ub` may be `f64::INFINITY`.
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite or `lb > ub`.
    pub fn continuous(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(name, lb, ub, obj, VarType::Continuous)
    }

    /// Adds an integer variable with bounds `[lb, ub]` and objective
    /// coefficient `obj`.
    ///
    /// # Panics
    ///
    /// Panics if `lb` is not finite or `lb > ub`.
    pub fn integer(&mut self, name: &str, lb: f64, ub: f64, obj: f64) -> VarId {
        self.add_var(name, lb, ub, obj, VarType::Integer)
    }

    /// Adds a binary (0/1) variable with objective coefficient `obj`.
    pub fn binary(&mut self, name: &str, obj: f64) -> VarId {
        self.add_var(name, 0.0, 1.0, obj, VarType::Integer)
    }

    /// Adds the constraint `expr rel rhs`.
    pub fn constraint<E: Into<LinExpr>>(&mut self, expr: E, rel: Relation, rhs: f64) {
        self.constraints.push(Constraint {
            expr: expr.into(),
            rel,
            rhs,
        });
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// Number of integer variables.
    pub fn num_integers(&self) -> usize {
        self.vars
            .iter()
            .filter(|v| v.vtype == VarType::Integer)
            .count()
    }

    /// Lower bound of `var`.
    pub fn lb(&self, var: VarId) -> f64 {
        self.vars[var.0].lb
    }

    /// Upper bound of `var`.
    pub fn ub(&self, var: VarId) -> f64 {
        self.vars[var.0].ub
    }

    /// Objective value of an assignment (indexed by `VarId`).
    pub fn objective_value(&self, values: &[f64]) -> f64 {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| v.obj * values[i])
            .sum()
    }

    /// Checks whether `values` satisfies every constraint and bound within
    /// `tol`, returning the first violation as a human-readable string.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound or constraint.
    pub fn check_feasible(&self, values: &[f64], tol: f64) -> Result<(), String> {
        for (i, v) in self.vars.iter().enumerate() {
            let x = values[i];
            if x < v.lb - tol || x > v.ub + tol {
                return Err(format!(
                    "variable `{}` = {x} outside bounds [{}, {}]",
                    v.name, v.lb, v.ub
                ));
            }
            if v.vtype == VarType::Integer && (x - x.round()).abs() > crate::INT_TOL {
                return Err(format!("variable `{}` = {x} not integral", v.name));
            }
        }
        for (k, c) in self.constraints.iter().enumerate() {
            let lhs = c.expr.eval(values);
            let ok = match c.rel {
                Relation::Le => lhs <= c.rhs + tol,
                Relation::Ge => lhs >= c.rhs - tol,
                Relation::Eq => (lhs - c.rhs).abs() <= tol,
            };
            if !ok {
                return Err(format!(
                    "constraint #{k}: lhs {lhs} violates {} {}",
                    c.rel, c.rhs
                ));
            }
        }
        Ok(())
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model `{}`: {} vars ({} int), {} constraints",
            self.name,
            self.num_vars(),
            self.num_integers(),
            self.num_constraints()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_eval_accumulates_duplicates() {
        let e = LinExpr::new().term(VarId(0), 2.0).term(VarId(0), 3.0);
        assert_eq!(e.eval(&[2.0]), 10.0);
    }

    #[test]
    fn binary_is_integer_in_unit_box() {
        let mut m = Model::new("t");
        let b = m.binary("b", 1.0);
        assert_eq!(m.lb(b), 0.0);
        assert_eq!(m.ub(b), 1.0);
        assert_eq!(m.num_integers(), 1);
    }

    #[test]
    fn check_feasible_reports_violations() {
        let mut m = Model::new("t");
        let x = m.continuous("x", 0.0, 10.0, 1.0);
        m.constraint([(x, 1.0)], Relation::Ge, 5.0);
        assert!(m.check_feasible(&[6.0], 1e-9).is_ok());
        let err = m.check_feasible(&[4.0], 1e-9).unwrap_err();
        assert!(err.contains("constraint #0"));
        let err = m.check_feasible(&[11.0], 1e-9).unwrap_err();
        assert!(err.contains("outside bounds"));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn infinite_lower_bound_rejected() {
        let mut m = Model::new("t");
        let _ = m.continuous("x", f64::NEG_INFINITY, 0.0, 1.0);
    }

    #[test]
    fn objective_value_uses_coefficients() {
        let mut m = Model::new("t");
        let _x = m.continuous("x", 0.0, 1.0, 3.0);
        let _y = m.continuous("y", 0.0, 1.0, -1.0);
        assert_eq!(m.objective_value(&[2.0, 4.0]), 2.0);
    }
}
