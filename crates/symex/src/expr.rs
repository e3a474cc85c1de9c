//! Immutable symbolic expression DAGs.
//!
//! Expressions are reference-counted and cheap to clone; constant folding
//! and a handful of algebraic simplifications happen at construction time,
//! so the solver and the VM never see trivially reducible nodes.

use std::fmt;
use std::sync::Arc;

use crate::domain::{Interval, VarId, VarTable};
use crate::model::Model;
use crate::op::{BinOp, CmpOp};

/// A symbolic 64-bit integer expression.
///
/// Booleans are represented as integers with the convention "zero is false,
/// non-zero is true"; comparisons always produce `0` or `1`.
///
/// ```
/// use portend_symex::{Expr, VarTable, CmpOp};
/// let mut vars = VarTable::new();
/// let x = Expr::var(vars.fresh("x", 0, 100));
/// let cond = x.clone().add(Expr::konst(1)).cmp(CmpOp::Gt, Expr::konst(10));
/// assert!(cond.as_const().is_none());
/// assert_eq!(format!("{cond}"), "((v0 + 1) > 10)");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Expr(Arc<Node>);

/// The node variants backing [`Expr`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A literal constant.
    Const(i64),
    /// A symbolic variable.
    Var(VarId),
    /// A binary arithmetic/bitwise operation.
    Bin(BinOp, Expr, Expr),
    /// A comparison producing `0` or `1`.
    Cmp(CmpOp, Expr, Expr),
    /// Logical negation: `1` if the operand is zero, else `0`.
    Not(Expr),
    /// If-then-else on the truthiness of the first operand.
    Ite(Expr, Expr, Expr),
}

/// Error produced when evaluating an expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Division or remainder by zero (or `i64::MIN / -1`).
    DivisionByZero,
    /// A variable had no assignment in the model.
    UnboundVariable(VarId),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::DivisionByZero => write!(f, "division by zero"),
            EvalError::UnboundVariable(v) => write!(f, "unbound variable {v}"),
        }
    }
}

impl std::error::Error for EvalError {}

// The fluent names (`add`, `not`, ...) mirror the IR's operator
// vocabulary; operator-trait impls would hide the constant folding
// entry points behind sugar.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// A literal constant expression.
    pub fn konst(v: i64) -> Expr {
        Expr(Arc::new(Node::Const(v)))
    }

    /// A variable reference.
    pub fn var(id: VarId) -> Expr {
        Expr(Arc::new(Node::Var(id)))
    }

    /// Access to the underlying node.
    pub fn node(&self) -> &Node {
        &self.0
    }

    /// If the expression is a literal constant, returns it.
    pub fn as_const(&self) -> Option<i64> {
        match self.node() {
            Node::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// Builds a binary operation, constant-folding where possible.
    ///
    /// Folding of `div`/`rem` by zero is deliberately *not* performed (the
    /// expression is kept so the VM can raise the error at execution time).
    pub fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
        if let (Some(a), Some(b)) = (lhs.as_const(), rhs.as_const()) {
            if let Some(v) = op.apply(a, b) {
                return Expr::konst(v);
            }
        }
        // Cheap algebraic identities.
        match (op, lhs.as_const(), rhs.as_const()) {
            (BinOp::Add, Some(0), _) => return rhs,
            (BinOp::Add, _, Some(0)) => return lhs,
            (BinOp::Sub, _, Some(0)) => return lhs,
            (BinOp::Mul, Some(1), _) => return rhs,
            (BinOp::Mul, _, Some(1)) => return lhs,
            (BinOp::Mul, Some(0), _) | (BinOp::Mul, _, Some(0)) => return Expr::konst(0),
            (BinOp::And, Some(0), _) | (BinOp::And, _, Some(0)) => return Expr::konst(0),
            (BinOp::Or, Some(0), _) => return rhs,
            (BinOp::Or, _, Some(0)) => return lhs,
            (BinOp::Xor, Some(0), _) => return rhs,
            (BinOp::Xor, _, Some(0)) => return lhs,
            (BinOp::Shl, _, Some(0)) | (BinOp::Shr, _, Some(0)) => return lhs,
            _ => {}
        }
        // Canonicalize commutative ops: constant on the right.
        let (lhs, rhs) = if op.commutative() && lhs.as_const().is_some() {
            (rhs, lhs)
        } else {
            (lhs, rhs)
        };
        Expr(Arc::new(Node::Bin(op, lhs, rhs)))
    }

    /// Builds a comparison, constant-folding where possible.
    pub fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        if let (Some(a), Some(b)) = (self.as_const(), rhs.as_const()) {
            return Expr::konst(op.apply(a, b));
        }
        if self == rhs {
            // x op x is decided by reflexivity.
            return Expr::konst(op.apply(0, 0));
        }
        Expr(Arc::new(Node::Cmp(op, self, rhs)))
    }

    /// Logical negation (`1` if zero, `0` otherwise), folding comparisons
    /// into their negated form.
    pub fn not(self) -> Expr {
        match self.node() {
            Node::Const(v) => Expr::konst((*v == 0) as i64),
            Node::Cmp(op, a, b) => Expr(Arc::new(Node::Cmp(op.negate(), a.clone(), b.clone()))),
            Node::Not(inner) => inner.clone().truthy(),
            _ => Expr(Arc::new(Node::Not(self))),
        }
    }

    /// Normalizes to a `0`/`1` boolean (`x != 0`).
    pub fn truthy(self) -> Expr {
        match self.node() {
            Node::Const(v) => Expr::konst((*v != 0) as i64),
            Node::Cmp(..) | Node::Not(..) => self,
            _ => self.cmp(CmpOp::Ne, Expr::konst(0)),
        }
    }

    /// If-then-else on the truthiness of `self`.
    pub fn ite(self, then_e: Expr, else_e: Expr) -> Expr {
        if let Some(c) = self.as_const() {
            return if c != 0 { then_e } else { else_e };
        }
        if then_e == else_e {
            return then_e;
        }
        Expr(Arc::new(Node::Ite(self, then_e, else_e)))
    }

    /// Wrapping addition.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }

    /// Wrapping subtraction.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }

    /// Wrapping multiplication.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }

    /// Equality comparison.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// Disequality comparison.
    pub fn ne(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ne, rhs)
    }

    /// Logical conjunction of two boolean-valued expressions.
    pub fn and_(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, self.truthy(), rhs.truthy())
    }

    /// Evaluates under a model assigning every variable.
    ///
    /// # Errors
    ///
    /// Returns [`EvalError::DivisionByZero`] on division/remainder by zero
    /// and [`EvalError::UnboundVariable`] for variables absent from `model`.
    pub fn eval(&self, model: &Model) -> Result<i64, EvalError> {
        match self.node() {
            Node::Const(v) => Ok(*v),
            Node::Var(id) => model.get(*id).ok_or(EvalError::UnboundVariable(*id)),
            Node::Bin(op, a, b) => {
                let (a, b) = (a.eval(model)?, b.eval(model)?);
                op.apply(a, b).ok_or(EvalError::DivisionByZero)
            }
            Node::Cmp(op, a, b) => Ok(op.apply(a.eval(model)?, b.eval(model)?)),
            Node::Not(a) => Ok((a.eval(model)? == 0) as i64),
            Node::Ite(c, t, e) => {
                if c.eval(model)? != 0 {
                    t.eval(model)
                } else {
                    e.eval(model)
                }
            }
        }
    }

    /// Conservative interval evaluation; `env` supplies intervals for
    /// variables (typically their current pruned domains).
    pub fn eval_interval(&self, env: &dyn Fn(VarId) -> Interval) -> Interval {
        match self.node() {
            Node::Const(v) => Interval::point(*v),
            Node::Var(id) => env(*id),
            Node::Bin(op, a, b) => {
                let (ia, ib) = (a.eval_interval(env), b.eval_interval(env));
                match op {
                    BinOp::Add => ia.add(ib),
                    BinOp::Sub => ia.sub(ib),
                    BinOp::Mul => ia.mul(ib),
                    // Bit-level and division operators: give up precision
                    // except for fully constant operands (already folded).
                    _ => Interval::TOP,
                }
            }
            Node::Cmp(op, a, b) => {
                let (ia, ib) = (a.eval_interval(env), b.eval_interval(env));
                cmp_interval(*op, ia, ib)
            }
            Node::Not(a) => {
                let i = a.eval_interval(env);
                if i.definitely_false() {
                    Interval::point(1)
                } else if i.definitely_true() {
                    Interval::point(0)
                } else {
                    Interval::BOOL
                }
            }
            Node::Ite(c, t, e) => {
                let ic = c.eval_interval(env);
                if ic.definitely_true() {
                    t.eval_interval(env)
                } else if ic.definitely_false() {
                    e.eval_interval(env)
                } else {
                    let (it, ie) = (t.eval_interval(env), e.eval_interval(env));
                    Interval::new(it.lo.min(ie.lo), it.hi.max(ie.hi))
                }
            }
        }
    }

    /// Collects the distinct variables mentioned by the expression into
    /// `out` (preserving first-occurrence order).
    pub fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self.node() {
            Node::Const(_) => {}
            Node::Var(id) => {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
            Node::Bin(_, a, b) | Node::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Node::Not(a) => a.collect_vars(out),
            Node::Ite(c, t, e) => {
                c.collect_vars(out);
                t.collect_vars(out);
                e.collect_vars(out);
            }
        }
    }

    /// Number of nodes in the DAG counted as a tree (an upper bound on
    /// solver work); used by Fig. 9's "dependent branches" metric.
    pub fn size(&self) -> usize {
        match self.node() {
            Node::Const(_) | Node::Var(_) => 1,
            Node::Bin(_, a, b) | Node::Cmp(_, a, b) => 1 + a.size() + b.size(),
            Node::Not(a) => 1 + a.size(),
            Node::Ite(c, t, e) => 1 + c.size() + t.size() + e.size(),
        }
    }

    /// Renders the expression with variable names from `vars` instead of
    /// raw ids, for debug-aid reports.
    pub fn display_named(&self, vars: &VarTable) -> String {
        let mut s = String::new();
        self.write_named(&mut s, Some(vars));
        s
    }

    fn write_named(&self, out: &mut String, vars: Option<&VarTable>) {
        use std::fmt::Write as _;
        match self.node() {
            Node::Const(v) => {
                let _ = write!(out, "{v}");
            }
            Node::Var(id) => match vars {
                Some(t) if (id.0 as usize) < t.len() => {
                    let _ = write!(out, "{}", t.info(*id).name);
                }
                _ => {
                    let _ = write!(out, "{id}");
                }
            },
            Node::Bin(op, a, b) => {
                out.push('(');
                a.write_named(out, vars);
                let _ = write!(out, " {} ", op.symbol());
                b.write_named(out, vars);
                out.push(')');
            }
            Node::Cmp(op, a, b) => {
                out.push('(');
                a.write_named(out, vars);
                let _ = write!(out, " {} ", op.symbol());
                b.write_named(out, vars);
                out.push(')');
            }
            Node::Not(a) => {
                out.push('!');
                a.write_named(out, vars);
            }
            Node::Ite(c, t, e) => {
                out.push_str("ite(");
                c.write_named(out, vars);
                out.push_str(", ");
                t.write_named(out, vars);
                out.push_str(", ");
                e.write_named(out, vars);
                out.push(')');
            }
        }
    }
}

fn cmp_interval(op: CmpOp, a: Interval, b: Interval) -> Interval {
    let definitely = |v: bool| Interval::point(v as i64);
    match op {
        CmpOp::Lt => {
            if a.hi < b.lo {
                definitely(true)
            } else if a.lo >= b.hi {
                definitely(false)
            } else {
                Interval::BOOL
            }
        }
        CmpOp::Le => {
            if a.hi <= b.lo {
                definitely(true)
            } else if a.lo > b.hi {
                definitely(false)
            } else {
                Interval::BOOL
            }
        }
        CmpOp::Gt => cmp_interval(CmpOp::Lt, b, a),
        CmpOp::Ge => cmp_interval(CmpOp::Le, b, a),
        CmpOp::Eq => {
            if a.as_point().is_some() && a == b {
                definitely(true)
            } else if a.intersect(b).is_none() {
                definitely(false)
            } else {
                Interval::BOOL
            }
        }
        CmpOp::Ne => {
            let eq = cmp_interval(CmpOp::Eq, a, b);
            if eq.definitely_true() {
                definitely(false)
            } else if eq.definitely_false() {
                definitely(true)
            } else {
                Interval::BOOL
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        self.write_named(&mut s, None);
        f.write_str(&s)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Expr({self})")
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::konst(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (VarTable, Expr, Expr) {
        let mut t = VarTable::new();
        let x = Expr::var(t.fresh("x", 0, 10));
        let y = Expr::var(t.fresh("y", -5, 5));
        (t, x, y)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(Expr::konst(2).add(Expr::konst(3)).as_const(), Some(5));
        assert_eq!(
            Expr::konst(7).cmp(CmpOp::Lt, Expr::konst(9)).as_const(),
            Some(1)
        );
        let (_, x, _) = table();
        assert_eq!(x.clone().add(Expr::konst(0)), x.clone());
        assert_eq!(x.clone().mul(Expr::konst(0)).as_const(), Some(0));
        assert_eq!(Expr::konst(1).mul(x.clone()), x);
    }

    #[test]
    fn div_by_zero_not_folded() {
        let e = Expr::bin(BinOp::Div, Expr::konst(4), Expr::konst(0));
        assert!(e.as_const().is_none());
        assert_eq!(e.eval(&Model::new()), Err(EvalError::DivisionByZero));
    }

    #[test]
    fn not_folds_comparisons() {
        let (_, x, _) = table();
        let e = x.clone().cmp(CmpOp::Lt, Expr::konst(3)).not();
        assert_eq!(format!("{e}"), "(v0 >= 3)");
        let double = x.clone().cmp(CmpOp::Eq, Expr::konst(1)).not().not();
        assert_eq!(format!("{double}"), "(v0 == 1)");
    }

    #[test]
    fn reflexive_cmp_folds() {
        let (_, x, _) = table();
        assert_eq!(x.clone().eq(x.clone()).as_const(), Some(1));
        assert_eq!(x.clone().cmp(CmpOp::Lt, x).as_const(), Some(0));
    }

    #[test]
    fn eval_with_model() {
        let (_, x, y) = table();
        let mut m = Model::new();
        m.set(VarId(0), 4);
        m.set(VarId(1), -2);
        let e = x.clone().add(y.clone()).mul(Expr::konst(3));
        assert_eq!(e.eval(&m), Ok(6));
        let unbound = Expr::var(VarId(9)).eval(&m);
        assert_eq!(unbound, Err(EvalError::UnboundVariable(VarId(9))));
    }

    #[test]
    fn interval_eval() {
        let (t, x, y) = table();
        let env = |id: VarId| t.info(id).interval();
        let e = x.clone().add(y.clone());
        assert_eq!(e.eval_interval(&env), Interval::new(-5, 15));
        let c = x.clone().cmp(CmpOp::Ge, Expr::konst(0));
        assert!(c.eval_interval(&env).definitely_true());
        let c2 = y.clone().cmp(CmpOp::Gt, Expr::konst(10));
        assert!(c2.eval_interval(&env).definitely_false());
    }

    #[test]
    fn collect_vars_dedup() {
        let (_, x, y) = table();
        let e = x.clone().add(y.clone()).mul(x.clone());
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn ite_folds() {
        let (_, x, y) = table();
        assert_eq!(Expr::konst(1).ite(x.clone(), y.clone()), x);
        assert_eq!(Expr::konst(0).ite(x.clone(), y.clone()), y);
        let same = x.clone().ne(Expr::konst(0)).ite(y.clone(), y.clone());
        assert_eq!(same, y);
    }

    #[test]
    fn display_named() {
        let (t, x, _) = table();
        let e = x.cmp(CmpOp::Gt, Expr::konst(2));
        assert_eq!(e.display_named(&t), "(x > 2)");
    }

    #[test]
    fn size_counts_nodes() {
        let (_, x, y) = table();
        assert_eq!(x.clone().size(), 1);
        assert_eq!(x.add(y).size(), 3);
    }
}
