//! A bounded-domain constraint solver.
//!
//! This is the reproduction's substitute for STP (the decision procedure the
//! original Portend calls through KLEE, paper §3.3). Portend needs three
//! queries, all of which this solver provides:
//!
//! 1. branch feasibility — is `pc ∧ cond` satisfiable?
//! 2. model extraction — concrete inputs that drive a primary path;
//! 3. symbolic output comparison — does a concrete alternate output satisfy
//!    the primary's symbolic output constraints?
//!
//! The algorithm is classic constraint programming: interval-based domain
//! pruning to a fixpoint, then depth-first search with interval
//! partial evaluation and a node budget. Variables live in finite domains
//! declared at creation (see [`crate::VarTable`]), which keeps the problem
//! decidable; a budget overrun yields [`SatResult::Unknown`] rather than an
//! unsound answer.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::cache::{canonical_key, CacheAnswer, SolverCache};
use crate::domain::{Interval, VarId, VarTable};
use crate::expr::{Expr, Node};
use crate::model::Model;
use crate::op::{BinOp, CmpOp};
use crate::slice::SliceMemo;

/// Outcome of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable; carries a witness model over the queried variables.
    Sat(Model),
    /// Definitely unsatisfiable.
    Unsat,
    /// The node budget was exhausted before a decision was reached.
    Unknown,
}

impl SatResult {
    /// `Some(true)` / `Some(false)` for decided queries, `None` for unknown.
    pub fn decided(&self) -> Option<bool> {
        match self {
            SatResult::Sat(_) => Some(true),
            SatResult::Unsat => Some(false),
            SatResult::Unknown => None,
        }
    }

    /// The witness model, when satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters describing the work one query performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Search-tree nodes visited (value assignments tried).
    pub nodes: u64,
    /// Domain-pruning passes executed.
    pub prune_passes: u64,
    /// Whether the query terminated because of the budget.
    pub budget_exhausted: bool,
    /// Whether the query was answered from a shared [`SolverCache`]
    /// (whole-query path) without any solving work.
    pub cache_hit: bool,
    /// Independent constraint slices the query *examined* (`0` for
    /// whole-query solving; see [`Solver::check_sliced_with_stats`]).
    /// An UNSAT slice short-circuits the query, so slices after it are
    /// never examined and never counted.
    pub slices: u64,
    /// Of those slices, how many were answered from a shared
    /// [`SolverCache`] instead of being solved.
    pub slice_cache_hits: u64,
}

/// Solver configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Maximum search-tree nodes before giving up with `Unknown`.
    pub node_budget: u64,
    /// Maximum pruning fixpoint iterations.
    pub max_prune_passes: u64,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            node_budget: 2_000_000,
            max_prune_passes: 64,
        }
    }
}

/// The constraint solver. Stateless between queries; cheap to construct.
///
/// ```
/// use portend_symex::{Expr, Solver, VarTable, CmpOp, SatResult};
/// let mut vars = VarTable::new();
/// let x = Expr::var(vars.fresh("x", 0, 100));
/// let c1 = x.clone().cmp(CmpOp::Gt, Expr::konst(10));
/// let c2 = x.cmp(CmpOp::Lt, Expr::konst(12));
/// let solver = Solver::new();
/// match solver.check(&[c1, c2], &vars) {
///     SatResult::Sat(m) => assert_eq!(m.get(portend_symex::VarId(0)), Some(11)),
///     other => panic!("expected sat, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Solver {
    cfg: SolverConfig,
    cache: Option<Arc<SolverCache>>,
}

impl Solver {
    /// A solver with the default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A solver with an explicit configuration.
    pub fn with_config(cfg: SolverConfig) -> Self {
        Solver {
            cfg,
            ..Default::default()
        }
    }

    /// The same solver, memoizing every query in a shared cache.
    ///
    /// Cached answers are exact: the key captures the ordered constraint
    /// list, the mentioned variables' domains, and the configuration, and
    /// the solver is deterministic, so a hit equals recomputation.
    pub fn cached(mut self, cache: Arc<SolverCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The shared query cache, when one is attached.
    pub fn query_cache(&self) -> Option<&Arc<SolverCache>> {
        self.cache.as_ref()
    }

    /// The active configuration.
    pub fn config(&self) -> SolverConfig {
        self.cfg
    }

    /// Checks satisfiability of the conjunction of `constraints`.
    pub fn check(&self, constraints: &[Expr], vars: &VarTable) -> SatResult {
        self.check_with_stats(constraints, vars).0
    }

    /// Like [`Solver::check`], additionally reporting work counters.
    ///
    /// With a cache attached (see [`Solver::cached`]), the query is looked
    /// up first; on a hit the memoized result is returned with
    /// `stats.cache_hit` set and no solving work performed.
    pub fn check_with_stats(
        &self,
        constraints: &[Expr],
        vars: &VarTable,
    ) -> (SatResult, SolverStats) {
        let mut ev = portend_obs::span(portend_obs::EventKind::SolverCheck);
        let (result, stats) = self.check_with_stats_inner(constraints, vars);
        ev.args(stats.slices, stats.nodes);
        (result, stats)
    }

    fn check_with_stats_inner(
        &self,
        constraints: &[Expr],
        vars: &VarTable,
    ) -> (SatResult, SolverStats) {
        match &self.cache {
            None => self.solve(constraints, vars),
            Some(cache) => {
                let key = canonical_key(constraints, vars, self.cfg);
                match cache.lookup(&key) {
                    CacheAnswer::Hit(result) => {
                        let stats = SolverStats {
                            cache_hit: true,
                            ..Default::default()
                        };
                        (result, stats)
                    }
                    CacheAnswer::Probation(expected) => {
                        // A warm-store entry sampled for validation:
                        // solve and compare (a faithful store always
                        // agrees; a stale one is corrected in place).
                        let (result, stats) = self.solve(constraints, vars);
                        cache.confirm_warm(&key, &expected, &result);
                        (result, stats)
                    }
                    CacheAnswer::Miss => {
                        let (result, stats) = self.solve(constraints, vars);
                        cache.insert(key, result.clone());
                        (result, stats)
                    }
                }
            }
        }
    }

    /// Like [`Solver::check`], but partitioning the query into
    /// independent constraint slices first (see [`crate::slice`]).
    pub fn check_sliced(&self, constraints: &[Expr], vars: &VarTable) -> SatResult {
        self.check_sliced_with_stats(constraints, vars).0
    }

    /// Checks satisfiability by slicing the constraint list into
    /// variable-connectivity groups and solving each slice independently
    /// (UNSAT in any slice ⇒ UNSAT overall; models merged on SAT — sound
    /// because slices share no variables).
    ///
    /// With a cache attached (see [`Solver::cached`]), each *slice* is
    /// memoized separately, so the shared pre-race constraint prefix
    /// recurring across Mp × Ma path/schedule combinations hits the
    /// cache even when later branch constraints differ. Every slice is
    /// solved under the full configured node budget; a slice that
    /// exhausts it yields [`SatResult::Unknown`] overall (unless another
    /// slice is UNSAT, which decides the query regardless).
    ///
    /// Slicing never flips a decided answer: whenever whole-query
    /// solving decides within budget, the sliced result is structurally
    /// identical, model included (workspace property test
    /// `sliced_solver_is_transparent`). It can only *improve* on
    /// `Unknown` — each slice's search is no larger than the combined
    /// search that interleaves it with unrelated variables.
    pub fn check_sliced_with_stats(
        &self,
        constraints: &[Expr],
        vars: &VarTable,
    ) -> (SatResult, SolverStats) {
        crate::slice::check_sliced(self, constraints, vars, None)
    }

    /// Like [`Solver::check_sliced`], looking each slice up in the
    /// caller's `memo` before the shared cache and recording there every
    /// slice answered otherwise. A caller checking many queries that
    /// share constraints — the explorer probing both sides of each
    /// branch of one race's path condition — solves each recurring
    /// slice once; [`SliceMemo::hits`] counts the reuse.
    pub fn check_sliced_memo(
        &self,
        constraints: &[Expr],
        vars: &VarTable,
        memo: &mut SliceMemo,
    ) -> SatResult {
        crate::slice::check_sliced(self, constraints, vars, Some(memo)).0
    }

    /// The uncached solving path.
    pub(crate) fn solve(&self, constraints: &[Expr], vars: &VarTable) -> (SatResult, SolverStats) {
        let mut stats = SolverStats::default();

        // 1. Constant filtering.
        let mut active: Vec<Expr> = Vec::with_capacity(constraints.len());
        for c in constraints {
            match c.as_const() {
                Some(0) => return (SatResult::Unsat, stats),
                Some(_) => {}
                None => active.push(c.clone()),
            }
        }
        if active.is_empty() {
            return (SatResult::Sat(Model::new()), stats);
        }

        // 2. Domain initialization for the mentioned variables.
        let mut mentioned = Vec::new();
        for c in &active {
            c.collect_vars(&mut mentioned);
        }
        let mut domains: BTreeMap<VarId, Interval> = mentioned
            .iter()
            .map(|&v| (v, vars.info(v).interval()))
            .collect();

        // 3. Pruning to fixpoint.
        for _ in 0..self.cfg.max_prune_passes {
            stats.prune_passes += 1;
            match prune_pass(&active, &mut domains) {
                PruneOutcome::Unsat => return (SatResult::Unsat, stats),
                PruneOutcome::Changed => continue,
                PruneOutcome::Fixpoint => break,
            }
        }

        // 4. Drop constraints already decided by the pruned domains.
        let env = |id: VarId| domains[&id];
        active.retain(|c| {
            let i = c.eval_interval(&env);
            !i.definitely_true()
        });
        for c in &active {
            if c.eval_interval(&env).definitely_false() {
                return (SatResult::Unsat, stats);
            }
        }
        if active.is_empty() {
            let model = domains.iter().map(|(&v, i)| (v, i.lo)).collect();
            return (SatResult::Sat(model), stats);
        }

        // 5. Search, branching on the smallest domain first.
        let mut order: Vec<VarId> = domains.keys().copied().collect();
        order.sort_by_key(|v| domains[v].size());
        let mut assignment = Model::new();
        let mut budget = self.cfg.node_budget;
        let found = search(
            &active,
            &order,
            0,
            &domains,
            &mut assignment,
            &mut budget,
            &mut stats,
        );
        match found {
            SearchOutcome::Found => {
                // Complete the model for unassigned variables (possible when
                // constraints became definitely true early).
                for (&v, i) in &domains {
                    if assignment.get(v).is_none() {
                        assignment.set(v, i.lo);
                    }
                }
                (SatResult::Sat(assignment), stats)
            }
            SearchOutcome::Exhausted => (SatResult::Unsat, stats),
            SearchOutcome::Budget => {
                stats.budget_exhausted = true;
                (SatResult::Unknown, stats)
            }
        }
    }
}

enum PruneOutcome {
    Unsat,
    Changed,
    Fixpoint,
}

/// One pruning pass over all constraints. Linear constraint shapes
/// (`c*v + d  op  rhs`) tighten `v`'s domain directly; every constraint is
/// additionally interval-checked for definite falsity.
fn prune_pass(active: &[Expr], domains: &mut BTreeMap<VarId, Interval>) -> PruneOutcome {
    let mut changed = false;
    for c in active {
        match prune_constraint(c, domains) {
            Some(true) => changed = true,
            Some(false) => {}
            None => return PruneOutcome::Unsat,
        }
    }
    if changed {
        PruneOutcome::Changed
    } else {
        PruneOutcome::Fixpoint
    }
}

/// Prunes one constraint. Returns `Some(changed)` or `None` for unsat.
fn prune_constraint(c: &Expr, domains: &mut BTreeMap<VarId, Interval>) -> Option<bool> {
    let env_snapshot: BTreeMap<VarId, Interval> = domains.clone();
    let env = |id: VarId| env_snapshot.get(&id).copied().unwrap_or(Interval::TOP);
    let iv = c.eval_interval(&env);
    if iv.definitely_false() {
        return None;
    }
    let mut changed = false;
    match c.node() {
        // Conjunction: both sides must hold.
        Node::Bin(BinOp::And, a, b) => {
            changed |= prune_constraint(a, domains)?;
            changed |= prune_constraint(b, domains)?;
        }
        Node::Cmp(op, lhs, rhs) => {
            changed |= prune_cmp(*op, lhs, rhs, domains)?;
            changed |= prune_cmp(op.swap(), rhs, lhs, domains)?;
        }
        // A bare variable used as a condition: non-zero.
        Node::Var(v) => {
            if let Some(dom) = domains.get_mut(v) {
                let mut d = *dom;
                if d.lo == 0 && d.hi == 0 {
                    return None;
                }
                if d.lo == 0 && d.hi > 0 {
                    d.lo = 1;
                }
                if d.hi == 0 && d.lo < 0 {
                    d.hi = -1;
                }
                if d != *dom {
                    *dom = d;
                    changed = true;
                }
            }
        }
        // not(e): e must be zero; handle `not(var)` directly.
        Node::Not(inner) => {
            if let Node::Var(v) = inner.node() {
                let dom = domains.get_mut(v).expect("mentioned var has a domain");
                let point = dom.intersect(Interval::point(0));
                match point {
                    Some(p) => {
                        if p != *dom {
                            *dom = p;
                            changed = true;
                        }
                    }
                    None => return None,
                }
            }
        }
        _ => {}
    }
    Some(changed)
}

/// Tightens the domain of the (single) variable in the linear side `lhs`
/// of `lhs op rhs`, using the permissive interval of `rhs`.
fn prune_cmp(
    op: CmpOp,
    lhs: &Expr,
    rhs: &Expr,
    domains: &mut BTreeMap<VarId, Interval>,
) -> Option<bool> {
    let (coef, var, off) = match linear_form(lhs) {
        Some(l) => l,
        None => return Some(false),
    };
    // The permissive range of the other side under current domains.
    let env_snapshot: BTreeMap<VarId, Interval> = domains.clone();
    let env = |id: VarId| env_snapshot.get(&id).copied().unwrap_or(Interval::TOP);
    let r = rhs.eval_interval(&env);
    if r == Interval::TOP {
        return Some(false);
    }
    let dom = *domains.get(&var)?;

    let blo = r.lo as i128;
    let bhi = r.hi as i128;
    let off = off as i128;
    // Constraint (permissive):   coef*v + off  op  [blo, bhi]
    let (min_cv, max_cv): (Option<i128>, Option<i128>) = match op {
        CmpOp::Lt => (None, Some(bhi - 1 - off)),
        CmpOp::Le => (None, Some(bhi - off)),
        CmpOp::Gt => (Some(blo + 1 - off), None),
        CmpOp::Ge => (Some(blo - off), None),
        CmpOp::Eq => (Some(blo - off), Some(bhi - off)),
        CmpOp::Ne => {
            // Only prune when the rhs is a single point at a domain boundary.
            if blo == bhi {
                let target = blo - off;
                if coef != 0 && target % coef as i128 == 0 {
                    let v = (target / coef as i128) as i64;
                    let mut d = dom;
                    if d.lo == d.hi && d.lo == v {
                        return None;
                    }
                    if d.lo == v {
                        d.lo += 1;
                    } else if d.hi == v {
                        d.hi -= 1;
                    }
                    if d != dom {
                        domains.insert(var, d);
                        return Some(true);
                    }
                }
            }
            return Some(false);
        }
    };

    let mut new_lo = dom.lo as i128;
    let mut new_hi = dom.hi as i128;
    let c = coef as i128;
    if let Some(maxv) = max_cv {
        // coef * v <= maxv
        if c > 0 {
            new_hi = new_hi.min(floor_div(maxv, c));
        } else if c < 0 {
            new_lo = new_lo.max(ceil_div(maxv, c));
        } else if maxv < 0 {
            return None;
        }
    }
    if let Some(minv) = min_cv {
        // coef * v >= minv
        if c > 0 {
            new_lo = new_lo.max(ceil_div(minv, c));
        } else if c < 0 {
            new_hi = new_hi.min(floor_div(minv, c));
        } else if minv > 0 {
            return None;
        }
    }
    if new_lo > new_hi {
        return None;
    }
    let new = Interval::new(
        new_lo.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
        new_hi.clamp(i64::MIN as i128, i64::MAX as i128) as i64,
    );
    if new != dom {
        domains.insert(var, new);
        Some(true)
    } else {
        Some(false)
    }
}

/// Floor division for any non-zero divisor (rounds toward −∞).
fn floor_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    let r = a % b;
    if r != 0 && ((r < 0) != (b < 0)) {
        q - 1
    } else {
        q
    }
}

/// Ceiling division for any non-zero divisor (rounds toward +∞).
fn ceil_div(a: i128, b: i128) -> i128 {
    let q = a / b;
    let r = a % b;
    if r != 0 && ((r < 0) == (b < 0)) {
        q + 1
    } else {
        q
    }
}

/// Recognizes `coef * var + off` shapes (single variable, exact constants).
fn linear_form(e: &Expr) -> Option<(i64, VarId, i64)> {
    match e.node() {
        Node::Var(v) => Some((1, *v, 0)),
        Node::Bin(BinOp::Add, a, b) => {
            match (linear_form(a), b.as_const(), a.as_const(), linear_form(b)) {
                (Some((c, v, o)), Some(k), _, _) => Some((c, v, o.checked_add(k)?)),
                (_, _, Some(k), Some((c, v, o))) => Some((c, v, o.checked_add(k)?)),
                _ => None,
            }
        }
        Node::Bin(BinOp::Sub, a, b) => {
            match (linear_form(a), b.as_const(), a.as_const(), linear_form(b)) {
                (Some((c, v, o)), Some(k), _, _) => Some((c, v, o.checked_sub(k)?)),
                (_, _, Some(k), Some((c, v, o))) => Some((c.checked_neg()?, v, k.checked_sub(o)?)),
                _ => None,
            }
        }
        Node::Bin(BinOp::Mul, a, b) => {
            match (linear_form(a), b.as_const(), a.as_const(), linear_form(b)) {
                (Some((c, v, o)), Some(k), _, _) | (_, _, Some(k), Some((c, v, o))) => {
                    Some((c.checked_mul(k)?, v, o.checked_mul(k)?))
                }
                _ => None,
            }
        }
        _ => None,
    }
}

enum SearchOutcome {
    Found,
    Exhausted,
    Budget,
}

fn search(
    constraints: &[Expr],
    order: &[VarId],
    depth: usize,
    domains: &BTreeMap<VarId, Interval>,
    assignment: &mut Model,
    budget: &mut u64,
    stats: &mut SolverStats,
) -> SearchOutcome {
    // Evaluate constraints under assignment ∪ domains.
    let env = |id: VarId| match assignment.get(id) {
        Some(v) => Interval::point(v),
        None => domains.get(&id).copied().unwrap_or(Interval::TOP),
    };
    let mut all_true = true;
    for c in constraints {
        let iv = c.eval_interval(&env);
        if iv.definitely_false() {
            return SearchOutcome::Exhausted;
        }
        if !iv.definitely_true() {
            all_true = false;
        }
    }
    if all_true {
        return SearchOutcome::Found;
    }
    if depth == order.len() {
        // All variables assigned, yet intervals undecided: evaluate exactly.
        for c in constraints {
            match c.eval(assignment) {
                Ok(v) if v != 0 => {}
                _ => return SearchOutcome::Exhausted,
            }
        }
        return SearchOutcome::Found;
    }

    let var = order[depth];
    let dom = domains[&var];
    let mut v = dom.lo;
    loop {
        if *budget == 0 {
            return SearchOutcome::Budget;
        }
        *budget -= 1;
        stats.nodes += 1;
        assignment.set(var, v);
        match search(
            constraints,
            order,
            depth + 1,
            domains,
            assignment,
            budget,
            stats,
        ) {
            SearchOutcome::Found => return SearchOutcome::Found,
            SearchOutcome::Budget => return SearchOutcome::Budget,
            SearchOutcome::Exhausted => {}
        }
        assignment.unset(var);
        if v == dom.hi {
            break;
        }
        v += 1;
    }
    SearchOutcome::Exhausted
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;

    fn vt(domains: &[(i64, i64)]) -> VarTable {
        let mut t = VarTable::new();
        for (i, &(lo, hi)) in domains.iter().enumerate() {
            t.fresh(format!("x{i}"), lo, hi);
        }
        t
    }

    fn x(i: u32) -> Expr {
        Expr::var(VarId(i))
    }

    #[test]
    fn empty_conjunction_is_sat() {
        let s = Solver::new();
        assert!(matches!(s.check(&[], &VarTable::new()), SatResult::Sat(_)));
    }

    #[test]
    fn constant_false_is_unsat() {
        let s = Solver::new();
        assert_eq!(
            s.check(&[Expr::konst(0)], &VarTable::new()),
            SatResult::Unsat
        );
    }

    #[test]
    fn simple_bounds() {
        let vars = vt(&[(0, 100)]);
        let s = Solver::new();
        let cs = [
            x(0).cmp(CmpOp::Ge, Expr::konst(40)),
            x(0).cmp(CmpOp::Lt, Expr::konst(41)),
        ];
        let m = match s.check(&cs, &vars) {
            SatResult::Sat(m) => m,
            other => panic!("{other:?}"),
        };
        assert_eq!(m.get(VarId(0)), Some(40));
    }

    #[test]
    fn unsat_bounds() {
        let vars = vt(&[(0, 100)]);
        let s = Solver::new();
        let cs = [
            x(0).cmp(CmpOp::Gt, Expr::konst(50)),
            x(0).cmp(CmpOp::Lt, Expr::konst(50)),
        ];
        assert_eq!(s.check(&cs, &vars), SatResult::Unsat);
    }

    #[test]
    fn linear_pruning_negative_coefficient() {
        // -2*x + 3 >= 1  =>  x <= 1
        let vars = vt(&[(-10, 10)]);
        let s = Solver::new();
        let lhs = Expr::konst(3).sub(x(0).mul(Expr::konst(2)));
        let cs = [
            lhs.cmp(CmpOp::Ge, Expr::konst(1)),
            x(0).cmp(CmpOp::Ge, Expr::konst(1)),
        ];
        let m = s.check(&cs, &vars).model().cloned().expect("sat");
        assert_eq!(m.get(VarId(0)), Some(1));
    }

    #[test]
    fn two_variable_equation() {
        // x + y == 7, x > y, domains [0, 10]
        let vars = vt(&[(0, 10), (0, 10)]);
        let s = Solver::new();
        let cs = [
            x(0).add(x(1)).cmp(CmpOp::Eq, Expr::konst(7)),
            x(0).cmp(CmpOp::Gt, x(1)),
        ];
        let m = s.check(&cs, &vars).model().cloned().expect("sat");
        let (a, b) = (m.get(VarId(0)).unwrap(), m.get(VarId(1)).unwrap());
        assert_eq!(a + b, 7);
        assert!(a > b);
    }

    #[test]
    fn disequality_at_boundary() {
        let vars = vt(&[(5, 6)]);
        let s = Solver::new();
        let cs = [x(0).cmp(CmpOp::Ne, Expr::konst(5))];
        let m = s.check(&cs, &vars).model().cloned().expect("sat");
        assert_eq!(m.get(VarId(0)), Some(6));
    }

    #[test]
    fn disequality_singleton_unsat() {
        let vars = vt(&[(5, 5)]);
        let s = Solver::new();
        assert_eq!(
            s.check(&[x(0).cmp(CmpOp::Ne, Expr::konst(5))], &vars),
            SatResult::Unsat
        );
    }

    #[test]
    fn nonlinear_falls_back_to_search() {
        // x*x == 49 with x in [0, 20]
        let vars = vt(&[(0, 20)]);
        let s = Solver::new();
        let cs = [x(0).mul(x(0)).cmp(CmpOp::Eq, Expr::konst(49))];
        let m = s.check(&cs, &vars).model().cloned().expect("sat");
        assert_eq!(m.get(VarId(0)), Some(7));
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let vars = vt(&[(0, 1000), (0, 1000), (0, 1000)]);
        let s = Solver::with_config(SolverConfig {
            node_budget: 10,
            max_prune_passes: 1,
        });
        // x*y + z*z == 999983 (prime): requires real search.
        let cs = [x(0)
            .mul(x(1))
            .add(x(2).mul(x(2)))
            .cmp(CmpOp::Eq, Expr::konst(999_983))];
        let (res, stats) = s.check_with_stats(&cs, &vars);
        assert_eq!(res, SatResult::Unknown);
        assert!(stats.budget_exhausted);
    }

    #[test]
    fn truthy_variable_constraint() {
        let vars = vt(&[(0, 3)]);
        let s = Solver::new();
        let m = s.check(&[x(0)], &vars).model().cloned().expect("sat");
        assert!(m.get(VarId(0)).unwrap() != 0);
    }

    #[test]
    fn negated_variable_constraint() {
        let vars = vt(&[(0, 3)]);
        let s = Solver::new();
        let m = s
            .check(&[Expr::var(VarId(0)).not()], &vars)
            .model()
            .cloned()
            .expect("sat");
        assert_eq!(m.get(VarId(0)), Some(0));
    }

    #[test]
    fn conjunction_node_pruned() {
        let vars = vt(&[(0, 100)]);
        let s = Solver::new();
        let c = x(0)
            .clone()
            .cmp(CmpOp::Ge, Expr::konst(10))
            .and_(x(0).cmp(CmpOp::Le, Expr::konst(10)));
        let m = s.check(&[c], &vars).model().cloned().expect("sat");
        assert_eq!(m.get(VarId(0)), Some(10));
    }

    #[test]
    fn model_satisfies_all_constraints() {
        // Regression-style check: returned model must actually satisfy.
        let vars = vt(&[(-20, 20), (-20, 20)]);
        let s = Solver::new();
        let cs = [
            x(0).mul(Expr::konst(3))
                .add(x(1))
                .cmp(CmpOp::Eq, Expr::konst(11)),
            x(1).cmp(CmpOp::Ge, Expr::konst(2)),
            x(0).cmp(CmpOp::Gt, Expr::konst(0)),
        ];
        let m = s.check(&cs, &vars).model().cloned().expect("sat");
        for c in &cs {
            assert!(c.eval(&m).unwrap() != 0, "constraint {c} violated by {m}");
        }
    }
}
