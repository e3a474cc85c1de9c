//! Constraint slicing: solving a query as independent sub-queries.
//!
//! A path condition is a conjunction. Two constraints interact only when
//! they (transitively) share variables, so the ordered constraint list
//! partitions — by union-find over mentioned [`VarId`]s — into *slices*
//! that can be solved separately:
//!
//! * UNSAT in any slice ⇒ the conjunction is UNSAT (the slice alone is a
//!   sub-formula of the conjunction);
//! * all slices SAT ⇒ the conjunction is SAT, and the union of the
//!   per-slice models is a model of the whole (no variable appears in
//!   two slices, so the merge cannot conflict).
//!
//! Slicing is what makes the [`crate::SolverCache`] pay off at Portend's
//! query distribution: the Mp × Ma path/schedule combinations of one
//! race — and the races of one program — share a long pre-race
//! constraint prefix but diverge in their suffixes, so their *whole*
//! constraint lists never repeat exactly. Sliced, the shared prefix
//! becomes its own recurring sub-query with a stable key, and only the
//! genuinely new suffix slices are ever solved.
//!
//! A check may also carry a caller-owned [`SliceMemo`], consulted before
//! the shared cache. The multi-path explorer keeps one per race, so at a
//! fork a child state's feasibility check answers the slices it inherited
//! from its parent without solving; only the slice the new branch
//! constraint touches is solved.
//!
//! Transparency: every slice is solved by the same solver backend
//! under the same configuration (full node budget per slice), so sliced
//! solving never flips a decided answer and returns the same model —
//! the first solution in lexicographic order over per-variable value
//! enumeration, which for variable-disjoint slices is exactly the
//! combination of the per-slice first solutions. It can turn a
//! whole-query [`SatResult::Unknown`] into a decided answer (each
//! slice's search tree is a projection of the combined one), never the
//! reverse on queries the whole solver decides. The workspace property
//! test `sliced_solver_is_transparent` pins this.

use std::collections::HashMap;

use crate::cache::{config_prefix, push_domains, render_constraint, CacheAnswer};
use crate::domain::{VarId, VarTable};
use crate::expr::Expr;
use crate::model::Model;
use crate::solver::{SatResult, Solver, SolverStats};

/// A caller-owned memo of slice results, keyed by canonical slice key.
///
/// [`Solver::check_sliced_memo`] looks each slice up here before the
/// shared cache and records every result it resolves otherwise. Unlike
/// shared-cache hits, which depend on what other callers solved first,
/// a memo's hits depend only on the queries checked through it — which
/// is why the explorer keeps one per race and reports its hits as
/// `slices_reused_at_fork`.
///
/// ```
/// use portend_symex::{CmpOp, Expr, SatResult, SliceMemo, Solver, VarTable};
/// let mut vars = VarTable::new();
/// let x = Expr::var(vars.fresh("x", 0, 9));
/// let y = Expr::var(vars.fresh("y", 0, 9));
/// let path = x.cmp(CmpOp::Ge, Expr::konst(5));
/// let (solver, mut memo) = (Solver::new(), SliceMemo::new());
/// // Both sides of a branch on `y`: the `x` slice is solved once.
/// for side in [CmpOp::Lt, CmpOp::Ge] {
///     let query = [path.clone(), y.clone().cmp(side, Expr::konst(5))];
///     let r = solver.check_sliced_memo(&query, &vars, &mut memo);
///     assert!(matches!(r, SatResult::Sat(_)));
/// }
/// assert_eq!(memo.hits(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SliceMemo {
    results: HashMap<String, SatResult>,
    hits: u64,
}

impl SliceMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Slices answered from this memo so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    fn get(&mut self, key: &str) -> Option<SatResult> {
        let found = self.results.get(key).cloned();
        self.hits += found.is_some() as u64;
        found
    }
}

/// Partitions constraints, given as per-constraint variable lists, into
/// independent slices by variable connectivity. Each slice is a list of
/// constraint indices in original order; slices are ordered by their
/// first constraint. Constraints mentioning no variable form singleton
/// slices.
fn partition_by_vars(vars: &[Vec<VarId>]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(vars.len());
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, vs) in vars.iter().enumerate() {
        for v in vs {
            match owner.get(v) {
                Some(&j) => uf.union(i, j),
                None => {
                    owner.insert(*v, i);
                }
            }
        }
    }
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut root_to_group: HashMap<usize, usize> = HashMap::new();
    for i in 0..vars.len() {
        let r = uf.find(i);
        let g = *root_to_group.entry(r).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(i);
    }
    groups
}

/// Union-find over constraint indices (path halving + union by rank).
struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// One slice prepared for solving: its constraints (original order) and
/// its canonical key (when a memo or cache will be consulted).
struct SliceQuery {
    exprs: Vec<Expr>,
    key: Option<String>,
}

/// Solves prepared slices in order, combining their answers.
///
/// Resolution order per slice: `memo` → shared cache → solve (each
/// solve under the solver's full node budget, so memoized slice results
/// are budget-exact and reusable under the same key). An UNSAT slice
/// decides the query immediately; `Unknown` is sticky unless a later
/// slice is UNSAT.
fn solve_slices(
    solver: &Solver,
    vars: &VarTable,
    queries: &[SliceQuery],
    mut memo: Option<&mut SliceMemo>,
    stats: &mut SolverStats,
) -> SatResult {
    let mut merged = Model::new();
    let mut unknown = false;
    for (pos, q) in queries.iter().enumerate() {
        // Counted per *examined* slice: an UNSAT short-circuit below
        // leaves later slices unexamined, and they are not counted.
        stats.slices += 1;
        let memoized = match (memo.as_deref_mut(), q.key.as_deref()) {
            (Some(memo), Some(key)) => memo.get(key),
            _ => None,
        };
        let result = match memoized {
            Some(r) => r,
            None => {
                let r = cached_or_solved(solver, vars, pos, q, stats);
                if let (Some(memo), Some(key)) = (memo.as_deref_mut(), &q.key) {
                    memo.results.insert(key.clone(), r.clone());
                }
                r
            }
        };
        match result {
            SatResult::Unsat => return SatResult::Unsat,
            SatResult::Unknown => unknown = true,
            SatResult::Sat(m) => {
                for (v, val) in m.iter() {
                    merged.set(v, val);
                }
            }
        }
    }
    if unknown {
        SatResult::Unknown
    } else {
        SatResult::Sat(merged)
    }
}

/// One slice's answer from the shared cache, or solved (and inserted)
/// when the cache misses or has none.
fn cached_or_solved(
    solver: &Solver,
    vars: &VarTable,
    pos: usize,
    q: &SliceQuery,
    stats: &mut SolverStats,
) -> SatResult {
    let cache = solver.query_cache().zip(q.key.as_deref());
    // A warm-store entry sampled for validation: solve anyway, compare,
    // and correct the entry in place if the store was stale.
    let mut probation = None;
    if let Some((cache, key)) = cache {
        match cache.lookup_slice(key) {
            CacheAnswer::Hit(r) => {
                stats.slice_cache_hits += 1;
                return r;
            }
            CacheAnswer::Probation(expected) => probation = Some(expected),
            CacheAnswer::Miss => {}
        }
    }
    let mut ev = portend_obs::span(portend_obs::EventKind::SliceSolve);
    let (r, s) = solver.solve(&q.exprs, vars);
    ev.args(pos as u64, s.nodes);
    drop(ev);
    stats.nodes += s.nodes;
    stats.prune_passes += s.prune_passes;
    stats.budget_exhausted |= s.budget_exhausted;
    if let Some((cache, key)) = cache {
        match &probation {
            Some(expected) => cache.confirm_warm(key, expected, &r),
            None => cache.insert(key.to_string(), r.clone()),
        }
    }
    r
}

/// The sliced equivalent of [`Solver::solve`]; backs
/// [`Solver::check_sliced_with_stats`] and [`Solver::check_sliced_memo`].
///
/// In order: constant filtering, a fresh partition by variable
/// connectivity, one canonical key per slice (when `memo` or the shared
/// cache will look it up: the configuration prefix, each member's
/// rendering in original order, then the mentioned variables' sorted
/// domains — byte-identical to a whole-query key over the same list),
/// and [`solve_slices`].
pub(crate) fn check_sliced(
    solver: &Solver,
    constraints: &[Expr],
    vars: &VarTable,
    memo: Option<&mut SliceMemo>,
) -> (SatResult, SolverStats) {
    let mut ev = portend_obs::span(portend_obs::EventKind::SolverCheck);
    let mut stats = SolverStats::default();
    let result = 'check: {
        let mut active: Vec<&Expr> = Vec::with_capacity(constraints.len());
        for c in constraints {
            match c.as_const() {
                Some(0) => break 'check SatResult::Unsat,
                Some(_) => {}
                None => active.push(c),
            }
        }
        if active.is_empty() {
            break 'check SatResult::Sat(Model::new());
        }
        let var_lists: Vec<Vec<VarId>> = active
            .iter()
            .map(|c| {
                let mut v = Vec::new();
                c.collect_vars(&mut v);
                v
            })
            .collect();
        let prefix = (memo.is_some() || solver.query_cache().is_some())
            .then(|| config_prefix(solver.config()));
        let queries: Vec<SliceQuery> = partition_by_vars(&var_lists)
            .into_iter()
            .map(|group| {
                let key = prefix.as_deref().map(|p| {
                    let mut key = p.to_string();
                    let mut mentioned = Vec::new();
                    for &i in &group {
                        render_constraint(&mut key, active[i]);
                        mentioned.extend_from_slice(&var_lists[i]);
                    }
                    push_domains(&mut key, &mut mentioned, vars);
                    key
                });
                SliceQuery {
                    exprs: group.iter().map(|&i| active[i].clone()).collect(),
                    key,
                }
            })
            .collect();
        solve_slices(solver, vars, &queries, memo, &mut stats)
    };
    ev.args(stats.slices, stats.nodes);
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::SolverCache;
    use crate::op::CmpOp;
    use std::sync::Arc;

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

    fn partition(constraints: &[Expr]) -> Vec<Vec<usize>> {
        let vars: Vec<Vec<VarId>> = constraints
            .iter()
            .map(|c| {
                let mut v = Vec::new();
                c.collect_vars(&mut v);
                v
            })
            .collect();
        partition_by_vars(&vars)
    }

    #[test]
    fn partition_groups_by_transitive_connectivity() {
        // c0: x0,x1   c1: x2   c2: x1,x3   c3: const-ish (no vars)
        let cs = [
            x(0).add(x(1)).cmp(CmpOp::Gt, Expr::konst(0)),
            x(2).cmp(CmpOp::Lt, Expr::konst(5)),
            x(1).cmp(CmpOp::Eq, x(3)),
            Expr::bin(crate::op::BinOp::Div, Expr::konst(1), Expr::konst(0))
                .cmp(CmpOp::Eq, Expr::konst(1)),
        ];
        assert_eq!(partition(&cs), vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn partition_keeps_original_order_within_and_across_slices() {
        let cs = [
            x(4).cmp(CmpOp::Gt, Expr::konst(0)),
            x(0).cmp(CmpOp::Gt, Expr::konst(0)),
            x(4).cmp(CmpOp::Lt, Expr::konst(9)),
            x(0).cmp(CmpOp::Lt, Expr::konst(9)),
        ];
        assert_eq!(partition(&cs), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn sliced_check_equals_whole_check_on_disjoint_slices() {
        let vars = vt(&[(0, 10), (0, 10), (0, 10)]);
        let s = Solver::new();
        let cs = [
            x(0).cmp(CmpOp::Ge, Expr::konst(4)),
            x(1).add(x(2)).cmp(CmpOp::Eq, Expr::konst(7)),
            x(0).cmp(CmpOp::Lt, Expr::konst(6)),
        ];
        assert_eq!(s.check_sliced(&cs, &vars), s.check(&cs, &vars));
        // One unsatisfiable slice decides the whole query.
        let cs_unsat = [
            x(0).cmp(CmpOp::Ge, Expr::konst(4)),
            x(1).cmp(CmpOp::Gt, Expr::konst(20)),
        ];
        assert_eq!(s.check_sliced(&cs_unsat, &vars), SatResult::Unsat);
        assert_eq!(s.check(&cs_unsat, &vars), SatResult::Unsat);
    }

    #[test]
    fn sliced_check_memoizes_per_slice_in_shared_cache() {
        let vars = vt(&[(0, 10), (0, 10)]);
        let cache = Arc::new(SolverCache::new(2));
        let s = Solver::new().cached(Arc::clone(&cache));
        let prefix = x(0).cmp(CmpOp::Ge, Expr::konst(3));
        // Two queries sharing the x0 slice but with different x1 suffixes.
        let q1 = [prefix.clone(), x(1).cmp(CmpOp::Lt, Expr::konst(2))];
        let q2 = [prefix.clone(), x(1).cmp(CmpOp::Gt, Expr::konst(7))];
        let (_, s1) = s.check_sliced_with_stats(&q1, &vars);
        let (_, s2) = s.check_sliced_with_stats(&q2, &vars);
        assert_eq!((s1.slices, s1.slice_cache_hits), (2, 0));
        assert_eq!(
            (s2.slices, s2.slice_cache_hits),
            (2, 1),
            "prefix slice hits"
        );
        let snap = cache.snapshot();
        assert_eq!((snap.slice_hits, snap.slice_misses), (1, 3));
    }

    #[test]
    fn memo_reuses_parent_slices_at_forks() {
        let vars = vt(&[(0, 20), (0, 20)]);
        let cache = Arc::new(SolverCache::new(2));
        for s in [Solver::new(), Solver::new().cached(Arc::clone(&cache))] {
            let mut memo = SliceMemo::new();
            let path = [
                x(0).cmp(CmpOp::Ge, Expr::konst(5)),
                x(0).cmp(CmpOp::Lt, Expr::konst(15)),
            ];
            let r = s.check_sliced_memo(&path, &vars, &mut memo);
            assert!(matches!(r, SatResult::Sat(_)));
            // A fork probing both sides of a branch on an unrelated
            // variable: the x0 slice must come from the memo both times.
            for op in [CmpOp::Gt, CmpOp::Le] {
                let probe = x(1).cmp(op, Expr::konst(10));
                let query = [path[0].clone(), path[1].clone(), probe];
                let r = s.check_sliced_memo(&query, &vars, &mut memo);
                assert!(matches!(r, SatResult::Sat(_)));
            }
            assert_eq!(memo.hits(), 2, "x0 slice reused in both probes");
        }
        // Only the slices the memo had not seen reach the cache: the
        // path's x0 slice and the two new x1 slices.
        let snap = cache.snapshot();
        assert_eq!((snap.slice_hits, snap.slice_misses), (0, 3));
    }

    /// Regression for the slice-counter bugfix: `solve_slices` used to
    /// add the whole partition size to `SolverStats::slices` up front
    /// and then short-circuit on the first UNSAT slice, counting slices
    /// it never examined. With an UNSAT-first multi-slice query, only
    /// the examined slice may be counted.
    #[test]
    fn unsat_short_circuit_counts_only_examined_slices() {
        let vars = vt(&[(0, 5), (0, 5), (0, 5)]);
        let (r, stats) = Solver::new().check_sliced_with_stats(
            &[
                x(0).cmp(CmpOp::Gt, Expr::konst(9)),
                x(1).cmp(CmpOp::Ge, Expr::konst(1)),
                x(2).cmp(CmpOp::Ge, Expr::konst(1)),
            ],
            &vars,
        );
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(stats.slices, 1, "{stats:?}");
        // A fully-examined query still reports the partition size.
        let (r, stats) = Solver::new().check_sliced_with_stats(
            &[
                x(0).cmp(CmpOp::Le, Expr::konst(5)),
                x(1).cmp(CmpOp::Ge, Expr::konst(1)),
                x(2).cmp(CmpOp::Ge, Expr::konst(1)),
            ],
            &vars,
        );
        assert!(matches!(r, SatResult::Sat(_)));
        assert_eq!(stats.slices, 3, "{stats:?}");
    }

    #[test]
    fn constant_false_constraint_short_circuits() {
        let vars = vt(&[(0, 9)]);
        let cs = [x(0).cmp(CmpOp::Ge, Expr::konst(0)), Expr::konst(0)];
        let (r, stats) = Solver::new().check_sliced_with_stats(&cs, &vars);
        assert_eq!(r, SatResult::Unsat);
        assert_eq!(stats.slices, 0, "decided before partitioning: {stats:?}");
    }
}
