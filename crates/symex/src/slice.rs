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
//! [`ScopedSolver`] builds incrementality on top, along two axes:
//!
//! * **Incremental partitioning.** The slice partition of the current
//!   frame stack is maintained *under* `push`/`pop`: each assumed
//!   constraint merges into the union-find as it arrives (unions are
//!   recorded in an undo log; popping a frame reverts exactly its
//!   merges), so a check never re-partitions from scratch. The
//!   maintained partition always equals a fresh [`partition_slices`] of
//!   the stack (workspace property test
//!   `incremental_partition_matches_fresh`).
//! * **Per-slice result memoization.** The scoped solver memoizes each
//!   slice's [`SatResult`] under its canonical key, so the slices a
//!   child state inherits from its parent at a fork are answered
//!   without solving; only the slice the new branch constraint touches
//!   is solved.
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

/// Partitions `constraints` into independent slices by variable
/// connectivity. Each slice is a list of indices into `constraints`, in
/// original order; slices are ordered by their first constraint.
/// Constraints mentioning no variable form singleton slices.
pub fn partition_slices(constraints: &[Expr]) -> Vec<Vec<usize>> {
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

/// [`partition_slices`] over pre-collected per-constraint variable lists.
pub(crate) fn partition_by_vars<V: AsRef<[VarId]>>(vars: &[V]) -> Vec<Vec<usize>> {
    let mut uf = UnionFind::new(vars.len());
    let mut owner: HashMap<VarId, usize> = HashMap::new();
    for (i, vs) in vars.iter().enumerate() {
        for v in vs.as_ref() {
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
/// The from-scratch variant used by [`partition_slices`]; the
/// incremental variant with an undo log lives in
/// [`IncrementalPartition`].
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

/// A union-find over frame indices maintained *incrementally*: frames
/// register as they are assumed, and an undo log makes popping a frame
/// O(its own unions) instead of a re-partition. No path compression —
/// `find` must not mutate state the undo log does not cover; union by
/// rank alone keeps chains logarithmic.
#[derive(Debug, Clone, Default)]
struct IncrementalPartition {
    parent: Vec<usize>,
    rank: Vec<u8>,
    /// First frame that mentioned each variable (the frame later vars
    /// union into) — mirrors `partition_by_vars`' owner map.
    owner: HashMap<VarId, usize>,
    /// Per-frame reversal record, parallel to the frame stack.
    undo: Vec<FrameUndo>,
}

#[derive(Debug, Clone, Default)]
struct FrameUndo {
    /// Variables this frame claimed first (to un-own on pop).
    owned: Vec<VarId>,
    /// Unions this frame performed, in order.
    unions: Vec<MergeRecord>,
}

#[derive(Debug, Clone, Copy)]
struct MergeRecord {
    /// The root that was attached under `winner`.
    absorbed: usize,
    /// The root that absorbed it.
    winner: usize,
    /// Whether the winner's rank was incremented by this union.
    rank_bumped: bool,
}

impl IncrementalPartition {
    /// Registers the next frame with the variables it mentions (empty
    /// for constant frames), merging it into every component that
    /// already owns one of them.
    fn push(&mut self, vars: &[VarId]) {
        let i = self.parent.len();
        self.parent.push(i);
        self.rank.push(0);
        let mut undo = FrameUndo::default();
        for &v in vars {
            match self.owner.get(&v) {
                Some(&j) => {
                    if let Some(rec) = self.union(i, j) {
                        undo.unions.push(rec);
                    }
                }
                None => {
                    self.owner.insert(v, i);
                    undo.owned.push(v);
                }
            }
        }
        self.undo.push(undo);
    }

    /// Reverts frames down to length `to`, undoing their unions and
    /// ownership claims in reverse order.
    fn truncate(&mut self, to: usize) {
        while self.parent.len() > to {
            let undo = self.undo.pop().expect("one undo record per frame");
            for rec in undo.unions.iter().rev() {
                self.parent[rec.absorbed] = rec.absorbed;
                if rec.rank_bumped {
                    self.rank[rec.winner] -= 1;
                }
            }
            for v in &undo.owned {
                self.owner.remove(v);
            }
            self.parent.pop();
            self.rank.pop();
        }
    }

    /// Root of `x`'s component (no mutation: undo-safe).
    fn find(&self, mut x: usize) -> usize {
        while self.parent[x] != x {
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> Option<MergeRecord> {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return None;
        }
        let (winner, absorbed, rank_bumped) = match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => (rb, ra, false),
            std::cmp::Ordering::Greater => (ra, rb, false),
            std::cmp::Ordering::Equal => {
                self.rank[ra] += 1;
                (ra, rb, true)
            }
        };
        self.parent[absorbed] = winner;
        Some(MergeRecord {
            absorbed,
            winner,
            rank_bumped,
        })
    }

    /// The current partition over frames `0..len()` that pass `keep`,
    /// grouped exactly like [`partition_by_vars`]: groups ordered by
    /// first member, members ascending.
    fn groups(&self, keep: impl Fn(usize) -> bool) -> Vec<Vec<usize>> {
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut root_to_group: HashMap<usize, usize> = HashMap::new();
        for i in 0..self.parent.len() {
            if !keep(i) {
                continue;
            }
            let r = self.find(i);
            let g = *root_to_group.entry(r).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(i);
        }
        groups
    }
}

/// One slice prepared for solving: its constraints (original order) and
/// its canonical key (when a cache or memo will be consulted).
pub(crate) struct SliceQuery {
    pub exprs: Vec<Expr>,
    pub key: Option<String>,
}

/// Result of [`solve_slices`]: the combined answer plus how many of the
/// examined slices were served by the local memo and actually solved
/// (an UNSAT short-circuit leaves later slices unexamined, so these can
/// sum to less than the partition size; the shared-cache hits are
/// counted in the [`SolverStats`]).
pub(crate) struct SliceOutcome {
    pub result: SatResult,
    pub memo_hits: u64,
    pub solved: u64,
}

/// Solves prepared slices in order, combining their answers.
///
/// Resolution order per slice: local `memo` → shared cache → solve
/// (each solve under the solver's full node budget, so memoized slice
/// results are budget-exact and reusable under the same key). An UNSAT
/// slice decides the query immediately; `Unknown` is sticky unless a
/// later slice is UNSAT.
pub(crate) fn solve_slices(
    solver: &Solver,
    vars: &VarTable,
    queries: &[SliceQuery],
    mut memo: Option<&mut HashMap<String, SatResult>>,
    stats: &mut SolverStats,
) -> SliceOutcome {
    let mut merged = Model::new();
    let mut unknown = false;
    let mut memo_hits = 0u64;
    let mut solved = 0u64;
    for (pos, q) in queries.iter().enumerate() {
        // Counted per *examined* slice: an UNSAT short-circuit below
        // leaves later slices unexamined, and they are not counted.
        stats.slices += 1;
        let mut from_memo = false;
        let mut from_cache = false;
        let result = 'resolve: {
            if let (Some(memo), Some(key)) = (memo.as_deref(), q.key.as_deref()) {
                if let Some(r) = memo.get(key) {
                    from_memo = true;
                    break 'resolve r.clone();
                }
            }
            // A warm-store entry sampled for validation: solve anyway,
            // compare, and correct the entry in place if the store was
            // stale.
            let mut probation = None;
            if let (Some(cache), Some(key)) = (solver.query_cache(), q.key.as_deref()) {
                match cache.lookup_slice(key) {
                    CacheAnswer::Hit(r) => {
                        from_cache = true;
                        break 'resolve r;
                    }
                    CacheAnswer::Probation(expected) => probation = Some(expected),
                    CacheAnswer::Miss => {}
                }
            }
            let mut ev = portend_obs::span(portend_obs::EventKind::SliceSolve);
            let (r, s) = solver.solve(&q.exprs, vars);
            ev.args(pos as u64, s.nodes);
            drop(ev);
            solved += 1;
            stats.nodes += s.nodes;
            stats.prune_passes += s.prune_passes;
            stats.budget_exhausted |= s.budget_exhausted;
            if let (Some(cache), Some(key)) = (solver.query_cache(), q.key.as_deref()) {
                match &probation {
                    Some(expected) => cache.confirm_warm(key, expected, &r),
                    None => cache.insert(key.to_string(), r.clone()),
                }
            }
            r
        };
        if let (Some(memo), Some(key)) = (memo.as_deref_mut(), &q.key) {
            if !from_memo {
                memo.insert(key.clone(), result.clone());
            }
        }
        memo_hits += from_memo as u64;
        stats.slice_cache_hits += from_cache as u64;
        match result {
            SatResult::Unsat => {
                return SliceOutcome {
                    result: SatResult::Unsat,
                    memo_hits,
                    solved,
                }
            }
            SatResult::Unknown => unknown = true,
            SatResult::Sat(m) => {
                for (v, val) in m.iter() {
                    merged.set(v, val);
                }
            }
        }
    }
    SliceOutcome {
        result: if unknown {
            SatResult::Unknown
        } else {
            SatResult::Sat(merged)
        },
        memo_hits,
        solved,
    }
}

/// One constraint as the slice-preparation pipeline sees it. Callers
/// with cached metadata (the [`ScopedSolver`] frames) pass it through;
/// others let the pipeline compute it.
struct ConstraintView<'a> {
    expr: &'a Expr,
    vars: &'a [VarId],
    /// Cached canonical rendering; `None` renders on demand.
    rendered: Option<&'a str>,
    konst: Option<i64>,
}

/// Outcome of [`prepare_slices`]: the query was decided by constant
/// filtering alone, or slice queries remain to be solved.
enum Prepared {
    Decided(SatResult),
    Queries(Vec<SliceQuery>),
}

/// Assembles one slice's query — constraint clones plus the canonical
/// key (when `prefix` is given): prefix, then every member's rendering
/// in original order, then the mentioned variables' sorted domains.
/// This is the *single* key-construction path: both [`prepare_slices`]
/// (stateless sliced checks) and [`ScopedSolver::check_with_stats`]
/// (incrementally-maintained groups) go through it, which keeps their
/// keys byte-identical — the property the shared cache's cross-solver
/// slice reuse and the transparency guarantee rest on.
fn build_query(
    members: &[&ConstraintView<'_>],
    prefix: Option<&str>,
    vars: &VarTable,
) -> SliceQuery {
    let key = prefix.map(|p| {
        let mut key = p.to_string();
        let mut mentioned = Vec::new();
        for v in members {
            match v.rendered {
                Some(r) => key.push_str(r),
                None => render_constraint(&mut key, v.expr),
            }
            mentioned.extend_from_slice(v.vars);
        }
        push_domains(&mut key, &mut mentioned, vars);
        key
    });
    SliceQuery {
        exprs: members.iter().map(|v| v.expr.clone()).collect(),
        key,
    }
}

/// The shared front half of a stateless sliced check: constant
/// filtering, partitioning by variable connectivity, and query assembly
/// via [`build_query`]. The scoped solver performs the same filtering
/// over its frames and feeds its incremental groups to the same
/// [`build_query`].
fn prepare_slices(views: &[ConstraintView<'_>], prefix: Option<&str>, vars: &VarTable) -> Prepared {
    let mut active: Vec<&ConstraintView<'_>> = Vec::with_capacity(views.len());
    for v in views {
        match v.konst {
            Some(0) => return Prepared::Decided(SatResult::Unsat),
            Some(_) => {}
            None => active.push(v),
        }
    }
    if active.is_empty() {
        return Prepared::Decided(SatResult::Sat(Model::new()));
    }
    let var_lists: Vec<&[VarId]> = active.iter().map(|v| v.vars).collect();
    let queries = partition_by_vars(&var_lists)
        .into_iter()
        .map(|group| {
            let members: Vec<&ConstraintView<'_>> = group.iter().map(|&i| active[i]).collect();
            build_query(&members, prefix, vars)
        })
        .collect();
    Prepared::Queries(queries)
}

/// The sliced equivalent of [`Solver::solve`], memoizing per slice in
/// the solver's shared cache when one is attached; backs
/// [`Solver::check_sliced_with_stats`].
pub(crate) fn check_sliced(
    solver: &Solver,
    constraints: &[Expr],
    vars: &VarTable,
) -> (SatResult, SolverStats) {
    let mut ev = portend_obs::span(portend_obs::EventKind::SolverCheck);
    let mut stats = SolverStats::default();
    let var_lists: Vec<Vec<VarId>> = constraints
        .iter()
        .map(|c| {
            let mut v = Vec::new();
            c.collect_vars(&mut v);
            v
        })
        .collect();
    let views: Vec<ConstraintView<'_>> = constraints
        .iter()
        .zip(&var_lists)
        .map(|(c, vl)| ConstraintView {
            expr: c,
            vars: vl,
            rendered: None,
            konst: c.as_const(),
        })
        .collect();
    let prefix = solver.query_cache().map(|_| config_prefix(solver.config()));
    let (result, stats) = match prepare_slices(&views, prefix.as_deref(), vars) {
        Prepared::Decided(r) => (r, stats),
        Prepared::Queries(queries) => {
            let outcome = solve_slices(solver, vars, &queries, None, &mut stats);
            (outcome.result, stats)
        }
    };
    ev.args(stats.slices, stats.nodes);
    (result, stats)
}

/// Work counters for one [`ScopedSolver`] (cumulative across checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScopedStats {
    /// Satisfiability checks issued.
    pub checks: u64,
    /// Slices examined across all checks.
    pub slices: u64,
    /// Slices answered from this solver's local memo (typically the
    /// parent state's already-solved slices at a fork).
    pub memo_hits: u64,
    /// Slices answered from the shared [`crate::SolverCache`].
    pub cache_hits: u64,
    /// Slices actually solved.
    pub solved: u64,
}

/// An incremental, scope-structured front end to [`Solver`].
///
/// The current path condition lives as a stack of *frames* (one
/// constraint each, pre-rendered for key construction) grouped into
/// scopes by [`ScopedSolver::push_scope`] / [`ScopedSolver::pop_scope`].
/// The union-find slice partition of the stack is maintained
/// *incrementally* under push/pop (merge-on-push, undo log on pop — see
/// [`ScopedSolver::current_partition`]), so [`ScopedSolver::check`]
/// never re-partitions. Each check resolves every slice through a local
/// result memo, then the shared cache, then the solver — so after a
/// fork, a child state's feasibility check only solves the slice
/// actually touched by the new branch constraint; everything inherited
/// from the parent is a memo hit, its key bytes re-concatenated from
/// the frames' cached renderings rather than re-rendered.
///
/// ```
/// use portend_symex::{CmpOp, Expr, SatResult, ScopedSolver, Solver, VarTable};
/// let mut vars = VarTable::new();
/// let x = Expr::var(vars.fresh("x", 0, 9));
/// let mut s = ScopedSolver::new(Solver::new());
/// s.assume(x.clone().cmp(CmpOp::Ge, Expr::konst(5)));
/// s.push_scope();
/// s.assume(x.clone().cmp(CmpOp::Lt, Expr::konst(5)));
/// assert_eq!(s.check(&vars), SatResult::Unsat);
/// s.pop_scope(); // back to the satisfiable prefix
/// assert!(matches!(s.check(&vars), SatResult::Sat(_)));
/// ```
#[derive(Debug, Clone)]
pub struct ScopedSolver {
    solver: Solver,
    prefix: String,
    frames: Vec<Frame>,
    marks: Vec<usize>,
    part: IncrementalPartition,
    memo: HashMap<String, SatResult>,
    stats: ScopedStats,
}

#[derive(Debug, Clone)]
struct Frame {
    constraint: Expr,
    rendered: String,
    vars: Vec<VarId>,
    konst: Option<i64>,
}

impl Frame {
    fn new(constraint: Expr) -> Self {
        let mut rendered = String::new();
        render_constraint(&mut rendered, &constraint);
        let mut vars = Vec::new();
        constraint.collect_vars(&mut vars);
        let konst = constraint.as_const();
        Frame {
            constraint,
            rendered,
            vars,
            konst,
        }
    }
}

impl ScopedSolver {
    /// A scoped solver that slices and memoizes per slice.
    pub fn new(solver: Solver) -> Self {
        let prefix = config_prefix(solver.config());
        ScopedSolver {
            solver,
            prefix,
            frames: Vec::new(),
            marks: Vec::new(),
            part: IncrementalPartition::default(),
            memo: HashMap::new(),
            stats: ScopedStats::default(),
        }
    }

    /// The underlying solver.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// Opens a scope; constraints assumed after this call are discarded
    /// by the matching [`ScopedSolver::pop_scope`].
    pub fn push_scope(&mut self) {
        self.marks.push(self.frames.len());
    }

    /// Discards every constraint assumed since the matching
    /// [`ScopedSolver::push_scope`], reverting the incremental partition
    /// via its undo log. Memoized slice results are kept — they stay
    /// valid for any future stack that re-forms the same slice.
    ///
    /// # Panics
    ///
    /// Panics when no scope is open.
    pub fn pop_scope(&mut self) {
        let mark = self.marks.pop().expect("pop_scope without push_scope");
        self.frames.truncate(mark);
        self.part.truncate(mark);
    }

    /// Adds a constraint to the current scope, merging it into the
    /// incremental slice partition.
    pub fn assume(&mut self, constraint: Expr) {
        let frame = Frame::new(constraint);
        self.part.push(if frame.konst.is_some() {
            // Constant frames never join a slice (mirrors the active
            // filtering of `prepare_slices`); constant folding
            // guarantees they mention no variable anyway.
            &[]
        } else {
            &frame.vars
        });
        self.frames.push(frame);
    }

    /// Number of constraints currently on the stack.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the stack holds no constraints.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The incrementally-maintained slice partition of the current
    /// stack: groups of frame indices, ordered by first member.
    /// Always equal to [`partition_slices`] over the assumed
    /// constraints (pinned by the workspace property suite) — exposed
    /// for introspection and those tests.
    pub fn current_partition(&self) -> Vec<Vec<usize>> {
        self.part.groups(|_| true)
    }

    /// Reconciles the stack to exactly `path`: shared prefix frames are
    /// kept (their renderings, partition merges, and solved slices are
    /// reused), the rest are replaced. Open scopes are reset — this is
    /// the "switch to a sibling state" operation of a worklist explorer,
    /// where scope nesting no longer corresponds to the new state's
    /// history.
    pub fn sync_path(&mut self, path: &[Expr]) {
        self.marks.clear();
        let keep = self
            .frames
            .iter()
            .zip(path)
            .take_while(|(f, c)| &f.constraint == *c)
            .count();
        self.frames.truncate(keep);
        self.part.truncate(keep);
        for c in &path[keep..] {
            self.assume(c.clone());
        }
    }

    /// Satisfiability of the current constraint stack.
    pub fn check(&mut self, vars: &VarTable) -> SatResult {
        self.check_with_stats(vars).0
    }

    /// Satisfiability of the stack plus one extra constraint (the
    /// classic branch-feasibility probe), without disturbing the stack:
    /// the probe frame's partition merges are reverted through the undo
    /// log.
    pub fn check_assuming(&mut self, extra: Expr, vars: &VarTable) -> SatResult {
        self.assume(extra);
        let r = self.check(vars);
        let mark = self.frames.len() - 1;
        self.frames.truncate(mark);
        self.part.truncate(mark);
        r
    }

    /// Like [`ScopedSolver::check`], reporting per-query work counters.
    pub fn check_with_stats(&mut self, vars: &VarTable) -> (SatResult, SolverStats) {
        self.stats.checks += 1;
        let mut ev = portend_obs::span(portend_obs::EventKind::SolverCheck);
        let mut stats = SolverStats::default();
        // Constant filtering, identical to `prepare_slices`.
        let mut any_active = false;
        for f in &self.frames {
            match f.konst {
                Some(0) => return (SatResult::Unsat, stats),
                Some(_) => {}
                None => any_active = true,
            }
        }
        if !any_active {
            return (SatResult::Sat(Model::new()), stats);
        }
        // Slice queries straight off the incremental partition, through
        // the same `build_query` as the stateless path (cached per-frame
        // renderings pass through, nothing is re-rendered).
        let views: Vec<ConstraintView<'_>> = self
            .frames
            .iter()
            .map(|f| ConstraintView {
                expr: &f.constraint,
                vars: &f.vars,
                rendered: Some(&f.rendered),
                konst: f.konst,
            })
            .collect();
        let queries: Vec<SliceQuery> = self
            .part
            .groups(|i| self.frames[i].konst.is_none())
            .iter()
            .map(|group| {
                let members: Vec<&ConstraintView<'_>> = group.iter().map(|&i| &views[i]).collect();
                build_query(&members, Some(&self.prefix), vars)
            })
            .collect();
        let outcome = solve_slices(
            &self.solver,
            vars,
            &queries,
            Some(&mut self.memo),
            &mut stats,
        );
        self.stats.slices += stats.slices;
        self.stats.memo_hits += outcome.memo_hits;
        self.stats.cache_hits += stats.slice_cache_hits;
        self.stats.solved += outcome.solved;
        ev.args(stats.slices, stats.nodes);
        (outcome.result, stats)
    }

    /// Cumulative work counters for this solver.
    pub fn stats(&self) -> ScopedStats {
        self.stats
    }
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
    fn partition_groups_by_transitive_connectivity() {
        // c0: x0,x1   c1: x2   c2: x1,x3   c3: const-ish (no vars)
        let cs = [
            x(0).add(x(1)).cmp(CmpOp::Gt, Expr::konst(0)),
            x(2).cmp(CmpOp::Lt, Expr::konst(5)),
            x(1).cmp(CmpOp::Eq, x(3)),
            Expr::bin(crate::op::BinOp::Div, Expr::konst(1), Expr::konst(0))
                .cmp(CmpOp::Eq, Expr::konst(1)),
        ];
        let slices = partition_slices(&cs);
        assert_eq!(slices, vec![vec![0, 2], vec![1], vec![3]]);
    }

    #[test]
    fn partition_keeps_original_order_within_and_across_slices() {
        let cs = [
            x(4).cmp(CmpOp::Gt, Expr::konst(0)),
            x(0).cmp(CmpOp::Gt, Expr::konst(0)),
            x(4).cmp(CmpOp::Lt, Expr::konst(9)),
            x(0).cmp(CmpOp::Lt, Expr::konst(9)),
        ];
        let slices = partition_slices(&cs);
        assert_eq!(slices, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn incremental_partition_tracks_push_and_undo() {
        let mut scoped = ScopedSolver::new(Solver::new());
        scoped.assume(x(0).cmp(CmpOp::Gt, Expr::konst(0))); // {0}
        scoped.assume(x(1).cmp(CmpOp::Gt, Expr::konst(0))); // {1}
        assert_eq!(scoped.current_partition(), vec![vec![0], vec![1]]);
        scoped.push_scope();
        scoped.assume(x(0).cmp(CmpOp::Eq, x(1))); // merges both
        assert_eq!(scoped.current_partition(), vec![vec![0, 1, 2]]);
        scoped.pop_scope(); // undo restores the split
        assert_eq!(scoped.current_partition(), vec![vec![0], vec![1]]);
        // And the undone state keeps evolving correctly.
        scoped.assume(x(1).cmp(CmpOp::Lt, Expr::konst(9)));
        assert_eq!(scoped.current_partition(), vec![vec![0], vec![1, 2]]);
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
        let cache = std::sync::Arc::new(crate::cache::SolverCache::new(2));
        let s = Solver::new().cached(std::sync::Arc::clone(&cache));
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
    fn scoped_solver_reuses_parent_slices_at_forks() {
        let vars = vt(&[(0, 20), (0, 20)]);
        let mut scoped = ScopedSolver::new(Solver::new());
        scoped.assume(x(0).cmp(CmpOp::Ge, Expr::konst(5)));
        scoped.assume(x(0).cmp(CmpOp::Lt, Expr::konst(15)));
        assert!(matches!(scoped.check(&vars), SatResult::Sat(_)));
        let base_solved = scoped.stats().solved;
        // A fork probing both sides of a branch on an unrelated variable:
        // the x0 slice must come from the memo both times.
        let then_r = scoped.check_assuming(x(1).cmp(CmpOp::Gt, Expr::konst(10)), &vars);
        let else_r = scoped.check_assuming(x(1).cmp(CmpOp::Le, Expr::konst(10)), &vars);
        assert!(matches!(then_r, SatResult::Sat(_)));
        assert!(matches!(else_r, SatResult::Sat(_)));
        let st = scoped.stats();
        assert_eq!(st.memo_hits, 2, "x0 slice reused in both probes: {st:?}");
        assert_eq!(st.solved - base_solved, 2, "only the new x1 slices solved");
    }

    /// Regression for the slice-counter bugfix: `solve_slices` used to
    /// add the whole partition size to `SolverStats::slices` up front
    /// and then short-circuit on the first UNSAT slice, counting slices
    /// it never examined. With an UNSAT-first multi-slice query, only
    /// the examined slice may be counted.
    #[test]
    fn unsat_short_circuit_counts_only_examined_slices() {
        let vars = vt(&[(0, 5), (0, 5), (0, 5)]);
        let mut scoped = ScopedSolver::new(Solver::new());
        scoped.assume(x(0).cmp(CmpOp::Gt, Expr::konst(9))); // UNSAT, first slice
        scoped.assume(x(1).cmp(CmpOp::Ge, Expr::konst(1)));
        scoped.assume(x(2).cmp(CmpOp::Ge, Expr::konst(1)));
        assert_eq!(scoped.check(&vars), SatResult::Unsat);
        let st = scoped.stats();
        assert_eq!(
            st.slices, 1,
            "slices skipped by the UNSAT short-circuit were never examined: {st:?}"
        );
        assert_eq!(st.solved, 1, "one slice solved, then the short-circuit");
        assert_eq!((st.memo_hits, st.cache_hits), (0, 0));

        // The stateless path counts the same way (`ScopedStats`
        // aggregation mirrors the fixed `SolverStats` counter).
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
    fn scoped_scopes_and_sync_path_agree_with_plain_checks() {
        let vars = vt(&[(0, 9), (0, 9)]);
        let plain = Solver::new();
        let mut scoped = ScopedSolver::new(Solver::new());
        let a = x(0).cmp(CmpOp::Ge, Expr::konst(7));
        let b = x(1).cmp(CmpOp::Lt, Expr::konst(3));
        let c = x(0).cmp(CmpOp::Lt, Expr::konst(7));
        scoped.assume(a.clone());
        scoped.push_scope();
        scoped.assume(c.clone());
        assert_eq!(scoped.check(&vars), plain.check(&[a.clone(), c], &vars));
        scoped.pop_scope();
        assert_eq!(scoped.len(), 1);
        let path = [a.clone(), b.clone()];
        scoped.sync_path(&path);
        assert_eq!(scoped.len(), 2);
        assert_eq!(scoped.check(&vars), plain.check(&path, &vars));
        // Syncing to a shorter, diverging path rebuilds only the tail.
        let short = [b.clone()];
        scoped.sync_path(&short);
        assert_eq!(scoped.len(), 1);
        assert_eq!(scoped.check(&vars), plain.check(&short, &vars));
    }

    #[test]
    fn constant_false_frame_short_circuits() {
        let vars = vt(&[(0, 9)]);
        let mut scoped = ScopedSolver::new(Solver::new());
        scoped.assume(x(0).cmp(CmpOp::Ge, Expr::konst(0)));
        scoped.assume(Expr::konst(0));
        assert_eq!(scoped.check(&vars), SatResult::Unsat);
    }
}
