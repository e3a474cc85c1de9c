//! Algorithm 2: multi-path exploration of primaries (paper §3.3, Fig. 5).
//!
//! The program runs with symbolic inputs while following the recorded
//! schedule trace. States whose schedule diverges before the race are
//! pruned; branches on symbolic conditions fork (both feasible sides);
//! after the second racing access the state is released from the trace.
//! Completed states that experienced the race become *primary paths*: the
//! solver produces concrete inputs driving the program down each one.
//!
//! Feasibility checks are sliced checks through one [`SliceMemo`] per
//! race: sibling states in the fork tree share their path-condition
//! prefix, so at each fork the child's check answers the parent's
//! already-solved constraint slices from the memo and solves only the
//! slice the new branch constraint touches (see `portend_symex::slice`).

use std::ops::ControlFlow::{self, Break, Continue};

use portend_race::RaceReport;
use portend_symex::{Expr, Model, SatResult, SliceMemo, Solver, VarTable};
use portend_vm::{Machine, Scheduler, VmError, Watch};

use crate::case::AnalysisCase;
use crate::config::{PortendConfig, MAX_EXPLORATION_STATES, STEP_BUDGET};
use crate::locate::Located;
use crate::supervise::{SupStop, Supervisor};
use crate::taxonomy::{ClassifyStats, Verdict};

/// One explored primary path (paper Fig. 5's leaf states `S1`, `S2`, …).
#[derive(Debug, Clone)]
pub(crate) struct PrimaryPath {
    /// The completed machine (carries symbolic outputs and path
    /// condition).
    pub machine: Machine,
    /// Concrete inputs driving this path (solved from the path
    /// condition).
    pub concrete_inputs: Vec<i64>,
    /// Occurrence index of the first racing access at the moment the race
    /// executed in this path (aligns alternates; see `Located`).
    pub first_occ_at_race: u32,
}

struct ExpState {
    m: Machine,
    sched: Scheduler,
    budget: u64,
    first_count: u32,
    past_race: bool,
    occ_at_race: u32,
    /// `m.steps` when this state started executing (0 for the root,
    /// the fork point for children); the state's contribution to
    /// `ClassifyStats::instructions` is its delta from here.
    base_steps: u64,
    /// `m.preemptions` at the same point.
    base_preemptions: u64,
    /// Instructions of this state's segment that were fast-forwarded
    /// rather than interpreted.
    fast_forwarded: u64,
    /// `m.cow_bytes()` at the same point; the delta is the lazy
    /// copy-on-write work this state's segment performed.
    base_cow_bytes: u64,
}

/// Explores up to `cfg.mp` primary paths that follow the recorded
/// schedule through the race, adding the work of every explored state to
/// `stats`. Breaks with a spec violation found on a path that experienced
/// the race; continues with the primaries otherwise.
pub(crate) fn explore_primaries(
    case: &AnalysisCase,
    race: &RaceReport,
    located: &Located,
    cfg: &PortendConfig,
    solver: &Solver,
    stats: &mut ClassifyStats,
) -> ControlFlow<Verdict, Vec<PrimaryPath>> {
    let root = ExpState {
        m: case
            .trace
            .machine_symbolic(&case.program, &case.input_spec, case.vm),
        sched: case.trace.scheduler(),
        budget: STEP_BUDGET,
        first_count: 0,
        past_race: false,
        occ_at_race: 0,
        base_steps: 0,
        base_preemptions: 0,
        fast_forwarded: 0,
        base_cow_bytes: 0,
    };
    let mut ex = Exploration {
        stats,
        forks: 0,
        primaries: Vec::new(),
        worklist: vec![root],
        solver,
        memo: SliceMemo::new(),
    };

    while let Some(mut st) = ex.worklist.pop() {
        if ex.primaries.len() >= cfg.mp {
            break;
        }
        let outcome = ex.run_state(&mut st, case, race, located);
        ex.settle(&st);
        if let Some(concrete_inputs) = outcome? {
            ex.primaries.push(PrimaryPath {
                first_occ_at_race: st.occ_at_race,
                machine: st.m,
                concrete_inputs,
            });
        }
    }
    Continue(ex.primaries)
}

/// The exploration's mutable context: the race's work counters, the
/// state worklist, the collected primaries, and the solver and slice memo
/// every feasibility check goes through.
struct Exploration<'a> {
    stats: &'a mut ClassifyStats,
    /// States forked at symbolic branches, capped at
    /// `MAX_EXPLORATION_STATES`.
    forks: u64,
    primaries: Vec<PrimaryPath>,
    worklist: Vec<ExpState>,
    solver: &'a Solver,
    memo: SliceMemo,
}

impl Exploration<'_> {
    /// Satisfiability of `path` plus one probed constraint (the
    /// branch-feasibility query), through the race's slice memo.
    fn check_with(&mut self, path: &[Expr], probe: Expr, vars: &VarTable) -> SatResult {
        let mut query = Vec::with_capacity(path.len() + 1);
        query.extend_from_slice(path);
        query.push(probe);
        self.solver.check_sliced_memo(&query, vars, &mut self.memo)
    }

    /// Folds a finished (or abandoned) state's execution segment into the
    /// totals, and brings the slice-memo hit count up to date. Called
    /// exactly once per state, after the state ran its last check.
    fn settle(&mut self, st: &ExpState) {
        let segment = st.m.steps.saturating_sub(st.base_steps);
        self.stats.instructions += segment;
        self.stats.interpreted += segment - st.fast_forwarded;
        self.stats.preemptions += st.m.preemptions.saturating_sub(st.base_preemptions);
        self.stats.max_path_instructions = self.stats.max_path_instructions.max(st.m.steps);
        // Lazy CoW copies this segment performed (the deferred share of
        // the fork cost, paid by whichever state first wrote).
        self.stats.bytes_copied_on_fork += st.m.cow_bytes().saturating_sub(st.base_cow_bytes);
        self.stats.slices_reused_at_fork = self.memo.hits();
    }

    /// Drives one state until it completes, faults, forks itself dry, or
    /// is pruned. Breaks with a spec violation on the path; continues
    /// with the concrete inputs of a completed primary path (the caller
    /// owns the state and moves its machine into the [`PrimaryPath`]
    /// without cloning), or `None` when the state was pruned or ran dry.
    fn run_state(
        &mut self,
        st: &mut ExpState,
        case: &AnalysisCase,
        race: &RaceReport,
        located: &Located,
    ) -> ControlFlow<Verdict, Option<Vec<i64>>> {
        let cell = Watch::cell(race.alloc, race.offset as i64);
        loop {
            let mut sup = Supervisor::new(st.budget);
            if !st.past_race {
                sup.race_watches.push(cell);
            }
            let stop = sup.run(&mut st.m, &mut st.sched, &case.predicates);
            st.budget = sup.budget;
            st.fast_forwarded += sup.fast_forwarded;

            // Prune states that diverged from the trace before the race
            // (paper Fig. 5's pruned paths).
            if !st.past_race && st.sched.diverged() {
                return Continue(None);
            }

            match stop {
                SupStop::RaceHit(h) => {
                    if h.tid == race.first.tid && h.pc == race.first.pc {
                        st.first_count += 1;
                    }
                    let is_second =
                        h.tid == race.second.tid && st.first_count >= located.first_occurrence;
                    if let Some(stop) = sup.step_over_checked(&mut st.m, &case.predicates) {
                        return self.fault_on_path(st, stop);
                    }
                    st.budget = sup.budget;
                    if is_second && !st.past_race {
                        st.past_race = true;
                        st.occ_at_race = st.first_count;
                        self.stats.dependent_branches =
                            self.stats.dependent_branches.max(st.m.sym_branches);
                    }
                }
                SupStop::SymBranch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    self.stats.dependent_branches =
                        self.stats.dependent_branches.max(st.m.sym_branches + 1);
                    let then_ok = self
                        .check_with(&st.m.path, cond.clone().truthy(), &st.m.vars)
                        .decided()
                        != Some(false);
                    let else_ok = self
                        .check_with(&st.m.path, cond.clone().not(), &st.m.vars)
                        .decided()
                        != Some(false);
                    match (then_ok, else_ok) {
                        (true, true) => {
                            if self.forks < MAX_EXPLORATION_STATES {
                                self.forks += 1;
                                let (child, cost) = st.m.fork();
                                self.stats.bytes_copied_on_fork += cost.bytes_copied;
                                self.stats.bytes_shared_on_fork += cost.bytes_shared;
                                let mut other = ExpState {
                                    base_steps: child.steps,
                                    base_preemptions: child.preemptions,
                                    fast_forwarded: 0,
                                    base_cow_bytes: child.cow_bytes(),
                                    m: child,
                                    sched: st.sched.clone(),
                                    budget: st.budget,
                                    first_count: st.first_count,
                                    past_race: st.past_race,
                                    occ_at_race: st.occ_at_race,
                                };
                                other.m.apply_branch(else_b, cond.clone().not());
                                self.worklist.push(other);
                            }
                            st.m.apply_branch(then_b, cond.truthy());
                        }
                        (true, false) => st.m.apply_branch(then_b, cond.truthy()),
                        (false, true) => st.m.apply_branch(else_b, cond.not()),
                        (false, false) => return Continue(None), // infeasible
                    }
                }
                SupStop::SymAssert { cond, msg } => {
                    // Explore the failing side only for states that
                    // experienced the race: the failure is then a
                    // consequence reachable under this schedule.
                    if st.past_race {
                        if let SatResult::Sat(model) =
                            self.check_with(&st.m.path, cond.clone().not(), &st.m.vars)
                        {
                            let inputs = st.m.inputs.concretize(&model, &st.m.vars);
                            let tid = st.m.cur;
                            let pc = st.m.thread(tid).pc().expect("live");
                            let failed = SupStop::Error(VmError::AssertFailed { tid, pc, msg });
                            return Break(failed.violation(
                                &st.m,
                                &inputs,
                                "assertion fails on an explored primary path",
                            ));
                        }
                    }
                    // Continue down the passing side if feasible.
                    if self
                        .check_with(&st.m.path, cond.clone().truthy(), &st.m.vars)
                        .decided()
                        == Some(false)
                    {
                        return Continue(None);
                    }
                    let _ = st.m.apply_assert(true, cond, "explored assert");
                }
                SupStop::Completed => {
                    if st.past_race {
                        if let SatResult::Sat(model) =
                            self.solver
                                .check_sliced_memo(&st.m.path, &st.m.vars, &mut self.memo)
                        {
                            return Continue(Some(st.m.inputs.concretize(&model, &st.m.vars)));
                        }
                    }
                    return Continue(None);
                }
                SupStop::Error(_) | SupStop::Semantic(_) => {
                    return self.fault_on_path(st, stop);
                }
                SupStop::Timeout | SupStop::Stuck => return Continue(None),
            }
        }
    }

    /// Turns a fault on an explored path into spec-violation evidence,
    /// but only when the path experienced the race (pre-race faults are
    /// unrelated to the race's ordering and are pruned).
    fn fault_on_path(
        &mut self,
        st: &ExpState,
        stop: SupStop,
    ) -> ControlFlow<Verdict, Option<Vec<i64>>> {
        if !st.past_race || !matches!(stop, SupStop::Error(_) | SupStop::Semantic(_)) {
            return Continue(None);
        }
        let model = match self
            .solver
            .check_sliced_memo(&st.m.path, &st.m.vars, &mut self.memo)
        {
            SatResult::Sat(m) => m,
            _ => Model::new(),
        };
        let inputs = st.m.inputs.concretize(&model, &st.m.vars);
        Break(stop.violation(&st.m, &inputs, "violation on an explored primary path"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locate::locate_race;
    use portend_replay::{record, RecordConfig};
    use portend_symex::CmpOp;
    use portend_vm::{FuncBuilder, InputSpec, Operand, ProgramBuilder, SymDomain, VmConfig};
    use std::sync::Arc;

    /// A program whose `main` loads `g` (racing with a worker's store),
    /// joins the worker, then runs `tail` with the loaded value. It is
    /// recorded on `inputs` and explored with one symbolic input over
    /// `0..=10` per name in `symbolic`.
    fn racy_case(
        inputs: Vec<i64>,
        symbolic: &[&str],
        tail: impl FnOnce(&mut FuncBuilder, Operand),
    ) -> (AnalysisCase, RaceReport) {
        let mut pb = ProgramBuilder::new("forky", "forky.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            let v = f.load(g, Operand::Imm(0)); // races with the store
            f.join(t);
            tail(f, v);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let run = record(&program, inputs.clone(), RecordConfig::default());
        assert!(!run.clusters.is_empty(), "the load/store race must record");
        let race = run.clusters[0].representative.clone();
        let mut input_spec = InputSpec::concrete(inputs);
        for name in symbolic {
            input_spec = input_spec.with_symbolic(SymDomain::new(*name, 0, 10));
        }
        let case = AnalysisCase {
            program,
            trace: run.trace.clone(),
            input_spec,
            predicates: vec![],
            vm: VmConfig::default(),
        };
        (case, race)
    }

    /// A racy program whose post-race code branches twice on a symbolic
    /// input, so exploration forks into multiple states.
    fn forking_case() -> (AnalysisCase, RaceReport) {
        racy_case(vec![4, 1], &["i", "j"], |f, v| {
            for (threshold, above, below) in [(5, 100, 200), (2, 1, 2)] {
                let i = f.input();
                let c = f.cmp(CmpOp::Gt, i, Operand::Imm(threshold));
                f.if_else(
                    c,
                    |f| {
                        f.output(1, Operand::Imm(above));
                    },
                    |f| {
                        f.output(1, Operand::Imm(below));
                    },
                );
            }
            f.output(1, v);
        })
    }

    /// Regression for the exploration-cost accounting fix: `instructions`
    /// must be the *sum* of per-state segments, not a running max of
    /// cumulative per-machine counters. With ≥ 2 explored paths, the sum
    /// is strictly larger than the deepest path, while the old
    /// implementation reported exactly the deepest path.
    #[test]
    fn instructions_sum_segments_across_forked_states() {
        let (case, race) = forking_case();
        let located = locate_race(&case, &race, STEP_BUDGET * 2).expect("locatable");
        let cfg = PortendConfig::default();
        let mut stats = ClassifyStats::default();
        let explored = explore_primaries(&case, &race, &located, &cfg, &Solver::new(), &mut stats);
        let Continue(primaries) = explored else {
            panic!("expected primaries, got {explored:?}");
        };
        assert!(primaries.len() >= 2, "forks explored: {}", primaries.len());

        let deepest = primaries.iter().map(|p| p.machine.steps).max().unwrap();
        assert_eq!(
            stats.max_path_instructions, deepest,
            "max-depth field pins the deepest explored path: {stats:?}"
        );
        assert!(
            stats.instructions > stats.max_path_instructions,
            "total work across ≥2 states strictly exceeds the deepest \
             single path (the old max-based counter under-reported): {stats:?}"
        );
        // Each explored state runs at most the full trace, and here every
        // one completes as a primary: the summed total is bounded by
        // (#primaries) × deepest path.
        assert!(
            stats.instructions <= primaries.len() as u64 * deepest,
            "sum is per-segment, not per-state-cumulative: {stats:?}"
        );
    }

    /// The explorer forks only where both sides of a branch are feasible
    /// with the path condition. Under `i > 5`, the inner side `i < 3` is
    /// infeasible, so its failing assert must never run: a feasibility
    /// probe that ignored the branch constraint would explore it and
    /// report a spec violation.
    #[test]
    fn infeasible_branch_sides_are_never_explored() {
        let (case, race) = racy_case(vec![7], &["i"], |f, _| {
            let i = f.input();
            let big = f.cmp(CmpOp::Gt, i, Operand::Imm(5));
            f.if_then(big, |f| {
                let small = f.cmp(CmpOp::Lt, i, Operand::Imm(3));
                f.if_then(small, |f| {
                    f.assert_true(Operand::Imm(0), "unreachable");
                });
            });
        });
        let located = locate_race(&case, &race, STEP_BUDGET * 2).expect("locatable");
        let cfg = PortendConfig::default();
        let mut stats = ClassifyStats::default();
        let result = explore_primaries(&case, &race, &located, &cfg, &Solver::new(), &mut stats);
        assert!(
            result.is_continue(),
            "an infeasible branch side was explored: {result:?}"
        );
    }
}
