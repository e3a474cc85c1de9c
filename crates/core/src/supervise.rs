//! Supervised execution: drives a machine while multiplexing race
//! watchpoints, semantic-predicate watchpoints, suspension, and budgets.
//!
//! This is the shared plumbing under Algorithm 1 (single-pre/single-post),
//! the multi-path explorer, and alternate-schedule execution. Every stage
//! turns a violating stop into evidence through [`SupStop::violation`]
//! and adds a supervisor's work to its race's stats through
//! [`Supervisor::charge`].

use std::collections::BTreeSet;

use portend_symex::Expr;
use portend_vm::{
    drive, DriveCfg, DriveStop, Machine, Monitor, NullMonitor, Scheduler, StepEvent, ThreadId,
    VmError, Watch, WatchHit,
};

use crate::case::Predicate;
use crate::taxonomy::{ClassifyStats, ReplayEvidence, SpecViolationKind, Verdict};

/// Why a supervised run returned.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SupStop {
    /// All threads exited (predicates held throughout).
    Completed,
    /// A crash or deadlock.
    Error(VmError),
    /// The instruction budget ran out.
    Timeout,
    /// Only suspended threads could make progress.
    Stuck,
    /// A *race* watchpoint is pending (not yet executed).
    RaceHit(WatchHit),
    /// A semantic predicate was violated.
    Semantic(String),
    /// A symbolic branch needs forking (multi-path explorer only).
    SymBranch {
        /// Branch condition.
        cond: Expr,
        /// Target when non-zero.
        then_b: portend_vm::BlockId,
        /// Target when zero.
        else_b: portend_vm::BlockId,
    },
    /// A symbolic assertion needs forking.
    SymAssert {
        /// Asserted condition.
        cond: Expr,
        /// Assertion message.
        msg: String,
    },
}

impl SupStop {
    /// The spec-violation verdict for a stop that violates the
    /// specification: a crash or deadlock, a failed predicate, or an
    /// exhausted budget (an infinite loop in the thread `m` was running).
    /// The evidence replays `inputs` under `m`'s schedule log; `what`
    /// says which execution the stop ended.
    ///
    /// # Panics
    ///
    /// On any other stop: completion, suspension, race hits and symbolic
    /// forks are the caller's to handle.
    pub fn violation(self, m: &Machine, inputs: &[i64], what: &str) -> Verdict {
        let kind = match self {
            SupStop::Error(e) => e.into(),
            SupStop::Semantic(message) => SpecViolationKind::Semantic { message },
            SupStop::Timeout => SpecViolationKind::InfiniteLoop { spinning: m.cur },
            other => unreachable!("{what}: {other:?} is not a specification violation"),
        };
        Verdict::spec_violation(
            kind,
            ReplayEvidence {
                inputs: inputs.to_vec(),
                schedule: m.sched_log.to_vec(),
                description: what.to_string(),
            },
        )
    }
}

/// Watchpoint-multiplexing execution driver.
#[derive(Debug, Clone)]
pub(crate) struct Supervisor {
    /// Watches that stop execution and surface as [`SupStop::RaceHit`].
    pub race_watches: Vec<Watch>,
    /// Watches treated as preemption points (post-race diversification).
    pub preempt_watches: Vec<Watch>,
    /// Threads excluded from scheduling.
    pub suspended: BTreeSet<ThreadId>,
    /// Remaining instruction budget (consumed across calls).
    pub budget: u64,
    /// Instructions executed under this supervisor, across all calls.
    /// Unlike `budget` (which callers reset between phases), this is a
    /// monotone counter of logical work, suitable for Table 4 accounting.
    pub executed: u64,
    /// The part of `executed` that `drive` fast-forwarded through exactly
    /// repeating cycles instead of interpreting.
    pub fast_forwarded: u64,
    /// Preemption points the driven machine hit under this supervisor.
    pub preempted: u64,
}

impl Supervisor {
    /// A supervisor with the given budget and no watches.
    pub fn new(budget: u64) -> Self {
        Supervisor {
            race_watches: Vec::new(),
            preempt_watches: Vec::new(),
            suspended: BTreeSet::new(),
            budget,
            executed: 0,
            fast_forwarded: 0,
            preempted: 0,
        }
    }

    /// Adds the work run under this supervisor to `stats`: instructions
    /// executed, the part of them interpreted (`executed` minus what was
    /// fast-forwarded), and preemption points.
    pub fn charge(&self, stats: &mut ClassifyStats) {
        stats.instructions += self.executed;
        stats.interpreted += self.executed - self.fast_forwarded;
        stats.preemptions += self.preempted;
    }

    /// Runs until a [`SupStop`] condition, transparently servicing
    /// predicate watchpoints (step over the write, re-check the predicate).
    pub fn run(
        &mut self,
        m: &mut Machine,
        sched: &mut Scheduler,
        predicates: &[Predicate],
    ) -> SupStop {
        loop {
            if self.budget == 0 {
                return SupStop::Timeout;
            }
            let mut watches = self.race_watches.clone();
            for p in predicates {
                watches.extend_from_slice(&p.watches);
            }
            let cfg = DriveCfg {
                max_steps: self.budget,
                watches,
                preempt_watches: self.preempt_watches.clone(),
                suspended: self.suspended.clone(),
                record_schedule: true,
            };
            let before = m.steps;
            let before_preempt = m.preemptions;
            let mut skips = SkipTally::default();
            let stop = drive(m, sched, &mut skips, &cfg);
            self.fast_forwarded += skips.0;
            let ran = m.steps.saturating_sub(before);
            self.budget = self.budget.saturating_sub(ran);
            self.executed += ran;
            self.preempted += m.preemptions.saturating_sub(before_preempt);
            match stop {
                DriveStop::WatchHit(h) => {
                    let is_race = |w: &Watch| w.matches(h.tid, h.alloc, h.offset, h.is_write);
                    if self.race_watches.iter().any(is_race) {
                        return SupStop::RaceHit(h);
                    }
                    // A predicate watch: execute the access, then check.
                    if let Some(stop) = self.step_over_checked(m, predicates) {
                        return stop;
                    }
                }
                DriveStop::Completed => {
                    if let Some(msg) = check_predicates(predicates, m) {
                        return SupStop::Semantic(msg);
                    }
                    return SupStop::Completed;
                }
                DriveStop::Error(e) => return SupStop::Error(e),
                DriveStop::StepLimit => return SupStop::Timeout,
                DriveStop::Stuck => return SupStop::Stuck,
                DriveStop::SymBranch {
                    cond,
                    then_b,
                    else_b,
                } => {
                    return SupStop::SymBranch {
                        cond,
                        then_b,
                        else_b,
                    }
                }
                DriveStop::SymAssert { cond, msg } => return SupStop::SymAssert { cond, msg },
            }
        }
    }

    /// Executes the pending (watched) instruction, then re-checks the
    /// predicates. Returns `Some` when that surfaces a stop condition.
    ///
    /// Only predicates that *declare watches* are evaluated here: they
    /// opted into observing transient states. Watch-free predicates are
    /// exit-time properties, evaluated only on completion (e.g. fmm's
    /// "timestamps used are positive" — transient negatives that get
    /// overwritten are fine, paper §5.1).
    pub fn step_over_checked(
        &mut self,
        m: &mut Machine,
        predicates: &[Predicate],
    ) -> Option<SupStop> {
        let before = m.steps;
        let event = m.step(&mut NullMonitor);
        self.executed += m.steps.saturating_sub(before);
        match event {
            StepEvent::Ran | StepEvent::Blocked | StepEvent::Exited => {}
            StepEvent::Err(e) => return Some(SupStop::Error(e)),
            StepEvent::SymBranch {
                cond,
                then_b,
                else_b,
            } => {
                return Some(SupStop::SymBranch {
                    cond,
                    then_b,
                    else_b,
                })
            }
            StepEvent::SymAssert { cond, msg } => return Some(SupStop::SymAssert { cond, msg }),
        }
        self.budget = self.budget.saturating_sub(1);
        for p in predicates {
            if p.watches.is_empty() {
                continue;
            }
            if let Some(msg) = p.check(m) {
                return Some(SupStop::Semantic(format!("{}: {msg}", p.name)));
            }
        }
        None
    }
}

/// Evaluates all predicates; the first violation message wins.
pub(crate) fn check_predicates(predicates: &[Predicate], m: &Machine) -> Option<String> {
    for p in predicates {
        if let Some(msg) = p.check(m) {
            return Some(format!("{}: {msg}", p.name));
        }
    }
    None
}

/// The supervisor's monitor: observes no event, consents to every
/// fast-forward (predicates read machine state, never events), and
/// counts the instructions skipped.
#[derive(Default)]
struct SkipTally(u64);

impl Monitor for SkipTally {
    fn fast_forward(&mut self, steps: u64) -> bool {
        self.0 += steps;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_vm::{
        AllocId, InputMode, InputSource, InputSpec, Operand, ProgramBuilder, VmConfig,
    };
    use std::sync::Arc;

    #[test]
    fn predicate_watch_catches_transient_violation() {
        // g is set to -1 then immediately overwritten with +1: an
        // end-of-run check would miss it, the watchpoint does not.
        let mut pb = ProgramBuilder::new("t", "t.c");
        let g = pb.global("g", 0);
        let main = pb.func("main", |f| {
            f.store(g, Operand::Imm(0), Operand::Imm(-1));
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let prog = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            prog,
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let pred = Predicate::new("nonneg", vec![Watch::cell(AllocId(0), 0)], |m: &Machine| {
            let v = m.mem.load(AllocId(0), 0).ok()?.as_concrete()?;
            (v < 0).then(|| format!("g = {v}"))
        });
        let mut sup = Supervisor::new(10_000);
        let mut sched = Scheduler::Cooperative;
        let stop = sup.run(&mut m, &mut sched, &[pred]);
        assert_eq!(stop, SupStop::Semantic("nonneg: g = -1".into()));
    }

    #[test]
    fn race_watch_takes_priority_and_budget_counts() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let g = pb.global("g", 0);
        let main = pb.func("main", |f| {
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let prog = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            prog,
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let mut sup = Supervisor::new(10_000);
        sup.race_watches.push(Watch::cell(AllocId(0), 0));
        let mut sched = Scheduler::Cooperative;
        match sup.run(&mut m, &mut sched, &[]) {
            SupStop::RaceHit(h) => assert!(h.is_write),
            other => panic!("{other:?}"),
        }
        // The watched store is the first instruction: nothing ran yet.
        assert_eq!(sup.budget, 10_000);
        // Step over (consumes budget), then it completes.
        assert!(sup.step_over_checked(&mut m, &[]).is_none());
        assert!(sup.budget < 10_000);
        let stop = sup.run(&mut m, &mut sched, &[]);
        assert_eq!(stop, SupStop::Completed);
    }

    #[test]
    fn zero_budget_times_out() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let main = pb.func("main", |f| f.ret(None));
        let prog = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            prog,
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let mut sup = Supervisor::new(0);
        let mut sched = Scheduler::Cooperative;
        assert_eq!(sup.run(&mut m, &mut sched, &[]), SupStop::Timeout);
    }
}
