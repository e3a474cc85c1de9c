//! Algorithm 1: single-pre/single-post analysis (paper §3.2).
//!
//! From the pre-race checkpoint, the first racing thread is suspended to
//! enforce the alternate ordering (see [`crate::enforce`]). Enforcement
//! failures are diagnosed as ad-hoc synchronization (retry loop or
//! timeout + progress probe), deadlock, or infinite loop; successful
//! alternates run to completion and their concrete outputs are compared
//! against the primary's.

use portend_race::RaceReport;
use portend_vm::{Machine, OutputLog, VmError, Watch};

use crate::case::AnalysisCase;
use crate::config::{enforce_budget, PortendConfig, STEP_BUDGET};
use crate::enforce::{enforce_alternate, EnforceOutcome};
use crate::locate::Located;
use crate::supervise::{SupStop, Supervisor};
use crate::taxonomy::{OutputDiffEvidence, ReplayEvidence, SpecViolationKind};

/// Outcome of single-pre/single-post analysis.
#[derive(Debug, Clone)]
pub(crate) enum SingleResult {
    /// A specification violation was observed (line 10/15/18 of Alg. 1).
    SpecViol {
        /// What was violated.
        kind: SpecViolationKind,
        /// Replay evidence.
        replay: ReplayEvidence,
    },
    /// The alternate ordering cannot occur (line 12).
    SingleOrd,
    /// Primary and alternate outputs differ (line 20).
    OutDiff(OutputDiffEvidence),
    /// Outputs identical (line 22) — escalate to multi-path analysis.
    OutSame {
        /// Whether the post-race concrete memory states differed (the
        /// Record/Replay-Analyzer criterion; Table 3 columns).
        states_differ: bool,
    },
}

/// Instructions and preemptions Algorithm 1 actually executed (primary
/// continuation + alternate enforcement and probes), summed per segment.
/// Feeds the classification-wide `ClassifyStats` totals.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SingleWork {
    /// VM instructions executed.
    pub instructions: u64,
    /// The part of `instructions` actually interpreted.
    pub interpreted: u64,
    /// Preemption points encountered.
    pub preemptions: u64,
}

impl SingleWork {
    pub(crate) fn absorb(&mut self, sup: &Supervisor) {
        self.instructions += sup.executed;
        self.interpreted += sup.interpreted();
        self.preemptions += sup.preempted;
    }
}

/// Runs Algorithm 1 for one race, also reporting the work it performed.
pub(crate) fn single_classify(
    case: &AnalysisCase,
    race: &RaceReport,
    located: &Located,
    cfg: &PortendConfig,
) -> (SingleResult, SingleWork) {
    let mut work = SingleWork::default();

    // --- primary: continue from the post-race checkpoint to completion.
    // Checkpoints restore through the CoW snapshot API: the restored
    // machine shares the checkpoint's heap and logs until first write.
    let (mut pm, mut psched) = (located.post.0.snapshot(), located.post.1.clone());
    let mut sup = Supervisor::new(STEP_BUDGET);
    let stop = sup.run(&mut pm, &mut psched, &case.predicates);
    work.absorb(&sup);
    let primary = match stop {
        SupStop::Completed => Ok(pm.output.clone()),
        SupStop::Error(e) => Err(spec_viol(e, &pm, case, "primary execution after the race")),
        SupStop::Semantic(msg) => Err(SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message: msg },
            replay: evidence(&pm, case, "primary execution after the race"),
        }),
        SupStop::Timeout => Err(SingleResult::SpecViol {
            kind: SpecViolationKind::InfiniteLoop { spinning: pm.cur },
            replay: evidence(&pm, case, "primary execution hung after the race"),
        }),
        SupStop::Stuck
        | SupStop::RaceHit(_)
        | SupStop::SymBranch { .. }
        | SupStop::SymAssert { .. } => {
            unreachable!("concrete, unsuspended, unwatched primary cannot stop this way")
        }
    };
    let primary_out = match primary {
        Ok(out) => out,
        Err(result) => return (result, work),
    };

    // --- alternate: enforce the reversed ordering from the pre-race
    // checkpoint by suspending the thread that raced first.
    let (mut am, mut asched) = (located.pre.0.snapshot(), located.pre.1.clone());
    let budget = enforce_budget(located.replay_steps);
    let mut sup = Supervisor::new(budget);
    let result = match enforce_alternate(&mut am, &mut asched, &mut sup, race, &case.predicates) {
        EnforceOutcome::Swapped => {
            sup.suspended.clear();
            run_alternate_tail(
                case,
                race,
                located,
                &mut sup,
                &mut am,
                &mut asched,
                &primary_out,
            )
        }
        EnforceOutcome::RetryLoop => {
            if !cfg.stages.adhoc_detection {
                conservative_harmful(&am, case, race)
            } else {
                // A busy-wait loop on the racy cell itself: confirmed
                // ad-hoc synchronization.
                SingleResult::SingleOrd
            }
        }
        EnforceOutcome::Timeout => {
            if !cfg.stages.adhoc_detection {
                conservative_harmful(&am, case, race)
            } else {
                // Timeout with the first thread suspended: either ad-hoc
                // synchronization (progress resumes once the suspended
                // thread runs) or a genuine infinite loop (paper §3.2,
                // §3.5).
                probe_after_timeout(case, race, &mut sup, &mut am, &mut asched, budget)
            }
        }
        EnforceOutcome::Stuck => {
            if !cfg.stages.adhoc_detection {
                conservative_harmful(&am, case, race)
            } else {
                // The second thread is blocked on something the suspended
                // thread holds. Release it and watch for a deadlock
                // (Alg. 1 line 14) or for the ordering resolving itself.
                probe_after_stuck(case, race, &mut sup, &mut am, &mut asched)
            }
        }
        EnforceOutcome::Completed => SingleResult::SingleOrd,
        EnforceOutcome::Error(e) => spec_viol(e, &am, case, "alternate execution"),
        EnforceOutcome::Semantic(message) => SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message },
            replay: evidence(&am, case, "alternate execution"),
        },
    };
    work.absorb(&sup);
    (result, work)
}

/// Replay-analyzer-style conservatism when ad-hoc-synchronization
/// detection is disabled (the Fig. 7 "single path" configuration):
/// an unenforceable alternate is assumed harmful.
fn conservative_harmful(am: &Machine, case: &AnalysisCase, race: &RaceReport) -> SingleResult {
    SingleResult::SpecViol {
        kind: SpecViolationKind::InfiniteLoop {
            spinning: race.second.tid,
        },
        replay: evidence(am, case, "alternate ordering could not be enforced"),
    }
}

fn probe_after_timeout(
    case: &AnalysisCase,
    race: &RaceReport,
    sup: &mut Supervisor,
    am: &mut Machine,
    asched: &mut portend_vm::Scheduler,
    budget: u64,
) -> SingleResult {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.suspended.clear();
    sup.budget = budget;
    sup.race_watches = vec![cell.by(race.second.tid)];
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(_) | SupStop::Completed => SingleResult::SingleOrd,
        SupStop::Timeout => SingleResult::SpecViol {
            kind: SpecViolationKind::InfiniteLoop { spinning: am.cur },
            replay: evidence(am, case, "loop never exits in the alternate ordering"),
        },
        SupStop::Error(e) => spec_viol(e, am, case, "alternate after timeout probe"),
        SupStop::Semantic(msg) => SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message: msg },
            replay: evidence(am, case, "alternate after timeout probe"),
        },
        SupStop::Stuck => SingleResult::SingleOrd,
        SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
            unreachable!("concrete alternate cannot fork")
        }
    }
}

fn probe_after_stuck(
    case: &AnalysisCase,
    race: &RaceReport,
    sup: &mut Supervisor,
    am: &mut Machine,
    asched: &mut portend_vm::Scheduler,
) -> SingleResult {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.suspended.clear();
    sup.race_watches = vec![cell.by(race.first.tid), cell.by(race.second.tid)];
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(h) if h.tid == race.second.tid => {
            // The swap happened after all once the blockage cleared.
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return stop_to_result(stop, am, case, "second racing access");
            }
            // Too late to compare against the primary cleanly — treat the
            // ordering as possible but unknown-consequence: continue and
            // compare outputs.
            sup.race_watches.clear();
            match sup.run(am, asched, &case.predicates) {
                SupStop::Completed => SingleResult::OutSame {
                    states_differ: true,
                },
                SupStop::Error(e) => spec_viol(e, am, case, "alternate after stuck probe"),
                SupStop::Semantic(msg) => SingleResult::SpecViol {
                    kind: SpecViolationKind::Semantic { message: msg },
                    replay: evidence(am, case, "alternate after stuck probe"),
                },
                _ => SingleResult::SingleOrd,
            }
        }
        SupStop::RaceHit(_) => {
            // The first thread performed its access first: the alternate
            // ordering is impossible. Keep running to see whether the
            // blockage was the prelude to a deadlock (Alg. 1 line 14).
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return stop_to_result(stop, am, case, "first racing access");
            }
            sup.race_watches.clear();
            match sup.run(am, asched, &case.predicates) {
                SupStop::Error(e @ VmError::Deadlock(_)) => spec_viol(
                    e,
                    am,
                    case,
                    "deadlock after the alternate ordering could not be enforced",
                ),
                SupStop::Error(e) => spec_viol(e, am, case, "alternate enforcement probe"),
                SupStop::Semantic(msg) => SingleResult::SpecViol {
                    kind: SpecViolationKind::Semantic { message: msg },
                    replay: evidence(am, case, "alternate enforcement probe"),
                },
                SupStop::Completed | SupStop::Timeout | SupStop::Stuck => SingleResult::SingleOrd,
                SupStop::RaceHit(_) | SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
                    unreachable!("no race watches remain and execution is concrete")
                }
            }
        }
        SupStop::Error(e @ VmError::Deadlock(_)) => spec_viol(
            e,
            am,
            case,
            "deadlock while enforcing the alternate ordering",
        ),
        SupStop::Error(e) => spec_viol(e, am, case, "alternate enforcement probe"),
        SupStop::Semantic(msg) => SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message: msg },
            replay: evidence(am, case, "alternate enforcement probe"),
        },
        SupStop::Completed | SupStop::Timeout | SupStop::Stuck => SingleResult::SingleOrd,
        SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
            unreachable!("concrete alternate cannot fork")
        }
    }
}

/// After a successful ordering swap: wait for the (formerly suspended)
/// first thread's access to capture the post-race alternate state, then
/// run to completion and compare outputs.
fn run_alternate_tail(
    case: &AnalysisCase,
    race: &RaceReport,
    located: &Located,
    sup: &mut Supervisor,
    am: &mut Machine,
    asched: &mut portend_vm::Scheduler,
    primary_out: &OutputLog,
) -> SingleResult {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.race_watches = vec![cell.by(race.first.tid)];
    // Racing-cell accesses are preemption points from here on (paper §6),
    // so pending post-swap accesses give the scheduler a chance to
    // interleave the released thread.
    sup.preempt_watches = vec![cell];
    let mut states_differ = true; // pessimistic until both accesses align
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(_) => {
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return stop_to_result(stop, am, case, "first racing access in the alternate");
            }
            // Both racing accesses done: this is the state the
            // Record/Replay-Analyzer compares (paper §2.1). Memory only:
            // register files trivially differ across interleavings.
            states_differ = am.mem.fingerprint() != located.post.0.mem.fingerprint();
        }
        SupStop::Completed => {
            // The first thread's access became unreachable; outputs are
            // already final.
            return compare_outputs(case, primary_out, am, states_differ);
        }
        SupStop::Error(e) => return spec_viol(e, am, case, "alternate execution"),
        SupStop::Semantic(msg) => {
            return SingleResult::SpecViol {
                kind: SpecViolationKind::Semantic { message: msg },
                replay: evidence(am, case, "alternate execution"),
            }
        }
        SupStop::Timeout => {
            return SingleResult::SpecViol {
                kind: SpecViolationKind::InfiniteLoop { spinning: am.cur },
                replay: evidence(am, case, "alternate execution hung"),
            }
        }
        SupStop::Stuck | SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
            unreachable!("no suspensions remain and execution is concrete")
        }
    }

    // Run the alternate to completion; racing-cell accesses stay
    // preemption points (paper §6).
    sup.race_watches.clear();
    sup.preempt_watches = vec![cell];
    sup.budget = sup.budget.max(STEP_BUDGET);
    match sup.run(am, asched, &case.predicates) {
        SupStop::Completed => compare_outputs(case, primary_out, am, states_differ),
        SupStop::Error(e) => spec_viol(e, am, case, "alternate execution after the race"),
        SupStop::Semantic(msg) => SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message: msg },
            replay: evidence(am, case, "alternate execution after the race"),
        },
        SupStop::Timeout => SingleResult::SpecViol {
            kind: SpecViolationKind::InfiniteLoop { spinning: am.cur },
            replay: evidence(am, case, "alternate execution hung after the race"),
        },
        SupStop::Stuck
        | SupStop::RaceHit(_)
        | SupStop::SymBranch { .. }
        | SupStop::SymAssert { .. } => {
            unreachable!("no suspensions or race watches remain and execution is concrete")
        }
    }
}

fn compare_outputs(
    case: &AnalysisCase,
    primary_out: &OutputLog,
    am: &Machine,
    states_differ: bool,
) -> SingleResult {
    let diffs = primary_out.diff_concrete(&am.output);
    match diffs.first() {
        None => SingleResult::OutSame { states_differ },
        Some((pos, p, a)) => {
            let loc = p
                .as_ref()
                .or(a.as_ref())
                .map(|r| case.program.loc(r.pc))
                .unwrap_or_default();
            let (primary_fd, alternate_fd) = OutputDiffEvidence::fd_pair(p.as_ref(), a.as_ref());
            SingleResult::OutDiff(OutputDiffEvidence {
                position: *pos,
                primary: p
                    .as_ref()
                    .map(|r| r.val.to_string())
                    .unwrap_or_else(|| "<missing>".into()),
                alternate: a
                    .as_ref()
                    .map(|r| r.val.to_string())
                    .unwrap_or_else(|| "<missing>".into()),
                primary_fd,
                alternate_fd,
                primary_len: primary_out.len(),
                alternate_len: am.output.len(),
                primary_loc: loc,
                inputs: case.trace.inputs.clone(),
            })
        }
    }
}

fn spec_viol(e: VmError, m: &Machine, case: &AnalysisCase, what: &str) -> SingleResult {
    SingleResult::SpecViol {
        kind: e.into(),
        replay: evidence(m, case, what),
    }
}

fn stop_to_result(stop: SupStop, m: &Machine, case: &AnalysisCase, what: &str) -> SingleResult {
    match stop {
        SupStop::Error(e) => spec_viol(e, m, case, what),
        SupStop::Semantic(msg) => SingleResult::SpecViol {
            kind: SpecViolationKind::Semantic { message: msg },
            replay: evidence(m, case, what),
        },
        other => unreachable!("step-over cannot yield {other:?} in concrete mode"),
    }
}

pub(crate) fn evidence(m: &Machine, case: &AnalysisCase, what: &str) -> ReplayEvidence {
    ReplayEvidence {
        inputs: case.trace.inputs.clone(),
        schedule: m.sched_log.to_vec(),
        description: what.to_string(),
    }
}
