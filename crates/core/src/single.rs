//! Algorithm 1: single-pre/single-post analysis (paper §3.2).
//!
//! From the pre-race checkpoint, the first racing thread is suspended to
//! enforce the alternate ordering (see [`crate::enforce`]). Enforcement
//! failures are diagnosed as ad-hoc synchronization (retry loop or
//! timeout + progress probe), deadlock, or infinite loop; successful
//! alternates run to completion and their concrete outputs are compared
//! against the primary's.

use std::ops::ControlFlow::{self, Break, Continue};

use portend_race::RaceReport;
use portend_vm::{Machine, OutputLog, VmError, Watch};

use crate::case::AnalysisCase;
use crate::config::{enforce_budget, PortendConfig, STEP_BUDGET};
use crate::enforce::{enforce_alternate, EnforceOutcome};
use crate::locate::Located;
use crate::supervise::{SupStop, Supervisor};
use crate::taxonomy::{
    ClassifyStats, OutputDiffEvidence, ReplayEvidence, SpecViolationKind, Verdict,
};

/// Runs Algorithm 1 for one race, adding the work it executes (primary
/// continuation, alternate enforcement and probes) to `stats`.
///
/// Breaks with a spec violation (lines 10/15/18 of Alg. 1), single
/// ordering (line 12) or output differs (line 20). When the outputs are
/// identical (line 22) it continues — to multi-path analysis — with
/// whether the post-race concrete memory states differed (the
/// Record/Replay-Analyzer criterion; Table 3 columns).
pub(crate) fn single_classify(
    case: &AnalysisCase,
    race: &RaceReport,
    located: &Located,
    cfg: &PortendConfig,
    stats: &mut ClassifyStats,
) -> ControlFlow<Verdict, bool> {
    let inputs = &case.trace.inputs;

    // --- primary: continue from the post-race checkpoint to completion.
    // Checkpoints restore through the CoW snapshot API: the restored
    // machine shares the checkpoint's heap and logs until first write.
    let (mut pm, mut psched) = (located.post.0.snapshot(), located.post.1.clone());
    let mut sup = Supervisor::new(STEP_BUDGET);
    let stop = sup.run(&mut pm, &mut psched, &case.predicates);
    sup.charge(stats);
    match stop {
        SupStop::Completed => {}
        SupStop::Timeout => {
            return Break(stop.violation(&pm, inputs, "primary execution hung after the race"))
        }
        // A concrete, unsuspended, unwatched primary stops no other way.
        stop => return Break(stop.violation(&pm, inputs, "primary execution after the race")),
    }

    // --- alternate: enforce the reversed ordering from the pre-race
    // checkpoint by suspending the thread that raced first.
    let (mut am, mut asched) = (located.pre.0.snapshot(), located.pre.1.clone());
    let budget = enforce_budget(located.replay_steps);
    let mut sup = Supervisor::new(budget);
    let decided = match enforce_alternate(&mut am, &mut asched, &mut sup, race, &case.predicates) {
        EnforceOutcome::Swapped => {
            sup.suspended.clear();
            run_alternate_tail(
                case,
                race,
                located,
                &mut sup,
                &mut am,
                &mut asched,
                &pm.output,
            )
        }
        // Replay-analyzer-style conservatism when ad-hoc-synchronization
        // detection is disabled (the Fig. 7 "single path" configuration):
        // an unenforceable alternate is assumed harmful.
        EnforceOutcome::RetryLoop | EnforceOutcome::Timeout | EnforceOutcome::Stuck
            if !cfg.stages.adhoc_detection =>
        {
            Break(Verdict::spec_violation(
                SpecViolationKind::InfiniteLoop {
                    spinning: race.second.tid,
                },
                ReplayEvidence {
                    inputs: inputs.clone(),
                    schedule: am.sched_log.to_vec(),
                    description: "alternate ordering could not be enforced".into(),
                },
            ))
        }
        // A busy-wait loop on the racy cell itself: confirmed ad-hoc
        // synchronization.
        EnforceOutcome::RetryLoop => Break(Verdict::single_ordering()),
        // Timeout with the first thread suspended: either ad-hoc
        // synchronization (progress resumes once the suspended thread
        // runs) or a genuine infinite loop (paper §3.2, §3.5).
        EnforceOutcome::Timeout => Break(probe_after_timeout(
            case,
            race,
            &mut sup,
            &mut am,
            &mut asched,
            budget,
        )),
        // The second thread is blocked on something the suspended thread
        // holds. Release it and watch for a deadlock (Alg. 1 line 14) or
        // for the ordering resolving itself.
        EnforceOutcome::Stuck => probe_after_stuck(case, race, &mut sup, &mut am, &mut asched),
        EnforceOutcome::Completed => Break(Verdict::single_ordering()),
        EnforceOutcome::Violated(stop) => Break(stop.violation(&am, inputs, "alternate execution")),
    };
    sup.charge(stats);
    decided
}

fn probe_after_timeout(
    case: &AnalysisCase,
    race: &RaceReport,
    sup: &mut Supervisor,
    am: &mut Machine,
    asched: &mut portend_vm::Scheduler,
    budget: u64,
) -> Verdict {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.suspended.clear();
    sup.budget = budget;
    sup.race_watches = vec![cell.by(race.second.tid)];
    let inputs = &case.trace.inputs;
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(_) | SupStop::Completed | SupStop::Stuck => Verdict::single_ordering(),
        stop @ SupStop::Timeout => {
            stop.violation(am, inputs, "loop never exits in the alternate ordering")
        }
        // The alternate runs concretely, so it cannot fork.
        stop => stop.violation(am, inputs, "alternate after timeout probe"),
    }
}

fn probe_after_stuck(
    case: &AnalysisCase,
    race: &RaceReport,
    sup: &mut Supervisor,
    am: &mut Machine,
    asched: &mut portend_vm::Scheduler,
) -> ControlFlow<Verdict, bool> {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.suspended.clear();
    sup.race_watches = vec![cell.by(race.first.tid), cell.by(race.second.tid)];
    let inputs = &case.trace.inputs;
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(h) if h.tid == race.second.tid => {
            // The swap happened after all once the blockage cleared.
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return Break(stop.violation(am, inputs, "second racing access"));
            }
            // Too late to compare against the primary cleanly — treat the
            // ordering as possible but unknown-consequence: continue and
            // compare outputs.
            sup.race_watches.clear();
            match sup.run(am, asched, &case.predicates) {
                SupStop::Completed => Continue(true),
                stop @ (SupStop::Error(_) | SupStop::Semantic(_)) => {
                    Break(stop.violation(am, inputs, "alternate after stuck probe"))
                }
                _ => Break(Verdict::single_ordering()),
            }
        }
        SupStop::RaceHit(_) => {
            // The first thread performed its access first: the alternate
            // ordering is impossible. Keep running to see whether the
            // blockage was the prelude to a deadlock (Alg. 1 line 14).
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return Break(stop.violation(am, inputs, "first racing access"));
            }
            sup.race_watches.clear();
            Break(match sup.run(am, asched, &case.predicates) {
                SupStop::Completed | SupStop::Timeout | SupStop::Stuck => {
                    Verdict::single_ordering()
                }
                stop @ SupStop::Error(VmError::Deadlock(_)) => stop.violation(
                    am,
                    inputs,
                    "deadlock after the alternate ordering could not be enforced",
                ),
                // No race watches remain and execution is concrete.
                stop => stop.violation(am, inputs, "alternate enforcement probe"),
            })
        }
        SupStop::Completed | SupStop::Timeout | SupStop::Stuck => Break(Verdict::single_ordering()),
        stop @ SupStop::Error(VmError::Deadlock(_)) => Break(stop.violation(
            am,
            inputs,
            "deadlock while enforcing the alternate ordering",
        )),
        // The alternate runs concretely, so it cannot fork.
        stop => Break(stop.violation(am, inputs, "alternate enforcement probe")),
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
) -> ControlFlow<Verdict, bool> {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.race_watches = vec![cell.by(race.first.tid)];
    // Racing-cell accesses are preemption points from here on (paper §6),
    // so pending post-swap accesses give the scheduler a chance to
    // interleave the released thread.
    sup.preempt_watches = vec![cell];
    let inputs = &case.trace.inputs;
    let mut states_differ = true; // pessimistic until both accesses align
                                  // No suspensions remain and execution is concrete: every stop but
                                  // these is a violation.
    match sup.run(am, asched, &case.predicates) {
        SupStop::RaceHit(_) => {
            if let Some(stop) = sup.step_over_checked(am, &case.predicates) {
                return Break(stop.violation(am, inputs, "first racing access in the alternate"));
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
        stop @ SupStop::Timeout => {
            return Break(stop.violation(am, inputs, "alternate execution hung"))
        }
        stop => return Break(stop.violation(am, inputs, "alternate execution")),
    }

    // Run the alternate to completion; racing-cell accesses stay
    // preemption points (paper §6).
    sup.race_watches.clear();
    sup.preempt_watches = vec![cell];
    sup.budget = sup.budget.max(STEP_BUDGET);
    match sup.run(am, asched, &case.predicates) {
        SupStop::Completed => compare_outputs(case, primary_out, am, states_differ),
        stop @ SupStop::Timeout => {
            Break(stop.violation(am, inputs, "alternate execution hung after the race"))
        }
        stop => Break(stop.violation(am, inputs, "alternate execution after the race")),
    }
}

/// Continues with `states_differ` when the alternate's concrete outputs
/// equal the primary's; breaks with the first difference otherwise.
fn compare_outputs(
    case: &AnalysisCase,
    primary_out: &OutputLog,
    am: &Machine,
    states_differ: bool,
) -> ControlFlow<Verdict, bool> {
    let diffs = primary_out.diff_concrete(&am.output);
    let Some((pos, p, a)) = diffs.first() else {
        return Continue(states_differ);
    };
    let loc = p
        .as_ref()
        .or(a.as_ref())
        .map(|r| case.program.loc(r.pc))
        .unwrap_or_default();
    let (primary_fd, alternate_fd) = OutputDiffEvidence::fd_pair(p.as_ref(), a.as_ref());
    let evidence = OutputDiffEvidence {
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
    };
    Break(Verdict::output_differs(evidence, None))
}
