//! Replaying the primary trace to the race: pre-race and post-race
//! checkpoints (paper §3.2, Algorithm 1 lines 1–4).

use portend_race::RaceReport;
use portend_vm::{Machine, Scheduler, Watch};

use crate::case::AnalysisCase;
use crate::classify::ClassifyError;
use crate::supervise::{SupStop, Supervisor};

/// The race located in a deterministic replay of the primary trace.
#[derive(Debug, Clone)]
pub(crate) struct Located {
    /// State (machine + scheduler) just *before* the first racing access.
    pub pre: (Machine, Scheduler),
    /// State just *after* the second racing access.
    pub post: (Machine, Scheduler),
    /// 1-based index of the first racing access among the dynamic
    /// occurrences of `(first.tid, first.pc)` accesses to the racy cell.
    /// Multi-path exploration and alternate runs align on this count,
    /// which is stable across input changes that keep the pre-race
    /// schedule (paper §3.1 records instruction counts for the same
    /// purpose).
    pub first_occurrence: u32,
    /// Machine instruction count at the post-race checkpoint; the
    /// alternate-enforcement timeout is a multiple of this (paper §4).
    pub replay_steps: u64,
    /// The part of `replay_steps` actually interpreted (the rest was
    /// fast-forwarded).
    pub interpreted_steps: u64,
}

/// Replays the trace, stopping just before the first racing access and
/// just after the second, and captures both checkpoints. Fails when the
/// replay does not reach the race (which should not happen for traces
/// produced by `portend-replay` against the same program).
pub(crate) fn locate_race(
    case: &AnalysisCase,
    race: &RaceReport,
    budget: u64,
) -> Result<Located, ClassifyError> {
    let mut m = case.trace.machine(&case.program, case.vm);
    let mut sched = case.trace.scheduler();
    let mut sup = Supervisor::new(budget);
    sup.race_watches
        .push(Watch::cell(race.alloc, race.offset as i64));

    let mut first_count: u32 = 0;
    let mut pre: Option<(Machine, Scheduler)> = None;
    loop {
        match sup.run(&mut m, &mut sched, &[]) {
            SupStop::RaceHit(h) => {
                if pre.is_none() && h.tid == race.first.tid && h.pc == race.first.pc {
                    first_count += 1;
                    if m.steps == race.first.step.saturating_sub(1) {
                        pre = Some((m.clone(), sched.clone()));
                    }
                } else if pre.is_some()
                    && h.tid == race.second.tid
                    && h.pc == race.second.pc
                    && m.steps == race.second.step.saturating_sub(1)
                {
                    if let Some(stop) = sup.step_over_checked(&mut m, &[]) {
                        return Err(ClassifyError(format!(
                            "second racing access faulted during replay: {stop:?}"
                        )));
                    }
                    let replay_steps = m.steps;
                    return Ok(Located {
                        pre: pre.expect("checked above"),
                        post: (m, sched),
                        first_occurrence: first_count,
                        replay_steps,
                        interpreted_steps: replay_steps - sup.fast_forwarded,
                    });
                }
                if let Some(stop) = sup.step_over_checked(&mut m, &[]) {
                    return Err(ClassifyError(format!(
                        "racy access faulted during replay: {stop:?}"
                    )));
                }
            }
            other => {
                return Err(ClassifyError(format!(
                    "race not reached in primary replay (stopped with {other:?})"
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_replay::{record, RecordConfig};
    use portend_vm::{Operand, ProgramBuilder, Scheduler as VmScheduler};
    use std::sync::Arc;

    #[test]
    fn locates_pre_and_post_checkpoints() {
        let mut pb = ProgramBuilder::new("racy", "racy.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(7));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.join(t);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let run = record(
            &program,
            vec![],
            RecordConfig {
                scheduler: VmScheduler::RoundRobin,
                ..Default::default()
            },
        );
        assert_eq!(run.clusters.len(), 1);
        let race = run.clusters[0].representative.clone();
        let case = crate::case::AnalysisCase::concrete(program, run.trace);
        let located = locate_race(&case, &race, 100_000).expect("locates");
        assert_eq!(located.first_occurrence, 1);
        // Pre-race: the first access has not executed yet.
        assert_eq!(located.pre.0.steps, race.first.step - 1);
        // Post-race: the second access just executed.
        assert_eq!(located.post.0.steps, race.second.step);
    }
}
