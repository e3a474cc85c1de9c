//! The replayable execution trace.

use std::sync::Arc;

use portend_vm::{
    InputMode, InputSource, InputSpec, Machine, Program, Scheduler, ThreadId, VmConfig,
};

/// A replayable trace: scheduler decisions plus the program input log.
///
/// Replaying the same trace against the same program reproduces the exact
/// interleaving of accesses (see `portend-vm`'s executor contract), which
/// is the foundation of Portend's checkpoint-based analyses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecutionTrace {
    /// Scheduler decisions, one per preemption point, in order.
    pub schedule: Vec<ThreadId>,
    /// Concrete input log.
    pub inputs: Vec<i64>,
}

impl ExecutionTrace {
    /// Creates a trace.
    pub fn new(schedule: Vec<ThreadId>, inputs: Vec<i64>) -> Self {
        ExecutionTrace { schedule, inputs }
    }

    /// A scheduler that follows this trace and then falls back to fair
    /// round-robin scheduling (fairness matters: after the alternate
    /// ordering diverges from the trace, a spinning thread must not
    /// starve the thread it waits on).
    pub fn scheduler(&self) -> Scheduler {
        Scheduler::follow_with_fallback(self.schedule.clone(), Scheduler::RoundRobin)
    }

    /// A scheduler that follows this trace and then falls back to the
    /// given policy (used for multi-schedule analysis where the post-race
    /// part of the alternate is randomized, paper §3.4).
    pub fn scheduler_with_fallback(&self, fallback: Scheduler) -> Scheduler {
        Scheduler::follow_with_fallback(self.schedule.clone(), fallback)
    }

    /// Boots a machine that replays this trace's inputs concretely.
    pub fn machine(&self, program: &Arc<Program>, cfg: VmConfig) -> Machine {
        Machine::new(
            Arc::clone(program),
            InputSource::new(
                InputSpec::concrete(self.inputs.clone()),
                InputMode::Concrete,
            ),
            cfg,
        )
    }

    /// Boots a machine with the leading inputs made symbolic per `spec`
    /// (multi-path analysis, paper §3.3). The spec's concrete values are
    /// replaced by this trace's input log so non-symbolic positions replay
    /// exactly.
    pub fn machine_symbolic(
        &self,
        program: &Arc<Program>,
        spec: &InputSpec,
        cfg: VmConfig,
    ) -> Machine {
        let merged = InputSpec {
            values: self.inputs.clone(),
            symbolic: spec.symbolic.clone(),
        };
        Machine::new(
            Arc::clone(program),
            InputSource::new(merged, InputMode::Symbolic),
            cfg,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_roundtrip() {
        let tr = ExecutionTrace::new(vec![ThreadId(1), ThreadId(0)], vec![5]);
        let mut s = tr.scheduler();
        assert!(!s.diverged());
        let picked = s.pick(
            &[ThreadId(0), ThreadId(1)],
            &[ThreadId(0), ThreadId(1)],
            ThreadId(0),
        );
        assert_eq!(picked, ThreadId(1));
    }
}
