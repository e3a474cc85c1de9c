//! Scenario conformance corpus: labeled concurrency idioms.
//!
//! The paper's evaluation rests on 7 fixed programs; this module opens
//! the workload space to the idioms real concurrent code is actually
//! built from — lock-free SPSC handoff, seqlocks, RCU-style
//! publication, double-checked locking, barrier reuse, lock-starved
//! readers, racy lazy initialization, ad-hoc flag synchronization —
//! each expressed in ~20 lines of the fluent [`portend_vm::ProgramBuilder`]
//! DSL and each carrying a ground-truth [`ExpectedVerdict`] per racy
//! allocation.
//!
//! The corpus deliberately includes *negative* programs
//! ([`negative_idioms`]): correctly synchronized code that must produce
//! **no** race report at all, pinning the detector's soundness side the
//! same way the positive idioms pin the classifier's.
//!
//! `tests/conformance.rs` runs every idiom once on one farm worker and
//! once on three, asserting that both equal each other and produced ==
//! expected for every cell, and renders the table
//! ([`ConformanceTable`]) as a CI artifact.

use std::sync::Arc;

use portend::{Pipeline, PipelineResult, PortendConfig, RaceClass, WarmSource};
use portend_replay::RecordConfig;
use portend_vm::{InputSpec, Program, Scheduler, VmConfig};

mod idioms;
mod matrix;
mod negative;
mod random;

pub use idioms::positive_idioms;
pub use matrix::{ConformanceTable, VerdictCell};
pub use negative::negative_idioms;
pub use random::{random_program, RandomShape};

/// Ground-truth label for one allocation of a conformance idiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExpectedVerdict {
    /// The allocation must produce **no** race report (the detector
    /// must prove it ordered).
    NoRace,
    /// Every race cluster on the allocation must classify as this.
    Class(RaceClass),
}

impl ExpectedVerdict {
    /// The paper-style short label (`"none"` for [`ExpectedVerdict::NoRace`]).
    pub fn label(&self) -> &'static str {
        match self {
            ExpectedVerdict::NoRace => "none",
            ExpectedVerdict::Class(c) => c.label(),
        }
    }
}

/// One labeled conformance idiom: a program model plus the expected
/// verdict for every shared allocation worth asserting on.
#[derive(Debug, Clone)]
pub struct Idiom {
    /// Idiom name (stable; used in the table artifact and CI output).
    pub name: &'static str,
    /// One-line description of the concurrency pattern modeled.
    pub summary: &'static str,
    /// Whether this is a negative program (must produce zero races).
    pub negative: bool,
    /// The model program.
    pub program: Arc<Program>,
    /// Concrete input log for the recorded run.
    pub inputs: Vec<i64>,
    /// Symbolic input declarations for multi-path analysis.
    pub input_spec: InputSpec,
    /// Scheduler for the recording run.
    pub scheduler: Scheduler,
    /// VM configuration.
    pub vm: VmConfig,
    /// `(allocation name, expected verdict)` — one entry per expected
    /// race *cluster*, so an allocation may appear more than once when
    /// its clusters classify differently (a multiset per allocation —
    /// see the `double_read` idiom). A [`ExpectedVerdict::NoRace`]
    /// entry asserts zero clusters on that allocation. Allocations
    /// that never race and are not listed are still covered by the
    /// suite's "no unlabeled cluster" assertion.
    pub expected: Vec<(&'static str, ExpectedVerdict)>,
}

impl Idiom {
    /// The expected class labels for `alloc`, sorted — empty for an
    /// unlabeled or [`ExpectedVerdict::NoRace`] allocation.
    pub fn expected_labels(&self, alloc: &str) -> Vec<&'static str> {
        let mut v: Vec<&'static str> = self
            .expected
            .iter()
            .filter(|(a, e)| *a == alloc && *e != ExpectedVerdict::NoRace)
            .map(|(_, e)| e.label())
            .collect();
        v.sort_unstable();
        v
    }

    /// Whether `alloc` carries a [`ExpectedVerdict::NoRace`] label.
    pub fn must_not_race(&self, alloc: &str) -> bool {
        self.expected
            .iter()
            .any(|(a, e)| *a == alloc && *e == ExpectedVerdict::NoRace)
    }

    /// All labeled allocation names, deduplicated, in label order.
    pub fn labeled_allocs(&self) -> Vec<&'static str> {
        let mut v = Vec::new();
        for (a, _) in &self.expected {
            if !v.contains(a) {
                v.push(*a);
            }
        }
        v
    }

    /// Runs the full detect + classify pipeline on one farm worker: the
    /// calling thread.
    pub fn analyze(&self, config: PortendConfig) -> PipelineResult {
        self.analyze_parallel(config, 1)
    }

    /// Like [`Idiom::analyze`], but classifies on the `portend-farm`
    /// pool with `workers` workers. Verdicts must be byte-identical to
    /// the one-worker run — that equivalence is a conformance assertion.
    pub fn analyze_parallel(&self, config: PortendConfig, workers: usize) -> PipelineResult {
        self.pipeline(config).run(
            &self.program,
            self.inputs.clone(),
            self.input_spec.clone(),
            vec![],
            workers,
            &WarmSource::default(),
            &mut |_, _, _| {},
        )
    }

    fn pipeline(&self, config: PortendConfig) -> Pipeline {
        Pipeline {
            record: RecordConfig {
                scheduler: self.scheduler.clone(),
                vm: self.vm,
                ..Default::default()
            },
            portend: config,
        }
    }
}

/// The full corpus: positive idioms (each with at least one labeled
/// race) followed by negative programs (which must report none).
pub fn all_idioms() -> Vec<Idiom> {
    let mut v = positive_idioms();
    v.extend(negative_idioms());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_shape() {
        let idioms = all_idioms();
        assert!(idioms.len() >= 12, "corpus too small: {}", idioms.len());
        let negatives = idioms.iter().filter(|i| i.negative).count();
        assert!(negatives >= 3, "need >=3 negative programs: {negatives}");
        // Names are unique (they key the table artifact).
        let names: std::collections::BTreeSet<_> = idioms.iter().map(|i| i.name).collect();
        assert_eq!(names.len(), idioms.len());
        for i in &idioms {
            if i.negative {
                assert!(
                    i.expected
                        .iter()
                        .all(|(_, v)| *v == ExpectedVerdict::NoRace),
                    "{}: negative idioms only carry NoRace labels",
                    i.name
                );
            } else {
                assert!(
                    i.expected
                        .iter()
                        .any(|(_, v)| matches!(v, ExpectedVerdict::Class(_))),
                    "{}: positive idioms must label at least one race",
                    i.name
                );
            }
        }
    }
}
