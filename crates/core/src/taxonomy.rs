//! The four-category race taxonomy (paper §2.3, Fig. 1) and verdicts.

use std::fmt;

use portend_vm::{ThreadId, VmError};

/// Portend's four race categories.
///
/// The paper's Fig. 1 taxonomy: true races split into harmful
/// ("spec violated") and three progressively-weaker harmless-or-unknown
/// classes ("output differs", "k-witness harmless", "single ordering").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceClass {
    /// At least one ordering of the racing accesses violates the program's
    /// specification (crash, deadlock, infinite loop, memory error, or a
    /// user-supplied semantic predicate). Definitely harmful.
    SpecViolated,
    /// The two orderings can produce different program output; whether
    /// that matters is the developer's call, so Portend attaches evidence.
    OutputDiffers,
    /// Harmless in at least `k` explored path × schedule combinations.
    KWitnessHarmless,
    /// Only one ordering of the accesses is possible (typically ad-hoc
    /// synchronization); harmless.
    SingleOrdering,
}

impl RaceClass {
    /// The paper's short label for the category.
    pub fn label(self) -> &'static str {
        match self {
            RaceClass::SpecViolated => "specViol",
            RaceClass::OutputDiffers => "outDiff",
            RaceClass::KWitnessHarmless => "k-witness",
            RaceClass::SingleOrdering => "singleOrd",
        }
    }

    /// Whether the category is definitely harmful.
    pub fn is_harmful(self) -> bool {
        matches!(self, RaceClass::SpecViolated)
    }
}

impl fmt::Display for RaceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The kind of specification violation behind a `specViol` verdict
/// (Table 2 splits these into deadlock / crash / semantic).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecViolationKind {
    /// A crash: memory error, division by zero, overflow, failed assert.
    Crash(VmError),
    /// A deadlock.
    Deadlock(VmError),
    /// An infinite loop (a loop whose exit condition can no longer
    /// change).
    InfiniteLoop {
        /// The thread diagnosed as spinning forever.
        spinning: ThreadId,
    },
    /// A user-supplied semantic predicate was violated.
    Semantic {
        /// The predicate's violation message.
        message: String,
    },
}

impl SpecViolationKind {
    /// Table 2 column for this violation.
    pub fn table2_column(&self) -> &'static str {
        match self {
            SpecViolationKind::Crash(_) => "crash",
            SpecViolationKind::Deadlock(_) => "deadlock",
            SpecViolationKind::InfiniteLoop { .. } => "hang",
            SpecViolationKind::Semantic { .. } => "semantic",
        }
    }
}

impl From<VmError> for SpecViolationKind {
    /// A deadlock error is a deadlock; every other VM error is a crash.
    fn from(e: VmError) -> Self {
        match e {
            VmError::Deadlock(_) => SpecViolationKind::Deadlock(e),
            _ => SpecViolationKind::Crash(e),
        }
    }
}

impl fmt::Display for SpecViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecViolationKind::Crash(e) => write!(f, "crash: {e}"),
            SpecViolationKind::Deadlock(e) => write!(f, "{e}"),
            SpecViolationKind::InfiniteLoop { spinning } => {
                write!(f, "infinite loop in {spinning}")
            }
            SpecViolationKind::Semantic { message } => write!(f, "semantic violation: {message}"),
        }
    }
}

/// Replayable evidence of a harmful consequence: the concrete inputs and
/// the thread schedule that reproduce it deterministically (paper §3:
/// "it provides the corresponding evidence in the form of program inputs
/// … and thread schedule").
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayEvidence {
    /// Concrete program inputs.
    pub inputs: Vec<i64>,
    /// Scheduler decisions reproducing the consequence.
    pub schedule: Vec<ThreadId>,
    /// Human-readable description of what happens on replay.
    pub description: String,
}

/// Evidence for an "output differs" verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OutputDiffEvidence {
    /// First position at which the outputs provably diverge. When one
    /// log is a strict prefix of the other, this is the prefix length —
    /// the index of the first extra output operation.
    pub position: usize,
    /// The primary's output at that position (symbolic constraint or
    /// concrete value, printed; `<missing>` past the primary's end).
    pub primary: String,
    /// The alternate's output at that position (or `<missing>`).
    pub alternate: String,
    /// The output channel the primary wrote at that position, when the
    /// divergence is (partly) a channel mismatch — the "first provable
    /// divergence" refinement also covers fd-only mismatches inside the
    /// common prefix.
    pub primary_fd: Option<i64>,
    /// The channel the alternate wrote at that position.
    pub alternate_fd: Option<i64>,
    /// Total output operations the primary performed.
    pub primary_len: usize,
    /// Total output operations the alternate performed.
    pub alternate_len: usize,
    /// Location (`file:line (function)`) where the primary emitted it.
    pub primary_loc: String,
    /// The inputs under which the difference manifests.
    pub inputs: Vec<i64>,
}

impl OutputDiffEvidence {
    /// The `(primary_fd, alternate_fd)` pair for a divergence position:
    /// populated only when both records exist and their channels differ.
    /// Shared by the concrete (`single`) and symbolic (`outcmp`)
    /// comparison paths so the fd-parity refinement cannot drift
    /// between them.
    pub(crate) fn fd_pair(
        p: Option<&portend_vm::OutputRec>,
        a: Option<&portend_vm::OutputRec>,
    ) -> (Option<i64>, Option<i64>) {
        match (p, a) {
            (Some(x), Some(y)) if x.fd != y.fd => (Some(x.fd), Some(y.fd)),
            _ => (None, None),
        }
    }
}

/// Detailed findings attached to a verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum VerdictDetail {
    /// A specification violation, with replay evidence.
    SpecViolation {
        /// What was violated.
        kind: SpecViolationKind,
        /// How to reproduce it.
        replay: ReplayEvidence,
    },
    /// An output difference, with the differing positions.
    OutputDiff(OutputDiffEvidence),
    /// Harmless for all explored combinations.
    KWitness,
    /// Alternate ordering impossible; ad-hoc synchronization suspected.
    AdHocSync,
}

/// Work counters for one classification (feeds Table 4 and Fig. 9).
///
/// `instructions` and `preemptions` are *totals across all executions*:
/// each execution segment (replay, Algorithm 1's primary/alternate runs,
/// every multi-path exploration state) contributes its own delta exactly
/// once — forked states only count what they executed after the fork.
/// The deepest single path is reported separately as
/// `max_path_instructions`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassifyStats {
    /// Primary paths explored (≤ Mp).
    pub primaries: u64,
    /// Alternate executions run.
    pub alternates: u64,
    /// Preemption points encountered, summed across all executions.
    pub preemptions: u64,
    /// Branches that depended on symbolic input (Fig. 9's x-axis).
    pub dependent_branches: u64,
    /// Total VM instructions executed during classification, summed
    /// across all executions. This is the logical count (what full
    /// interpretation executes) that Table 4 and Fig. 9 use.
    pub instructions: u64,
    /// The part of `instructions` actually interpreted: the rest were
    /// repetitions of exactly repeating, write-free cycles that `drive`
    /// fast-forwarded (enforcement timeouts spinning out their budget).
    pub interpreted: u64,
    /// Maximum cumulative instruction count along any single explored
    /// path (exploration depth; `0` when multi-path analysis did not
    /// run).
    pub max_path_instructions: u64,
    /// Bytes the multi-path explorer's copy-on-write forks actually
    /// copied: the eager per-fork cost (thread stacks, path condition)
    /// plus every lazy first-write-after-fork copy, summed per state
    /// segment. A deep-cloning explorer would have copied
    /// `bytes_copied_on_fork + bytes_shared_on_fork`.
    pub bytes_copied_on_fork: u64,
    /// Heap and log bytes fork snapshots shared structurally instead of
    /// copying, summed over all forks.
    pub bytes_shared_on_fork: u64,
    /// Constraint slices the explorer's feasibility checks answered from
    /// the race's slice memo (typically a parent state's already-solved
    /// slices at a fork) instead of re-solving.
    pub slices_reused_at_fork: u64,
}

/// The result of classifying one race.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// The assigned category.
    pub class: RaceClass,
    /// Detailed evidence.
    pub detail: VerdictDetail,
    /// For `KWitnessHarmless`: the number of witnessing path × schedule
    /// combinations (`k = Mp × Ma`, paper §3.4).
    pub k: u64,
    /// Whether the post-race concrete states of primary and alternate
    /// differed (Table 3's "states same / differ" columns, computed the
    /// way the Record/Replay-Analyzer baseline would).
    pub states_differ: Option<bool>,
    /// Work counters.
    pub stats: ClassifyStats,
}

impl Verdict {
    /// Shorthand constructor for a spec-violation verdict.
    pub fn spec_violation(kind: SpecViolationKind, replay: ReplayEvidence) -> Self {
        Verdict {
            class: RaceClass::SpecViolated,
            detail: VerdictDetail::SpecViolation { kind, replay },
            k: 0,
            states_differ: None,
            stats: ClassifyStats::default(),
        }
    }

    /// Shorthand constructor for an output-differs verdict.
    pub(crate) fn output_differs(
        evidence: OutputDiffEvidence,
        states_differ: Option<bool>,
    ) -> Self {
        Verdict {
            class: RaceClass::OutputDiffers,
            detail: VerdictDetail::OutputDiff(evidence),
            k: 0,
            states_differ,
            stats: ClassifyStats::default(),
        }
    }

    /// Shorthand constructor for a single-ordering verdict.
    pub fn single_ordering() -> Self {
        Verdict {
            class: RaceClass::SingleOrdering,
            detail: VerdictDetail::AdHocSync,
            k: 0,
            states_differ: None,
            stats: ClassifyStats::default(),
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.detail {
            VerdictDetail::SpecViolation { kind, .. } => {
                write!(f, "{} ({kind})", self.class)
            }
            VerdictDetail::OutputDiff(d) => {
                write!(
                    f,
                    "{} (position {}: {} vs {})",
                    self.class, d.position, d.primary, d.alternate
                )
            }
            VerdictDetail::KWitness => write!(f, "{} (k = {})", self.class, self.k),
            VerdictDetail::AdHocSync => write!(f, "{}", self.class),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper() {
        assert_eq!(RaceClass::SpecViolated.label(), "specViol");
        assert_eq!(RaceClass::OutputDiffers.label(), "outDiff");
        assert_eq!(RaceClass::KWitnessHarmless.label(), "k-witness");
        assert_eq!(RaceClass::SingleOrdering.label(), "singleOrd");
        assert!(RaceClass::SpecViolated.is_harmful());
        assert!(!RaceClass::SingleOrdering.is_harmful());
    }

    #[test]
    fn table2_columns() {
        let il = SpecViolationKind::InfiniteLoop {
            spinning: ThreadId(1),
        };
        assert_eq!(il.table2_column(), "hang");
        assert_eq!(
            SpecViolationKind::Semantic {
                message: "x".into()
            }
            .table2_column(),
            "semantic"
        );
    }

    #[test]
    fn verdict_display() {
        let v = Verdict::single_ordering();
        assert_eq!(v.to_string(), "singleOrd");
        let v = Verdict::spec_violation(
            SpecViolationKind::Semantic {
                message: "ts < 0".into(),
            },
            ReplayEvidence::default(),
        );
        assert!(v.to_string().contains("specViol"));
        assert!(v.to_string().contains("ts < 0"));
    }
}
