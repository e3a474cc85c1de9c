//! State-of-the-art baselines Portend is compared against (paper §5.4,
//! Table 5): the Record/Replay-Analyzer \[45\], ad-hoc-synchronization
//! detectors (Helgrind+ \[27\] / Ad-Hoc-Detector \[55\]), and DataCollider's
//! heuristic pruning \[29\].

use std::fmt;

use portend_race::RaceReport;
use portend_vm::{Inst, Operand, Watch};

use crate::case::AnalysisCase;
use crate::classify::ClassifyError;
use crate::config::{enforce_budget, STEP_BUDGET};
use crate::enforce::{enforce_alternate, EnforceOutcome};
use crate::locate::locate_race;
use crate::supervise::{SupStop, Supervisor};

/// The Record/Replay-Analyzer's two-way verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RraVerdict {
    /// "Likely harmful": replay failed or the post-race states differ.
    LikelyHarmful,
    /// "Likely harmless": post-race states identical.
    LikelyHarmless,
}

impl fmt::Display for RraVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RraVerdict::LikelyHarmful => write!(f, "likely harmful"),
            RraVerdict::LikelyHarmless => write!(f, "likely harmless"),
        }
    }
}

/// Record/Replay-Analyzer (paper §2.1): replays the execution enforcing
/// the reversed access order and compares the *concrete state* (registers
/// and memory) immediately after the race. Replay failures — which is
/// what ad-hoc synchronization causes — are conservatively classified
/// harmful; this is the main source of its 74% false positive rate (§1).
#[derive(Debug, Clone, Copy, Default)]
pub struct RecordReplayAnalyzer;

impl RecordReplayAnalyzer {
    /// A fresh analyzer.
    pub fn new() -> Self {
        RecordReplayAnalyzer
    }

    /// Classifies one race.
    ///
    /// # Errors
    ///
    /// Fails when the race cannot be located in the trace replay.
    pub fn classify(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
    ) -> Result<RraVerdict, ClassifyError> {
        let located = locate_race(case, race, STEP_BUDGET * 2)?;
        let cell = Watch::cell(race.alloc, race.offset as i64);

        // Enforce the alternate ordering once, with no diagnosis probes.
        let (mut am, mut asched) = located.pre.clone();
        let mut sup = Supervisor::new(enforce_budget(located.replay_steps));
        match enforce_alternate(&mut am, &mut asched, &mut sup, race, &[]) {
            EnforceOutcome::Swapped => {}
            // Replay failure (retry divergence, timeout, stuck, crash,
            // early exit) ⇒ conservatively harmful (paper §2.1/§5.4).
            _ => return Ok(RraVerdict::LikelyHarmful),
        }
        // Wait for the first thread's access so both sides of the race
        // have executed, then compare raw state.
        sup.suspended.clear();
        sup.race_watches = vec![cell.by(race.first.tid)];
        match sup.run(&mut am, &mut asched, &[]) {
            SupStop::RaceHit(_) => {
                if sup.step_over_checked(&mut am, &[]).is_some() {
                    return Ok(RraVerdict::LikelyHarmful);
                }
            }
            _ => return Ok(RraVerdict::LikelyHarmful),
        }
        let same = am.mem.fingerprint() == located.post.0.mem.fingerprint();
        Ok(if same {
            RraVerdict::LikelyHarmless
        } else {
            RraVerdict::LikelyHarmful
        })
    }
}

/// Verdict of the ad-hoc-synchronization detectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdHocVerdict {
    /// The accesses can only occur in one order (busy-wait style
    /// synchronization): pruned as harmless.
    SingleOrdering,
    /// Not an ad-hoc-synchronization pattern; these tools make no claim.
    NotClassified,
}

impl fmt::Display for AdHocVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdHocVerdict::SingleOrdering => write!(f, "single ordering"),
            AdHocVerdict::NotClassified => write!(f, "not classified"),
        }
    }
}

/// Helgrind+ / Ad-Hoc-Detector stand-in (paper §2.1, §5.4): identifies
/// races whose accesses are ordered by ad-hoc synchronization and prunes
/// them; all other races are left unclassified.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdHocDetector;

impl AdHocDetector {
    /// A fresh detector.
    pub fn new() -> Self {
        AdHocDetector
    }

    /// Classifies one race.
    ///
    /// # Errors
    ///
    /// Fails when the race cannot be located in the trace replay.
    pub fn classify(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
    ) -> Result<AdHocVerdict, ClassifyError> {
        let located = locate_race(case, race, STEP_BUDGET * 2)?;
        let cell = Watch::cell(race.alloc, race.offset as i64);
        let (mut am, mut asched) = located.pre.clone();
        let mut sup = Supervisor::new(enforce_budget(located.replay_steps));
        match enforce_alternate(&mut am, &mut asched, &mut sup, race, &[]) {
            // A busy-wait retry on the racy cell is ad-hoc synchronization
            // by definition.
            EnforceOutcome::RetryLoop => Ok(AdHocVerdict::SingleOrdering),
            // The other thread spins or blocks while the writer is held
            // back, and resumes once it runs: ad-hoc synchronization.
            EnforceOutcome::Timeout | EnforceOutcome::Stuck => {
                sup.suspended.clear();
                sup.budget = enforce_budget(located.replay_steps);
                sup.race_watches = vec![cell.by(race.second.tid)];
                match sup.run(&mut am, &mut asched, &[]) {
                    SupStop::RaceHit(_) | SupStop::Completed => Ok(AdHocVerdict::SingleOrdering),
                    _ => Ok(AdHocVerdict::NotClassified),
                }
            }
            EnforceOutcome::Completed => Ok(AdHocVerdict::SingleOrdering),
            _ => Ok(AdHocVerdict::NotClassified),
        }
    }
}

/// DataCollider-style heuristic verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeuristicVerdict {
    /// Matched a known-benign pattern.
    LikelyBenign {
        /// Which pattern matched.
        pattern: &'static str,
    },
    /// No pattern matched; the tool reports the race as-is.
    Unknown,
}

/// DataCollider-style heuristic pruner (paper §2.1 \[29\]): purely static
/// pattern matching on the racing instructions — no execution. Recognizes
/// redundant same-value writes and statistics-counter updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct HeuristicClassifier;

impl HeuristicClassifier {
    /// A fresh classifier.
    pub fn new() -> Self {
        HeuristicClassifier
    }

    /// Applies the patterns to the racing instructions.
    pub fn classify(&self, case: &AnalysisCase, race: &RaceReport) -> HeuristicVerdict {
        let i1 = case.program.inst_at(race.first.pc);
        let i2 = case.program.inst_at(race.second.pc);
        // Redundant writes: both sides store the same immediate.
        if let (
            Some(Inst::Store {
                src: Operand::Imm(a),
                ..
            }),
            Some(Inst::Store {
                src: Operand::Imm(b),
                ..
            }),
        ) = (i1, i2)
        {
            if a == b {
                return HeuristicVerdict::LikelyBenign {
                    pattern: "redundant write",
                };
            }
        }
        // Statistics counter: a load-add-store increment racing with
        // another access to the same cell.
        for inst in [i1, i2].into_iter().flatten() {
            if let Inst::Store {
                src: Operand::Reg(_),
                ..
            } = inst
            {
                let name = &race.alloc_name;
                if name.contains("count") || name.contains("stat") || name.contains("hits") {
                    return HeuristicVerdict::LikelyBenign {
                        pattern: "statistics counter",
                    };
                }
            }
        }
        HeuristicVerdict::Unknown
    }
}
