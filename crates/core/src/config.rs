//! Portend configuration: the Mp/Ma "dial" and the analysis-stage
//! toggles, plus the fixed budgets every analysis runs under.

/// Instruction budget for replaying to the race and for each post-race
/// continuation.
pub(crate) const STEP_BUDGET: u64 = 400_000;

/// The alternate-ordering enforcement budget's multiple of the primary's
/// replay cost ("5 times what it took Portend to replay the primary
/// execution", paper §4).
const ENFORCE_BUDGET_FACTOR: u64 = 5;

/// Bound on states forked during multi-path analysis (guards against
/// pathological fork explosion).
pub(crate) const MAX_EXPLORATION_STATES: u64 = 256;

/// Seed for alternate-schedule randomization.
pub(crate) const SCHEDULE_SEED: u64 = 0x9e3779b9;

/// Instruction budget for enforcing the alternate ordering of a race
/// whose replay took `replay_steps`.
pub(crate) fn enforce_budget(replay_steps: u64) -> u64 {
    replay_steps * ENFORCE_BUDGET_FACTOR + 10_000
}

/// Which analysis techniques are enabled — the axes of the paper's Fig. 7
/// accuracy breakdown. All stages build on single-pre/single-post
/// analysis (always on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisStages {
    /// Distinguish ad-hoc synchronization from true hangs when the
    /// alternate schedule cannot be enforced (paper §3.2). When disabled,
    /// enforcement failures are conservatively classified "spec violated"
    /// (the behavior of replay-based classifiers, §5.4).
    pub adhoc_detection: bool,
    /// Multi-path analysis with symbolic inputs (Algorithm 2, §3.3).
    pub multi_path: bool,
    /// Post-race schedule randomization for alternates (§3.4).
    pub multi_schedule: bool,
}

impl AnalysisStages {
    /// Everything on (Portend's default).
    pub fn full() -> Self {
        AnalysisStages {
            adhoc_detection: true,
            multi_path: true,
            multi_schedule: true,
        }
    }

    /// Single-pre/single-post only (the Fig. 7 baseline bar).
    pub fn single_path() -> Self {
        AnalysisStages {
            adhoc_detection: false,
            multi_path: false,
            multi_schedule: false,
        }
    }
}

impl Default for AnalysisStages {
    fn default() -> Self {
        Self::full()
    }
}

/// Portend's configuration (paper §3.3: "Portend offers two parameters to
/// control this growth: an upper bound Mp on the number of primary paths
/// explored, and the number and size of symbolic inputs"; §3.4 adds Ma).
#[derive(Debug, Clone, PartialEq)]
pub struct PortendConfig {
    /// Upper bound on primary paths explored (paper's `Mp`; evaluation
    /// uses 5).
    pub mp: usize,
    /// Alternate schedules per primary (paper's `Ma`; evaluation uses 2).
    pub ma: usize,
    /// Enabled analysis stages.
    pub stages: AnalysisStages,
    /// Event tracing (`portend-obs`). Off (the default) records nothing
    /// and costs nothing — every emission site collapses to one
    /// thread-local read. On records phase/solver/farm/cache events
    /// into per-thread lanes and returns the merged
    /// [`portend_obs::Trace`] on the pipeline result; the pipeline
    /// writes no file. Tracing never changes a verdict or a stats
    /// counter: the recorder only *observes* (see the equivalence tests
    /// in `tests/run_report.rs`).
    pub trace: bool,
}

impl Default for PortendConfig {
    fn default() -> Self {
        PortendConfig {
            mp: 5,
            ma: 2,
            stages: AnalysisStages::full(),
            trace: false,
        }
    }
}

impl PortendConfig {
    /// The `k` this configuration can certify: `Mp × Ma` (paper §3.4).
    pub fn k(&self) -> u64 {
        (self.mp * self.ma.max(1)) as u64
    }

    /// A configuration targeting a specific `k` by adjusting `Mp` while
    /// keeping `Ma = 2` where possible (used by the Fig. 10 sweep).
    pub fn with_k(k: usize) -> Self {
        let (mp, ma) = if k <= 1 {
            (1, 1)
        } else if k.is_multiple_of(2) {
            (k / 2, 2)
        } else {
            (k, 1)
        };
        PortendConfig {
            mp,
            ma,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_evaluation() {
        let c = PortendConfig::default();
        assert_eq!(c.mp, 5);
        assert_eq!(c.ma, 2);
        assert_eq!(c.k(), 10);
        assert!(c.stages.adhoc_detection);
    }

    #[test]
    fn with_k_hits_target() {
        assert_eq!(PortendConfig::with_k(1).k(), 1);
        assert_eq!(PortendConfig::with_k(6).k(), 6);
        assert_eq!(PortendConfig::with_k(7).k(), 7);
        assert_eq!(PortendConfig::with_k(10).k(), 10);
    }

    #[test]
    fn stage_presets() {
        assert!(!AnalysisStages::single_path().multi_path);
        assert!(AnalysisStages::full().multi_schedule);
    }
}
