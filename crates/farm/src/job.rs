//! Classification jobs and the harmfulness-first priority heuristic.

use std::time::Duration;

use portend_race::RaceCluster;

/// One unit of farm work: an opaque payload plus scheduling metadata.
///
/// `index` is the caller's identifier (for race classification, the
/// cluster's detection-order position); results carry it back so callers
/// can restore deterministic ordering regardless of completion order.
#[derive(Debug, Clone)]
pub struct JobSpec<T> {
    /// Caller-chosen job identifier, echoed in [`crate::JobOutput`].
    pub index: usize,
    /// Scheduling priority; higher runs earlier (see [`cluster_priority`]).
    pub priority: u64,
    /// The job's payload, handed to the worker function.
    pub payload: T,
}

impl<T> JobSpec<T> {
    /// A job with neutral priority.
    pub fn new(index: usize, payload: T) -> Self {
        JobSpec {
            index,
            priority: 0,
            payload,
        }
    }

    /// The same job with an explicit priority.
    pub fn with_priority(mut self, priority: u64) -> Self {
        self.priority = priority;
        self
    }
}

/// One finished job, as handed to the sink of [`crate::Farm::run`].
#[derive(Debug, Clone)]
pub struct JobOutput<R> {
    /// The caller's job identifier (see [`JobSpec::index`]).
    pub index: usize,
    /// What the worker function returned, or the message of the panic
    /// that ended it: one job's panic never takes down the run.
    pub result: Result<R, String>,
    /// Wall-clock execution time of this job.
    pub time: Duration,
}

/// Priority of a race cluster: suspected-harmful races first, so the
/// verdicts a developer most needs stream out of the farm earliest.
///
/// The heuristic uses only what the detector already knows (paper §3.1):
///
/// * **write/write** races can corrupt state in both orderings — most
///   suspect;
/// * **read/write** races can publish or observe a torn value — next;
/// * races whose *second* access executed within a few instructions of
///   the first (a tight window) are easier to flip and thus more likely
///   to manifest in production;
/// * heavily re-occurring clusters (high instance count) get a small
///   boost: their verdict amortizes over more dynamic occurrences.
pub fn cluster_priority(cluster: &RaceCluster) -> u64 {
    let r = &cluster.representative;
    let mut p: u64 = 0;
    if r.first.is_write && r.second.is_write {
        p += 4_000;
    } else if r.first.is_write || r.second.is_write {
        p += 2_000;
    }
    // The race window is an unordered distance: detectors may record
    // the representative with either access first, and a saturating
    // subtraction would collapse any reversed-step pair to 0 — handing
    // out the tight-window boost spuriously.
    let window = r.second.step.abs_diff(r.first.step);
    if window <= 16 {
        p += 1_000;
    } else if window <= 256 {
        p += 500;
    }
    p += cluster.instances.min(400);
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_race::{RaceAccess, RaceReport};
    use portend_vm::{AllocId, BlockId, FuncId, Pc, ThreadId};

    fn access(tid: u32, is_write: bool, step: u64) -> RaceAccess {
        RaceAccess {
            tid: ThreadId(tid),
            pc: Pc {
                func: FuncId(0),
                block: BlockId(0),
                idx: 0,
            },
            line: 0,
            is_write,
            step,
        }
    }

    fn cluster(w1: bool, w2: bool, gap: u64, instances: u64) -> RaceCluster {
        RaceCluster {
            representative: RaceReport {
                alloc: AllocId(0),
                alloc_name: "g".into(),
                offset: 0,
                first: access(0, w1, 100),
                second: access(1, w2, 100 + gap),
            },
            instances,
        }
    }

    #[test]
    fn write_write_outranks_read_write_outranks_tightness() {
        let ww = cluster_priority(&cluster(true, true, 1_000, 1));
        let rw = cluster_priority(&cluster(true, false, 1_000, 1));
        let tight_rw = cluster_priority(&cluster(false, true, 4, 1));
        assert!(ww > rw, "{ww} vs {rw}");
        assert!(tight_rw > rw);
        assert!(ww > tight_rw);
    }

    /// Regression for the race-window bugfix: a representative recorded
    /// with `second.step < first.step` used to saturate the window to 0
    /// and collect the +1000 tight-window boost regardless of the real
    /// distance. The window is `abs_diff`, so orientation is irrelevant
    /// and a genuinely wide reversed pair gets no boost.
    #[test]
    fn reversed_step_order_does_not_fake_a_tight_window() {
        let mut wide_reversed = cluster(false, true, 0, 1);
        wide_reversed.representative.first.step = 5_000;
        wide_reversed.representative.second.step = 100; // 4900 apart
        let mut tight_reversed = cluster(false, true, 0, 1);
        tight_reversed.representative.first.step = 104;
        tight_reversed.representative.second.step = 100; // 4 apart
        let tight_forward = cluster_priority(&cluster(false, true, 4, 1));
        assert_eq!(
            cluster_priority(&tight_reversed),
            tight_forward,
            "window is orientation-independent"
        );
        assert!(
            cluster_priority(&wide_reversed) < cluster_priority(&tight_reversed),
            "a wide reversed window must not collect the tight boost"
        );
    }

    #[test]
    fn instance_boost_is_bounded() {
        let few = cluster_priority(&cluster(true, true, 1_000, 2));
        let many = cluster_priority(&cluster(true, true, 1_000, 1_000_000));
        assert!(many > few);
        assert!(many - few <= 400);
    }
}
