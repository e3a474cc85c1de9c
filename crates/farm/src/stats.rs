//! Aggregate statistics of one farm run.

use std::time::Duration;

/// What one worker did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Time spent executing jobs (excludes queue waits).
    pub busy: Duration,
}

/// Aggregate statistics of one [`crate::Farm::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmStats {
    /// Jobs executed (every job runs exactly once).
    pub jobs: u64,
    /// Wall-clock time from pool start until the last output reached
    /// the sink.
    pub wall: Duration,
    /// Sum of per-job execution times across all workers.
    pub busy_total: Duration,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
}

impl FarmStats {
    /// Mean worker utilization in `[0, 1]`: busy time over wall time,
    /// averaged across the pool. 1.0 means no worker ever waited.
    pub fn utilization(&self) -> f64 {
        let workers = self.per_worker.len();
        if workers == 0 || self.wall.is_zero() {
            return 0.0;
        }
        (self.busy_total.as_secs_f64() / self.wall.as_secs_f64() / workers as f64).min(1.0)
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        format!(
            "{} jobs on {} workers in {:.3}s (util {:.0}%)",
            self.jobs,
            self.per_worker.len(),
            self.wall.as_secs_f64(),
            100.0 * self.utilization(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_is_busy_over_wall_per_worker() {
        let stats = FarmStats {
            jobs: 4,
            wall: Duration::from_secs(2),
            busy_total: Duration::from_secs(3),
            per_worker: vec![WorkerStats::default(); 2],
        };
        assert!((stats.utilization() - 0.75).abs() < 1e-9);
        assert!(stats.summary().contains("4 jobs on 2 workers"));
    }
}
