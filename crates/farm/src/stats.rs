//! Aggregate statistics of one farm run.

use std::time::Duration;

use portend_symex::CacheSnapshot;

/// What one worker thread did during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Jobs this worker completed.
    pub jobs: u64,
    /// Of those, jobs stolen from another worker's queue.
    pub steals: u64,
    /// Time spent executing jobs (excludes queue waits).
    pub busy: Duration,
}

/// Aggregate statistics of one [`crate::Farm`] run, produced by
/// [`crate::FarmRun::join`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FarmStats {
    /// Jobs executed (every job runs exactly once).
    pub jobs: u64,
    /// Wall-clock time from pool start to last worker exit.
    pub wall: Duration,
    /// Sum of per-job execution times across all workers.
    pub busy_total: Duration,
    /// Per-worker breakdown, indexed by worker id.
    pub per_worker: Vec<WorkerStats>,
    /// Jobs obtained by stealing (a measure of imbalance absorbed).
    pub steals: u64,
    /// Solver-cache counters, when a cache was attached to the run.
    pub cache: Option<CacheSnapshot>,
    /// Bytes the jobs' copy-on-write exploration forks actually copied
    /// (eager snapshot cost plus lazy first-write copies). Filled by
    /// callers whose jobs report fork costs (the classification
    /// pipeline); zero otherwise.
    pub fork_bytes_copied: u64,
    /// Heap/log bytes fork snapshots shared structurally instead of
    /// copying — what eager deep-clone forks would have added.
    pub fork_bytes_shared: u64,
    /// Constraint slices the jobs' scoped solvers reused from their
    /// memos at fork feasibility checks instead of re-solving.
    pub fork_slices_reused: u64,
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

    /// Solver-cache whole-query hit fraction, when a cache was attached.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        self.cache.map(|c| c.hit_rate())
    }

    /// Solver-cache *slice-level* hit fraction, when a cache was
    /// attached and the run issued sliced queries (every classification
    /// does). This is the rate at which independent
    /// constraint slices — e.g. the pre-race prefix shared by all
    /// Mp × Ma combinations — were answered without solving.
    pub fn slice_hit_rate(&self) -> Option<f64> {
        self.cache.map(|c| c.slice_hit_rate())
    }

    /// Fraction of total fork bytes the copy-on-write snapshots shared
    /// instead of copying, in `[0, 1]`; `None` when no job reported
    /// fork costs.
    pub fn fork_shared_ratio(&self) -> Option<f64> {
        let total = self.fork_bytes_copied + self.fork_bytes_shared;
        (total > 0).then(|| self.fork_bytes_shared as f64 / total as f64)
    }

    /// Lookups answered from the persistent warm store across the run's
    /// jobs, when a cache was attached (see
    /// `portend_symex::CacheSnapshot::warm_hits`). `Some(0)` on a cold
    /// start.
    pub fn warm_hits(&self) -> Option<u64> {
        self.cache.map(|c| c.warm_hits)
    }

    /// One-line human-readable summary.
    ///
    /// Hit rates render as a percentage only when the cache was actually
    /// consulted at that granularity; a never-consulted level renders
    /// "n/a" rather than a misleading "0% hit".
    pub fn summary(&self) -> String {
        let cache = match self.cache {
            Some(c) => {
                let whole = if c.hits + c.misses > 0 {
                    format!("{:.0}% hit", 100.0 * c.hit_rate())
                } else {
                    "n/a".to_string()
                };
                let slices = if c.slice_hits + c.slice_misses > 0 {
                    format!(", slices {:.0}% hit", 100.0 * c.slice_hit_rate())
                } else {
                    String::new()
                };
                let warm = if c.warmed > 0 {
                    format!(", {} warm hits", c.warm_hits)
                } else {
                    String::new()
                };
                // Same n/a discipline as the hit rates: a run that
                // never met a foreign store renders nothing, while a
                // real rejection ("store is from another program") is
                // always visible.
                let rejected = if c.warm_rejected_fingerprint > 0 {
                    format!(", {} foreign store rejected", c.warm_rejected_fingerprint)
                } else {
                    String::new()
                };
                format!(
                    ", cache {whole} ({} entries{slices}{warm}{rejected})",
                    c.entries
                )
            }
            None => String::new(),
        };
        let forks = match self.fork_shared_ratio() {
            Some(r) => format!(
                ", forks {:.0}% shared ({} slices reused)",
                100.0 * r,
                self.fork_slices_reused
            ),
            None => String::new(),
        };
        format!(
            "{} jobs on {} workers in {:.3}s (util {:.0}%, {} steals{cache}{forks})",
            self.jobs,
            self.per_worker.len(),
            self.wall.as_secs_f64(),
            100.0 * self.utilization(),
            self.steals,
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
            ..Default::default()
        };
        assert!((stats.utilization() - 0.75).abs() < 1e-9);
        assert_eq!(stats.cache_hit_rate(), None);
        assert_eq!(stats.slice_hit_rate(), None);
        assert!(stats.summary().contains("4 jobs on 2 workers"));
    }

    #[test]
    fn slice_hit_rate_surfaces_in_summary() {
        let stats = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                slice_hits: 3,
                slice_misses: 1,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert_eq!(stats.slice_hit_rate(), Some(0.75));
        assert!(
            stats.summary().contains("slices 75% hit"),
            "{}",
            stats.summary()
        );
        // No sliced queries -> the slice clause is omitted.
        let whole_only = FarmStats {
            cache: Some(portend_symex::CacheSnapshot::default()),
            ..Default::default()
        };
        assert!(!whole_only.summary().contains("slices"));
    }

    /// Regression: a cache that was attached but never consulted must
    /// render "n/a", not "0% hit" (`hit_rate()` returns `0.0` for zero
    /// lookups, which the summary previously presented as a measured
    /// zero).
    #[test]
    fn unconsulted_cache_renders_na_not_zero_percent() {
        let never_consulted = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                entries: 3, // warm-loaded entries, say — still no lookups
                ..Default::default()
            }),
            ..Default::default()
        };
        let s = never_consulted.summary();
        assert!(s.contains("cache n/a"), "{s}");
        assert!(!s.contains("0% hit"), "{s}");
        // A consulted cache still renders its measured rate, including
        // a genuine 0%.
        let all_misses = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                misses: 4,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(all_misses.summary().contains("cache 0% hit"));
    }

    /// Warm-store hits surface in the summary only when the run was
    /// actually warmed.
    #[test]
    fn warm_hits_surface_in_summary() {
        let warmed = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                warmed: 10,
                warm_hits: 7,
                slice_hits: 7,
                slice_misses: 3,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert_eq!(warmed.warm_hits(), Some(7));
        assert!(
            warmed.summary().contains("7 warm hits"),
            "{}",
            warmed.summary()
        );
        let cold = FarmStats {
            cache: Some(portend_symex::CacheSnapshot::default()),
            ..Default::default()
        };
        assert!(!cold.summary().contains("warm"));
        assert_eq!(FarmStats::default().warm_hits(), None);
    }

    /// A foreign-fingerprint store rejection ("store is from another
    /// program") renders in the summary; the clause follows the n/a
    /// discipline — absent on every run that never met a foreign store.
    #[test]
    fn rejected_fingerprint_surfaces_in_summary_only_when_nonzero() {
        let rejected = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                warm_rejected_fingerprint: 1,
                misses: 4,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(
            rejected.summary().contains("1 foreign store rejected"),
            "{}",
            rejected.summary()
        );
        let clean = FarmStats {
            cache: Some(portend_symex::CacheSnapshot {
                warmed: 5,
                warm_hits: 2,
                ..Default::default()
            }),
            ..Default::default()
        };
        assert!(!clean.summary().contains("foreign"), "{}", clean.summary());
    }
}
