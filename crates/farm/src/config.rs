//! Farm configuration: the pool width.

/// Configuration of a [`crate::Farm`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FarmConfig {
    /// Worker threads. `0` means "one per available CPU".
    pub workers: usize,
}

impl FarmConfig {
    /// A configuration with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        FarmConfig { workers }
    }

    /// The actual pool width: `workers`, or the machine's available
    /// parallelism when `workers == 0`, further capped by `jobs` (no point
    /// spawning idle threads) and floored at 1.
    pub fn effective_workers(&self, jobs: usize) -> usize {
        let requested = if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        };
        requested.min(jobs.max(1)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_workers_is_capped_by_jobs_and_floored() {
        let cfg = FarmConfig::with_workers(8);
        assert_eq!(cfg.effective_workers(3), 3);
        assert_eq!(cfg.effective_workers(100), 8);
        assert_eq!(cfg.effective_workers(0), 1);
        assert!(FarmConfig::default().effective_workers(64) >= 1);
    }
}
