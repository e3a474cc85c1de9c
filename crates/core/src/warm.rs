//! Where a pipeline run's solver cache comes from — and where its warm
//! capital goes when the run finishes.
//!
//! [`WarmSource`] has two independent parts. `cache` picks the cache to
//! classify with: a caller-owned resident cache (the daemon's
//! per-program cache) or, by default, a fresh one. `store` names a
//! managed [`StoreManager`] directory and the program fingerprint to
//! warm from before classification and save back to after. Every
//! front end (library, CLI, daemon) reaches the farm through
//! `Pipeline::run`, which makes the same two calls —
//! [`WarmSource::acquire`] and [`WarmSource::release`]. Verdicts never
//! depend on either part: the cache is answer-preserving, and every
//! store failure is a clean cold start.

use std::sync::Arc;

use portend_symex::{SolverCache, StoreManager, DEFAULT_SHARDS};

/// A pipeline run's warm-store lifecycle: which shared solver cache
/// the run classifies with, and which managed store warms it before
/// classification and persists it after. The default is a fresh cache
/// and no store.
#[derive(Debug, Clone, Default)]
pub struct WarmSource {
    /// A caller-owned cache to classify with, reused as-is (the daemon
    /// lets warm capital compound in memory across requests). `None`
    /// builds a fresh cache at [`DEFAULT_SHARDS`] for the run.
    pub cache: Option<Arc<SolverCache>>,
    /// A managed store directory and the fingerprint of the program the
    /// run analyzes (`portend_vm::Program::fingerprint`). `acquire`
    /// warms from the store keyed by that fingerprint (touching its LRU
    /// recency); `release` saves back through the manager, which then
    /// enforces the directory budget. `None` does no store I/O.
    pub store: Option<(Arc<StoreManager>, u64)>,
}

impl WarmSource {
    /// Builds (or borrows) the run's shared solver cache and warms it
    /// from the store, if any. A missing, stale, foreign, or corrupt
    /// store is a clean cold start — classification must never fail
    /// because last run's warm capital didn't survive; a *foreign*
    /// store additionally marks the cache's
    /// `warm_rejected_fingerprint` counter so the rejection is never
    /// silent.
    pub(crate) fn acquire(&self) -> Arc<SolverCache> {
        let cache = self
            .cache
            .clone()
            .unwrap_or_else(|| Arc::new(SolverCache::new(DEFAULT_SHARDS)));
        if let Some((manager, fingerprint)) = &self.store {
            let _ = manager.load_into(*fingerprint, &cache);
        }
        cache
    }

    /// Persists the run's cache back to the store, if any. Failures
    /// (full disk, unwritable path) are deliberately swallowed: the
    /// store is an optimization, the verdicts are already computed.
    pub(crate) fn release(&self, cache: &SolverCache) {
        if let Some((manager, fingerprint)) = &self.store {
            let _ = manager.save_from(*fingerprint, cache);
        }
    }
}
