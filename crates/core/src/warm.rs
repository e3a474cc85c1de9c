//! Where a pipeline run's solver cache comes from — and where its warm
//! capital goes when the run finishes.
//!
//! Before this seam existed, `FarmKnobs::cache_path` was a special case
//! wired directly into `Pipeline::run*`: the only way to warm-start was
//! a hand-pointed store file. [`WarmSource`] turns that into one of
//! four interchangeable lifecycles, so the knob path, an explicit path,
//! a caller-owned cache (the resident daemon's per-program cache), and
//! a managed [`StoreManager`] directory all flow through the same two
//! calls — [`WarmSource::acquire`] before classification and
//! [`WarmSource::release`] after — on both the serial and the parallel
//! path. Verdicts never depend on the variant: the cache is
//! answer-preserving, and every store failure is a clean cold start.

use std::path::PathBuf;
use std::sync::Arc;

use portend_symex::{SolverCache, StoreManager};

use crate::config::FarmKnobs;

/// A pipeline run's warm-store lifecycle: how the shared solver cache
/// is built/warmed before classification and persisted after.
#[derive(Debug, Clone, Default)]
pub enum WarmSource {
    /// Derive everything from the run's [`FarmKnobs`]: build a cache
    /// when `solver_cache` is on and warm/save via `cache_path` when
    /// set. The pre-seam behavior, and the default — `Pipeline::run`
    /// and `run_parallel*` without an explicit source use this.
    #[default]
    Knobs,
    /// Warm from and save to this store path (unkeyed), regardless of
    /// `FarmKnobs::cache_path`. Still gated on `FarmKnobs::solver_cache`
    /// (no cache, nothing to warm).
    Path(PathBuf),
    /// Use a caller-owned cache as-is: no store I/O in either
    /// direction, no reconfiguration (the owner already chose the
    /// sharding). The daemon uses this to let warm capital
    /// compound in-memory across requests.
    Borrowed(Arc<SolverCache>),
    /// A managed per-program store directory. `acquire` warms from the
    /// store keyed by `fingerprint` (touching its LRU recency);
    /// `release` saves back through the manager, which then enforces
    /// the directory budget.
    Manager {
        /// The store directory manager (shared across requests).
        manager: Arc<StoreManager>,
        /// The program fingerprint the run analyzes
        /// (`portend_vm::Program::fingerprint`).
        fingerprint: u64,
        /// A resident cache to reuse (daemon case); `None` builds a
        /// fresh one per the knobs.
        cache: Option<Arc<SolverCache>>,
    },
}

impl WarmSource {
    /// Builds (or borrows) the run's shared solver cache and warms it
    /// from this source's store. A missing, stale, foreign, or corrupt
    /// store is a clean cold start — classification must never fail
    /// because last run's warm capital didn't survive; a *foreign*
    /// store additionally marks the cache's
    /// `warm_rejected_fingerprint` counter so the rejection is never
    /// silent.
    pub(crate) fn acquire(&self, knobs: &FarmKnobs) -> Option<Arc<SolverCache>> {
        let fresh = || Arc::new(SolverCache::new(knobs.cache_shards));
        match self {
            WarmSource::Knobs => {
                let cache = knobs.solver_cache.then(fresh)?;
                if let Some(path) = &knobs.cache_path {
                    let _ = cache.warm_from(path);
                }
                Some(cache)
            }
            WarmSource::Path(path) => {
                let cache = knobs.solver_cache.then(fresh)?;
                let _ = cache.warm_from(path);
                Some(cache)
            }
            WarmSource::Borrowed(cache) => Some(Arc::clone(cache)),
            WarmSource::Manager {
                manager,
                fingerprint,
                cache,
            } => {
                let cache = cache.clone().unwrap_or_else(fresh);
                let _ = manager.load_into(*fingerprint, &cache);
                Some(cache)
            }
        }
    }

    /// Persists the run's cache back through this source. Failures
    /// (full disk, unwritable path) are deliberately swallowed: the
    /// store is an optimization, the verdicts are already computed.
    pub(crate) fn release(&self, knobs: &FarmKnobs, cache: Option<&Arc<SolverCache>>) {
        let Some(cache) = cache else { return };
        match self {
            WarmSource::Knobs => {
                if let Some(path) = &knobs.cache_path {
                    let _ = cache.save_to(path, &knobs.cache_save_policy);
                }
            }
            WarmSource::Path(path) => {
                let _ = cache.save_to(path, &knobs.cache_save_policy);
            }
            WarmSource::Borrowed(_) => {}
            WarmSource::Manager {
                manager,
                fingerprint,
                ..
            } => {
                let _ = manager.save_from(*fingerprint, cache);
            }
        }
    }
}
