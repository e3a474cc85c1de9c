//! Keyed directories of per-program warm stores.
//!
//! [`super::warm`] defines the on-disk format of *one* cache's store. A
//! resident analysis service outlives any single program: it needs a
//! *directory* of stores, one per program fingerprint. [`StoreManager`]
//! is that layer, and the only code that reads or writes a store.
//!
//! The store for fingerprint `f` lives at `dir/{f:016x}.warm`, and every
//! save writes `f` into the store header, so a renamed or copied file
//! still declares which program it belongs to. A load that finds a
//! foreign fingerprint inside the expected path reports it distinctly
//! ([`WarmLoadReport::rejected_fingerprint`]) and proceeds cold — never
//! silently. Nothing else lives in the directory, and nothing is ever
//! evicted: callers key it by the programs they analyze, so it holds
//! one small file per program they have saved.
//!
//! Loads and saves report through [`WarmLoadReport`] /
//! [`WarmSaveReport`], so a front end composes a run's warm story from
//! the same fields for every program.

use std::path::{Path, PathBuf};

use crate::cache::SolverCache;
use crate::warm::{WarmLoadReport, WarmPolicy, WarmSaveReport, WarmStoreError};

/// A directory of per-program warm stores, one file per fingerprint.
///
/// Cheap to construct and safe to share behind an `Arc`: it holds no
/// mutable state, and every store write is atomic by rename, so
/// concurrent savers (threads or processes) each leave a complete
/// store.
#[derive(Debug)]
pub struct StoreManager {
    dir: PathBuf,
    policy: WarmPolicy,
}

impl StoreManager {
    /// A manager over `dir` (created if absent) with the default export
    /// policy.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, WarmStoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StoreManager {
            dir,
            policy: WarmPolicy::default(),
        })
    }

    /// Replaces the [`WarmPolicy`] used by [`StoreManager::save_from`].
    pub fn with_policy(mut self, policy: WarmPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where the store for `fingerprint` lives (whether or not it
    /// currently exists).
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.warm"))
    }

    /// Warms `cache` from the store for `fingerprint`.
    ///
    /// The per-program cases a lifecycle layer must survive are folded
    /// into `Ok`: a *missing* store (first submission of this program)
    /// returns an all-zero report, and a store whose header names a
    /// *different* program returns `rejected_fingerprint = 1` (the
    /// rejection is also counted on the cache) — both clean cold
    /// starts, neither silent. Structural failures (bad magic, version
    /// or semantics drift, checksum, corruption) surface as `Err`; the
    /// caller decides whether cold-starting past them is acceptable.
    pub fn load_into(
        &self,
        fingerprint: u64,
        cache: &SolverCache,
    ) -> Result<WarmLoadReport, WarmStoreError> {
        let path = self.path_for(fingerprint);
        if !path.exists() {
            return Ok(WarmLoadReport::default());
        }
        match cache.warm_from_keyed(&path, fingerprint) {
            Err(WarmStoreError::ForeignFingerprint { .. }) => Ok(WarmLoadReport {
                rejected_fingerprint: 1,
                ..WarmLoadReport::default()
            }),
            other => other,
        }
    }

    /// Persists `cache`'s hot entries as the store for `fingerprint`,
    /// replacing any store already there.
    pub fn save_from(
        &self,
        fingerprint: u64,
        cache: &SolverCache,
    ) -> Result<WarmSaveReport, WarmStoreError> {
        cache.save_keyed(&self.path_for(fingerprint), fingerprint, &self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("portend-store-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn cache_with(keys: &[&str]) -> SolverCache {
        let cache = SolverCache::new(2);
        for k in keys {
            cache.insert((*k).into(), SatResult::Unsat);
        }
        cache
    }

    #[test]
    fn round_trip_and_missing_store_are_clean() {
        let dir = scratch("rt");
        let mgr = StoreManager::new(&dir)
            .unwrap()
            .with_policy(WarmPolicy::keep_everything());

        // First load of an unseen program: all-zero report, no error.
        let cold = SolverCache::new(2);
        let rep = mgr.load_into(7, &cold).unwrap();
        assert_eq!(rep, WarmLoadReport::default());

        let saved = mgr.save_from(7, &cache_with(&["a", "b"])).unwrap();
        assert_eq!(saved.entries, 2);
        let warmed = SolverCache::new(2);
        let rep = mgr.load_into(7, &warmed).unwrap();
        assert_eq!(rep.entries, 2);
        assert_eq!(rep.rejected_fingerprint, 0);
        assert_eq!(warmed.snapshot().warmed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_store_in_expected_path_is_reported_not_silent() {
        let dir = scratch("foreign");
        let mgr = StoreManager::new(&dir)
            .unwrap()
            .with_policy(WarmPolicy::keep_everything());
        mgr.save_from(1, &cache_with(&["x"])).unwrap();
        // Simulate a directory mix-up: program 2's slot holds program
        // 1's store (a copied file keeps its header fingerprint).
        std::fs::copy(mgr.path_for(1), mgr.path_for(2)).unwrap();

        let cache = SolverCache::new(2);
        let rep = mgr.load_into(2, &cache).unwrap();
        assert_eq!(rep.rejected_fingerprint, 1, "distinct signal");
        assert_eq!(rep.entries, 0, "nothing absorbed from a foreign store");
        assert_eq!(cache.snapshot().warm_rejected_fingerprint, 1);
        assert_eq!(cache.snapshot().warmed, 0, "clean cold start");
        std::fs::remove_dir_all(&dir).ok();
    }
}
