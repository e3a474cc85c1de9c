//! Managed directories of per-program warm stores.
//!
//! [`super::warm`] defines the on-disk format of *one* cache's store. A
//! resident analysis service outlives any single program: it needs a
//! *directory* of stores, one per program fingerprint, with bounded disk
//! usage and a recency order so the programs users actually resubmit
//! keep their warm capital. [`StoreManager`] is that layer, and the
//! only code that reads or writes a store (a single-store use is a
//! directory with one entry):
//!
//! * **Keying** — the store for fingerprint `f` lives at
//!   `dir/{f:016x}.warm`, and every save writes `f` into the store
//!   header, so a renamed or copied file still declares which program
//!   it belongs to. A load that finds a
//!   foreign fingerprint inside the expected path reports it distinctly
//!   ([`WarmLoadReport::rejected_fingerprint`]) and proceeds cold —
//!   never silently.
//! * **LRU eviction** — the directory is byte- and count-budgeted
//!   ([`StoreBudget`]); when a save pushes it over, the
//!   least-recently-used stores are deleted (emitting a
//!   [`portend_obs::EventKind::StoreEvict`] instant each) until the
//!   budget holds again. The store just saved is never the victim.
//! * **Recency** — `std` cannot set file mtimes portably, so recency is
//!   a sidecar index file (`store.index`) mapping fingerprints to a
//!   monotonic use-sequence, rewritten on every touch. Loads and saves
//!   both touch. The index is advisory: a missing or stale index makes
//!   unknown stores *coldest* (sequence 0), it never loses data.
//!
//! Loads and saves report through [`WarmLoadReport`] /
//! [`WarmSaveReport`], so a front end composes a run's warm story from
//! the same fields for every program.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use crate::cache::SolverCache;
use crate::warm::{
    peek_meta, WarmLoadReport, WarmPolicy, WarmSaveReport, WarmStoreError, WarmStoreMeta,
};

/// Name of the sidecar recency index inside a managed store directory.
const INDEX_FILE: &str = "store.index";
/// First line of the index file; unknown headers are ignored wholesale
/// (all stores coldest), never misparsed.
const INDEX_HEADER: &str = "portend-store-index v1";

/// Disk budget for a managed store directory. `0` disables a bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreBudget {
    /// Total bytes of `.warm` files the directory may hold.
    pub max_bytes: u64,
    /// Number of per-program stores the directory may hold.
    pub max_stores: u64,
}

impl Default for StoreBudget {
    fn default() -> Self {
        StoreBudget {
            max_bytes: 256 << 20, // 16 programs at the default WarmPolicy cap
            max_stores: 0,
        }
    }
}

impl StoreBudget {
    /// A budget with no bounds (nothing is ever evicted).
    pub fn unlimited() -> Self {
        StoreBudget {
            max_bytes: 0,
            max_stores: 0,
        }
    }
}

/// One row of a store-directory listing ([`StoreManager::list`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// The program fingerprint the store is keyed to (from its header).
    pub fingerprint: u64,
    /// The store file.
    pub path: PathBuf,
    /// Header metadata (version, semantics generation, entry count,
    /// file size).
    pub meta: WarmStoreMeta,
    /// Recency sequence from the sidecar index; higher = used more
    /// recently, `0` = never seen by this index.
    pub last_used: u64,
}

/// A capped, LRU-evicted directory of per-program warm stores.
///
/// Cheap to construct and safe to share behind an `Arc`: all mutable
/// state lives in the directory itself (store files + sidecar index),
/// serialized by an internal mutex. Multi-*process* callers get
/// atomic-by-rename store writes from the warm layer but no cross-
/// process index locking — the index degrades to "some touches lost",
/// which only makes eviction ordering coarser.
#[derive(Debug)]
pub struct StoreManager {
    dir: PathBuf,
    budget: StoreBudget,
    policy: WarmPolicy,
    lock: Mutex<()>,
}

impl StoreManager {
    /// A manager over `dir` (created if absent) with the default budget
    /// and export policy.
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, WarmStoreError> {
        Self::with_budget(dir, StoreBudget::default())
    }

    /// A manager over `dir` with an explicit [`StoreBudget`].
    pub fn with_budget(
        dir: impl Into<PathBuf>,
        budget: StoreBudget,
    ) -> Result<Self, WarmStoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(StoreManager {
            dir,
            budget,
            policy: WarmPolicy::default(),
            lock: Mutex::new(()),
        })
    }

    /// Replaces the [`WarmPolicy`] used by [`StoreManager::save_from`].
    pub fn with_policy(mut self, policy: WarmPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The managed directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured budget.
    pub fn budget(&self) -> StoreBudget {
        self.budget
    }

    /// Where the store for `fingerprint` lives (whether or not it
    /// currently exists).
    pub fn path_for(&self, fingerprint: u64) -> PathBuf {
        self.dir.join(format!("{fingerprint:016x}.warm"))
    }

    /// Warms `cache` from the managed store for `fingerprint`, touching
    /// its recency on success.
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
            Ok(report) => {
                let _g = self.lock.lock().expect("store index lock poisoned");
                let mut index = self.read_index();
                self.touch(&mut index, fingerprint);
                self.write_index(&index);
                Ok(report)
            }
            Err(WarmStoreError::ForeignFingerprint { .. }) => Ok(WarmLoadReport {
                rejected_fingerprint: 1,
                ..WarmLoadReport::default()
            }),
            Err(e) => Err(e),
        }
    }

    /// Persists `cache`'s hot entries as the managed store for
    /// `fingerprint`, touches its recency, then enforces the budget —
    /// evicting least-recently-used *other* stores as needed (the store
    /// just saved is never the victim).
    pub fn save_from(
        &self,
        fingerprint: u64,
        cache: &SolverCache,
    ) -> Result<WarmSaveReport, WarmStoreError> {
        let report = cache.save_keyed(&self.path_for(fingerprint), fingerprint, &self.policy)?;
        let _g = self.lock.lock().expect("store index lock poisoned");
        let mut index = self.read_index();
        self.touch(&mut index, fingerprint);
        self.evict_to_budget(&mut index, Some(fingerprint))?;
        self.write_index(&index);
        Ok(report)
    }

    /// Lists every store in the directory, most recently used first
    /// (ties broken by fingerprint for a deterministic order).
    /// Unreadable or foreign files are skipped, not errors — a listing
    /// must work on the directory a bug produced.
    pub fn list(&self) -> Result<Vec<StoreEntry>, WarmStoreError> {
        let _g = self.lock.lock().expect("store index lock poisoned");
        let index = self.read_index();
        let mut out = Vec::new();
        for (fingerprint, path) in self.store_files()? {
            let Ok(meta) = peek_meta(&path) else { continue };
            out.push(StoreEntry {
                fingerprint,
                path,
                meta,
                last_used: index.get(&fingerprint).copied().unwrap_or(0),
            });
        }
        out.sort_by_key(|e| (std::cmp::Reverse(e.last_used), e.fingerprint));
        Ok(out)
    }

    /// Enforces the budget now (useful after shrinking it or for a
    /// `store gc` command), returning the evicted fingerprints.
    pub fn gc(&self) -> Result<Vec<u64>, WarmStoreError> {
        let _g = self.lock.lock().expect("store index lock poisoned");
        let mut index = self.read_index();
        let evicted = self.evict_to_budget(&mut index, None)?;
        self.write_index(&index);
        Ok(evicted)
    }

    /// Deletes the store for `fingerprint`; `Ok(false)` when there was
    /// none.
    pub fn remove(&self, fingerprint: u64) -> Result<bool, WarmStoreError> {
        let _g = self.lock.lock().expect("store index lock poisoned");
        let path = self.path_for(fingerprint);
        let existed = path.exists();
        if existed {
            std::fs::remove_file(&path)?;
        }
        let mut index = self.read_index();
        if index.remove(&fingerprint).is_some() || existed {
            self.write_index(&index);
        }
        Ok(existed)
    }

    /// Every `{fp:016x}.warm` file in the directory with its parsed
    /// fingerprint. Files not matching the naming scheme are ignored.
    fn store_files(&self) -> Result<Vec<(u64, PathBuf)>, WarmStoreError> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".warm") else {
                continue;
            };
            if stem.len() == 16 {
                if let Ok(fp) = u64::from_str_radix(stem, 16) {
                    out.push((fp, path));
                }
            }
        }
        out.sort_unstable_by_key(|(fp, _)| *fp);
        Ok(out)
    }

    /// Evicts least-recently-used stores until both budget axes hold,
    /// never evicting `protect`. Returns the evicted fingerprints.
    /// Caller holds the index lock.
    fn evict_to_budget(
        &self,
        index: &mut HashMap<u64, u64>,
        protect: Option<u64>,
    ) -> Result<Vec<u64>, WarmStoreError> {
        let mut stores: Vec<(u64, PathBuf, u64)> = Vec::new(); // (fp, path, bytes)
        for (fp, path) in self.store_files()? {
            let bytes = std::fs::metadata(&path)?.len();
            stores.push((fp, path, bytes));
        }
        // Coldest first: lowest use-sequence, fingerprint tie-break.
        stores.sort_by_key(|(fp, _, _)| (index.get(fp).copied().unwrap_or(0), *fp));
        let mut total: u64 = stores.iter().map(|(_, _, b)| b).sum();
        let mut count = stores.len() as u64;
        let mut evicted = Vec::new();
        for (fp, path, bytes) in stores {
            let over_bytes = self.budget.max_bytes > 0 && total > self.budget.max_bytes;
            let over_count = self.budget.max_stores > 0 && count > self.budget.max_stores;
            if !over_bytes && !over_count {
                break;
            }
            if protect == Some(fp) {
                continue;
            }
            std::fs::remove_file(&path)?;
            index.remove(&fp);
            total -= bytes;
            count -= 1;
            portend_obs::instant(portend_obs::EventKind::StoreEvict, fp, bytes);
            evicted.push(fp);
        }
        Ok(evicted)
    }

    /// Bumps `fingerprint` to the newest use-sequence. Sequences come
    /// from the on-disk index, so the largest may be `u64::MAX`; then
    /// every sequence is first renumbered to its rank (equal sequences
    /// keep equal ranks, order is kept), so the touched store still ends
    /// strictly newest instead of wrapping around to coldest.
    fn touch(&self, index: &mut HashMap<u64, u64>, fingerprint: u64) {
        let newest = index.values().copied().max().unwrap_or(0);
        let next = match newest.checked_add(1) {
            Some(next) => next,
            None => {
                let mut ranks: Vec<u64> = index.values().copied().collect();
                ranks.sort_unstable();
                ranks.dedup();
                for seq in index.values_mut() {
                    *seq = ranks.partition_point(|&r| r < *seq) as u64 + 1;
                }
                ranks.len() as u64 + 1
            }
        };
        index.insert(fingerprint, next);
    }

    /// Reads the sidecar index; any structural problem yields an empty
    /// map (all stores coldest) rather than an error.
    fn read_index(&self) -> HashMap<u64, u64> {
        let mut map = HashMap::new();
        let Ok(text) = std::fs::read_to_string(self.dir.join(INDEX_FILE)) else {
            return map;
        };
        let mut lines = text.lines();
        if lines.next() != Some(INDEX_HEADER) {
            return map;
        }
        for line in lines {
            let mut parts = line.split_whitespace();
            let (Some(fp), Some(seq)) = (parts.next(), parts.next()) else {
                continue;
            };
            if let (Ok(fp), Ok(seq)) = (u64::from_str_radix(fp, 16), seq.parse::<u64>()) {
                map.insert(fp, seq);
            }
        }
        map
    }

    /// Rewrites the sidecar index (best-effort: an index write failure
    /// only coarsens future eviction order, it must not fail the save
    /// or load that triggered it).
    fn write_index(&self, index: &HashMap<u64, u64>) {
        let mut rows: Vec<(u64, u64)> = index.iter().map(|(&f, &s)| (f, s)).collect();
        rows.sort_unstable();
        let mut text = String::with_capacity(32 + rows.len() * 28);
        text.push_str(INDEX_HEADER);
        text.push('\n');
        for (fp, seq) in rows {
            text.push_str(&format!("{fp:016x} {seq}\n"));
        }
        let tmp = self
            .dir
            .join(format!("{INDEX_FILE}.tmp.{}", std::process::id()));
        if std::fs::write(&tmp, text.as_bytes()).is_ok() {
            let _ = std::fs::rename(&tmp, self.dir.join(INDEX_FILE));
        }
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

    #[test]
    fn count_budget_evicts_coldest_never_the_just_saved() {
        let dir = scratch("lru");
        let mgr = StoreManager::with_budget(
            &dir,
            StoreBudget {
                max_bytes: 0,
                max_stores: 2,
            },
        )
        .unwrap()
        .with_policy(WarmPolicy::keep_everything());

        mgr.save_from(10, &cache_with(&["a"])).unwrap();
        mgr.save_from(11, &cache_with(&["b"])).unwrap();
        // Touch 10 so 11 becomes the coldest.
        mgr.load_into(10, &SolverCache::new(2)).unwrap();
        mgr.save_from(12, &cache_with(&["c"])).unwrap();

        let fps: Vec<u64> = mgr.list().unwrap().iter().map(|e| e.fingerprint).collect();
        assert_eq!(fps.len(), 2);
        assert!(fps.contains(&10) && fps.contains(&12), "{fps:?}");
        assert!(!mgr.path_for(11).exists(), "coldest store evicted");
        // Recency order: 12 (just saved) before 10.
        assert_eq!(fps, vec![12, 10]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn byte_budget_holds_after_every_save() {
        let dir = scratch("bytes");
        let one_store = {
            let probe = scratch("bytes-probe");
            let m = StoreManager::new(&probe)
                .unwrap()
                .with_policy(WarmPolicy::keep_everything());
            let rep = m.save_from(1, &cache_with(&["k"])).unwrap();
            std::fs::remove_dir_all(&probe).ok();
            rep.bytes
        };
        let mgr = StoreManager::with_budget(
            &dir,
            StoreBudget {
                max_bytes: one_store * 2 + 8,
                max_stores: 0,
            },
        )
        .unwrap()
        .with_policy(WarmPolicy::keep_everything());
        for fp in 1..=5u64 {
            mgr.save_from(fp, &cache_with(&["k"])).unwrap();
            let total: u64 = mgr.list().unwrap().iter().map(|e| e.meta.bytes).sum();
            assert!(total <= one_store * 2 + 8, "budget violated at fp {fp}");
        }
        // The newest always survives its own save.
        assert!(mgr.path_for(5).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: an index line with sequence `u64::MAX` made `touch`
    /// overflow (a panic in debug builds; in release the touched store
    /// wrapped to sequence 0, the coldest, and the next count-budgeted
    /// save evicted it). The touched store must end strictly newest,
    /// and the rest keep their order.
    #[test]
    fn touch_at_max_sequence_keeps_the_touched_store_newest() {
        let dir = scratch("maxseq");
        let mgr = StoreManager::with_budget(
            &dir,
            StoreBudget {
                max_bytes: 0,
                max_stores: 2,
            },
        )
        .unwrap()
        .with_policy(WarmPolicy::keep_everything());
        mgr.save_from(1, &cache_with(&["a"])).unwrap();
        mgr.save_from(2, &cache_with(&["b"])).unwrap();
        std::fs::write(
            dir.join(INDEX_FILE),
            format!("{INDEX_HEADER}\n{:016x} {}\n{:016x} 5\n", 2, u64::MAX, 1),
        )
        .unwrap();
        mgr.load_into(1, &SolverCache::new(2)).unwrap();
        let order: Vec<(u64, u64)> = mgr
            .list()
            .unwrap()
            .iter()
            .map(|e| (e.fingerprint, e.last_used))
            .collect();
        assert_eq!(order, vec![(1, 3), (2, 2)], "renumbered by rank");
        // Store 2 is now the coldest, so a save under the count budget
        // evicts it and keeps the store just loaded.
        mgr.save_from(3, &cache_with(&["c"])).unwrap();
        assert!(mgr.path_for(1).exists());
        assert!(!mgr.path_for(2).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_and_remove_manage_the_directory() {
        let dir = scratch("gc");
        let mgr = StoreManager::new(&dir)
            .unwrap()
            .with_policy(WarmPolicy::keep_everything());
        mgr.save_from(1, &cache_with(&["a"])).unwrap();
        mgr.save_from(2, &cache_with(&["b"])).unwrap();
        assert_eq!(mgr.gc().unwrap(), vec![], "within budget: no evictions");
        assert!(mgr.remove(1).unwrap());
        assert!(!mgr.remove(1).unwrap(), "second remove is a no-op");
        assert_eq!(mgr.list().unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
