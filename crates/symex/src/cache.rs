//! A shared, sharded memoization cache for solver queries.
//!
//! Portend's classification cost is dominated by repeated satisfiability
//! queries: the same path-constraint prefixes recur across the Mp × Ma
//! path/schedule combinations of one race, and across the races of one
//! program (they share the pre-race trace). The cache memoizes queries
//! keyed by an exact canonical rendering of the *ordered* constraint
//! list, the domains of every mentioned variable, and the solver
//! configuration.
//!
//! Because the key captures everything [`crate::Solver::check_with_stats`]
//! depends on, and the solver is deterministic, a cache hit returns
//! byte-for-byte the result the solver would have recomputed — the cache
//! can never change a satisfiability answer (see the workspace property
//! test `solver_cache_is_transparent`).
//!
//! Entries are stored at two granularities sharing one namespace and one
//! key format: *whole queries* (the [`crate::Solver::check_with_stats`]
//! path) and *slices* — independent sub-queries produced by partitioning
//! a constraint list on variable connectivity (the
//! [`crate::Solver::check_sliced_with_stats`] /
//! [`crate::Solver::check_sliced_memo`] path, see [`crate::slice`]). A whole query consisting of a single
//! slice and that slice itself render to the same key, so the two
//! granularities cross-pollinate. Hit/miss counters are kept per
//! granularity because their hit rates answer different questions (key
//! granularity, not capacity, dominates the hit rate — finer slice keys
//! are what let the shared pre-race prefix hit across Mp × Ma
//! combinations whose *whole* constraint lists all differ).
//!
//! Shards are independent mutex-protected maps selected by key hash, so
//! concurrent classification workers rarely contend on the same lock.

use std::collections::HashMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::domain::{VarId, VarTable};
use crate::expr::Expr;
use crate::solver::{SatResult, SolverConfig};
use crate::warm::{WarmPolicy, WarmRecord};

/// Default shard count: enough to make lock contention negligible for
/// typical worker-pool sizes without wasting memory.
pub const DEFAULT_SHARDS: usize = 16;

/// Default bound on memoized entries across all shards. Keys are full
/// constraint renderings (~100s of bytes), so this caps the cache at
/// tens of megabytes even when one cache is shared across many
/// analyses in a long-lived process.
pub const DEFAULT_MAX_ENTRIES: usize = 1 << 16;

/// Hits since insertion (or since surviving a flush) that earn an entry
/// a second chance at the next epoch flush. Slice entries for the shared
/// pre-race prefix are looked up by every Mp × Ma combination, so they
/// clear this easily; one-off suffix slices don't.
const SECOND_CHANCE_HITS: u32 = 2;

/// Cap on warm-store entries re-solved and compared against their
/// persisted answer after a [`crate::StoreManager::load_into`]
/// (answer-preservation sampling): the first few *hits* on warmed entries are
/// returned as [`CacheAnswer::Probation`], asking the caller — who
/// holds the actual constraints — to solve anyway and report back via
/// [`SolverCache::confirm_warm`]. The actual sample is
/// `min(this, ⌈warmed entries / 4⌉)` so sampling never re-solves a
/// meaningful fraction of a small store (which would cancel the very
/// work the store saves). A store produced by the same solver under the
/// same format version always validates (determinism); a mismatch means
/// the store predates a semantic solver change and is surfaced through
/// [`CacheSnapshot::warm_mismatches`].
const WARM_VALIDATION_SAMPLE: u64 = 8;

/// The probation sample for a store of `warmed` entries (see
/// [`WARM_VALIDATION_SAMPLE`]).
fn warm_sample(warmed: u64) -> u64 {
    WARM_VALIDATION_SAMPLE.min(warmed.div_ceil(4))
}

/// One memoized result plus the bookkeeping driving second-chance
/// eviction and warm-store export/validation.
#[derive(Debug, Clone)]
struct CacheEntry {
    result: SatResult,
    /// Hits since insertion or since the last epoch flush.
    hits: u32,
    /// Whether the entry survived at least one epoch flush (a signal it
    /// is hot enough to be worth persisting — see [`WarmPolicy`]).
    survived_flush: bool,
    /// Whether the entry was loaded from a warm store rather than
    /// computed in this process (drives `warm_hits` accounting and the
    /// probation sampling).
    warm: bool,
}

/// Outcome of a cache lookup, as seen by the solver.
#[derive(Debug, Clone)]
pub(crate) enum CacheAnswer {
    /// The key is memoized; use the result as-is.
    Hit(SatResult),
    /// The key is memoized from a *warm store* and was sampled for
    /// answer-preservation validation: the caller must solve the query
    /// itself and report the comparison via
    /// [`SolverCache::confirm_warm`]. Counted as a miss (a solve
    /// happens).
    Probation(SatResult),
    /// Not memoized.
    Miss,
}

/// A sharded, thread-safe memoization cache for [`crate::Solver`] queries.
///
/// Cheap to share: wrap it in an `Arc` and hand clones to
/// [`crate::Solver::cached`]. All counters are monotone and lock-free.
///
/// Memory is bounded: when a shard reaches its share of the entry cap,
/// it is flushed before the next insert (epoch eviction). The flush
/// gives *high-hit* entries a second chance: entries hit at least
/// `SECOND_CHANCE_HITS` (2) times since insertion (or since the last
/// flush) survive with their count reset — so the hot pre-race-prefix
/// slices every Mp × Ma combination re-reads outlive the one-off suffix
/// slices that fill the shard. A flush that would retain more than
/// half the shard clears it wholesale instead: that keeps the entry
/// bound hard and keeps the flush scan amortized over at least
/// `cap / 2` inserts. Eviction only forgets memoized answers; it can
/// never change one.
pub struct SolverCache {
    shards: Vec<Mutex<HashMap<String, CacheEntry>>>,
    per_shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    slice_hits: AtomicU64,
    slice_misses: AtomicU64,
    key_bytes: AtomicU64,
    evictions: AtomicU64,
    second_chances: AtomicU64,
    warmed: AtomicU64,
    warm_hits: AtomicU64,
    warm_probes_left: AtomicU64,
    warm_validations: AtomicU64,
    warm_mismatches: AtomicU64,
    warm_rejected_fingerprint: AtomicU64,
}

impl fmt::Debug for SolverCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("SolverCache")
            .field("shards", &self.shards.len())
            .field("entries", &s.entries)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

impl Default for SolverCache {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl SolverCache {
    /// A cache with `shards` independent lock domains (minimum 1) and
    /// the default entry bound.
    pub fn new(shards: usize) -> Self {
        Self::with_max_entries(shards, DEFAULT_MAX_ENTRIES)
    }

    /// A cache bounded to roughly `max_entries` memoized queries across
    /// all shards (minimum one entry per shard).
    pub fn with_max_entries(shards: usize, max_entries: usize) -> Self {
        let n = shards.max(1);
        SolverCache {
            shards: (0..n).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_cap: (max_entries / n).max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            slice_hits: AtomicU64::new(0),
            slice_misses: AtomicU64::new(0),
            key_bytes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            second_chances: AtomicU64::new(0),
            warmed: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            warm_probes_left: AtomicU64::new(0),
            warm_validations: AtomicU64::new(0),
            warm_mismatches: AtomicU64::new(0),
            warm_rejected_fingerprint: AtomicU64::new(0),
        }
    }

    /// Counts a warm store rejected because its header fingerprint named
    /// a different program ([`crate::WarmStoreError::ForeignFingerprint`]).
    /// Called by the keyed load path so the rejection surfaces in this
    /// cache's [`CacheSnapshot`] even when a lifecycle layer continues
    /// cold after catching the error.
    pub fn note_rejected_fingerprint(&self) {
        self.warm_rejected_fingerprint
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Looks a whole-query canonical key up, counting a hit or a miss
    /// ([`CacheAnswer::Probation`] counts as a miss — the caller solves).
    pub(crate) fn lookup(&self, key: &str) -> CacheAnswer {
        let got = self.get(key);
        match &got {
            CacheAnswer::Hit(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            CacheAnswer::Probation(_) | CacheAnswer::Miss => {
                self.misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        portend_obs::instant(
            portend_obs::EventKind::CacheProbe,
            0,
            Self::probe_code(&got),
        );
        got
    }

    /// Looks a slice key up, counting against the slice-level counters
    /// ([`CacheAnswer::Probation`] counts as a miss — the caller solves).
    pub(crate) fn lookup_slice(&self, key: &str) -> CacheAnswer {
        let got = self.get(key);
        match &got {
            CacheAnswer::Hit(_) => self.slice_hits.fetch_add(1, Ordering::Relaxed),
            CacheAnswer::Probation(_) | CacheAnswer::Miss => {
                self.slice_misses.fetch_add(1, Ordering::Relaxed)
            }
        };
        portend_obs::instant(
            portend_obs::EventKind::CacheProbe,
            1,
            Self::probe_code(&got),
        );
        got
    }

    /// The [`portend_obs::EventKind::CacheProbe`] `b` argument for one
    /// answer: 0 miss, 1 hit, 2 probation.
    fn probe_code(got: &CacheAnswer) -> u64 {
        match got {
            CacheAnswer::Miss => 0,
            CacheAnswer::Hit(_) => 1,
            CacheAnswer::Probation(_) => 2,
        }
    }

    fn get(&self, key: &str) -> CacheAnswer {
        self.key_bytes
            .fetch_add(key.len() as u64, Ordering::Relaxed);
        let shard = &self.shards[self.shard_of(key)];
        let mut map = shard.lock().expect("cache shard poisoned");
        let Some(e) = map.get_mut(key) else {
            return CacheAnswer::Miss;
        };
        e.hits = e.hits.saturating_add(1);
        if e.warm && self.take_warm_probe() {
            self.warm_validations.fetch_add(1, Ordering::Relaxed);
            return CacheAnswer::Probation(e.result.clone());
        }
        if e.warm {
            self.warm_hits.fetch_add(1, Ordering::Relaxed);
        }
        CacheAnswer::Hit(e.result.clone())
    }

    /// Claims one warm-validation probe if any remain.
    fn take_warm_probe(&self) -> bool {
        self.warm_probes_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
    }

    /// Reports the outcome of a [`CacheAnswer::Probation`] re-solve: on
    /// agreement the entry is confirmed; on disagreement the freshly
    /// solved result replaces the stale persisted one (and the mismatch
    /// is counted — see [`CacheSnapshot::warm_mismatches`]).
    pub(crate) fn confirm_warm(&self, key: &str, expected: &SatResult, fresh: &SatResult) {
        let shard = &self.shards[self.shard_of(key)];
        let mut map = shard.lock().expect("cache shard poisoned");
        let Some(e) = map.get_mut(key) else { return };
        if expected != fresh {
            self.warm_mismatches.fetch_add(1, Ordering::Relaxed);
            e.result = fresh.clone();
        }
        e.warm = false; // validated (or corrected): now a regular entry
    }

    /// Stores the result for a canonical key, flushing the target shard
    /// first if it is at capacity (high-hit entries get a second
    /// chance — see the type docs).
    pub(crate) fn insert(&self, key: String, result: SatResult) {
        let shard = &self.shards[self.shard_of(&key)];
        let mut map = shard.lock().expect("cache shard poisoned");
        if map.len() >= self.per_shard_cap && !map.contains_key(&key) {
            map.retain(|_, e| {
                let keep = e.hits >= SECOND_CHANCE_HITS;
                e.hits = 0; // survivors must re-earn the next flush
                e.survived_flush |= keep;
                keep
            });
            if map.len() > self.per_shard_cap / 2 {
                // A flush must reclaim at least half the shard;
                // otherwise the next few inserts refill it and every
                // insert pays the O(cap) retain scan that the wholesale
                // epoch flush amortizes over `cap` inserts. Fall back to
                // the full flush (also keeps the entry bound hard when
                // everything was hot).
                map.clear();
            } else {
                self.second_chances
                    .fetch_add(map.len() as u64, Ordering::Relaxed);
            }
            map.shrink_to_fit();
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        // Re-inserting an existing key (two workers racing to solve the
        // same query) must not reset the hit count that earns the entry
        // its second chance; the result is identical by the cache's
        // determinism contract.
        map.entry(key).or_insert_with(|| CacheEntry {
            result,
            hits: 0,
            survived_flush: false,
            warm: false,
        });
    }

    /// Entries qualifying for warm-store export under `policy`: hot
    /// enough to have survived an epoch flush, or hit at least
    /// `policy.min_hits` times since their last flush. Ordered hottest
    /// first so a byte budget keeps the most valuable entries.
    pub(crate) fn export_entries(&self, policy: &WarmPolicy) -> Vec<WarmRecord> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("cache shard poisoned");
            for (key, e) in map.iter() {
                if e.survived_flush || u64::from(e.hits) >= u64::from(policy.min_hits) {
                    out.push(WarmRecord {
                        key: key.clone(),
                        result: e.result.clone(),
                        hits: e
                            .hits
                            .saturating_add(u32::from(e.survived_flush) * SECOND_CHANCE_HITS),
                    });
                }
            }
        }
        // Hottest first; key as a deterministic tie-break so saves are
        // byte-stable across runs with equal hit profiles.
        out.sort_by(|a, b| b.hits.cmp(&a.hits).then_with(|| a.key.cmp(&b.key)));
        out
    }

    /// Inserts records loaded from a warm store, marking them warm (for
    /// `warm_hits` accounting and validation sampling) and arming the
    /// probation counter. Shards already at capacity skip further warm
    /// entries rather than flushing live ones; returns how many records
    /// were kept.
    pub(crate) fn absorb_warm(&self, records: Vec<WarmRecord>) -> u64 {
        let mut kept = 0u64;
        for rec in records {
            let shard = &self.shards[self.shard_of(&rec.key)];
            let mut map = shard.lock().expect("cache shard poisoned");
            if map.len() >= self.per_shard_cap && !map.contains_key(&rec.key) {
                continue;
            }
            map.entry(rec.key).or_insert_with(|| {
                kept += 1;
                CacheEntry {
                    result: rec.result,
                    hits: 0,
                    survived_flush: false,
                    warm: true,
                }
            });
        }
        let warmed = self.warmed.fetch_add(kept, Ordering::Relaxed) + kept;
        if kept > 0 {
            self.warm_probes_left
                .store(warm_sample(warmed), Ordering::Relaxed);
        }
        kept
    }

    fn shard_of(&self, key: &str) -> usize {
        (fnv1a(key.as_bytes()) as usize) % self.shards.len()
    }

    /// A point-in-time view of the cache counters.
    pub fn snapshot(&self) -> CacheSnapshot {
        let entries = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len() as u64)
            .sum();
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            slice_hits: self.slice_hits.load(Ordering::Relaxed),
            slice_misses: self.slice_misses.load(Ordering::Relaxed),
            key_bytes: self.key_bytes.load(Ordering::Relaxed),
            entries,
            evictions: self.evictions.load(Ordering::Relaxed),
            second_chances: self.second_chances.load(Ordering::Relaxed),
            warmed: self.warmed.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            warm_validations: self.warm_validations.load(Ordering::Relaxed),
            warm_mismatches: self.warm_mismatches.load(Ordering::Relaxed),
            warm_rejected_fingerprint: self.warm_rejected_fingerprint.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time view of a [`SolverCache`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Whole queries answered from the cache.
    pub hits: u64,
    /// Whole queries that had to be solved.
    pub misses: u64,
    /// Constraint slices answered from the cache (sliced queries only).
    pub slice_hits: u64,
    /// Constraint slices that had to be solved (sliced queries only).
    pub slice_misses: u64,
    /// Total bytes of rendered keys presented to the cache (a proxy for
    /// key-construction cost; slice keys cover only a subset of the
    /// constraint list, so sliced lookups render fewer bytes per reused
    /// prefix).
    pub key_bytes: u64,
    /// Distinct memoized queries currently stored.
    pub entries: u64,
    /// Shard flushes performed to stay within the entry bound.
    pub evictions: u64,
    /// Entries that survived a shard flush on the high-hit second
    /// chance (cumulative across flushes).
    pub second_chances: u64,
    /// Entries loaded from a persistent warm store
    /// ([`crate::StoreManager::load_into`]); `0` on a cold start.
    pub warmed: u64,
    /// Lookups answered by a warm-store entry — solves this process
    /// skipped because an earlier run already paid for them.
    pub warm_hits: u64,
    /// Warm entries re-solved for answer-preservation sampling (the
    /// first few hits after a load; counted as misses, not warm hits).
    pub warm_validations: u64,
    /// Sampled warm entries whose persisted answer disagreed with a
    /// fresh solve. Always `0` for a store written by the same solver
    /// (determinism); non-zero flags a stale store, whose entries are
    /// corrected in place as they are caught.
    pub warm_mismatches: u64,
    /// Warm stores rejected at load because their header fingerprint
    /// named a different program ("store is from another program").
    /// Always a *distinct* signal — a foreign store never silently
    /// degrades to a cold start without bumping this counter.
    pub warm_rejected_fingerprint: u64,
}

/// Renders the exact canonical key of a query: solver configuration, the
/// constraint list *in order*, and the domain of every mentioned variable.
///
/// Keeping the original constraint order (rather than sorting) makes the
/// key a complete description of the solver call, so a hit is provably
/// equivalent to recomputation; structurally identical queries — the
/// dominant form of reuse across schedules and races — still collide.
///
/// Slice keys (see [`crate::slice`]) are assembled from the same three
/// pieces ([`config_prefix`], [`render_constraint`], [`push_domains`]),
/// so a slice and a whole query over the identical ordered constraint
/// list produce byte-identical keys.
pub(crate) fn canonical_key(constraints: &[Expr], vars: &VarTable, cfg: SolverConfig) -> String {
    let mut key = config_prefix(cfg);
    key.reserve(constraints.len() * 24);
    let mut mentioned: Vec<VarId> = Vec::new();
    for c in constraints {
        c.collect_vars(&mut mentioned);
        render_constraint(&mut key, c);
    }
    push_domains(&mut key, &mut mentioned, vars);
    key
}

/// The configuration portion of a canonical key.
pub(crate) fn config_prefix(cfg: SolverConfig) -> String {
    let mut key = String::with_capacity(64);
    let _ = write!(key, "b{};p{};", cfg.node_budget, cfg.max_prune_passes);
    key
}

/// Appends one constraint's canonical rendering to `key`.
pub(crate) fn render_constraint(key: &mut String, c: &Expr) {
    let _ = write!(key, "{c};");
}

/// Sorts and dedups `mentioned` in place, then appends each variable's
/// domain to `key`.
pub(crate) fn push_domains(key: &mut String, mentioned: &mut Vec<VarId>, vars: &VarTable) {
    mentioned.sort_unstable();
    mentioned.dedup();
    for &v in mentioned.iter() {
        let i = vars.info(v).interval();
        let _ = write!(key, "{v}:[{},{}];", i.lo, i.hi);
    }
}

/// FNV-1a over bytes; used only for shard selection.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::CmpOp;

    /// Unwraps a lookup into `Option<SatResult>`; these tests never
    /// exercise warm probation.
    fn hit(a: CacheAnswer) -> Option<SatResult> {
        match a {
            CacheAnswer::Hit(r) => Some(r),
            CacheAnswer::Probation(_) => panic!("unexpected probation in cold-cache test"),
            CacheAnswer::Miss => None,
        }
    }

    #[test]
    fn keys_distinguish_domains_and_order() {
        let mut vars_a = VarTable::new();
        let x = vars_a.fresh("x", 0, 10);
        let mut vars_b = VarTable::new();
        let _ = vars_b.fresh("x", 0, 99);
        let c1 = Expr::var(x).cmp(CmpOp::Gt, Expr::konst(3));
        let c2 = Expr::var(x).cmp(CmpOp::Lt, Expr::konst(8));
        let cfg = SolverConfig::default();
        let k_ab = canonical_key(&[c1.clone(), c2.clone()], &vars_a, cfg);
        let k_ba = canonical_key(&[c2.clone(), c1.clone()], &vars_a, cfg);
        let k_wide = canonical_key(&[c1.clone(), c2.clone()], &vars_b, cfg);
        assert_ne!(k_ab, k_ba, "order is part of the key");
        assert_ne!(k_ab, k_wide, "domains are part of the key");
        assert_eq!(k_ab, canonical_key(&[c1, c2], &vars_a, cfg));
    }

    #[test]
    fn counters_track_hits_and_misses() {
        let cache = SolverCache::new(4);
        assert!(hit(cache.lookup("k1")).is_none());
        cache.insert("k1".into(), SatResult::Unsat);
        assert_eq!(hit(cache.lookup("k1")), Some(SatResult::Unsat));
        let s = cache.snapshot();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert_eq!(s.key_bytes, 2 * "k1".len() as u64);
    }

    #[test]
    fn slice_counters_are_separate_but_share_entries() {
        let cache = SolverCache::new(4);
        // A slice lookup misses, a whole-query insert under the same key
        // then serves slice lookups (shared namespace).
        assert!(hit(cache.lookup_slice("k")).is_none());
        cache.insert("k".into(), SatResult::Unsat);
        assert_eq!(hit(cache.lookup_slice("k")), Some(SatResult::Unsat));
        assert_eq!(hit(cache.lookup("k")), Some(SatResult::Unsat));
        let s = cache.snapshot();
        assert_eq!((s.slice_hits, s.slice_misses), (1, 1));
        assert_eq!((s.hits, s.misses), (1, 0));
    }

    #[test]
    fn entry_bound_evicts_instead_of_growing() {
        let cache = SolverCache::with_max_entries(1, 4);
        for i in 0..32 {
            cache.insert(format!("k{i}"), SatResult::Unsat);
        }
        let s = cache.snapshot();
        assert!(s.entries <= 4, "bounded: {s:?}");
        assert!(s.evictions > 0, "flushes counted: {s:?}");
        // Re-inserting an existing key at capacity does not flush.
        let cache = SolverCache::with_max_entries(1, 2);
        cache.insert("a".into(), SatResult::Unsat);
        cache.insert("b".into(), SatResult::Unsat);
        cache.insert("a".into(), SatResult::Unsat);
        assert_eq!(cache.snapshot().evictions, 0);
        assert_eq!(cache.snapshot().entries, 2);
    }

    /// Regression for slice-aware eviction: a hot slice entry (the
    /// shared pre-race prefix, hit by every Mp × Ma combination) must
    /// survive the epoch flush that discards one-off suffix entries.
    #[test]
    fn high_hit_entries_survive_epoch_flush() {
        let cache = SolverCache::with_max_entries(1, 8);
        cache.insert("hot-prefix".into(), SatResult::Unsat);
        for _ in 0..SECOND_CHANCE_HITS {
            assert!(hit(cache.lookup_slice("hot-prefix")).is_some());
        }
        // Fill to the cap with cold entries, then overflow: the flush
        // fires, cold entries go, the hot prefix stays resident.
        for i in 0..8 {
            cache.insert(format!("cold{i}"), SatResult::Unsat);
        }
        let s = cache.snapshot();
        assert!(s.evictions >= 1, "flush fired: {s:?}");
        assert!(s.second_chances >= 1, "survivor counted: {s:?}");
        assert!(
            hit(cache.lookup_slice("hot-prefix")).is_some(),
            "hot entry survived the flush"
        );
        assert!(
            hit(cache.lookup_slice("cold0")).is_none(),
            "cold entries were evicted"
        );

        // Survivors must re-earn the next flush: without further hits
        // the former survivor is dropped the next time around.
        let cache = SolverCache::with_max_entries(1, 4);
        cache.insert("once-hot".into(), SatResult::Unsat);
        for _ in 0..SECOND_CHANCE_HITS {
            assert!(hit(cache.lookup_slice("once-hot")).is_some());
        }
        for i in 0..4 {
            cache.insert(format!("a{i}"), SatResult::Unsat); // first flush: survives
        }
        assert!(hit(cache.lookup("once-hot")).is_some());
        // One hit since the flush is below the threshold.
        for i in 0..8 {
            cache.insert(format!("b{i}"), SatResult::Unsat); // second flush: dropped
        }
        assert!(hit(cache.lookup("once-hot")).is_none());
    }

    /// Re-inserting an existing key (two workers racing to solve the
    /// same query) preserves the hit count that drives the second
    /// chance.
    #[test]
    fn reinsert_preserves_hit_count() {
        let cache = SolverCache::with_max_entries(1, 8);
        cache.insert("hot".into(), SatResult::Unsat);
        for _ in 0..SECOND_CHANCE_HITS {
            assert!(hit(cache.lookup_slice("hot")).is_some());
        }
        // A racing worker re-inserts the same (identical) result.
        cache.insert("hot".into(), SatResult::Unsat);
        for i in 0..8 {
            cache.insert(format!("cold{i}"), SatResult::Unsat);
        }
        assert!(
            hit(cache.lookup("hot")).is_some(),
            "hit count survived the re-insert and earned the second chance"
        );
    }

    /// Warm-store entries: the first hits go through probation (the
    /// caller re-solves and confirms), later hits count as `warm_hits`,
    /// and a confirmed mismatch corrects the entry in place.
    #[test]
    fn warm_entries_probe_then_hit_and_mismatches_correct() {
        use crate::warm::WarmRecord;
        let cache = SolverCache::new(2);
        let mut records = vec![
            WarmRecord {
                key: "wa".into(),
                result: SatResult::Unsat,
                hits: 0,
            },
            WarmRecord {
                key: "wb".into(),
                result: SatResult::Unknown, // "stale": fresh solve disagrees
                hits: 0,
            },
        ];
        // Filler records so the store is large enough for a 2-probe
        // sample (sample = ⌈warmed / 4⌉, capped).
        records.extend((0..6).map(|i| WarmRecord {
            key: format!("fill{i}"),
            result: SatResult::Unsat,
            hits: 0,
        }));
        assert_eq!(cache.absorb_warm(records), 8);
        assert_eq!(cache.snapshot().warmed, 8);

        // First lookup of a warm entry is a probation (counted as a miss).
        let CacheAnswer::Probation(expected) = cache.lookup_slice("wa") else {
            panic!("first warm lookup must probe");
        };
        assert_eq!(expected, SatResult::Unsat);
        cache.confirm_warm("wa", &expected, &SatResult::Unsat);
        // Validated: subsequent lookups are plain hits (no longer warm).
        assert!(matches!(cache.lookup_slice("wa"), CacheAnswer::Hit(_)));

        // A mismatching confirmation replaces the stale answer.
        let CacheAnswer::Probation(expected) = cache.lookup("wb") else {
            panic!("warm lookup must probe while probes remain");
        };
        cache.confirm_warm("wb", &expected, &SatResult::Unsat);
        assert_eq!(hit(cache.lookup("wb")), Some(SatResult::Unsat));
        let s = cache.snapshot();
        assert_eq!(s.warm_validations, 2);
        assert_eq!(s.warm_mismatches, 1);
    }

    /// After the probation budget is spent, warm entries answer
    /// directly and are counted as warm hits.
    #[test]
    fn warm_hits_counted_after_probation_budget() {
        use crate::warm::WarmRecord;
        let cache = SolverCache::new(1);
        let records = (0..12)
            .map(|i| WarmRecord {
                key: format!("w{i}"),
                result: SatResult::Unsat,
                hits: 0,
            })
            .collect();
        assert_eq!(cache.absorb_warm(records), 12);
        let mut probes = 0;
        let mut warm_hits = 0;
        for i in 0..12 {
            match cache.lookup_slice(&format!("w{i}")) {
                CacheAnswer::Probation(r) => {
                    probes += 1;
                    cache.confirm_warm(&format!("w{i}"), &r, &SatResult::Unsat);
                }
                CacheAnswer::Hit(_) => warm_hits += 1,
                CacheAnswer::Miss => panic!("warm entry lost"),
            }
        }
        assert_eq!(probes, warm_sample(12) as usize);
        assert_eq!(warm_hits, 12 - probes);
        let s = cache.snapshot();
        assert_eq!(s.warm_hits, warm_hits as u64);
        assert_eq!(s.warm_validations, probes as u64);
        assert_eq!(s.warm_mismatches, 0);
    }

    /// An all-hot shard still respects the entry bound (full flush
    /// fallback).
    #[test]
    fn all_hot_shard_falls_back_to_full_flush() {
        let cache = SolverCache::with_max_entries(1, 2);
        cache.insert("a".into(), SatResult::Unsat);
        cache.insert("b".into(), SatResult::Unsat);
        for _ in 0..SECOND_CHANCE_HITS {
            assert!(hit(cache.lookup("a")).is_some());
            assert!(hit(cache.lookup("b")).is_some());
        }
        cache.insert("c".into(), SatResult::Unsat);
        let s = cache.snapshot();
        assert!(s.entries <= 2, "bound stays hard: {s:?}");
    }
}
