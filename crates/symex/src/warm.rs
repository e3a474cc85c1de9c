//! Cross-run persistence for the [`SolverCache`] (the "warm store").
//!
//! A long-lived triage service re-analyzes successive builds of the same
//! program, and most of its solver work recurs run over run: canonical
//! keys are self-contained strings (solver configuration + ordered
//! constraint rendering + every mentioned variable's domain), so a
//! memoized answer is as valid in the next process as it was in the one
//! that computed it. This module serializes the hot subset of a cache to
//! a versioned, self-describing on-disk format and loads it back at the
//! start of the next run — turning the per-process cold start the
//! in-memory cache pays on every launch into a one-time cost.
//!
//! ## Format
//!
//! A hand-rolled little-endian, length-prefixed record stream (no
//! external dependencies, in the same spirit as the in-workspace
//! `portend_obs::json` writer and parser):
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"PTNDWARM"
//! 8       4     format version (u32; readers reject unknown versions)
//! 12      8     program fingerprint (u64)
//! 20      4     solver-semantics version (u32; readers reject drift)
//! 24      4     record count (u32)
//!               records…                       (see below)
//! end−8   8     FNV-1a-64 checksum of every preceding byte
//! ```
//!
//! The *program fingerprint* (format v2) keys a store to the program
//! whose analysis produced it: a load presented with a store whose
//! fingerprint names a different program fails with the distinct
//! [`WarmStoreError::ForeignFingerprint`] — "this store is from another
//! program" — instead of silently warm-starting from answers that
//! happen to share canonical keys. A store loads only for the
//! fingerprint in its header; every value, `0` included, is an
//! ordinary key. [`crate::StoreManager`] is the only reader and writer
//! of stores: it keeps one `{fingerprint:016x}.warm` file per program
//! in a directory.
//!
//! The *solver-semantics version* ([`SOLVER_SEMANTICS_VERSION`]) is the
//! cross-build invalidation hint: it is echoed into every store and
//! checked on load, so a solver build whose search order, pruning, or
//! model selection changed can invalidate every older store by bumping
//! one constant without burning a whole format version.
//!
//! Each record is length-prefixed so a reader can skip or bound-check it
//! without understanding its interior:
//!
//! ```text
//! 4     record length in bytes (everything after this field)
//! 4+n   key length + canonical key (UTF-8)
//! 1     result tag: 0 = Unsat, 1 = Unknown, 2 = Sat
//! [Sat] 4 + m × (4 var id + 8 value)   witness model
//! ```
//!
//! ## Versioning rules
//!
//! `WARM_FORMAT_VERSION` must be bumped whenever (a) the record layout
//! changes, or (b) the *semantics* behind identical keys change — a
//! solver whose search order, pruning, or model selection changed can
//! return a different (equally correct) answer for the same key, and a
//! warm store written by the old solver would then violate the cache's
//! byte-identical-to-recompute contract. Version mismatch on load is a
//! clean rejection: the run proceeds cold, never with stale answers.
//!
//! ## Why answer preservation holds across runs
//!
//! Within one process the cache is answer-preserving because the key
//! captures everything the deterministic solver depends on. Across
//! processes two additional hazards appear, each with its own guard:
//!
//! 1. **Bit rot / truncation** — the trailing checksum plus strict
//!    structural validation (lengths, tags) reject a damaged file
//!    wholesale before any entry is inserted.
//! 2. **Semantic drift** — a store written by a *different solver build*
//!    under the same format version. The format version is the primary
//!    guard (rule (b) above); as a defense-in-depth smoke detector, the
//!    first few hits on warmed entries are returned to the solver as
//!    *probation* answers: the solver re-solves and compares
//!    ([`CacheSnapshot::warm_mismatches`] stays 0 for a faithful store,
//!    and a caught mismatch replaces the stale entry with the fresh
//!    answer).
//!
//! [`CacheSnapshot::warm_mismatches`]: crate::CacheSnapshot::warm_mismatches

use std::fmt;
use std::io::Read as _;
use std::path::Path;

use crate::cache::SolverCache;
use crate::domain::VarId;
use crate::model::Model;
use crate::solver::SatResult;

/// Magic bytes identifying a warm-store file.
pub const WARM_MAGIC: [u8; 8] = *b"PTNDWARM";

/// Current on-disk format version. See the module docs for the rules on
/// when this must be bumped.
///
/// * v2 — the header grew a program fingerprint (next to the magic) and
///   the solver-semantics version echo; v1 stores are rejected cleanly
///   as [`WarmStoreError::UnsupportedVersion`].
/// * v3 — each record lost its trailing domain flag and the optional
///   pruned-domain box after it (the solver no longer captures boxes);
///   a record now ends with its result.
pub const WARM_FORMAT_VERSION: u32 = 3;

/// The solver-semantics generation this build writes into (and requires
/// of) every warm store. Bump it whenever the solver's search order,
/// pruning, or model selection changes *without* a record-layout change:
/// identical canonical keys could then map to different (equally
/// correct) answers, and every store written by the previous generation
/// must stop warming caches. A mismatch on load is the distinct
/// [`WarmStoreError::SemanticsMismatch`] — a clean cold start.
pub const SOLVER_SEMANTICS_VERSION: u32 = 1;

/// Which cache entries a [`crate::StoreManager::save_from`] persists,
/// and how much disk it may use.
///
/// The defaults encode the eviction-aware export policy: an entry earns
/// persistence by *heat* — it survived at least one second-chance epoch
/// flush, or it was hit at least [`WarmPolicy::min_hits`] times since its
/// last flush. One-off suffix slices (solved once, never re-read) stay
/// out of the store; the shared pre-race-prefix slices every Mp × Ma
/// combination re-reads qualify easily. Qualifying entries are written
/// hottest-first until [`WarmPolicy::byte_budget`] is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WarmPolicy {
    /// Minimum hits (since insertion or the last epoch flush) for an
    /// entry that never survived a flush to qualify for export.
    pub min_hits: u32,
    /// Upper bound on the serialized file size in bytes; records beyond
    /// it are dropped coldest-first. `0` disables the bound.
    pub byte_budget: u64,
}

impl Default for WarmPolicy {
    fn default() -> Self {
        WarmPolicy {
            min_hits: 2,
            byte_budget: 16 << 20, // 16 MiB ≈ 10⁵ typical slice entries
        }
    }
}

impl WarmPolicy {
    /// A policy that persists every entry regardless of heat (still
    /// subject to the byte budget). Useful for corpus-replay scenarios
    /// where the next run is known to repeat *every* query.
    pub fn keep_everything() -> Self {
        WarmPolicy {
            min_hits: 0,
            ..Default::default()
        }
    }
}

/// One exportable cache entry, as exchanged between the cache and the
/// serializer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WarmRecord {
    pub key: String,
    pub result: SatResult,
    /// Export-ordering heat (hits, boosted for flush survivors).
    pub hits: u32,
}

/// What a [`crate::StoreManager::save_from`] wrote.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmSaveReport {
    /// Entries serialized into the store.
    pub entries: u64,
    /// Total file size in bytes.
    pub bytes: u64,
    /// Qualifying entries dropped because the byte budget was reached.
    pub dropped_by_budget: u64,
}

/// What a [`crate::StoreManager::load_into`] loaded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmLoadReport {
    /// Entries inserted into the cache.
    pub entries: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Valid records skipped because their shard was already at
    /// capacity (or their key already resident).
    pub skipped: u64,
    /// Stores rejected because their fingerprint named a different
    /// program ([`WarmStoreError::ForeignFingerprint`]).
    /// [`crate::StoreManager::load_into`] continues cold past such a
    /// store and folds the rejection into this counter so it is never
    /// silent. `0` on every successful load.
    pub rejected_fingerprint: u64,
}

/// Why a warm store could not be read. Every variant is a *clean cold
/// start*: no entry from a rejected store ever reaches the cache.
#[derive(Debug)]
pub enum WarmStoreError {
    /// The file could not be read (missing file is the common first-run
    /// case).
    Io(std::io::Error),
    /// The file does not start with [`WARM_MAGIC`].
    BadMagic,
    /// The file's format version is not [`WARM_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The store is keyed to a different program: its header fingerprint
    /// names another program's IR. Reported distinctly (never folded
    /// into a silent cold start) so a store directory mix-up is
    /// diagnosable from the run's accounting.
    ForeignFingerprint {
        /// The fingerprint stored in the file's header.
        stored: u64,
        /// The fingerprint of the program being analyzed.
        expected: u64,
    },
    /// The store was written by a solver build with different search
    /// semantics ([`SOLVER_SEMANTICS_VERSION`] mismatch); its answers
    /// may no longer match what this build would compute.
    SemanticsMismatch(u32),
    /// The trailing FNV-1a checksum does not match the contents
    /// (truncation or corruption).
    ChecksumMismatch,
    /// A structural invariant failed while parsing; the payload names
    /// the first violated check.
    Corrupt(&'static str),
}

impl fmt::Display for WarmStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WarmStoreError::Io(e) => write!(f, "warm store i/o error: {e}"),
            WarmStoreError::BadMagic => write!(f, "warm store magic mismatch"),
            WarmStoreError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "warm store format version {v} (this build reads {WARM_FORMAT_VERSION})"
                )
            }
            WarmStoreError::ForeignFingerprint { stored, expected } => write!(
                f,
                "warm store is from another program (store fingerprint {stored:016x}, \
                 this program is {expected:016x})"
            ),
            WarmStoreError::SemanticsMismatch(v) => write!(
                f,
                "warm store solver-semantics version {v} \
                 (this build is {SOLVER_SEMANTICS_VERSION})"
            ),
            WarmStoreError::ChecksumMismatch => write!(f, "warm store checksum mismatch"),
            WarmStoreError::Corrupt(what) => write!(f, "warm store corrupt: {what}"),
        }
    }
}

impl std::error::Error for WarmStoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WarmStoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WarmStoreError {
    fn from(e: std::io::Error) -> Self {
        WarmStoreError::Io(e)
    }
}

impl SolverCache {
    /// Persists this cache's hot entries to `path` under `policy`,
    /// writing `fingerprint` into the store header so the store is
    /// keyed to one program.
    ///
    /// The write is atomic-by-rename: the store is assembled in a
    /// sibling temporary file — with a per-process, per-save unique
    /// name, so concurrent savers targeting one store path cannot
    /// interleave into the same temp file — and moved into place. A
    /// crash mid-save leaves either the previous store or none, never
    /// a torn one (a torn file would be rejected by the checksum
    /// anyway); concurrent saves resolve to whichever rename lands
    /// last, each image complete.
    pub(crate) fn save_keyed(
        &self,
        path: &Path,
        fingerprint: u64,
        policy: &WarmPolicy,
    ) -> Result<WarmSaveReport, WarmStoreError> {
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let mut ev = portend_obs::span(portend_obs::EventKind::WarmSave);
        let records = self.export_entries(policy);
        let (bytes, report) = serialize(&records, policy, fingerprint);
        let tmp = path.with_extension(format!(
            "tmp.{}.{}",
            std::process::id(),
            SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::write(&tmp, &bytes)?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            std::fs::remove_file(&tmp).ok();
            return Err(e.into());
        }
        ev.args(report.entries, report.bytes);
        Ok(report)
    }

    /// Loads the warm store at `path` into this cache, marking every
    /// loaded entry for `warm_hits` accounting and arming the
    /// answer-preservation probation sampling. Entries already resident
    /// (or landing in a full shard) are skipped, never overwritten.
    ///
    /// The store's header fingerprint must equal `expected` (the current
    /// program's content hash — `portend_vm::Program::fingerprint`). A
    /// store keyed to a *different* program fails with the distinct
    /// [`WarmStoreError::ForeignFingerprint`] — and is counted on this
    /// cache's [`crate::CacheSnapshot::warm_rejected_fingerprint`] — so
    /// a foreign store is never silently treated as a cold start.
    ///
    /// On any error the cache's entries are untouched — the run
    /// proceeds cold.
    pub(crate) fn warm_from_keyed(
        &self,
        path: &Path,
        expected: u64,
    ) -> Result<WarmLoadReport, WarmStoreError> {
        let mut ev = portend_obs::span(portend_obs::EventKind::WarmLoad);
        let mut bytes = Vec::new();
        std::fs::File::open(path)?.read_to_end(&mut bytes)?;
        let (stored, records) = parse(&bytes)?;
        if stored != expected {
            self.note_rejected_fingerprint();
            return Err(WarmStoreError::ForeignFingerprint { stored, expected });
        }
        let total = records.len() as u64;
        let kept = self.absorb_warm(records);
        ev.args(kept, 1);
        Ok(WarmLoadReport {
            entries: kept,
            bytes: bytes.len() as u64,
            skipped: total - kept,
            rejected_fingerprint: 0,
        })
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Serializes one record body (everything after its length prefix).
fn record_body(rec: &WarmRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(rec.key.len() + 64);
    push_u32(&mut out, rec.key.len() as u32);
    out.extend_from_slice(rec.key.as_bytes());
    match &rec.result {
        SatResult::Unsat => out.push(0),
        SatResult::Unknown => out.push(1),
        SatResult::Sat(model) => {
            out.push(2);
            push_u32(&mut out, model.len() as u32);
            for (var, val) in model.iter() {
                push_u32(&mut out, var.0);
                push_i64(&mut out, val);
            }
        }
    }
    out
}

/// Assembles the full store image: header, records (hottest-first, up to
/// the byte budget), checksum footer.
fn serialize(
    records: &[WarmRecord],
    policy: &WarmPolicy,
    fingerprint: u64,
) -> (Vec<u8>, WarmSaveReport) {
    // magic + version + fingerprint + semantics + count + checksum
    const FIXED_OVERHEAD: u64 = 8 + 4 + 8 + 4 + 4 + 8;
    let mut bodies = Vec::new();
    let mut size = FIXED_OVERHEAD;
    let mut dropped = 0u64;
    for (i, rec) in records.iter().enumerate() {
        let body = record_body(rec);
        let rec_size = 4 + body.len() as u64;
        if policy.byte_budget > 0 && size + rec_size > policy.byte_budget {
            // Records arrive hottest-first; cut here so the dropped set
            // is exactly the coldest suffix (skipping just this record
            // and continuing would let colder entries displace a hot
            // one that happened to be large).
            dropped = (records.len() - i) as u64;
            break;
        }
        size += rec_size;
        bodies.push(body);
    }
    let mut out = Vec::with_capacity(size as usize);
    out.extend_from_slice(&WARM_MAGIC);
    push_u32(&mut out, WARM_FORMAT_VERSION);
    out.extend_from_slice(&fingerprint.to_le_bytes());
    push_u32(&mut out, SOLVER_SEMANTICS_VERSION);
    push_u32(&mut out, bodies.len() as u32);
    for body in &bodies {
        push_u32(&mut out, body.len() as u32);
        out.extend_from_slice(body);
    }
    let checksum = fnv1a64(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    let report = WarmSaveReport {
        entries: bodies.len() as u64,
        bytes: out.len() as u64,
        dropped_by_budget: dropped,
    };
    (out, report)
}

/// A bounds-checked little-endian reader over the store image.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WarmStoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(WarmStoreError::Corrupt("record overruns file"))?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WarmStoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WarmStoreError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, WarmStoreError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, WarmStoreError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Parses and validates a full store image, returning the header's
/// program fingerprint alongside the records. All-or-nothing: any
/// violation rejects the whole file before a single record is returned.
fn parse(bytes: &[u8]) -> Result<(u64, Vec<WarmRecord>), WarmStoreError> {
    const FOOTER: usize = 8;
    if bytes.len() < 8 + 4 + 8 + 4 + 4 + FOOTER {
        return Err(WarmStoreError::Corrupt("file shorter than header"));
    }
    if bytes[..8] != WARM_MAGIC {
        return Err(WarmStoreError::BadMagic);
    }
    let body = &bytes[..bytes.len() - FOOTER];
    let stored = u64::from_le_bytes(bytes[bytes.len() - FOOTER..].try_into().expect("8 bytes"));
    if fnv1a64(body) != stored {
        return Err(WarmStoreError::ChecksumMismatch);
    }
    let mut r = Reader {
        bytes: body,
        pos: 8,
    };
    let version = r.u32()?;
    if version != WARM_FORMAT_VERSION {
        return Err(WarmStoreError::UnsupportedVersion(version));
    }
    let fingerprint = r.u64()?;
    let semantics = r.u32()?;
    if semantics != SOLVER_SEMANTICS_VERSION {
        return Err(WarmStoreError::SemanticsMismatch(semantics));
    }
    let count = r.u32()? as usize;
    let mut records = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        let rec_len = r.u32()? as usize;
        let rec_end = r
            .pos
            .checked_add(rec_len)
            .filter(|&e| e <= body.len())
            .ok_or(WarmStoreError::Corrupt("record overruns file"))?;
        let key_len = r.u32()? as usize;
        let key = std::str::from_utf8(r.take(key_len)?)
            .map_err(|_| WarmStoreError::Corrupt("key is not UTF-8"))?
            .to_string();
        let result = match r.u8()? {
            0 => SatResult::Unsat,
            1 => SatResult::Unknown,
            2 => {
                let n = r.u32()? as usize;
                let mut model = Model::new();
                for _ in 0..n {
                    let var = VarId(r.u32()?);
                    let val = r.i64()?;
                    model.set(var, val);
                }
                SatResult::Sat(model)
            }
            _ => return Err(WarmStoreError::Corrupt("unknown result tag")),
        };
        if r.pos != rec_end {
            return Err(WarmStoreError::Corrupt("record length mismatch"));
        }
        records.push(WarmRecord {
            key,
            result,
            hits: 0,
        });
    }
    if r.pos != body.len() {
        return Err(WarmStoreError::Corrupt("trailing bytes after records"));
    }
    Ok((fingerprint, records))
}

/// FNV-1a over bytes (the store's integrity checksum; also used by the
/// cache for shard selection).
fn fnv1a64(bytes: &[u8]) -> u64 {
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

    fn sample_records() -> Vec<WarmRecord> {
        let model: Model = [(VarId(0), 7), (VarId(3), -2)].into_iter().collect();
        vec![
            WarmRecord {
                key: "b2000000;p64;v0>3;v0:[0,10];".into(),
                result: SatResult::Sat(model),
                hits: 5,
            },
            WarmRecord {
                key: "b2000000;p64;v1<0;v1:[0,9];".into(),
                result: SatResult::Unsat,
                hits: 2,
            },
            WarmRecord {
                key: "b10;p1;v2*v2==7;v2:[0,63];".into(),
                result: SatResult::Unknown,
                hits: 3,
            },
        ]
    }

    #[test]
    fn serialize_parse_round_trip_is_identity() {
        let records = sample_records();
        let (bytes, report) = serialize(&records, &WarmPolicy::default(), 0xfeed_beef);
        assert_eq!(report.entries, 3);
        assert_eq!(report.bytes, bytes.len() as u64);
        assert_eq!(report.dropped_by_budget, 0);
        let (fp, mut parsed) = parse(&bytes).expect("round trip");
        assert_eq!(fp, 0xfeed_beef, "header fingerprint round-trips");
        // `hits` is export-ordering metadata, zeroed on load.
        for p in &mut parsed {
            p.hits = 0;
        }
        let mut expected = records;
        for e in &mut expected {
            e.hits = 0;
        }
        assert_eq!(parsed, expected);
    }

    #[test]
    fn byte_budget_drops_coldest_records() {
        let records = sample_records();
        // Budget sized to fit the header plus roughly one record.
        let (one, _) = serialize(&records[..1], &WarmPolicy::default(), 0);
        let policy = WarmPolicy {
            min_hits: 0,
            byte_budget: one.len() as u64 + 8,
        };
        let (bytes, report) = serialize(&records, &policy, 0);
        assert!(report.entries < 3, "{report:?}");
        assert!(report.dropped_by_budget > 0, "{report:?}");
        assert_eq!(
            report.entries + report.dropped_by_budget,
            3,
            "cut is a clean prefix/suffix split: {report:?}"
        );
        assert!(bytes.len() as u64 <= policy.byte_budget);
        let (_, kept) = parse(&bytes).expect("budget-truncated store still valid");
        // The cut is a *prefix* of the input order (export order is
        // hottest-first): a later record must never displace an earlier
        // one that failed to fit.
        for (k, r) in kept.iter().zip(&records) {
            assert_eq!(k.key, r.key, "kept set is an input-order prefix");
        }
    }

    #[test]
    fn corrupted_stores_are_rejected() {
        let (bytes, _) = serialize(&sample_records(), &WarmPolicy::default(), 0);

        // Flipping any single byte must fail the checksum (or, for the
        // footer itself, the comparison).
        for pos in [0usize, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x41;
            assert!(parse(&bad).is_err(), "byte flip at {pos} must be rejected");
        }

        // Truncation at any prefix length fails cleanly.
        for cut in [0, 7, 12, 16, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                parse(&bytes[..cut]).is_err(),
                "truncation to {cut} bytes must be rejected"
            );
        }

        // A version bump is rejected as UnsupportedVersion even with a
        // recomputed (valid) checksum.
        let mut bumped = bytes[..bytes.len() - 8].to_vec();
        bumped[8..12].copy_from_slice(&(WARM_FORMAT_VERSION + 1).to_le_bytes());
        let sum = fnv1a64(&bumped);
        bumped.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            parse(&bumped),
            Err(WarmStoreError::UnsupportedVersion(v)) if v == WARM_FORMAT_VERSION + 1
        ));

        // Wrong magic with a valid checksum is BadMagic.
        let mut wrong = bytes[..bytes.len() - 8].to_vec();
        wrong[0] = b'X';
        let sum = fnv1a64(&wrong);
        wrong.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(parse(&wrong), Err(WarmStoreError::BadMagic)));

        // A solver-semantics bump (valid checksum, current format) is
        // the distinct SemanticsMismatch, not a silent load.
        let mut drifted = bytes[..bytes.len() - 8].to_vec();
        drifted[20..24].copy_from_slice(&(SOLVER_SEMANTICS_VERSION + 1).to_le_bytes());
        let sum = fnv1a64(&drifted);
        drifted.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            parse(&drifted),
            Err(WarmStoreError::SemanticsMismatch(v)) if v == SOLVER_SEMANTICS_VERSION + 1
        ));
    }

    #[test]
    fn keyed_stores_reject_foreign_programs_distinctly() {
        let dir = std::env::temp_dir().join(format!("portend-warm-keyed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("keyed.warm");

        let cache = SolverCache::new(4);
        cache.insert("k".into(), SatResult::Unsat);
        cache
            .save_keyed(&path, 0xaaaa_bbbb, &WarmPolicy::keep_everything())
            .unwrap();

        // Matching fingerprint loads.
        let warmed = SolverCache::new(4);
        let report = warmed.warm_from_keyed(&path, 0xaaaa_bbbb).unwrap();
        assert_eq!(report.entries, 1);
        assert_eq!(report.rejected_fingerprint, 0);

        // A different program's fingerprint is the distinct rejection,
        // counted on the cache, with no entry absorbed.
        let cold = SolverCache::new(4);
        let err = cold.warm_from_keyed(&path, 0xdead_beef).unwrap_err();
        assert!(matches!(
            err,
            WarmStoreError::ForeignFingerprint {
                stored: 0xaaaa_bbbb,
                expected: 0xdead_beef,
            }
        ));
        let snap = cold.snapshot();
        assert_eq!(snap.warm_rejected_fingerprint, 1);
        assert_eq!((snap.entries, snap.warmed), (0, 0));
        assert!(
            err.to_string().contains("another program"),
            "rejection names the cause: {err}"
        );

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_load_through_cache_preserves_answers() {
        let dir = std::env::temp_dir().join(format!("portend-warm-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("unit.warm");

        let cache = SolverCache::new(4);
        cache.insert("hot".into(), SatResult::Unsat);
        for _ in 0..2 {
            assert!(matches!(
                cache.lookup("hot"),
                crate::cache::CacheAnswer::Hit(_)
            ));
        }
        cache.insert("cold".into(), SatResult::Unknown);
        let report = cache.save_keyed(&path, 9, &WarmPolicy::default()).unwrap();
        assert_eq!(report.entries, 1, "only the hot entry qualifies");

        let warmed = SolverCache::default();
        warmed.warm_from_keyed(&path, 9).unwrap();
        let snap = warmed.snapshot();
        assert_eq!((snap.warmed, snap.entries), (1, 1));
        // The warmed entry answers (first hits go through probation,
        // which still carries the persisted result).
        match warmed.lookup("hot") {
            crate::cache::CacheAnswer::Hit(r) | crate::cache::CacheAnswer::Probation(r) => {
                assert_eq!(r, SatResult::Unsat)
            }
            crate::cache::CacheAnswer::Miss => panic!("warmed entry must be present"),
        }
        assert!(matches!(
            warmed.lookup("cold"),
            crate::cache::CacheAnswer::Miss
        ));

        // Keep-everything persists the cold entry too.
        let report = cache
            .save_keyed(&path, 9, &WarmPolicy::keep_everything())
            .unwrap();
        assert_eq!(report.entries, 2);
        let warmed = SolverCache::default();
        warmed.warm_from_keyed(&path, 9).unwrap();
        assert_eq!(warmed.snapshot().warmed, 2);

        // A missing file is an Io error (the first-run case).
        assert!(matches!(
            SolverCache::default().warm_from_keyed(&dir.join("absent.warm"), 9),
            Err(WarmStoreError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
