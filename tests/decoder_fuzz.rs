//! Seeded mutation fuzzing of the decoders that read outside bytes: the
//! JSON parser (`portend_obs::json::parse`), the run-report reader
//! (`RunReport::from_json`), the daemon's wire decoders
//! (`Request::parse`, `Frame::parse`), and the warm-store reader
//! behind `StoreManager::load_into` (a store's header and its record
//! bodies).
//!
//! Seeds are a live report from a real pipeline run, the frames a real
//! daemon session emits, and a store file a real store directory holds.
//! Each case flips bytes, truncates, or splices in a chunk of another
//! seed. Properties:
//!
//! 1. no input panics any decoder;
//! 2. every unmutated seed round-trips byte for byte;
//! 3. an input a decoder accepts re-renders to a document it decodes to
//!    the same value (acceptance is canonical, never best-effort);
//! 4. a report carrying another `version` is rejected, standalone or
//!    inside a `done` frame;
//! 5. a store whose header or record bodies were mutated is rejected
//!    with the cache left empty, or warms at most the header's record
//!    count. Record mutations, and half the header mutations, come with
//!    the checksum recomputed, so the parser behind it sees them.
//!
//! About 10,000 cases per in-memory decoder in release builds, fewer in
//! debug and for the store (each of its cases does file I/O).

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

use portend_repro::portend::{PortendConfig, ReportError, RunReport, REPORT_FORMAT_VERSION};
use portend_repro::portend_obs::json;
use portend_repro::portend_serve::{Frame, Request, Server, ServerConfig};
use portend_repro::portend_symex::warm::WARM_MAGIC;
use portend_repro::portend_symex::{
    CmpOp, Expr, Solver, SolverCache, StoreManager, VarTable, WarmPolicy, WarmStoreError,
};
use portend_repro::portend_vm::SmallRng;
use portend_repro::portend_workloads::by_name;

/// Mutated cases per in-memory decoder.
const CASES: usize = if cfg!(debug_assertions) { 600 } else { 10_000 };

/// Mutated cases per store test.
const STORE_CASES: usize = if cfg!(debug_assertions) { 200 } else { 2_000 };

/// A live report: ctrace's verdicts cover every evidence shape
/// (spec violation with a schedule, output difference, k-witness).
fn live_report() -> String {
    let w = by_name("ctrace").expect("workload exists");
    let result = w.analyze(PortendConfig::default());
    RunReport::from_result("fuzz-seed", &result).to_json()
}

/// The frames of one real daemon session: an analyze (verdict frames
/// plus the `done` frame), a ping, an unknown op, and a shutdown.
fn live_session() -> (Vec<String>, Vec<String>) {
    let requests = [
        "{\"op\":\"analyze\",\"id\":3,\"workload\":\"bbuf\",\"workers\":2}",
        "{\"op\":\"ping\",\"id\":4}",
        "{\"op\":\"warp\",\"id\":5}",
        "{\"op\":\"shutdown\",\"id\":6}",
    ];
    let server = Server::new(ServerConfig::default()).expect("server");
    let mut input = std::io::Cursor::new(requests.join("\n").into_bytes());
    let mut output = Vec::new();
    server.serve_io(&mut input, &mut output).expect("serve");
    let frames: Vec<String> = String::from_utf8(output)
        .expect("utf8 frames")
        .lines()
        .map(str::to_string)
        .collect();
    assert!(
        frames.iter().any(|f| f.contains("\"frame\":\"verdict\"")),
        "the session streams verdict frames"
    );
    (requests.iter().map(|r| r.to_string()).collect(), frames)
}

/// One mutation of `seed` as a `&str`, the way a reader would decode
/// the mutated bytes (invalid UTF-8 replaced).
fn mutate(rng: &mut SmallRng, seed: &str, donor: &str) -> String {
    String::from_utf8_lossy(&mutate_bytes(rng, seed.as_bytes(), donor.as_bytes())).into_owned()
}

/// One mutation of `seed`: byte flips, a truncation, or a splice of a
/// chunk of `donor`.
fn mutate_bytes(rng: &mut SmallRng, seed: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    match rng.gen_index(4) {
        0 => {
            for _ in 0..1 + rng.gen_index(4) {
                let at = rng.gen_index(bytes.len());
                bytes[at] ^= 1 << rng.gen_index(8);
            }
        }
        1 => {
            let at = rng.gen_index(bytes.len());
            bytes[at] = b"{}[]\",:-0123456789.eE\\ntfu"[rng.gen_index(26)];
        }
        2 => bytes.truncate(rng.gen_index(bytes.len())),
        _ => {
            let from = rng.gen_index(donor.len());
            let len = rng.gen_index((donor.len() - from).min(64)) + 1;
            let at = rng.gen_index(bytes.len() + 1);
            let cut = (at + rng.gen_index(16)).min(bytes.len());
            bytes.splice(at..cut, donor[from..from + len].iter().copied());
        }
    }
    bytes
}

/// Runs `decode` on `input`, failing the test with the input on a panic.
fn no_panic<I: Debug + ?Sized, T>(what: &str, input: &I, decode: impl FnOnce(&I) -> T) -> T {
    catch_unwind(AssertUnwindSafe(|| decode(input)))
        .unwrap_or_else(|_| panic!("{what} panicked on {input:?}"))
}

/// Fuzzes one decoder over `seeds`; `check` asserts the per-input
/// properties of an input that did not panic.
fn fuzz(what: &str, seed: u64, seeds: &[String], check: impl Fn(&str)) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..CASES {
        let base = &seeds[rng.gen_index(seeds.len())];
        let donor = &seeds[rng.gen_index(seeds.len())];
        let input = mutate(&mut rng, base, donor);
        no_panic(what, &input, |s| check(s));
    }
}

#[test]
fn json_parser_survives_mutation_and_round_trips() {
    let (requests, frames) = live_session();
    let mut seeds = vec![live_report()];
    seeds.extend(requests);
    seeds.extend(frames);
    for s in &seeds {
        let v = json::parse(s).expect("seed parses");
        assert_eq!(&v.render(), s, "seed round-trips");
    }
    fuzz("json::parse", 0x15_0F, &seeds, |s| {
        if let Ok(v) = json::parse(s) {
            let again = v.render();
            assert_eq!(json::parse(&again).as_ref(), Ok(&v), "canonical: {s:?}");
        }
    });
}

#[test]
fn run_report_reader_survives_mutation_and_rejects_other_versions() {
    let report = live_report();
    let parsed = RunReport::from_json(&report).expect("live report parses");
    assert_eq!(parsed.to_json(), report, "live report round-trips");
    let current = format!("\"version\":{REPORT_FORMAT_VERSION}");
    for other in [
        0,
        1,
        REPORT_FORMAT_VERSION - 1,
        REPORT_FORMAT_VERSION + 1,
        99,
    ] {
        let doc = report.replacen(&current, &format!("\"version\":{other}"), 1);
        assert!(
            matches!(RunReport::from_json(&doc), Err(ReportError::UnsupportedVersion(v)) if v == u64::from(other)),
            "version {other} accepted"
        );
    }
    let seeds = [report];
    fuzz("RunReport::from_json", 0x2E_70, &seeds, |s| {
        if let Ok(r) = RunReport::from_json(s) {
            let again = RunReport::from_json(&r.to_json()).expect("own rendering parses");
            assert_eq!(again, r, "canonical: {s:?}");
        }
    });
}

#[test]
fn wire_decoders_survive_mutation_and_round_trip() {
    let (requests, frames) = live_session();
    for line in &requests[..2] {
        let req = Request::parse(line).expect("live request parses");
        assert_eq!(&req.render(), line, "request round-trips");
    }
    assert!(Request::parse(&requests[2]).is_err(), "unknown op rejected");
    let current = format!("\"version\":{REPORT_FORMAT_VERSION}");
    for line in &frames {
        let frame = Frame::parse(line).expect("live frame parses");
        assert_eq!(&frame.render(), line, "frame round-trips");
        if let Frame::Done { report, .. } = &frame {
            RunReport::from_json_value(report).expect("done frame carries a report");
            let other = line.replacen(&current, "\"version\":4", 1);
            let Ok(Frame::Done { report, .. }) = Frame::parse(&other) else {
                panic!("a re-versioned done frame is still a frame");
            };
            assert!(matches!(
                RunReport::from_json_value(&report),
                Err(ReportError::UnsupportedVersion(4))
            ));
        }
    }
    let mut seeds = requests.clone();
    seeds.extend(frames.iter().cloned());
    fuzz("Request::parse", 0x3E_01, &seeds, |s| {
        if let Ok(r) = Request::parse(s) {
            assert_eq!(
                Request::parse(&r.render()).as_ref(),
                Ok(&r),
                "canonical: {s:?}"
            );
        }
    });
    fuzz("Frame::parse", 0x4F_02, &seeds, |s| {
        if let Ok(f) = Frame::parse(s) {
            assert_eq!(
                Frame::parse(&f.render()).as_ref(),
                Ok(&f),
                "canonical: {s:?}"
            );
            if let Frame::Done { report, .. } = &f {
                let _ = RunReport::from_json_value(report);
            }
        }
    });
}

/// A solver cache holding the answers of a few real sliced checks.
fn solved_cache() -> Arc<SolverCache> {
    let cache = Arc::new(SolverCache::new(2));
    let solver = Solver::new().cached(Arc::clone(&cache));
    let mut vars = VarTable::new();
    let x = Expr::var(vars.fresh("x", 0, 99));
    let y = Expr::var(vars.fresh("y", 0, 99));
    for k in 0..8 {
        solver.check_sliced(
            &[
                x.clone().cmp(CmpOp::Gt, Expr::konst(k * 10)),
                y.clone().cmp(CmpOp::Lt, Expr::konst(k + 1)),
            ],
            &vars,
        );
    }
    cache
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portend-fuzz-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Byte offset of the record-count field in a store header: after the
/// magic, format version, fingerprint and semantics version.
const RECORD_COUNT_AT: usize = 8 + 4 + 8 + 4;

/// The store's trailing checksum: FNV-1a-64 of every preceding byte.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn store_header_survives_mutation() {
    let dir = scratch_dir("header");
    let mgr = StoreManager::new(&dir)
        .expect("store dir")
        .with_policy(WarmPolicy::keep_everything());
    mgr.save_from(1, &solved_cache()).expect("save");
    let real = std::fs::read(mgr.path_for(1)).expect("real store");
    let footer = real.len() - 8;
    let (head, records) = real[..footer].split_at(RECORD_COUNT_AT + 4);
    assert!(head[..8] == WARM_MAGIC && !records.is_empty());
    let mut rng = SmallRng::seed_from_u64(0x4EAD);
    let mut foreign = 0;
    for _ in 0..STORE_CASES {
        let mut bytes = mutate_bytes(&mut rng, head, &real);
        bytes.extend_from_slice(records);
        if rng.gen_index(2) == 0 {
            let sum = fnv1a64(&bytes);
            bytes.extend_from_slice(&sum.to_le_bytes());
        } else {
            bytes.extend_from_slice(&real[footer..]);
        }
        std::fs::write(mgr.path_for(1), &bytes).expect("write store");
        no_panic("load_into", bytes.as_slice(), |b| {
            let cache = SolverCache::new(2);
            let loaded = mgr.load_into(1, &cache);
            let snap = cache.snapshot();
            match loaded {
                Ok(report) if report.rejected_fingerprint == 0 => {
                    let count = b
                        .get(RECORD_COUNT_AT..RECORD_COUNT_AT + 4)
                        .map(|c| u64::from(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                        .expect("a keyed load has a record count");
                    assert!(report.entries <= count, "{report:?} vs count {count}");
                    assert!(snap.warmed <= count, "{snap:?} vs count {count}");
                }
                rejected => {
                    foreign += usize::from(rejected.is_ok());
                    assert_eq!((snap.entries, snap.warmed), (0, 0), "{rejected:?}");
                }
            }
        });
    }
    assert!(foreign > 0, "some mutants must reach the fingerprint check");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn store_record_bodies_survive_mutation() {
    let dir = scratch_dir("records");
    let mgr = StoreManager::new(&dir)
        .expect("store dir")
        .with_policy(WarmPolicy::keep_everything());
    mgr.save_from(1, &solved_cache()).expect("save");
    let real = std::fs::read(mgr.path_for(1)).expect("real store");
    let footer = real.len() - 8;
    assert_eq!(
        fnv1a64(&real[..footer]).to_le_bytes(),
        real[footer..],
        "the test's checksum is the store's"
    );
    let (head, records) = real[..footer].split_at(RECORD_COUNT_AT);
    let real_count = u32::from_le_bytes(records[..4].try_into().expect("count"));
    assert!(real_count > 1, "the seed store holds several records");
    let mut rng = SmallRng::seed_from_u64(0xB0D1E5);
    let mut accepted = 0;
    for _ in 0..STORE_CASES {
        let mut bytes = head.to_vec();
        bytes.extend(mutate_bytes(&mut rng, records, records));
        let sum = fnv1a64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        std::fs::write(mgr.path_for(1), &bytes).expect("write store");
        no_panic("load_into", bytes.as_slice(), |b| {
            let cache = SolverCache::new(2);
            let loaded = mgr.load_into(1, &cache);
            let snap = cache.snapshot();
            match loaded {
                Ok(report) => {
                    let count = b
                        .get(RECORD_COUNT_AT..RECORD_COUNT_AT + 4)
                        .map(|c| u64::from(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                        .expect("an accepted store has a record count");
                    assert_eq!(report.rejected_fingerprint, 0, "{report:?}");
                    assert!(report.entries <= count, "{report:?} vs count {count}");
                    assert!(snap.warmed <= count, "{snap:?} vs count {count}");
                    accepted += 1;
                }
                Err(e) => {
                    assert!(
                        !matches!(e, WarmStoreError::ChecksumMismatch),
                        "the recomputed checksum must hold"
                    );
                    assert_eq!((snap.entries, snap.warmed), (0, 0), "{snap:?}");
                }
            }
        });
    }
    assert!(accepted > 0, "some mutants must parse");
    std::fs::remove_dir_all(&dir).ok();
}
