//! Cross-run persistence of the solver cache (the "warm store"),
//! through `StoreManager`, the only code that reads or writes a store.
//!
//! Three contracts are pinned here:
//!
//! 1. **Round trip is answer-preserving**: for randomized constraint
//!    sets, every answer served by a warmed cache is structurally
//!    identical — verdict and witness model — to what a cold solver
//!    computes (seeded-PRNG property test, no external crates).
//! 2. **Damaged stores are rejected wholesale**: corruption, truncation,
//!    or a format-version bump makes the load fail cleanly and the run
//!    proceed cold; no partial store ever reaches the cache.
//! 3. **Warm starts actually save work**: a second `analyze_streamed`
//!    run over the same workload, warmed from and saved to a store
//!    directory, performs strictly fewer solver invocations than the
//!    first, with verdicts byte-identical to a cold run.
//!
//! Plus a regression: fingerprint `0` is an ordinary key, not a
//! wildcard any program accepts.

use std::path::PathBuf;
use std::sync::Arc;

use portend_repro::portend::{PortendConfig, WarmPolicy, WarmSource};
use portend_repro::portend_symex::{
    CmpOp, Expr, SatResult, Solver, SolverCache, StoreManager, VarTable, WarmLoadReport,
};
use portend_repro::portend_vm::SmallRng;
use portend_repro::portend_workloads as workloads;

/// A fresh store directory under the system temp dir (the suite may
/// run concurrently with itself under `cargo test`'s process-per-binary
/// model, so the directory name carries the pid).
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("portend-warm-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A manager over a fresh `scratch` directory that persists every
/// entry.
fn keep_everything_store(name: &str) -> StoreManager {
    StoreManager::new(scratch(name))
        .expect("store dir")
        .with_policy(WarmPolicy::keep_everything())
}

/// Random small constraint sets over two bounded variables, the same
/// distribution family as `tests/property.rs` but assembled from
/// comparison shapes the slicer exercises (independent per-variable
/// slices plus occasional coupling).
fn random_queries(r: &mut SmallRng, cases: usize) -> (VarTable, Vec<Vec<Expr>>) {
    let mut vars = VarTable::new();
    let x = vars.fresh("x", -6, 6);
    let y = vars.fresh("y", -6, 6);
    let var = [x, y];
    let mut queries = Vec::with_capacity(cases);
    for _ in 0..cases {
        let n = 1 + r.gen_index(3);
        let mut cs = Vec::with_capacity(n);
        for _ in 0..n {
            let v = Expr::var(var[r.gen_index(2)]);
            let k = Expr::konst(r.gen_index(13) as i64 - 6);
            let op = match r.gen_index(4) {
                0 => CmpOp::Lt,
                1 => CmpOp::Ge,
                2 => CmpOp::Eq,
                _ => CmpOp::Ne,
            };
            let lhs = if r.gen_index(4) == 0 {
                v.add(Expr::var(var[r.gen_index(2)]))
            } else {
                v
            };
            cs.push(lhs.cmp(op, k));
        }
        queries.push(cs);
    }
    (vars, queries)
}

/// Save → load → every cached answer byte-identical: a cold cached
/// solver answers a query corpus, the cache is persisted with
/// `keep_everything`, a fresh cache is warmed from disk, and a second
/// solver re-answers the corpus — every result (verdict *and* model)
/// must equal the cold run's, the warm run must solve strictly less,
/// and the validation sampling must find zero mismatches.
#[test]
fn warm_round_trip_preserves_every_answer() {
    let mut r = SmallRng::seed_from_u64(0x3A9A57u64);
    let (vars, queries) = random_queries(&mut r, 160);
    let store = keep_everything_store("roundtrip");

    let cold_cache = Arc::new(SolverCache::new(4));
    let cold = Solver::new().cached(Arc::clone(&cold_cache));
    let cold_answers: Vec<SatResult> = queries
        .iter()
        .map(|cs| cold.check_sliced(cs, &vars))
        .collect();
    let cold_solves = {
        let s = cold_cache.snapshot();
        s.misses + s.slice_misses
    };
    assert!(cold_solves > 0, "corpus must require solving");
    store.save_from(1, &cold_cache).expect("save");

    let warm_cache = Arc::new(SolverCache::new(4));
    store.load_into(1, &warm_cache).expect("load");
    let snap = warm_cache.snapshot();
    assert!(snap.warmed > 0, "store must not be empty: {snap:?}");
    let warm = Solver::new().cached(Arc::clone(&warm_cache));
    for (cs, expected) in queries.iter().zip(&cold_answers) {
        let got = warm.check_sliced(cs, &vars);
        assert_eq!(&got, expected, "warm answer differs for {cs:?}");
    }
    let snap = warm_cache.snapshot();
    let warm_solves = snap.misses + snap.slice_misses;
    assert!(
        warm_solves < cold_solves,
        "warm run must solve strictly less: {warm_solves} vs {cold_solves}"
    );
    assert_eq!(snap.warm_mismatches, 0, "faithful store: {snap:?}");
    assert!(
        snap.warm_validations > 0,
        "sampling must have probed some warm entries: {snap:?}"
    );
    assert!(snap.warm_hits > 0, "warm entries must serve hits: {snap:?}");
    std::fs::remove_dir_all(store.dir()).ok();
}

/// Corrupted, truncated, and version-bumped stores are rejected cleanly
/// and leave the cache cold (empty, fully functional).
#[test]
fn damaged_stores_are_rejected_and_run_proceeds_cold() {
    let mut r = SmallRng::seed_from_u64(0xDEAD57u64);
    let (vars, queries) = random_queries(&mut r, 24);
    let store = keep_everything_store("damaged");
    let path = store.path_for(1);

    let cache = Arc::new(SolverCache::new(2));
    let solver = Solver::new().cached(Arc::clone(&cache));
    for cs in &queries {
        solver.check_sliced(cs, &vars);
    }
    store.save_from(1, &cache).expect("save");
    let bytes = std::fs::read(&path).expect("read back");

    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("flipped header byte", {
            let mut b = bytes.clone();
            b[9] ^= 0xFF;
            b
        }),
        ("flipped payload byte", {
            let mut b = bytes.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x01;
            b
        }),
        ("truncated", bytes[..bytes.len() / 2].to_vec()),
        ("empty", Vec::new()),
        ("version bumped", {
            // Recompute nothing: the checksum covers the version field,
            // so the flip alone must already fail one of the guards.
            let mut b = bytes.clone();
            b[8] = b[8].wrapping_add(1);
            b
        }),
    ];
    for (what, damaged) in cases {
        std::fs::write(&path, &damaged).expect("write damaged");
        let fresh = SolverCache::new(2);
        let err = store.load_into(1, &fresh);
        assert!(err.is_err(), "{what}: damaged store must be rejected");
        let snap = fresh.snapshot();
        assert_eq!(snap.entries, 0, "{what}: no partial load");
        assert_eq!(snap.warmed, 0, "{what}: cold start");
        // The rejected cache still serves the run normally.
        let s = Solver::new().cached(Arc::new(fresh));
        let reference = Solver::new().check_sliced(&queries[0], &vars);
        assert_eq!(s.check_sliced(&queries[0], &vars), reference);
    }

    // A missing store (the first-run case) is an all-zero report, also
    // cold.
    std::fs::remove_file(&path).ok();
    let fresh = SolverCache::new(2);
    assert_eq!(
        store
            .load_into(1, &fresh)
            .expect("missing store is no error"),
        WarmLoadReport::default()
    );
    assert_eq!(fresh.snapshot().warmed, 0);
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A second farm run over the same workload, warmed from the store
/// directory the first run saved to, performs strictly fewer solver
/// invocations than the first, and its verdicts are byte-identical to
/// a cold run's.
#[test]
fn second_run_solves_strictly_less_with_identical_verdicts() {
    for name in ["ctrace", "bbuf"] {
        let w = workloads::by_name(name).expect("workload exists");
        let dir = scratch(name); // pristine first run
        let warm = WarmSource {
            cache: None,
            store: Some((
                Arc::new(StoreManager::new(&dir).expect("store dir")),
                w.fingerprint(),
            )),
        };
        let run = |warm: &WarmSource| {
            w.analyze_streamed(PortendConfig::default(), 2, warm, &mut |_, _, _| {})
        };

        let cold_reference = run(&WarmSource::default());
        let first = run(&warm);
        let second = run(&warm);

        let solves =
            |r: &portend_repro::portend::PipelineResult| r.cache.misses + r.cache.slice_misses;
        assert!(
            solves(&second) < solves(&first),
            "{name}: warm run must solve strictly less ({} vs {})",
            solves(&second),
            solves(&first)
        );
        let c2 = second.cache;
        assert!(c2.warmed > 0, "{name}: second run must load the store");
        assert_eq!(c2.warm_mismatches, 0, "{name}: store is faithful");

        for (runs, label) in [(&first, "first"), (&second, "second")] {
            assert_eq!(
                runs.analyzed.len(),
                cold_reference.analyzed.len(),
                "{name}: {label} run race count"
            );
            for (a, b) in runs.analyzed.iter().zip(&cold_reference.analyzed) {
                assert_eq!(
                    a.verdict, b.verdict,
                    "{name}: {label} run verdict differs from cold reference"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Fingerprint `0` is an ordinary key: a store saved under `0` and
/// copied into the slot of program `7` is another program's store, so
/// loading it for `7` is the distinct fingerprint rejection and warms
/// nothing.
#[test]
fn fingerprint_zero_is_an_ordinary_key() {
    let store = keep_everything_store("zero");
    let mut vars = VarTable::new();
    let x = vars.fresh("x", -4, 4);
    let populated = Arc::new(SolverCache::new(2));
    Solver::new()
        .cached(Arc::clone(&populated))
        .check_sliced(&[Expr::var(x).cmp(CmpOp::Ge, Expr::konst(0))], &vars);
    let saved = store.save_from(0, &populated).expect("save under 0");
    assert!(saved.entries > 0, "the store holds answers: {saved:?}");
    std::fs::copy(store.path_for(0), store.path_for(7)).expect("copy");

    let cache = SolverCache::new(2);
    let report = store
        .load_into(7, &cache)
        .expect("foreign store is no error");
    assert_eq!(report.rejected_fingerprint, 1, "{report:?}");
    assert_eq!(cache.snapshot().warmed, 0, "nothing loads for program 7");
    std::fs::remove_dir_all(store.dir()).ok();
}
