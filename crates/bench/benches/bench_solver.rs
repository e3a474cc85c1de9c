//! Criterion benchmark: the bounded-domain constraint solver (the STP
//! substitute) on the query shapes Portend issues, plus a measured
//! comparison of whole-query vs slice-level caching on an Mp × Ma-style
//! corpus (shared pre-race prefix, per-race / per-path / per-schedule
//! suffixes — the paper's §3.3 query distribution), plus a warm-vs-cold
//! comparison of the persistent cross-run cache (the warm store, read
//! and written through a `StoreManager` directory) on both the
//! synthetic corpus and a real classification run (ctrace).

use std::sync::Arc;

use portend::{PortendConfig, WarmSource};
use portend_bench::crit::Criterion;
use portend_bench::{criterion_group, criterion_main, render_table};
use portend_symex::{CmpOp, Expr, SatResult, Solver, SolverCache, StoreManager, VarTable};

/// A store manager over a fresh per-process temp directory, with the
/// default budget and export policy.
fn scratch_store(name: &str) -> StoreManager {
    let dir = std::env::temp_dir().join(format!("portend-bench-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    StoreManager::new(dir).expect("create store dir")
}

fn bench_solver(c: &mut Criterion) {
    // Path-condition feasibility: linear constraints (pruning-friendly).
    c.bench_function("solver_linear_feasibility", |b| {
        let mut vars = VarTable::new();
        let x = Expr::var(vars.fresh("x", 0, 1000));
        let y = Expr::var(vars.fresh("y", 0, 1000));
        let cs = [
            x.clone()
                .mul(Expr::konst(3))
                .add(y.clone())
                .cmp(CmpOp::Eq, Expr::konst(250)),
            x.clone().cmp(CmpOp::Gt, Expr::konst(10)),
            y.clone().cmp(CmpOp::Lt, Expr::konst(100)),
        ];
        let solver = Solver::new();
        b.iter(|| portend_bench::crit::black_box(solver.check(&cs, &vars)))
    });
    // Symbolic output comparison: equality against concrete outputs.
    c.bench_function("solver_output_match", |b| {
        let mut vars = VarTable::new();
        let i = Expr::var(vars.fresh("i", -64, 63));
        let cs = [
            i.clone().cmp(CmpOp::Ge, Expr::konst(0)),
            i.clone().eq(Expr::konst(42)),
        ];
        let solver = Solver::new();
        b.iter(|| portend_bench::crit::black_box(solver.check(&cs, &vars)))
    });
    // Non-linear search (the ocean gauntlet shape).
    c.bench_function("solver_modular_search", |b| {
        let mut vars = VarTable::new();
        let x = Expr::var(vars.fresh("x", 0, 63));
        let y = Expr::var(vars.fresh("y", 0, 63));
        let cs = [
            x.clone().cmp(CmpOp::Ge, Expr::konst(32)),
            y.clone().cmp(CmpOp::Ge, Expr::konst(16)),
            Expr::bin(
                portend_symex::BinOp::Rem,
                x.clone().add(y.clone()),
                Expr::konst(7),
            )
            .eq(Expr::konst(6)),
        ];
        let solver = Solver::new();
        b.iter(|| portend_bench::crit::black_box(solver.check(&cs, &vars)))
    });
}

/// The Mp × Ma corpus: for each of `races` races, every combination of
/// `mp` primary paths and `ma` alternate schedules issues one
/// feasibility query `prefix ∧ race_i ∧ path_j ∧ sched_k`. The prefix
/// (the pre-race path condition) is shared by *every* query; the other
/// pieces recur across subsets. No two whole queries are identical, so
/// whole-query caching cannot hit within one corpus pass — slice-level
/// caching is what converts the structural repetition into hits.
fn mp_ma_corpus(races: usize, mp: usize, ma: usize) -> (VarTable, Vec<Vec<Expr>>) {
    let mut vars = VarTable::new();
    let s0 = Expr::var(vars.fresh("s0", 0, 63));
    let s1 = Expr::var(vars.fresh("s1", 0, 63));
    let p = Expr::var(vars.fresh("p", 0, 63));
    let q = Expr::var(vars.fresh("q", 0, 63));
    let race_vars: Vec<Expr> = (0..races)
        .map(|i| Expr::var(vars.fresh(format!("r{i}"), 0, 63)))
        .collect();
    // The shared pre-race prefix: one connected slice over s0, s1.
    let prefix = [
        s0.clone().cmp(CmpOp::Ge, Expr::konst(8)),
        s0.clone().add(s1.clone()).cmp(CmpOp::Lt, Expr::konst(90)),
        s1.clone().cmp(CmpOp::Gt, Expr::konst(2)),
    ];
    let mut queries = Vec::with_capacity(races * mp * ma);
    for (i, rv) in race_vars.iter().enumerate() {
        for j in 0..mp {
            for k in 0..ma {
                let mut cs: Vec<Expr> = prefix.to_vec();
                cs.push(rv.clone().cmp(CmpOp::Ne, Expr::konst(i as i64)));
                cs.push(p.clone().cmp(CmpOp::Gt, Expr::konst(j as i64)));
                cs.push(q.clone().cmp(CmpOp::Le, Expr::konst(40 + k as i64)));
                queries.push(cs);
            }
        }
    }
    (vars, queries)
}

/// Runs the corpus through a whole-query-cached solver and a sliced
/// solver sharing a fresh cache each, asserting verdict equality, and
/// reports solve counts (cache misses), rendered-key bytes, and hit
/// rates — the measured reduction the slice layer exists for.
fn report_slice_reduction() {
    const RACES: usize = 6;
    const MP: usize = 5;
    const MA: usize = 2;
    let (vars, queries) = mp_ma_corpus(RACES, MP, MA);

    let whole_cache = Arc::new(SolverCache::default());
    let whole = Solver::new().cached(Arc::clone(&whole_cache));
    let sliced_cache = Arc::new(SolverCache::default());
    let sliced = Solver::new().cached(Arc::clone(&sliced_cache));

    for cs in &queries {
        let a = whole.check(cs, &vars);
        let b = sliced.check_sliced(cs, &vars);
        assert_eq!(a, b, "sliced verdict must equal whole-query verdict");
        assert!(!matches!(a, SatResult::Unknown), "corpus stays in budget");
    }
    let w = whole_cache.snapshot();
    let s = sliced_cache.snapshot();
    let solved_whole = w.misses;
    let solved_sliced = s.slice_misses;
    assert!(
        solved_sliced < solved_whole,
        "slice-level keys must reduce solver queries: {solved_sliced} vs {solved_whole}"
    );
    println!(
        "\nsolver-cache granularity on the Mp x Ma corpus \
         ({RACES} races x {MP} paths x {MA} schedules = {} queries):\n",
        queries.len()
    );
    println!(
        "{}",
        render_table(
            &["Cache", "Lookups", "Hit rate", "Solved", "Key bytes"],
            &[
                vec![
                    "whole-query".into(),
                    (w.hits + w.misses).to_string(),
                    format!("{:.0}%", 100.0 * w.hit_rate()),
                    solved_whole.to_string(),
                    w.key_bytes.to_string(),
                ],
                vec![
                    "sliced".into(),
                    (s.slice_hits + s.slice_misses).to_string(),
                    format!("{:.0}%", 100.0 * s.slice_hit_rate()),
                    solved_sliced.to_string(),
                    s.key_bytes.to_string(),
                ],
            ],
        )
    );
    println!(
        "query reduction: {solved_whole} -> {solved_sliced} solves \
         ({:.1}x fewer)\n",
        solved_whole as f64 / solved_sliced.max(1) as f64
    );
}

/// Runs the Mp × Ma corpus twice through the sliced cached solver —
/// once cold, once on a cache warmed from the first run's persisted
/// store — asserting identical verdicts and strictly fewer solves, and
/// prints the warm-vs-cold columns. This is the cross-run scenario the
/// warm store exists for: a long-lived service re-analyzing successive
/// builds of one program.
fn report_warm_start() {
    let (vars, queries) = mp_ma_corpus(6, 5, 2);
    let store = scratch_store("corpus");

    let cold_cache = Arc::new(SolverCache::default());
    let cold = Solver::new().cached(Arc::clone(&cold_cache));
    let cold_answers: Vec<SatResult> = queries
        .iter()
        .map(|cs| cold.check_sliced(cs, &vars))
        .collect();
    store.save_from(1, &cold_cache).expect("persist warm store");

    let warm_cache = Arc::new(SolverCache::default());
    store.load_into(1, &warm_cache).expect("load warm store");
    let warm = Solver::new().cached(Arc::clone(&warm_cache));
    for (cs, expected) in queries.iter().zip(&cold_answers) {
        assert_eq!(
            &warm.check_sliced(cs, &vars),
            expected,
            "warm verdict must equal cold verdict"
        );
    }
    let c = cold_cache.snapshot();
    let w = warm_cache.snapshot();
    let row = |label: &str, s: &portend_symex::CacheSnapshot| {
        vec![
            label.into(),
            (s.slice_hits + s.slice_misses).to_string(),
            format!("{:.0}%", 100.0 * s.slice_hit_rate()),
            (s.misses + s.slice_misses).to_string(),
            s.warm_hits.to_string(),
        ]
    };
    println!("\nwarm store on the Mp x Ma corpus (second run of the same program):\n");
    println!(
        "{}",
        render_table(
            &["Run", "Lookups", "Hit rate", "Solved", "Warm hits"],
            &[row("cold", &c), row("warm", &w)],
        )
    );
    let (cold_solves, warm_solves) = (c.misses + c.slice_misses, w.misses + w.slice_misses);
    assert!(
        warm_solves < cold_solves,
        "warm run must solve strictly fewer queries: {warm_solves} vs {cold_solves}"
    );
    assert_eq!(w.warm_mismatches, 0, "store must validate cleanly");
    println!(
        "warm start: {cold_solves} -> {warm_solves} solves \
         ({:.1}x fewer, {} validated by sampling)\n",
        cold_solves as f64 / warm_solves.max(1) as f64,
        w.warm_validations
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

/// The CI smoke for the real pipeline: two farm runs of the ctrace
/// workload sharing a store directory must classify identically while
/// the second performs strictly fewer solver invocations.
fn report_ctrace_warm_start() {
    let w = portend_workloads::by_name("ctrace").expect("ctrace workload");
    let store = Arc::new(scratch_store("ctrace"));
    let warm = WarmSource {
        cache: None,
        store: Some((Arc::clone(&store), w.fingerprint())),
    };
    let run = || w.analyze_streamed(PortendConfig::default(), 2, &warm, &mut |_, _, _| {});

    let first = run();
    let second = run();
    let solves = |r: &portend::PipelineResult| r.cache.misses + r.cache.slice_misses;
    for (a, b) in first.analyzed.iter().zip(&second.analyzed) {
        assert_eq!(a.verdict, b.verdict, "warm run must not change verdicts");
    }
    assert!(
        solves(&second) < solves(&first),
        "ctrace warm run must solve strictly fewer: {} vs {}",
        solves(&second),
        solves(&first)
    );
    let c2 = second.cache;
    assert_eq!(c2.warm_mismatches, 0);
    println!(
        "ctrace corpus warm start: {} -> {} solves ({} entries persisted, {} warm hits)\n",
        solves(&first),
        solves(&second),
        c2.warmed,
        c2.warm_hits
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

fn bench_warm(c: &mut Criterion) {
    // Wall-clock: one corpus pass on a cold cache vs a warmed cache.
    let (vars, queries) = mp_ma_corpus(6, 5, 2);
    let store = scratch_store("wall");
    let seed_cache = Arc::new(SolverCache::default());
    let seed = Solver::new().cached(Arc::clone(&seed_cache));
    for cs in &queries {
        seed.check_sliced(cs, &vars);
    }
    store.save_from(1, &seed_cache).expect("persist");
    c.bench_function("solver_corpus_cold_start", |b| {
        b.iter(|| {
            let solver = Solver::new().cached(Arc::new(SolverCache::default()));
            for cs in &queries {
                portend_bench::crit::black_box(solver.check_sliced(cs, &vars));
            }
        })
    });
    c.bench_function("solver_corpus_warm_start", |b| {
        b.iter(|| {
            // Includes the store-index touch every managed load pays.
            let cache = Arc::new(SolverCache::default());
            store.load_into(1, &cache).expect("load");
            let solver = Solver::new().cached(cache);
            for cs in &queries {
                portend_bench::crit::black_box(solver.check_sliced(cs, &vars));
            }
        })
    });
    std::fs::remove_dir_all(store.dir()).ok();
    report_warm_start();
    report_ctrace_warm_start();
}

fn bench_sliced(c: &mut Criterion) {
    // Wall-clock: one corpus pass, whole-query-cached vs sliced-cached.
    let (vars, queries) = mp_ma_corpus(6, 5, 2);
    c.bench_function("solver_corpus_whole_query_cache", |b| {
        b.iter(|| {
            let solver = Solver::new().cached(Arc::new(SolverCache::default()));
            for cs in &queries {
                portend_bench::crit::black_box(solver.check(cs, &vars));
            }
        })
    });
    c.bench_function("solver_corpus_sliced_cache", |b| {
        b.iter(|| {
            let solver = Solver::new().cached(Arc::new(SolverCache::default()));
            for cs in &queries {
                portend_bench::crit::black_box(solver.check_sliced(cs, &vars));
            }
        })
    });
    report_slice_reduction();
}

criterion_group!(benches, bench_solver, bench_sliced, bench_warm);
criterion_main!(benches);
