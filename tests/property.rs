//! Randomized property tests on the reproduction's core invariants:
//! solver soundness, solver-cache transparency, expression-simplification
//! equivalence, vector-clock laws, and VM replay determinism.
//!
//! Driven by the workspace's own deterministic PRNG
//! ([`portend_repro::portend_vm::SmallRng`]) instead of an external
//! property-testing crate: every case derives from a fixed seed, so
//! failures reproduce exactly and the suite needs no network access.

use std::sync::Arc;

use portend_repro::portend_race::VectorClock;
use portend_repro::portend_symex::{
    BinOp, CmpOp, Expr, Model, SatResult, SliceMemo, Solver, SolverCache, SolverConfig, VarId,
    VarTable,
};
use portend_repro::portend_vm::{
    drive, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Machine, Operand,
    ProgramBuilder, Scheduler, SmallRng, StepEvent, ThreadId, VmConfig, Watch,
};

// ---------------------------------------------------------------------
// Expression language: random expression trees over two bounded vars.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ETree {
    Const(i64),
    Var(u8),
    Bin(BinOp, Box<ETree>, Box<ETree>),
    Cmp(CmpOp, Box<ETree>, Box<ETree>),
    Not(Box<ETree>),
}

const BIN_OPS: [BinOp; 6] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A random expression tree of depth at most `depth`.
fn gen_etree(r: &mut SmallRng, depth: u32) -> ETree {
    let leaf = depth == 0 || r.gen_index(3) == 0;
    if leaf {
        if r.gen_index(2) == 0 {
            ETree::Const(r.gen_index(40) as i64 - 20)
        } else {
            ETree::Var(r.gen_index(2) as u8)
        }
    } else {
        match r.gen_index(3) {
            0 => ETree::Bin(
                BIN_OPS[r.gen_index(BIN_OPS.len())],
                Box::new(gen_etree(r, depth - 1)),
                Box::new(gen_etree(r, depth - 1)),
            ),
            1 => ETree::Cmp(
                CMP_OPS[r.gen_index(CMP_OPS.len())],
                Box::new(gen_etree(r, depth - 1)),
                Box::new(gen_etree(r, depth - 1)),
            ),
            _ => ETree::Not(Box::new(gen_etree(r, depth - 1))),
        }
    }
}

fn build(t: &ETree) -> Expr {
    match t {
        ETree::Const(v) => Expr::konst(*v),
        ETree::Var(i) => Expr::var(VarId(*i as u32)),
        ETree::Bin(op, a, b) => Expr::bin(*op, build(a), build(b)),
        ETree::Cmp(op, a, b) => build(a).cmp(*op, build(b)),
        ETree::Not(a) => build(a).not(),
    }
}

/// Reference evaluation without any simplification.
fn eval_ref(t: &ETree, a: i64, b: i64) -> Option<i64> {
    match t {
        ETree::Const(v) => Some(*v),
        ETree::Var(0) => Some(a),
        ETree::Var(_) => Some(b),
        ETree::Bin(op, x, y) => op.apply(eval_ref(x, a, b)?, eval_ref(y, a, b)?),
        ETree::Cmp(op, x, y) => Some(op.apply(eval_ref(x, a, b)?, eval_ref(y, a, b)?)),
        ETree::Not(x) => Some((eval_ref(x, a, b)? == 0) as i64),
    }
}

/// Constant folding and simplification preserve semantics.
#[test]
fn expr_simplification_preserves_semantics() {
    let mut r = SmallRng::seed_from_u64(0xE59);
    for _case in 0..256 {
        let t = gen_etree(&mut r, 3);
        let a = r.gen_index(60) as i64 - 30;
        let b = r.gen_index(60) as i64 - 30;
        let e = build(&t);
        let mut m = Model::new();
        m.set(VarId(0), a);
        m.set(VarId(1), b);
        let expected = eval_ref(&t, a, b);
        let got = e.eval(&m).ok();
        assert_eq!(got, expected, "tree {t:?} under ({a},{b})");
    }
}

fn two_var_table(lo: i64, hi: i64) -> VarTable {
    let mut vars = VarTable::new();
    vars.fresh("a", lo, hi);
    vars.fresh("b", lo, hi);
    vars
}

/// Any model the solver returns actually satisfies the constraints.
#[test]
fn solver_models_are_sound() {
    let mut r = SmallRng::seed_from_u64(0x50B);
    for _case in 0..256 {
        let n = 1 + r.gen_index(3);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-10, 10);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let solver = Solver::new();
        if let SatResult::Sat(model) = solver.check(&cs, &vars) {
            for c in &cs {
                // A satisfying model makes every constraint non-zero.
                let v = c.eval(&model);
                assert!(
                    matches!(v, Ok(x) if x != 0),
                    "constraint {c} -> {v:?} under {model}"
                );
            }
        }
    }
}

/// Unsat answers are sound: no assignment in the domain satisfies.
#[test]
fn solver_unsat_is_sound() {
    let mut r = SmallRng::seed_from_u64(0x07A);
    for _case in 0..256 {
        let n = 1 + r.gen_index(2);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-4, 4);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let solver = Solver::new();
        if solver.check(&cs, &vars) == SatResult::Unsat {
            for a in -4i64..=4 {
                for b in -4i64..=4 {
                    let mut m = Model::new();
                    m.set(VarId(0), a);
                    m.set(VarId(1), b);
                    let all_hold = cs.iter().all(|c| matches!(c.eval(&m), Ok(v) if v != 0));
                    assert!(!all_hold, "unsat but ({a},{b}) satisfies {cs:?}");
                }
            }
        }
    }
}

/// The shared solver cache never changes a satisfiability answer: for
/// random constraint sets, a cache-backed solver returns exactly what an
/// uncached solver returns — on the miss that populates the cache, on
/// the hit that reuses it, and across solvers sharing the cache.
#[test]
fn solver_cache_is_transparent() {
    let mut r = SmallRng::seed_from_u64(0xCAC4E);
    let cache = Arc::new(SolverCache::new(4));
    let cached = Solver::new().cached(Arc::clone(&cache));
    let cached_peer = Solver::new().cached(Arc::clone(&cache));
    let uncached = Solver::new();
    let mut hits_seen = 0u64;
    for _case in 0..192 {
        let n = 1 + r.gen_index(3);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-6, 6);
        let cs: Vec<Expr> = ts.iter().map(build).collect();

        let reference = uncached.check(&cs, &vars);
        let (first, s1) = cached.check_with_stats(&cs, &vars);
        let (second, s2) = cached.check_with_stats(&cs, &vars);
        let (third, s3) = cached_peer.check_with_stats(&cs, &vars);
        assert_eq!(first, reference, "miss result differs for {cs:?}");
        assert_eq!(second, reference, "hit result differs for {cs:?}");
        assert_eq!(third, reference, "shared-cache result differs for {cs:?}");
        assert!(
            !s1.cache_hit || hits_seen > 0,
            "first query can only hit a repeat key"
        );
        assert!(s2.cache_hit, "identical repeat query must hit");
        assert!(s3.cache_hit, "peer solver on the same cache must hit");
        hits_seen += (s1.cache_hit as u64) + 2;
    }
    let snap = cache.snapshot();
    assert!(snap.hits >= 2 * 192, "hits {snap:?}");
    assert!(snap.entries > 0 && snap.entries <= snap.misses);
}

/// Constraint slicing is transparent: on randomized constraint sets the
/// sliced answer is structurally identical to the whole-query answer —
/// verdict and witness model — whenever the whole query decides within
/// budget, and slicing never turns a decided answer into `Unknown`.
///
/// Two regimes:
/// * default budget — on this distribution the whole query always
///   decides, so exact equality (including the model) is asserted for
///   every case, with and without a shared cache attached;
/// * starvation budget — when the whole query still decides, slicing
///   must agree exactly (each slice's search is a projection of the
///   combined search, so it fits in any budget the whole query fit in);
///   when the whole query gives up with `Unknown`, slicing may decide,
///   and the decision is verified against the domain (model check for
///   `Sat`, brute force for `Unsat`).
#[test]
fn sliced_solver_is_transparent() {
    let mut r = SmallRng::seed_from_u64(0x511CED);
    let solver = Solver::new();
    let cache = Arc::new(SolverCache::new(4));
    let cached = Solver::new().cached(Arc::clone(&cache));
    for _case in 0..256 {
        let n = 1 + r.gen_index(4);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-6, 6);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let whole = solver.check(&cs, &vars);
        assert_ne!(whole, SatResult::Unknown, "distribution stays in budget");
        let sliced = solver.check_sliced(&cs, &vars);
        assert_eq!(sliced, whole, "sliced != whole for {cs:?}");
        // Per-slice caching must not change the answer either — cold,
        // and again warm (every slice now memoized).
        assert_eq!(cached.check_sliced(&cs, &vars), whole, "cold cache: {cs:?}");
        assert_eq!(cached.check_sliced(&cs, &vars), whole, "warm cache: {cs:?}");
    }
    let snap = cache.snapshot();
    assert!(snap.slice_hits > 0, "warm passes hit per-slice: {snap:?}");

    // Starvation regime: `Unknown` budgeting.
    let tiny = Solver::with_config(SolverConfig {
        node_budget: 8,
        max_prune_passes: 1,
    });
    let mut improved = 0u64;
    for _case in 0..256 {
        let n = 1 + r.gen_index(4);
        let ts: Vec<ETree> = (0..n).map(|_| gen_etree(&mut r, 3)).collect();
        let vars = two_var_table(-4, 4);
        let cs: Vec<Expr> = ts.iter().map(build).collect();
        let whole = tiny.check(&cs, &vars);
        let sliced = tiny.check_sliced(&cs, &vars);
        match &whole {
            SatResult::Unknown => match &sliced {
                // Slicing may decide what the whole query could not;
                // verify any such decision against the domains.
                SatResult::Sat(m) => {
                    improved += 1;
                    for c in &cs {
                        assert!(
                            matches!(c.eval(m), Ok(v) if v != 0),
                            "sliced Sat model violates {c} under {m}"
                        );
                    }
                }
                SatResult::Unsat => {
                    improved += 1;
                    for a in -4i64..=4 {
                        for b in -4i64..=4 {
                            let mut m = Model::new();
                            m.set(VarId(0), a);
                            m.set(VarId(1), b);
                            let all = cs.iter().all(|c| matches!(c.eval(&m), Ok(v) if v != 0));
                            assert!(!all, "sliced Unsat but ({a},{b}) satisfies {cs:?}");
                        }
                    }
                }
                SatResult::Unknown => {}
            },
            decided => assert_eq!(
                &sliced, decided,
                "slicing flipped a decided answer for {cs:?}"
            ),
        }
    }
    assert!(improved > 0, "starvation regime exercises Unknown recovery");
}

/// Sliced checks through one [`SliceMemo`] agree with fresh whole-list
/// checks at every step of a randomly evolving path condition, both for
/// the path itself and with a probed extra constraint.
#[test]
fn memo_checks_match_fresh_checks() {
    let mut r = SmallRng::seed_from_u64(0x5C07D);
    let plain = Solver::new();
    let mut hits = 0;
    for _round in 0..48 {
        let vars = two_var_table(-6, 6);
        let mut memo = SliceMemo::new();
        let mut path: Vec<Expr> = Vec::new();
        for _step in 0..8 {
            // Mutate the path the way a worklist explorer does: truncate
            // to a random prefix (switching to a sibling state), then
            // extend with fresh branch constraints.
            path.truncate(r.gen_index(path.len() + 1));
            for _ in 0..=r.gen_index(2) {
                path.push(build(&gen_etree(&mut r, 2)));
            }
            assert_eq!(
                plain.check_sliced_memo(&path, &vars, &mut memo),
                plain.check(&path, &vars),
                "path check diverged for {path:?}"
            );
            let mut with_extra = path.clone();
            with_extra.push(build(&gen_etree(&mut r, 2)));
            assert_eq!(
                plain.check_sliced_memo(&with_extra, &vars, &mut memo),
                plain.check(&with_extra, &vars),
                "probe diverged for {with_extra:?}"
            );
        }
        hits += memo.hits();
    }
    assert!(hits > 0, "recurring slices are answered from the memo");
}

/// Vector-clock join is a least upper bound: both operands ≤ join;
/// idempotent and commutative.
#[test]
fn vector_clock_join_is_lub() {
    let mut r = SmallRng::seed_from_u64(0xC10C);
    for _case in 0..256 {
        let len_a = r.gen_index(12);
        let len_b = r.gen_index(12);
        let mut a = VectorClock::new();
        for _ in 0..len_a {
            a.tick(ThreadId(r.gen_index(4) as u32));
        }
        let mut b = VectorClock::new();
        for _ in 0..len_b {
            b.tick(ThreadId(r.gen_index(4) as u32));
        }
        let mut j = a.clone();
        j.join(&b);
        assert!(a.leq(&j));
        assert!(b.leq(&j));
        // Idempotent.
        let mut j2 = j.clone();
        j2.join(&b);
        assert_eq!(j, j2);
        // Commutative.
        let mut k = b.clone();
        k.join(&a);
        assert_eq!(j, k);
    }
}

/// The VM is deterministic: the same seeded random schedule produces
/// the same outputs, step counts, and final memory. Watches are
/// transparent: a run that stops at every access to the counter, steps
/// over it, and drives on equals the unwatched run, with or without the
/// cell as a preemption point — a watch hit never consults the
/// scheduler.
#[test]
fn vm_runs_are_deterministic() {
    let mut r = SmallRng::seed_from_u64(0xDE7);
    for _case in 0..40 {
        let seed = r.next_u64() % 1000;
        let increments = 1 + r.gen_index(23) as i64;
        let mut pb = ProgramBuilder::new("det", "det.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", move |f| {
            let _ = f.param();
            f.for_range(Operand::Imm(increments), |f, _| {
                f.racy_inc(g, Operand::Imm(0));
                f.yield_();
            });
            f.ret(None);
        });
        let main = pb.func("main", move |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let run = |seed: u64, watched: bool, preempt: bool| {
            let mut m = Machine::new(
                Arc::clone(&program),
                InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
                VmConfig::default(),
            );
            let mut s = Scheduler::random(seed);
            let mut mon = portend_repro::portend_vm::NullMonitor;
            let cell = Watch::cell(g, 0);
            let cfg = DriveCfg {
                watches: if watched { vec![cell] } else { vec![] },
                preempt_watches: if preempt { vec![cell] } else { vec![] },
                record_schedule: true,
                ..Default::default()
            };
            let stop = loop {
                match drive(&mut m, &mut s, &mut mon, &cfg) {
                    DriveStop::WatchHit(_) => assert_eq!(m.step(&mut mon), StepEvent::Ran),
                    stop => break stop,
                }
            };
            (
                stop,
                m.output.hash_chain(),
                m.steps,
                m.preemptions,
                m.sched_log.clone(),
                m.mem.fingerprint(),
            )
        };
        let unwatched = run(seed, false, false);
        assert_eq!(
            unwatched,
            run(seed, false, false),
            "seed {seed}, increments {increments}"
        );
        assert_eq!(
            run(seed, true, false),
            unwatched,
            "watched: seed {seed}, increments {increments}"
        );
        assert_eq!(
            run(seed, true, true),
            run(seed, false, true),
            "watched preemption point: seed {seed}, increments {increments}"
        );
    }
}

/// The final counter value under any schedule stays within the
/// lost-update envelope [increments, 2*increments].
#[test]
fn racy_counter_respects_lost_update_envelope() {
    let mut r = SmallRng::seed_from_u64(0x10E);
    for _case in 0..60 {
        let seed = r.next_u64() % 200;
        let n = 1 + r.gen_index(15) as i64;
        let mut pb = ProgramBuilder::new("env", "env.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", move |f| {
            let _ = f.param();
            f.for_range(Operand::Imm(n), |f, _| {
                let v = f.load(g, Operand::Imm(0));
                f.yield_();
                let v1 = f.add(v, Operand::Imm(1));
                f.store(g, Operand::Imm(0), v1);
            });
            f.ret(None);
        });
        let main = pb.func("main", move |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let program = Arc::new(pb.build(main).unwrap());
        let mut m = Machine::new(
            Arc::clone(&program),
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let mut s = Scheduler::random(seed);
        let mut mon = portend_repro::portend_vm::NullMonitor;
        let _ = drive(&mut m, &mut s, &mut mon, &DriveCfg::default());
        let total = m.output.concrete_values().unwrap()[0];
        assert!(total >= n && total <= 2 * n, "total {total} for n {n}");
    }
}
