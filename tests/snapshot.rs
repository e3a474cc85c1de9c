//! Seeded property suites for the copy-on-write snapshot layer and the
//! explorer's memoized sliced checks — the two transparency contracts
//! of state sharing between forked states — and the fork-cost contract
//! that justifies it:
//!
//! 1. **CoW fork ≡ eager deep clone.** A forked machine shares its heap
//!    and logs with the parent structurally; first writes copy lazily.
//!    Observationally nothing may change: a CoW child and an eagerly
//!    deep-copied twin driven identically must produce identical
//!    memory (`Memory::diff`, fingerprints), outputs, and schedule
//!    logs — and a parent running ahead must never leak writes into a
//!    forked child. Checked on random multi-threaded programs and on
//!    the paper-workload corpus.
//! 2. **Memoized sliced check ≡ fresh check.** The explorer checks
//!    every branch through one `SliceMemo` per race, answering slices
//!    it already solved from the memo. As a path evolves by extension,
//!    truncation and probes, those checks must agree with fresh
//!    whole-query solver checks — at the default budget exactly, and at
//!    a starvation budget without ever flipping a decided answer.
//! 3. **A fork copies a tenth of a deep clone.** Over a forked child's
//!    whole run, eager plus lazily copied bytes stay at least 10x below
//!    what a deep clone copies up front, on heaps of 2^10 to 2^15 cells.
//!    The classifier's exploration forks share more bytes than they
//!    copy, and reuse constraint slices their parent already solved.

use std::sync::Arc;

use portend_repro::portend::{Pipeline, WarmSource};
use portend_repro::portend_symex::{
    BinOp, CmpOp, Expr, Model, SatResult, SliceMemo, Solver, SolverConfig, VarId, VarTable,
};
use portend_repro::portend_vm::{
    drive, DriveCfg, InputMode, InputSource, InputSpec, Machine, NullMonitor, Operand, Program,
    ProgramBuilder, Scheduler, SmallRng, SymDomain, VmConfig,
};
use portend_repro::portend_workloads;

// ---------------------------------------------------------------------
// 1. CoW fork ≡ eager deep clone
// ---------------------------------------------------------------------

/// A random multi-threaded program: several shared arrays, workers
/// doing racy increments across them, a `main` that joins, reads them
/// back, branches on an input, and frees one array — covering store,
/// load, free, output, and schedule-log mutation after a fork.
fn random_racy_program(r: &mut SmallRng) -> (Arc<Program>, Vec<i64>) {
    let n_arrays = 1 + r.gen_index(4);
    let n_workers = 1 + r.gen_index(3);
    let increments = 1 + r.gen_index(6) as i64;
    let mut pb = ProgramBuilder::new("rand", "rand.c");
    let arrays: Vec<_> = (0..n_arrays)
        .map(|i| pb.array(format!("a{i}"), 1 + r.gen_index(64)))
        .collect();
    let workers: Vec<_> = (0..n_workers)
        .map(|w| {
            let target = arrays[w % arrays.len()];
            pb.func(format!("worker{w}"), move |f| {
                let _ = f.param();
                f.for_range(Operand::Imm(increments), |f, _| {
                    f.racy_inc(target, Operand::Imm(0));
                    f.yield_();
                });
                f.ret(None);
            })
        })
        .collect();
    let freed = arrays[0];
    let read_back = arrays[arrays.len() - 1];
    let main = pb.func("main", move |f| {
        let tids: Vec<_> = workers
            .iter()
            .map(|&w| f.spawn(w, Operand::Imm(0)))
            .collect();
        for t in tids {
            f.join(t);
        }
        let v = f.load(read_back, Operand::Imm(0));
        f.output(1, v);
        let i = f.input();
        let big = f.cmp(CmpOp::Gt, i, Operand::Imm(4));
        f.if_else(
            big,
            |f| {
                f.output(1, Operand::Imm(10));
            },
            |f| {
                f.output(2, Operand::Imm(20));
            },
        );
        f.free(freed);
        f.ret(None);
    });
    let inputs = vec![r.gen_index(10) as i64];
    (Arc::new(pb.build(main).unwrap()), inputs)
}

fn boot(program: &Arc<Program>, inputs: Vec<i64>) -> Machine {
    Machine::new(
        Arc::clone(program),
        InputSource::new(InputSpec::concrete(inputs), InputMode::Concrete),
        VmConfig::default(),
    )
}

fn run(m: &mut Machine, seed: u64, budget: u64) {
    let mut sched = Scheduler::random(seed);
    let cfg = DriveCfg {
        max_steps: budget,
        record_schedule: true,
        ..Default::default()
    };
    let _ = drive(m, &mut sched, &mut NullMonitor, &cfg);
}

/// Everything observable about a machine state that forking must
/// preserve.
fn observe(
    m: &Machine,
) -> (
    u64,
    u64,
    u64,
    usize,
    Vec<portend_repro::portend_vm::ThreadId>,
) {
    (
        m.mem.fingerprint(),
        m.state_fingerprint(),
        m.output.hash_chain(),
        m.output.len(),
        m.sched_log.to_vec(),
    )
}

/// Forks `parent` both ways at its current point, runs parent ahead,
/// then runs both children identically and asserts full equivalence.
fn assert_fork_transparent(parent: &mut Machine, seed: u64, ctx: &str) {
    let (child, cost) = parent.fork();
    let control = parent.deep_clone();
    assert_eq!(
        cost.bytes_shared,
        parent.shared_fork_bytes(),
        "{ctx}: fork cost accounts the shared storage"
    );
    assert!(cost.bytes_copied > 0, "{ctx}: eager cost is non-zero");

    // The parent racing ahead must not leak into the forked child.
    run(parent, seed ^ 0x5eed, 100_000);
    assert_eq!(observe(&child), observe(&control), "{ctx}: parent leaked");
    assert!(
        child.mem.diff(&control.mem).is_empty(),
        "{ctx}: diff after parent ran"
    );

    // Identical continuations of the CoW child and the eager twin.
    let mut child = child;
    let mut control = control;
    run(&mut child, seed, 100_000);
    run(&mut control, seed, 100_000);
    assert_eq!(observe(&child), observe(&control), "{ctx}: children differ");
    assert!(
        child.mem.diff(&control.mem).is_empty(),
        "{ctx}: memory diff non-empty"
    );
    assert_eq!(child.steps, control.steps, "{ctx}: step counts differ");
    assert_eq!(child.output, control.output, "{ctx}: outputs differ");
}

/// CoW forks are observationally identical to eager deep clones on
/// random programs, at random fork points, under divergent parent and
/// identical child continuations.
#[test]
fn cow_fork_equals_deep_clone_on_random_programs() {
    let mut r = SmallRng::seed_from_u64(0xC0F0);
    for case in 0..48 {
        let (program, inputs) = random_racy_program(&mut r);
        let mut parent = boot(&program, inputs);
        // Drive to a random mid-execution point (possibly 0: fork at
        // boot), then fork.
        run(&mut parent, r.next_u64(), r.gen_index(80) as u64);
        assert_fork_transparent(&mut parent, r.next_u64(), &format!("case {case}"));
    }
}

/// The same transparency on the paper-workload corpus: every workload's
/// recorded machine, forked mid-replay, continues identically whether
/// the fork copied eagerly or shares copy-on-write.
#[test]
fn cow_fork_equals_deep_clone_on_workload_corpus() {
    let mut r = SmallRng::seed_from_u64(0xC0F1);
    for w in portend_workloads::all() {
        let mut parent = Machine::new(
            Arc::clone(&w.program),
            InputSource::new(InputSpec::concrete(w.inputs.clone()), InputMode::Concrete),
            w.vm,
        );
        let mut sched = w.record_scheduler.clone();
        let cfg = DriveCfg {
            max_steps: 1 + r.gen_index(200) as u64,
            record_schedule: true,
            ..Default::default()
        };
        let _ = drive(&mut parent, &mut sched, &mut NullMonitor, &cfg);
        assert_fork_transparent(&mut parent, r.next_u64(), w.name);
    }
}

// ---------------------------------------------------------------------
// 2. Memoized sliced check ≡ fresh check
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

/// A random expression tree over `n_vars` variables (more than the two
/// the solver-soundness suite uses: slicing needs variable diversity to
/// form interesting slices).
fn gen_etree(r: &mut SmallRng, depth: u32, n_vars: u8) -> ETree {
    let leaf = depth == 0 || r.gen_index(3) == 0;
    if leaf {
        if r.gen_index(2) == 0 {
            ETree::Const(r.gen_index(40) as i64 - 20)
        } else {
            ETree::Var(r.gen_index(n_vars as usize) as u8)
        }
    } else {
        match r.gen_index(3) {
            0 => ETree::Bin(
                BIN_OPS[r.gen_index(BIN_OPS.len())],
                Box::new(gen_etree(r, depth - 1, n_vars)),
                Box::new(gen_etree(r, depth - 1, n_vars)),
            ),
            1 => ETree::Cmp(
                CMP_OPS[r.gen_index(CMP_OPS.len())],
                Box::new(gen_etree(r, depth - 1, n_vars)),
                Box::new(gen_etree(r, depth - 1, n_vars)),
            ),
            _ => ETree::Not(Box::new(gen_etree(r, depth - 1, n_vars))),
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

fn var_table(n: u8, lo: i64, hi: i64) -> VarTable {
    let mut vars = VarTable::new();
    for i in 0..n {
        vars.fresh(format!("v{i}"), lo, hi);
    }
    vars
}

/// Memoized sliced checks agree with fresh whole-list checks on
/// 5-variable paths after every extension, truncation to a sibling
/// path, and probe of both sides of a branch.
#[test]
fn memo_checks_match_fresh_on_five_variables() {
    const N_VARS: u8 = 5;
    let mut r = SmallRng::seed_from_u64(0x1AC0);
    let plain = Solver::new();
    for round in 0..40 {
        let vars = var_table(N_VARS, -6, 6);
        let mut memo = SliceMemo::new();
        let mut stack: Vec<Expr> = Vec::new();
        for step in 0..24 {
            match r.gen_index(4) {
                // Extend the path by one branch constraint.
                0 | 1 => stack.push(build(&gen_etree(&mut r, 2, N_VARS))),
                // Switch to a sibling path (worklist style).
                2 => {
                    stack.truncate(r.gen_index(stack.len() + 1));
                    for _ in 0..=r.gen_index(2) {
                        stack.push(build(&gen_etree(&mut r, 2, N_VARS)));
                    }
                }
                // Probe both sides of a branch.
                _ => {
                    let c = build(&gen_etree(&mut r, 2, N_VARS));
                    for probe in [c.clone(), c.not()] {
                        let mut with = stack.clone();
                        with.push(probe);
                        assert_eq!(
                            plain.check_sliced_memo(&with, &vars, &mut memo),
                            plain.check(&with, &vars),
                            "round {round} step {step}: probe diverged for {with:?}"
                        );
                    }
                }
            }
            assert_eq!(
                plain.check_sliced_memo(&stack, &vars, &mut memo),
                plain.check(&stack, &vars),
                "round {round} step {step}: check diverged for {stack:?}"
            );
        }
    }
}

/// The starvation regime: under a tiny node budget memoized sliced
/// checks may decide what the whole query cannot, but must never flip a
/// decided answer; any extra decision is verified against the domains.
#[test]
fn memo_checks_never_flip_under_starvation() {
    const N_VARS: u8 = 3;
    let mut r = SmallRng::seed_from_u64(0x57A2);
    let cfg = SolverConfig {
        node_budget: 8,
        max_prune_passes: 1,
    };
    let tiny = Solver::with_config(cfg);
    let mut improved = 0u64;
    for _round in 0..64 {
        let vars = var_table(N_VARS, -4, 4);
        let mut memo = SliceMemo::new();
        let mut stack: Vec<Expr> = Vec::new();
        for _step in 0..6 {
            stack.truncate(r.gen_index(stack.len() + 1));
            for _ in 0..=r.gen_index(2) {
                stack.push(build(&gen_etree(&mut r, 2, N_VARS)));
            }
            let whole = tiny.check(&stack, &vars);
            let inc = tiny.check_sliced_memo(&stack, &vars, &mut memo);
            match &whole {
                SatResult::Unknown => match &inc {
                    SatResult::Sat(m) => {
                        improved += 1;
                        for c in &stack {
                            assert!(
                                matches!(c.eval(m), Ok(v) if v != 0),
                                "memoized Sat model violates {c} under {m}"
                            );
                        }
                    }
                    SatResult::Unsat => {
                        improved += 1;
                        for a in -4i64..=4 {
                            for b in -4i64..=4 {
                                for c in -4i64..=4 {
                                    let mut m = Model::new();
                                    m.set(VarId(0), a);
                                    m.set(VarId(1), b);
                                    m.set(VarId(2), c);
                                    let all =
                                        stack.iter().all(|e| matches!(e.eval(&m), Ok(v) if v != 0));
                                    assert!(
                                        !all,
                                        "memoized Unsat but ({a},{b},{c}) satisfies {stack:?}"
                                    );
                                }
                            }
                        }
                    }
                    SatResult::Unknown => {}
                },
                decided => assert_eq!(
                    &inc, decided,
                    "memoized slicing flipped a decided answer for {stack:?}"
                ),
            }
        }
    }
    assert!(improved > 0, "starvation regime exercises Unknown recovery");
}

// ---------------------------------------------------------------------
// 3. A fork copies a tenth of a deep clone
// ---------------------------------------------------------------------

/// A two-thread program over 32 buffers of `cells / 32` cells each (CoW
/// is per allocation, so one giant array would be copied whole on its
/// first write). The worker writes one buffer and a flag; `main` reads
/// the flag, joins the worker, then branches on two inputs. The flag
/// read races with the store but never reaches the output, so
/// Algorithm 1 sees equal outputs and hands the race to the forking
/// multi-path explorer.
fn big_heap_program(cells: usize) -> Arc<Program> {
    let mut pb = ProgramBuilder::new("bigheap", "bigheap.c");
    let heap: Vec<_> = (0..32)
        .map(|i| pb.array(format!("buf{i}"), cells / 32))
        .collect();
    let touched = heap[0];
    let flag = pb.global("flag", 0);
    let worker = pb.func("worker", move |f| {
        let _ = f.param();
        f.store(touched, Operand::Imm(0), Operand::Imm(7));
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        let _ = f.load(flag, Operand::Imm(0));
        f.join(t);
        for (threshold, above, below) in [(5, 100, 200), (2, 1, 2)] {
            let i = f.input();
            let c = f.cmp(CmpOp::Gt, i, Operand::Imm(threshold));
            f.if_else(
                c,
                |f| {
                    f.output(1, Operand::Imm(above));
                },
                |f| {
                    f.output(1, Operand::Imm(below));
                },
            );
        }
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// The byte accounting the CoW snapshot layer exists for: a deep clone
/// copies the eager part plus every shared byte up front, while a fork
/// pays the eager part plus whatever its child later rewrites.
#[test]
fn cow_forks_copy_a_tenth_of_a_deep_clone() {
    let (mut deep, mut cow) = (0u64, 0u64);
    for cells in [1 << 10, 1 << 13, 1 << 15] {
        let mut parent = boot(&big_heap_program(cells), vec![3, 1]);
        // Two steps stop before the worker's heap store, so the child
        // pays that copy lazily.
        let two_steps = DriveCfg {
            max_steps: 2,
            record_schedule: true,
            ..Default::default()
        };
        let _ = drive(
            &mut parent,
            &mut Scheduler::RoundRobin,
            &mut NullMonitor,
            &two_steps,
        );
        let (mut child, cost) = parent.fork();
        let before = child.cow_bytes();
        let _ = drive(
            &mut child,
            &mut Scheduler::RoundRobin,
            &mut NullMonitor,
            &DriveCfg::with_budget(1_000_000),
        );
        deep += cost.bytes_copied + cost.bytes_shared;
        cow += cost.bytes_copied + (child.cow_bytes() - before);
    }
    let reduction = deep as f64 / cow as f64;
    assert!(
        reduction >= 10.0,
        "forks must copy >= 10x fewer bytes than deep clones: {deep} vs {cow} ({reduction:.1}x)"
    );

    let spec = InputSpec::concrete(vec![3, 1])
        .with_symbolic(SymDomain::new("i", 0, 10))
        .with_symbolic(SymDomain::new("j", 0, 10));
    let result = Pipeline::default().run(
        &big_heap_program(1 << 12),
        vec![3, 1],
        spec,
        vec![],
        1,
        &WarmSource::default(),
        &mut |_, _, _| {},
    );
    let (mut copied, mut shared, mut reused) = (0, 0, 0);
    for a in &result.analyzed {
        let stats = &a.verdict.as_ref().expect("the race classifies").stats;
        copied += stats.bytes_copied_on_fork;
        shared += stats.bytes_shared_on_fork;
        reused += stats.slices_reused_at_fork;
    }
    assert!(
        shared > copied,
        "exploration forks must share more than they copy: {shared} vs {copied} B"
    );
    assert!(
        reused > 0,
        "exploration forks must reuse parent-solved slices"
    );
}
