//! Criterion benchmark: copy-on-write state forking.
//!
//! The multi-path explorer forks a full execution state at every
//! feasible symbolic branch (paper §3.3). A deep-cloning fork copies the
//! entire heap plus the append-only output/schedule logs each time; the
//! CoW snapshot copies O(threads) eagerly, shares the rest
//! structurally, and pays only for what a state actually rewrites. This
//! bench measures both flavors on a *forking corpus* of machines with
//! progressively larger heaps, asserts the ≥10× per-fork byte reduction
//! the snapshot layer exists for, sanity-checks behavioral equivalence
//! (CoW child ≡ deep child under an identical continuation), and
//! reports the slice-reuse ratio the incremental scoped solver achieves
//! at real classification forks.

use std::sync::Arc;

use portend::{Pipeline, PortendConfig, WarmSource};
use portend_bench::crit::{black_box, Criterion};
use portend_bench::{criterion_group, criterion_main, render_table};
use portend_vm::{
    drive, DriveCfg, InputMode, InputSource, InputSpec, Machine, NullMonitor, Operand, Program,
    ProgramBuilder, Scheduler, SymDomain, VmConfig,
};

/// A two-thread program over a large shared heap of many independent
/// allocations (CoW is per-allocation, so this is the realistic shape —
/// one giant array would be copied wholesale on its first touched
/// cell). The worker touches a single small buffer, `main` races on a
/// flag and then branches on symbolic inputs — the shape whose forks
/// the CoW layer makes cheap.
fn big_heap_program(cells: usize) -> Arc<Program> {
    const BUFFERS: usize = 32;
    let mut pb = ProgramBuilder::new("bigheap", "bigheap.c");
    let heap: Vec<_> = (0..BUFFERS)
        .map(|i| pb.array(format!("buf{i}"), (cells / BUFFERS).max(1)))
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
        // Races with the store; the loaded value never reaches the
        // output, so Algorithm 1 finds equal outputs and escalates to
        // the forking multi-path explorer.
        let _ = f.load(flag, Operand::Imm(0));
        f.join(t);
        let i = f.input();
        let big = f.cmp(portend_symex::CmpOp::Gt, i, Operand::Imm(5));
        f.if_else(
            big,
            |f| {
                f.output(1, Operand::Imm(100));
            },
            |f| {
                f.output(1, Operand::Imm(200));
            },
        );
        let j = f.input();
        let odd = f.cmp(portend_symex::CmpOp::Gt, j, Operand::Imm(2));
        f.if_else(
            odd,
            |f| {
                f.output(1, Operand::Imm(1));
            },
            |f| {
                f.output(1, Operand::Imm(2));
            },
        );
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// Boots the program and drives it a few steps so the machine carries
/// live thread stacks and a non-empty schedule log — the state the
/// explorer actually forks.
fn mid_execution_machine(program: &Arc<Program>) -> Machine {
    let mut m = Machine::new(
        Arc::clone(program),
        InputSource::new(InputSpec::concrete(vec![3, 1]), InputMode::Concrete),
        VmConfig::default(),
    );
    let mut sched = Scheduler::RoundRobin;
    // Stop before the worker's heap stores so the forked child pays
    // (and the bench observes) the lazy CoW copies.
    let cfg = DriveCfg {
        max_steps: 2,
        record_schedule: true,
        ..Default::default()
    };
    let _ = drive(&mut m, &mut sched, &mut NullMonitor, &cfg);
    m
}

/// Runs a machine to completion under a fixed scheduler, returning the
/// concluded state for comparison.
fn finish(mut m: Machine) -> Machine {
    let mut sched = Scheduler::RoundRobin;
    let _ = drive(
        &mut m,
        &mut sched,
        &mut NullMonitor,
        &DriveCfg::with_budget(1_000_000),
    );
    m
}

/// Measures both fork flavors across the forking corpus, asserting the
/// byte reduction and the CoW ≡ deep-clone equivalence.
fn report_fork_cost() {
    let corpus: Vec<(String, Arc<Program>)> = [1 << 10, 1 << 13, 1 << 15]
        .into_iter()
        .map(|cells| (format!("bigheap-{cells}"), big_heap_program(cells)))
        .collect();

    let mut rows = Vec::new();
    let (mut total_deep, mut total_cow) = (0u64, 0u64);
    for (name, program) in &corpus {
        let parent = mid_execution_machine(program);
        let (child, cost) = parent.fork();
        let deep_bytes = cost.bytes_copied + cost.bytes_shared;

        // Drive the CoW child and an eagerly-copied twin identically:
        // behavior must match, and the child's lazy copies are the only
        // deferred fork cost actually paid.
        let base_cow = child.cow_bytes();
        let twin = parent.deep_clone();
        let child_done = finish(child);
        let twin_done = finish(twin);
        assert_eq!(
            child_done.output, twin_done.output,
            "CoW and deep forks must produce identical outputs"
        );
        assert_eq!(child_done.mem.fingerprint(), twin_done.mem.fingerprint());
        assert!(child_done.mem.diff(&twin_done.mem).is_empty());
        assert_eq!(
            child_done.state_fingerprint(),
            twin_done.state_fingerprint()
        );

        let lazy = child_done.cow_bytes() - base_cow;
        let cow_bytes = cost.bytes_copied + lazy;
        total_deep += deep_bytes;
        total_cow += cow_bytes;
        rows.push(vec![
            name.clone(),
            deep_bytes.to_string(),
            cost.bytes_copied.to_string(),
            lazy.to_string(),
            format!("{:.1}x", deep_bytes as f64 / cow_bytes.max(1) as f64),
        ]);
    }
    println!("\nfork cost on the forking corpus (bytes per fork):\n");
    println!(
        "{}",
        render_table(
            &[
                "Machine",
                "Deep clone",
                "CoW eager",
                "CoW lazy (run to end)",
                "Reduction"
            ],
            &rows,
        )
    );
    let reduction = total_deep as f64 / total_cow.max(1) as f64;
    println!("aggregate: {total_deep} -> {total_cow} bytes per fork ({reduction:.1}x fewer)\n");
    assert!(
        reduction >= 10.0,
        "CoW forks must copy >= 10x fewer bytes on the forking corpus, got {reduction:.1}x"
    );
}

/// Classifies a forking race end to end and reports the fork-cost and
/// slice-reuse counters the exploration surfaced.
fn report_classification_forks() {
    let program = big_heap_program(1 << 12);
    let input_spec = InputSpec::concrete(vec![3, 1])
        .with_symbolic(SymDomain::new("i", 0, 10))
        .with_symbolic(SymDomain::new("j", 0, 10));
    let pipeline = Pipeline {
        record: portend_replay::RecordConfig {
            scheduler: Scheduler::RoundRobin,
            ..Default::default()
        },
        portend: PortendConfig::default(),
    };
    let result = pipeline.run(
        &program,
        vec![3, 1],
        input_spec,
        vec![],
        VmConfig::default(),
        1,
        &WarmSource::default(),
        &mut |_, _, _| {},
    );
    let (mut copied, mut shared, mut reused) = (0u64, 0u64, 0u64);
    for a in &result.analyzed {
        if let Ok(v) = &a.verdict {
            copied += v.stats.bytes_copied_on_fork;
            shared += v.stats.bytes_shared_on_fork;
            reused += v.stats.slices_reused_at_fork;
        }
    }
    println!(
        "classification forks: {copied} bytes copied, {shared} bytes shared \
         ({:.0}% of fork volume), {reused} slices reused at forks\n",
        100.0 * shared as f64 / (copied + shared).max(1) as f64
    );
    assert!(
        shared > copied,
        "exploration forks must share more than they copy: {copied} vs {shared}"
    );
    assert!(
        reused > 0,
        "fork feasibility checks must reuse parent-solved slices"
    );
}

fn bench_fork(c: &mut Criterion) {
    let program = big_heap_program(1 << 13);
    let parent = mid_execution_machine(&program);
    c.bench_function("machine_fork_cow", |b| b.iter(|| black_box(parent.fork())));
    c.bench_function("machine_fork_deep_clone", |b| {
        b.iter(|| black_box(parent.deep_clone()))
    });
    report_fork_cost();
    report_classification_forks();
}

criterion_group!(benches, bench_fork);
criterion_main!(benches);
