//! Criterion benchmark: raw interpretation speed of the VM substrate
//! (the reproduction's "Cloud9 running time" baseline, Table 4 col. 2),
//! reported per interpreted instruction: one element is one step of
//! `Machine::steps`, which is fixed per iteration.

use portend_bench::crit::{Criterion, Throughput};
use portend_bench::{criterion_group, criterion_main};
use portend_vm::{
    drive, AllocId, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Machine, NullMonitor,
    Operand, Program, ProgramBuilder, Scheduler, ThreadId, VmConfig, Watch,
};
use std::sync::Arc;

/// Two threads racing on a counter, yielding between increments.
fn counter_program() -> Arc<Program> {
    let mut pb = ProgramBuilder::new("spin", "spin.c");
    let g = pb.global("counter", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.for_range(Operand::Imm(200), |f, _| {
            f.racy_inc(g, Operand::Imm(0));
            f.yield_();
        });
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t1 = f.spawn(worker, Operand::Imm(0));
        let t2 = f.spawn(worker, Operand::Imm(1));
        f.join(t1);
        f.join(t2);
        f.ret(None);
    });
    Arc::new(pb.build(main).unwrap())
}

/// The shape of Algorithm 1's enforcement timeout, where most corpus
/// classification time goes: `T1` spins on a flag that only `T2` sets,
/// `T2` is suspended, and every spin load is checked against a race
/// watch that only `T2` can hit.
fn suspended_setter_program() -> (Arc<Program>, AllocId) {
    let mut pb = ProgramBuilder::new("enforce", "enforce.c");
    let flag = pb.global("flag", 0);
    let spinner = pb.func("spinner", |f| {
        let _ = f.param();
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        f.ret(None);
    });
    let setter = pb.func("setter", |f| {
        let _ = f.param();
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t1 = f.spawn(spinner, Operand::Imm(0));
        let t2 = f.spawn(setter, Operand::Imm(0));
        f.join(t1);
        f.join(t2);
        f.ret(None);
    });
    (Arc::new(pb.build(main).unwrap()), flag)
}

/// One run of `program` from a fresh machine.
fn run(program: &Arc<Program>, cfg: &DriveCfg) -> (DriveStop, Machine) {
    let mut m = Machine::new(
        Arc::clone(program),
        InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
        VmConfig::default(),
    );
    let stop = drive(&mut m, &mut Scheduler::RoundRobin, &mut NullMonitor, cfg);
    (stop, m)
}

fn bench_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("vm");

    let counter = counter_program();
    let cfg = DriveCfg::default();
    let (stop, m) = run(&counter, &cfg);
    assert_eq!(stop, DriveStop::Completed);
    group
        .throughput(Throughput::Elements(m.steps))
        .bench_function("vm_interpret_2_threads_400_increments", |b| {
            b.iter(|| run(&counter, &cfg))
        });

    let (spin, flag) = suspended_setter_program();
    let setter = ThreadId(2);
    let cfg = DriveCfg {
        max_steps: 20_000,
        watches: vec![Watch::cell(flag, 0).by(setter)],
        suspended: [setter].into(),
        ..Default::default()
    };
    let (stop, m) = run(&spin, &cfg);
    assert_eq!(stop, DriveStop::StepLimit, "the spinner outlasts it");
    group
        .throughput(Throughput::Elements(m.steps))
        .bench_function("vm_spin_with_setter_suspended_20000_steps", |b| {
            b.iter(|| run(&spin, &cfg))
        });
    group.finish();
}

criterion_group!(benches, bench_vm);
criterion_main!(benches);
