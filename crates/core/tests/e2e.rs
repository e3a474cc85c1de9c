//! End-to-end classification tests on canonical race scenarios: one per
//! taxonomy category, plus multi-path- and multi-schedule-dependent cases.

use std::sync::Arc;

use portend::{
    AnalysisStages, Pipeline, PipelineResult, Portend, PortendConfig, RaceClass, VerdictDetail,
    WarmSource,
};
use portend_replay::RecordConfig;
use portend_symex::{BinOp, CmpOp};
use portend_vm::{
    AllocId, FuncBuilder, InputSpec, Operand, Program, ProgramBuilder, Scheduler, SymDomain,
};

fn pipeline_with(sched: Scheduler) -> Pipeline {
    Pipeline {
        record: RecordConfig {
            scheduler: sched,
            ..Default::default()
        },
        portend: PortendConfig::default(),
    }
}

/// Detects and classifies on one farm worker, with no predicates and the
/// default VM configuration.
fn run(
    pipeline: &Pipeline,
    program: &Arc<Program>,
    inputs: Vec<i64>,
    spec: InputSpec,
) -> PipelineResult {
    pipeline.run(
        program,
        inputs,
        spec,
        vec![],
        1,
        &WarmSource::default(),
        &mut |_, _, _| {},
    )
}

fn classify_single(
    program: Program,
    inputs: Vec<i64>,
    spec: InputSpec,
    sched: Scheduler,
) -> (RaceClass, portend::Verdict) {
    let program = Arc::new(program);
    let result = run(&pipeline_with(sched), &program, inputs, spec);
    assert_eq!(
        result.analyzed.len(),
        1,
        "expected exactly one distinct race, got {:?}",
        result
            .analyzed
            .iter()
            .map(|a| a.cluster.representative.to_string())
            .collect::<Vec<_>>()
    );
    let v = result.analyzed[0].verdict.clone().expect("classifiable");
    (v.class, v)
}

/// Redundant writes: both threads store the same constant; harmless.
#[test]
fn redundant_write_is_k_witness_harmless() {
    let mut pb = ProgramBuilder::new("rw", "rw.c");
    let g = pb.global("flag", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.join(t);
        let v = f.load(g, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    let (class, v) = classify_single(
        pb.build(main).unwrap(),
        vec![],
        InputSpec::concrete(vec![]),
        Scheduler::RoundRobin,
    );
    assert_eq!(class, RaceClass::KWitnessHarmless);
    assert_eq!(v.states_differ, Some(false));
    assert!(v.k >= 1);
}

/// The classic lost-update counter: the final count is printed, so the
/// ordering is visible in the output.
#[test]
fn lost_update_with_printed_counter_is_output_differs() {
    let mut pb = ProgramBuilder::new("counter", "counter.c");
    let g = pb.global("counter", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        // load; yield (lets the other increment interleave); store+1.
        let v = f.load(g, Operand::Imm(0));
        f.yield_();
        let v1 = f.add(v, Operand::Imm(1));
        f.store(g, Operand::Imm(0), v1);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        let v = f.load(g, Operand::Imm(0));
        let v1 = f.add(v, Operand::Imm(1));
        f.store(g, Operand::Imm(0), v1);
        f.join(t);
        let r = f.load(g, Operand::Imm(0));
        f.output(1, r);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let result = run(
        &pipeline_with(Scheduler::RoundRobin),
        &program,
        vec![],
        InputSpec::concrete(vec![]),
    );
    // At least one of the distinct races on `counter` must be flagged
    // "output differs" (the lost update changes the printed total).
    let classes: Vec<RaceClass> = result
        .analyzed
        .iter()
        .map(|a| a.verdict.as_ref().expect("classifiable").class)
        .collect();
    assert!(
        classes.contains(&RaceClass::OutputDiffers),
        "classes: {classes:?}"
    );
}

/// Ad-hoc synchronization: a consumer spins on a flag that gates its read
/// of the data cell; races on both the flag and the data are single
/// ordering.
#[test]
fn spin_flag_protected_data_is_single_ordering() {
    let mut pb = ProgramBuilder::new("adhoc", "adhoc.c");
    let data = pb.global("data", 0);
    let flag = pb.global("done", 0);
    let consumer = pb.func("consumer", |f| {
        let _ = f.param();
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        let v = f.load(data, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(consumer, Operand::Imm(0));
        f.store(data, Operand::Imm(0), Operand::Imm(42));
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let result = run(
        &pipeline_with(Scheduler::RoundRobin),
        &program,
        vec![],
        InputSpec::concrete(vec![]),
    );
    assert!(!result.analyzed.is_empty());
    for a in &result.analyzed {
        let v = a.verdict.as_ref().expect("classifiable");
        assert_eq!(
            v.class,
            RaceClass::SingleOrdering,
            "race {} classified {}",
            a.cluster.representative,
            v.class
        );
    }
}

/// Without ad-hoc-synchronization detection (Fig. 7's single-path bar)
/// the same races are conservatively called harmful.
#[test]
fn adhoc_detection_off_misclassifies_spin_races() {
    let mut pb = ProgramBuilder::new("adhoc", "adhoc.c");
    let data = pb.global("data", 0);
    let flag = pb.global("done", 0);
    let consumer = pb.func("consumer", |f| {
        let _ = f.param();
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        let v = f.load(data, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(consumer, Operand::Imm(0));
        f.store(data, Operand::Imm(0), Operand::Imm(42));
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let mut pipeline = pipeline_with(Scheduler::RoundRobin);
    pipeline.portend.stages = AnalysisStages {
        adhoc_detection: false,
        multi_path: false,
        multi_schedule: false,
    };
    let result = run(&pipeline, &program, vec![], InputSpec::concrete(vec![]));
    let data_race = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "data")
        .expect("data race reported");
    assert_eq!(
        data_race.verdict.as_ref().unwrap().class,
        RaceClass::SpecViolated,
        "conservative replay-style classification expected"
    );
}

/// A crash (out-of-bounds) that only occurs in the alternate ordering.
#[test]
fn out_of_bounds_in_alternate_is_spec_violated() {
    let mut pb = ProgramBuilder::new("oob", "oob.c");
    let idx = pb.global("idx", 0);
    let arr = pb.array("arr", 4);
    // Worker bumps idx to 4 (an out-of-range index).
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(idx, Operand::Imm(0), Operand::Imm(4));
        f.ret(None);
    });
    // Main reads idx then stores through it; safe only if the read
    // happens before the worker's bump.
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        let v = f.load(idx, Operand::Imm(0));
        f.store(arr, v, Operand::Imm(1));
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    // Cooperative recording: main reads idx=0 first (safe), worker bumps
    // later. The alternate ordering makes main read 4 and crash.
    let result = run(
        &pipeline_with(Scheduler::Cooperative),
        &program,
        vec![],
        InputSpec::concrete(vec![]),
    );
    let race = result
        .analyzed
        .iter()
        .find(|a| a.cluster.representative.alloc_name == "idx")
        .expect("idx race reported");
    let v = race.verdict.as_ref().expect("classifiable");
    assert_eq!(v.class, RaceClass::SpecViolated);
    match &v.detail {
        VerdictDetail::SpecViolation { kind, replay } => {
            assert!(kind.to_string().contains("out-of-bounds"), "{kind}");
            assert!(!replay.schedule.is_empty());
        }
        other => panic!("{other:?}"),
    }
}

/// Deadlock that only materializes in the alternate ordering (the SQLite
/// scenario of Table 2).
#[test]
fn deadlock_in_alternate_is_spec_violated() {
    let mut pb = ProgramBuilder::new("dl", "dl.c");
    let initialized = pb.global("initialized", 0);
    let a = pb.mutex("A");
    let b = pb.mutex("B");
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        let v = f.load(initialized, Operand::Imm(0)); // racy read
        let not_init = f_not(f, v);
        f.if_then(not_init, |f| {
            f.lock(b);
            f.yield_();
            f.lock(a);
            f.unlock(a);
            f.unlock(b);
        });
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.lock(a);
        f.store(initialized, Operand::Imm(0), Operand::Imm(1)); // racy write
        f.lock(b);
        f.unlock(b);
        f.unlock(a);
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let result = run(
        &pipeline_with(Scheduler::Cooperative),
        &program,
        vec![],
        InputSpec::concrete(vec![]),
    );
    assert_eq!(result.analyzed.len(), 1);
    let v = result.analyzed[0].verdict.as_ref().expect("classifiable");
    assert_eq!(v.class, RaceClass::SpecViolated);
    match &v.detail {
        VerdictDetail::SpecViolation { kind, .. } => {
            assert_eq!(kind.table2_column(), "deadlock", "{kind}");
        }
        other => panic!("{other:?}"),
    }
}

fn f_not(f: &mut portend_vm::FuncBuilder, v: Operand) -> Operand {
    f.cmp(CmpOp::Eq, v, Operand::Imm(0))
}

/// An output difference that manifests only for *other* inputs than the
/// recorded one: requires multi-path analysis (paper Fig. 4's pattern).
#[test]
fn input_dependent_output_difference_needs_multi_path() {
    let build = || {
        let mut pb = ProgramBuilder::new("mp", "mp.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1)); // racy write
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let opt = f.input();
            let t = f.spawn(worker, Operand::Imm(0));
            let v = f.load(g, Operand::Imm(0)); // racy read
            f.join(t);
            // With opt == 0 (the recorded input) the output hides the racy
            // value; with opt == 1 it exposes it.
            f.if_else(
                opt,
                |f| {
                    f.output(1, v);
                },
                |f| {
                    f.output(1, Operand::Imm(99));
                },
            );
            f.ret(None);
        });
        Arc::new(pb.build(main).unwrap())
    };

    // Recorded input: opt = 0 → output is always 99; single-path analysis
    // sees equal outputs.
    let mut single_only = pipeline_with(Scheduler::Cooperative);
    single_only.portend.stages.multi_path = false;
    single_only.portend.stages.multi_schedule = false;
    let res = run(
        &single_only,
        &build(),
        vec![0],
        InputSpec::concrete(vec![0]),
    );
    assert_eq!(res.analyzed.len(), 1);
    assert_eq!(
        res.analyzed[0].verdict.as_ref().unwrap().class,
        RaceClass::KWitnessHarmless,
        "single-path analysis cannot see the difference"
    );

    // Full Portend with the input symbolic finds the opt == 1 path where
    // the racy value reaches the output.
    let full = pipeline_with(Scheduler::Cooperative);
    let res = run(
        &full,
        &build(),
        vec![0],
        InputSpec::concrete(vec![0]).with_symbolic(SymDomain::new("opt", 0, 1)),
    );
    assert_eq!(res.analyzed.len(), 1);
    let v = res.analyzed[0].verdict.as_ref().unwrap();
    assert_eq!(
        v.class,
        RaceClass::OutputDiffers,
        "multi-path exposes the difference"
    );
}

/// k grows with Mp × Ma and the verdict stays harmless for a genuinely
/// harmless race (Fig. 10's flat-at-100% behavior).
#[test]
fn k_witness_counts_explored_combinations() {
    let mut pb = ProgramBuilder::new("kw", "kw.c");
    let g = pb.global("scratch", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(g, Operand::Imm(0), Operand::Imm(5));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let opt = f.input();
        let t = f.spawn(worker, Operand::Imm(0));
        f.store(g, Operand::Imm(0), Operand::Imm(5));
        f.join(t);
        // Output depends on the input but not on the race.
        f.output(1, opt);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let pipeline = pipeline_with(Scheduler::RoundRobin);
    let res = run(
        &pipeline,
        &program,
        vec![3],
        InputSpec::concrete(vec![3]).with_symbolic(SymDomain::new("opt", 0, 7)),
    );
    assert_eq!(res.analyzed.len(), 1);
    let v = res.analyzed[0].verdict.as_ref().unwrap();
    assert_eq!(v.class, RaceClass::KWitnessHarmless);
    assert!(v.k >= 2, "k = {} should count multiple witnesses", v.k);
}

/// The Portend struct classifies directly from a case + race, too.
#[test]
fn direct_classify_matches_pipeline() {
    let mut pb = ProgramBuilder::new("rw2", "rw2.c");
    let g = pb.global("flag", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let run = portend_replay::record(
        &program,
        vec![],
        RecordConfig {
            scheduler: Scheduler::RoundRobin,
            ..Default::default()
        },
    );
    assert_eq!(run.clusters.len(), 1);
    let case = portend::AnalysisCase::concrete(program, run.trace.clone());
    let portend = Portend::new(PortendConfig::default());
    let v = portend
        .classify(&case, &run.clusters[0].representative)
        .expect("classifiable");
    assert_eq!(v.class, RaceClass::KWitnessHarmless);
}

/// `g` starts at 1 and a worker stores `g = 0`; `main` spawns it,
/// yields, loads `g`, runs `tail` on the loaded value and joins. A
/// round-robin recording runs the store first; a cooperative one runs
/// the load first.
fn zeroed_after_yield(tail: impl FnOnce(&mut FuncBuilder, Operand)) -> Program {
    let mut pb = ProgramBuilder::new("zeroed", "zeroed.c");
    let g = pb.global("g", 1);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(g, Operand::Imm(0), Operand::Imm(0));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.yield_();
        let v = f.load(g, Operand::Imm(0));
        tail(f, v);
        f.join(t);
        f.ret(None);
    });
    pb.build(main).unwrap()
}

/// Outputs `10 / v`.
fn output_ten_over(f: &mut FuncBuilder, v: Operand) {
    let q = f.bin(BinOp::Div, Operand::Imm(10), v);
    f.output(1, q);
}

/// `while v == 0 {}`: spins forever on a zero register.
fn spin_while_zero(f: &mut FuncBuilder, v: Operand) {
    f.while_loop(|f| f.cmp(CmpOp::Eq, v, Operand::Imm(0)), |_| {});
}

/// A worker stores `g = 1`; `main` loads `g` (racing with the store),
/// joins, then reads the input `i` and runs `tail` on it with a 4-cell
/// array. Both recordings and alternates run with the recorded `i`.
fn explored_after_join(tail: impl FnOnce(&mut FuncBuilder, Operand, AllocId)) -> Program {
    let mut pb = ProgramBuilder::new("explored", "explored.c");
    let g = pb.global("g", 0);
    let arr = pb.array("arr", 4);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        let _ = f.load(g, Operand::Imm(0));
        f.join(t);
        let i = f.input();
        tail(f, i, arr);
        f.ret(None);
    });
    pb.build(main).unwrap()
}

/// One row of the spec-violation evidence table: a program, how it is
/// recorded, and the evidence every race on the named allocations must
/// carry.
struct EvidenceRow {
    name: &'static str,
    sched: Scheduler,
    program: fn() -> Program,
    /// Whether the one input `i` (recorded as 7) is symbolic over 0..=10.
    symbolic: bool,
    allocs: &'static [&'static str],
    column: &'static str,
    description: &'static str,
}

/// Each stage that can prove a spec violation names itself in the
/// replay description (paper §3.6: inputs, schedule and what happens on
/// replay). One row per stage: Algorithm 1's primary and alternate runs,
/// its ordering enforcement, and the explorer's assert and fault checks.
#[test]
fn spec_violation_evidence_names_the_stage_that_found_it() {
    let rows = [
        EvidenceRow {
            name: "primary crash",
            sched: Scheduler::RoundRobin,
            program: || zeroed_after_yield(output_ten_over),
            symbolic: false,
            allocs: &["g"],
            column: "crash",
            description: "primary execution after the race",
        },
        EvidenceRow {
            name: "primary hang",
            sched: Scheduler::RoundRobin,
            program: || zeroed_after_yield(spin_while_zero),
            symbolic: false,
            allocs: &["g"],
            column: "hang",
            description: "primary execution hung after the race",
        },
        EvidenceRow {
            name: "alternate hang",
            sched: Scheduler::Cooperative,
            program: || zeroed_after_yield(spin_while_zero),
            symbolic: false,
            allocs: &["g"],
            column: "hang",
            description: "alternate execution hung after the race",
        },
        EvidenceRow {
            name: "enforcement crash",
            sched: Scheduler::RoundRobin,
            program: || {
                let mut pb = ProgramBuilder::new("flagged", "flagged.c");
                let g = pb.global("g", 0);
                let h = pb.global("h", 0);
                let worker = pb.func("worker", |f| {
                    let _ = f.param();
                    f.store(g, Operand::Imm(0), Operand::Imm(1));
                    f.store(h, Operand::Imm(0), Operand::Imm(1));
                    f.ret(None);
                });
                let main = pb.func("main", |f| {
                    let t = f.spawn(worker, Operand::Imm(0));
                    f.yield_();
                    let vh = f.load(h, Operand::Imm(0));
                    output_ten_over(f, vh);
                    let vg = f.load(g, Operand::Imm(0));
                    f.output(1, vg);
                    f.join(t);
                    f.ret(None);
                });
                pb.build(main).unwrap()
            },
            symbolic: false,
            allocs: &["g", "h"],
            column: "crash",
            description: "alternate execution",
        },
        EvidenceRow {
            name: "explored assert",
            sched: Scheduler::Cooperative,
            program: || {
                explored_after_join(|f, i, _| {
                    let c = f.cmp(CmpOp::Gt, i, Operand::Imm(3));
                    f.assert_true(c, "i > 3");
                })
            },
            symbolic: true,
            allocs: &["g"],
            column: "crash",
            description: "assertion fails on an explored primary path",
        },
        EvidenceRow {
            name: "explored fault",
            sched: Scheduler::Cooperative,
            program: || {
                explored_after_join(|f, i, arr| {
                    let c = f.cmp(CmpOp::Lt, i, Operand::Imm(3));
                    f.if_then(c, |f| {
                        f.store(arr, Operand::Imm(9), Operand::Imm(1));
                    });
                })
            },
            symbolic: true,
            allocs: &["g"],
            column: "crash",
            description: "violation on an explored primary path",
        },
    ];
    for row in rows {
        let inputs = if row.symbolic { vec![7] } else { vec![] };
        let mut spec = InputSpec::concrete(inputs.clone());
        if row.symbolic {
            spec = spec.with_symbolic(SymDomain::new("i", 0, 10));
        }
        let program = Arc::new((row.program)());
        let result = run(&pipeline_with(row.sched), &program, inputs, spec);
        for alloc in row.allocs {
            let analyzed = result
                .analyzed
                .iter()
                .find(|a| a.cluster.representative.alloc_name == *alloc)
                .unwrap_or_else(|| panic!("{}: no race on {alloc}", row.name));
            let v = analyzed.verdict.as_ref().expect("classifiable");
            let VerdictDetail::SpecViolation { kind, replay } = &v.detail else {
                panic!("{}: race on {alloc} classified {v}", row.name);
            };
            assert_eq!(v.class, RaceClass::SpecViolated, "{}: {alloc}", row.name);
            assert_eq!(
                (kind.table2_column(), replay.description.as_str()),
                (row.column, row.description),
                "{}: race on {alloc} ({kind})",
                row.name
            );
        }
    }
}
