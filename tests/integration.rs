//! Cross-crate integration tests: replay determinism, the §5.2
//! false-positive robustness experiment, baseline comparisons, the
//! debugging-aid report, and the golden table of classification work.

use std::sync::Arc;

use portend_repro::portend::baselines::{
    AdHocDetector, AdHocVerdict, HeuristicClassifier, HeuristicVerdict, RecordReplayAnalyzer,
    RraVerdict,
};
use portend_repro::portend::{AnalysisCase, PipelineResult, Portend, PortendConfig, RaceClass};
use portend_repro::portend_race::{
    cluster_races, DetectorConfig, HbDetector, RaceAccess, RaceReport,
};
use portend_repro::portend_replay::{record, RecordConfig, RecordedRun};
use portend_repro::portend_vm::{
    drive, AllocId, DriveCfg, InputMode, InputSource, InputSpec, Machine, Operand, ProgramBuilder,
    RecordingMonitor, Scheduler, VmConfig,
};

/// Deterministic replay across the whole stack: recording a run and
/// replaying its trace reproduces the outputs and the race set.
#[test]
fn record_replay_is_deterministic_for_every_workload() {
    for w in portend_repro::portend_workloads::all() {
        let cfg = RecordConfig {
            scheduler: w.record_scheduler.clone(),
            vm: w.vm,
            ..Default::default()
        };
        let run1 = record(&w.program, w.inputs.clone(), cfg.clone());
        let run2 = record(&w.program, w.inputs.clone(), cfg);
        assert_eq!(
            run1.output, run2.output,
            "{}: nondeterministic recording",
            w.name
        );
        assert_eq!(
            run1.clusters.len(),
            run2.clusters.len(),
            "{}: nondeterministic race set",
            w.name
        );

        // Replay through the trace scheduler.
        let mut m = run1.trace.machine(&w.program, w.vm);
        let mut sched = run1.trace.scheduler();
        let mut det = HbDetector::new();
        let stop = drive(&mut m, &mut sched, &mut det, &DriveCfg::default());
        assert!(
            matches!(stop, portend_repro::portend_vm::DriveStop::Completed),
            "{}: replay did not complete: {stop:?}",
            w.name
        );
        assert_eq!(m.output, run1.output, "{}: replay output differs", w.name);
        assert!(
            !sched.diverged(),
            "{}: replay diverged from its own trace",
            w.name
        );
    }
}

/// §5.2: feed Portend false positives from a deliberately broken
/// (mutex-blind) detector; Portend classifies them all as harmless
/// ("single ordering" — only one ordering is observable once the mutex is
/// honored at execution time).
#[test]
fn false_positive_reports_classified_harmless() {
    // The micro-benchmarks, raced-by-construction-then-fixed: properly
    // locked counter updates that a mutex-blind detector still reports.
    let mut pb = ProgramBuilder::new("fixed-micro", "fixed.cpp");
    let g = pb.global("counter", 0);
    let mu = pb.mutex("m");
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.lock(mu);
        f.racy_inc(g, Operand::Imm(0));
        f.unlock(mu);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.lock(mu);
        f.racy_inc(g, Operand::Imm(0));
        f.unlock(mu);
        f.join(t);
        let v = f.load(g, Operand::Imm(0));
        f.output(1, v);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());

    // Record with the broken detector.
    let run = record(
        &program,
        vec![],
        RecordConfig {
            scheduler: Scheduler::RoundRobin,
            detector: DetectorConfig {
                ignore_mutexes: true,
            },
            ..Default::default()
        },
    );
    assert!(
        !run.clusters.is_empty(),
        "the broken detector must report false positives"
    );

    let case = AnalysisCase::concrete(Arc::clone(&program), run.trace.clone());
    let portend = Portend::new(PortendConfig::default());
    for cluster in &run.clusters {
        let v = portend
            .classify(&case, &cluster.representative)
            .expect("classifiable");
        assert!(
            !v.class.is_harmful(),
            "false positive classified harmful: {} -> {v}",
            cluster.representative
        );
    }
}

/// Records a program with one real race (`really_racy`) and one cell
/// ordered only by fork/join (`fork_join_safe`), which a lockset-style
/// tool reports and the happens-before detector does not.
fn record_fork_join() -> (RecordedRun, AnalysisCase) {
    let mut pb = ProgramBuilder::new("triage", "triage.c");
    let real = pb.global("really_racy", 0);
    let fj = pb.global("fork_join_safe", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.store(real, Operand::Imm(0), Operand::Imm(1)); // races with main's read
        f.store(fj, Operand::Imm(0), Operand::Imm(7)); // HB-safe via join
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        let v = f.load(real, Operand::Imm(0)); // racy read, printed
        f.output(1, v);
        f.join(t);
        f.store(fj, Operand::Imm(0), Operand::Imm(9)); // ordered by the join
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let run = record(&program, vec![], RecordConfig::default());
    let case = AnalysisCase::concrete(program, run.trace.clone());
    (run, case)
}

/// A report from an imprecise tool, hand-built for a pair of accesses the
/// join orders, classifies as not harmful; the real race beside it is
/// output-visible.
#[test]
fn hb_ordered_report_from_an_imprecise_tool_is_not_harmful() {
    let (run, case) = record_fork_join();
    let portend = Portend::new(PortendConfig::default());
    let real = run
        .clusters
        .iter()
        .find(|c| c.representative.alloc_name == "really_racy")
        .expect("the sound detector reports the real race");
    let v = portend
        .classify(&case, &real.representative)
        .expect("classifiable");
    assert_eq!(v.class, RaceClass::OutputDiffers, "{v}");

    // The worker's store, then main's store after the join: what a
    // lockset tool reports on `fork_join_safe`.
    let name = "fork_join_safe";
    let alloc = AllocId(
        case.program
            .allocs
            .iter()
            .position(|a| a.name == name)
            .unwrap() as u32,
    );
    let mut m = run.trace.machine(&case.program, VmConfig::default());
    let mut mon = RecordingMonitor::default();
    let _ = drive(
        &mut m,
        &mut run.trace.scheduler(),
        &mut mon,
        &DriveCfg::default(),
    );
    let stores: Vec<RaceAccess> = mon
        .accesses
        .iter()
        .filter(|e| e.alloc == alloc && e.is_write)
        .map(RaceAccess::from_event)
        .collect();
    assert_eq!(stores.len(), 2, "{stores:?}");
    let report = RaceReport {
        alloc,
        alloc_name: name.to_string(),
        offset: 0,
        first: stores[0],
        second: stores[1],
    };
    assert!(
        run.clusters
            .iter()
            .all(|c| c.representative.alloc_name != name),
        "the happens-before detector does not report {report}"
    );
    let v = portend.classify(&case, &report).expect("classifiable");
    assert!(!v.class.is_harmful(), "{report} -> {v}");
}

/// A report whose accesses never happen in the recorded execution is a
/// `ClassifyError`, not a verdict.
#[test]
fn report_whose_accesses_never_happen_is_a_classify_error() {
    let (run, case) = record_fork_join();
    let mut fake = run.clusters[0].representative.clone();
    fake.first.step = 999_999;
    fake.second.step = 999_999;
    let err = Portend::new(PortendConfig::default())
        .classify(&case, &fake)
        .expect_err("a fabricated report is not located");
    assert!(
        err.0.contains("race not reached in primary replay"),
        "{err:?}"
    );
}

/// The true happens-before detector reports nothing for the same
/// (properly synchronized) program.
#[test]
fn sound_detector_reports_nothing_for_locked_program() {
    let mut pb = ProgramBuilder::new("locked", "locked.c");
    let g = pb.global("x", 0);
    let mu = pb.mutex("m");
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.lock(mu);
        f.store(g, Operand::Imm(0), Operand::Imm(1));
        f.unlock(mu);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        f.lock(mu);
        f.store(g, Operand::Imm(0), Operand::Imm(2));
        f.unlock(mu);
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    for seed in 0..10 {
        let run = record(
            &program,
            vec![],
            RecordConfig {
                scheduler: Scheduler::random(seed),
                ..Default::default()
            },
        );
        assert!(run.clusters.is_empty(), "seed {seed}: {:?}", run.clusters);
    }
}

/// Baselines behave per §5.4 on the micro-benchmarks: the
/// Record/Replay-Analyzer is perfect there ("despite being perfect on
/// simple microbenchmarks"), while the ad-hoc detector classifies none of
/// them.
#[test]
fn rra_is_perfect_on_micros() {
    let rra = RecordReplayAnalyzer::new();
    let adhoc = AdHocDetector::new();
    for w in [
        portend_repro::portend_workloads::rw(),
        portend_repro::portend_workloads::avv(),
        portend_repro::portend_workloads::dbm(),
        portend_repro::portend_workloads::dcl(),
    ] {
        let result = w.analyze(PortendConfig::default());
        assert_eq!(result.analyzed.len(), 1, "{}", w.name);
        let race = &result.analyzed[0].cluster.representative;
        assert_eq!(
            rra.classify(&result.case, race).expect("classifiable"),
            RraVerdict::LikelyHarmless,
            "{}: RRA must be correct on micro-benchmarks",
            w.name
        );
        assert_eq!(
            adhoc.classify(&result.case, race).expect("classifiable"),
            AdHocVerdict::NotClassified,
            "{}: not an ad-hoc-synchronization pattern",
            w.name
        );
    }
}

/// The heuristic (DataCollider-style) classifier recognizes the redundant
/// write pattern and stays silent on unknown shapes.
#[test]
fn heuristic_classifier_patterns() {
    let h = HeuristicClassifier::new();
    let rw = portend_repro::portend_workloads::rw();
    let result = rw.analyze(PortendConfig::default());
    let race = &result.analyzed[0].cluster.representative;
    assert_eq!(
        h.classify(&result.case, race),
        HeuristicVerdict::LikelyBenign {
            pattern: "redundant write"
        }
    );

    let sqlite = portend_repro::portend_workloads::sqlite();
    let result = sqlite.analyze(PortendConfig::default());
    let race = &result.analyzed[0].cluster.representative;
    assert_eq!(h.classify(&result.case, race), HeuristicVerdict::Unknown);
}

/// The machine is a value: checkpointing (cloning) and resuming from a
/// checkpoint leaves the original untouched.
#[test]
fn checkpoint_isolation() {
    let w = portend_repro::portend_workloads::bbuf();
    let mut m = Machine::new(
        Arc::clone(&w.program),
        InputSource::new(InputSpec::concrete(w.inputs.clone()), InputMode::Concrete),
        VmConfig::default(),
    );
    let mut sched = Scheduler::RoundRobin;
    let mut mon = portend_repro::portend_vm::NullMonitor;
    // Run a little, checkpoint, run both to completion.
    let _ = drive(&mut m, &mut sched, &mut mon, &DriveCfg::with_budget(50));
    let ckpt = m.clone();
    let mut sched2 = sched.clone();
    let stop1 = drive(&mut m, &mut sched, &mut mon, &DriveCfg::default());
    let mut m2 = ckpt;
    let stop2 = drive(&mut m2, &mut sched2, &mut mon, &DriveCfg::default());
    assert_eq!(stop1, stop2);
    assert_eq!(m.output, m2.output);
    assert_eq!(m.steps, m2.steps);
}

/// Every verdict for a harmful race carries non-empty replay evidence.
#[test]
fn harmful_verdicts_carry_replayable_evidence() {
    for name in ["SQLite", "pbzip2", "ctrace"] {
        let w = portend_repro::portend_workloads::by_name(name).unwrap();
        let result = w.analyze(PortendConfig::default());
        for a in &result.analyzed {
            if let Ok(v) = &a.verdict {
                if v.class == RaceClass::SpecViolated {
                    match &v.detail {
                        portend_repro::portend::VerdictDetail::SpecViolation { replay, .. } => {
                            assert!(
                                !replay.schedule.is_empty(),
                                "{name}: empty schedule evidence"
                            );
                        }
                        other => panic!("{other:?}"),
                    }
                }
            }
        }
    }
}

/// Race detection is insensitive to watchpoints: classifying a race does
/// not perturb the recorded trace (the executor's alignment contract).
#[test]
fn classification_does_not_perturb_recording() {
    let w = portend_repro::portend_workloads::fmm();
    let r1 = w.analyze(PortendConfig::default());
    let r2 = w.analyze(PortendConfig::default());
    assert_eq!(r1.record.output, r2.record.output);
    let v1: Vec<_> = r1
        .analyzed
        .iter()
        .map(|a| a.verdict.as_ref().map(|v| v.class).ok())
        .collect();
    let v2: Vec<_> = r2
        .analyzed
        .iter()
        .map(|a| a.verdict.as_ref().map(|v| v.class).ok())
        .collect();
    assert_eq!(v1, v2, "classification must be deterministic");
}

/// The cluster representative of repeated occurrences prefers the
/// write-first orientation (what makes flag handoffs classify single
/// ordering).
#[test]
fn cluster_representative_prefers_write_first() {
    let mut pb = ProgramBuilder::new("spin", "spin.c");
    let flag = pb.global("flag", 0);
    let worker = pb.func("worker", |f| {
        let _ = f.param();
        f.spin_while_eq(flag, Operand::Imm(0), 0);
        f.ret(None);
    });
    let main = pb.func("main", |f| {
        let t = f.spawn(worker, Operand::Imm(0));
        for _ in 0..6 {
            f.yield_();
        }
        f.store(flag, Operand::Imm(0), Operand::Imm(1));
        f.join(t);
        f.ret(None);
    });
    let program = Arc::new(pb.build(main).unwrap());
    let run = record(
        &program,
        vec![],
        RecordConfig {
            scheduler: Scheduler::RoundRobin,
            ..Default::default()
        },
    );
    let clusters = cluster_races(&run.races);
    assert_eq!(clusters.len(), 1);
    assert!(
        clusters[0].representative.first.is_write,
        "representative: {}",
        clusters[0].representative
    );
    assert!(clusters[0].instances >= 2, "spin reads race repeatedly");
}

/// Every workload's per-allocation ground truth predicts the produced
/// classification exactly: for each analyzed cluster, the verdict class
/// equals `Workload::expected_verdict` for that allocation
/// (`GroundTruth::produced_class`, which accounts for the paper's one
/// documented residual misclassification — ocean's `residual`).
#[test]
fn produced_classes_match_per_alloc_ground_truth() {
    for w in portend_repro::portend_workloads::all() {
        let result = w.analyze(PortendConfig::default());
        assert!(
            !result.analyzed.is_empty(),
            "{}: corpus workload must classify races",
            w.name
        );
        for a in &result.analyzed {
            let alloc = &a.cluster.representative.alloc_name;
            let expected = w
                .expected_verdict(alloc)
                .unwrap_or_else(|| panic!("{}: no ground truth for allocation `{alloc}`", w.name));
            let got = a
                .verdict
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {alloc}: classification failed: {e:?}", w.name))
                .class;
            assert_eq!(
                got,
                expected,
                "{}: allocation `{alloc}` classified {} but ground truth predicts {}",
                w.name,
                got.label(),
                expected.label()
            );
        }
    }
}

/// One golden row: program, then `[instructions, preemptions, primaries,
/// alternates, schedule decisions, interpreted]`, then verdicts per class
/// `[specViol, outDiff, k-witness, singleOrd, error]`.
type WorkRow = (&'static str, [u64; 6], [u64; 5]);

/// Serial `Pipeline::run` work per program: the `ClassifyStats` sums,
/// the recorded schedule length, and the verdict-class histogram.
fn work_row(name: &'static str, result: &PipelineResult) -> WorkRow {
    let mut work = [0, 0, 0, 0, result.record.trace.schedule.len() as u64, 0];
    let mut classes = [0; 5];
    for a in &result.analyzed {
        match &a.verdict {
            Ok(v) => {
                work[0] += v.stats.instructions;
                work[1] += v.stats.preemptions;
                work[2] += v.stats.primaries;
                work[3] += v.stats.alternates;
                work[5] += v.stats.interpreted;
                classes[v.class as usize] += 1;
            }
            Err(_) => classes[4] += 1,
        }
    }
    (name, work, classes)
}

/// The deterministic work of classifying the corpus and the conformance
/// idioms stays the same across commits. An interpreter or scheduler
/// change that moves any of these counts changes what Table 4 and
/// Fig. 9 measure; a change that means to move them updates the table
/// and says why. `interpreted` is the part of `instructions` the VM
/// actually interpreted rather than fast-forwarded; it is work done, not
/// work measured, and is the one column a fast-forward change moves.
/// Fork bytes are left out: they sum `size_of` values that vary with the
/// toolchain.
#[test]
fn work_counters_match_golden_table() {
    const GOLDEN: &[WorkRow] = &[
        // program, [instructions, preemptions, primaries, alternates, schedule, interpreted],
        // [specViol, outDiff, k-witness, singleOrd, error]
        ("SQLite", [26, 19, 1, 1, 12, 26], [1, 0, 0, 0, 0]),
        ("ocean", [31068, 6207, 9, 15, 7, 1728], [0, 0, 1, 4, 0]),
        ("fmm", [104378, 21365, 13, 15, 36, 5428], [0, 0, 1, 12, 0]),
        (
            "memcached",
            [125974, 27104, 18, 18, 86, 5314],
            [0, 2, 0, 16, 0],
        ),
        (
            "pbzip2",
            [216129, 42598, 32, 32, 15, 13539],
            [3, 3, 0, 25, 0],
        ),
        (
            "ctrace",
            [30225, 21466, 42, 58, 245, 30225],
            [1, 10, 4, 0, 0],
        ),
        ("bbuf", [1891, 1472, 10, 10, 72, 1891], [0, 6, 0, 0, 0]),
        ("AVV", [94, 49, 1, 3, 9, 94], [0, 0, 1, 0, 0]),
        ("DCL", [288, 163, 1, 3, 17, 288], [0, 0, 1, 0, 0]),
        ("DBM", [72, 34, 1, 3, 6, 72], [0, 0, 1, 0, 0]),
        ("RW", [74, 52, 1, 3, 9, 74], [0, 0, 1, 0, 0]),
        ("spsc_ring", [20395, 4083, 4, 4, 6, 840], [0, 0, 0, 4, 0]),
        ("seqlock", [247, 108, 3, 9, 6, 247], [0, 0, 3, 0, 0]),
        ("rcu", [61, 24, 2, 2, 6, 61], [0, 1, 0, 1, 0]),
        ("double_checked", [182, 92, 1, 3, 11, 182], [0, 0, 1, 0, 0]),
        ("barrier_reuse", [220, 75, 1, 3, 13, 220], [0, 0, 1, 0, 0]),
        ("rwlock_starved", [37, 20, 1, 1, 11, 37], [0, 1, 0, 0, 0]),
        ("racy_lazy_init", [155, 53, 3, 3, 11, 155], [0, 3, 0, 0, 0]),
        ("adhoc_flag", [10105, 2032, 2, 2, 6, 375], [0, 0, 0, 2, 0]),
        ("torn_assert", [17, 8, 1, 1, 5, 17], [1, 0, 0, 0, 0]),
        ("double_read", [60, 33, 2, 4, 4, 60], [0, 1, 1, 0, 0]),
        ("treiber_aba", [165, 61, 2, 4, 7, 165], [0, 1, 1, 0, 0]),
        ("sharded_counter", [103, 39, 2, 2, 11, 103], [0, 2, 0, 0, 0]),
        ("neg_locked_counter", [0, 0, 0, 0, 8, 0], [0, 0, 0, 0, 0]),
        ("neg_barrier_pipeline", [0, 0, 0, 0, 9, 0], [0, 0, 0, 0, 0]),
        ("neg_join_handoff", [0, 0, 0, 0, 3, 0], [0, 0, 0, 0, 0]),
        ("neg_condvar_handoff", [0, 0, 0, 0, 11, 0], [0, 0, 0, 0, 0]),
    ];
    let mut produced = Vec::new();
    for w in portend_repro::portend_workloads::all() {
        produced.push(work_row(w.name, &w.analyze(PortendConfig::default())));
    }
    for i in portend_repro::portend_workloads::conformance::all_idioms() {
        produced.push(work_row(i.name, &i.analyze(PortendConfig::default())));
    }
    let table: String = produced
        .iter()
        .map(|row| format!("        {row:?},\n"))
        .collect();
    assert_eq!(produced, GOLDEN, "produced table:\n{table}");
}
