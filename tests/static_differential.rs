//! Differential cross-check between the static lockset/MHP pre-analysis
//! (`portend-sa`) and the dynamic happens-before detector.
//!
//! The static pass over-approximates: its candidate set must contain
//! every pair the dynamic detector can ever report (same allocation,
//! same unordered pc pair, may-happen-in-parallel, and — while the
//! detector tracks mutex edges — no common must-held lock). The suite
//! checks that inclusion on the whole workloads corpus and on
//! randomized builder programs, and checks the `respect_locks` mirror
//! against the §5.2 imperfect-detector configuration. The
//! classification pipeline does not run the pass, so it cannot change a
//! verdict; `examples/static_report.rs` restates the corpus inclusion as
//! a per-workload table.

use std::sync::Arc;

use portend_repro::portend_race::DetectorConfig;
use portend_repro::portend_replay::{record, RecordConfig};
use portend_repro::portend_sa::{analyze, StaticAnalysis};
use portend_repro::portend_vm::{Operand, Program, ProgramBuilder, Scheduler, SmallRng};
use portend_repro::portend_workloads::conformance::random_program;
use portend_repro::portend_workloads::{all, Workload};

/// Asserts that every dynamic race the detector produced is inside the
/// static candidate set, with lock pruning matching the detector's
/// mutex-edge configuration.
fn assert_all_covered(
    name: &str,
    sa: &StaticAnalysis,
    races: &[portend_repro::portend_race::RaceReport],
    respect_locks: bool,
) {
    for race in races {
        let (lo, hi) = race.pc_pair();
        assert!(
            sa.covers(race.alloc, lo, hi, respect_locks),
            "{name}: dynamic race escaped the static candidate set: {race} \
             (pair {lo} / {hi}, candidate: {:?})",
            sa.lookup(race.alloc, lo, hi)
        );
    }
}

/// Records a workload exactly the way its pipeline does.
fn record_workload(w: &Workload) -> portend_repro::portend_replay::RecordedRun {
    record(
        &w.program,
        w.inputs.clone(),
        RecordConfig {
            scheduler: w.record_scheduler.clone(),
            vm: w.vm,
            ..Default::default()
        },
    )
}

/// The headline inclusion property over the whole Table 1 corpus: the
/// static candidate set is a superset of everything the detector finds.
#[test]
fn static_candidates_cover_every_corpus_race() {
    for w in all() {
        let run = record_workload(&w);
        assert!(
            !run.races.is_empty(),
            "{}: corpus workload must detect races",
            w.name
        );
        let sa = analyze(&w.program);
        assert!(
            !sa.degraded,
            "{}: corpus programs fit the analysis domains",
            w.name
        );
        // The default detector tracks mutex edges, so lock pruning is in
        // effect — and must still cover every reported race.
        assert_all_covered(w.name, &sa, &run.races, true);
        assert!(
            sa.stats().candidates >= run.clusters.len() as u64,
            "{}: fewer candidates than distinct dynamic races",
            w.name
        );
    }
}

/// The same inclusion property on randomized programs (the shared
/// `conformance::random_program` generator): random worker counts, loop
/// trip counts, optional locking, optional joins, optional main-thread
/// accesses, random schedules.
#[test]
fn static_candidates_cover_randomized_programs() {
    let mut r = SmallRng::seed_from_u64(0x5A71C);
    for case in 0..48 {
        let (program, shape) = random_program(r.next_u64());
        let run = record(
            &program,
            vec![],
            RecordConfig {
                scheduler: Scheduler::random(shape.schedule_seed),
                ..Default::default()
            },
        );
        let sa = analyze(&program);
        let name = format!("case {case} ({shape:?})");
        assert_all_covered(&name, &sa, &run.races, true);
        // Main's tail read takes no lock, so only the fully locked AND
        // fully joined shape is dynamically race-free.
        if shape.race_free() {
            assert!(
                run.races.is_empty(),
                "{name}: locked and joined program must be race-free dynamically"
            );
        }
    }
}

/// The `respect_locks` mirror: against the §5.2 imperfect detector
/// (mutex edges ignored) a lock-protected pair *is* reported, and the
/// candidate set must cover it once lock pruning is switched off too.
#[test]
fn imperfect_detector_races_covered_without_lock_pruning() {
    let mut pb = ProgramBuilder::new("locked", "locked.c");
    let g = pb.global("g", 0);
    let m = pb.mutex("m");
    let worker = pb.func("worker", move |f| {
        let _ = f.param();
        f.lock(m);
        let v = f.load(g, Operand::Imm(0));
        f.yield_();
        let v1 = f.add(v, Operand::Imm(1));
        f.store(g, Operand::Imm(0), v1);
        f.unlock(m);
        f.ret(None);
    });
    let main = pb.func("main", move |f| {
        let t1 = f.spawn(worker, Operand::Imm(0));
        let t2 = f.spawn(worker, Operand::Imm(1));
        f.join(t1);
        f.join(t2);
        f.ret(None);
    });
    let program: Arc<Program> = Arc::new(pb.build(main).unwrap());

    let run = record(
        &program,
        vec![],
        RecordConfig {
            detector: DetectorConfig {
                ignore_mutexes: true,
            },
            scheduler: Scheduler::RoundRobin,
            ..Default::default()
        },
    );
    assert!(
        !run.races.is_empty(),
        "mutex-blind detector must report the protected accesses"
    );
    let sa = analyze(&program);
    assert_all_covered("imperfect detector", &sa, &run.races, false);
    // With lock pruning on, the same pairs are (correctly) pruned — lock
    // pruning only mirrors the detector while it tracks mutex edges,
    // which is exactly why these reports are checked without it above.
    for race in &run.races {
        let (lo, hi) = race.pc_pair();
        assert!(
            !sa.covers(race.alloc, lo, hi, true),
            "lock-protected pair must be pruned when locks are respected: {race}"
        );
    }
}
