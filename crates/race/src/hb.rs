//! The happens-before dynamic race detector (paper §3.1: "Portend detects
//! races using a dynamic happens-before algorithm").
//!
//! Vector clocks advance on synchronization events; each memory cell keeps
//! the epoch of its last write and the epochs of reads since that write
//! (FastTrack-style). An access races with a recorded access when neither
//! happens-before the other and at least one is a write.

use std::collections::BTreeMap;

use portend_vm::{
    AccessEvent, AllocId, Monitor, SyncEvent, SyncEventKind, ThreadEvent, ThreadEventKind, ThreadId,
};

use crate::report::{RaceAccess, RaceReport};
use crate::vector_clock::VectorClock;

/// Upper bound on recorded dynamic race occurrences (guards memory on
/// pathological runs).
const MAX_REPORTS: usize = 100_000;

/// Detector configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DetectorConfig {
    /// When `true`, mutex acquire/release edges are ignored. This
    /// simulates an imperfect detector that reports false positives
    /// (the §5.2 experiment: Portend must classify those as harmless).
    pub ignore_mutexes: bool,
}

#[derive(Debug, Clone, Default)]
struct CellMeta {
    /// Last write: `(tid, clock at write, access info)`.
    write: Option<(ThreadId, u64, RaceAccess)>,
    /// Reads since the last write: per-thread epoch and access info.
    reads: Vec<(ThreadId, u64, RaceAccess)>,
}

/// The happens-before race detector; plug into the VM as a [`Monitor`].
///
/// ```
/// use portend_race::HbDetector;
/// use portend_vm::{drive, DriveCfg, InputMode, InputSource, InputSpec, Machine,
///                  Operand, ProgramBuilder, Scheduler, VmConfig};
/// use std::sync::Arc;
///
/// let mut pb = ProgramBuilder::new("demo", "demo.c");
/// let g = pb.global("flag", 0);
/// let worker = pb.func("worker", |f| {
///     let _ = f.param();
///     f.store(g, Operand::Imm(0), Operand::Imm(1));
///     f.ret(None);
/// });
/// let main = pb.func("main", |f| {
///     let t = f.spawn(worker, Operand::Imm(0));
///     let _v = f.load(g, Operand::Imm(0)); // races with the store
///     f.join(t);
///     f.ret(None);
/// });
/// let program = Arc::new(pb.build(main).unwrap());
/// let mut m = Machine::new(program,
///     InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
///     VmConfig::default());
/// let mut det = HbDetector::new();
/// let mut sched = Scheduler::RoundRobin;
/// drive(&mut m, &mut sched, &mut det, &DriveCfg::default());
/// assert_eq!(det.races().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct HbDetector {
    cfg: DetectorConfig,
    clocks: Vec<VectorClock>,
    mutex_clocks: BTreeMap<u32, VectorClock>,
    cond_clocks: BTreeMap<u32, VectorClock>,
    cells: BTreeMap<(AllocId, usize), CellMeta>,
    alloc_names: Vec<String>,
    races: Vec<RaceReport>,
}

impl HbDetector {
    /// A detector with the default configuration.
    pub fn new() -> Self {
        Self::with_config(DetectorConfig::default())
    }

    /// A detector with an explicit configuration.
    pub fn with_config(cfg: DetectorConfig) -> Self {
        HbDetector {
            cfg,
            clocks: vec![init_clock(ThreadId(0))],
            mutex_clocks: BTreeMap::new(),
            cond_clocks: BTreeMap::new(),
            cells: BTreeMap::new(),
            alloc_names: Vec::new(),
            races: Vec::new(),
        }
    }

    /// Provides allocation names so reports are readable. Call once with
    /// the program's allocation table (in order).
    pub fn set_alloc_names(&mut self, names: impl IntoIterator<Item = String>) {
        self.alloc_names = names.into_iter().collect();
    }

    /// All dynamic race occurrences detected so far, in detection order.
    pub fn races(&self) -> &[RaceReport] {
        &self.races
    }

    /// Drains the detected races.
    pub fn take_races(&mut self) -> Vec<RaceReport> {
        std::mem::take(&mut self.races)
    }

    fn clock_mut(&mut self, tid: ThreadId) -> &mut VectorClock {
        let i = tid.0 as usize;
        while self.clocks.len() <= i {
            let id = ThreadId(self.clocks.len() as u32);
            self.clocks.push(init_clock(id));
        }
        &mut self.clocks[i]
    }

    fn alloc_name(&self, alloc: AllocId) -> String {
        self.alloc_names
            .get(alloc.0 as usize)
            .cloned()
            .unwrap_or_else(|| alloc.to_string())
    }

    fn record_race(&mut self, alloc: AllocId, offset: usize, prev: RaceAccess, cur: RaceAccess) {
        if self.races.len() >= MAX_REPORTS {
            return;
        }
        self.races.push(RaceReport {
            alloc,
            alloc_name: self.alloc_name(alloc),
            offset,
            first: prev,
            second: cur,
        });
    }
}

impl Default for HbDetector {
    fn default() -> Self {
        Self::new()
    }
}

fn init_clock(tid: ThreadId) -> VectorClock {
    let mut c = VectorClock::new();
    c.tick(tid);
    c
}

impl Monitor for HbDetector {
    fn on_access(&mut self, ev: &AccessEvent) {
        let tid = ev.tid;
        let clock = self.clock_mut(tid).clone();
        let access = RaceAccess::from_event(ev);
        let key = (ev.alloc, ev.offset);
        let meta = self.cells.entry(key).or_default();

        let mut racing: Vec<RaceAccess> = Vec::new();
        if ev.is_write {
            // Write races with any unordered previous write or read.
            if let Some((wt, wc, wa)) = &meta.write {
                if *wt != tid && !clock.saw_epoch(*wt, *wc) {
                    racing.push(*wa);
                }
            }
            for (rt, rc, ra) in &meta.reads {
                if *rt != tid && !clock.saw_epoch(*rt, *rc) {
                    racing.push(*ra);
                }
            }
            meta.write = Some((tid, clock.get(tid), access));
            meta.reads.clear();
        } else {
            // Read races with an unordered previous write.
            if let Some((wt, wc, wa)) = &meta.write {
                if *wt != tid && !clock.saw_epoch(*wt, *wc) {
                    racing.push(*wa);
                }
            }
            // Replace this thread's stale read epoch in place: one scan
            // that stops at the matching slot, no element shifting, and
            // `reads` stays bounded by the thread count even on
            // read-heavy loops (a remove-then-append scheme walks and
            // compacts the whole vector on every repeated read).
            let epoch = clock.get(tid);
            match meta.reads.iter_mut().find(|(rt, _, _)| *rt == tid) {
                Some(slot) => {
                    slot.1 = epoch;
                    slot.2 = access;
                }
                None => meta.reads.push((tid, epoch, access)),
            }
        }
        for prev in racing {
            self.record_race(ev.alloc, ev.offset, prev, access);
        }
        // Each access is its own logical event.
        self.clock_mut(tid).tick(tid);
    }

    fn on_sync(&mut self, ev: &SyncEvent) {
        let tid = ev.tid;
        match &ev.kind {
            SyncEventKind::MutexAcquired(m) => {
                if self.cfg.ignore_mutexes {
                    return;
                }
                let lc = self.mutex_clocks.entry(m.0).or_default().clone();
                self.clock_mut(tid).join(&lc);
            }
            SyncEventKind::MutexReleased(m) => {
                if self.cfg.ignore_mutexes {
                    return;
                }
                let tc = self.clock_mut(tid).clone();
                self.mutex_clocks.entry(m.0).or_default().join(&tc);
                self.clock_mut(tid).tick(tid);
            }
            SyncEventKind::CondWaitStart { .. } => {
                // The mutex release edge was already emitted separately.
            }
            SyncEventKind::CondSignalled { cond, woken } => {
                let tc = self.clock_mut(tid).clone();
                let cc = self.cond_clocks.entry(cond.0).or_default();
                cc.join(&tc);
                let cc = cc.clone();
                for w in woken {
                    self.clock_mut(*w).join(&cc);
                }
                self.clock_mut(tid).tick(tid);
            }
            SyncEventKind::BarrierReleased { participants, .. } => {
                // All participants synchronize with each other.
                let mut merged = VectorClock::new();
                for p in participants {
                    merged.join(&self.clock_mut(*p).clone());
                }
                for p in participants {
                    let c = self.clock_mut(*p);
                    c.join(&merged);
                    c.tick(*p);
                }
            }
        }
    }

    fn on_thread(&mut self, ev: &ThreadEvent) {
        match ev.kind {
            ThreadEventKind::Spawned { child } => {
                let pc = self.clock_mut(ev.tid).clone();
                let cc = self.clock_mut(child);
                cc.join(&pc);
                self.clock_mut(ev.tid).tick(ev.tid);
            }
            ThreadEventKind::Exited => {
                self.clock_mut(ev.tid).tick(ev.tid);
            }
            ThreadEventKind::Joined { target } => {
                let tc = self.clock_mut(target).clone();
                self.clock_mut(ev.tid).join(&tc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::cluster_races;
    use portend_vm::{
        drive, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Machine, Operand,
        ProgramBuilder, Scheduler, VmConfig,
    };
    use std::sync::Arc;

    fn run(p: portend_vm::Program, sched: &mut Scheduler, cfg: DetectorConfig) -> HbDetector {
        run_to_stop(p, sched, cfg).0
    }

    fn run_to_stop(
        p: portend_vm::Program,
        sched: &mut Scheduler,
        cfg: DetectorConfig,
    ) -> (HbDetector, DriveStop) {
        let mut det = HbDetector::with_config(cfg);
        det.set_alloc_names(p.allocs.iter().map(|a| a.name.clone()));
        let mut m = Machine::new(
            Arc::new(p),
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::default(),
        );
        let stop = drive(&mut m, sched, &mut det, &DriveCfg::default());
        (det, stop)
    }

    fn racy_program() -> portend_vm::Program {
        let mut pb = ProgramBuilder::new("racy", "racy.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.join(t);
            f.ret(None);
        });
        pb.build(main).unwrap()
    }

    fn locked_program() -> portend_vm::Program {
        let mut pb = ProgramBuilder::new("locked", "locked.c");
        let g = pb.global("g", 0);
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
            let v = f.load(g, Operand::Imm(0));
            f.unlock(mu);
            f.output(1, v);
            f.join(t);
            f.ret(None);
        });
        pb.build(main).unwrap()
    }

    #[test]
    fn detects_write_read_race() {
        let det = run(
            racy_program(),
            &mut Scheduler::RoundRobin,
            DetectorConfig::default(),
        );
        let clusters = cluster_races(det.races());
        assert_eq!(clusters.len(), 1);
        assert_eq!(clusters[0].representative.alloc_name, "g");
    }

    #[test]
    fn mutex_protection_suppresses_race() {
        for seed in 0..8 {
            let det = run(
                locked_program(),
                &mut Scheduler::random(seed),
                DetectorConfig::default(),
            );
            assert!(det.races().is_empty(), "seed {seed}: {:?}", det.races());
        }
    }

    #[test]
    fn mutex_blind_detector_reports_false_positive() {
        let det = run(
            locked_program(),
            &mut Scheduler::RoundRobin,
            DetectorConfig {
                ignore_mutexes: true,
            },
        );
        assert!(!det.races().is_empty());
    }

    #[test]
    fn join_edge_suppresses_race() {
        // main reads AFTER joining the writer: no race.
        let mut pb = ProgramBuilder::new("joined", "joined.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.join(t);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let det = run(
                p.clone(),
                &mut Scheduler::random(seed),
                DetectorConfig::default(),
            );
            assert!(det.races().is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn spawn_edge_orders_parent_writes() {
        // Parent writes before spawn; child reads: no race.
        let mut pb = ProgramBuilder::new("sp", "sp.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            f.store(g, Operand::Imm(0), Operand::Imm(9));
            let t = f.spawn(worker, Operand::Imm(0));
            f.join(t);
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let det = run(
                p.clone(),
                &mut Scheduler::random(seed),
                DetectorConfig::default(),
            );
            assert!(det.races().is_empty(), "seed {seed}");
        }
    }

    #[test]
    fn access_after_unlock_races_with_the_next_holder() {
        // A's store follows its unlock, so the lock orders nothing after
        // it: B's load under the same mutex still races with the store.
        // (Cooperative runs A to its exit before B starts.)
        let mut pb = ProgramBuilder::new("after_unlock", "after_unlock.c");
        let g = pb.global("g", 0);
        let mu = pb.mutex("m");
        let a = pb.func("a", |f| {
            let _ = f.param();
            f.lock(mu);
            f.unlock(mu);
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.ret(None);
        });
        let b = pb.func("b", |f| {
            let _ = f.param();
            f.lock(mu);
            let v = f.load(g, Operand::Imm(0));
            f.unlock(mu);
            f.output(1, v);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let ta = f.spawn(a, Operand::Imm(0));
            let tb = f.spawn(b, Operand::Imm(0));
            f.join(ta);
            f.join(tb);
            f.ret(None);
        });
        let det = run(
            pb.build(main).unwrap(),
            &mut Scheduler::Cooperative,
            DetectorConfig::default(),
        );
        let clusters = cluster_races(det.races());
        assert_eq!(clusters.len(), 1, "{:?}", det.races());
        assert_eq!(clusters[0].representative.alloc_name, "g");
    }

    #[test]
    fn signal_without_the_mutex_orders_the_signaller_first() {
        // The signaller never holds `m`, so only the signal→wake edge
        // orders its store before the woken waiter's load.
        let mut pb = ProgramBuilder::new("bare_signal", "bare_signal.c");
        let g = pb.global("g", 0);
        let mu = pb.mutex("m");
        let cv = pb.condvar("cv");
        let waiter = pb.func("waiter", |f| {
            let _ = f.param();
            f.lock(mu);
            f.cond_wait(cv, mu);
            f.unlock(mu);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let signaller = pb.func("signaller", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.cond_signal(cv);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let tw = f.spawn(waiter, Operand::Imm(0));
            let ts = f.spawn(signaller, Operand::Imm(0));
            f.join(tw);
            f.join(ts);
            f.ret(None);
        });
        let (det, stop) = run_to_stop(
            pb.build(main).unwrap(),
            &mut Scheduler::Cooperative,
            DetectorConfig::default(),
        );
        assert_eq!(stop, DriveStop::Completed, "the waiter waits first");
        assert!(det.races().is_empty(), "{:?}", det.races());
    }

    #[test]
    fn repeated_reads_do_not_grow_cell_metadata() {
        // A read-heavy loop: each thread re-reads the same cell many
        // times. The per-cell read list must stay bounded by the thread
        // count (one epoch slot per thread, updated in place), or the
        // detector's write-path scan goes quadratic on such loops.
        use portend_vm::{AccessEvent, AllocId, BlockId, FuncId, Pc};
        let mut det = HbDetector::new();
        let pc = Pc {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
        };
        for step in 0..1_000u64 {
            det.on_access(&AccessEvent {
                tid: ThreadId((step % 3) as u32),
                pc,
                line: 1,
                alloc: AllocId(0),
                offset: 0,
                is_write: false,
                step,
            });
        }
        let meta = det.cells.get(&(AllocId(0), 0)).expect("cell tracked");
        assert_eq!(meta.reads.len(), 3, "one read-epoch slot per thread");
        // Each slot carries the thread's latest epoch, not its first.
        for &(tid, epoch, _) in &meta.reads {
            assert_eq!(epoch, det.clocks[tid.0 as usize].get(tid) - 1);
        }
    }

    #[test]
    fn write_write_race_detected() {
        let mut pb = ProgramBuilder::new("ww", "ww.c");
        let g = pb.global("g", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.store(g, Operand::Imm(0), Operand::Imm(2));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.store(g, Operand::Imm(0), Operand::Imm(3));
            f.join(t);
            f.ret(None);
        });
        let det = run(
            pb.build(main).unwrap(),
            &mut Scheduler::RoundRobin,
            DetectorConfig::default(),
        );
        let clusters = cluster_races(det.races());
        assert_eq!(clusters.len(), 1);
        assert!(clusters[0].representative.first.is_write);
        assert!(clusters[0].representative.second.is_write);
    }
}
