//! The executor: scheduling loop, watchpoints, suspension, budgets.
//!
//! [`drive`] runs a [`Machine`] under a [`Scheduler`] until it completes,
//! crashes, deadlocks, exhausts its step budget, hits a watched memory
//! access, or reaches a symbolic fork the caller must resolve. It is the
//! single scheduling loop shared by plain execution, recording, replay,
//! single-pre/single-post classification, and multi-path exploration —
//! which is what keeps schedule decision points aligned across all of them.

use std::collections::BTreeSet;
use std::sync::Arc;

use portend_symex::Expr;

use crate::error::VmError;
use crate::inst::Inst;
use crate::machine::{Machine, StepEvent};
use crate::monitor::Monitor;
use crate::program::{AllocId, BlockId, Pc};
use crate::sched::{PickReason, Scheduler};
use crate::sync::SyncState;
use crate::thread::{Thread, ThreadId};

/// A watched memory location; hitting it returns control to the caller
/// *before* the access executes (this is how the classifier checkpoints
/// "just before the first racing access", paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watch {
    /// The watched allocation.
    pub alloc: AllocId,
    /// Specific offset, or `None` for the whole allocation.
    pub offset: Option<i64>,
    /// Restrict to one thread, or `None` for any.
    pub tid: Option<ThreadId>,
    /// Only trigger on writes.
    pub writes_only: bool,
}

impl Watch {
    /// Watch every access to an allocation.
    pub fn alloc(alloc: AllocId) -> Self {
        Watch {
            alloc,
            offset: None,
            tid: None,
            writes_only: false,
        }
    }

    /// Watch accesses to one cell.
    pub fn cell(alloc: AllocId, offset: i64) -> Self {
        Watch {
            alloc,
            offset: Some(offset),
            tid: None,
            writes_only: false,
        }
    }

    /// Restrict the watch to one thread.
    pub fn by(mut self, tid: ThreadId) -> Self {
        self.tid = Some(tid);
        self
    }

    /// Whether this watch covers `tid`'s access to `alloc[offset]`
    /// (`is_write` for a store). The one matcher behind both
    /// [`DriveCfg`] watch lists and behind callers that sort a
    /// [`WatchHit`] back to the list it came from.
    pub fn matches(&self, tid: ThreadId, alloc: AllocId, offset: i64, is_write: bool) -> bool {
        self.alloc == alloc
            && self.offset.is_none_or(|o| o == offset)
            && self.tid.is_none_or(|t| t == tid)
            && (!self.writes_only || is_write)
    }
}

/// A watch hit: the current thread is *about to* perform this access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchHit {
    /// The accessing thread.
    pub tid: ThreadId,
    /// The pc of the pending access.
    pub pc: Pc,
    /// The accessed allocation.
    pub alloc: AllocId,
    /// The resolved offset.
    pub offset: i64,
    /// Whether the pending access is a write.
    pub is_write: bool,
}

/// Execution budget and controls for one [`drive`] call.
#[derive(Debug, Clone)]
pub struct DriveCfg {
    /// Maximum instructions to execute in this call.
    pub max_steps: u64,
    /// Watched locations.
    pub watches: Vec<Watch>,
    /// Locations whose accesses become scheduler *preemption points*
    /// instead of stopping execution (paper §6: a detected racing access is
    /// considered a possible preemption point). Used during post-race
    /// schedule diversification.
    pub preempt_watches: Vec<Watch>,
    /// Threads excluded from scheduling (used to enforce the alternate
    /// ordering of racing accesses, paper §3.2).
    pub suspended: BTreeSet<ThreadId>,
    /// Record scheduler decisions into `machine.sched_log`.
    pub record_schedule: bool,
}

impl Default for DriveCfg {
    fn default() -> Self {
        DriveCfg {
            max_steps: 1_000_000,
            watches: Vec::new(),
            preempt_watches: Vec::new(),
            suspended: BTreeSet::new(),
            record_schedule: false,
        }
    }
}

impl DriveCfg {
    /// A config with only a step budget.
    pub fn with_budget(max_steps: u64) -> Self {
        DriveCfg {
            max_steps,
            ..Default::default()
        }
    }
}

/// Why [`drive`] returned.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveStop {
    /// Every thread exited.
    Completed,
    /// Execution crashed or deadlocked.
    Error(VmError),
    /// The step budget was exhausted (the classifier's "timeout").
    StepLimit,
    /// No thread is schedulable, but only because of suspensions — not a
    /// true deadlock. The classifier's alternate-enforcement probes this.
    Stuck,
    /// A watched access is pending (not yet executed).
    WatchHit(WatchHit),
    /// A branch on a symbolic condition needs the caller to fork
    /// (resolve with [`Machine::apply_branch`]).
    SymBranch {
        /// The symbolic condition.
        cond: Expr,
        /// Target when non-zero.
        then_b: BlockId,
        /// Target when zero.
        else_b: BlockId,
    },
    /// A symbolic assertion needs the caller to fork
    /// (resolve with [`Machine::apply_assert`]).
    SymAssert {
        /// The symbolic condition.
        cond: Expr,
        /// The assertion message.
        msg: String,
    },
}

/// The current thread's pending memory access as
/// `(alloc, resolved offset, is_write)`; `None` when `inst` accesses no
/// memory or its index is symbolic.
fn pending_access(m: &Machine, inst: &Inst) -> Option<(AllocId, i64, bool)> {
    let (alloc, index, is_write) = inst.memory_access()?;
    let offset = m.eval(index).as_concrete()?;
    Some((alloc, offset, is_write))
}

/// Whether any of `watches` covers `tid`'s pending `access`.
fn watch_match(watches: &[Watch], tid: ThreadId, access: (AllocId, i64, bool)) -> bool {
    let (alloc, offset, is_write) = access;
    watches
        .iter()
        .any(|w| w.matches(tid, alloc, offset, is_write))
}

/// Fills `schedulable` (runnable and not suspended) and `alive`
/// (runnable), both ascending, for a scheduler consultation.
fn runnable_into(
    m: &Machine,
    suspended: &BTreeSet<ThreadId>,
    schedulable: &mut Vec<ThreadId>,
    alive: &mut Vec<ThreadId>,
) {
    schedulable.clear();
    alive.clear();
    for t in m.threads.iter().filter(|t| t.is_runnable()) {
        alive.push(t.id);
        if !suspended.contains(&t.id) {
            schedulable.push(t.id);
        }
    }
}

/// Scheduler consultations one [`drive`] call makes before it starts
/// looking for an exactly repeating cycle. Runs shorter than this never
/// pay for the probe; a spin that outlasts it is found a few
/// consultations later.
const CYCLE_PROBE_AFTER: u64 = 64;

/// Brent's first search window, in consultations: cycles up to this long
/// are found on the first window after the probe arms, and each window
/// doubles. Starting above 1 re-takes the snapshot fewer times in runs
/// that never repeat, where every re-take copies all register files.
const FIRST_WINDOW: u64 = 16;

/// The cycle probe of one [`drive`] call: Brent's cycle detection over
/// its scheduler consultations.
enum Probe {
    /// Fewer than [`CYCLE_PROBE_AFTER`] consultations so far.
    Idle,
    /// Comparing each consultation against a snapshot.
    Armed(Box<Snapshot>),
    /// The monitor declined, or the cycle was found and skipped.
    Done,
}

/// The execution state at one scheduler consultation that decides
/// everything after it, minus memory and the step counters. Memory is
/// not compared: a cycle counts only when no `Store` or `Free` executed
/// since the snapshot, so memory is untouched and skipping the cycle's
/// repetitions could make no copy-on-write copy.
struct Snapshot {
    /// Consultations since the snapshot (Brent's λ).
    lam: u64,
    /// The snapshot moves to the current consultation, and this doubles,
    /// when `lam` reaches it.
    power: u64,
    cur: ThreadId,
    /// Frames, registers, `state` and `phase` are compared; `steps` is
    /// the per-thread counter the skip advances.
    threads: Vec<Thread>,
    sync: SyncState,
    sched: Scheduler,
    consumed: usize,
    outputs: usize,
    vars: usize,
    path: usize,
    sym_branches: u64,
    /// Budget counter (step attempts), `Machine::steps`,
    /// `Machine::preemptions` and schedule-log length at the snapshot:
    /// the bases of one cycle's deltas.
    attempts: u64,
    steps: u64,
    preemptions: u64,
    decisions: usize,
}

impl Snapshot {
    fn new(m: &Machine, sched: &Scheduler, attempts: u64) -> Self {
        let mut s = Snapshot {
            lam: 0,
            power: FIRST_WINDOW,
            cur: m.cur,
            threads: Vec::new(),
            sync: SyncState::default(),
            sched: Scheduler::default(),
            consumed: 0,
            outputs: 0,
            vars: 0,
            path: 0,
            sym_branches: 0,
            attempts: 0,
            steps: 0,
            preemptions: 0,
            decisions: 0,
        };
        s.take(m, sched, attempts);
        s
    }

    /// Moves the snapshot to the current consultation, reusing its
    /// buffers.
    fn take(&mut self, m: &Machine, sched: &Scheduler, attempts: u64) {
        self.lam = 0;
        self.cur = m.cur;
        self.threads.clone_from(&m.threads);
        self.sync.clone_from(&m.sync);
        self.sched.clone_from(sched);
        self.consumed = m.inputs.consumed();
        self.outputs = m.output.len();
        self.vars = m.vars.len();
        self.path = m.path.len();
        self.sym_branches = m.sym_branches;
        self.attempts = attempts;
        self.steps = m.steps;
        self.preemptions = m.preemptions;
        self.decisions = m.sched_log.len();
    }

    /// Whether the current consultation's state equals the snapshot's,
    /// cheapest and most often differing checks first (the current
    /// thread before the others). Memory is covered by the caller's
    /// no-write condition.
    fn repeats(&self, m: &Machine, sched: &Scheduler) -> bool {
        let same = |a: &Thread, b: &Thread| {
            a.state == b.state && a.phase == b.phase && a.frames == b.frames
        };
        let cur = m.cur.0 as usize;
        m.cur == self.cur
            && m.threads.len() == self.threads.len()
            && same(&m.threads[cur], &self.threads[cur])
            && m.inputs.consumed() == self.consumed
            && m.output.len() == self.outputs
            && m.vars.len() == self.vars
            && m.path.len() == self.path
            && m.sym_branches == self.sym_branches
            && m.threads.iter().zip(&self.threads).all(|(a, b)| same(a, b))
            && m.sync == self.sync
            && sched.same_state(&self.sched)
    }

    /// Applies k = ⌊remaining budget ÷ A⌋ − 1 repetitions of the cycle
    /// that just closed (A step attempts long) arithmetically, when the
    /// monitor consents. The last one or two cycles are left to the
    /// interpreter, which stops at the budget exactly where it would
    /// have stopped without the skip.
    fn skip(&self, m: &mut Machine, mon: &mut dyn Monitor, cfg: &DriveCfg, attempts: &mut u64) {
        let cycle_attempts = *attempts - self.attempts;
        let k = ((cfg.max_steps - *attempts) / cycle_attempts).saturating_sub(1);
        let cycle_steps = m.steps - self.steps;
        if k == 0 || !mon.fast_forward(k * cycle_steps) {
            return;
        }
        *attempts += k * cycle_attempts;
        m.steps += k * cycle_steps;
        for (t, then) in m.threads.iter_mut().zip(&self.threads) {
            t.steps += k * (t.steps - then.steps);
        }
        m.preemptions += k * (m.preemptions - self.preemptions);
        if cfg.record_schedule {
            let len = m.sched_log.len() - self.decisions;
            m.sched_log.repeat_tail(len, k as usize);
        }
    }
}

impl Probe {
    /// One scheduler consultation, before the pick. `wrote` records a
    /// `Store` or `Free` since the snapshot; the probe clears it
    /// whenever the snapshot moves.
    fn consult(
        &mut self,
        m: &mut Machine,
        sched: &Scheduler,
        mon: &mut dyn Monitor,
        cfg: &DriveCfg,
        attempts: &mut u64,
        wrote: &mut bool,
    ) {
        match self {
            Probe::Idle => {
                *self = if mon.fast_forward(0) {
                    *wrote = false;
                    Probe::Armed(Box::new(Snapshot::new(m, sched, *attempts)))
                } else {
                    Probe::Done
                };
            }
            Probe::Armed(snap) => {
                snap.lam += 1;
                if !*wrote && snap.repeats(m, sched) {
                    snap.skip(m, mon, cfg, attempts);
                    *self = Probe::Done;
                } else if snap.lam == snap.power {
                    snap.power *= 2;
                    snap.take(m, sched, *attempts);
                    *wrote = false;
                }
            }
            Probe::Done => {}
        }
    }
}

/// Runs the machine until one of the [`DriveStop`] conditions.
///
/// The scheduling contract: the scheduler is consulted when (a) execution
/// starts or the current thread blocked/exited, or (b) the current thread
/// is about to execute a preemption-point instruction. Watch hits return
/// to the caller *without* consulting the scheduler, so recorded schedule
/// traces stay aligned between runs with and without watchpoints.
///
/// One step allocates nothing and updates no refcount: the program is
/// borrowed through one `Arc` clone per call, and the thread lists the
/// scheduler reads are filled into buffers owned by the call, only when
/// it is consulted.
///
/// Exact write-free cycles are fast-forwarded when `mon` consents
/// ([`Monitor::fast_forward`]): once a call has consulted the scheduler
/// a fixed number of times (64), it compares the state at each further
/// consultation with a snapshot (Brent's algorithm). Once the state
/// repeats with no memory write in between, execution is periodic until
/// the budget runs out, so all but the last one or two repetitions are
/// applied to the counters and the schedule log arithmetically. The call
/// then returns [`DriveStop::StepLimit`] in the state full interpretation
/// reaches. A loop with no preemption point never consults the
/// scheduler, so it is always interpreted.
pub fn drive(
    m: &mut Machine,
    sched: &mut Scheduler,
    mon: &mut dyn Monitor,
    cfg: &DriveCfg,
) -> DriveStop {
    let program = Arc::clone(&m.program);
    let watching = !cfg.watches.is_empty() || !cfg.preempt_watches.is_empty();
    let mut schedulable = Vec::new();
    let mut alive = Vec::new();
    let mut local_steps: u64 = 0;
    let mut just_picked = false;
    let mut consults: u64 = 0;
    let mut probe = Probe::Idle;
    let mut wrote = false;
    loop {
        let tid = m.cur;
        let cur_ok = m.thread(tid).is_runnable() && !cfg.suspended.contains(&tid);
        let (mut at_preempt, mut access, mut writes) = (false, None, false);
        if cur_ok {
            if let Some(inst) = m.peek_inst() {
                at_preempt = inst.is_preemption_point();
                writes = matches!(inst, Inst::Store { .. } | Inst::Free { .. });
                if watching {
                    access = pending_access(m, inst);
                }
            }
            at_preempt =
                at_preempt || access.is_some_and(|a| watch_match(&cfg.preempt_watches, tid, a));
        }
        if !cur_ok || (at_preempt && !just_picked) {
            if !cur_ok && m.all_finished() {
                return DriveStop::Completed;
            }
            runnable_into(m, &cfg.suspended, &mut schedulable, &mut alive);
            if schedulable.is_empty() {
                let any_suspended_alive = cfg.suspended.iter().any(|t| !m.thread(*t).is_finished());
                if any_suspended_alive {
                    return DriveStop::Stuck;
                }
                return DriveStop::Error(VmError::Deadlock(m.deadlock_info()));
            }
            consults += 1;
            if consults >= CYCLE_PROBE_AFTER {
                probe.consult(m, sched, mon, cfg, &mut local_steps, &mut wrote);
            }
            let reason = if cur_ok {
                PickReason::Preemption
            } else {
                PickReason::Blocked
            };
            let t = sched.pick(&schedulable, &alive, tid, reason);
            m.preemptions += 1;
            if cfg.record_schedule {
                m.sched_log.push(t);
            }
            m.cur = t;
            just_picked = true;
            continue;
        }

        if let Some(a @ (alloc, offset, is_write)) = access {
            if watch_match(&cfg.watches, tid, a) {
                let pc = m.thread(tid).pc().expect("runnable thread has a pc");
                return DriveStop::WatchHit(WatchHit {
                    tid,
                    pc,
                    alloc,
                    offset,
                    is_write,
                });
            }
        }

        if local_steps >= cfg.max_steps {
            return DriveStop::StepLimit;
        }
        local_steps += 1;
        just_picked = false;
        wrote |= writes;

        match m.step_in(&program, mon) {
            StepEvent::Ran | StepEvent::Blocked | StepEvent::Exited => {}
            StepEvent::SymBranch {
                cond,
                then_b,
                else_b,
            } => {
                return DriveStop::SymBranch {
                    cond,
                    then_b,
                    else_b,
                }
            }
            StepEvent::SymAssert { cond, msg } => return DriveStop::SymAssert { cond, msg },
            StepEvent::Err(e) => return DriveStop::Error(e),
        }
    }
}

/// Convenience: run a fresh machine to completion under a scheduler,
/// with a step budget. Returns the final stop.
pub fn run_to_completion(
    m: &mut Machine,
    sched: &mut Scheduler,
    mon: &mut dyn Monitor,
    max_steps: u64,
) -> DriveStop {
    drive(m, sched, mon, &DriveCfg::with_budget(max_steps))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::config::VmConfig;
    use crate::inst::Operand;
    use crate::io::{InputMode, InputSource, InputSpec};
    use crate::monitor::{NullMonitor, RecordingMonitor};
    use std::sync::Arc;

    fn boot(p: crate::program::Program, inputs: Vec<i64>) -> Machine {
        Machine::new(
            Arc::new(p),
            InputSource::new(InputSpec::concrete(inputs), InputMode::Concrete),
            VmConfig::default(),
        )
    }

    /// Two threads racing on a counter; main joins both.
    fn racy_counter_program() -> crate::program::Program {
        let mut pb = ProgramBuilder::new("racy", "racy.c");
        let g = pb.global("counter", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.racy_inc(g, Operand::Imm(0));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        pb.build(main).unwrap()
    }

    #[test]
    fn cooperative_run_completes() {
        let mut m = boot(racy_counter_program(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
        assert_eq!(stop, DriveStop::Completed);
        assert_eq!(m.output.concrete_values(), Some(vec![2]));
    }

    #[test]
    fn deadlock_detected() {
        let mut pb = ProgramBuilder::new("dl", "dl.c");
        let a = pb.mutex("A");
        let b = pb.mutex("B");
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.lock(b);
            f.yield_();
            f.lock(a);
            f.unlock(a);
            f.unlock(b);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.lock(a);
            f.yield_();
            f.lock(b);
            f.unlock(b);
            f.unlock(a);
            f.join(t);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        // Round-robin interleaves the two lock acquisitions.
        let mut s = Scheduler::RoundRobin;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
        match stop {
            DriveStop::Error(VmError::Deadlock(info)) => {
                assert_eq!(info.edges.len(), 2);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn watchpoint_stops_before_access() {
        let mut pb = ProgramBuilder::new("w", "w.c");
        let g = pb.global("g", 5);
        let main = pb.func("main", |f| {
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let cfg = DriveCfg {
            watches: vec![Watch::cell(crate::program::AllocId(0), 0)],
            ..Default::default()
        };
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        match stop {
            DriveStop::WatchHit(hit) => {
                assert!(!hit.is_write);
                assert_eq!(hit.offset, 0);
                // The access has not executed: no output yet.
                assert!(m.output.is_empty());
            }
            other => panic!("expected watch hit, got {other:?}"),
        }
        // Step over the access, then the program completes.
        let ev = m.step(&mut mon);
        assert_eq!(ev, StepEvent::Ran);
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        assert_eq!(stop, DriveStop::Completed);
        assert_eq!(m.output.concrete_values(), Some(vec![5]));
    }

    #[test]
    fn suspension_makes_execution_stuck_not_deadlocked() {
        let mut m = boot(racy_counter_program(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let mut cfg = DriveCfg::default();
        // Suspend the main thread immediately: nothing else exists yet.
        cfg.suspended.insert(ThreadId(0));
        let stop = drive(&mut m, &mut s, &mut mon, &cfg);
        assert_eq!(stop, DriveStop::Stuck);
    }

    #[test]
    fn schedule_recording_and_exact_replay() {
        let mut m1 = boot(racy_counter_program(), vec![]);
        let mut s1 = Scheduler::random(7);
        let mut mon1 = RecordingMonitor::default();
        let cfg = DriveCfg {
            record_schedule: true,
            ..Default::default()
        };
        let stop = drive(&mut m1, &mut s1, &mut mon1, &cfg);
        assert_eq!(stop, DriveStop::Completed);
        let trace = m1.sched_log.to_vec();
        assert!(!trace.is_empty());

        // Replaying the recorded decisions reproduces the exact access
        // interleaving.
        let mut m2 = boot(racy_counter_program(), vec![]);
        let mut s2 = Scheduler::follow(trace);
        let mut mon2 = RecordingMonitor::default();
        let stop = drive(&mut m2, &mut s2, &mut mon2, &DriveCfg::default());
        assert_eq!(stop, DriveStop::Completed);
        assert!(!s2.diverged());
        let seq1: Vec<_> = mon1
            .accesses
            .iter()
            .map(|a| (a.tid, a.pc, a.is_write))
            .collect();
        let seq2: Vec<_> = mon2
            .accesses
            .iter()
            .map(|a| (a.tid, a.pc, a.is_write))
            .collect();
        assert_eq!(seq1, seq2);
        assert_eq!(m1.output, m2.output);
    }

    #[test]
    fn step_limit_on_spin_loop() {
        let mut pb = ProgramBuilder::new("spin", "spin.c");
        let g = pb.global("flag", 0);
        let main = pb.func("main", |f| {
            f.spin_while_eq(g, Operand::Imm(0), 0);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut s = Scheduler::Cooperative;
        let mut mon = NullMonitor;
        let stop = run_to_completion(&mut m, &mut s, &mut mon, 1000);
        assert_eq!(stop, DriveStop::StepLimit);
    }

    #[test]
    fn condvar_handoff() {
        let mut pb = ProgramBuilder::new("cv", "cv.c");
        let g = pb.global("ready", 0);
        let mu = pb.mutex("m");
        let cv = pb.condvar("c");
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.lock(mu);
            f.store(g, Operand::Imm(0), Operand::Imm(1));
            f.cond_signal(cv);
            f.unlock(mu);
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t = f.spawn(worker, Operand::Imm(0));
            f.lock(mu);
            f.while_loop(
                |f| {
                    let v = f.load(g, Operand::Imm(0));
                    f.cmp(portend_symex::CmpOp::Eq, v, Operand::Imm(0))
                },
                |f| {
                    f.cond_wait(cv, mu);
                },
            );
            f.unlock(mu);
            f.join(t);
            f.output(1, Operand::Imm(99));
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let mut m = boot(p.clone(), vec![]);
            let mut s = Scheduler::random(seed);
            let mut mon = NullMonitor;
            let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
            assert_eq!(stop, DriveStop::Completed, "seed {seed}");
            assert_eq!(m.output.concrete_values(), Some(vec![99]));
        }
    }

    #[test]
    fn barrier_releases_full_party() {
        let mut pb = ProgramBuilder::new("bar", "bar.c");
        let bar = pb.barrier("b", 3);
        let g = pb.global("done", 0);
        let worker = pb.func("worker", |f| {
            let _ = f.param();
            f.barrier_wait(bar);
            f.racy_inc(g, Operand::Imm(0));
            f.ret(None);
        });
        let main = pb.func("main", |f| {
            let t1 = f.spawn(worker, Operand::Imm(0));
            let t2 = f.spawn(worker, Operand::Imm(1));
            f.barrier_wait(bar);
            f.join(t1);
            f.join(t2);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        for seed in 0..8 {
            let mut m = boot(p.clone(), vec![]);
            let mut s = Scheduler::random(seed);
            let mut mon = NullMonitor;
            let stop = run_to_completion(&mut m, &mut s, &mut mon, 100_000);
            assert_eq!(stop, DriveStop::Completed, "seed {seed}");
            assert_eq!(m.output.concrete_values(), Some(vec![2]));
        }
    }
}
