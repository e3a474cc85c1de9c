//! The machine: one execution state plus the instruction interpreter.
//!
//! A [`Machine`] is the complete state of one execution — memory, threads,
//! synchronization objects, inputs, outputs, symbolic variables and path
//! condition. It is `Clone`: a checkpoint (paper §3.2 "pre-race
//! checkpoint") is simply a clone, and the multi-path explorer forks states
//! by cloning at symbolic branches (paper §3.3).
//!
//! The machine executes a single instruction at a time
//! ([`Machine::step`]); scheduling, watchpoints and budgets live in
//! [`crate::exec`].

use std::sync::Arc;

use portend_symex::{BinOp, Expr, VarTable};

use crate::config::{VmConfig, MAX_CALL_DEPTH};
use crate::error::{DeadlockInfo, VmError};
use crate::inst::{Inst, Operand};
use crate::io::InputSource;
use crate::mem::{Fnv, MemFault, Memory};
use crate::monitor::{
    AccessEvent, Monitor, SyncEvent, SyncEventKind, ThreadEvent, ThreadEventKind,
};
use crate::output::{OutputLog, OutputRec};
use crate::program::{AllocId, BlockId, Pc, Program, SyncId};
use crate::sched::SchedLog;
use crate::sync::SyncState;
use crate::thread::{Frame, ResumePhase, Thread, ThreadId, ThreadState};
use crate::value::Val;

/// Cost accounting for one [`Machine::fork`]: what the copy-on-write
/// snapshot copied eagerly and what it shared structurally. A non-CoW
/// (deep) fork would copy `bytes_copied + bytes_shared` up front.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ForkCost {
    /// Bytes the snapshot copied eagerly (thread stacks, path condition,
    /// symbolic-variable table — estimated from element sizes).
    pub bytes_copied: u64,
    /// Heap and log bytes shared structurally instead of copied (the
    /// memory allocations and the append-only output/schedule logs).
    pub bytes_shared: u64,
}

/// What happened when the machine executed (or tried to execute) one
/// instruction of the current thread.
#[derive(Debug, Clone, PartialEq)]
pub enum StepEvent {
    /// An instruction executed; the thread remains runnable.
    Ran,
    /// The current thread blocked (no instruction was consumed).
    Blocked,
    /// The current thread executed its final `Ret` and exited.
    Exited,
    /// A branch condition is symbolic: the caller must fork. The machine
    /// state is unchanged; apply a side with [`Machine::apply_branch`].
    SymBranch {
        /// The (symbolic) condition.
        cond: Expr,
        /// Target when the condition is non-zero.
        then_b: BlockId,
        /// Target when the condition is zero.
        else_b: BlockId,
    },
    /// An assertion condition is symbolic: the caller must fork. Resolve
    /// with [`Machine::apply_assert`].
    SymAssert {
        /// The (symbolic) asserted condition.
        cond: Expr,
        /// The assertion message.
        msg: String,
    },
    /// Execution crashed.
    Err(VmError),
}

/// One complete execution state.
#[derive(Debug, Clone)]
pub struct Machine {
    /// The executed program (shared, immutable).
    pub program: Arc<Program>,
    /// Memory.
    pub mem: Memory,
    /// All threads ever spawned (never removed; `ThreadId` indexes here).
    pub threads: Vec<Thread>,
    /// Synchronization object state.
    pub sync: SyncState,
    /// The thread currently scheduled.
    pub cur: ThreadId,
    /// Program input source.
    pub inputs: InputSource,
    /// Program output log.
    pub output: OutputLog,
    /// Symbolic variables created by this state.
    pub vars: VarTable,
    /// The path condition: conjunction of branch constraints accumulated
    /// along this state's path (paper §3.3).
    pub path: Vec<Expr>,
    /// Total instructions executed.
    pub steps: u64,
    /// Scheduler consultations performed (Fig. 9's "preemption points").
    pub preemptions: u64,
    /// Schedule decisions recorded by the executor when recording is on.
    pub sched_log: SchedLog,
    /// Number of symbolic branch forks this state went through
    /// (Fig. 9's "dependent branches").
    pub sym_branches: u64,
    cfg: VmConfig,
}

impl Machine {
    /// Boots a machine: thread `T0` starts at the program entry with
    /// argument `0`.
    pub fn new(program: Arc<Program>, inputs: InputSource, cfg: VmConfig) -> Self {
        let mem = Memory::from_specs(&program.allocs);
        let sync = SyncState::from_program(
            program.mutexes.len(),
            program.conds.len(),
            &program.barriers,
        );
        let main = Thread::new(
            ThreadId(0),
            Frame::new(&program, program.entry, &[Val::C(0)], None),
        );
        Machine {
            program,
            mem,
            threads: vec![main],
            sync,
            cur: ThreadId(0),
            inputs,
            output: OutputLog::new(),
            vars: VarTable::new(),
            path: Vec::new(),
            steps: 0,
            preemptions: 0,
            sched_log: SchedLog::new(),
            sym_branches: 0,
            cfg,
        }
    }

    /// A copy-on-write checkpoint of this state (paper §3.2 "pre-race
    /// checkpoint"). Equivalent to `clone()`: heap allocations and the
    /// append-only logs are shared structurally and copied lazily on
    /// first write, so the checkpoint itself costs O(threads), not
    /// O(heap).
    pub fn snapshot(&self) -> Machine {
        self.clone()
    }

    /// Forks this state (the multi-path explorer's operation at a
    /// symbolic branch, paper §3.3), reporting what the copy-on-write
    /// snapshot copied versus shared.
    pub fn fork(&self) -> (Machine, ForkCost) {
        let cost = ForkCost {
            bytes_copied: self.eager_fork_bytes(),
            bytes_shared: self.shared_fork_bytes(),
        };
        portend_obs::instant(
            portend_obs::EventKind::Fork,
            cost.bytes_copied,
            cost.bytes_shared,
        );
        (self.clone(), cost)
    }

    /// An eagerly deep-copied clone: memory and logs are copied now
    /// instead of on first write. Behaviorally identical to `clone()`
    /// (pinned by the workspace `cow_fork_equals_deep_clone` property
    /// suite); used as the non-CoW reference in tests.
    pub fn deep_clone(&self) -> Machine {
        let mut m = self.clone();
        m.mem = self.mem.deep_clone();
        m.output = self.output.deep_clone();
        m.sched_log = self.sched_log.deep_clone();
        m
    }

    /// Approximate bytes `clone` copies eagerly at a fork: thread
    /// stacks (frames and register files), the path condition, and the
    /// symbolic-variable table. Heap and log storage is shared instead
    /// (see [`Machine::shared_fork_bytes`]).
    pub fn eager_fork_bytes(&self) -> u64 {
        let mut bytes = std::mem::size_of::<Machine>() as u64;
        for t in &self.threads {
            bytes += std::mem::size_of::<Thread>() as u64;
            for f in &t.frames {
                bytes += (std::mem::size_of::<Frame>() + f.regs.len() * std::mem::size_of::<Val>())
                    as u64;
            }
        }
        bytes += (self.path.len() * std::mem::size_of::<Expr>()) as u64;
        bytes += (self.vars.len() * std::mem::size_of::<(u64, u64, u64)>()) as u64;
        bytes
    }

    /// Bytes a fork shares structurally instead of copying: the memory
    /// allocations plus the output and schedule logs. A deep clone
    /// copies all of them up front.
    pub fn shared_fork_bytes(&self) -> u64 {
        self.mem.heap_bytes() + self.output.heap_bytes() + self.sched_log.heap_bytes()
    }

    /// Bytes this state lazily copied on-write since construction
    /// (monotone, summed over memory and both logs; carried by value
    /// across clones, so `cow_bytes() - base` is one execution segment's
    /// deferred fork cost).
    pub fn cow_bytes(&self) -> u64 {
        self.mem.cow_bytes() + self.output.cow_bytes() + self.sched_log.cow_bytes()
    }

    /// The machine configuration.
    pub fn config(&self) -> VmConfig {
        self.cfg
    }

    /// A thread by id.
    ///
    /// # Panics
    ///
    /// Panics when `tid` is out of range.
    pub fn thread(&self, tid: ThreadId) -> &Thread {
        &self.threads[tid.0 as usize]
    }

    fn thread_mut(&mut self, tid: ThreadId) -> &mut Thread {
        &mut self.threads[tid.0 as usize]
    }

    /// Whether every thread has exited.
    pub fn all_finished(&self) -> bool {
        self.threads.iter().all(Thread::is_finished)
    }

    /// The instruction the current thread would execute next.
    pub fn peek_inst(&self) -> Option<&Inst> {
        let pc = self.thread(self.cur).pc()?;
        self.program.inst_at(pc)
    }

    /// Evaluates an operand in the current thread's frame.
    pub fn eval(&self, op: Operand) -> Val {
        match op {
            Operand::Imm(v) => Val::C(v),
            Operand::Reg(r) => self.thread(self.cur).frame().regs[r as usize].clone(),
        }
    }

    fn set_reg(&mut self, r: u32, v: Val) {
        let tid = self.cur;
        self.thread_mut(tid).frame_mut().regs[r as usize] = v;
    }

    fn advance(&mut self) {
        let tid = self.cur;
        self.thread_mut(tid).frame_mut().idx += 1;
    }

    fn jump_to(&mut self, b: BlockId) {
        let tid = self.cur;
        let f = self.thread_mut(tid).frame_mut();
        f.block = b;
        f.idx = 0;
    }

    fn count_step(&mut self) {
        self.steps += 1;
        let tid = self.cur;
        self.thread_mut(tid).steps += 1;
    }

    /// Builds deadlock evidence from the blocked threads.
    pub fn deadlock_info(&self) -> DeadlockInfo {
        let mut edges = Vec::new();
        for t in &self.threads {
            if t.is_finished() || t.is_runnable() {
                continue;
            }
            let resource = t.state.resource().unwrap_or_else(|| "unknown".into());
            let holder = match t.state {
                ThreadState::BlockedMutex(m) => self.sync.mutex_owner(m),
                ThreadState::BlockedJoin(j) => (!self.thread(j).is_finished()).then_some(j),
                _ => None,
            };
            edges.push((t.id, resource, holder));
        }
        DeadlockInfo { edges }
    }

    /// A fingerprint of memory plus every thread's registers and pc: the
    /// whole-state reference the copy-on-write fork tests compare. (The
    /// Record/Replay-Analyzer baseline compares memory alone,
    /// [`Memory::fingerprint`], since register files trivially differ
    /// across interleavings.)
    pub fn state_fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_u64(self.mem.fingerprint());
        for t in &self.threads {
            h.write_u64(t.id.0 as u64);
            h.write_u64(match t.state {
                ThreadState::Runnable => 0,
                ThreadState::BlockedMutex(_) => 1,
                ThreadState::BlockedCond(_) => 2,
                ThreadState::BlockedJoin(_) => 3,
                ThreadState::BlockedBarrier(_) => 4,
                ThreadState::Finished => 5,
            });
            for f in &t.frames {
                h.write_str(&f.pc().to_string());
                for r in &f.regs {
                    match r.as_concrete() {
                        Some(v) => h.write_u64(v as u64),
                        None => h.write_str(&r.to_string()),
                    }
                }
            }
        }
        h.finish()
    }

    /// Applies one side of a [`StepEvent::SymBranch`]: records the branch
    /// constraint and jumps to `target`.
    pub fn apply_branch(&mut self, target: BlockId, constraint: Expr) {
        self.path.push(constraint);
        self.sym_branches += 1;
        self.count_step();
        self.jump_to(target);
    }

    /// Resolves a [`StepEvent::SymAssert`]. With `pass == true` the
    /// constraint is recorded and execution continues; with `pass == false`
    /// the negated constraint is recorded and the failure error is
    /// returned (the caller marks this fork crashed).
    pub fn apply_assert(&mut self, pass: bool, cond: Expr, msg: &str) -> Option<VmError> {
        let tid = self.cur;
        let pc = self.thread(tid).pc().expect("asserting thread is live");
        self.sym_branches += 1;
        if pass {
            self.path.push(cond.truthy());
            self.count_step();
            self.advance();
            None
        } else {
            self.path.push(cond.not());
            Some(VmError::AssertFailed {
                tid,
                pc,
                msg: msg.to_string(),
            })
        }
    }

    /// Executes one instruction of the current thread.
    ///
    /// The current thread must be runnable. Returns [`StepEvent::Blocked`]
    /// without consuming an instruction when the thread blocks on a
    /// synchronization operation.
    pub fn step(&mut self, mon: &mut dyn Monitor) -> StepEvent {
        let program = Arc::clone(&self.program);
        self.step_in(&program, mon)
    }

    /// [`Machine::step`] with the program borrowed from outside the
    /// machine, so the interpreter loop pays no refcount update and no
    /// instruction clone per step. `program` must be `self.program`.
    pub(crate) fn step_in(&mut self, program: &Program, mon: &mut dyn Monitor) -> StepEvent {
        debug_assert!(
            std::ptr::eq(program, Arc::as_ptr(&self.program)),
            "stepping against a foreign program"
        );
        let tid = self.cur;
        debug_assert!(
            self.thread(tid).is_runnable(),
            "stepping a non-runnable thread"
        );
        let pc = match self.thread(tid).pc() {
            Some(pc) => pc,
            None => return StepEvent::Err(self.misuse(pc_unknown(), "stepping finished thread")),
        };
        let inst = match program.inst_at(pc) {
            Some(i) => i,
            None => return StepEvent::Err(self.misuse(pc, "pc out of range")),
        };

        // Pending resume obligations replace normal instruction dispatch.
        match self.thread(tid).phase {
            ResumePhase::CondReacquire(m) => return self.reacquire(tid, pc, m, mon),
            ResumePhase::BarrierDone => {
                self.thread_mut(tid).phase = ResumePhase::None;
                self.count_step();
                self.advance();
                return StepEvent::Ran;
            }
            ResumePhase::None => {}
        }

        match *inst {
            Inst::Const { dst, value } => {
                self.count_step();
                self.set_reg(dst, Val::C(value));
                self.advance();
                StepEvent::Ran
            }
            Inst::Copy { dst, src } => {
                self.count_step();
                let v = self.eval(src);
                self.set_reg(dst, v);
                self.advance();
                StepEvent::Ran
            }
            Inst::Not { dst, src } => {
                self.count_step();
                let v = match self.eval(src) {
                    Val::C(v) => Val::C((v == 0) as i64),
                    Val::S(e) => Val::from(e.not()),
                };
                self.set_reg(dst, v);
                self.advance();
                StepEvent::Ran
            }
            Inst::Bin { op, dst, lhs, rhs } => {
                let (a, b) = (self.eval(lhs), self.eval(rhs));
                let v = match (a.as_concrete(), b.as_concrete()) {
                    (Some(x), Some(y)) => {
                        if self.cfg.detect_overflow {
                            match op.apply_checked(x, y) {
                                Some((v, false)) => Val::C(v),
                                Some((_, true)) => {
                                    return StepEvent::Err(VmError::Overflow { tid, pc })
                                }
                                None => return StepEvent::Err(VmError::DivisionByZero { tid, pc }),
                            }
                        } else {
                            match op.apply(x, y) {
                                Some(v) => Val::C(v),
                                None => return StepEvent::Err(VmError::DivisionByZero { tid, pc }),
                            }
                        }
                    }
                    _ => {
                        if matches!(op, BinOp::Div | BinOp::Rem) {
                            match b.as_concrete() {
                                Some(0) => {
                                    return StepEvent::Err(VmError::DivisionByZero { tid, pc })
                                }
                                Some(_) => {}
                                None => {
                                    return StepEvent::Err(VmError::SymbolicValue {
                                        tid,
                                        pc,
                                        what: "divisor".into(),
                                    })
                                }
                            }
                        }
                        Val::from(Expr::bin(op, a.to_expr(), b.to_expr()))
                    }
                };
                self.count_step();
                self.set_reg(dst, v);
                self.advance();
                StepEvent::Ran
            }
            Inst::Cmp { op, dst, lhs, rhs } => {
                self.count_step();
                let (a, b) = (self.eval(lhs), self.eval(rhs));
                let v = match (a.as_concrete(), b.as_concrete()) {
                    (Some(x), Some(y)) => Val::C(op.apply(x, y)),
                    _ => Val::from(a.to_expr().cmp(op, b.to_expr())),
                };
                self.set_reg(dst, v);
                self.advance();
                StepEvent::Ran
            }
            Inst::Load { dst, base, index } => {
                let idx = match self.eval(index).as_concrete() {
                    Some(i) => i,
                    None => {
                        return StepEvent::Err(VmError::SymbolicValue {
                            tid,
                            pc,
                            what: "address index".into(),
                        })
                    }
                };
                match self.mem.load(base, idx) {
                    Ok(v) => {
                        self.count_step();
                        self.set_reg(dst, v);
                        mon.on_access(&self.access_event(tid, pc, base, idx, false));
                        self.advance();
                        StepEvent::Ran
                    }
                    Err(f) => StepEvent::Err(self.mem_fault(tid, pc, base, idx, f)),
                }
            }
            Inst::Store { base, index, src } => {
                let idx = match self.eval(index).as_concrete() {
                    Some(i) => i,
                    None => {
                        return StepEvent::Err(VmError::SymbolicValue {
                            tid,
                            pc,
                            what: "address index".into(),
                        })
                    }
                };
                let v = self.eval(src);
                match self.mem.store(base, idx, v) {
                    Ok(()) => {
                        self.count_step();
                        mon.on_access(&self.access_event(tid, pc, base, idx, true));
                        self.advance();
                        StepEvent::Ran
                    }
                    Err(f) => StepEvent::Err(self.mem_fault(tid, pc, base, idx, f)),
                }
            }
            Inst::Jump { target } => {
                self.count_step();
                self.jump_to(target);
                StepEvent::Ran
            }
            Inst::Branch {
                cond,
                then_b,
                else_b,
            } => match self.eval(cond) {
                Val::C(v) => {
                    self.count_step();
                    self.jump_to(if v != 0 { then_b } else { else_b });
                    StepEvent::Ran
                }
                Val::S(e) => match e.as_const() {
                    Some(v) => {
                        self.count_step();
                        self.jump_to(if v != 0 { then_b } else { else_b });
                        StepEvent::Ran
                    }
                    None => StepEvent::SymBranch {
                        cond: e,
                        then_b,
                        else_b,
                    },
                },
            },
            Inst::Call {
                dst,
                func,
                ref args,
            } => {
                if self.thread(tid).frames.len() >= MAX_CALL_DEPTH {
                    return StepEvent::Err(VmError::AssertFailed {
                        tid,
                        pc,
                        msg: "maximum call depth exceeded".into(),
                    });
                }
                self.count_step();
                let mut frame = Frame::new(program, func, &[], dst);
                for (reg, a) in frame.regs.iter_mut().zip(args) {
                    *reg = self.eval(*a);
                }
                self.advance();
                self.thread_mut(tid).frames.push(frame);
                StepEvent::Ran
            }
            Inst::Ret { value } => {
                self.count_step();
                let v = value.map(|op| self.eval(op));
                let frame = self.thread_mut(tid).frames.pop().expect("live thread");
                if self.thread(tid).frames.is_empty() {
                    self.thread_mut(tid).state = ThreadState::Finished;
                    // Wake joiners.
                    for t in &mut self.threads {
                        if t.state == ThreadState::BlockedJoin(tid) {
                            t.state = ThreadState::Runnable;
                        }
                    }
                    mon.on_thread(&ThreadEvent {
                        tid,
                        pc,
                        kind: ThreadEventKind::Exited,
                    });
                    StepEvent::Exited
                } else {
                    if let (Some(r), Some(v)) = (frame.ret_to, v) {
                        self.set_reg(r, v);
                    }
                    StepEvent::Ran
                }
            }
            Inst::Spawn { dst, func, arg } => {
                self.count_step();
                let argv = self.eval(arg);
                let child = ThreadId(self.threads.len() as u32);
                let frame = Frame::new(program, func, &[argv], None);
                self.threads.push(Thread::new(child, frame));
                self.set_reg(dst, Val::C(child.0 as i64));
                mon.on_thread(&ThreadEvent {
                    tid,
                    pc,
                    kind: ThreadEventKind::Spawned { child },
                });
                self.advance();
                StepEvent::Ran
            }
            Inst::Join { tid: target_op } => {
                let target = match self.eval(target_op).as_concrete() {
                    Some(v) if v >= 0 && (v as usize) < self.threads.len() => ThreadId(v as u32),
                    Some(_) => return StepEvent::Err(self.misuse(pc, "join of unknown thread")),
                    None => {
                        return StepEvent::Err(VmError::SymbolicValue {
                            tid,
                            pc,
                            what: "thread id".into(),
                        })
                    }
                };
                if self.thread(target).is_finished() {
                    self.count_step();
                    mon.on_thread(&ThreadEvent {
                        tid,
                        pc,
                        kind: ThreadEventKind::Joined { target },
                    });
                    self.advance();
                    StepEvent::Ran
                } else {
                    self.thread_mut(tid).state = ThreadState::BlockedJoin(target);
                    StepEvent::Blocked
                }
            }
            Inst::MutexLock { mutex } => {
                let mu = &mut self.sync.mutexes[mutex.0 as usize];
                match mu.owner {
                    None => {
                        mu.owner = Some(tid);
                        mu.waiters.retain(|w| *w != tid);
                        self.count_step();
                        mon.on_sync(&SyncEvent {
                            tid,
                            pc,
                            kind: SyncEventKind::MutexAcquired(mutex),
                        });
                        self.advance();
                        StepEvent::Ran
                    }
                    Some(owner) if owner == tid => {
                        StepEvent::Err(self.misuse(pc, "relocking a held (non-recursive) mutex"))
                    }
                    Some(_) => {
                        if !mu.waiters.contains(&tid) {
                            mu.waiters.push(tid);
                        }
                        self.thread_mut(tid).state = ThreadState::BlockedMutex(mutex);
                        StepEvent::Blocked
                    }
                }
            }
            Inst::MutexUnlock { mutex } => {
                let mu = &mut self.sync.mutexes[mutex.0 as usize];
                if mu.owner != Some(tid) {
                    return StepEvent::Err(self.misuse(pc, "unlocking a mutex not held"));
                }
                mu.owner = None;
                let waiters = std::mem::take(&mut mu.waiters);
                for w in waiters {
                    self.threads[w.0 as usize].state = ThreadState::Runnable;
                }
                self.count_step();
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::MutexReleased(mutex),
                });
                self.advance();
                StepEvent::Ran
            }
            Inst::CondWait { cond, mutex } => {
                if self.sync.mutexes[mutex.0 as usize].owner != Some(tid) {
                    return StepEvent::Err(self.misuse(pc, "cond-wait without holding the mutex"));
                }
                // Release the mutex and wake contenders.
                let mu = &mut self.sync.mutexes[mutex.0 as usize];
                mu.owner = None;
                let waiters = std::mem::take(&mut mu.waiters);
                for w in waiters {
                    self.threads[w.0 as usize].state = ThreadState::Runnable;
                }
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::MutexReleased(mutex),
                });
                self.sync.conds[cond.0 as usize].waiters.push(tid);
                self.thread_mut(tid).state = ThreadState::BlockedCond(cond);
                self.thread_mut(tid).phase = ResumePhase::CondReacquire(mutex);
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::CondWaitStart { cond, mutex },
                });
                StepEvent::Blocked
            }
            Inst::CondSignal { cond } => {
                self.count_step();
                let c = &mut self.sync.conds[cond.0 as usize];
                let woken: Vec<ThreadId> = if c.waiters.is_empty() {
                    Vec::new()
                } else {
                    vec![c.waiters.remove(0)]
                };
                for w in &woken {
                    self.threads[w.0 as usize].state = ThreadState::Runnable;
                }
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::CondSignalled { cond, woken },
                });
                self.advance();
                StepEvent::Ran
            }
            Inst::CondBroadcast { cond } => {
                self.count_step();
                let c = &mut self.sync.conds[cond.0 as usize];
                let woken = std::mem::take(&mut c.waiters);
                for w in &woken {
                    self.threads[w.0 as usize].state = ThreadState::Runnable;
                }
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::CondSignalled { cond, woken },
                });
                self.advance();
                StepEvent::Ran
            }
            Inst::BarrierWait { barrier } => {
                let b = &mut self.sync.barriers[barrier.0 as usize];
                b.arrived.push(tid);
                if b.arrived.len() as u32 >= b.party {
                    let participants = std::mem::take(&mut b.arrived);
                    for p in &participants {
                        if *p != tid {
                            self.threads[p.0 as usize].state = ThreadState::Runnable;
                            self.threads[p.0 as usize].phase = ResumePhase::BarrierDone;
                        }
                    }
                    self.count_step();
                    mon.on_sync(&SyncEvent {
                        tid,
                        pc,
                        kind: SyncEventKind::BarrierReleased {
                            barrier,
                            participants,
                        },
                    });
                    self.advance();
                    StepEvent::Ran
                } else {
                    self.thread_mut(tid).state = ThreadState::BlockedBarrier(barrier);
                    StepEvent::Blocked
                }
            }
            Inst::Output { fd, value } => {
                self.count_step();
                let val = self.eval(value);
                let rec = OutputRec { fd, val, tid, pc };
                mon.on_output(&rec);
                self.output.push(rec);
                self.advance();
                StepEvent::Ran
            }
            Inst::Input { dst } => {
                let v = {
                    let vars = &mut self.vars;
                    self.inputs.next(vars)
                };
                match v {
                    Some(v) => {
                        self.count_step();
                        self.set_reg(dst, v);
                        self.advance();
                        StepEvent::Ran
                    }
                    None => StepEvent::Err(VmError::InputExhausted { tid, pc }),
                }
            }
            Inst::Assert { cond, ref msg } => match self.eval(cond) {
                Val::C(v) => {
                    if v != 0 {
                        self.count_step();
                        self.advance();
                        StepEvent::Ran
                    } else {
                        StepEvent::Err(VmError::AssertFailed {
                            tid,
                            pc,
                            msg: msg.clone(),
                        })
                    }
                }
                Val::S(e) => match e.as_const() {
                    Some(0) => StepEvent::Err(VmError::AssertFailed {
                        tid,
                        pc,
                        msg: msg.clone(),
                    }),
                    Some(_) => {
                        self.count_step();
                        self.advance();
                        StepEvent::Ran
                    }
                    None => StepEvent::SymAssert {
                        cond: e,
                        msg: msg.clone(),
                    },
                },
            },
            Inst::Yield | Inst::Nop => {
                self.count_step();
                self.advance();
                StepEvent::Ran
            }
            Inst::Free { base } => match self.mem.free(base) {
                Ok(()) => {
                    self.count_step();
                    self.advance();
                    StepEvent::Ran
                }
                Err(_) => StepEvent::Err(VmError::UseAfterFree {
                    tid,
                    pc,
                    alloc: self.mem.alloc(base).name.clone(),
                }),
            },
        }
    }

    fn reacquire(
        &mut self,
        tid: ThreadId,
        pc: Pc,
        mutex: SyncId,
        mon: &mut dyn Monitor,
    ) -> StepEvent {
        let mu = &mut self.sync.mutexes[mutex.0 as usize];
        match mu.owner {
            None => {
                mu.owner = Some(tid);
                mu.waiters.retain(|w| *w != tid);
                self.thread_mut(tid).phase = ResumePhase::None;
                self.count_step();
                mon.on_sync(&SyncEvent {
                    tid,
                    pc,
                    kind: SyncEventKind::MutexAcquired(mutex),
                });
                self.advance();
                StepEvent::Ran
            }
            Some(_) => {
                if !mu.waiters.contains(&tid) {
                    mu.waiters.push(tid);
                }
                self.thread_mut(tid).state = ThreadState::BlockedMutex(mutex);
                StepEvent::Blocked
            }
        }
    }

    fn access_event(
        &self,
        tid: ThreadId,
        pc: Pc,
        alloc: AllocId,
        offset: i64,
        is_write: bool,
    ) -> AccessEvent {
        AccessEvent {
            tid,
            pc,
            line: self.program.line_at(pc),
            alloc,
            offset: offset as usize,
            is_write,
            step: self.steps,
        }
    }

    fn mem_fault(&self, tid: ThreadId, pc: Pc, base: AllocId, _idx: i64, f: MemFault) -> VmError {
        let alloc = self.mem.alloc(base).name.clone();
        match f {
            MemFault::OutOfBounds { index, len } => VmError::OutOfBounds {
                tid,
                pc,
                alloc,
                index,
                len,
            },
            MemFault::UseAfterFree | MemFault::DoubleFree => {
                VmError::UseAfterFree { tid, pc, alloc }
            }
        }
    }

    fn misuse(&self, pc: Pc, what: &str) -> VmError {
        VmError::SyncMisuse {
            tid: self.cur,
            pc,
            what: what.to_string(),
        }
    }
}

fn pc_unknown() -> Pc {
    Pc {
        func: crate::program::FuncId(u32::MAX),
        block: BlockId(u32::MAX),
        idx: u32::MAX,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::io::{InputMode, InputSpec};
    use crate::monitor::NullMonitor;

    fn boot(p: Program, inputs: Vec<i64>) -> Machine {
        Machine::new(
            Arc::new(p),
            InputSource::new(InputSpec::concrete(inputs), InputMode::Concrete),
            VmConfig::default(),
        )
    }

    use crate::program::Program;

    #[test]
    fn arithmetic_and_output() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let main = pb.func("main", |f| {
            let a = f.input();
            let b = f.add(a, Operand::Imm(5));
            f.output(1, b);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![10]);
        let mut mon = NullMonitor;
        loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Exited => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.output.concrete_values(), Some(vec![15]));
        assert!(m.all_finished());
    }

    #[test]
    fn division_by_zero_crashes() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let main = pb.func("main", |f| {
            let a = f.input();
            let b = f.bin(portend_symex::BinOp::Div, Operand::Imm(4), a);
            f.output(1, b);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![0]);
        let mut mon = NullMonitor;
        let err = loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Err(e) => break e,
                other => panic!("{other:?}"),
            }
        };
        assert!(matches!(err, VmError::DivisionByZero { .. }));
    }

    #[test]
    fn overflow_detection_configurable() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let main = pb.func("main", |f| {
            let v = f.add(Operand::Imm(i64::MAX), Operand::Imm(1));
            f.output(1, v);
            f.ret(None);
        });
        let p = pb.build(main).unwrap();
        // Wrapping by default.
        let mut m = boot(p.clone(), vec![]);
        let mut mon = NullMonitor;
        loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Exited => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.output.concrete_values(), Some(vec![i64::MIN]));
        // Crash with detection on.
        let mut m = Machine::new(
            Arc::new(p),
            InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
            VmConfig::with_overflow_detection(),
        );
        let err = loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Err(e) => break e,
                other => panic!("{other:?}"),
            }
        };
        assert!(matches!(err, VmError::Overflow { .. }));
    }

    #[test]
    fn call_and_return() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let double = pb.func("double", |f| {
            let x = f.param();
            let v = f.mul(x, Operand::Imm(2));
            f.ret(Some(v));
        });
        let main = pb.func("main", |f| {
            let v = f.call(double, &[Operand::Imm(21)]);
            f.output(1, v);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut mon = NullMonitor;
        loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Exited => break,
                other => panic!("{other:?}"),
            }
        }
        assert_eq!(m.output.concrete_values(), Some(vec![42]));
    }

    #[test]
    fn out_of_bounds_store_crashes() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let arr = pb.array("arr", 4);
        let main = pb.func("main", |f| {
            f.store(arr, Operand::Imm(4), Operand::Imm(1));
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut mon = NullMonitor;
        let err = loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Err(e) => break e,
                other => panic!("{other:?}"),
            }
        };
        assert!(matches!(
            err,
            VmError::OutOfBounds {
                index: 4,
                len: 4,
                ..
            }
        ));
    }

    #[test]
    fn free_then_access_is_uaf() {
        let mut pb = ProgramBuilder::new("t", "t.c");
        let g = pb.global("g", 0);
        let main = pb.func("main", |f| {
            f.free(g);
            let v = f.load(g, Operand::Imm(0));
            f.output(1, v);
            f.ret(None);
        });
        let mut m = boot(pb.build(main).unwrap(), vec![]);
        let mut mon = NullMonitor;
        let err = loop {
            match m.step(&mut mon) {
                StepEvent::Ran => {}
                StepEvent::Err(e) => break e,
                other => panic!("{other:?}"),
            }
        };
        assert!(matches!(err, VmError::UseAfterFree { .. }));
    }
}
