//! # portend-vm — a multi-threaded IR interpreter
//!
//! This crate is the reproduction's substitute for the Cloud9/KLEE
//! execution substrate of the original Portend (Kasikci, Zamfir, Candea —
//! ASPLOS 2012): a register-based IR with POSIX-style threads and
//! synchronization, executed by a cooperative single-processor scheduler
//! with explicit preemption points, checkpointing (machines are `Clone`),
//! watchpoints on shared-memory accesses, and hooks for race detectors.
//!
//! * [`ProgramBuilder`] / [`Program`] — authoring and validating programs;
//! * [`Machine`] — one execution state (memory, threads, sync, I/O, path
//!   condition); symbolic values fork at branches;
//! * [`exec::drive`] — the scheduling loop with budgets, suspension and
//!   watchpoints;
//! * [`Scheduler`] — cooperative / round-robin / seeded-random /
//!   trace-following policies;
//! * [`Monitor`] — the event interface race detectors implement.
//!
//! ## Example: run a racy program and observe its accesses
//!
//! ```
//! use portend_vm::{
//!     drive, DriveCfg, DriveStop, InputMode, InputSource, InputSpec, Machine,
//!     Operand, ProgramBuilder, RecordingMonitor, Scheduler, VmConfig,
//! };
//! use std::sync::Arc;
//!
//! let mut pb = ProgramBuilder::new("demo", "demo.c");
//! let counter = pb.global("counter", 0);
//! let worker = pb.func("worker", |f| {
//!     let _arg = f.param();
//!     f.racy_inc(counter, Operand::Imm(0));
//!     f.ret(None);
//! });
//! let main = pb.func("main", |f| {
//!     let t = f.spawn(worker, Operand::Imm(0));
//!     f.racy_inc(counter, Operand::Imm(0));
//!     f.join(t);
//!     f.ret(None);
//! });
//! let program = Arc::new(pb.build(main).expect("valid program"));
//!
//! let mut machine = Machine::new(
//!     program,
//!     InputSource::new(InputSpec::concrete(vec![]), InputMode::Concrete),
//!     VmConfig::default(),
//! );
//! let mut sched = Scheduler::random(1);
//! let mut mon = RecordingMonitor::default();
//! let stop = drive(&mut machine, &mut sched, &mut mon, &DriveCfg::default());
//! assert_eq!(stop, DriveStop::Completed);
//! assert_eq!(mon.accesses.len(), 4); // two racy load/store pairs
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod builder;
mod config;
mod cowlog;
mod error;
pub mod exec;
mod inst;
mod io;
mod machine;
mod mem;
mod monitor;
mod output;
mod program;
mod rng;
mod sched;
mod sync;
mod thread;
mod value;

pub use builder::{BuildError, FuncBuilder, ProgramBuilder};
pub use config::VmConfig;
pub use error::{DeadlockInfo, VmError};
pub use exec::{drive, run_to_completion, DriveCfg, DriveStop, Watch, WatchHit};
pub use inst::{Inst, Operand, Reg};
pub use io::{InputMode, InputSource, InputSpec, SymDomain};
pub use machine::{ForkCost, Machine, StepEvent};
pub use mem::{Allocation, Fnv, MemFault, Memory};
pub use monitor::{
    AccessEvent, Monitor, NullMonitor, RecordingMonitor, SyncEvent, SyncEventKind, ThreadEvent,
    ThreadEventKind,
};
pub use output::{OutputLog, OutputRec};
pub use program::{
    AllocId, AllocSpec, BarrierSpec, BasicBlock, BlockId, FuncId, Function, Pc, Program, SyncId,
};
pub use rng::SmallRng;
pub use sched::{PickReason, SchedLog, Scheduler};
pub use sync::{BarrierState, CondState, MutexState, SyncState};
pub use thread::{Frame, ResumePhase, Thread, ThreadId, ThreadState};
pub use value::Val;
