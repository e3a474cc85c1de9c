//! Execution monitors: the hook interface race detectors plug into.
//!
//! The machine emits an event for every shared-memory access,
//! synchronization operation, thread lifecycle change, and output. The
//! happens-before detector in `portend-race` is a monitor; so is the
//! lock-graph tracker used for deadlock evidence.

use crate::output::OutputRec;
use crate::program::{AllocId, Pc, SyncId};
use crate::thread::ThreadId;

/// A shared-memory access (a potential racing access).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessEvent {
    /// The accessing thread.
    pub tid: ThreadId,
    /// Where the access executes.
    pub pc: Pc,
    /// Source line of the access.
    pub line: u32,
    /// The accessed allocation.
    pub alloc: AllocId,
    /// Offset within the allocation.
    pub offset: usize,
    /// `true` for stores.
    pub is_write: bool,
    /// Global instruction index of the access (for precise replay when an
    /// instruction executes many times; paper §3.1).
    pub step: u64,
}

/// Synchronization event kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncEventKind {
    /// A mutex was acquired.
    MutexAcquired(SyncId),
    /// A mutex was released.
    MutexReleased(SyncId),
    /// A thread started waiting on a condition variable (after releasing
    /// the mutex).
    CondWaitStart {
        /// The condition variable.
        cond: SyncId,
        /// The released mutex.
        mutex: SyncId,
    },
    /// A signal woke the listed threads (empty for a lost signal).
    CondSignalled {
        /// The condition variable.
        cond: SyncId,
        /// Woken threads.
        woken: Vec<ThreadId>,
    },
    /// A barrier released its full party.
    BarrierReleased {
        /// The barrier.
        barrier: SyncId,
        /// All released participants.
        participants: Vec<ThreadId>,
    },
}

/// A synchronization event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEvent {
    /// The thread performing the operation.
    pub tid: ThreadId,
    /// Where it executes.
    pub pc: Pc,
    /// What happened.
    pub kind: SyncEventKind,
}

/// Thread lifecycle event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadEventKind {
    /// `tid` spawned `child`.
    Spawned {
        /// The new thread.
        child: ThreadId,
    },
    /// `tid` exited.
    Exited,
    /// `tid` observed the exit of `target` via join.
    Joined {
        /// The joined (already exited) thread.
        target: ThreadId,
    },
}

/// A thread lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadEvent {
    /// The acting thread.
    pub tid: ThreadId,
    /// Where it acted (pc of the spawn/join; thread's last pc for exit).
    pub pc: Pc,
    /// What happened.
    pub kind: ThreadEventKind,
}

/// Observer of a machine's execution. All methods default to no-ops so
/// implementations override only what they need.
pub trait Monitor {
    /// Called after each successful shared-memory access.
    fn on_access(&mut self, _ev: &AccessEvent) {}
    /// Called after each synchronization state change.
    fn on_sync(&mut self, _ev: &SyncEvent) {}
    /// Called on thread spawn/exit/join.
    fn on_thread(&mut self, _ev: &ThreadEvent) {}
    /// Called after each `Output` instruction.
    fn on_output(&mut self, _rec: &OutputRec) {}
    /// Asks consent for [`crate::drive`] to skip `steps` instructions of an
    /// exactly repeating, write-free cycle instead of interpreting them;
    /// `drive` first asks with `steps == 0`, before it starts looking for
    /// a cycle at all. Skipped instructions raise no events, so only a
    /// monitor that needs none of them may consent, and the count is
    /// its only record of the skip. The default declines: the run is
    /// fully interpreted and every event is delivered.
    fn fast_forward(&mut self, _steps: u64) -> bool {
        false
    }
}

/// A monitor that ignores everything. It consents to fast-forwarding
/// (see [`Monitor::fast_forward`]): it has no events to lose.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullMonitor;

impl Monitor for NullMonitor {
    fn fast_forward(&mut self, _steps: u64) -> bool {
        true
    }
}

/// A monitor that records every event, useful in tests.
#[derive(Debug, Clone, Default)]
pub struct RecordingMonitor {
    /// All access events, in order.
    pub accesses: Vec<AccessEvent>,
    /// All sync events, in order.
    pub syncs: Vec<SyncEvent>,
    /// All thread events, in order.
    pub threads: Vec<ThreadEvent>,
    /// Number of outputs observed.
    pub outputs: usize,
}

impl Monitor for RecordingMonitor {
    fn on_access(&mut self, ev: &AccessEvent) {
        self.accesses.push(ev.clone());
    }
    fn on_sync(&mut self, ev: &SyncEvent) {
        self.syncs.push(ev.clone());
    }
    fn on_thread(&mut self, ev: &ThreadEvent) {
        self.threads.push(*ev);
    }
    fn on_output(&mut self, _rec: &OutputRec) {
        self.outputs += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BlockId, FuncId};

    fn pc() -> Pc {
        Pc {
            func: FuncId(0),
            block: BlockId(0),
            idx: 0,
        }
    }

    #[test]
    fn null_monitor_is_harmless() {
        let mut n = NullMonitor;
        n.on_access(&AccessEvent {
            tid: ThreadId(0),
            pc: pc(),
            line: 0,
            alloc: AllocId(0),
            offset: 0,
            is_write: false,
            step: 0,
        });
    }
}
