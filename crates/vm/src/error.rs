//! VM error conditions.
//!
//! These are the "basic" specification violations of the paper (§3.5):
//! crashes (memory errors, division by zero, overflow, failed assertions),
//! and deadlocks. Portend classifies a race as "spec violated" whenever the
//! primary or an alternate execution raises one of these.

use std::fmt;

use crate::program::Pc;
use crate::thread::ThreadId;

/// A fatal error raised while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VmError {
    /// A load or store outside the bounds of its allocation.
    OutOfBounds {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
        /// Name of the accessed allocation.
        alloc: String,
        /// The out-of-range index.
        index: i64,
        /// The allocation length.
        len: usize,
    },
    /// A load or store to a freed allocation.
    UseAfterFree {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
        /// Name of the accessed allocation.
        alloc: String,
    },
    /// Integer division or remainder by zero.
    DivisionByZero {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
    },
    /// Signed overflow, reported when the KLEE-style overflow detector is
    /// enabled in [`crate::VmConfig`].
    Overflow {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
    },
    /// An `Assert` instruction whose condition evaluated to zero.
    AssertFailed {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
        /// The assertion message.
        msg: String,
    },
    /// Every live thread is blocked: a deadlock.
    Deadlock(DeadlockInfo),
    /// A mutex was unlocked by a thread that does not hold it, or a
    /// condition wait was issued without holding the mutex.
    SyncMisuse {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
        /// Human-readable description of the misuse.
        what: String,
    },
    /// A value that must be concrete (address index, sync object id,
    /// thread id, divisor) was symbolic. The workloads in this repository
    /// are written to avoid this; see `DESIGN.md` limitations.
    SymbolicValue {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
        /// What kind of operand was symbolic.
        what: String,
    },
    /// An `Input` instruction ran but the input queue was exhausted.
    InputExhausted {
        /// Faulting thread.
        tid: ThreadId,
        /// Faulting program counter.
        pc: Pc,
    },
}

impl VmError {
    /// The thread that triggered the error, when attributable to one.
    pub fn tid(&self) -> Option<ThreadId> {
        match self {
            VmError::OutOfBounds { tid, .. }
            | VmError::UseAfterFree { tid, .. }
            | VmError::DivisionByZero { tid, .. }
            | VmError::Overflow { tid, .. }
            | VmError::AssertFailed { tid, .. }
            | VmError::SyncMisuse { tid, .. }
            | VmError::SymbolicValue { tid, .. }
            | VmError::InputExhausted { tid, .. } => Some(*tid),
            VmError::Deadlock(_) => None,
        }
    }

    /// The faulting program counter, when attributable to one.
    pub fn pc(&self) -> Option<Pc> {
        match self {
            VmError::OutOfBounds { pc, .. }
            | VmError::UseAfterFree { pc, .. }
            | VmError::DivisionByZero { pc, .. }
            | VmError::Overflow { pc, .. }
            | VmError::AssertFailed { pc, .. }
            | VmError::SyncMisuse { pc, .. }
            | VmError::SymbolicValue { pc, .. }
            | VmError::InputExhausted { pc, .. } => Some(*pc),
            VmError::Deadlock(_) => None,
        }
    }

    /// Short category label used in reports and Table 2.
    pub fn category(&self) -> &'static str {
        match self {
            VmError::OutOfBounds { .. } => "memory-error",
            VmError::UseAfterFree { .. } => "use-after-free",
            VmError::DivisionByZero { .. } => "div-by-zero",
            VmError::Overflow { .. } => "overflow",
            VmError::AssertFailed { .. } => "assert",
            VmError::Deadlock(_) => "deadlock",
            VmError::SyncMisuse { .. } => "sync-misuse",
            VmError::SymbolicValue { .. } => "symbolic-value",
            VmError::InputExhausted { .. } => "input-exhausted",
        }
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::OutOfBounds { tid, pc, alloc, index, len } => write!(
                f,
                "out-of-bounds access to `{alloc}` at index {index} (len {len}) by thread {tid} at {pc}"
            ),
            VmError::UseAfterFree { tid, pc, alloc } => {
                write!(f, "use-after-free of `{alloc}` by thread {tid} at {pc}")
            }
            VmError::DivisionByZero { tid, pc } => {
                write!(f, "division by zero in thread {tid} at {pc}")
            }
            VmError::Overflow { tid, pc } => {
                write!(f, "signed overflow in thread {tid} at {pc}")
            }
            VmError::AssertFailed { tid, pc, msg } => {
                write!(f, "assertion failed in thread {tid} at {pc}: {msg}")
            }
            VmError::Deadlock(info) => write!(f, "deadlock: {info}"),
            VmError::SyncMisuse { tid, pc, what } => {
                write!(f, "synchronization misuse by thread {tid} at {pc}: {what}")
            }
            VmError::SymbolicValue { tid, pc, what } => {
                write!(f, "symbolic {what} in thread {tid} at {pc}")
            }
            VmError::InputExhausted { tid, pc } => {
                write!(f, "input exhausted in thread {tid} at {pc}")
            }
        }
    }
}

impl std::error::Error for VmError {}

/// Details of a deadlock: the blocked threads and the wait-for edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockInfo {
    /// `(waiting thread, resource description, holding thread if any)`.
    pub edges: Vec<(ThreadId, String, Option<ThreadId>)>,
}

impl fmt::Display for DeadlockInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self
            .edges
            .iter()
            .map(|(t, r, h)| match h {
                Some(h) => format!("T{} waits on {} held by T{}", t.0, r, h.0),
                None => format!("T{} waits on {}", t.0, r),
            })
            .collect();
        write!(f, "{}", parts.join("; "))
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
            idx: 3,
        }
    }

    #[test]
    fn categories() {
        let e = VmError::DivisionByZero {
            tid: ThreadId(1),
            pc: pc(),
        };
        assert_eq!(e.category(), "div-by-zero");
        let d = VmError::Deadlock(DeadlockInfo { edges: vec![] });
        assert_eq!(d.category(), "deadlock");
    }

    #[test]
    fn display_is_informative() {
        let e = VmError::OutOfBounds {
            tid: ThreadId(2),
            pc: pc(),
            alloc: "stats_array".to_string(),
            index: 32,
            len: 32,
        };
        let s = e.to_string();
        assert!(s.contains("stats_array"));
        assert!(s.contains("32"));
        assert_eq!(e.tid(), Some(ThreadId(2)));
        assert!(e.pc().is_some());
    }

    #[test]
    fn deadlock_display() {
        let d = DeadlockInfo {
            edges: vec![
                (ThreadId(0), "mutex m0".into(), Some(ThreadId(1))),
                (ThreadId(1), "mutex m1".into(), Some(ThreadId(0))),
            ],
        };
        let s = d.to_string();
        assert!(s.contains("T0 waits on mutex m0 held by T1"));
    }
}
