//! Program output logs.
//!
//! Portend intercepts output system calls and records their arguments
//! (paper §4): concrete values during plain runs, symbolic constraints
//! during multi-path primaries. The classifier compares logs either
//! concretely (single-pre/single-post) or symbolically (§3.3.1).
//!
//! The record list is append-only and `Arc`-backed (shared `CowList`
//! storage): cloning a log (part of every machine fork)
//! copies one pointer, and the first append after a fork copies the
//! records once (copy-on-write), tracked by [`OutputLog::cow_bytes`]
//! for fork-cost accounting.

use std::fmt;

use crate::cowlog::CowList;
use crate::mem::Fnv;
use crate::program::Pc;
use crate::thread::ThreadId;
use crate::value::Val;

/// One output operation (one `write`-like system call argument).
#[derive(Debug, Clone, PartialEq)]
pub struct OutputRec {
    /// Output channel (1 = stdout, 2 = stderr, higher = app-specific).
    pub fd: i64,
    /// The emitted value (symbolic during multi-path primaries).
    pub val: Val,
    /// Emitting thread.
    pub tid: ThreadId,
    /// Where the output was produced (reports print this location).
    pub pc: Pc,
}

/// The ordered log of all outputs of one execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OutputLog {
    recs: CowList<OutputRec>,
}

impl OutputLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a record.
    pub fn push(&mut self, rec: OutputRec) {
        self.recs.push(rec);
    }

    /// Number of output operations.
    pub fn len(&self) -> usize {
        self.recs.len()
    }

    /// Whether nothing was output.
    pub fn is_empty(&self) -> bool {
        self.recs.is_empty()
    }

    /// The record at position `i`.
    pub fn get(&self, i: usize) -> Option<&OutputRec> {
        self.recs.as_slice().get(i)
    }

    /// Iterates over records.
    pub fn iter(&self) -> impl Iterator<Item = &OutputRec> {
        self.recs.as_slice().iter()
    }

    /// All values if fully concrete, else `None`.
    pub fn concrete_values(&self) -> Option<Vec<i64>> {
        self.iter().map(|r| r.val.as_concrete()).collect()
    }

    /// Bytes a deep copy of the log would move; the cost a fork shares
    /// away structurally.
    pub fn heap_bytes(&self) -> u64 {
        self.recs.heap_bytes()
    }

    /// Bytes this instance copied on-write since construction (monotone).
    pub fn cow_bytes(&self) -> u64 {
        self.recs.cow_bytes()
    }

    /// An eagerly deep-copied clone (no shared storage); the non-CoW
    /// reference for transparency tests and the fork microbench.
    pub fn deep_clone(&self) -> OutputLog {
        OutputLog {
            recs: self.recs.deep_clone(),
        }
    }

    /// A hash chain over `(fd, value)` pairs, allowing cheap comparison of
    /// large outputs (paper §4 "Portend hashes program outputs").
    /// Symbolic values hash their printed form.
    pub fn hash_chain(&self) -> u64 {
        let mut h = Fnv::new();
        for r in self.iter() {
            h.write_u64(r.fd as u64);
            match r.val.as_concrete() {
                Some(v) => h.write_u64(v as u64),
                None => h.write_str(&r.val.to_string()),
            }
        }
        h.finish()
    }

    /// Positions where two concrete logs provably diverge, as
    /// `(index, self record, other record)`; a `None` side means the log
    /// ended early. Used for "output differs" evidence.
    ///
    /// A position diverges when the *values* differ **or** when the
    /// output channels (`fd`) differ — the same refinement the symbolic
    /// comparison path applies: an fd-only mismatch inside the common
    /// prefix is the first provable divergence even when one log is
    /// longer than the other (the count mismatch alone would blame
    /// `min(len)`, past the real divergence).
    pub fn diff_concrete(
        &self,
        other: &OutputLog,
    ) -> Vec<(usize, Option<OutputRec>, Option<OutputRec>)> {
        let mut out = Vec::new();
        let n = self.len().max(other.len());
        for i in 0..n {
            let a = self.get(i);
            let b = other.get(i);
            let diverges = match (a, b) {
                (Some(x), Some(y)) => x.fd != y.fd || x.val != y.val,
                _ => true,
            };
            if diverges {
                out.push((i, a.cloned(), b.cloned()));
            }
        }
        out
    }
}

impl fmt::Display for OutputLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, r) in self.iter().enumerate() {
            writeln!(f, "[{i}] fd={} {} (by {} at {})", r.fd, r.val, r.tid, r.pc)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{BlockId, FuncId};

    fn rec(v: i64) -> OutputRec {
        rec_fd(1, v)
    }

    fn rec_fd(fd: i64, v: i64) -> OutputRec {
        OutputRec {
            fd,
            val: Val::C(v),
            tid: ThreadId(0),
            pc: Pc {
                func: FuncId(0),
                block: BlockId(0),
                idx: 0,
            },
        }
    }

    #[test]
    fn hash_chain_distinguishes_logs() {
        let mut a = OutputLog::new();
        let mut b = OutputLog::new();
        a.push(rec(1));
        a.push(rec(2));
        b.push(rec(1));
        b.push(rec(3));
        assert_ne!(a.hash_chain(), b.hash_chain());
        assert_eq!(a.hash_chain(), a.clone().hash_chain());
    }

    #[test]
    fn diff_reports_positions() {
        let mut a = OutputLog::new();
        let mut b = OutputLog::new();
        a.push(rec(1));
        a.push(rec(2));
        b.push(rec(1));
        let d = a.diff_concrete(&b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, 1);
        assert_eq!(d[0].1.as_ref().map(|r| r.val.clone()), Some(Val::C(2)));
        assert_eq!(d[0].2, None);
    }

    #[test]
    fn diff_catches_fd_only_mismatch_inside_prefix() {
        // Same values, but the second op went to a different channel —
        // and one log is longer. The first provable divergence is the fd
        // mismatch at position 1, not the extra op at min(len) = 2.
        let mut a = OutputLog::new();
        let mut b = OutputLog::new();
        a.push(rec(1));
        a.push(rec_fd(1, 2));
        b.push(rec(1));
        b.push(rec_fd(2, 2));
        b.push(rec(3));
        let d = a.diff_concrete(&b);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 1, "fd divergence precedes the count mismatch");
        assert_eq!(d[0].1.as_ref().map(|r| r.fd), Some(1));
        assert_eq!(d[0].2.as_ref().map(|r| r.fd), Some(2));
        assert_eq!(d[1].0, 2);
    }

    #[test]
    fn concrete_values_extraction() {
        let mut a = OutputLog::new();
        a.push(rec(5));
        assert_eq!(a.concrete_values(), Some(vec![5]));
    }

    #[test]
    fn clone_shares_until_push() {
        let mut a = OutputLog::new();
        a.push(rec(1));
        a.push(rec(2));
        let mut b = a.clone();
        assert_eq!(b.cow_bytes(), 0);
        b.push(rec(3));
        assert!(b.cow_bytes() > 0, "first post-fork append copies the log");
        assert_eq!(a.cow_bytes(), 0);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 3);
        assert_eq!(a.deep_clone(), a);
    }
}
