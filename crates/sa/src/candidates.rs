//! Conflicting-access-pair enumeration: the static candidate set.
//!
//! A *conflicting pair* is two memory-access instructions on the same
//! allocation, at least one of which writes (the same instruction
//! paired with itself counts when it writes — two threads can race on
//! one program point). Every race the dynamic detector can ever report
//! projects onto such a pair, so the set of pairs — minus the ones the
//! lockset or MHP analysis *proves* ordered — over-approximates the
//! detector's possible output. That containment is exactly what the
//! differential cross-check asserts.

use std::collections::BTreeMap;

use portend_vm::{AllocId, Pc, Program, SyncId};

use crate::cfg::ProgramCfg;
use crate::lockset::LockAnalysis;
use crate::mhp::MhpAnalysis;

/// One statically enumerated pair of potentially racing accesses.
/// `pc_a <= pc_b` (the same normalization `RaceReport` uses), so a
/// dynamic report maps to exactly one candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StaticCandidate {
    /// The allocation both accesses touch.
    pub alloc: AllocId,
    /// The lower program point of the pair.
    pub pc_a: Pc,
    /// The higher program point (equal to `pc_a` for a self-pair).
    pub pc_b: Pc,
    /// Mutexes *must*-held around both accesses; non-empty means the
    /// pair is ordered by that lock whenever the detector respects
    /// mutexes.
    pub common_locks: Vec<SyncId>,
    /// Whether the two accesses may execute concurrently in different
    /// threads.
    pub mhp: bool,
}

impl StaticCandidate {
    /// Whether this pair can still race: it may happen in parallel and
    /// (when `respect_locks`) shares no must-held lock.
    pub fn possible(&self, respect_locks: bool) -> bool {
        self.mhp && (!respect_locks || self.common_locks.is_empty())
    }
}

/// Counters summarizing one static pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StaticStats {
    /// Conflicting pairs that remain possible races after pruning.
    pub candidates: u64,
    /// Conflicting pairs proved ordered (lock-protected or not
    /// may-happen-in-parallel).
    pub pruned: u64,
}

/// The full result of the static pre-analysis over one program.
#[derive(Debug)]
pub struct StaticAnalysis {
    /// Every conflicting pair, possible or pruned, ordered by
    /// `(alloc, pc_a, pc_b)`.
    pub candidates: Vec<StaticCandidate>,
    /// True when a size limit degraded locksets or MHP to their
    /// trivial (prune-nothing) answers.
    pub degraded: bool,
    index: BTreeMap<(AllocId, Pc, Pc), usize>,
}

impl StaticAnalysis {
    /// Runs the whole static pre-analysis: CFG, locksets, MHP, pair
    /// enumeration.
    pub fn analyze(program: &Program) -> StaticAnalysis {
        let cfg = ProgramCfg::build(program);
        let locks = LockAnalysis::analyze(program, &cfg);
        let mhp = MhpAnalysis::analyze(program, &cfg);

        // Access sites grouped by allocation.
        struct Site {
            pc: Pc,
            is_write: bool,
            locks: u64,
        }
        let mut by_alloc: BTreeMap<AllocId, Vec<Site>> = BTreeMap::new();
        for (fi, f) in program.funcs.iter().enumerate() {
            for (bi, b) in f.blocks.iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    if let Some((alloc, _, is_write)) = inst.memory_access() {
                        let pc = Pc {
                            func: portend_vm::FuncId(fi as u32),
                            block: portend_vm::BlockId(bi as u32),
                            idx: ii as u32,
                        };
                        by_alloc.entry(alloc).or_default().push(Site {
                            pc,
                            is_write,
                            locks: locks.must_hold(pc),
                        });
                    }
                }
            }
        }

        let mut candidates = Vec::new();
        let mut index = BTreeMap::new();
        for (alloc, sites) in &by_alloc {
            for i in 0..sites.len() {
                for j in i..sites.len() {
                    let (a, b) = (&sites[i], &sites[j]);
                    if !a.is_write && !b.is_write {
                        continue;
                    }
                    if i == j && !a.is_write {
                        continue;
                    }
                    let (lo, hi) = if a.pc <= b.pc {
                        (a.pc, b.pc)
                    } else {
                        (b.pc, a.pc)
                    };
                    let common_mask = a.locks & b.locks & locks.top;
                    let common_locks: Vec<SyncId> = (0..program.mutexes.len() as u32)
                        .filter(|m| common_mask & (1 << m) != 0)
                        .map(SyncId)
                        .collect();
                    let cand = StaticCandidate {
                        alloc: *alloc,
                        pc_a: lo,
                        pc_b: hi,
                        common_locks,
                        mhp: mhp.mhp(a.pc, b.pc),
                    };
                    index.insert((*alloc, lo, hi), candidates.len());
                    candidates.push(cand);
                }
            }
        }

        StaticAnalysis {
            candidates,
            degraded: locks.degraded || mhp.degraded,
            index,
        }
    }

    /// Looks up the conflicting pair for `(alloc, pc_a, pc_b)` (in
    /// either order).
    pub fn lookup(&self, alloc: AllocId, pc_a: Pc, pc_b: Pc) -> Option<&StaticCandidate> {
        let (lo, hi) = if pc_a <= pc_b {
            (pc_a, pc_b)
        } else {
            (pc_b, pc_a)
        };
        self.index
            .get(&(alloc, lo, hi))
            .map(|i| &self.candidates[*i])
    }

    /// Whether the static candidate set covers a dynamic race on
    /// `alloc` between the instructions at `pc_a` and `pc_b`.
    /// `respect_locks` must be false when the detector was configured
    /// to ignore mutexes (`DetectorConfig::ignore_mutexes`), because
    /// lock-based pruning then no longer mirrors an ordering the
    /// detector sees.
    pub fn covers(&self, alloc: AllocId, pc_a: Pc, pc_b: Pc, respect_locks: bool) -> bool {
        self.lookup(alloc, pc_a, pc_b)
            .map(|c| c.possible(respect_locks))
            .unwrap_or(false)
    }

    /// Pair counters for this analysis.
    pub fn stats(&self) -> StaticStats {
        let candidates = self.candidates.iter().filter(|c| c.possible(true)).count() as u64;
        StaticStats {
            candidates,
            pruned: self.candidates.len() as u64 - candidates,
        }
    }
}
