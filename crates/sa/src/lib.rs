//! Static lockset/may-happen-in-parallel pre-analysis over the VM IR.
//!
//! The dynamic layers of this workspace — the happens-before detector
//! in `portend-race`, the symbolic classifier above it — are trusted
//! end to end; nothing cross-checks them against an independent source
//! of truth. This crate is that source: a purely syntactic,
//! dependency-free analysis of a [`Program`] that enumerates an
//! **over-approximation** of every data race the dynamic detector
//! could ever report.
//!
//! Three layers, each documented in its module:
//!
//! * [`mod@cfg`] — per-function control-flow graphs and the (exact) call
//!   graph, spawn sites, reachability closures.
//! * [`lockset`] — interprocedural must-hold lockset dataflow: which
//!   mutexes are guaranteed held at each instruction.
//! * [`mhp`] — may-happen-in-parallel from spawn/join/barrier
//!   structure, with a small set of happens-before proofs for pruning.
//!
//! [`candidates`] combines them into [`StaticCandidate`] pairs. Two
//! uses downstream:
//!
//! 1. **Differential cross-check** (`tests/static_differential.rs` at
//!    the workspace root): every dynamic `RaceReport` must map into
//!    the candidate set — a gap is a detector soundness bug caught in
//!    CI.
//! 2. **Triage front end** (paper §5.1): a third-party detector's
//!    reports can be filtered through [`StaticAnalysis::covers`] before
//!    anything is classified. The classification pipeline itself does
//!    not run this pass; `examples/static_report.rs` runs it beside the
//!    recorder as the corpus-wide corroboration gate.
//!
//! The soundness direction is the crate's one invariant: every proof
//! used to prune mirrors a happens-before edge the dynamic detector
//! tracks unconditionally. When a program exceeds an analysis' size
//! limits (more than 64 mutexes or 64 thread roots), that analysis
//! degrades to its trivial answer — fewer prunes, never a lost
//! candidate.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod candidates;
pub mod cfg;
pub mod lockset;
pub mod mhp;

pub use candidates::{StaticAnalysis, StaticCandidate, StaticStats};
pub use cfg::ProgramCfg;
pub use lockset::{LockAnalysis, LockMask};
pub use mhp::MhpAnalysis;

use portend_vm::Program;

/// Runs the full static pre-analysis over `program`.
///
/// Convenience for [`StaticAnalysis::analyze`].
pub fn analyze(program: &Program) -> StaticAnalysis {
    StaticAnalysis::analyze(program)
}
