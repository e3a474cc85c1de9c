//! # portend-symex — symbolic expressions and a bounded-domain solver
//!
//! This crate is the reproduction's substitute for the KLEE expression
//! language and the STP decision procedure used by the original Portend
//! (Kasikci, Zamfir, Candea — ASPLOS 2012). It provides:
//!
//! * [`Expr`] — immutable, constant-folding symbolic expression DAGs over
//!   64-bit signed integers (booleans are 0/1);
//! * [`VarTable`] / [`VarInfo`] — symbolic variables with *bounded* integer
//!   domains, which is what keeps the solver decidable;
//! * [`Solver`] — interval-pruned depth-first search answering the three
//!   query shapes Portend needs: branch feasibility, model extraction, and
//!   symbolic output comparison;
//! * [`Model`] — concrete variable assignments (solver witnesses);
//! * [`mod@slice`] — constraint slicing by variable connectivity, each
//!   slice memoized in a shared [`SolverCache`] and, for callers that
//!   check many related queries, a caller-owned [`SliceMemo`];
//! * [`mod@warm`] — cross-run persistence of the solver cache (the
//!   "warm store"): a versioned, checksummed on-disk format with an
//!   eviction-aware export policy ([`WarmPolicy`]), a program
//!   fingerprint + solver-semantics version in the header, and
//!   answer-preservation validation sampling on load, so a long-lived
//!   service warm-starts instead of re-solving every recurring slice;
//! * [`mod@store`] — [`StoreManager`], a directory of per-program warm
//!   stores, one file per program fingerprint, for front ends that
//!   outlive any single program.
//!
//! ## Example
//!
//! ```
//! use portend_symex::{Expr, Solver, VarTable, CmpOp, SatResult};
//!
//! let mut vars = VarTable::new();
//! let n = vars.fresh("n", 0, 63);
//! // path condition: n*2 > 10  ∧  n < 8
//! let pc = [
//!     Expr::var(n).mul(Expr::konst(2)).cmp(CmpOp::Gt, Expr::konst(10)),
//!     Expr::var(n).cmp(CmpOp::Lt, Expr::konst(8)),
//! ];
//! match Solver::new().check(&pc, &vars) {
//!     SatResult::Sat(model) => {
//!         let v = model.get(n).expect("n is constrained");
//!         assert!(v * 2 > 10 && v < 8);
//!     }
//!     other => panic!("expected sat, got {other:?}"),
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod cache;
mod domain;
mod expr;
mod model;
mod op;
pub mod slice;
mod solver;
pub mod store;
pub mod warm;

pub use cache::{CacheSnapshot, SolverCache, DEFAULT_MAX_ENTRIES, DEFAULT_SHARDS};
pub use domain::{Interval, VarId, VarInfo, VarTable};
pub use expr::{EvalError, Expr, Node};
pub use model::Model;
pub use op::{BinOp, CmpOp};
pub use slice::SliceMemo;
pub use solver::{SatResult, Solver, SolverConfig, SolverStats};
pub use store::StoreManager;
pub use warm::{
    WarmLoadReport, WarmPolicy, WarmSaveReport, WarmStoreError, SOLVER_SEMANTICS_VERSION,
    WARM_FORMAT_VERSION,
};
