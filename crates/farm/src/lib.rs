//! # portend-farm — a parallel, cache-sharing race-classification engine
//!
//! Portend's cost is dominated by classifying each detected race via
//! multi-path, multi-schedule exploration: `k = Mp × Ma` path/schedule
//! combinations per race, every one an independent deterministic replay.
//! That workload parallelizes perfectly across races — and across whole
//! corpora of (program, trace) cases — because each classification job
//! only reads a shared analysis case and writes its own verdict.
//!
//! The farm provides the engine for that:
//!
//! * [`Farm`] — a worker pool (std threads parked once per process +
//!   channels, no external dependencies) that runs every job exactly
//!   once and hands each [`JobOutput`] to the caller's sink as soon as
//!   its job finishes. Workers share one queue in priority order, so at
//!   every width the next job to start is the most suspect race left.
//!   A one-worker run executes on the calling thread and spawns
//!   nothing; a wider run reuses idle parked threads and spawns one only
//!   when none is idle; a panicking job becomes that job's `Err` output;
//! * [`JobSpec`] / [`cluster_priority`] — job descriptors and the
//!   detector-derived priority heuristic;
//! * [`FarmStats`] — what the pool measured: jobs, wall/busy time and
//!   per-worker utilization.
//!
//! The engine is generic over the job payload and result types, so the
//! `portend` core can run `Pipeline::run` on it without a dependency
//! cycle.
//!
//! Determinism: the farm only changes *when* each job runs, never what it
//! computes. Classification is a pure function of (case, cluster, config),
//! and the shared solver cache is answer-preserving, so verdicts are
//! identical at every worker count (see `tests/farm_equivalence.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod job;
mod pool;
mod stats;

pub use job::{cluster_priority, JobOutput, JobSpec};
pub use pool::Farm;
pub use stats::{FarmStats, WorkerStats};
