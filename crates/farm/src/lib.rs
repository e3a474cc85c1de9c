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
//! * [`Farm`] — a work-stealing worker pool (std threads + channels, no
//!   external dependencies) that runs every job exactly once, suspected
//!   most-harmful races first;
//! * [`JobSpec`] / [`cluster_priority`] — job descriptors and the
//!   detector-derived priority heuristic;
//! * [`FarmRun`] — a streaming results handle yielding each finished job
//!   as soon as a worker completes it;
//! * [`FarmStats`] — aggregate run statistics: jobs, wall/busy time,
//!   per-worker utilization, steal counts, and the solver-cache hit rate
//!   when a [`portend_symex::SolverCache`] is attached.
//!
//! The engine is generic over the job payload and result types, so the
//! `portend` core can delegate `Pipeline::run_parallel` to it without a
//! dependency cycle, and harnesses can reuse the same pool to fan out
//! entire workload corpora (`crates/bench`'s `bench_farm` does both).
//!
//! Determinism: the farm only changes *when* each job runs, never what it
//! computes. Classification is a pure function of (case, cluster, config),
//! and the shared solver cache is answer-preserving, so parallel verdicts
//! are identical to serial ones (see `tests/farm_equivalence.rs`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod config;
mod job;
mod pool;
mod queue;
mod stats;
mod stream;

pub use config::FarmConfig;
pub use job::{cluster_priority, JobSpec};
pub use pool::Farm;
pub use stats::{FarmStats, WorkerStats};
pub use stream::{FarmRun, JobOutput};
