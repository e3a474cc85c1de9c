//! Observability substrate for the Portend reproduction.
//!
//! Everything the pipeline can tell you about a run flows through this
//! crate: a [`Recorder`] collects per-thread, lock-free event lanes
//! from the farm workers, the explorer, the solver, and the warm store;
//! [`Recorder::finish`] merges them into a deterministic [`Trace`]; and
//! the exporters turn the trace into Chrome trace-event JSON
//! ([`Trace::to_chrome_json`]) or feed the versioned `RunReport`
//! assembled by the core crate.
//!
//! The crate sits at the bottom of the workspace dependency graph — it
//! depends on nothing, so every other crate can emit events. The two
//! non-negotiable properties, pinned by the workspace equivalence
//! suites:
//!
//! 1. **Recorder-off is free.** A thread that never attached pays one
//!    thread-local read and a branch per emission site — no clock read,
//!    no allocation.
//! 2. **Recorder-on changes nothing.** Emission never touches solver,
//!    cache, or verdict state; with tracing enabled every verdict and
//!    every stats byte is identical to the untraced run.
//!
//! See `DESIGN.md`'s Observability chapter for the event taxonomy and
//! the merge-determinism argument.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;

mod chrome;
mod event;
mod recorder;

pub use event::{Event, EventKind, EventSkeleton};
pub use recorder::{enabled, instant, span, span_named, Lane, LaneGuard, Recorder, Span, Trace};
