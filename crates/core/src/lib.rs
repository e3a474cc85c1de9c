//! # portend — consequence-based data race classification
//!
//! A Rust reproduction of **Portend** (Kasikci, Zamfir, Candea: *Data
//! Races vs. Data Race Bugs: Telling the Difference with Portend*,
//! ASPLOS 2012). Portend detects data races and predicts their
//! consequences by analyzing multiple execution paths and multiple thread
//! schedules around each race, comparing program outputs *symbolically*,
//! and classifying each race into a four-category taxonomy:
//!
//! * [`RaceClass::SpecViolated`] — an ordering crashes, deadlocks, hangs,
//!   or violates a user predicate: definitely harmful;
//! * [`RaceClass::OutputDiffers`] — the orderings can produce different
//!   output: the developer decides, with evidence attached;
//! * [`RaceClass::KWitnessHarmless`] — harmless in `k = Mp × Ma` explored
//!   path × schedule combinations;
//! * [`RaceClass::SingleOrdering`] — only one ordering is possible
//!   (ad-hoc synchronization).
//!
//! ## Entry points
//!
//! * [`Pipeline`] — detect + classify every race of a program run on
//!   the work-stealing classification farm ([`Pipeline::run`], crate
//!   `portend-farm`; a one-worker run classifies on the calling thread);
//! * [`Portend`] — classify a single race from a recorded trace;
//! * [`baselines`] — the Record/Replay-Analyzer, Ad-Hoc-Detector, and
//!   DataCollider-style comparators of the paper's §5.4;
//! * [`render_report`] — the Fig. 6 debugging-aid report.
//!
//! See the workspace `README.md` for a quickstart and `DESIGN.md` for the
//! substrate substitutions relative to the original Cloud9/KLEE stack.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod baselines;
mod case;
mod classify;
mod config;
mod enforce;
mod explorer;
mod locate;
mod outcmp;
mod pipeline;
mod report;
pub mod runreport;
mod single;
mod supervise;
mod taxonomy;
mod triage;
mod warm;

pub use case::{AnalysisCase, Predicate};
pub use classify::{ClassifyError, Portend};
pub use config::{AnalysisStages, PortendConfig};
pub use pipeline::{AnalyzedRace, Pipeline, PipelineResult};
pub use portend_farm::{FarmStats, WorkerStats};
pub use portend_obs::{Trace, TraceConfig};
pub use portend_symex::{CacheSnapshot, WarmPolicy};
pub use report::render_report;
pub use runreport::{
    write_report_file, EventSummary, RaceOutcome, ReportError, RunReport, VerdictReport,
    REPORT_FORMAT_NAME, REPORT_FORMAT_VERSION,
};
pub use taxonomy::{
    ClassifyStats, OutputDiffEvidence, RaceClass, ReplayEvidence, SpecViolationKind, Verdict,
    VerdictDetail,
};
pub use triage::{triage_reports, TriageOutcome};
pub use warm::WarmSource;
