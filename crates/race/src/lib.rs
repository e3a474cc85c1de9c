//! # portend-race — the dynamic data race detector
//!
//! The race detector of the Portend reproduction (Kasikci, Zamfir,
//! Candea — ASPLOS 2012):
//!
//! * [`HbDetector`] — the happens-before detector Portend uses natively
//!   (paper §3.1), built on [`VectorClock`]s with FastTrack-style epochs.
//!   Sound for the observed execution: no false positives unless
//!   configured to ignore mutexes ([`DetectorConfig::ignore_mutexes`]),
//!   which models the imprecise detector of the §5.2 robustness
//!   experiment.
//! * [`RaceReport`] / [`cluster_races`] — dynamic occurrences and the
//!   paper's §4 clustering into distinct races. A report from another
//!   tool is a [`RaceReport`] built by hand and classified like any
//!   other.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod hb;
mod report;
mod vector_clock;

pub use hb::{DetectorConfig, HbDetector};
pub use report::{cluster_races, RaceAccess, RaceCluster, RaceKey, RaceReport};
pub use vector_clock::VectorClock;
