//! The event taxonomy: what the analysis pipeline can emit.

/// The kind of one recorded event — the complete vocabulary the
/// pipeline's layers emit. Each kind is either a *span* (has a
/// duration: phase bodies, solver checks, slice solves, worker jobs) or
/// an *instant* (a point fact: a fork, a cache probe).
///
/// The taxonomy maps onto the layers of the engine:
///
/// | kind | layer | span? | `a` | `b` |
/// |------|-------|-------|-----|-----|
/// | [`Phase`] | pipeline | yes | — | — |
/// | [`Job`] | farm worker | yes | job index | unused (0) |
/// | [`SolverCheck`] | solver | yes | slices examined | nodes visited |
/// | [`SliceSolve`] | solver | yes | slice position | nodes visited |
/// | [`CacheProbe`] | solver cache | no | 0 whole / 1 slice | 0 miss / 1 hit / 2 probation |
/// | [`Fork`] | vm | no | bytes copied | bytes shared |
/// | [`WarmLoad`] | warm store | yes | entries loaded | 1 if load succeeded |
/// | [`WarmSave`] | warm store | yes | entries written | bytes written |
/// | [`RequestStart`] | serve front end | no | request id | program fingerprint |
/// | [`StoreEvict`] | store manager | no | evicted fingerprint | bytes reclaimed |
///
/// [`Phase`]: EventKind::Phase
/// [`Job`]: EventKind::Job
/// [`SolverCheck`]: EventKind::SolverCheck
/// [`SliceSolve`]: EventKind::SliceSolve
/// [`CacheProbe`]: EventKind::CacheProbe
/// [`Fork`]: EventKind::Fork
/// [`WarmLoad`]: EventKind::WarmLoad
/// [`WarmSave`]: EventKind::WarmSave
/// [`RequestStart`]: EventKind::RequestStart
/// [`StoreEvict`]: EventKind::StoreEvict
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EventKind {
    /// A named pipeline phase (record, classify, join, …); the `name`
    /// field carries the phase name.
    Phase,
    /// One classification job executing on a farm worker.
    Job,
    /// One satisfiability check (whole-query or sliced).
    SolverCheck,
    /// One cold constraint slice actually solved.
    SliceSolve,
    /// One solver-cache lookup.
    CacheProbe,
    /// One copy-on-write state fork.
    Fork,
    /// Warming the solver cache from the persistent store.
    WarmLoad,
    /// Persisting the solver cache's hot entries back to the store.
    WarmSave,
    /// An analysis request accepted by a front end (the CLI's one-shot
    /// `analyze` or the daemon's protocol loop).
    RequestStart,
    /// The store manager evicted a per-program store to stay within its
    /// directory budget.
    StoreEvict,
}

impl EventKind {
    /// Every kind, in rendering order.
    pub const ALL: [EventKind; 10] = [
        EventKind::Phase,
        EventKind::Job,
        EventKind::SolverCheck,
        EventKind::SliceSolve,
        EventKind::CacheProbe,
        EventKind::Fork,
        EventKind::WarmLoad,
        EventKind::WarmSave,
        EventKind::RequestStart,
        EventKind::StoreEvict,
    ];

    /// The kind's stable label (used by the exporters and the report's
    /// event summary).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Phase => "phase",
            EventKind::Job => "job",
            EventKind::SolverCheck => "solver_check",
            EventKind::SliceSolve => "slice_solve",
            EventKind::CacheProbe => "cache_probe",
            EventKind::Fork => "fork",
            EventKind::WarmLoad => "warm_load",
            EventKind::WarmSave => "warm_save",
            EventKind::RequestStart => "request_start",
            EventKind::StoreEvict => "store_evict",
        }
    }

    /// The layer of the engine that emits this kind (the Chrome trace
    /// category).
    pub fn category(self) -> &'static str {
        match self {
            EventKind::Phase => "pipeline",
            EventKind::Job => "farm",
            EventKind::SolverCheck | EventKind::SliceSolve => "solver",
            EventKind::CacheProbe => "cache",
            EventKind::Fork => "vm",
            EventKind::WarmLoad | EventKind::WarmSave | EventKind::StoreEvict => "warm",
            EventKind::RequestStart => "serve",
        }
    }

    /// Whether events of this kind carry a duration (Chrome `"X"`
    /// complete events) as opposed to being instants (`"i"`).
    pub fn is_span(self) -> bool {
        !matches!(
            self,
            EventKind::CacheProbe
                | EventKind::Fork
                | EventKind::RequestStart
                | EventKind::StoreEvict
        )
    }
}

/// One recorded event.
///
/// `ts_ns` is the start offset from the recorder's epoch; spans carry
/// their duration in `dur_ns` (instants leave it `0`). `a` and `b` are
/// the kind-specific arguments documented on [`EventKind`]. Everything
/// except the two timestamps is deterministic for a deterministic
/// execution — the property the merged-trace determinism test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// What happened.
    pub kind: EventKind,
    /// Sub-label (the phase name for [`EventKind::Phase`]; the kind's
    /// own label elsewhere).
    pub name: &'static str,
    /// Start offset from the recorder epoch, in nanoseconds.
    pub ts_ns: u64,
    /// Duration in nanoseconds; `0` for instants.
    pub dur_ns: u64,
    /// First kind-specific argument.
    pub a: u64,
    /// Second kind-specific argument.
    pub b: u64,
}

/// An event's timestamp-free identity `(kind, name, a, b)` — what two
/// identical runs must agree on event-for-event.
pub type EventSkeleton = (EventKind, &'static str, u64, u64);

impl Event {
    /// The event's timestamp-free identity (see [`EventSkeleton`]).
    pub fn skeleton(&self) -> EventSkeleton {
        (self.kind, self.name, self.a, self.b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct_and_cover_all() {
        let mut labels: Vec<&str> = EventKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), EventKind::ALL.len());
    }

    #[test]
    fn span_instant_split_matches_taxonomy() {
        assert!(EventKind::Phase.is_span());
        assert!(EventKind::SolverCheck.is_span());
        assert!(!EventKind::Fork.is_span());
        assert!(!EventKind::CacheProbe.is_span());
        assert_eq!(EventKind::Fork.category(), "vm");
        assert_eq!(EventKind::Job.category(), "farm");
        assert_eq!(EventKind::SliceSolve.category(), "solver");
        assert!(!EventKind::RequestStart.is_span());
        assert!(!EventKind::StoreEvict.is_span());
        assert_eq!(EventKind::RequestStart.category(), "serve");
        assert_eq!(EventKind::StoreEvict.category(), "warm");
    }
}
