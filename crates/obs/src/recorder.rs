//! The recorder: per-thread lock-free event buffers, lane guards, and
//! the deterministic end-of-run merge.
//!
//! ## Model
//!
//! A [`Recorder`] owns the run's clock epoch and collects *lanes* — one
//! per participating thread role ("main", "worker-00", …). A thread
//! joins by calling [`Recorder::attach`], which installs a thread-local
//! buffer; every emission ([`span`], [`instant`]) is then a plain
//! `Vec::push` into that thread-owned buffer — no locks, no atomics on
//! the hot path. When the returned [`LaneGuard`] drops (worker exit,
//! end of the run), the buffer is flushed into the recorder
//! under a single lock. Threads that never attached pay one
//! thread-local read and a branch per emission site and allocate
//! nothing — the recorder-off configuration is free.
//!
//! ## Determinism of the merge
//!
//! [`Recorder::finish`] orders lanes by `(sort, name)` — keys chosen by
//! the attach sites from *logical* identity (worker index, role), never
//! from thread ids or completion order — and keeps each lane's events
//! in emission order. For a deterministic execution (a one-worker
//! pipeline run under a fixed seed), the merged sequence of
//! [`Event::skeleton`]s is therefore identical across runs; only the
//! two timestamp fields vary. The workspace `tests/run_report.rs`
//! determinism test pins exactly this.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::{Event, EventKind, EventSkeleton};

/// One thread role's flushed event buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Lane {
    /// Logical lane name ("main", "worker-03", …).
    pub name: String,
    /// Merge-order key; ties break on `name`. Chosen from logical
    /// identity by the attach site, so the merge is deterministic.
    pub sort: u32,
    /// Events in emission order.
    pub events: Vec<Event>,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    lanes: Mutex<Vec<Lane>>,
}

/// The per-run event recorder. Cheap to clone (an `Arc`); hand clones
/// to every component that spawns recording threads.
#[derive(Debug, Clone)]
pub struct Recorder {
    inner: Arc<Inner>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// A fresh recorder; its creation instant is the trace epoch.
    pub fn new() -> Self {
        Recorder {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                lanes: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Attaches the calling thread to this recorder as lane
    /// `(sort, name)` and returns the guard that flushes the lane on
    /// drop. Emissions from this thread land in the lane until then.
    ///
    /// Attaching is stack-like: a nested attach (e.g. a helper
    /// borrowing a thread that already records) shadows the outer lane
    /// and restores it on drop.
    #[must_use = "dropping the guard immediately detaches the lane"]
    pub fn attach(&self, name: impl Into<String>, sort: u32) -> LaneGuard {
        let prev = LANE.with(|l| {
            l.borrow_mut().replace(ActiveLane {
                inner: Arc::clone(&self.inner),
                name: name.into(),
                sort,
                events: Vec::new(),
            })
        });
        LaneGuard { prev }
    }

    /// Drains every flushed lane and merges them deterministically:
    /// lanes ordered by `(sort, name)`, events in emission order within
    /// each lane. Lanes attached after this call go into a subsequent
    /// `finish`.
    pub fn finish(&self) -> Trace {
        let mut lanes = std::mem::take(&mut *self.inner.lanes.lock().expect("recorder poisoned"));
        lanes.sort_by(|x, y| (x.sort, &x.name).cmp(&(y.sort, &y.name)));
        Trace { lanes }
    }
}

/// The active lane: the calling thread's private buffer. Only this
/// thread touches `events` until the flush, which is what makes
/// emission lock-free.
struct ActiveLane {
    inner: Arc<Inner>,
    name: String,
    sort: u32,
    events: Vec<Event>,
}

impl ActiveLane {
    fn flush(self) {
        self.inner
            .lanes
            .lock()
            .expect("recorder poisoned")
            .push(Lane {
                name: self.name,
                sort: self.sort,
                events: self.events,
            });
    }
}

thread_local! {
    static LANE: RefCell<Option<ActiveLane>> = const { RefCell::new(None) };
}

/// Flushes the attached lane into its recorder on drop and restores
/// whatever lane the thread had before (see [`Recorder::attach`]).
#[must_use = "dropping the guard immediately detaches the lane"]
pub struct LaneGuard {
    prev: Option<ActiveLane>,
}

impl Drop for LaneGuard {
    fn drop(&mut self) {
        let restored = self.prev.take();
        if let Some(lane) = LANE.with(|l| std::mem::replace(&mut *l.borrow_mut(), restored)) {
            lane.flush();
        }
    }
}

/// Whether the calling thread currently records into a lane.
///
/// Emission sites never need to call this — [`span`] and [`instant`]
/// are self-guarding — but it lets callers skip *preparing* expensive
/// arguments.
pub fn enabled() -> bool {
    LANE.with(|l| l.borrow().is_some())
}

/// Emits an instant event into the calling thread's lane; a no-op (one
/// thread-local read) when the thread is not attached.
pub fn instant(kind: EventKind, a: u64, b: u64) {
    LANE.with(|l| {
        if let Some(lane) = l.borrow_mut().as_mut() {
            let ts_ns = lane.inner.epoch.elapsed().as_nanos() as u64;
            lane.events.push(Event {
                kind,
                name: kind.label(),
                ts_ns,
                dur_ns: 0,
                a,
                b,
            });
        }
    });
}

/// Opens a span of `kind` named after the kind itself; see [`span_named`].
pub fn span(kind: EventKind) -> Span {
    span_named(kind, kind.label())
}

/// Opens a span: the returned guard emits one complete event covering
/// its own lifetime when dropped. Inert (no clock read, no allocation)
/// when the thread is not attached. Arguments can be filled in before
/// the drop with [`Span::args`].
pub fn span_named(kind: EventKind, name: &'static str) -> Span {
    Span {
        start: enabled().then(Instant::now),
        kind,
        name,
        a: 0,
        b: 0,
    }
}

/// An open span; emits its event on drop. See [`span_named`].
#[must_use = "dropping the span immediately records a zero-length event"]
#[derive(Debug)]
pub struct Span {
    start: Option<Instant>,
    kind: EventKind,
    name: &'static str,
    a: u64,
    b: u64,
}

impl Span {
    /// Sets the span's kind-specific arguments (often only known at the
    /// end of the measured region, e.g. a check's examined-slice count).
    pub fn args(&mut self, a: u64, b: u64) {
        self.a = a;
        self.b = b;
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        LANE.with(|l| {
            if let Some(lane) = l.borrow_mut().as_mut() {
                lane.events.push(Event {
                    kind: self.kind,
                    name: self.name,
                    ts_ns: start.saturating_duration_since(lane.inner.epoch).as_nanos() as u64,
                    dur_ns: start.elapsed().as_nanos() as u64,
                    a: self.a,
                    b: self.b,
                });
            }
        });
    }
}

/// The merged result of one recorded run: every lane, deterministically
/// ordered (see [`Recorder::finish`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Lanes ordered by `(sort, name)`.
    pub lanes: Vec<Lane>,
}

impl Trace {
    /// Total events across all lanes.
    pub fn total_events(&self) -> u64 {
        self.lanes.iter().map(|l| l.events.len() as u64).sum()
    }

    /// Event counts per kind label, in [`EventKind::ALL`] order,
    /// omitting kinds that never occurred.
    pub fn counts_by_kind(&self) -> Vec<(&'static str, u64)> {
        EventKind::ALL
            .iter()
            .filter_map(|&k| {
                let n = self
                    .lanes
                    .iter()
                    .flat_map(|l| &l.events)
                    .filter(|e| e.kind == k)
                    .count() as u64;
                (n > 0).then(|| (k.label(), n))
            })
            .collect()
    }

    /// The timestamp-free view of the merged sequence: per event, the
    /// lane name plus [`Event::skeleton`]. Two identical deterministic
    /// runs produce equal skeletons — the determinism contract.
    pub fn skeleton(&self) -> Vec<(String, EventSkeleton)> {
        self.lanes
            .iter()
            .flat_map(|l| l.events.iter().map(|e| (l.name.clone(), e.skeleton())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unattached_emission_is_a_no_op() {
        assert!(!enabled());
        instant(EventKind::Fork, 1, 2);
        let mut s = span(EventKind::SolverCheck);
        s.args(3, 4);
        drop(s);
        // Nothing to observe — the point is that none of this panicked
        // or leaked into a recorder created later.
        let rec = Recorder::new();
        assert_eq!(rec.finish().total_events(), 0);
    }

    #[test]
    fn events_flush_on_guard_drop_and_merge_by_sort_key() {
        let rec = Recorder::new();
        {
            let _g = rec.attach("zeta", 5);
            instant(EventKind::Fork, 10, 20);
        }
        {
            let _g = rec.attach("alpha", 5);
            instant(EventKind::CacheProbe, 1, 0);
            let mut s = span_named(EventKind::Phase, "record");
            s.args(7, 0);
            drop(s);
        }
        let trace = rec.finish();
        assert_eq!(trace.lanes.len(), 2);
        // Equal sort keys order by name.
        assert_eq!(trace.lanes[0].name, "alpha");
        assert_eq!(trace.lanes[1].name, "zeta");
        assert_eq!(trace.total_events(), 3);
        let skel = trace.skeleton();
        assert_eq!(skel[0].1, (EventKind::CacheProbe, "cache_probe", 1, 0));
        assert_eq!(skel[1].1, (EventKind::Phase, "record", 7, 0));
        assert_eq!(skel[2].1, (EventKind::Fork, "fork", 10, 20));
        assert_eq!(
            trace.counts_by_kind(),
            vec![("phase", 1), ("cache_probe", 1), ("fork", 1)]
        );
        // Lanes were drained; a second finish is empty.
        assert_eq!(rec.finish().total_events(), 0);
    }

    #[test]
    fn nested_attach_shadows_and_restores() {
        let outer = Recorder::new();
        let inner = Recorder::new();
        let _og = outer.attach("outer", 0);
        instant(EventKind::Fork, 1, 0);
        {
            let _ig = inner.attach("inner", 0);
            instant(EventKind::Fork, 2, 0);
        }
        instant(EventKind::Fork, 3, 0);
        drop(_og);
        let o = outer.finish();
        let i = inner.finish();
        assert_eq!(
            o.skeleton()
                .iter()
                .map(|(_, (_, _, a, _))| *a)
                .collect::<Vec<_>>(),
            vec![1, 3]
        );
        assert_eq!(i.total_events(), 1);
        assert_eq!(i.lanes[0].events[0].a, 2);
    }

    #[test]
    fn spans_measure_time_and_instants_do_not() {
        let rec = Recorder::new();
        {
            let _g = rec.attach("main", 0);
            let _s = span(EventKind::SolverCheck);
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let trace = rec.finish();
        let e = trace.lanes[0].events[0];
        assert!(e.dur_ns >= 1_000_000, "span measured its region: {e:?}");
        assert_eq!(e.kind, EventKind::SolverCheck);
    }

    #[test]
    fn worker_threads_record_into_their_own_lanes() {
        let rec = Recorder::new();
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let rec = rec.clone();
                std::thread::spawn(move || {
                    let _g = rec.attach(format!("worker-{w:02}"), 100 + w);
                    for i in 0..10 {
                        instant(EventKind::Fork, w as u64, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let trace = rec.finish();
        assert_eq!(trace.lanes.len(), 4);
        assert_eq!(trace.total_events(), 40);
        let names: Vec<&str> = trace.lanes.iter().map(|l| l.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["worker-00", "worker-01", "worker-02", "worker-03"],
            "merge order comes from sort keys, not completion order"
        );
    }
}
