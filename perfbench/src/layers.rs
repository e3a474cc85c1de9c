//! The traced run's per-layer view, measured from outside the program.
//!
//! [`reproduce`] replays what `Pipeline::run` does through the layers'
//! public entry points — `portend_replay::record`, then
//! `portend_sa::analyze`, then `Portend::with_cache` + `classify` per
//! cluster representative — with a benchmark-owned
//! `portend_obs::Recorder` lane around each call. Attaching the lane
//! also captures the spans the program already emits on this thread
//! (`solver_check`, `slice_solve`, `fork`, `cache_probe`). [`SpanTotals`]
//! turns one lane into total and self time per span name.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use portend::{AnalysisCase, PipelineResult, Portend, PortendConfig, RaceOutcome, RunReport};
use portend_obs::{EventKind, Recorder, Trace};
use portend_replay::{record, RecordConfig};
use portend_serve::Frame;
use portend_symex::SolverCache;
use portend_vm::{drive, DriveCfg, InputMode, InputSource, InputSpec, Machine, NullMonitor};

use crate::subject::{Counters, Subject};

/// Span names the benchmark records around the layer calls.
pub const REQUEST: &str = "bench_request";
/// Recording under the race detector (`portend-replay` + `portend-race`).
pub const RECORD: &str = "bench_record";
/// The static lockset/MHP pass (`portend-sa`).
pub const SA: &str = "bench_sa";
/// One cluster's classification (`portend`).
pub const CLASSIFY: &str = "bench_classify";
/// Verdict-frame and report rendering (`portend-obs` JSON via `portend-serve`).
pub const RENDER: &str = "bench_render";

/// What one reproduced request did.
#[derive(Debug, Clone, Default)]
pub struct Repro {
    /// Per-cluster classification wall times, detection order.
    pub classify: Vec<Duration>,
    /// Ground-truth disagreements.
    pub mismatches: u64,
    /// Deterministic counters (`solves` from the cache's delta).
    pub counters: Counters,
    /// Recorded schedule decisions.
    pub trace_events: u64,
    /// Dynamic race instances the detector reported.
    pub race_instances: u64,
    /// Static candidate pairs.
    pub sa_candidates: u64,
    /// Solver-cache hits (whole-query plus slice) during the request.
    pub cache_hits: u64,
    /// Summed `ClassifyStats` fields: preemptions, primaries,
    /// alternates, dependent branches.
    pub preemptions: u64,
    /// See [`Repro::preemptions`].
    pub primaries: u64,
    /// See [`Repro::preemptions`].
    pub alternates: u64,
    /// See [`Repro::preemptions`].
    pub dependent_branches: u64,
    /// Fork bytes copied.
    pub fork_copied: u64,
    /// Fork bytes shared.
    pub fork_shared: u64,
    /// Constraint slices reused at forks.
    pub slices_reused: u64,
    /// Classifications that failed.
    pub errors: u64,
    /// The lane's events, when traced.
    pub trace: Option<Trace>,
}

/// Reproduces one request of `subject` from outside: record, static
/// pass, classification of every cluster with `cache`, and — when
/// `render` holds this program's pipeline result — the frame and report
/// rendering a streaming front end performs. With `recorder`, each call
/// runs inside a span on a lane of that recorder.
pub fn reproduce(
    subject: &Subject,
    cache: &Arc<SolverCache>,
    render: Option<&PipelineResult>,
    recorder: Option<&Recorder>,
) -> Repro {
    let lane = recorder.map(|r| r.attach("bench", 0));
    let before = cache.snapshot();
    let request = portend_obs::span_named(EventKind::Phase, REQUEST);

    let run = {
        let _s = portend_obs::span_named(EventKind::Phase, RECORD);
        let cfg = RecordConfig {
            scheduler: subject.scheduler.clone(),
            vm: subject.vm,
            ..Default::default()
        };
        record(&subject.program, subject.inputs.clone(), cfg)
    };
    let sa_candidates = {
        let _s = portend_obs::span_named(EventKind::Phase, SA);
        portend_sa::analyze(&subject.program).stats().candidates
    };
    let mut case = AnalysisCase::concrete(Arc::clone(&subject.program), run.trace.clone())
        .with_input_spec(subject.input_spec.clone())
        .with_vm(subject.vm);
    for p in &subject.predicates {
        case = case.with_predicate(p.clone());
    }
    let portend = Portend::with_cache(PortendConfig::default(), Arc::clone(cache));
    let mut out = Repro {
        trace_events: run.trace.schedule.len() as u64,
        race_instances: run.races.len() as u64,
        sa_candidates,
        ..Default::default()
    };
    let mut labels = Vec::with_capacity(run.clusters.len());
    for cluster in &run.clusters {
        let t = Instant::now();
        let verdict = {
            let _s = portend_obs::span_named(EventKind::Phase, CLASSIFY);
            portend.classify(&case, &cluster.representative)
        };
        out.classify.push(t.elapsed());
        let alloc = cluster.representative.alloc_name.as_str();
        match &verdict {
            Ok(v) => {
                let s = &v.stats;
                out.counters.add_verdict(
                    Some(v.class.label()),
                    s.instructions,
                    s.bytes_copied_on_fork + s.bytes_shared_on_fork,
                );
                out.preemptions += s.preemptions;
                out.primaries += s.primaries;
                out.alternates += s.alternates;
                out.dependent_branches += s.dependent_branches;
                out.fork_copied += s.bytes_copied_on_fork;
                out.fork_shared += s.bytes_shared_on_fork;
                out.slices_reused += s.slices_reused_at_fork;
                labels.push((alloc, Some(v.class.label())));
            }
            Err(_) => {
                out.counters.add_verdict(None, 0, 0);
                out.errors += 1;
                labels.push((alloc, None));
            }
        }
    }
    if let Some(result) = render {
        let _s = portend_obs::span_named(EventKind::Phase, RENDER);
        std::hint::black_box(render_frames(subject.name, result));
    }
    drop(request);
    out.mismatches = subject.mismatches(labels);

    let after = cache.snapshot();
    out.counters.solves =
        (after.misses + after.slice_misses).saturating_sub(before.misses + before.slice_misses);
    out.cache_hits =
        (after.hits + after.slice_hits).saturating_sub(before.hits + before.slice_hits);
    drop(lane);
    out.trace = recorder.map(Recorder::finish);
    out
}

/// Renders what a streaming front end writes for `result`: one verdict
/// frame per race and the terminating report frame. Returns the bytes
/// rendered.
pub fn render_frames(name: &str, result: &PipelineResult) -> usize {
    let mut bytes = 0;
    for (index, race) in result.analyzed.iter().enumerate() {
        let frame = Frame::Verdict {
            request: 1,
            seq: index as u64,
            index: index as u64,
            race: RaceOutcome::from_analyzed(race).to_json_value(),
        };
        bytes += frame.render().len();
    }
    let done = Frame::Done {
        request: 1,
        report: RunReport::from_result(name, result).to_json_value(),
    };
    bytes + done.render().len()
}

/// Total and self time per span name, plus the solver nodes the
/// program's own `solver_check` spans carry.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    /// `name → (total ns, self ns, count)`.
    pub spans: BTreeMap<&'static str, (u64, u64, u64)>,
    /// Solver nodes visited (`solver_check` spans' `b` argument).
    pub solver_nodes: u64,
}

impl SpanTotals {
    /// Folds every lane of `trace` in. A span's self time is its
    /// duration minus the durations of the spans directly inside it.
    pub fn add(&mut self, trace: &Trace) {
        for lane in &trace.lanes {
            let mut spans: Vec<_> = lane.events.iter().filter(|e| e.kind.is_span()).collect();
            spans.sort_by_key(|e| (e.ts_ns, std::cmp::Reverse(e.dur_ns)));
            let mut child_ns = vec![0u64; spans.len()];
            let mut open: Vec<usize> = Vec::new();
            for (i, e) in spans.iter().enumerate() {
                while let Some(&top) = open.last() {
                    if spans[top].ts_ns + spans[top].dur_ns >= e.ts_ns + e.dur_ns {
                        break;
                    }
                    open.pop();
                }
                if let Some(&parent) = open.last() {
                    child_ns[parent] += e.dur_ns;
                }
                open.push(i);
            }
            for (e, children) in spans.iter().zip(child_ns) {
                let slot = self.spans.entry(e.name).or_default();
                slot.0 += e.dur_ns;
                slot.1 += e.dur_ns.saturating_sub(children);
                slot.2 += 1;
                if e.kind == EventKind::SolverCheck {
                    self.solver_nodes += e.b;
                }
            }
        }
    }

    /// Total ns of spans named `name`.
    pub fn total(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }

    /// Self ns of spans named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }

    /// How many spans named `name` were recorded.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.2)
    }
}

/// Plain interpretation of `subject`: `drive` with `NullMonitor` on its
/// concrete inputs under its recording scheduler. Returns the steps
/// executed and the fastest of `reps` timings.
pub fn drive_plain(subject: &Subject, reps: usize) -> (u64, Duration) {
    let mut best = Duration::MAX;
    let mut steps = 0;
    let cfg = DriveCfg {
        max_steps: RecordConfig::default().max_steps,
        ..Default::default()
    };
    for _ in 0..reps.max(1) {
        let mut m = Machine::new(
            Arc::clone(&subject.program),
            InputSource::new(
                InputSpec::concrete(subject.inputs.clone()),
                InputMode::Concrete,
            ),
            subject.vm,
        );
        let mut sched = subject.scheduler.clone();
        let t = Instant::now();
        std::hint::black_box(drive(&mut m, &mut sched, &mut NullMonitor, &cfg));
        best = best.min(t.elapsed());
        steps = m.steps;
    }
    (steps, best)
}
