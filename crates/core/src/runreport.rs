//! The versioned, machine-readable run report: one JSON document
//! unifying everything a pipeline run can tell you — per-race verdicts
//! with their evidence and work counters, the farm's aggregate and
//! per-worker statistics, the solver-cache snapshot, and the recorded
//! event trace's summary.
//!
//! ## Format
//!
//! A single JSON object, written straight to bytes by
//! [`portend_obs::json`]'s direct writer (in the same
//! no-external-dependencies spirit as `portend_symex::warm`'s binary
//! store). [`RaceOutcome::write_json`] and the report's private
//! document writer are the one serializer: [`RunReport::to_json`],
//! [`RunReport::write_json_spliced`], [`RunReport::write_to`] and the
//! serve daemon's frames all use it, and [`RunReport::to_json_value`]
//! parses its bytes.
//!
//! ```text
//! {
//!   "format":  "portend-run-report",   readers reject anything else
//!   "version": 9,                      readers reject unknown versions
//!   "label":   "...",                  free-form run label
//!   "record_time_ns": …,
//!   "races":   [ { race + verdict/error + counters } … ],
//!   "farm":    { FarmStats + per_worker } | null,
//!   "cache":   { CacheSnapshot } | null,
//!   "events":  { trace summary } | null
//! }
//! ```
//!
//! Every counter is written as a JSON integer (the writer never emits
//! floats), durations as integer nanoseconds — so a report round-trips
//! structurally exactly: `RunReport::from_json(report.to_json())` is
//! equality, which is what makes reports diffable across builds and
//! usable as golden files.
//!
//! ## Versioning rules
//!
//! [`REPORT_FORMAT_VERSION`] follows the same discipline as
//! `portend_symex::WARM_FORMAT_VERSION`: bump it whenever (a) the
//! document shape changes (fields added, removed, or re-typed), or
//! (b) the *semantics* behind an unchanged field change — a counter
//! that starts measuring something else would silently poison any
//! cross-build diff. Version mismatch on read is a clean rejection
//! ([`ReportError::UnsupportedVersion`]), never a best-effort parse.

use std::fmt;
use std::path::Path;
use std::time::Duration;

use portend_farm::{FarmStats, WorkerStats};
use portend_obs::json::{self, write_array, Json, ObjectWriter};
use portend_obs::{EventKind, Trace};
use portend_symex::CacheSnapshot;

use crate::pipeline::{AnalyzedRace, PipelineResult};
use crate::taxonomy::{ClassifyStats, OutputDiffEvidence, Verdict, VerdictDetail};

/// The `"format"` discriminator every report carries.
pub const REPORT_FORMAT_NAME: &str = "portend-run-report";

/// Current report schema version. See the module docs for the rules on
/// when this must be bumped.
///
/// * v2 — added the `"static"` section (static candidate pairs,
///   statically pruned pairs, dynamically corroborated clusters).
/// * v3 — added the nullable `"single_flight"` (claims, deduped
///   slices, waits) and `"dispatch"` (batches, batched jobs, current
///   adaptive threshold) objects inside `"farm"`.
/// * v4 — the `"cache"` object gained `"warm_rejected_fingerprint"`
///   (warm stores rejected at load because their header fingerprint
///   named a different program).
/// * v5 — each verdict's `"stats"` gained `"interpreted"`: the part of
///   the logical `"instructions"` the VM actually interpreted, the rest
///   being fast-forwarded repetitions of exact spin cycles.
/// * v6 — the parallel-slice scheduler was deleted, and its fields
///   with it: `"farm"` lost `"slices_offloaded"`,
///   `"slice_parallel_wall_saved_ns"`, `"single_flight"` and
///   `"dispatch"`; each `"per_worker"` entry lost `"slice_jobs"`; the
///   `"events"` counts lost `"lend"`, `"slice_job"`, `"slice_offload"`,
///   `"slice_dedup"` and `"batch_dispatch"`.
/// * v7 — the farm's soft per-job time budget was deleted: `"farm"`
///   lost `"budget_overruns"`.
/// * v8 — the static pre-analysis left the pipeline: the top-level
///   `"static"` member and `"farm"`'s `"static"` member are gone, and
///   the `"events"` counts lost `"static_pass"` and `"static_prune"`.
/// * v9 — `"farm"` keeps only what the pool measures: it lost
///   `"cache"` (a copy of the top-level `"cache"`), and
///   `"fork_bytes_copied"`, `"fork_bytes_shared"` and
///   `"fork_slices_reused"` (sums of the per-verdict `"stats"`).
pub const REPORT_FORMAT_VERSION: u32 = 9;

/// Why a report document could not be read.
#[derive(Debug)]
pub enum ReportError {
    /// The file could not be read.
    Io(std::io::Error),
    /// The document is not JSON.
    Json(json::JsonError),
    /// The document's `"format"` field is not [`REPORT_FORMAT_NAME`].
    BadFormat,
    /// The document's `"version"` is not [`REPORT_FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// A structural invariant failed; the payload names the first
    /// violated check.
    Malformed(&'static str),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::Io(e) => write!(f, "run report i/o error: {e}"),
            ReportError::Json(e) => write!(f, "run report is not JSON: {e}"),
            ReportError::BadFormat => write!(f, "not a {REPORT_FORMAT_NAME} document"),
            ReportError::UnsupportedVersion(v) => write!(
                f,
                "run report version {v} (this build reads {REPORT_FORMAT_VERSION})"
            ),
            ReportError::Malformed(what) => write!(f, "run report malformed: {what}"),
        }
    }
}

impl std::error::Error for ReportError {}

impl From<std::io::Error> for ReportError {
    fn from(e: std::io::Error) -> Self {
        ReportError::Io(e)
    }
}

impl From<json::JsonError> for ReportError {
    fn from(e: json::JsonError) -> Self {
        ReportError::Json(e)
    }
}

/// One race's reported outcome: identity, classification time, and the
/// verdict (or the classification failure's message).
#[derive(Debug, Clone, PartialEq)]
pub struct RaceOutcome {
    /// Name of the raced-on allocation.
    pub alloc_name: String,
    /// Offset of the raced-on cell within the allocation.
    pub offset: usize,
    /// Dynamic occurrences observed for this cluster.
    pub instances: u64,
    /// The race's human-readable one-liner (the detector's rendering).
    pub display: String,
    /// Wall-clock classification time.
    pub time: Duration,
    /// The verdict, or the infrastructure failure that prevented one.
    pub verdict: Result<VerdictReport, String>,
}

impl RaceOutcome {
    /// Flattens one classified race for interchange — the exact mapping
    /// [`RunReport::from_result`] applies per race, exposed so streaming
    /// front ends produce outcomes identical to the batch report's.
    pub fn from_analyzed(a: &AnalyzedRace) -> Self {
        RaceOutcome {
            alloc_name: a.cluster.representative.alloc_name.clone(),
            offset: a.cluster.representative.offset,
            instances: a.cluster.instances,
            display: a.cluster.representative.to_string(),
            time: a.time,
            verdict: match &a.verdict {
                Ok(v) => Ok(VerdictReport::from_verdict(v)),
                Err(e) => Err(e.0.clone()),
            },
        }
    }

    /// Appends the outcome's canonical JSON object to `out`: the exact
    /// bytes [`RunReport::to_json`] embeds in `"races"`, and the bytes
    /// the serve daemon's verdict frames carry.
    pub fn write_json(&self, out: &mut String) {
        let mut obj = ObjectWriter::open(out);
        obj.str("alloc", &self.alloc_name);
        obj.int("offset", self.offset as u64);
        obj.int("instances", self.instances);
        obj.str("display", &self.display);
        obj.int("time_ns", nanos(self.time));
        match &self.verdict {
            Ok(v) => {
                write_verdict(obj.member("verdict"), v);
                obj.null("error");
            }
            Err(e) => {
                obj.null("verdict");
                obj.str("error", e);
            }
        }
        obj.close();
    }

    /// The outcome's canonical JSON value: [`RaceOutcome::write_json`]'s
    /// bytes, parsed.
    pub fn to_json_value(&self) -> Json {
        let mut out = String::new();
        self.write_json(&mut out);
        json::parse(&out).expect("the report writer emits valid JSON")
    }

    /// Inverse of [`RaceOutcome::to_json_value`].
    pub fn from_json_value(v: &Json) -> Result<RaceOutcome, ReportError> {
        race_from(v)
    }
}

/// One verdict, flattened for interchange: the class label, the `k`
/// certificate, the per-classification work counters, and the evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictReport {
    /// The paper's class label (`specViol`, `outDiff`, `k-witness`,
    /// `singleOrd`).
    pub class: String,
    /// For `k-witness`: the witnessing path × schedule combinations.
    pub k: u64,
    /// Whether the post-race concrete states differed, when computed.
    pub states_differ: Option<bool>,
    /// The classification's work counters (Table 4 / Fig. 9 inputs,
    /// including the fork copy-on-write byte counters).
    pub stats: ClassifyStats,
    /// The verdict's evidence.
    pub detail: DetailReport,
}

impl VerdictReport {
    /// Flattens a [`Verdict`] for interchange. Spec-violation kinds are
    /// reported by their Table 2 column plus the rendered message —
    /// enough to triage and to diff across builds without serializing
    /// VM-internal error types.
    pub fn from_verdict(v: &Verdict) -> Self {
        let detail = match &v.detail {
            VerdictDetail::SpecViolation { kind, replay } => DetailReport::SpecViolation {
                column: kind.table2_column().to_string(),
                message: kind.to_string(),
                inputs: replay.inputs.clone(),
                schedule: replay.schedule.iter().map(|t| u64::from(t.0)).collect(),
                description: replay.description.clone(),
            },
            VerdictDetail::OutputDiff(ev) => DetailReport::OutputDiff(ev.clone()),
            VerdictDetail::KWitness => DetailReport::KWitness,
            VerdictDetail::AdHocSync => DetailReport::AdHocSync,
        };
        VerdictReport {
            class: v.class.label().to_string(),
            k: v.k,
            states_differ: v.states_differ,
            stats: v.stats,
            detail,
        }
    }
}

/// A verdict's evidence, flattened for interchange.
#[derive(Debug, Clone, PartialEq)]
pub enum DetailReport {
    /// A specification violation with its replay recipe.
    SpecViolation {
        /// Table 2 column (`crash`, `deadlock`, `hang`, `semantic`).
        column: String,
        /// The violation, rendered.
        message: String,
        /// Concrete inputs reproducing it.
        inputs: Vec<i64>,
        /// Scheduler decisions (thread ids) reproducing it.
        schedule: Vec<u64>,
        /// What happens on replay.
        description: String,
    },
    /// An output difference with the divergence evidence.
    OutputDiff(OutputDiffEvidence),
    /// Harmless in all explored combinations.
    KWitness,
    /// Alternate ordering impossible (ad-hoc synchronization).
    AdHocSync,
}

/// Summary of the run's recorded event trace: totals per kind plus the
/// solver-level aggregates read off the `solver_check` span arguments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EventSummary {
    /// Events recorded across all lanes.
    pub total: u64,
    /// Per-kind counts (label → count), in [`EventKind::ALL`] order,
    /// kinds that never occurred omitted.
    pub counts: Vec<(String, u64)>,
    /// Satisfiability checks spanned.
    pub solver_checks: u64,
    /// Constraint slices examined across all checks (the sum of the
    /// checks' first span argument).
    pub slices_examined: u64,
    /// Search-tree nodes visited across all checks (second argument).
    pub nodes_visited: u64,
}

impl EventSummary {
    /// Summarizes a merged trace.
    pub fn from_trace(trace: &Trace) -> Self {
        let mut solver_checks = 0u64;
        let mut slices_examined = 0u64;
        let mut nodes_visited = 0u64;
        for lane in &trace.lanes {
            for e in &lane.events {
                if e.kind == EventKind::SolverCheck {
                    solver_checks += 1;
                    slices_examined += e.a;
                    nodes_visited += e.b;
                }
            }
        }
        EventSummary {
            total: trace.total_events(),
            counts: trace
                .counts_by_kind()
                .into_iter()
                .map(|(k, n)| (k.to_string(), n))
                .collect(),
            solver_checks,
            slices_examined,
            nodes_visited,
        }
    }
}

/// The versioned run report. See the module docs for the schema.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RunReport {
    /// Free-form run label (workload name, build id, …).
    pub label: String,
    /// Wall-clock time of the recording phase.
    pub record_time: Duration,
    /// One entry per detected race cluster, in detection order.
    pub races: Vec<RaceOutcome>,
    /// Farm statistics. Every report this build writes carries them;
    /// the field stays nullable for reading.
    pub farm: Option<FarmStats>,
    /// Solver-cache counters. Every report this build writes carries
    /// them; the field stays nullable for reading.
    pub cache: Option<CacheSnapshot>,
    /// Event-trace summary, when the run recorded one.
    pub events: Option<EventSummary>,
}

impl RunReport {
    /// Assembles a report from a pipeline result.
    pub fn from_result(label: impl Into<String>, result: &PipelineResult) -> Self {
        let races = result
            .analyzed
            .iter()
            .map(RaceOutcome::from_analyzed)
            .collect();
        Self::from_outcomes(label, result, races)
    }

    /// [`RunReport::from_result`] with the races already flattened:
    /// `races` holds [`RaceOutcome::from_analyzed`] of each of
    /// `result.analyzed`, in the same (detection) order. Streaming front
    /// ends build each outcome as its race completes and keep it for
    /// the report.
    pub fn from_outcomes(
        label: impl Into<String>,
        result: &PipelineResult,
        races: Vec<RaceOutcome>,
    ) -> Self {
        RunReport {
            label: label.into(),
            record_time: result.record_time,
            races,
            farm: Some(result.farm.clone()),
            cache: Some(result.cache),
            events: None,
        }
    }

    /// The same report, carrying the recorded trace's summary.
    pub fn with_trace(mut self, trace: &Trace) -> Self {
        self.events = Some(EventSummary::from_trace(trace));
        self
    }

    /// Harmful verdicts (`specViol`) in the report.
    pub fn harmful(&self) -> u64 {
        self.races
            .iter()
            .filter(|r| matches!(&r.verdict, Ok(v) if v.class == "specViol"))
            .count() as u64
    }

    /// Renders the report as its canonical compact JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_document(&mut out, |out| {
            write_array(out, &self.races, |out, race| race.write_json(out));
        });
        out
    }

    /// Appends [`RunReport::to_json`]'s bytes to `out`, splicing
    /// `"races"` from bytes already rendered: `races` yields [`RaceOutcome::write_json`] of
    /// each of the report's races, in order. A front end that rendered
    /// each race for its verdict frame reuses those bytes here, so the
    /// frame and the report carry the same bytes by construction.
    pub fn write_json_spliced<'r>(
        &self,
        races: impl IntoIterator<Item = &'r str>,
        out: &mut String,
    ) {
        self.write_document(out, |out| {
            write_array(out, races, |out, race| out.push_str(race));
        });
    }

    /// The report document around a `"races"` array written by `races`.
    fn write_document(&self, out: &mut String, races: impl FnOnce(&mut String)) {
        let mut obj = ObjectWriter::open(out);
        obj.str("format", REPORT_FORMAT_NAME);
        obj.int("version", REPORT_FORMAT_VERSION);
        obj.str("label", &self.label);
        obj.int("record_time_ns", nanos(self.record_time));
        races(obj.member("races"));
        write_or_null(obj.member("farm"), self.farm.as_ref(), write_farm);
        write_or_null(obj.member("cache"), self.cache.as_ref(), write_cache);
        write_or_null(obj.member("events"), self.events.as_ref(), write_events);
        obj.close();
    }

    /// The report as a [`Json`] value: [`RunReport::to_json`]'s bytes,
    /// parsed. In-process readers that walk the document (the serve
    /// tests, benchmarks) use it; renderers use [`RunReport::to_json`]
    /// or [`RunReport::write_json_spliced`].
    pub fn to_json_value(&self) -> Json {
        json::parse(&self.to_json()).expect("the report writer emits valid JSON")
    }

    /// Parses a report document, rejecting wrong formats and versions
    /// (see the module docs' versioning rules).
    pub fn from_json(input: &str) -> Result<RunReport, ReportError> {
        Self::from_json_value(&json::parse(input)?)
    }

    /// Inverse of [`RunReport::to_json_value`]: parses a report embedded
    /// as a [`Json`] value (e.g. inside a protocol frame), with the same
    /// format/version rejection rules as [`RunReport::from_json`].
    pub fn from_json_value(doc: &Json) -> Result<RunReport, ReportError> {
        if doc.get("format").and_then(Json::as_str) != Some(REPORT_FORMAT_NAME) {
            return Err(ReportError::BadFormat);
        }
        let version = doc
            .get("version")
            .and_then(Json::as_u64)
            .ok_or(ReportError::Malformed("missing version"))?;
        if version != u64::from(REPORT_FORMAT_VERSION) {
            return Err(ReportError::UnsupportedVersion(version as u32));
        }
        Ok(RunReport {
            label: req_str(doc, "label")?.to_string(),
            record_time: dur_from(doc, "record_time_ns")?,
            races: doc
                .get("races")
                .and_then(Json::as_arr)
                .ok_or(ReportError::Malformed("missing races"))?
                .iter()
                .map(race_from)
                .collect::<Result<_, _>>()?,
            farm: match doc.get("farm") {
                None | Some(Json::Null) => None,
                Some(v) => Some(farm_from(v)?),
            },
            cache: match doc.get("cache") {
                None | Some(Json::Null) => None,
                Some(v) => Some(cache_from(v)?),
            },
            events: match doc.get("events") {
                None | Some(Json::Null) => None,
                Some(v) => Some(events_from(v)?),
            },
        })
    }

    /// Writes [`RunReport::to_json`] to `path` atomically (see
    /// [`write_report_file`]).
    pub fn write_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_report_file(path, &self.to_json())
    }

    /// Reads and parses a report from `path`.
    pub fn read_from(path: impl AsRef<Path>) -> Result<RunReport, ReportError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

/// Writes a rendered report document to `path` atomically (by rename,
/// like the warm store — readers never observe a torn report).
pub fn write_report_file(path: impl AsRef<Path>, doc: &str) -> std::io::Result<()> {
    let path = path.as_ref();
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, doc)?;
    std::fs::rename(&tmp, path)
}

// ---- serialization helpers (writer side) ----------------------------

/// A duration as the report's integer nanoseconds.
fn nanos(d: Duration) -> i128 {
    d.as_nanos() as i128
}

fn write_or_null<T>(out: &mut String, value: Option<&T>, write: fn(&mut String, &T)) {
    match value {
        Some(v) => write(out, v),
        None => out.push_str("null"),
    }
}

fn write_ints<T: Copy + Into<i128>>(out: &mut String, items: &[T]) {
    write_array(out, items, |out, &n| json::write_int(out, n.into()));
}

fn write_verdict(out: &mut String, v: &VerdictReport) {
    let mut obj = ObjectWriter::open(out);
    obj.str("class", &v.class);
    obj.int("k", v.k);
    match v.states_differ {
        Some(differ) => obj.bool("states_differ", differ),
        None => obj.null("states_differ"),
    }
    write_classify_stats(obj.member("stats"), &v.stats);
    write_detail(obj.member("detail"), &v.detail);
    obj.close();
}

fn write_classify_stats(out: &mut String, s: &ClassifyStats) {
    let mut obj = ObjectWriter::open(out);
    obj.int("primaries", s.primaries);
    obj.int("alternates", s.alternates);
    obj.int("preemptions", s.preemptions);
    obj.int("dependent_branches", s.dependent_branches);
    obj.int("instructions", s.instructions);
    obj.int("interpreted", s.interpreted);
    obj.int("max_path_instructions", s.max_path_instructions);
    obj.int("bytes_copied_on_fork", s.bytes_copied_on_fork);
    obj.int("bytes_shared_on_fork", s.bytes_shared_on_fork);
    obj.int("slices_reused_at_fork", s.slices_reused_at_fork);
    obj.close();
}

fn write_detail(out: &mut String, d: &DetailReport) {
    let mut obj = ObjectWriter::open(out);
    match d {
        DetailReport::SpecViolation {
            column,
            message,
            inputs,
            schedule,
            description,
        } => {
            obj.str("type", "spec_violation");
            obj.str("column", column);
            obj.str("message", message);
            write_ints(obj.member("inputs"), inputs);
            write_ints(obj.member("schedule"), schedule);
            obj.str("description", description);
        }
        DetailReport::OutputDiff(ev) => {
            obj.str("type", "output_diff");
            obj.int("position", ev.position as u64);
            obj.str("primary", &ev.primary);
            obj.str("alternate", &ev.alternate);
            for (key, fd) in [
                ("primary_fd", ev.primary_fd),
                ("alternate_fd", ev.alternate_fd),
            ] {
                match fd {
                    Some(fd) => obj.int(key, fd),
                    None => obj.null(key),
                }
            }
            obj.int("primary_len", ev.primary_len as u64);
            obj.int("alternate_len", ev.alternate_len as u64);
            obj.str("primary_loc", &ev.primary_loc);
            write_ints(obj.member("inputs"), &ev.inputs);
        }
        DetailReport::KWitness => obj.str("type", "k_witness"),
        DetailReport::AdHocSync => obj.str("type", "adhoc_sync"),
    }
    obj.close();
}

fn write_farm(out: &mut String, s: &FarmStats) {
    let mut obj = ObjectWriter::open(out);
    obj.int("jobs", s.jobs);
    obj.int("wall_ns", nanos(s.wall));
    obj.int("busy_total_ns", nanos(s.busy_total));
    obj.int("steals", s.steals);
    write_array(obj.member("per_worker"), &s.per_worker, |out, w| {
        let mut worker = ObjectWriter::open(out);
        worker.int("jobs", w.jobs);
        worker.int("steals", w.steals);
        worker.int("busy_ns", nanos(w.busy));
        worker.close();
    });
    obj.close();
}

fn write_cache(out: &mut String, c: &CacheSnapshot) {
    let mut obj = ObjectWriter::open(out);
    obj.int("hits", c.hits);
    obj.int("misses", c.misses);
    obj.int("slice_hits", c.slice_hits);
    obj.int("slice_misses", c.slice_misses);
    obj.int("key_bytes", c.key_bytes);
    obj.int("entries", c.entries);
    obj.int("evictions", c.evictions);
    obj.int("second_chances", c.second_chances);
    obj.int("warmed", c.warmed);
    obj.int("warm_hits", c.warm_hits);
    obj.int("warm_validations", c.warm_validations);
    obj.int("warm_mismatches", c.warm_mismatches);
    obj.int("warm_rejected_fingerprint", c.warm_rejected_fingerprint);
    obj.close();
}

fn write_events(out: &mut String, e: &EventSummary) {
    let mut obj = ObjectWriter::open(out);
    obj.int("total", e.total);
    let mut counts = ObjectWriter::open(obj.member("counts"));
    for (kind, n) in &e.counts {
        counts.int(kind, *n);
    }
    counts.close();
    obj.int("solver_checks", e.solver_checks);
    obj.int("slices_examined", e.slices_examined);
    obj.int("nodes_visited", e.nodes_visited);
    obj.close();
}

// ---- deserialization helpers (reader side) --------------------------

fn req_str<'a>(v: &'a Json, key: &'static str) -> Result<&'a str, ReportError> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or(ReportError::Malformed(key))
}

fn req_u64(v: &Json, key: &'static str) -> Result<u64, ReportError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or(ReportError::Malformed(key))
}

fn req_usize(v: &Json, key: &'static str) -> Result<usize, ReportError> {
    usize::try_from(req_u64(v, key)?).map_err(|_| ReportError::Malformed(key))
}

fn dur_from(v: &Json, key: &'static str) -> Result<Duration, ReportError> {
    Ok(Duration::from_nanos(req_u64(v, key)?))
}

fn i64_arr(v: &Json, key: &'static str) -> Result<Vec<i64>, ReportError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or(ReportError::Malformed(key))?
        .iter()
        .map(|x| x.as_i64().ok_or(ReportError::Malformed(key)))
        .collect()
}

fn race_from(v: &Json) -> Result<RaceOutcome, ReportError> {
    let verdict = match (v.get("verdict"), v.get("error")) {
        (Some(Json::Null) | None, Some(Json::Str(e))) => Err(e.clone()),
        (Some(obj), _) if !matches!(obj, Json::Null) => Ok(verdict_from(obj)?),
        _ => return Err(ReportError::Malformed("race has neither verdict nor error")),
    };
    Ok(RaceOutcome {
        alloc_name: req_str(v, "alloc")?.to_string(),
        offset: req_usize(v, "offset")?,
        instances: req_u64(v, "instances")?,
        display: req_str(v, "display")?.to_string(),
        time: dur_from(v, "time_ns")?,
        verdict,
    })
}

fn verdict_from(v: &Json) -> Result<VerdictReport, ReportError> {
    let stats = v
        .get("stats")
        .ok_or(ReportError::Malformed("verdict stats"))?;
    Ok(VerdictReport {
        class: req_str(v, "class")?.to_string(),
        k: req_u64(v, "k")?,
        states_differ: match v.get("states_differ") {
            None | Some(Json::Null) => None,
            Some(b) => Some(b.as_bool().ok_or(ReportError::Malformed("states_differ"))?),
        },
        stats: ClassifyStats {
            primaries: req_u64(stats, "primaries")?,
            alternates: req_u64(stats, "alternates")?,
            preemptions: req_u64(stats, "preemptions")?,
            dependent_branches: req_u64(stats, "dependent_branches")?,
            instructions: req_u64(stats, "instructions")?,
            interpreted: req_u64(stats, "interpreted")?,
            max_path_instructions: req_u64(stats, "max_path_instructions")?,
            bytes_copied_on_fork: req_u64(stats, "bytes_copied_on_fork")?,
            bytes_shared_on_fork: req_u64(stats, "bytes_shared_on_fork")?,
            slices_reused_at_fork: req_u64(stats, "slices_reused_at_fork")?,
        },
        detail: detail_from(
            v.get("detail")
                .ok_or(ReportError::Malformed("verdict detail"))?,
        )?,
    })
}

fn detail_from(v: &Json) -> Result<DetailReport, ReportError> {
    match req_str(v, "type")? {
        "spec_violation" => Ok(DetailReport::SpecViolation {
            column: req_str(v, "column")?.to_string(),
            message: req_str(v, "message")?.to_string(),
            inputs: i64_arr(v, "inputs")?,
            schedule: v
                .get("schedule")
                .and_then(Json::as_arr)
                .ok_or(ReportError::Malformed("schedule"))?
                .iter()
                .map(|x| x.as_u64().ok_or(ReportError::Malformed("schedule")))
                .collect::<Result<_, _>>()?,
            description: req_str(v, "description")?.to_string(),
        }),
        "output_diff" => Ok(DetailReport::OutputDiff(OutputDiffEvidence {
            position: req_usize(v, "position")?,
            primary: req_str(v, "primary")?.to_string(),
            alternate: req_str(v, "alternate")?.to_string(),
            primary_fd: match v.get("primary_fd") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_i64().ok_or(ReportError::Malformed("primary_fd"))?),
            },
            alternate_fd: match v.get("alternate_fd") {
                None | Some(Json::Null) => None,
                Some(x) => Some(x.as_i64().ok_or(ReportError::Malformed("alternate_fd"))?),
            },
            primary_len: req_usize(v, "primary_len")?,
            alternate_len: req_usize(v, "alternate_len")?,
            primary_loc: req_str(v, "primary_loc")?.to_string(),
            inputs: i64_arr(v, "inputs")?,
        })),
        "k_witness" => Ok(DetailReport::KWitness),
        "adhoc_sync" => Ok(DetailReport::AdHocSync),
        _ => Err(ReportError::Malformed("unknown detail type")),
    }
}

fn farm_from(v: &Json) -> Result<FarmStats, ReportError> {
    Ok(FarmStats {
        jobs: req_u64(v, "jobs")?,
        wall: dur_from(v, "wall_ns")?,
        busy_total: dur_from(v, "busy_total_ns")?,
        per_worker: v
            .get("per_worker")
            .and_then(Json::as_arr)
            .ok_or(ReportError::Malformed("per_worker"))?
            .iter()
            .map(|w| {
                Ok(WorkerStats {
                    jobs: req_u64(w, "jobs")?,
                    steals: req_u64(w, "steals")?,
                    busy: dur_from(w, "busy_ns")?,
                })
            })
            .collect::<Result<_, ReportError>>()?,
        steals: req_u64(v, "steals")?,
    })
}

fn cache_from(v: &Json) -> Result<CacheSnapshot, ReportError> {
    Ok(CacheSnapshot {
        hits: req_u64(v, "hits")?,
        misses: req_u64(v, "misses")?,
        slice_hits: req_u64(v, "slice_hits")?,
        slice_misses: req_u64(v, "slice_misses")?,
        key_bytes: req_u64(v, "key_bytes")?,
        entries: req_u64(v, "entries")?,
        evictions: req_u64(v, "evictions")?,
        second_chances: req_u64(v, "second_chances")?,
        warmed: req_u64(v, "warmed")?,
        warm_hits: req_u64(v, "warm_hits")?,
        warm_validations: req_u64(v, "warm_validations")?,
        warm_mismatches: req_u64(v, "warm_mismatches")?,
        warm_rejected_fingerprint: req_u64(v, "warm_rejected_fingerprint")?,
    })
}

fn events_from(v: &Json) -> Result<EventSummary, ReportError> {
    Ok(EventSummary {
        total: req_u64(v, "total")?,
        counts: v
            .get("counts")
            .and_then(Json::as_obj)
            .ok_or(ReportError::Malformed("counts"))?
            .iter()
            .map(|(k, n)| {
                Ok((
                    k.clone(),
                    n.as_u64().ok_or(ReportError::Malformed("counts"))?,
                ))
            })
            .collect::<Result<_, ReportError>>()?,
        solver_checks: req_u64(v, "solver_checks")?,
        slices_examined: req_u64(v, "slices_examined")?,
        nodes_visited: req_u64(v, "nodes_visited")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taxonomy::{RaceClass, ReplayEvidence, SpecViolationKind};
    use portend_vm::ThreadId;

    fn sample_report() -> RunReport {
        let verdict = Verdict {
            class: RaceClass::SpecViolated,
            detail: VerdictDetail::SpecViolation {
                kind: SpecViolationKind::Semantic {
                    message: "ts < 0".into(),
                },
                replay: ReplayEvidence {
                    inputs: vec![3, -7],
                    schedule: vec![ThreadId(0), ThreadId(2), ThreadId(1)],
                    description: "negative timestamp printed".into(),
                },
            },
            k: 0,
            states_differ: Some(true),
            stats: ClassifyStats {
                primaries: 5,
                alternates: 10,
                instructions: 123_456,
                interpreted: 23_456,
                bytes_copied_on_fork: 1 << 40,
                ..Default::default()
            },
        };
        RunReport {
            label: "sample \"quoted\"\nlabel".into(),
            record_time: Duration::from_micros(1500),
            races: vec![
                RaceOutcome {
                    alloc_name: "balance".into(),
                    offset: 4,
                    instances: 12,
                    display: "balance[4]: W@t1 / R@t2".into(),
                    time: Duration::from_millis(31),
                    verdict: Ok(VerdictReport::from_verdict(&verdict)),
                },
                RaceOutcome {
                    alloc_name: "flag".into(),
                    offset: 0,
                    instances: 1,
                    display: "flag[0]".into(),
                    time: Duration::from_nanos(999),
                    verdict: Err("race not reproducible".into()),
                },
            ],
            farm: Some(FarmStats {
                jobs: 2,
                wall: Duration::from_millis(40),
                busy_total: Duration::from_millis(62),
                per_worker: vec![
                    WorkerStats {
                        jobs: 1,
                        steals: 1,
                        busy: Duration::from_millis(31),
                    },
                    WorkerStats::default(),
                ],
                steals: 1,
            }),
            cache: Some(CacheSnapshot {
                hits: 7,
                misses: 3,
                slice_hits: 40,
                slice_misses: 8,
                key_bytes: 1 << 20,
                entries: 48,
                evictions: 1,
                second_chances: 2,
                warmed: 30,
                warm_hits: 25,
                warm_validations: 3,
                warm_mismatches: 0,
                warm_rejected_fingerprint: 1,
            }),
            events: Some(EventSummary {
                total: 60,
                counts: vec![("phase".into(), 2), ("solver_check".into(), 58)],
                solver_checks: 58,
                slices_examined: 174,
                nodes_visited: 9_000,
            }),
        }
    }

    #[test]
    fn report_round_trips_structurally() {
        let report = sample_report();
        let rendered = report.to_json();
        let parsed = RunReport::from_json(&rendered).expect("own documents parse");
        assert_eq!(parsed, report);
        // And the canonical rendering is stable under the cycle.
        assert_eq!(parsed.to_json(), rendered);
    }

    /// `sample_report().to_json()` as the tree-building writer rendered
    /// it, captured once: the direct writer must keep every byte.
    const SAMPLE_REPORT_JSON: &str = r#"{"format":"portend-run-report","version":9,"label":"sample \"quoted\"\nlabel","record_time_ns":1500000,"races":[{"alloc":"balance","offset":4,"instances":12,"display":"balance[4]: W@t1 / R@t2","time_ns":31000000,"verdict":{"class":"specViol","k":0,"states_differ":true,"stats":{"primaries":5,"alternates":10,"preemptions":0,"dependent_branches":0,"instructions":123456,"interpreted":23456,"max_path_instructions":0,"bytes_copied_on_fork":1099511627776,"bytes_shared_on_fork":0,"slices_reused_at_fork":0},"detail":{"type":"spec_violation","column":"semantic","message":"semantic violation: ts < 0","inputs":[3,-7],"schedule":[0,2,1],"description":"negative timestamp printed"}},"error":null},{"alloc":"flag","offset":0,"instances":1,"display":"flag[0]","time_ns":999,"verdict":null,"error":"race not reproducible"}],"farm":{"jobs":2,"wall_ns":40000000,"busy_total_ns":62000000,"steals":1,"per_worker":[{"jobs":1,"steals":1,"busy_ns":31000000},{"jobs":0,"steals":0,"busy_ns":0}]},"cache":{"hits":7,"misses":3,"slice_hits":40,"slice_misses":8,"key_bytes":1048576,"entries":48,"evictions":1,"second_chances":2,"warmed":30,"warm_hits":25,"warm_validations":3,"warm_mismatches":0,"warm_rejected_fingerprint":1},"events":{"total":60,"counts":{"phase":2,"solver_check":58},"solver_checks":58,"slices_examined":174,"nodes_visited":9000}}"#;

    #[test]
    fn report_bytes_match_the_pinned_format() {
        let report = sample_report();
        assert_eq!(report.to_json(), SAMPLE_REPORT_JSON);
        assert_eq!(report.to_json_value().render(), SAMPLE_REPORT_JSON);
        let races: Vec<String> = report
            .races
            .iter()
            .map(|r| {
                let mut out = String::new();
                r.write_json(&mut out);
                assert_eq!(r.to_json_value().render(), out);
                out
            })
            .collect();
        let mut spliced = String::new();
        report.write_json_spliced(races.iter().map(String::as_str), &mut spliced);
        assert_eq!(spliced, SAMPLE_REPORT_JSON);
    }

    #[test]
    fn report_rejects_wrong_format_and_version() {
        let report = sample_report();
        let rendered = report.to_json();
        let bumped = rendered.replacen(
            &format!("\"version\":{REPORT_FORMAT_VERSION}"),
            &format!("\"version\":{}", REPORT_FORMAT_VERSION + 1),
            1,
        );
        assert!(matches!(
            RunReport::from_json(&bumped),
            Err(ReportError::UnsupportedVersion(v)) if v == REPORT_FORMAT_VERSION + 1
        ));
        let renamed = rendered.replacen(REPORT_FORMAT_NAME, "some-other-format", 1);
        assert!(matches!(
            RunReport::from_json(&renamed),
            Err(ReportError::BadFormat)
        ));
        assert!(matches!(
            RunReport::from_json("{\"truncated\":"),
            Err(ReportError::Json(_))
        ));
    }

    #[test]
    fn harmful_counts_spec_violations_only() {
        let report = sample_report();
        assert_eq!(report.harmful(), 1);
    }
}
