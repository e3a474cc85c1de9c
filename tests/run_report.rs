//! Observability suite: the `portend-obs` recorder and the versioned
//! `RunReport` against *real* pipeline runs.
//!
//! The two non-negotiable properties under test:
//!
//! 1. **Tracing changes nothing.** A traced run's verdicts, work
//!    counters, and cache snapshot are structurally identical to an
//!    untraced run's — on one worker and on several. The recorder only
//!    observes. With several workers the cache's hit/miss split depends
//!    on which worker misses a shared slice first, so a comparison
//!    involving such a run checks only the scheduling-independent cache
//!    counters.
//! 2. **Reports are exact.** A `RunReport` assembled from a live run
//!    round-trips through its JSON rendering to structural equality,
//!    and the reader rejects documents from the future (version bumps)
//!    rather than best-effort parsing them.
//!
//! Plus the determinism contract: a *one-worker* run's merged event
//! sequence is a pure function of (program, inputs, config) modulo
//! timestamps — two identical runs produce identical event skeletons.

use portend_repro::portend::{
    CacheSnapshot, PipelineResult, PortendConfig, ReportError, RunReport, WarmSource,
    REPORT_FORMAT_NAME, REPORT_FORMAT_VERSION,
};
use portend_repro::portend_obs::{json::Json, EventKind, Trace};
use portend_repro::portend_workloads::{by_name, Workload};

/// `w` analyzed with `cfg` on `workers` farm workers and a fresh cache.
fn on_workers(w: &Workload, cfg: PortendConfig, workers: usize) -> PipelineResult {
    w.analyze_streamed(cfg, workers, &WarmSource::default(), &mut |_, _, _| {})
}

fn traced_cfg() -> PortendConfig {
    PortendConfig {
        trace: true,
        ..Default::default()
    }
}

/// Structural equality of everything tracing must not perturb, with
/// full `CacheSnapshot` equality (both runs on one worker).
fn assert_run_unchanged(name: &str, plain: &PipelineResult, traced: &PipelineResult) {
    assert_eq!(
        plain.cache, traced.cache,
        "{name}: tracing changed solver-cache counters"
    );
    assert_verdicts_unchanged(name, plain, traced);
}

/// The cache counters a multi-worker run fixes regardless of scheduling: lookup
/// totals at both granularities, rendered key bytes, resident entries,
/// and the warm-store counters. Which worker misses a shared slice
/// first — and so the hit/miss split — is up to the pool.
fn schedule_free_counters(c: &CacheSnapshot) -> [u64; 9] {
    [
        c.hits + c.misses,
        c.slice_hits + c.slice_misses,
        c.key_bytes,
        c.entries,
        c.warmed,
        c.warm_hits,
        c.warm_validations,
        c.warm_mismatches,
        c.warm_rejected_fingerprint,
    ]
}

/// [`assert_run_unchanged`] for comparisons involving a multi-worker run: the
/// cache is compared through [`schedule_free_counters`] only.
fn assert_farm_run_unchanged(name: &str, plain: &PipelineResult, traced: &PipelineResult) {
    assert_eq!(
        schedule_free_counters(&plain.cache),
        schedule_free_counters(&traced.cache),
        "{name}: tracing changed solver-cache counters ({:?} vs {:?})",
        plain.cache,
        traced.cache
    );
    assert_verdicts_unchanged(name, plain, traced);
}

/// Detection, race count and every verdict (with its work counters)
/// are identical.
fn assert_verdicts_unchanged(name: &str, plain: &PipelineResult, traced: &PipelineResult) {
    assert_eq!(
        plain.record.clusters, traced.record.clusters,
        "{name}: tracing changed detection"
    );
    assert_eq!(
        plain.analyzed.len(),
        traced.analyzed.len(),
        "{name}: tracing changed the number of analyzed races"
    );
    for (p, t) in plain.analyzed.iter().zip(&traced.analyzed) {
        assert_eq!(
            p.verdict, t.verdict,
            "{name}: tracing changed a verdict for {}",
            p.cluster.representative
        );
    }
}

#[test]
fn tracing_on_changes_no_verdict_or_counter_serial() {
    for name in ["ctrace", "bbuf"] {
        let w = by_name(name).expect("workload exists");
        let plain = w.analyze(PortendConfig::default());
        let traced = w.analyze(traced_cfg());
        assert_run_unchanged(name, &plain, &traced);
        assert!(plain.trace.is_none(), "tracing off: no trace handle");
        let trace = traced.trace.as_ref().expect("tracing on: trace handle");
        assert!(trace.total_events() > 0, "{name}: events were recorded");
    }
}

#[test]
fn tracing_on_changes_no_verdict_or_counter_parallel() {
    let w = by_name("ctrace").expect("workload exists");
    let plain = on_workers(&w, PortendConfig::default(), 4);
    let traced = on_workers(&w, traced_cfg(), 4);
    assert_farm_run_unchanged("ctrace/parallel", &plain, &traced);
    // And the parallel traced run agrees with the one-worker traced run.
    let serial = w.analyze(traced_cfg());
    assert_farm_run_unchanged("ctrace/serial-vs-parallel", &serial, &traced);
}

#[test]
fn serial_trace_is_deterministic_modulo_timestamps() {
    let w = by_name("bbuf").expect("workload exists");
    let first = w.analyze(traced_cfg());
    let second = w.analyze(traced_cfg());
    let (a, b) = (
        first.trace.as_ref().expect("traced"),
        second.trace.as_ref().expect("traced"),
    );
    assert_eq!(
        a.skeleton(),
        b.skeleton(),
        "two identical one-worker runs must record identical event sequences \
         (lane names, kinds, names, and arguments; only timestamps may differ)"
    );
    assert!(!a.skeleton().is_empty());
}

#[test]
fn live_report_round_trips_to_structural_equality() {
    let w = by_name("ctrace").expect("workload exists");
    let result = on_workers(&w, traced_cfg(), 3);
    let report = RunReport::from_result("ctrace-live", &result)
        .with_trace(result.trace.as_ref().expect("traced"));
    assert!(!report.races.is_empty(), "corpus workload detects races");
    assert!(report.farm.is_some() && report.cache.is_some() && report.events.is_some());

    let rendered = report.to_json();
    let parsed = RunReport::from_json(&rendered).expect("own documents parse");
    assert_eq!(parsed, report, "round trip must be lossless");
    assert_eq!(parsed.to_json(), rendered, "rendering must be stable");

    // Every FarmStats / CacheSnapshot counter must actually be carried:
    // spot-check through the parsed copy against the live structs.
    let farm = parsed.farm.as_ref().unwrap();
    assert_eq!(farm.jobs, report.races.len() as u64);
    assert_eq!(farm.per_worker.len(), 3);
    let cache = parsed.cache.as_ref().unwrap();
    assert_eq!(
        cache.hits + cache.misses,
        result.cache.hits + result.cache.misses
    );
}

#[test]
fn report_files_land_and_future_versions_are_rejected() {
    let dir = std::env::temp_dir().join(format!("portend-obs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bbuf-report.json");

    let w = by_name("bbuf").expect("workload exists");
    let result = w.analyze(traced_cfg());
    RunReport::from_result("bbuf-file", &result)
        .with_trace(result.trace.as_ref().expect("traced"))
        .write_to(&path)
        .expect("report written");
    let on_disk = RunReport::read_from(&path).expect("report reads back");
    assert_eq!(on_disk.label, "bbuf-file");
    assert_eq!(on_disk.races.len(), result.analyzed.len());
    assert!(
        on_disk.events.is_some(),
        "the report carries the trace summary"
    );

    // A document claiming a future schema version is refused outright —
    // same discipline as the warm store, never a best-effort parse.
    let text = std::fs::read_to_string(&path).unwrap();
    let bumped = text.replacen(
        &format!("\"version\":{REPORT_FORMAT_VERSION}"),
        &format!("\"version\":{}", REPORT_FORMAT_VERSION + 7),
        1,
    );
    assert!(matches!(
        RunReport::from_json(&bumped),
        Err(ReportError::UnsupportedVersion(v)) if v == u64::from(REPORT_FORMAT_VERSION + 7)
    ));
    let renamed = text.replacen(REPORT_FORMAT_NAME, "not-a-portend-report", 1);
    assert!(matches!(
        RunReport::from_json(&renamed),
        Err(ReportError::BadFormat)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

/// One worker lane must carry at least one complete ("X") span.
fn lanes_with_spans(doc: &Json) -> Vec<String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("chrome document has traceEvents");
    // tid -> lane name from the thread_name metadata events.
    let mut names = std::collections::BTreeMap::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("M") {
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            let name = e
                .get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string();
            names.insert(tid, name);
        }
    }
    let mut spanned = std::collections::BTreeSet::new();
    for e in events {
        if e.get("ph").and_then(Json::as_str) == Some("X") {
            let tid = e.get("tid").and_then(Json::as_u64).unwrap();
            spanned.insert(names[&tid].clone());
        }
    }
    spanned.into_iter().collect()
}

#[test]
fn chrome_export_is_well_formed_with_spans_per_worker_and_solver_check() {
    let dir = std::env::temp_dir().join(format!("portend-chrome-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    for name in ["ctrace", "bbuf"] {
        let chrome = dir.join(format!("{name}.trace.json"));
        let w = by_name(name).expect("workload exists");
        let result = on_workers(&w, traced_cfg(), 2);
        let stats = &result.farm;
        let trace: &Trace = result.trace.as_ref().expect("traced");

        // The trace exports well-formed Chrome JSON to disk.
        trace.write_chrome(&chrome).expect("chrome file written");
        let text = std::fs::read_to_string(&chrome).expect("chrome file reads back");
        let doc = portend_repro::portend_obs::json::parse(&text).expect("valid JSON");

        // >= 1 span per working farm worker: every worker lane that ran
        // a job shows up with a complete event. Which worker runs which
        // job is up to the pool (a late-starting worker may find the
        // queue already empty), so the lanes are taken from the stats.
        let spanned = lanes_with_spans(&doc);
        assert_eq!(stats.per_worker.len(), 2);
        for (wk, ws) in stats.per_worker.iter().enumerate() {
            let lane = format!("worker-{wk:02}");
            assert_eq!(
                ws.jobs > 0,
                spanned.contains(&lane),
                "{name}: lane {lane} ran {} jobs (spanned lanes {spanned:?})",
                ws.jobs
            );
        }
        assert!(spanned.iter().any(|l| l.starts_with("worker-")));
        assert!(spanned.contains(&"main".to_string()));

        // >= 1 span per solver check: every SolverCheck event recorded
        // in the merged trace appears as a complete event in the export.
        let recorded_checks: usize = trace
            .lanes
            .iter()
            .flat_map(|l| &l.events)
            .filter(|e| e.kind == EventKind::SolverCheck)
            .count();
        assert!(recorded_checks > 0, "{name}: no solver checks recorded");
        let exported_checks = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Json::as_str) == Some("X")
                    && e.get("name").and_then(Json::as_str) == Some("solver_check")
            })
            .count();
        assert_eq!(
            exported_checks, recorded_checks,
            "{name}: every recorded solver check must export as a span"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
