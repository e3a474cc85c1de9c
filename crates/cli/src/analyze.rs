//! One-shot analysis: the `portend analyze` code path.
//!
//! Each workload runs through [`portend_serve::analyze_request`], the
//! one per-request routine the daemon runs too — workload → fingerprint
//! → managed warm store → streamed verdict frames → terminating report —
//! packaged for a single process invocation. The lines printed here are
//! the lines the daemon writes to its socket, so a script consuming
//! `portend analyze` output needs no changes to consume `portend submit`
//! output, and a `--report-dir` file holds the same bytes as the `done`
//! frame's report.

use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;

use portend::{PipelineResult, PortendConfig, RunReport, WarmSource};
use portend_serve::LineSink;
use portend_symex::{StoreBudget, StoreManager};
use portend_workloads::Workload;

use crate::CliError;

/// Knobs for [`analyze`] (the `portend analyze` flags).
#[derive(Debug, Clone, Default)]
pub struct AnalyzeOptions {
    /// Managed warm-store directory (`--store-dir`). `None` runs
    /// without persistent warmth.
    pub store_dir: Option<PathBuf>,
    /// Store-directory budget (`--max-store-bytes` /
    /// `--max-stores`); `None` keeps [`StoreBudget::default`].
    pub budget: Option<StoreBudget>,
    /// Farm width (`--workers`); `0` = one per CPU.
    pub workers: usize,
    /// Directory for per-workload `RunReport` JSON artifacts
    /// (`--report-dir`).
    pub report_dir: Option<PathBuf>,
    /// Directory for per-workload Chrome trace artifacts (`--chrome-dir`).
    pub chrome_dir: Option<PathBuf>,
    /// Fail (exit nonzero) unless every run shows warm-store activity
    /// (`--assert-warm`) — the CI guard that the second run over a
    /// store directory actually warm-started.
    pub assert_warm: bool,
    /// Suppress streamed frames; artifacts are still written
    /// (`--quiet`).
    pub quiet: bool,
}

/// Analyzes the named workloads (all of them when `names` is empty),
/// streaming verdict frames to `out` and writing any configured
/// artifacts. Returns the per-workload reports in run order.
pub fn analyze(
    names: &[String],
    opts: &AnalyzeOptions,
    out: &mut dyn Write,
) -> Result<Vec<RunReport>, CliError> {
    let workloads = resolve(names)?;
    let manager = match &opts.store_dir {
        Some(dir) => Some(Arc::new(match opts.budget {
            Some(b) => StoreManager::with_budget(dir, b)?,
            None => StoreManager::new(dir)?,
        })),
        None => None,
    };
    if let Some(dir) = &opts.report_dir {
        std::fs::create_dir_all(dir)?;
    }
    if let Some(dir) = &opts.chrome_dir {
        std::fs::create_dir_all(dir)?;
    }

    let mut reports = Vec::with_capacity(workloads.len());
    for (at, w) in workloads.iter().enumerate() {
        let (_, report) = analyze_workload(w, at as u64 + 1, manager.as_ref(), opts, out)?;
        reports.push(report);
    }

    if opts.assert_warm {
        for report in &reports {
            let warm = report
                .cache
                .as_ref()
                .is_some_and(|c| c.warmed > 0 || c.warm_hits > 0);
            if !warm {
                return Err(CliError::new(format!(
                    "--assert-warm: run {:?} shows no warm-store activity (cold start)",
                    report.label
                )));
            }
        }
    }
    Ok(reports)
}

/// Analyzes one workload — the body of the [`analyze`] loop, also the
/// entry point for callers that built their own [`Workload`] (the
/// `quickstart` example wraps an inline IR-builder program this way).
///
/// `request` plays the role of the daemon's request id in the emitted
/// frames; `manager` is the shared store manager, if warmth persists.
/// With `quiet` no frame is rendered. With `chrome_dir` the run is traced
/// and its Chrome trace written to `<dir>/<name>.trace.json`; a failed
/// write fails the call. Returns the raw pipeline result (for callers
/// that render Fig. 6 style reports from it) alongside the assembled run
/// report.
pub fn analyze_workload(
    w: &Workload,
    request: u64,
    manager: Option<&Arc<StoreManager>>,
    opts: &AnalyzeOptions,
    out: &mut dyn Write,
) -> Result<(PipelineResult, RunReport), CliError> {
    let config = PortendConfig {
        trace: opts.chrome_dir.is_some(),
        ..Default::default()
    };
    let warm = WarmSource {
        cache: None,
        store: manager.map(|m| (Arc::clone(m), w.fingerprint())),
    };

    let report_file = opts
        .report_dir
        .as_ref()
        .map(|dir| dir.join(format!("{}.json", w.name)));
    let mut write = |line: &str| out.write_all(line.as_bytes());
    let lines: Option<LineSink<'_>> = if opts.quiet { None } else { Some(&mut write) };
    let (result, report) = portend_serve::analyze_request(
        w,
        request,
        config,
        opts.workers,
        &warm,
        lines,
        report_file.as_deref(),
    )?;
    if let (Some(dir), Some(trace)) = (&opts.chrome_dir, &result.trace) {
        trace.write_chrome(dir.join(format!("{}.trace.json", w.name)))?;
    }
    Ok((result, report))
}

/// Resolves workload names, defaulting to the whole suite.
fn resolve(names: &[String]) -> Result<Vec<Workload>, CliError> {
    if names.is_empty() {
        return Ok(portend_workloads::all());
    }
    names
        .iter()
        .map(|n| {
            portend_workloads::by_name(n)
                .ok_or_else(|| CliError::new(format!("unknown workload {n:?}")))
        })
        .collect()
}
