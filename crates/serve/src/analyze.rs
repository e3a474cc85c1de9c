//! One `analyze` request, start to finish: the routine behind both
//! front ends (the daemon's requests and `portend analyze`).

use std::io;
use std::path::Path;

use portend::{PipelineResult, PortendConfig, RaceOutcome, RunReport, WarmSource};
use portend_workloads::Workload;

use crate::protocol::{write_done, write_verdict};

/// Receives one finished frame line, newline included.
pub type LineSink<'a> = &'a mut dyn FnMut(&str) -> io::Result<()>;

/// Runs `w`'s pipeline for request `request` and emits its frames.
///
/// As the farm yields each race, its [`RaceOutcome`] is built once and
/// rendered once; the verdict line wraps those bytes, and `lines`
/// receives it at once. After the pipeline, the report is assembled from
/// the same outcomes and its document splices the same race bytes: the
/// `done` line wraps that document, and `report_file` (when given)
/// receives it byte for byte.
///
/// With neither `lines` nor `report_file` nothing is rendered. Once
/// `lines` fails, no further line is rendered; the error is returned
/// after the pipeline finishes, and no report file is written.
pub fn analyze_request(
    w: &Workload,
    request: u64,
    config: PortendConfig,
    workers: usize,
    warm: &WarmSource,
    mut lines: Option<LineSink<'_>>,
    report_file: Option<&Path>,
) -> io::Result<(PipelineResult, RunReport)> {
    let render = lines.is_some() || report_file.is_some();
    // (detection index, outcome, its bytes when rendered), in completion
    // order.
    let mut races: Vec<(usize, RaceOutcome, String)> = Vec::new();
    let mut line = String::new();
    let mut failed = None;
    let result = w.analyze_streamed(config, workers, warm, &mut |seq, index, race| {
        let outcome = RaceOutcome::from_analyzed(race);
        let mut race_json = String::new();
        if render && failed.is_none() {
            outcome.write_json(&mut race_json);
            if let Some(emit) = lines.as_mut() {
                line.clear();
                write_verdict(&mut line, request, seq, index as u64, |out| {
                    out.push_str(&race_json);
                });
                line.push('\n');
                failed = emit(&line).err();
            }
        }
        races.push((index, outcome, race_json));
    });
    if let Some(e) = failed {
        return Err(e);
    }

    races.sort_by_key(|(index, ..)| *index);
    let (outcomes, rendered): (Vec<_>, Vec<_>) = races
        .into_iter()
        .map(|(_, outcome, race_json)| (outcome, race_json))
        .unzip();
    let report = RunReport::from_outcomes(w.name, &result, outcomes);
    if render {
        let mut doc = String::new();
        report.write_json_spliced(rendered.iter().map(String::as_str), &mut doc);
        if let Some(emit) = lines {
            line.clear();
            write_done(&mut line, request, |out| out.push_str(&doc));
            line.push('\n');
            emit(&line)?;
        }
        if let Some(path) = report_file {
            portend_obs::write_atomic(path, doc.as_bytes())?;
        }
    }
    Ok((result, report))
}
