//! perfbench — the end-to-end and per-layer benchmark of the Portend
//! reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus-cli|serve-repeat|idioms-serial \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload is a closed loop: one client in this process sends
//! its next request when the previous one has answered. Farm width is
//! the CPU count. The request order is drawn from `--seed`; the
//! programs only ever see the generated requests.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. Their
//! times are scaled to nominal host speed by a probe run between
//! request rounds (see `host.rs`); the raw figures go to standard error.
//! `--trace 1` is the separate traced run: it times the layers' public
//! entry points from these files (see `layers.rs`) and reports the
//! per-layer metrics, the Table-4 rendition, and the coverage check on
//! standard error. Either way every request's verdicts are checked
//! against the labeled ground truth, and the per-program deterministic
//! counters (instructions, solves, fork bytes, clusters, verdict
//! classes) must repeat exactly — within the run, and across runs of
//! the same build (kept next to the binary). The last line of standard
//! output is the JSON result.

#![forbid(unsafe_code)]

mod bench;
mod corpus;
mod host;
mod idioms;
mod layers;
mod serve;
mod subject;
mod util;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::{Args, Ctx, Outcome, Spec};
use subject::Counters;

const WORKLOADS: [&Spec; 3] = [&corpus::SPEC, &serve::SPEC, &idioms::SPEC];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// FNV-1a over the running binary: the same build hashes the same.
fn build_id() -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    Ok(bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    }))
}

/// Compares this run's fingerprint with the one an earlier run of the
/// same build stored, adds programs it lacked, and returns every
/// difference.
fn check_fingerprint(
    dir: &Path,
    workload: &str,
    mine: &BTreeMap<&'static str, Counters>,
) -> Result<Vec<String>, String> {
    let path = dir.join(format!("{workload}-{:016x}.txt", build_id()?));
    let stored = std::fs::read_to_string(&path).unwrap_or_default();
    let mut lines: BTreeMap<String, String> = stored
        .lines()
        .filter_map(|l| {
            l.split_once(' ')
                .map(|(p, _)| (p.to_string(), l.to_string()))
        })
        .collect();
    let mut diffs = Vec::new();
    for (program, counters) in mine {
        let line = counters.line(program);
        match lines.get(*program) {
            Some(prev) if *prev != line => {
                diffs.push(format!("earlier run: {prev}\n   this run: {line}"))
            }
            Some(_) => {}
            None => {
                lines.insert(program.to_string(), line);
            }
        }
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let tmp = path.with_extension("tmp");
    let body: String = lines.values().map(|l| format!("{l}\n")).collect();
    std::fs::write(&tmp, body)
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(diffs)
}

fn run(args: &Args) -> Result<(Outcome, bool), String> {
    let spec = WORKLOADS
        .iter()
        .find(|s| s.name == args.workload)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
            format!(
                "unknown workload {:?} (one of {})",
                args.workload,
                names.join(", ")
            )
        })?;
    let exe_dir: PathBuf = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .parent()
        .ok_or("binary has no directory")?
        .to_path_buf();
    let ctx = Ctx {
        workers: std::thread::available_parallelism().map_or(1, |n| n.get()),
        trace: args.trace,
        work_dir: exe_dir
            .join("perfbench-work")
            .join(std::process::id().to_string()),
    };
    eprintln!(
        "{}: seed {}, {} s, trace {}, farm width {} (available_parallelism)",
        spec.name, args.seed, args.seconds, args.trace as u8, ctx.workers
    );
    let outcome = bench::run(spec, args, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);
    let outcome = outcome?;

    eprintln!("deterministic-counter fingerprint ({}):", spec.name);
    for (program, counters) in &outcome.fingerprint {
        eprintln!("  {}", counters.line(program));
    }
    let stored = exe_dir.join("perfbench-fingerprints");
    let cross = check_fingerprint(&stored, spec.name, &outcome.fingerprint)?;
    for d in outcome.drift.iter().chain(&cross) {
        eprintln!("FINGERPRINT MISMATCH {d}");
    }
    eprintln!(
        "verdict_mismatches {} failed_ratio {}",
        outcome.mismatches,
        util::ratio(outcome.failed as f64, outcome.attempted as f64)
    );
    let correct = outcome.mismatches == 0 && outcome.drift.is_empty() && cross.is_empty();
    Ok((outcome, correct))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((outcome, correct)) => {
            println!(
                "{}",
                util::result_line(correct, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
