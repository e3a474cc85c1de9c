//! portend-cli — the `portend` command-line front end.
//!
//! Four subcommands over the same library code paths the daemon and
//! the examples use:
//!
//! - `portend analyze [WORKLOAD…]` — one-shot analysis: streams one
//!   verdict frame per classified race cluster to stdout (the
//!   `portend-serve` wire format), terminated per workload by the full
//!   run report; `--store-dir` warm-starts from (and persists to) a
//!   fingerprint-keyed managed store; `--report-dir` / `--chrome-dir`
//!   write artifacts.
//! - `portend serve` — run the resident daemon on stdio or
//!   `--socket <path>`.
//! - `portend submit` — send one request to a running daemon and relay
//!   its frames.
//! - `portend store ls|gc|rm` — inspect and trim a managed store
//!   directory.
//!
//! Everything is exposed as library functions ([`analyze::analyze`],
//! [`analyze::analyze_workload`], [`submit::submit`], [`storecmd`])
//! so tests, examples, and CI scripts drive the exact code the binary
//! runs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod analyze;
pub mod storecmd;
pub mod submit;

use std::io::Write;
use std::path::PathBuf;

use portend_serve::{Request, Server, ServerConfig};
use portend_symex::StoreBudget;

pub use analyze::{analyze, analyze_workload, AnalyzeOptions};
pub use submit::submit;

/// A command failure: human-readable, printed to stderr by the binary.
#[derive(Debug)]
pub struct CliError(String);

impl CliError {
    /// Wraps a message.
    pub fn new(message: String) -> Self {
        CliError(message)
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

impl From<portend_symex::WarmStoreError> for CliError {
    fn from(e: portend_symex::WarmStoreError) -> Self {
        CliError(e.to_string())
    }
}

/// The usage text (`portend help`).
pub const USAGE: &str = "\
portend — record/replay data-race triage (Portend, ASPLOS 2012 reproduction)

USAGE:
    portend analyze [WORKLOAD…] [--store-dir DIR] [--workers N]
                    [--report-dir DIR] [--chrome-dir DIR]
                    [--max-store-bytes N] [--max-stores N]
                    [--assert-warm] [--quiet]
    portend serve   [--store-dir DIR] [--socket PATH] [--workers N]
                    [--max-store-bytes N] [--max-stores N]
    portend submit  --socket PATH (WORKLOAD | --ping | --shutdown)
                    [--id N] [--workers N]
    portend store   (ls | gc | rm FINGERPRINT) --dir DIR
                    [--max-store-bytes N] [--max-stores N]
    portend help

`analyze` with no workload names runs the whole modeled suite. Frames
stream as line-delimited JSON (see portend-serve's protocol docs);
`--assert-warm` exits nonzero unless every run warm-started from the
managed store.
";

/// Runs the CLI against parsed-out process arguments (everything after
/// the program name), writing frames and listings to `out`. The binary
/// is a thin wrapper; tests call this directly.
pub fn run(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (cmd, rest) = match args.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => {
            write!(out, "{USAGE}")?;
            return Ok(());
        }
    };
    match cmd {
        "analyze" => cmd_analyze(rest, out),
        "serve" => cmd_serve(rest),
        "submit" => cmd_submit(rest, out),
        "store" => cmd_store(rest, out),
        "help" | "--help" | "-h" => {
            write!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(CliError::new(format!(
            "unknown command {other:?} (try `portend help`)"
        ))),
    }
}

/// `portend analyze`.
fn cmd_analyze(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut opts = AnalyzeOptions::default();
    let mut names = Vec::new();
    let mut budget = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store-dir" => opts.store_dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "--report-dir" => opts.report_dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "--chrome-dir" => opts.chrome_dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "--workers" => opts.workers = number(&mut it, arg)? as usize,
            "--max-store-bytes" => budget_mut(&mut budget).max_bytes = number(&mut it, arg)?,
            "--max-stores" => budget_mut(&mut budget).max_stores = number(&mut it, arg)?,
            "--assert-warm" => opts.assert_warm = true,
            "--quiet" => opts.quiet = true,
            flag if flag.starts_with('-') => {
                return Err(CliError::new(format!("unknown analyze flag {flag:?}")))
            }
            name => names.push(name.to_string()),
        }
    }
    opts.budget = budget;
    analyze(&names, &opts, out)?;
    Ok(())
}

/// `portend serve`.
fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let mut config = ServerConfig::default();
    let mut socket = None;
    let mut budget = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--store-dir" => config.store_dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "--socket" => socket = Some(PathBuf::from(value(&mut it, arg)?)),
            "--workers" => config.workers = number(&mut it, arg)? as usize,
            "--max-store-bytes" => budget_mut(&mut budget).max_bytes = number(&mut it, arg)?,
            "--max-stores" => budget_mut(&mut budget).max_stores = number(&mut it, arg)?,
            flag => return Err(CliError::new(format!("unknown serve flag {flag:?}"))),
        }
    }
    config.budget = budget;
    let server = Server::new(config)?;
    match socket {
        #[cfg(unix)]
        Some(path) => server.serve_unix(&path)?,
        #[cfg(not(unix))]
        Some(_) => {
            return Err(CliError::new(
                "`--socket` needs Unix domain sockets".to_string(),
            ))
        }
        None => server.serve_stdio()?,
    }
    Ok(())
}

/// `portend submit`.
fn cmd_submit(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let mut socket = None;
    let mut workload = None;
    let mut id = 1u64;
    let mut workers = 0usize;
    let mut op = None; // "ping" | "shutdown"
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--socket" => socket = Some(PathBuf::from(value(&mut it, arg)?)),
            "--id" => id = number(&mut it, arg)?,
            "--workers" => workers = number(&mut it, arg)? as usize,
            "--ping" => op = Some("ping"),
            "--shutdown" => op = Some("shutdown"),
            flag if flag.starts_with('-') => {
                return Err(CliError::new(format!("unknown submit flag {flag:?}")))
            }
            name => workload = Some(name.to_string()),
        }
    }
    let socket = socket.ok_or_else(|| CliError::new("submit needs --socket PATH".to_string()))?;
    let request = match (op, workload) {
        (Some("ping"), _) => Request::Ping { id },
        (Some("shutdown"), _) => Request::Shutdown { id },
        (None, Some(workload)) => Request::Analyze {
            id,
            workload,
            workers,
        },
        _ => {
            return Err(CliError::new(
                "submit needs a workload name, --ping, or --shutdown".to_string(),
            ))
        }
    };
    submit(&socket, &request, out)?;
    Ok(())
}

/// `portend store ls|gc|rm`.
fn cmd_store(args: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let (verb, rest) = args
        .split_first()
        .ok_or_else(|| CliError::new("store needs a verb: ls, gc, or rm".to_string()))?;
    let mut dir = None;
    let mut budget = None;
    let mut operand = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dir" => dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "--max-store-bytes" => budget_mut(&mut budget).max_bytes = number(&mut it, arg)?,
            "--max-stores" => budget_mut(&mut budget).max_stores = number(&mut it, arg)?,
            flag if flag.starts_with('-') => {
                return Err(CliError::new(format!("unknown store flag {flag:?}")))
            }
            v => operand = Some(v.to_string()),
        }
    }
    let dir = dir.ok_or_else(|| CliError::new("store needs --dir DIR".to_string()))?;
    match verb.as_str() {
        "ls" => storecmd::ls(&dir, out),
        "gc" => storecmd::gc(&dir, budget.unwrap_or_default(), out),
        "rm" => {
            let operand =
                operand.ok_or_else(|| CliError::new("store rm needs a fingerprint".to_string()))?;
            let fp = u64::from_str_radix(operand.trim_start_matches("0x"), 16)
                .map_err(|_| CliError::new(format!("bad fingerprint {operand:?} (hex)")))?;
            storecmd::rm(&dir, fp, out)
        }
        other => Err(CliError::new(format!(
            "unknown store verb {other:?} (ls, gc, rm)"
        ))),
    }
}

/// Pulls a flag's value argument.
fn value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, CliError> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| CliError::new(format!("{flag} needs a value")))
}

/// Pulls a flag's numeric value argument.
fn number(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, CliError> {
    let v = value(it, flag)?;
    v.parse()
        .map_err(|_| CliError::new(format!("{flag} needs a number, got {v:?}")))
}

/// The budget being accumulated by `--max-*` flags, defaulting lazily.
fn budget_mut(slot: &mut Option<StoreBudget>) -> &mut StoreBudget {
    slot.get_or_insert_with(StoreBudget::default)
}

#[cfg(test)]
mod tests {
    use super::*;
    use portend_serve::Frame;

    fn run_ok(args: &[&str]) -> String {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&args, &mut out).unwrap();
        String::from_utf8(out).unwrap()
    }

    #[test]
    fn help_and_unknowns() {
        assert!(run_ok(&["help"]).contains("portend analyze"));
        assert!(run_ok(&[]).contains("USAGE"));
        let mut out = Vec::new();
        let err = run(&["frobnicate".to_string()], &mut out).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        let err = run(
            &["analyze".to_string(), "no-such-workload".to_string()],
            &mut out,
        )
        .unwrap_err();
        assert!(err.to_string().contains("no-such-workload"));
    }

    #[test]
    fn analyze_streams_frames_and_writes_artifacts() {
        let dir = std::env::temp_dir().join(format!("portend-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let reports = dir.join("reports");
        let text = run_ok(&[
            "analyze",
            "bbuf",
            "--workers",
            "2",
            "--report-dir",
            reports.to_str().unwrap(),
        ]);
        let frames: Vec<Frame> = text.lines().map(|l| Frame::parse(l).unwrap()).collect();
        assert!(frames.len() >= 2, "at least one verdict plus done");
        assert!(matches!(frames.last(), Some(Frame::Done { .. })));
        let report = portend::RunReport::read_from(reports.join("bbuf.json")).unwrap();
        assert_eq!(report.label, "bbuf");
        assert_eq!(
            report.races.len(),
            frames.len() - 1,
            "one verdict frame per report race"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A Chrome trace that cannot be written fails the command, as a
    /// report that cannot be written does.
    #[test]
    fn unwritable_chrome_trace_fails_analyze() {
        let dir = std::env::temp_dir().join(format!("portend-cli-chrome-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // A directory where the trace file should land.
        std::fs::create_dir_all(dir.join("bbuf.trace.json")).unwrap();
        let dir_s = dir.to_str().unwrap();
        let args: Vec<String> = ["analyze", "bbuf", "--quiet", "--chrome-dir", dir_s]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let result = run(&args, &mut Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
        assert!(result.is_err(), "a failed --chrome-dir write was swallowed");
    }

    #[test]
    fn store_dir_warms_the_second_run_and_assert_warm_gates() {
        let dir = std::env::temp_dir().join(format!("portend-cli-warm-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = dir.join("store");
        let store_s = store.to_str().unwrap().to_string();

        // Cold first run: --assert-warm must fail.
        let mut out = Vec::new();
        let args: Vec<String> = [
            "analyze",
            "bbuf",
            "--quiet",
            "--store-dir",
            &store_s,
            "--assert-warm",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let err = run(&args, &mut out).unwrap_err();
        assert!(err.to_string().contains("--assert-warm"), "{err}");

        // Second run over the same store dir warm-starts; asserting is fine.
        let warm_args: Vec<String> = args.to_vec();
        run(&warm_args, &mut out).unwrap();

        // The store dir now holds exactly bbuf's fingerprint-keyed store.
        let listing = run_ok(&["store", "ls", "--dir", &store_s]);
        let fp = portend_workloads::by_name("bbuf").unwrap().fingerprint();
        assert!(listing.contains(&format!("{fp:016x}")), "{listing}");
        assert!(listing.contains("1 store(s)"), "{listing}");

        // rm drops it; a second rm is a clean error.
        run_ok(&["store", "rm", &format!("{fp:x}"), "--dir", &store_s]);
        let mut out = Vec::new();
        let rm_args: Vec<String> = ["store", "rm", &format!("{fp:x}"), "--dir", &store_s]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(run(&rm_args, &mut out).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
