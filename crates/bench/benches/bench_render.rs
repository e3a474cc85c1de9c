//! Render benchmark: what streaming frames cost `portend analyze`.
//!
//! One pass analyzes the 11 corpus workloads through
//! `portend_cli::analyze_workload`, the `portend analyze` code path,
//! with a fresh solver cache per workload. Passes alternate between
//! rendering frames and `quiet` (no frames), so host drift hits both
//! sides alike. The bench prints the median µs per pass of each, the
//! median paired difference (what the frames cost), and the frame bytes
//! per pass.
//!
//! It asserts, on the first pass, that every verdict frame's race bytes
//! occur verbatim in its request's `done` frame, and that `quiet`
//! writes nothing. Both hold by construction; the tier-1 tests in
//! `tests/serve_stream.rs` pin the bytes more strictly.
//!
//! `cargo bench -p portend-bench --bench bench_render [-- --passes N]`
//! (default: 200 passes of each kind).

use std::time::Instant;

use portend_cli::{analyze_workload, AnalyzeOptions};
use portend_workloads::Workload;

/// Farm width of every pass, perfbench's width on a 2-vCPU host.
const WORKERS: usize = 2;

/// Analyzes every workload once, writing frames to `out`; returns the
/// pass's wall time in µs.
fn pass(workloads: &[Workload], opts: &AnalyzeOptions, out: &mut Vec<u8>) -> f64 {
    out.clear();
    let start = Instant::now();
    for (at, w) in workloads.iter().enumerate() {
        analyze_workload(w, at as u64 + 1, None, opts, out).expect("analysis runs");
    }
    start.elapsed().as_secs_f64() * 1e6
}

/// Checks that each verdict line's race bytes occur in the `done` line
/// that ends its request; returns the number of verdict lines.
fn check_splice(frames: &str) -> usize {
    let mut races = Vec::new();
    let mut verdicts = 0;
    for line in frames.lines() {
        if line.starts_with("{\"frame\":\"verdict\",") {
            let (_, race) = line.split_once(",\"race\":").expect("verdict has a race");
            races.push(race.strip_suffix('}').expect("race closes the frame"));
            verdicts += 1;
        } else {
            assert!(line.starts_with("{\"frame\":\"done\","), "{line}");
            for race in races.drain(..) {
                assert!(line.contains(race), "race bytes missing from done: {race}");
            }
        }
    }
    assert!(races.is_empty(), "verdicts after the last done frame");
    verdicts
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The value after `flag` on the command line, if any.
fn arg(flag: &str) -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    let at = args.iter().position(|a| a == flag)?;
    Some(args.get(at + 1)?.parse().expect("a number"))
}

fn main() {
    let passes = arg("--passes").unwrap_or(200).max(1);
    let workloads = portend_workloads::all();
    let frames_opts = AnalyzeOptions {
        workers: WORKERS,
        ..Default::default()
    };
    let quiet_opts = AnalyzeOptions {
        quiet: true,
        ..frames_opts.clone()
    };

    let mut out = Vec::new();
    pass(&workloads, &frames_opts, &mut out);
    let bytes = out.len();
    let verdicts = check_splice(std::str::from_utf8(&out).expect("UTF-8 frames"));
    pass(&workloads, &quiet_opts, &mut out);
    assert!(out.is_empty(), "quiet renders no frames");

    let (mut frames, mut quiet, mut cost) = (Vec::new(), Vec::new(), Vec::new());
    for at in 0..passes {
        // Alternate which side goes first within each pair.
        let (f, q) = if at % 2 == 0 {
            let f = pass(&workloads, &frames_opts, &mut out);
            (f, pass(&workloads, &quiet_opts, &mut out))
        } else {
            let q = pass(&workloads, &quiet_opts, &mut out);
            (pass(&workloads, &frames_opts, &mut out), q)
        };
        frames.push(f);
        quiet.push(q);
        cost.push(f - q);
    }

    println!(
        "render benchmark: {} workloads, {WORKERS} workers, {passes} interleaved passes each",
        workloads.len()
    );
    println!("  frames: {:>9.1} us/pass (median)", median(&mut frames));
    println!("  quiet:  {:>9.1} us/pass (median)", median(&mut quiet));
    println!(
        "  frames cost: {:>9.1} us/pass (median paired difference)",
        median(&mut cost)
    );
    println!("  frame bytes: {bytes} per pass ({verdicts} verdict frames)");
}
