//! Static pre-analysis report: record every modeled workload the way
//! its pipeline does, run the lockset/MHP pass over its program, and
//! count how many of the recorded race clusters the static candidate
//! set covers.
//!
//! Run with: `cargo run --release --example static_report`
//!
//! Exits non-zero if any workload has a dynamic cluster that the static
//! candidate set does not cover — the inclusion
//! `tests/static_differential.rs` checks race by race, restated as a
//! per-workload table.

use portend_replay::{record, RecordConfig};
use portend_workloads::all;

fn main() {
    println!("=== static lockset/MHP pre-analysis, per workload ===\n");
    println!(
        "{:<12} {:>10} {:>8} {:>12} {:>8}",
        "workload", "candidates", "pruned", "corroborated", "clusters"
    );

    let mut failures = 0usize;
    for w in all() {
        // The recording `Workload::analyze` makes: the workload's
        // scheduler and VM under the default (mutex-tracking) detector.
        let run = record(
            &w.program,
            w.inputs.clone(),
            RecordConfig {
                scheduler: w.record_scheduler.clone(),
                vm: w.vm,
                ..Default::default()
            },
        );
        let sa = portend_sa::analyze(&w.program);
        let stats = sa.stats();
        // The detector tracks mutex edges, so lock pruning applies.
        let corroborated = run
            .clusters
            .iter()
            .filter(|c| {
                let rep = &c.representative;
                let (lo, hi) = rep.pc_pair();
                sa.covers(rep.alloc, lo, hi, true)
            })
            .count();
        let clusters = run.clusters.len();
        let ok = corroborated == clusters;
        println!(
            "{:<12} {:>10} {:>8} {:>12} {:>8}{}",
            w.name,
            stats.candidates,
            stats.pruned,
            corroborated,
            clusters,
            if ok { "" } else { "  <-- NOT COVERED" }
        );
        if !ok {
            failures += 1;
        }
    }

    if failures > 0 {
        eprintln!("{failures} workload(s) with uncorroborated dynamic clusters");
        std::process::exit(1);
    }
}
