//! Full triage run: detect and classify the races of every modeled
//! workload through the `portend-cli` front end (the same code path as
//! `portend analyze`), print a prioritized bug-triage list (harmful
//! races first — the paper's §1 motivation: "developers are better
//! informed and can fix the critical bugs first"), score accuracy
//! against ground truth, and emit one machine-readable `RunReport`
//! JSON per workload.
//!
//! Run with: `cargo run --example triage_report [output-dir]`
//! (reports default to `target/triage-reports/<workload>.json`; the
//! warm-store directory sits next to them, so a second run of this
//! example warm-starts every workload from its fingerprint-keyed
//! store).

use std::path::PathBuf;
use std::sync::Arc;

use portend::{RaceClass, RunReport};
use portend_cli::{analyze_workload, AnalyzeOptions};
use portend_symex::StoreManager;
use portend_workloads::{all, ScoreCard};

fn main() {
    let out_dir = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target/triage-reports"));
    std::fs::create_dir_all(&out_dir).expect("create report directory");

    // The CLI analysis options: quiet (this example prints a human
    // triage list, not the frame stream), reports written per workload,
    // warmth persisted per program fingerprint.
    let opts = AnalyzeOptions {
        report_dir: Some(out_dir.clone()),
        store_dir: Some(out_dir.join("warm-store")),
        quiet: true,
        ..Default::default()
    };
    let manager = Arc::new(
        StoreManager::new(opts.store_dir.as_ref().unwrap()).expect("create warm-store directory"),
    );

    let mut triage: Vec<(String, String, RaceClass, String)> = Vec::new();
    let mut report_paths: Vec<PathBuf> = Vec::new();
    let mut correct = 0usize;
    let mut total = 0usize;
    let mut sink = std::io::sink();

    for (at, w) in all().iter().enumerate() {
        let (result, _) = analyze_workload(w, at as u64 + 1, Some(&manager), &opts, &mut sink)
            .expect("workload analysis");
        let card = ScoreCard::new(w, &result);
        correct += card.correct();
        total += card.total();
        for a in &result.analyzed {
            if let Ok(v) = &a.verdict {
                triage.push((
                    w.name.to_string(),
                    a.cluster.representative.to_string(),
                    v.class,
                    v.to_string(),
                ));
            }
        }
        report_paths.push(out_dir.join(format!("{}.json", w.name)));
    }

    // Harmful first, then output-differs, then the harmless classes.
    triage.sort_by_key(|(_, _, class, _)| *class);

    println!(
        "=== Portend triage: {} races, most critical first ===\n",
        triage.len()
    );
    let mut last_class = None;
    for (app, race, class, verdict) in &triage {
        if last_class != Some(*class) {
            println!("--- {class} ---");
            last_class = Some(*class);
        }
        println!("[{app}] {race}\n    -> {verdict}");
    }
    println!(
        "\noverall classification accuracy vs ground truth: {correct}/{total} ({:.1}%)",
        100.0 * correct as f64 / total as f64
    );

    // The reports are this run's machine-readable record: parse every
    // one back (the format is versioned and rejects anything it does
    // not understand) and print the per-workload roll-up — on a second
    // run of this example the warm counters show the warm-store loads.
    println!("\n=== run reports ({}) ===", out_dir.display());
    for path in &report_paths {
        let report = RunReport::read_from(path).expect("report round-trips");
        let farm = report.farm.as_ref().expect("every run records farm stats");
        let cache = report.cache.as_ref().expect("every run records its cache");
        println!(
            "{:<12} {} races | {} harmful | {} | {} warmed, {} warm hits -> {}",
            report.label,
            report.races.len(),
            report.harmful(),
            farm.summary(),
            cache.warmed,
            cache.warm_hits,
            path.display(),
        );
    }
}
