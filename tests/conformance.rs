//! Scenario conformance suite: the labeled idiom corpus, on one farm
//! worker and on three.
//!
//! Every idiom in `portend_workloads::conformance` runs once on one
//! worker and once on three. For each
//! (idiom, allocation) cell the suite records expected vs produced
//! verdict labels into a [`ConformanceTable`], printed with the test
//! output and written as a JSON artifact (plus one
//! `portend-run-report` document per idiom) for CI to upload. Any cell
//! mismatch — a wrong class, a missed race, a phantom race on a
//! negative program — or a 1-worker/3-worker divergence fails the
//! suite.
//!
//! Artifacts land in `$CONFORMANCE_TABLE_DIR` (default
//! `target/conformance/`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use portend_repro::portend::{PipelineResult, PortendConfig, RunReport};
use portend_repro::portend_sa::analyze;
use portend_repro::portend_workloads::conformance::{all_idioms, ConformanceTable};

fn artifact_dir() -> PathBuf {
    std::env::var_os("CONFORMANCE_TABLE_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target/conformance"))
}

/// The produced class labels per allocation, sorted (a multiset, to
/// match `Idiom::expected_labels`).
fn produced_labels(r: &PipelineResult) -> BTreeMap<String, Vec<&'static str>> {
    let mut m: BTreeMap<String, Vec<&'static str>> = BTreeMap::new();
    for a in &r.analyzed {
        let label = a
            .verdict
            .as_ref()
            .map(|v| v.class.label())
            .unwrap_or("error");
        m.entry(a.cluster.representative.alloc_name.clone())
            .or_default()
            .push(label);
    }
    for v in m.values_mut() {
        v.sort_unstable();
    }
    m
}

fn join_or_none(labels: &[&'static str]) -> String {
    if labels.is_empty() {
        "none".to_string()
    } else {
        labels.join("+")
    }
}

/// Asserts full per-cluster equality of two pipeline results.
fn assert_equivalent(name: &str, a: &PipelineResult, b: &PipelineResult) {
    assert_eq!(
        a.analyzed.len(),
        b.analyzed.len(),
        "{name}: distinct race counts differ"
    );
    for (i, (x, y)) in a.analyzed.iter().zip(&b.analyzed).enumerate() {
        assert_eq!(x.cluster, y.cluster, "{name}: cluster #{i} differs");
        assert_eq!(
            x.verdict, y.verdict,
            "{name}: verdict for cluster #{i} ({}) differs",
            x.cluster.representative
        );
    }
}

/// The headline check: every idiom once on one farm worker and once on
/// three; the two runs must equal each other, and the produced verdicts
/// must equal the ground-truth labels.
#[test]
fn idiom_by_knob_matrix_matches_labels() {
    let mut table = ConformanceTable::new();
    for idiom in all_idioms() {
        let serial = idiom.analyze(PortendConfig::default());
        let farm = idiom.analyze_parallel(PortendConfig::default(), 3);
        assert_equivalent(&format!("{} 1 vs 3 workers", idiom.name), &serial, &farm);

        let produced = produced_labels(&serial);
        if idiom.negative {
            // Negative programs: no race report at all.
            let got = if produced.is_empty() {
                "none".to_string()
            } else {
                produced
                    .iter()
                    .map(|(a, ls)| format!("{a}:{}", join_or_none(ls)))
                    .collect::<Vec<_>>()
                    .join(" ")
            };
            table.push(idiom.name, "*", "none", &got);
        }
        // Every racing allocation must carry a label.
        for alloc in produced.keys() {
            assert!(
                idiom.labeled_allocs().contains(&alloc.as_str()),
                "{}: unlabeled racy allocation `{alloc}`",
                idiom.name
            );
        }
        // Every labeled allocation: produced multiset == expected.
        for alloc in idiom.labeled_allocs() {
            let expected = idiom.expected_labels(alloc);
            let got = produced.get(alloc).cloned().unwrap_or_default();
            table.push(
                idiom.name,
                alloc,
                &join_or_none(&expected),
                &join_or_none(&got),
            );
        }
    }

    let path = artifact_dir().join("conformance_table.json");
    table.write_to(&path).expect("write conformance table");
    println!("{}", table.render());
    println!("table artifact: {}", path.display());
    let mismatches = table.mismatches();
    assert!(
        mismatches.is_empty(),
        "{} conformance cell(s) mismatch:\n{}",
        mismatches.len(),
        table.render()
    );
}

/// Every dynamic race of every positive idiom is inside the static
/// (`portend-sa`) candidate set — the corpus extends the differential
/// cross-check beyond the Table 1 workloads.
#[test]
fn static_candidates_cover_every_positive_idiom_race() {
    for idiom in all_idioms().iter().filter(|i| !i.negative) {
        let result = idiom.analyze(PortendConfig::default());
        assert!(
            !result.record.races.is_empty(),
            "{}: positive idiom must detect races",
            idiom.name
        );
        let sa = analyze(&idiom.program);
        assert!(
            !sa.degraded,
            "{}: conformance programs fit the analysis domains",
            idiom.name
        );
        for race in &result.record.races {
            let (lo, hi) = race.pc_pair();
            assert!(
                sa.covers(race.alloc, lo, hi, true),
                "{}: dynamic race escaped the static candidate set: {race}",
                idiom.name
            );
        }
    }
}

/// Each idiom's default-config result exports as a versioned
/// `portend-run-report` document that round-trips losslessly — the
/// interchange path CI artifacts use.
#[test]
fn run_reports_round_trip_per_idiom() {
    let dir = artifact_dir().join("reports");
    std::fs::create_dir_all(&dir).expect("create report dir");
    for idiom in all_idioms() {
        let result = idiom.analyze(PortendConfig::default());
        let report = RunReport::from_result(idiom.name, &result);
        let path = dir.join(format!("{}.json", idiom.name));
        report.write_to(&path).expect("write run report");
        let back = RunReport::read_from(&path).expect("read run report back");
        assert_eq!(back, report, "{}: report round-trip", idiom.name);
        // The report's verdict labels are the pipeline's classes.
        assert_eq!(back.races.len(), result.analyzed.len());
        for (outcome, analyzed) in back.races.iter().zip(&result.analyzed) {
            assert_eq!(
                outcome.verdict.as_ref().map(|v| v.class.as_str()).ok(),
                analyzed.verdict.as_ref().map(|v| v.class.label()).ok(),
                "{}: verdict label drift in the report",
                idiom.name
            );
        }
    }
}
