//! # portend-bench — the experiment harness
//!
//! Regenerates every table and figure of the Portend paper's evaluation
//! (§5) against the modeled workloads:
//!
//! * [`table1`] — experimental targets (size, language, threads);
//! * [`table2`] — "spec violated" races and their consequences;
//! * [`table3`] — classification of all 93 races;
//! * [`table4`] — classification time per program;
//! * [`table5`] — accuracy vs the Record/Replay-Analyzer and
//!   Ad-Hoc-Detector baselines;
//! * [`fig7`] — accuracy breakdown by analysis technique;
//! * [`fig9_table`] — classification time vs preemptions / dependent
//!   branches;
//! * [`fig10`] — accuracy as a function of `k`.
//!
//! Run `cargo run -p portend-bench --bin tables` /
//! `cargo run -p portend-bench --bin figures` to print them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

use std::fmt::Write as _;
use std::time::Instant;

use portend::baselines::{AdHocDetector, AdHocVerdict, RecordReplayAnalyzer, RraVerdict};
use portend::{AnalysisStages, PipelineResult, PortendConfig, RaceClass, VerdictDetail};
use portend_vm::{drive, DriveCfg, NullMonitor};
use portend_workloads::{all, applications, ClassCounts, ScoreCard};

/// Renders a list of rows as an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            let _ = write!(line, "| {:w$} ", c, w = widths[i]);
        }
        line.push('|');
        line
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    let mut sep = String::new();
    for w in &widths {
        let _ = write!(sep, "|{:-<w$}", "", w = w + 2);
    }
    sep.push('|');
    out.push_str(&sep);
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Table 1: the experimental targets.
pub fn table1() -> String {
    let rows: Vec<Vec<String>> = all()
        .iter()
        .map(|w| {
            vec![
                w.name.to_string(),
                w.original_loc.to_string(),
                w.language.to_string(),
                w.forked_threads.to_string(),
                w.model_insts().to_string(),
            ]
        })
        .collect();
    render_table(
        &[
            "Program",
            "Original LOC",
            "Language",
            "# Forked threads",
            "Model IR insts",
        ],
        &rows,
    )
}

/// Table 2: "spec violated" races and their consequences. Includes the
/// fmm semantic-predicate experiment and the memcached what-if variant.
pub fn table2() -> String {
    let mut rows = Vec::new();
    for base in applications() {
        let predicates = if base.name == "fmm" {
            base.optional_predicates.clone()
        } else {
            base.predicates.clone()
        };
        let w = if base.name == "memcached" {
            portend_workloads::memcached_weakened()
        } else {
            base
        };
        let result = w.analyze_with_predicates(PortendConfig::default(), predicates);
        let (mut deadlock, mut crash, mut semantic) = (0, 0, 0);
        for a in &result.analyzed {
            if let Ok(v) = &a.verdict {
                if let VerdictDetail::SpecViolation { kind, .. } = &v.detail {
                    match kind.table2_column() {
                        "deadlock" => deadlock += 1,
                        "crash" => crash += 1,
                        "semantic" => semantic += 1,
                        _ => crash += 1,
                    }
                }
            }
        }
        if deadlock + crash + semantic > 0 {
            rows.push(vec![
                w.name.replace("-weakened", " (what-if)"),
                result.analyzed.len().to_string(),
                deadlock.to_string(),
                crash.to_string(),
                semantic.to_string(),
            ]);
        }
    }
    render_table(
        &[
            "Program",
            "Total # of races",
            "Deadlock",
            "Crash",
            "Semantic",
        ],
        &rows,
    )
}

/// Classifies one pipeline result into a Table 3 row.
pub fn classify_counts(result: &PipelineResult) -> ClassCounts {
    let mut c = ClassCounts::default();
    for a in &result.analyzed {
        if let Ok(v) = &a.verdict {
            match v.class {
                RaceClass::SpecViolated => c.spec_viol += 1,
                RaceClass::OutputDiffers => c.out_diff += 1,
                RaceClass::KWitnessHarmless => {
                    if v.states_differ == Some(true) {
                        c.kw_differ += 1
                    } else {
                        c.kw_same += 1
                    }
                }
                RaceClass::SingleOrdering => c.single_ord += 1,
            }
        }
    }
    c
}

/// Table 3: classification of every distinct race.
pub fn table3() -> String {
    let mut rows = Vec::new();
    let mut totals = ClassCounts::default();
    let mut total_instances = 0u64;
    for w in all() {
        let result = w.analyze(PortendConfig::default());
        let c = classify_counts(&result);
        let instances: u64 = result.analyzed.iter().map(|a| a.cluster.instances).sum();
        total_instances += instances;
        rows.push(vec![
            w.name.to_string(),
            c.total().to_string(),
            instances.to_string(),
            c.spec_viol.to_string(),
            c.out_diff.to_string(),
            c.kw_same.to_string(),
            c.kw_differ.to_string(),
            c.single_ord.to_string(),
        ]);
        totals.spec_viol += c.spec_viol;
        totals.out_diff += c.out_diff;
        totals.kw_same += c.kw_same;
        totals.kw_differ += c.kw_differ;
        totals.single_ord += c.single_ord;
    }
    rows.push(vec![
        "TOTAL".into(),
        totals.total().to_string(),
        total_instances.to_string(),
        totals.spec_viol.to_string(),
        totals.out_diff.to_string(),
        totals.kw_same.to_string(),
        totals.kw_differ.to_string(),
        totals.single_ord.to_string(),
    ]);
    render_table(
        &[
            "Program",
            "Distinct races",
            "Race instances",
            "Spec violated",
            "Output differs",
            "K-witness (states same)",
            "K-witness (states differ)",
            "Single ordering",
        ],
        &rows,
    )
}

/// Table 4: plain interpretation time vs classification time per race.
pub fn table4() -> String {
    let mut rows = Vec::new();
    for w in all() {
        // Baseline: plain interpretation (no detector, no classification),
        // like the paper's "Cloud9 running time" column.
        let t0 = Instant::now();
        let mut m =
            portend_replay::ExecutionTrace::new(vec![], w.inputs.clone()).machine(&w.program, w.vm);
        let mut sched = w.record_scheduler.clone();
        let mut mon = NullMonitor;
        let _ = drive(
            &mut m,
            &mut sched,
            &mut mon,
            &DriveCfg::with_budget(5_000_000),
        );
        let base = t0.elapsed();

        let result = w.analyze(PortendConfig::default());
        let times: Vec<f64> = result
            .analyzed
            .iter()
            .map(|a| a.time.as_secs_f64() * 1e3)
            .collect();
        let (avg, min, max) = if times.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            (
                times.iter().sum::<f64>() / times.len() as f64,
                times.iter().cloned().fold(f64::INFINITY, f64::min),
                times.iter().cloned().fold(0.0, f64::max),
            )
        };
        rows.push(vec![
            w.name.to_string(),
            format!("{:.3}", base.as_secs_f64() * 1e3),
            format!("{avg:.3}"),
            format!("{min:.3}"),
            format!("{max:.3}"),
        ]);
    }
    render_table(
        &[
            "Program",
            "Plain interpretation (ms)",
            "Classify avg (ms/race)",
            "Min (ms)",
            "Max (ms)",
        ],
        &rows,
    )
}

/// Table 5: per-category accuracy of Portend vs the baselines.
pub fn table5() -> String {
    let mut portend_correct = [0usize; 4];
    let mut portend_total = [0usize; 4];
    let mut rra_correct = [0usize; 4];
    let mut rra_total = [0usize; 4];
    let mut adhoc_correct = [0usize; 4];
    let mut adhoc_total = [0usize; 4];

    for w in all() {
        let result = w.analyze(PortendConfig::default());
        let card = ScoreCard::new(&w, &result);
        for (_, expected, got) in &card.rows {
            let idx = class_index(*expected);
            portend_correct[idx] += (expected == got) as usize;
            portend_total[idx] += 1;
        }
        // Baselines classify from the same recorded trace.
        let rra = RecordReplayAnalyzer::new();
        let adhoc = AdHocDetector::new();
        for a in &result.analyzed {
            let race = &a.cluster.representative;
            let truth = match w.truth_for(race) {
                Some(t) => t,
                None => continue,
            };
            let idx = class_index(truth.expected);
            rra_total[idx] += 1;
            adhoc_total[idx] += 1;
            if let Ok(v) = rra.classify(&result.case, race) {
                let correct = match truth.expected {
                    RaceClass::SpecViolated => v == RraVerdict::LikelyHarmful,
                    RaceClass::KWitnessHarmless => v == RraVerdict::LikelyHarmless,
                    // RRA cannot express these classes at all.
                    RaceClass::OutputDiffers | RaceClass::SingleOrdering => false,
                };
                rra_correct[idx] += correct as usize;
            }
            if let Ok(v) = adhoc.classify(&result.case, race) {
                let correct = match truth.expected {
                    RaceClass::SingleOrdering => v == AdHocVerdict::SingleOrdering,
                    // These tools make no claim about other races.
                    _ => false,
                };
                adhoc_correct[idx] += correct as usize;
            }
        }
    }

    let acc = |c: usize, t: usize| -> String {
        if t == 0 {
            "-".into()
        } else {
            format!("{:.0}%", 100.0 * c as f64 / t as f64)
        }
    };
    let rows = vec![
        vec![
            "Ground truth".into(),
            "100%".into(),
            "100%".into(),
            "100%".into(),
            "100%".into(),
        ],
        vec![
            "Record/Replay-Analyzer".into(),
            acc(rra_correct[0], rra_total[0]),
            acc(rra_correct[1], rra_total[1]),
            format!("{} (not classified)", acc(rra_correct[2], rra_total[2])),
            format!("{} (not classified)", acc(rra_correct[3], rra_total[3])),
        ],
        vec![
            "Ad-Hoc-Detector / Helgrind+".into(),
            format!("{} (not classified)", acc(adhoc_correct[0], adhoc_total[0])),
            format!("{} (not classified)", acc(adhoc_correct[1], adhoc_total[1])),
            format!("{} (not classified)", acc(adhoc_correct[2], adhoc_total[2])),
            acc(adhoc_correct[3], adhoc_total[3]),
        ],
        vec![
            "Portend".into(),
            acc(portend_correct[0], portend_total[0]),
            acc(portend_correct[1], portend_total[1]),
            acc(portend_correct[2], portend_total[2]),
            acc(portend_correct[3], portend_total[3]),
        ],
    ];
    render_table(
        &["Approach", "specViol", "k-witness", "outDiff", "singleOrd"],
        &rows,
    )
}

fn class_index(c: RaceClass) -> usize {
    match c {
        RaceClass::SpecViolated => 0,
        RaceClass::KWitnessHarmless => 1,
        RaceClass::OutputDiffers => 2,
        RaceClass::SingleOrdering => 3,
    }
}

/// The four cumulative technique configurations of Fig. 7.
pub fn fig7_stages() -> Vec<(&'static str, AnalysisStages)> {
    vec![
        ("Single-path", AnalysisStages::single_path()),
        (
            "Ad-hoc synch detection",
            AnalysisStages {
                adhoc_detection: true,
                multi_path: false,
                multi_schedule: false,
            },
        ),
        (
            "Multi-path",
            AnalysisStages {
                adhoc_detection: true,
                multi_path: true,
                multi_schedule: false,
            },
        ),
        ("Multi-path + Multi-schedule", AnalysisStages::full()),
    ]
}

/// Fig. 7: accuracy per technique for ctrace, pbzip2, memcached, bbuf.
pub fn fig7() -> String {
    let apps = ["Ctrace", "Pbzip2", "Memcached", "Bbuf"];
    let names = ["ctrace", "pbzip2", "memcached", "bbuf"];
    let mut rows = Vec::new();
    for (label, stages) in fig7_stages() {
        let mut row = vec![label.to_string()];
        for name in names {
            let w = portend_workloads::by_name(name).expect("workload exists");
            let cfg = PortendConfig {
                stages,
                ..Default::default()
            };
            let result = w.analyze(cfg);
            let card = ScoreCard::new(&w, &result);
            row.push(format!("{:.0}%", card.accuracy()));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("Technique")
        .chain(apps.iter().copied())
        .collect();
    render_table(&headers, &rows)
}

/// One Fig. 9 sample: a race's work metrics and classification time.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// `program<n>` label like the paper's sample points.
    pub label: String,
    /// Preemption points encountered during classification.
    pub preemptions: u64,
    /// Branches depending on symbolic input.
    pub dependent_branches: u64,
    /// Deepest explored path in instructions — the depth axis of the
    /// time-vs-depth plot (`ClassifyStats::max_path_instructions`; the
    /// summed total would conflate exploration breadth with depth).
    pub max_path_instructions: u64,
    /// Classification time in milliseconds.
    pub time_ms: f64,
}

/// Fig. 9: classification time vs preemptions and dependent branches for
/// a sample of races (one per application plus extra memcached points,
/// like the paper's labeled samples).
pub fn fig9() -> Vec<Fig9Row> {
    let mut rows = Vec::new();
    for w in applications() {
        let result = w.analyze(PortendConfig::default());
        // Sample the most exploration-heavy races of each application
        // (the paper's labeled points are its slowest classifications).
        let mut samples: Vec<_> = result
            .analyzed
            .iter()
            .filter_map(|a| a.verdict.as_ref().ok().map(|v| (v, a.time)))
            .collect();
        samples.sort_by(|a, b| {
            (b.0.stats.dependent_branches, b.1).cmp(&(a.0.stats.dependent_branches, a.1))
        });
        let take = if w.name == "memcached" { 3 } else { 1 };
        for (i, (v, time)) in samples.into_iter().take(take).enumerate() {
            rows.push(Fig9Row {
                label: format!("{}{}", w.name, i + 1),
                preemptions: v.stats.preemptions,
                dependent_branches: v.stats.dependent_branches,
                max_path_instructions: v.stats.max_path_instructions,
                time_ms: time.as_secs_f64() * 1e3,
            });
        }
    }
    rows
}

/// Renders Fig. 9 as a table.
pub fn fig9_table() -> String {
    let rows: Vec<Vec<String>> = fig9()
        .into_iter()
        .map(|r| {
            vec![
                r.label,
                r.preemptions.to_string(),
                r.dependent_branches.to_string(),
                r.max_path_instructions.to_string(),
                format!("{:.3}", r.time_ms),
            ]
        })
        .collect();
    render_table(
        &[
            "Race",
            "# preemption points",
            "# dependent branches",
            "Max path insts (depth)",
            "Classification time (ms)",
        ],
        &rows,
    )
}

/// Fig. 10: accuracy as a function of `k` for pbzip2, ctrace, memcached,
/// bbuf.
pub fn fig10() -> String {
    let names = ["pbzip2", "ctrace", "memcached", "bbuf"];
    // Even values keep Ma = 2 (k = Mp x Ma); odd k would force Ma = 1
    // and disable multi-schedule analysis entirely.
    let ks = [1usize, 2, 4, 6, 8, 10];
    let mut rows = Vec::new();
    for k in ks {
        let mut row = vec![k.to_string()];
        for name in names {
            let w = portend_workloads::by_name(name).expect("workload exists");
            let cfg = PortendConfig::with_k(k);
            let result = w.analyze(cfg);
            let card = ScoreCard::new(&w, &result);
            row.push(format!("{:.0}%", card.accuracy()));
        }
        rows.push(row);
    }
    render_table(&["k", "Pbzip2", "Ctrace", "Memcached", "Bbuf"], &rows)
}
