//! Farm benchmark: wall-clock speedup of race classification on 4 farm
//! workers over 1 worker (`Pipeline::run` through
//! `Workload::analyze_streamed`) on the workloads corpus, plus the
//! corpus-level fan-out (one farm job per workload).
//!
//! Prints, per workload: 1-worker and 4-worker wall time, wall-clock
//! speedup, *critical-path* speedup, solver cache hit rates (whole-query
//! and slice-level), and worker utilization — the headline numbers for
//! the farm's ">1.5× at 4 workers with a nonzero cache hit rate" target.
//!
//! Wall-clock speedup requires the hardware to exist: on a host with
//! fewer cores than workers (CI containers are often single-core) the
//! threads time-share one CPU and wall clock cannot improve. The
//! critical-path speedup — total classification work divided by the
//! busiest worker's time — is the farm's scheduling quality, i.e. the
//! wall-clock speedup the same run achieves once one core per worker is
//! available; the benchmark prints the host core count next to it.

use std::time::{Duration, Instant};

use portend::{PipelineResult, PortendConfig, RaceClass, WarmSource};
use portend_bench::crit::fmt_duration;
use portend_bench::render_table;
use portend_farm::{Farm, JobSpec};
use portend_workloads::{by_name, Workload};

const CORPUS: [&str; 4] = ["ctrace", "bbuf", "memcached", "pbzip2"];
const WORKERS: usize = 4;
const SAMPLES: u32 = 3;

/// Minimum wall time of `samples` runs of `f`.
fn time_min<F: FnMut()>(samples: u32, mut f: F) -> Duration {
    (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed()
        })
        .min()
        .expect("at least one sample")
}

/// `w` analyzed on `workers` farm workers with a fresh cache.
fn on_workers(w: &Workload, cfg: &PortendConfig, workers: usize) -> PipelineResult {
    w.analyze_streamed(
        cfg.clone(),
        workers,
        &WarmSource::default(),
        &mut |_, _, _| {},
    )
}

fn classes(result: &PipelineResult) -> Vec<Option<RaceClass>> {
    result
        .analyzed
        .iter()
        .map(|a| a.verdict.as_ref().ok().map(|v| v.class))
        .collect()
}

fn main() {
    let cfg = PortendConfig::default();
    let mut rows = Vec::new();
    let mut total_serial = Duration::ZERO;
    let mut total_parallel = Duration::ZERO;

    for name in CORPUS {
        let w = by_name(name).expect("workload exists");

        let serial_result = on_workers(&w, &cfg, 1);
        let serial = time_min(SAMPLES, || {
            let r = on_workers(&w, &cfg, 1);
            assert!(!r.analyzed.is_empty());
        });

        let parallel_result = on_workers(&w, &cfg, WORKERS);
        assert_eq!(
            classes(&serial_result),
            classes(&parallel_result),
            "{name}: {WORKERS}-worker verdicts must equal 1-worker verdicts"
        );
        let parallel = time_min(SAMPLES, || {
            let r = on_workers(&w, &cfg, WORKERS);
            assert!(!r.analyzed.is_empty());
        });

        total_serial += serial;
        total_parallel += parallel;
        // Critical-path speedup: total classification work over the
        // busiest worker — the wall-clock speedup with >= WORKERS cores.
        let stats = &parallel_result.farm;
        let critical_path = stats
            .per_worker
            .iter()
            .map(|p| p.busy)
            .max()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        let cp_speedup = stats.busy_total.as_secs_f64() / critical_path.max(1e-9);
        let hit_rate = parallel_result.cache.hit_rate();
        let slice_rate = parallel_result.cache.slice_hit_rate();
        rows.push(vec![
            name.to_string(),
            serial_result.analyzed.len().to_string(),
            fmt_duration(serial),
            fmt_duration(parallel),
            format!(
                "{:.2}x",
                serial.as_secs_f64() / parallel.as_secs_f64().max(1e-9)
            ),
            format!("{cp_speedup:.2}x"),
            format!("{:.0}%", 100.0 * hit_rate),
            format!("{:.0}%", 100.0 * slice_rate),
            format!("{:.0}%", 100.0 * stats.utilization()),
        ]);
    }
    rows.push(vec![
        "TOTAL".into(),
        String::new(),
        fmt_duration(total_serial),
        fmt_duration(total_parallel),
        format!(
            "{:.2}x",
            total_serial.as_secs_f64() / total_parallel.as_secs_f64().max(1e-9)
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "farm speedup at {WORKERS} workers on {cores} host core(s) \
         (min of {SAMPLES} samples per cell):\n"
    );
    if cores < WORKERS {
        println!(
            "note: host has fewer cores than workers — wall-clock speedup is \
             bounded by the hardware; the critical-path column is the speedup \
             this run achieves once {WORKERS} cores are available.\n"
        );
    }
    println!(
        "{}",
        render_table(
            &[
                "Program",
                "Races",
                "1 worker",
                &format!("{WORKERS} workers"),
                "Wall speedup",
                "Crit-path speedup",
                "Cache hit",
                "Slice hit",
                "Worker util",
            ],
            &rows,
        )
    );

    // Corpus-level fan-out: one farm job per (program, trace) case. This
    // is the same generic engine the pipeline delegates to, reused one
    // level up the stack.
    let corpus_serial = time_min(1, || {
        for name in CORPUS {
            let w = by_name(name).expect("workload exists");
            let r = w.analyze(cfg.clone());
            assert!(!r.analyzed.is_empty());
        }
    });
    let t0 = Instant::now();
    let jobs = CORPUS
        .iter()
        .enumerate()
        .map(|(i, name)| JobSpec::new(i, *name))
        .collect();
    let mut races = 0;
    let corpus_stats = Farm::new(WORKERS).run(
        jobs,
        |_w, name: &str| {
            let w = by_name(name).expect("workload exists");
            w.analyze(cfg.clone()).analyzed.len()
        },
        |out| races += out.result.expect("a workload analysis panicked"),
    );
    let corpus_parallel = t0.elapsed();
    assert!(races > 0);
    println!(
        "corpus fan-out ({} cases): serial {} | farm {} | speedup {:.2}x | {}",
        CORPUS.len(),
        fmt_duration(corpus_serial),
        fmt_duration(corpus_parallel),
        corpus_serial.as_secs_f64() / corpus_parallel.as_secs_f64().max(1e-9),
        corpus_stats.summary(),
    );
}
