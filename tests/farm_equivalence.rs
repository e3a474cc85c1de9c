//! Farm equivalence suite: `Pipeline::run_parallel(N)` must produce
//! verdicts identical to the serial `Pipeline::run` — across the entire
//! workloads corpus, for any worker count, with or without the shared
//! solver cache and priority ordering.
//!
//! This is the farm's core contract: parallelism and caching change only
//! *when* work happens, never what is computed. Classification is a pure
//! function of (case, cluster, config), and the solver cache key captures
//! the entire solver call, so full structural equality of verdicts (class,
//! detail, k, states_differ, and work counters) must hold.

use portend_repro::portend::{FarmKnobs, PipelineResult, PortendConfig};
use portend_repro::portend_workloads::{all, by_name};

/// Asserts full per-cluster equality of two pipeline results.
fn assert_equivalent(name: &str, serial: &PipelineResult, parallel: &PipelineResult) {
    assert_eq!(
        serial.analyzed.len(),
        parallel.analyzed.len(),
        "{name}: distinct race counts differ"
    );
    for (i, (s, p)) in serial.analyzed.iter().zip(&parallel.analyzed).enumerate() {
        assert_eq!(
            s.cluster, p.cluster,
            "{name}: cluster #{i} differs (detection order must be restored)"
        );
        assert_eq!(
            s.verdict, p.verdict,
            "{name}: verdict for cluster #{i} ({}) differs",
            s.cluster.representative
        );
    }
}

/// The headline property over the full Table 1 corpus at 4 workers.
#[test]
fn run_parallel_matches_serial_across_the_corpus() {
    let cfg = PortendConfig::default();
    for w in all() {
        let serial = w.analyze(cfg.clone());
        let parallel = w.analyze_parallel(cfg.clone(), 4);
        assert!(
            !serial.analyzed.is_empty(),
            "{}: corpus workload must detect races",
            w.name
        );
        assert_equivalent(w.name, &serial, &parallel);
    }
}

/// Worker count is irrelevant to the outcome (1 worker degenerates to
/// serial-on-a-thread; odd counts exercise stealing imbalance).
#[test]
fn any_worker_count_agrees_with_serial() {
    let cfg = PortendConfig::default();
    let w = by_name("ctrace").expect("workload exists");
    let serial = w.analyze(cfg.clone());
    for workers in [1, 2, 3, 8] {
        let parallel = w.analyze_parallel(cfg.clone(), workers);
        assert_equivalent("ctrace", &serial, &parallel);
    }
}

/// Every farm knob combination preserves verdicts: cache off, priority
/// off, both off, and a tiny soft time budget (which may only *count*
/// overruns, never alter results).
#[test]
fn farm_knobs_do_not_change_verdicts() {
    let w = by_name("bbuf").expect("workload exists");
    let serial = w.analyze(PortendConfig::default());
    let knob_sets = [
        FarmKnobs {
            solver_cache: false,
            ..Default::default()
        },
        FarmKnobs {
            priority_order: false,
            ..Default::default()
        },
        FarmKnobs {
            solver_cache: false,
            priority_order: false,
            ..Default::default()
        },
        FarmKnobs {
            job_time_budget_ms: 1,
            ..Default::default()
        },
        FarmKnobs {
            cache_shards: 1,
            ..Default::default()
        },
    ];
    for (i, farm) in knob_sets.into_iter().enumerate() {
        let cfg = PortendConfig {
            farm,
            ..Default::default()
        };
        let parallel = w.analyze_parallel(cfg, 4);
        assert_equivalent(&format!("bbuf knobs#{i}"), &serial, &parallel);
    }
}

/// Farm statistics are coherent: every cluster becomes exactly one job,
/// the shared solver cache sees real traffic on a multi-race workload,
/// and utilization stays in [0, 1].
#[test]
fn farm_stats_are_coherent() {
    let cfg = PortendConfig::default();
    let w = by_name("ctrace").expect("workload exists");
    let (result, stats) = w.analyze_parallel_with_stats(cfg, 4);
    assert_eq!(stats.jobs as usize, result.analyzed.len());
    assert_eq!(
        stats.per_worker.iter().map(|p| p.jobs).sum::<u64>(),
        stats.jobs,
        "every job is executed by exactly one worker"
    );
    let util = stats.utilization();
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    let cache = stats.cache.expect("solver cache on by default");
    // Queries arrive at slice granularity by default (`slice_solver`),
    // at whole-query granularity when slicing is off.
    let lookups = cache.hits + cache.misses + cache.slice_hits + cache.slice_misses;
    assert!(
        lookups > 0,
        "classification must issue solver queries: {cache:?}"
    );
    assert!(
        cache.hits + cache.slice_hits > 0,
        "multi-race workloads repeat constraint queries across races/schedules: {cache:?}"
    );
    assert!(
        cache.slice_hits > 0,
        "slice-level keys must hit across the Mp x Ma combinations: {cache:?}"
    );
    assert!(cache.key_bytes > 0, "lookups render keys: {cache:?}");
}
