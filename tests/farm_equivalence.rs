//! Farm equivalence suite: `Pipeline::run` on N workers must produce
//! verdicts identical to a one-worker run — across the entire workloads
//! corpus, for any worker count — and identical to an uncached
//! classification of each race.
//!
//! This is the farm's core contract: parallelism and caching change only
//! *when* work happens, never what is computed. Classification is a pure
//! function of (case, cluster, config), and the solver cache key captures
//! the entire solver call, so full structural equality of verdicts (class,
//! detail, k, states_differ, and work counters) must hold.

use portend_repro::portend::{PipelineResult, Portend, PortendConfig, WarmSource};
use portend_repro::portend_farm::cluster_priority;
use portend_repro::portend_workloads::{all, by_name, Workload};

/// `w` analyzed on `workers` farm workers with a fresh cache.
fn on_workers(w: &Workload, workers: usize) -> PipelineResult {
    w.analyze_streamed(
        PortendConfig::default(),
        workers,
        &WarmSource::default(),
        &mut |_, _, _| {},
    )
}

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

/// The headline property over the full Table 1 corpus: 4 workers
/// against one.
#[test]
fn four_workers_match_one_across_the_corpus() {
    for w in all() {
        let serial = w.analyze(PortendConfig::default());
        let parallel = on_workers(&w, 4);
        assert!(
            !serial.analyzed.is_empty(),
            "{}: corpus workload must detect races",
            w.name
        );
        assert_equivalent(w.name, &serial, &parallel);
    }
}

/// Worker count is irrelevant to the outcome (one worker runs on the
/// calling thread; odd counts leave workers finishing unevenly).
#[test]
fn any_worker_count_agrees_with_serial() {
    let w = by_name("ctrace").expect("workload exists");
    let serial = w.analyze(PortendConfig::default());
    for workers in [1, 2, 3, 8] {
        let parallel = on_workers(&w, workers);
        assert_equivalent("ctrace", &serial, &parallel);
    }
}

/// The shared solver cache is answer-preserving: each farm verdict
/// (4 workers, one cache shared by every job) equals the verdict of a
/// `Portend` that classifies the same race without a shared cache.
#[test]
fn farm_verdicts_match_uncached_reference() {
    let cfg = PortendConfig::default();
    for name in ["bbuf", "ctrace"] {
        let w = by_name(name).expect("workload exists");
        let result = on_workers(&w, 4);
        assert!(!result.analyzed.is_empty(), "{name}: detects races");
        let uncached = Portend::new(cfg.clone());
        for (i, a) in result.analyzed.iter().enumerate() {
            let reference = uncached.classify(&result.case, &a.cluster.representative);
            assert_eq!(
                a.verdict, reference,
                "{name}: farm verdict for cluster #{i} ({}) differs from the uncached one",
                a.cluster.representative
            );
        }
    }
}

/// Farm statistics are coherent: every cluster becomes exactly one job,
/// the shared solver cache sees real traffic on a multi-race workload,
/// and utilization stays in [0, 1].
#[test]
fn farm_stats_are_coherent() {
    let w = by_name("ctrace").expect("workload exists");
    let result = on_workers(&w, 4);
    let stats = &result.farm;
    assert_eq!(stats.jobs as usize, result.analyzed.len());
    assert_eq!(
        stats.per_worker.iter().map(|p| p.jobs).sum::<u64>(),
        stats.jobs,
        "every job is executed by exactly one worker"
    );
    let util = stats.utilization();
    assert!((0.0..=1.0).contains(&util), "utilization {util}");
    let cache = result.cache;
    // Classification queries arrive at slice granularity; only direct
    // `Solver::check` callers count as whole-query lookups.
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

/// With one worker the farm classifies in queue order, and the queue
/// order is `cluster_priority` alone: descending priority, ties in
/// detection order. Pinned per corpus workload through the streaming
/// entry point, whose sink sees clusters in completion order.
#[test]
fn one_worker_streams_in_cluster_priority_order() {
    for w in all() {
        let mut streamed = Vec::new();
        let result = w.analyze_streamed(
            PortendConfig::default(),
            1,
            &WarmSource::default(),
            &mut |_, index, _| streamed.push(index),
        );
        let mut expected: Vec<usize> = (0..result.analyzed.len()).collect();
        // Stable: equal priorities keep detection order.
        expected.sort_by_key(|&i| std::cmp::Reverse(cluster_priority(&result.analyzed[i].cluster)));
        assert_eq!(streamed, expected, "{}: stream order", w.name);
    }
}
