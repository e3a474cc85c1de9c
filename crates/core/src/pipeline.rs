//! The end-to-end pipeline: run the program under the race detector,
//! cluster the reports, classify every cluster (paper Fig. 2) — serially
//! ([`Pipeline::run`]) or on the work-stealing classification farm
//! ([`Pipeline::run_parallel`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use portend_farm::{cluster_priority, Farm, FarmConfig, FarmStats, JobSpec};
use portend_obs::{EventKind, Recorder, Trace, TraceConfig};
use portend_race::{DetectorConfig, RaceCluster};
use portend_replay::{record, RecordConfig, RecordedRun};
use portend_symex::{CacheSnapshot, SolverCache, DEFAULT_SHARDS};
use portend_vm::{InputSpec, Program, Scheduler, VmConfig};

use crate::case::{AnalysisCase, Predicate};
use crate::classify::{ClassifyError, Portend};
use crate::config::PortendConfig;
use crate::runreport::RunReport;
use crate::taxonomy::Verdict;
use crate::warm::WarmSource;

/// Exports the finished trace per the [`TraceConfig`] — Chrome trace
/// JSON and/or the versioned [`RunReport`] — and attaches the merged
/// trace to the result so callers (and the equivalence tests) can
/// inspect it in-process. Export failures are swallowed for the same
/// reason warm-store saves are: observability is an optimization, the
/// verdicts are already computed.
fn finish_trace(
    cfg: &TraceConfig,
    recorder: &Recorder,
    result: &mut PipelineResult,
    farm: Option<&FarmStats>,
) {
    let trace = recorder.finish();
    if let Some(path) = &cfg.chrome_path {
        let _ = trace.write_chrome(path);
    }
    if let Some(path) = &cfg.report_path {
        let mut report = RunReport::from_result(cfg.label.clone(), result).with_trace(&trace);
        if let Some(stats) = farm {
            report = report.with_farm(stats.clone());
        }
        let _ = report.write_to(path);
    }
    result.trace = Some(trace);
}

/// One classified race: the cluster, the verdict (or failure), and how
/// long classification took (feeds Table 4 and Fig. 9).
#[derive(Debug, Clone)]
pub struct AnalyzedRace {
    /// The race cluster (representative + instance count).
    pub cluster: RaceCluster,
    /// Portend's verdict.
    pub verdict: Result<Verdict, ClassifyError>,
    /// Wall-clock classification time for this race.
    pub time: Duration,
}

/// The result of one full detect-and-classify pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// The recording run (trace, all race instances, output).
    pub record: RecordedRun,
    /// One entry per distinct race, in detection order.
    pub analyzed: Vec<AnalyzedRace>,
    /// Wall-clock time of the recording phase.
    pub record_time: Duration,
    /// The analysis case shared by all classifications (program, trace,
    /// symbolic inputs, predicates).
    pub case: AnalysisCase,
    /// Solver-cache counters for the run (whole-query and slice-level
    /// hits/misses). Both the serial and the parallel path share one
    /// cache across all of the run's classifications.
    pub cache: CacheSnapshot,
    /// The run's merged event trace, when
    /// [`PortendConfig::trace`](crate::PortendConfig::trace) enabled
    /// recording. `None` when tracing is off.
    pub trace: Option<Trace>,
}

/// The full pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Recording configuration (scheduler, detector, budgets).
    pub record: RecordConfig,
    /// Classification configuration.
    pub portend: PortendConfig,
}

impl Pipeline {
    /// Runs detection + classification on a program.
    ///
    /// `inputs` is the concrete input log, `input_spec` declares the
    /// symbolic positions for multi-path analysis, and `predicates` are
    /// the semantic properties to watch. All classifications share one
    /// fresh solver cache (`PipelineResult::cache` reports its
    /// counters).
    pub fn run(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        vm: VmConfig,
    ) -> PipelineResult {
        let recorder = self.portend.trace.as_ref().map(|_| Recorder::new());
        let main_lane = recorder.as_ref().map(|r| r.attach("main", 0));
        let (run, record_time, case) = {
            let _ev = portend_obs::span_named(EventKind::Phase, "record");
            self.record_phase(program, inputs, input_spec, predicates, vm)
        };
        let cache = Arc::new(SolverCache::new(DEFAULT_SHARDS));
        let portend = Portend::with_cache(self.portend.clone(), Arc::clone(&cache));
        let mut analyzed = Vec::with_capacity(run.clusters.len());
        {
            let _ev = portend_obs::span_named(EventKind::Phase, "classify");
            for cluster in &run.clusters {
                let t = Instant::now();
                let verdict = portend.classify(&case, &cluster.representative);
                analyzed.push(AnalyzedRace {
                    cluster: cluster.clone(),
                    verdict,
                    time: t.elapsed(),
                });
            }
        }
        let mut result = PipelineResult {
            record: run,
            analyzed,
            record_time,
            case,
            cache: cache.snapshot(),
            trace: None,
        };
        drop(main_lane); // flush the main lane before the merge
        if let (Some(cfg), Some(recorder)) = (&self.portend.trace, &recorder) {
            finish_trace(cfg, recorder, &mut result, None);
        }
        result
    }

    /// Like [`Pipeline::run`], but classifies all detected race clusters
    /// concurrently on the [`portend_farm`] work-stealing pool, sharing
    /// one sharded solver-query cache across all jobs. Each job solves
    /// its feasibility queries serially on the worker that owns it.
    ///
    /// `workers` is the pool width; `0` means one worker per CPU.
    /// Verdicts are identical to the serial path: classification is a
    /// pure function of (case, cluster, config) and the cache is
    /// answer-preserving. Only `time` fields and wall-clock totals
    /// differ.
    pub fn run_parallel(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        vm: VmConfig,
        workers: usize,
    ) -> PipelineResult {
        self.run_parallel_with_stats(program, inputs, input_spec, predicates, vm, workers)
            .0
    }

    /// [`Pipeline::run_parallel`], additionally reporting the farm's
    /// aggregate statistics (per-worker utilization, steal counts, solver
    /// cache hit rate).
    pub fn run_parallel_with_stats(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        vm: VmConfig,
        workers: usize,
    ) -> (PipelineResult, FarmStats) {
        self.run_parallel_streamed(
            program,
            inputs,
            input_spec,
            predicates,
            vm,
            workers,
            &WarmSource::default(),
            &mut |_, _, _| {},
        )
    }

    /// The full-control parallel entry point: an explicit [`WarmSource`]
    /// plus a streaming `sink` invoked once per classified cluster *in
    /// completion order*, the moment the farm yields it —
    /// suspected-harmful races therefore reach the sink first, long
    /// before the run's tail finishes. `sink(seq, index, race)` gets the
    /// 0-based completion sequence, the cluster's detection-order index
    /// (its position in the final `PipelineResult::analyzed`), and the
    /// classified race.
    ///
    /// The returned result is byte-identical to
    /// [`Pipeline::run_parallel_with_stats`] (which is this with a no-op
    /// sink): streaming only observes outputs that were already flowing,
    /// and `analyzed` is restored to detection order either way.
    #[allow(clippy::too_many_arguments)]
    pub fn run_parallel_streamed(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        vm: VmConfig,
        workers: usize,
        warm: &WarmSource,
        sink: &mut dyn FnMut(u64, usize, &AnalyzedRace),
    ) -> (PipelineResult, FarmStats) {
        let recorder = self.portend.trace.as_ref().map(|_| Recorder::new());
        let main_lane = recorder.as_ref().map(|r| r.attach("main", 0));
        let (run, record_time, case) = {
            let _ev = portend_obs::span_named(EventKind::Phase, "record");
            self.record_phase(program, inputs, input_spec, predicates, vm)
        };
        let case = Arc::new(case);
        let cache = warm.acquire();
        let mut farm = Farm::new(FarmConfig::with_workers(workers));
        if let Some(r) = &recorder {
            farm = farm.with_recorder(r.clone());
        }
        let jobs: Vec<JobSpec<RaceCluster>> = run
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| JobSpec::new(i, c.clone()).with_priority(cluster_priority(c)))
            .collect();

        let cfg = self.portend.clone();
        let job_case = Arc::clone(&case);
        let job_cache = Arc::clone(&cache);
        let classify_phase = portend_obs::span_named(EventKind::Phase, "classify");
        let mut frun = farm.run(jobs, move |_worker, cluster: RaceCluster| {
            let portend = Portend::with_cache(cfg.clone(), Arc::clone(&job_cache));
            let verdict = portend.classify(&job_case, &cluster.representative);
            (cluster, verdict)
        });
        frun.attach_cache(Arc::clone(&cache));
        // Drain the run as an iterator — each output reaches the sink
        // the moment its worker finishes it — then join for the
        // aggregate stats (every output was consumed here, so join's
        // "remaining" set is empty by construction).
        let mut indexed: Vec<(usize, AnalyzedRace)> = Vec::with_capacity(run.clusters.len());
        for (seq, out) in (&mut frun).enumerate() {
            let (cluster, verdict) = out.result;
            let race = AnalyzedRace {
                cluster,
                verdict,
                time: out.time,
            };
            sink(seq as u64, out.index, &race);
            indexed.push((out.index, race));
        }
        let (leftover, mut stats) = frun.join();
        debug_assert!(leftover.is_empty(), "iteration consumed every output");
        drop(classify_phase);

        // Restore detection order for the result (the sink saw
        // completion order).
        indexed.sort_by_key(|(i, _)| *i);
        let analyzed: Vec<AnalyzedRace> = indexed.into_iter().map(|(_, r)| r).collect();
        // Roll the per-classification fork-cost counters up into the
        // farm aggregate (the generic pool cannot see inside verdicts).
        for a in &analyzed {
            if let Ok(v) = &a.verdict {
                stats.fork_bytes_copied += v.stats.bytes_copied_on_fork;
                stats.fork_bytes_shared += v.stats.bytes_shared_on_fork;
                stats.fork_slices_reused += v.stats.slices_reused_at_fork;
            }
        }
        warm.release(&cache);
        let case = Arc::try_unwrap(case).unwrap_or_else(|arc| arc.as_ref().clone());
        let mut result = PipelineResult {
            record: run,
            analyzed,
            record_time,
            case,
            cache: cache.snapshot(),
            trace: None,
        };
        drop(main_lane); // flush the main lane before the merge
        if let (Some(cfg), Some(recorder)) = (&self.portend.trace, &recorder) {
            finish_trace(cfg, recorder, &mut result, Some(&stats));
        }
        (result, stats)
    }

    /// The shared prologue of [`Pipeline::run`] and
    /// [`Pipeline::run_parallel`]: record once under the detector and
    /// assemble the analysis case. Keeping this in one place is part of
    /// the serial/parallel verdict-equivalence contract — both paths
    /// classify against byte-identical inputs.
    fn record_phase(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        vm: VmConfig,
    ) -> (RecordedRun, Duration, AnalysisCase) {
        let t0 = Instant::now();
        let rec_cfg = RecordConfig {
            vm,
            ..self.record.clone()
        };
        let run = record(program, inputs, rec_cfg);
        let record_time = t0.elapsed();
        let case = AnalysisCase {
            program: Arc::clone(program),
            trace: run.trace.clone(),
            input_spec,
            predicates,
            vm,
        };
        (run, record_time, case)
    }

    /// Convenience: run with a specific recording scheduler.
    pub fn with_record_scheduler(mut self, sched: Scheduler) -> Self {
        self.record.scheduler = sched;
        self
    }

    /// Convenience: run with a specific detector configuration.
    pub fn with_detector(mut self, det: DetectorConfig) -> Self {
        self.record.detector = det;
        self
    }
}
