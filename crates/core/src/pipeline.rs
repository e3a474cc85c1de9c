//! The end-to-end pipeline: run the program under the race detector,
//! cluster the reports, and classify every cluster (paper Fig. 2) on the
//! classification farm, most suspect clusters first ([`Pipeline::run`]).

use std::sync::Arc;
use std::time::{Duration, Instant};

use portend_farm::{cluster_priority, Farm, FarmStats, JobSpec};
use portend_obs::{EventKind, Recorder, Trace};
use portend_race::RaceCluster;
use portend_replay::{record, RecordConfig, RecordedRun};
use portend_symex::CacheSnapshot;
use portend_vm::{InputSpec, Program};

use crate::case::{AnalysisCase, Predicate};
use crate::classify::{ClassifyError, Portend};
use crate::config::PortendConfig;
use crate::taxonomy::Verdict;
use crate::warm::WarmSource;

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
    /// hits/misses). All of the run's classifications share one cache.
    pub cache: CacheSnapshot,
    /// What the farm measured while classifying: jobs, wall and busy
    /// time, and per-worker utilization.
    pub farm: FarmStats,
    /// The run's merged event trace, when
    /// [`PortendConfig::trace`](crate::PortendConfig::trace) is on.
    /// `None` when tracing is off. Export it with
    /// [`Trace::write_chrome`] or
    /// [`RunReport::with_trace`](crate::RunReport::with_trace).
    pub trace: Option<Trace>,
}

/// The full pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct Pipeline {
    /// Recording configuration (scheduler, VM, detector, budgets). Its
    /// `vm` configures every classification's replays too.
    pub record: RecordConfig,
    /// Classification configuration.
    pub portend: PortendConfig,
}

impl Pipeline {
    /// Runs detection + classification on a program: records once under
    /// the detector, then classifies every race cluster on the
    /// [`portend_farm`] pool, highest [`cluster_priority`] first.
    /// `workers` is the pool width (`0` = one per CPU); a one-worker run
    /// classifies on the calling thread, a wider one on the process's
    /// parked farm threads.
    ///
    /// `inputs` is the concrete input log, `input_spec` declares the
    /// symbolic positions for multi-path analysis, and `predicates` are
    /// the semantic properties to watch. Every job shares one solver
    /// cache, which `warm` supplies and persists afterwards (see
    /// [`WarmSource`]); `PipelineResult::cache` reports its counters.
    ///
    /// `sink(seq, index, race)` sees each classified cluster the moment
    /// its job finishes, in completion order, so suspected-harmful
    /// races reach it first: `seq` is the 0-based completion sequence,
    /// `index` the cluster's detection-order position in
    /// `PipelineResult::analyzed`. A classification that panics becomes
    /// that race's `ClassifyError`; the other races are unaffected.
    ///
    /// Verdicts do not depend on `workers`, `warm` or `sink`:
    /// classification is a pure function of (case, cluster, config) and
    /// the cache is answer-preserving. Only `time` fields, wall-clock
    /// totals and the cache's hit/miss split may differ.
    #[allow(clippy::too_many_arguments)]
    pub fn run(
        &self,
        program: &Arc<Program>,
        inputs: Vec<i64>,
        input_spec: InputSpec,
        predicates: Vec<Predicate>,
        workers: usize,
        warm: &WarmSource,
        sink: &mut dyn FnMut(u64, usize, &AnalyzedRace),
    ) -> PipelineResult {
        let recorder = self.portend.trace.then(Recorder::new);
        let main_lane = recorder.as_ref().map(|r| r.attach("main", 0));
        let (mut run, record_time, case) = {
            let _ev = portend_obs::span_named(EventKind::Phase, "record");
            let t0 = Instant::now();
            let run = record(program, inputs, self.record.clone());
            let record_time = t0.elapsed();
            let case = AnalysisCase {
                program: Arc::clone(program),
                trace: run.trace.clone(),
                input_spec,
                predicates,
                vm: self.record.vm,
            };
            (run, record_time, case)
        };
        let cache = warm.acquire();
        let portend = Portend::with_cache(self.portend.clone(), Arc::clone(&cache));
        let mut farm = Farm::new(workers);
        if let Some(r) = &recorder {
            farm = farm.with_recorder(r.clone());
        }
        let jobs: Vec<JobSpec<usize>> = run
            .clusters
            .iter()
            .enumerate()
            .map(|(i, c)| JobSpec::new(i, i).with_priority(cluster_priority(c)))
            .collect();
        // Farm workers outlive the run, so the run lends them the
        // classifier, the case and the clusters, and takes them back
        // once every worker has dropped its handle.
        let shared = Arc::new((portend, case, std::mem::take(&mut run.clusters)));
        let (work, clusters) = (Arc::clone(&shared), &shared.2);

        let classify_phase = portend_obs::span_named(EventKind::Phase, "classify");
        let mut indexed: Vec<(usize, AnalyzedRace)> = Vec::with_capacity(clusters.len());
        let farm_stats = farm.run(
            jobs,
            move |_worker, i: usize| {
                let (portend, case, clusters) = &*work;
                portend.classify(case, &clusters[i].representative)
            },
            |out| {
                let verdict = out.result.unwrap_or_else(|msg| {
                    Err(ClassifyError(format!(
                        "internal: classification panicked: {msg}"
                    )))
                });
                let race = AnalyzedRace {
                    cluster: clusters[out.index].clone(),
                    verdict,
                    time: out.time,
                };
                sink(indexed.len() as u64, out.index, &race);
                indexed.push((out.index, race));
            },
        );
        drop(classify_phase);
        let (_, case, clusters) =
            Arc::try_unwrap(shared).expect("every farm worker dropped its handle");
        run.clusters = clusters;

        // Restore detection order for the result (the sink saw
        // completion order).
        indexed.sort_by_key(|(i, _)| *i);
        warm.release(&cache);
        drop(main_lane); // flush the main lane before the merge
        PipelineResult {
            record: run,
            analyzed: indexed.into_iter().map(|(_, r)| r).collect(),
            record_time,
            case,
            cache: cache.snapshot(),
            farm: farm_stats,
            trace: recorder.as_ref().map(Recorder::finish),
        }
    }
}
