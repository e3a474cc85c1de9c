//! The work-stealing worker pool.

use std::sync::{mpsc, Arc};
use std::thread;
use std::time::Instant;

use crate::config::FarmConfig;
use crate::job::JobSpec;
use crate::queue::{StealSet, Taken};
use crate::stats::WorkerStats;
use crate::stream::{FarmRun, JobOutput};

/// The classification farm: a reusable description of a worker pool.
///
/// [`Farm::run`] is generic over the job payload and result types; the
/// worker function receives `(worker_id, payload)` and its return value
/// streams back through the returned [`FarmRun`]. Jobs are dealt
/// highest-priority-first across per-worker queues; idle workers steal.
///
/// ```
/// use portend_farm::{Farm, FarmConfig, JobSpec};
///
/// let farm = Farm::new(FarmConfig::with_workers(4));
/// let jobs = (0..32).map(|i| JobSpec::new(i, i as u64)).collect();
/// let run = farm.run(jobs, |_worker, n: u64| n * n);
/// let (outputs, stats) = run.join();
/// assert_eq!(outputs.len(), 32);
/// assert_eq!(stats.jobs, 32);
/// // Outputs from `join` are sorted by job index.
/// assert_eq!(outputs[5].result, 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Farm {
    cfg: FarmConfig,
    recorder: Option<portend_obs::Recorder>,
}

impl Farm {
    /// A farm with the given configuration.
    pub fn new(cfg: FarmConfig) -> Self {
        Farm {
            cfg,
            recorder: None,
        }
    }

    /// The same farm, with every worker attached to `recorder` as its
    /// own event lane (`worker-00`, `worker-01`, … — sort keys from the
    /// worker index, so the merged trace is deterministic). Workers emit
    /// job spans and steal instants; everything their jobs emit (solver
    /// checks, cache probes, forks) lands in the same lane.
    pub fn with_recorder(mut self, recorder: portend_obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &FarmConfig {
        &self.cfg
    }

    /// Starts the pool over `jobs` and returns immediately with a
    /// streaming [`FarmRun`]. Every job runs exactly once; completion
    /// order is whatever the pool achieves, with each output carrying its
    /// job's `index` so callers can restore deterministic order.
    pub fn run<T, R, F>(&self, mut jobs: Vec<JobSpec<T>>, work: F) -> FarmRun<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        let started = Instant::now();
        let workers = self.cfg.effective_workers(jobs.len());
        // Stable sort: equal priorities keep detection order.
        jobs.sort_by_key(|j| std::cmp::Reverse(j.priority));
        let total = jobs.len() as u64;
        let queue = Arc::new(StealSet::new(workers));
        queue.deal(jobs);

        let (tx, rx) = mpsc::channel::<JobOutput<R>>();
        let work = Arc::new(work);

        let handles = (0..workers)
            .map(|w| {
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                let work = Arc::clone(&work);
                let recorder = self.recorder.clone();
                thread::Builder::new()
                    .name(format!("portend-farm-{w}"))
                    .spawn(move || {
                        let _lane = recorder
                            .as_ref()
                            .map(|r| r.attach(format!("worker-{w:02}"), 100 + w as u32));
                        let mut ws = WorkerStats::default();
                        while let Some((job, taken)) = queue.take(w) {
                            if taken == Taken::Stolen {
                                portend_obs::instant(
                                    portend_obs::EventKind::Steal,
                                    job.index as u64,
                                    0,
                                );
                            }
                            let mut ev = portend_obs::span(portend_obs::EventKind::Job);
                            let t0 = Instant::now();
                            let result = work(w, job.payload);
                            let time = t0.elapsed();
                            ev.args(job.index as u64, (taken == Taken::Stolen) as u64);
                            drop(ev);
                            ws.jobs += 1;
                            ws.busy += time;
                            if taken == Taken::Stolen {
                                ws.steals += 1;
                            }
                            // A send can only fail if the receiver was
                            // dropped — the caller abandoned the run, so
                            // drain the queue without reporting.
                            let _ = tx.send(JobOutput {
                                index: job.index,
                                priority: job.priority,
                                result,
                                time,
                                worker: w,
                                stolen: taken == Taken::Stolen,
                            });
                        }
                        (ws, Instant::now())
                    })
                    .expect("spawn farm worker")
            })
            .collect();
        drop(tx);
        FarmRun::new(rx, handles, started, total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn every_job_runs_exactly_once_across_pool_sizes() {
        for workers in [1, 2, 4, 7] {
            let farm = Farm::new(FarmConfig::with_workers(workers));
            let jobs = (0..53).map(|i| JobSpec::new(i, i)).collect();
            let (outputs, stats) = farm.run(jobs, |_, i: usize| i * 2).join();
            assert_eq!(stats.jobs, 53);
            let indices: BTreeSet<usize> = outputs.iter().map(|o| o.index).collect();
            assert_eq!(indices.len(), 53, "workers={workers}");
            for o in &outputs {
                assert_eq!(o.result, o.index * 2);
            }
        }
    }

    #[test]
    fn results_stream_while_running() {
        let farm = Farm::new(FarmConfig::with_workers(2));
        let jobs = (0..8).map(|i| JobSpec::new(i, ())).collect();
        let mut run = farm.run(jobs, |_, ()| ());
        let first = run.next().expect("at least one result streams");
        assert!(first.index < 8);
        let (rest, stats) = run.join();
        assert_eq!(rest.len() as u64 + 1, stats.jobs);
    }

    #[test]
    fn priorities_run_first_on_a_single_worker() {
        let farm = Farm::new(FarmConfig::with_workers(1));
        let jobs = vec![
            JobSpec::new(0, "low").with_priority(1),
            JobSpec::new(1, "high").with_priority(100),
            JobSpec::new(2, "mid").with_priority(50),
        ];
        let run = farm.run(jobs, |_, s: &'static str| s);
        let order: Vec<&str> = run.map(|o| o.result).collect();
        assert_eq!(order, vec!["high", "mid", "low"]);
    }

    /// A panicking classification job must surface through `join`:
    /// the peer still drains the queue and exits, and `join` re-raises
    /// the panic instead of hanging or returning partial stats.
    #[test]
    fn panicking_job_surfaces_through_join() {
        let farm = Farm::new(FarmConfig::with_workers(2));
        let jobs = vec![JobSpec::new(0, true), JobSpec::new(1, false)];
        let run = farm.run(jobs, |_, poison: bool| {
            assert!(!poison, "job exploded");
        });
        let joined = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run.join()));
        assert!(joined.is_err(), "worker panic must surface, not hang");
    }

    #[test]
    fn worker_stats_cover_all_jobs() {
        let farm = Farm::new(FarmConfig::with_workers(3));
        let jobs = (0..30).map(|i| JobSpec::new(i, ())).collect();
        let (_, stats) = farm.run(jobs, |_, ()| ()).join();
        assert_eq!(stats.per_worker.iter().map(|w| w.jobs).sum::<u64>(), 30);
        assert_eq!(stats.per_worker.len(), 3);
        assert_eq!(
            stats.steals,
            stats.per_worker.iter().map(|w| w.steals).sum::<u64>()
        );
    }
}
