//! Streaming access to a running farm's results.

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use portend_symex::SolverCache;

use crate::stats::{FarmStats, WorkerStats};

/// One finished job, as delivered by a worker.
#[derive(Debug, Clone)]
pub struct JobOutput<R> {
    /// The caller's job identifier (see [`crate::JobSpec::index`]).
    pub index: usize,
    /// The job's scheduling priority.
    pub priority: u64,
    /// What the worker function returned.
    pub result: R,
    /// Wall-clock execution time of this job.
    pub time: Duration,
    /// The worker that executed it.
    pub worker: usize,
    /// Whether the job was stolen from another worker's queue.
    pub stolen: bool,
}

/// A handle on an in-flight farm run.
///
/// `FarmRun` is an iterator: it yields each [`JobOutput`] the moment a
/// worker finishes it (suspected-harmful races therefore stream out
/// first). Call [`FarmRun::join`] — before, during, or after iteration —
/// to wait for the pool and obtain the not-yet-consumed outputs plus the
/// aggregate [`FarmStats`].
#[derive(Debug)]
pub struct FarmRun<R> {
    rx: Receiver<JobOutput<R>>,
    handles: Vec<JoinHandle<(WorkerStats, Instant)>>,
    started: Instant,
    jobs: u64,
    cache: Option<Arc<SolverCache>>,
}

impl<R> FarmRun<R> {
    pub(crate) fn new(
        rx: Receiver<JobOutput<R>>,
        handles: Vec<JoinHandle<(WorkerStats, Instant)>>,
        started: Instant,
        jobs: u64,
    ) -> Self {
        FarmRun {
            rx,
            handles,
            started,
            jobs,
            cache: None,
        }
    }

    /// Total jobs submitted to this run.
    pub fn job_count(&self) -> u64 {
        self.jobs
    }

    /// Attaches the solver cache whose counters should be reported in the
    /// final [`FarmStats`].
    pub fn attach_cache(&mut self, cache: Arc<SolverCache>) {
        self.cache = Some(cache);
    }

    /// Waits for every worker to exit and returns the outputs that were
    /// not already consumed through iteration (sorted by job index), plus
    /// the aggregate statistics of the whole run.
    pub fn join(self) -> (Vec<JobOutput<R>>, FarmStats) {
        let mut remaining: Vec<JobOutput<R>> = self.rx.iter().collect();
        remaining.sort_by_key(|o| o.index);

        let mut per_worker = Vec::with_capacity(self.handles.len());
        let mut last_exit = self.started;
        for h in self.handles {
            let (ws, end) = h.join().expect("farm worker panicked");
            last_exit = last_exit.max(end);
            per_worker.push(ws);
        }
        let stats = FarmStats {
            jobs: self.jobs,
            wall: last_exit.duration_since(self.started),
            busy_total: per_worker.iter().map(|w| w.busy).sum(),
            steals: per_worker.iter().map(|w| w.steals).sum(),
            per_worker,
            cache: self.cache.as_ref().map(|c| c.snapshot()),
            // The generic pool cannot see inside job results; callers
            // whose jobs report fork costs fill these in afterwards.
            fork_bytes_copied: 0,
            fork_bytes_shared: 0,
            fork_slices_reused: 0,
        };
        (remaining, stats)
    }
}

impl<R> Iterator for FarmRun<R> {
    type Item = JobOutput<R>;

    /// Blocks until the next job finishes; `None` once every worker has
    /// exited and all outputs were delivered.
    fn next(&mut self) -> Option<JobOutput<R>> {
        self.rx.recv().ok()
    }
}
