//! The worker pool: each run's one priority-ordered job queue, drained
//! by threads that stay parked for the life of the process.

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::Instant;

use portend_obs::EventKind;

use crate::job::{JobOutput, JobSpec};
use crate::stats::{FarmStats, WorkerStats};

/// The jobs not yet taken, highest priority first. Every job exists
/// before the run starts and no job adds another, so the queue only
/// drains.
type Queue<T> = Mutex<std::vec::IntoIter<JobSpec<T>>>;

/// The classification farm: a worker pool of a given width.
///
/// [`Farm::run`] is generic over the job payload and result types; the
/// worker function receives `(worker_id, payload)`, and each job's
/// output reaches the caller's sink the moment the job finishes. Every
/// worker takes its next job from one shared queue in priority order,
/// so at any width the next job to start is the highest-priority job
/// left.
///
/// ```
/// use portend_farm::{Farm, JobSpec};
///
/// let farm = Farm::new(4);
/// let jobs = (0..32).map(|i| JobSpec::new(i, i as u64)).collect();
/// let mut squares = vec![0; 32];
/// let stats = farm.run(jobs, |_worker, n: u64| n * n, |out| {
///     squares[out.index] = out.result.expect("no job panics");
/// });
/// assert_eq!(stats.jobs, 32);
/// assert_eq!(squares[5], 25);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Farm {
    workers: usize,
    recorder: Option<portend_obs::Recorder>,
}

impl Farm {
    /// A farm of `workers` workers; `0` means one per available CPU.
    /// A run never uses more workers than it has jobs.
    pub fn new(workers: usize) -> Self {
        Farm {
            workers,
            recorder: None,
        }
    }

    /// The same farm, with every worker attached to `recorder` as its
    /// own event lane (`worker-00`, `worker-01`, … — sort keys from the
    /// worker index, so the merged trace is deterministic). Workers emit
    /// job spans; everything their jobs emit (solver checks, cache
    /// probes, forks) lands in the same lane.
    pub fn with_recorder(mut self, recorder: portend_obs::Recorder) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Runs every job exactly once and hands each output to `sink` the
    /// moment its job finishes, in completion order; each output
    /// carries its job's `index` so callers can restore deterministic
    /// order. Returns once every output has reached `sink`.
    ///
    /// With one effective worker the calling thread runs the jobs
    /// itself and spawns no thread. With N > 1, N of the process's
    /// parked `portend-farm-*` threads drain the run's queue and the
    /// calling thread only forwards their outputs to `sink`; the pool
    /// spawns a thread only when none is idle, and never ends one. So
    /// jobs and `work` must be `'static`, and by the time `run` returns
    /// every worker has dropped its handle on `work`. `sink` may
    /// borrow from the caller. A job that panics yields an `Err` output
    /// carrying the panic message, and every other job still runs.
    pub fn run<T, R, F, S>(&self, mut jobs: Vec<JobSpec<T>>, work: F, mut sink: S) -> FarmStats
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
        S: FnMut(JobOutput<R>),
    {
        let started = Instant::now();
        let workers = effective_workers(self.workers, jobs.len());
        // Stable sort: equal priorities keep detection order.
        jobs.sort_by_key(|j| std::cmp::Reverse(j.priority));
        let total = jobs.len() as u64;
        let queue = Mutex::new(jobs.into_iter());

        let per_worker = if workers == 1 {
            vec![self.work_loop(0, &queue, &work, &mut sink)]
        } else {
            // The calling thread takes no jobs: it only forwards outputs.
            // With the caller as worker 0, a helper's finished verdict
            // waited until the caller's own job ended: on a 2-vCPU host
            // the `serve-repeat` benchmark's first-verdict p50 rose from
            // 1.26 to 1.63 ms.
            let (tx, rx) = mpsc::channel();
            let (queue, work) = (Arc::new(queue), Arc::new(work));
            for w in 0..workers {
                let (farm, tx) = (self.clone(), tx.clone());
                let (queue, work) = (Arc::clone(&queue), Arc::clone(&work));
                submit(Box::new(move || {
                    // A send fails only once the caller's sink panicked
                    // and dropped the receiver; the worker then drains
                    // the queue unreported.
                    let ws = farm.work_loop(w, &queue, &*work, &mut |out| {
                        let _ = tx.send(Message::Output(out));
                    });
                    // The caller may reclaim what `work` holds once it
                    // has every worker's last message.
                    drop((farm, queue, work));
                    Box::new(move || {
                        let _ = tx.send(Message::Done(w, ws));
                    })
                }));
            }
            drop((tx, queue, work));
            let mut per_worker = vec![WorkerStats::default(); workers];
            let mut running = workers;
            while running > 0 {
                match rx.recv().expect("farm worker panicked outside a job") {
                    Message::Output(out) => sink(out),
                    Message::Done(w, ws) => {
                        per_worker[w] = ws;
                        running -= 1;
                    }
                }
            }
            per_worker
        };
        FarmStats {
            jobs: total,
            wall: started.elapsed(),
            busy_total: per_worker.iter().map(|w| w.busy).sum(),
            per_worker,
        }
    }

    /// The only place a job runs. Worker `w` takes jobs until the queue
    /// is dry, runs each under `catch_unwind`, and hands each output to
    /// `emit`. The queue's lock is held only to take a job.
    fn work_loop<T, R>(
        &self,
        w: usize,
        queue: &Queue<T>,
        work: &impl Fn(usize, T) -> R,
        emit: &mut impl FnMut(JobOutput<R>),
    ) -> WorkerStats {
        let _lane = self
            .recorder
            .as_ref()
            .map(|r| r.attach(format!("worker-{w:02}"), 100 + w as u32));
        let mut ws = WorkerStats::default();
        loop {
            // The guard drops at the end of this statement, so no job
            // runs under the lock.
            let Some(job) = queue.lock().expect("farm queue poisoned").next() else {
                break;
            };
            let mut ev = portend_obs::span(EventKind::Job);
            let t0 = Instant::now();
            let result =
                catch_unwind(AssertUnwindSafe(|| work(w, job.payload))).map_err(panic_message);
            let time = t0.elapsed();
            ev.args(job.index as u64, 0);
            drop(ev);
            ws.jobs += 1;
            ws.busy += time;
            emit(JobOutput {
                index: job.index,
                result,
                time,
            });
        }
        ws
    }
}

/// What a wide run's workers tell its calling thread.
enum Message<R> {
    /// One finished job.
    Output(JobOutput<R>),
    /// Worker `w` found the queue dry; its last message.
    Done(usize, WorkerStats),
}

/// One worker's share of a wide run. It returns its last message
/// unsent: the parked thread sends it only after counting itself idle
/// again, so a caller holding every last message finds its workers idle
/// when it submits its next run.
type Task = Box<dyn FnOnce() -> Box<dyn FnOnce() + Send> + Send>;

/// The process's parked `portend-farm-*` threads.
struct Parked {
    /// Tasks not yet taken, in submission order.
    tasks: VecDeque<Task>,
    /// Threads that will look at `tasks` before they next sleep.
    idle: usize,
    /// Threads spawned so far; numbers the next one's name.
    threads: usize,
}

static PARKED: Mutex<Parked> = Mutex::new(Parked {
    tasks: VecDeque::new(),
    idle: 0,
    threads: 0,
});
static WAKE: Condvar = Condvar::new();

/// The pool's lock; no code panics while holding it.
fn parked() -> MutexGuard<'static, Parked> {
    PARKED.lock().expect("farm pool poisoned")
}

/// Hands `task` to an idle parked thread, or spawns one more thread when
/// none is idle, so no run waits behind another run's jobs. The pool
/// never shrinks, and a process that runs one program at a time settles
/// at its widest run.
fn submit(task: Task) {
    let mut pool = parked();
    pool.tasks.push_back(task);
    if pool.idle >= pool.tasks.len() {
        WAKE.notify_one();
        return;
    }
    // Parked threads are never joined: they outlive every run, and a
    // task that panics outside a job reaches its caller as a missing
    // last message.
    let spawned = thread::Builder::new()
        .name(format!("portend-farm-{}", pool.threads))
        .spawn(park);
    match spawned {
        Ok(_) => {
            pool.threads += 1;
            pool.idle += 1;
        }
        Err(e) => {
            pool.tasks.pop_back();
            drop(pool);
            panic!("spawn farm worker: {e}");
        }
    }
}

/// A parked thread's life: take the oldest task, run it, count itself
/// idle, send the task's last message, and sleep while none is queued.
fn park() {
    let mut pool = parked();
    loop {
        let Some(task) = pool.tasks.pop_front() else {
            pool = WAKE.wait(pool).expect("farm pool poisoned");
            continue;
        };
        pool.idle -= 1;
        drop(pool);
        let last = task();
        parked().idle += 1;
        last();
        pool = parked();
    }
}

/// The pool width for `jobs` jobs: `requested`, or the machine's
/// available parallelism when `requested == 0`, capped by `jobs` (no
/// point in idle workers) and floored at 1.
fn effective_workers(requested: usize, jobs: usize) -> usize {
    let requested = if requested == 0 {
        thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        requested
    };
    requested.min(jobs.max(1)).max(1)
}

/// The message a panicking job left, for its `Err` output.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|msg| msg.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::time::Duration;

    /// Runs `jobs` on `workers` workers and returns the outputs sorted
    /// by job index, plus the run's stats.
    fn run_sorted<T: Send + 'static, R: Send + 'static>(
        workers: usize,
        jobs: Vec<JobSpec<T>>,
        work: impl Fn(usize, T) -> R + Send + Sync + 'static,
    ) -> (Vec<JobOutput<R>>, FarmStats) {
        let mut outputs = Vec::new();
        let stats = Farm::new(workers).run(jobs, work, |out| outputs.push(out));
        outputs.sort_by_key(|o| o.index);
        (outputs, stats)
    }

    #[test]
    fn effective_workers_is_capped_by_jobs_and_floored() {
        assert_eq!(effective_workers(8, 3), 3);
        assert_eq!(effective_workers(8, 100), 8);
        assert_eq!(effective_workers(8, 0), 1);
        assert!(effective_workers(0, 64) >= 1);
    }

    #[test]
    fn every_job_runs_exactly_once_across_pool_sizes() {
        for workers in [1, 2, 4, 7] {
            let jobs = (0..53).map(|i| JobSpec::new(i, i)).collect();
            let (outputs, stats) = run_sorted(workers, jobs, |_, i: usize| i * 2);
            assert_eq!(stats.jobs, 53);
            let indices: BTreeSet<usize> = outputs.iter().map(|o| o.index).collect();
            assert_eq!(indices.len(), 53, "workers={workers}");
            for o in &outputs {
                assert_eq!(o.result, Ok(o.index * 2));
            }
        }
    }

    /// With one worker every job runs on the calling thread; with more,
    /// every job runs on a spawned `portend-farm-*` thread.
    #[test]
    fn one_worker_runs_on_the_calling_thread() {
        let caller = thread::current().id();
        let placement = |workers| {
            let jobs = (0..6).map(|i| JobSpec::new(i, ())).collect();
            let (outputs, _) = run_sorted(workers, jobs, |_, ()| {
                let me = thread::current();
                (me.id(), me.name().map(str::to_string))
            });
            outputs
                .into_iter()
                .map(|o| o.result.expect("no job panics"))
                .collect::<Vec<_>>()
        };
        for (id, _) in placement(1) {
            assert_eq!(id, caller, "a one-worker job ran off the calling thread");
        }
        for (id, name) in placement(3) {
            assert_ne!(id, caller);
            let name = name.expect("farm threads are named");
            assert!(name.starts_with("portend-farm-"), "{name}");
        }
    }

    /// Outputs reach the sink while other jobs still run: job 0 (the
    /// highest priority) finishes only after the sink has seen job 1's
    /// output. If the calling thread ran job 0 itself it could not
    /// forward job 1's output first, and job 0 would give up after its
    /// deadline instead of hanging.
    #[test]
    fn results_stream_while_running() {
        let (signal, signalled) = mpsc::channel::<()>();
        let signalled = Mutex::new(signalled);
        let jobs = vec![
            JobSpec::new(0, true).with_priority(1),
            JobSpec::new(1, false),
        ];
        let mut results = vec![None; 2];
        Farm::new(2).run(
            jobs,
            move |_, waits: bool| {
                !waits
                    || signalled
                        .lock()
                        .expect("signal lock")
                        .recv_timeout(Duration::from_secs(10))
                        .is_ok()
            },
            |out| {
                if out.index == 1 {
                    signal.send(()).expect("job 0 still waits");
                }
                results[out.index] = Some(out.result);
            },
        );
        assert_eq!(
            results[0],
            Some(Ok(true)),
            "job 0 never saw job 1's output reach the sink"
        );
    }

    /// A job's panic becomes that job's `Err` output: `run` returns
    /// normally and every other job's output is unchanged.
    #[test]
    fn a_panicking_job_becomes_an_error_output() {
        let jobs = || (0..8).map(|i| JobSpec::new(i, i)).collect::<Vec<_>>();
        for workers in [1, 3] {
            let (clean, _) = run_sorted(workers, jobs(), |_, i: usize| i * 3);
            let (outputs, stats) = run_sorted(workers, jobs(), |_, i: usize| {
                assert_ne!(i, 5, "job five exploded");
                i * 3
            });
            assert_eq!(stats.jobs, 8, "workers={workers}");
            assert_eq!(outputs.len(), 8, "workers={workers}");
            for (o, c) in outputs.iter().zip(&clean) {
                if o.index == 5 {
                    let msg = o.result.as_ref().expect_err("job 5 panicked");
                    assert!(msg.contains("job five exploded"), "{msg}");
                } else {
                    assert_eq!((o.index, &o.result), (c.index, &c.result));
                }
            }
        }
    }

    #[test]
    fn priorities_run_first_on_a_single_worker() {
        let jobs = vec![
            JobSpec::new(0, "low").with_priority(1),
            JobSpec::new(1, "high").with_priority(100),
            JobSpec::new(2, "mid").with_priority(50),
        ];
        let mut order = Vec::new();
        Farm::new(1).run(jobs, |_, s: &str| s, |out| order.push(out.result));
        assert_eq!(order, vec![Ok("high"), Ok("mid"), Ok("low")]);
    }

    /// At every width the next job to start is the highest-priority job
    /// left: while job 0 (the highest priority) holds one of two
    /// workers until the sink has seen every other output, the other
    /// worker starts jobs 1–5 in priority order.
    #[test]
    fn jobs_start_in_priority_order_on_two_workers() {
        let (signal, signalled) = mpsc::channel::<()>();
        let signalled = Mutex::new(signalled);
        let started = Arc::new(Mutex::new(Vec::new()));
        let jobs = (0..6)
            .map(|i| JobSpec::new(i, i).with_priority(100 - 10 * i as u64))
            .collect();
        let mut others_done = 0;
        let log = Arc::clone(&started);
        Farm::new(2).run(
            jobs,
            move |_, i: usize| {
                if i == 0 {
                    return signalled
                        .lock()
                        .expect("signal lock")
                        .recv_timeout(Duration::from_secs(10))
                        .is_ok();
                }
                log.lock().expect("start log").push(i);
                true
            },
            |out| {
                if out.index != 0 {
                    others_done += 1;
                    if others_done == 5 {
                        signal.send(()).expect("job 0 still waits");
                    }
                }
            },
        );
        assert_eq!(*started.lock().expect("start log"), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn worker_stats_cover_all_jobs() {
        let jobs = (0..30).map(|i| JobSpec::new(i, ())).collect();
        let (_, stats) = run_sorted(3, jobs, |_, ()| ());
        assert_eq!(stats.per_worker.iter().map(|w| w.jobs).sum::<u64>(), 30);
        assert_eq!(stats.per_worker.len(), 3);
    }
}
