//! `serve-repeat`: one resident `portend_serve::Server` with a managed
//! store directory, served with `serve_unix` on a thread, and one
//! in-process client sending seeded `analyze` requests with
//! `portend_cli::submit` over the four symbolic-input programs.
//! Set-up sends one warm-up request per program, so measured requests
//! hit the resident caches and the warm stores.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use portend_obs::json::Json;
use portend_obs::{Recorder, Trace};
use portend_serve::{Frame, Request, Server, ServerConfig};
use portend_symex::{SolverCache, DEFAULT_SHARDS};

use crate::bench::{Bench, Ctx, RealLayers, Sample, Spec};
use crate::subject::{Counters, Subject};
use crate::util::{FrameTap, Rounds};

/// The workload's description.
pub const SPEC: Spec = Spec {
    name: "serve-repeat",
    streams: true,
    coverage: &["pbzip2", "ctrace"],
    order: |n, seed| Box::new(Rounds::shuffled(n, seed)),
    per_round: false,
    setup,
};

/// The programs with symbolic inputs, which requests draw from.
const PROGRAMS: [&str; 4] = ["ctrace", "ocean", "bbuf", "pbzip2"];

/// Distinguishes the store directories of successive set-ups.
static INSTANCE: AtomicU64 = AtomicU64::new(0);

/// Cumulative cache counters of one program's resident cache, as the
/// last terminating report showed them.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    warm_hits: u64,
    warm_validations: u64,
    warm_mismatches: u64,
}

impl Seen {
    fn of(report: &Json) -> Self {
        let n = |k: &str| {
            report
                .get("cache")
                .and_then(|c| c.get(k))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        Seen {
            warm_hits: n("warm_hits"),
            warm_validations: n("warm_validations"),
            warm_mismatches: n("warm_mismatches"),
        }
    }
}

struct Serve {
    subjects: Vec<Subject>,
    server: Arc<Server>,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    recorder: Option<Recorder>,
    dir: PathBuf,
    socket: PathBuf,
    tap: FrameTap,
    next_id: u64,
    seen: Vec<Seen>,
    resident: Vec<Arc<SolverCache>>,
}

/// A socket path short enough for `sockaddr_un`, relative to the
/// working directory when the absolute one is too long.
fn socket_path(dir: &Path) -> Result<PathBuf, String> {
    let path = dir.join("s.sock");
    if path.as_os_str().len() <= 100 {
        return Ok(path);
    }
    let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
    match path.strip_prefix(&cwd) {
        Ok(rel) if rel.as_os_str().len() <= 100 => Ok(rel.to_path_buf()),
        _ => Err(format!("socket path too long: {}", path.display())),
    }
}

fn setup(ctx: &Ctx) -> Result<Box<dyn Bench>, String> {
    let subjects: Vec<Subject> = PROGRAMS
        .iter()
        .map(|name| portend_workloads::by_name(name).map(|w| Subject::corpus(&w)))
        .collect::<Option<_>>()
        .ok_or("a symbolic-input program is missing")?;
    let dir = ctx.work_dir.join(format!(
        "serve-{}",
        INSTANCE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let socket = socket_path(&dir)?;
    let server = Arc::new(
        Server::new(ServerConfig {
            store_dir: Some(dir.join("store")),
            workers: ctx.workers,
            ..Default::default()
        })
        .map_err(|e| e.to_string())?,
    );
    let recorder = ctx.trace.then(Recorder::new);
    let daemon = {
        let server = Arc::clone(&server);
        let socket = socket.clone();
        let recorder = recorder.clone();
        std::thread::spawn(move || {
            let _lane = recorder.as_ref().map(|r| r.attach("daemon", 1));
            server.serve_unix(&socket)
        })
    };
    let n = subjects.len();
    let mut serve = Serve {
        subjects,
        server,
        daemon: Some(daemon),
        recorder,
        dir,
        socket,
        tap: FrameTap::new(),
        next_id: 1,
        seen: vec![Seen::default(); n],
        resident: (0..n)
            .map(|_| Arc::new(SolverCache::new(DEFAULT_SHARDS)))
            .collect(),
    };
    serve.await_daemon()?;
    for at in 0..n {
        let warm = serve.request(at, false);
        if warm.failed || warm.mismatches > 0 {
            return Err(format!(
                "warm-up of {} failed its checks",
                serve.subjects[at].name
            ));
        }
    }
    Ok(Box::new(serve))
}

impl Serve {
    /// Pings until the daemon answers (it binds on its own thread).
    fn await_daemon(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let ping = Request::Ping { id: 0 };
            match portend_cli::submit(&self.socket, &ping, &mut std::io::sink()) {
                Ok(_) => return Ok(()),
                Err(e) if Instant::now() > deadline => return Err(e.to_string()),
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }
    }

    /// Accounts a terminating report of subject `at`: returns the
    /// cumulative-counter deltas since the previous one.
    fn absorb(&mut self, at: usize, report: &Json) -> Seen {
        let now = Seen::of(report);
        let before = std::mem::replace(&mut self.seen[at], now);
        Seen {
            warm_hits: now.warm_hits.saturating_sub(before.warm_hits),
            warm_validations: now.warm_validations.saturating_sub(before.warm_validations),
            warm_mismatches: now.warm_mismatches.saturating_sub(before.warm_mismatches),
        }
    }

    /// The same request answered in-process by `handle_line`, for the
    /// transport split; returns its wall time.
    fn in_process(&mut self, at: usize, request: &Request) -> Duration {
        let line = request.render();
        let mut done = None;
        let start = Instant::now();
        self.server.handle_line(&line, &mut |frame| {
            std::hint::black_box(frame.render());
            if let Frame::Done { report, .. } = frame {
                done = Some(report);
            }
        });
        let took = start.elapsed();
        if let Some(report) = done {
            self.absorb(at, &report);
        }
        took
    }
}

impl Bench for Serve {
    fn subjects(&self) -> &[Subject] {
        &self.subjects
    }

    fn request(&mut self, at: usize, traced: bool) -> Sample {
        let id = self.next_id;
        self.next_id += 1;
        let request = Request::Analyze {
            id,
            workload: self.subjects[at].name.to_string(),
            workers: 0,
        };
        self.tap.restart();
        let start = Instant::now();
        let sent = portend_cli::submit(&self.socket, &request, &mut self.tap);
        let latency = start.elapsed();
        let mut sample = Sample {
            at,
            latency,
            ..Default::default()
        };
        if let Err(e) = sent {
            eprintln!("{}: {e}", self.subjects[at].name);
            sample.failed = true;
            return sample;
        }

        let mut verdicts: Vec<(u64, Json)> = Vec::new();
        let mut done = None;
        let mut errors = 0u64;
        let mut frames = 0u64;
        for line in self.tap.lines() {
            frames += 1;
            match Frame::parse(line) {
                Ok(Frame::Verdict { index, race, .. }) => verdicts.push((index, race)),
                Ok(Frame::Done { report, .. }) => done = Some(report),
                _ => errors += 1,
            }
        }
        let Some(report) = done else {
            sample.failed = true;
            return sample;
        };
        if !verdicts.is_empty() {
            sample.first_verdict = self.tap.first;
        }
        let races = report.get("races").and_then(Json::as_arr).unwrap_or(&[]);

        // Wire consistency: one verdict frame per report race, each
        // byte-equal to its entry.
        let mut seen = vec![false; races.len()];
        let mut bad = u64::from(verdicts.len() != races.len());
        for (index, race) in &verdicts {
            match races.get(*index as usize) {
                Some(entry) if !seen[*index as usize] && entry.render() == race.render() => {
                    seen[*index as usize] = true;
                }
                _ => bad += 1,
            }
        }

        let mut labels = Vec::with_capacity(races.len());
        let mut counters = Counters::default();
        for race in races {
            let alloc = race.get("alloc").and_then(Json::as_str).unwrap_or("");
            let verdict = race.get("verdict");
            let label = verdict.and_then(|v| v.get("class")).and_then(Json::as_str);
            let stat = |k: &str| {
                verdict
                    .and_then(|v| v.get("stats"))
                    .and_then(|s| s.get(k))
                    .and_then(Json::as_u64)
                    .unwrap_or(0)
            };
            counters.add_verdict(
                label,
                stat("instructions"),
                stat("bytes_copied_on_fork") + stat("bytes_shared_on_fork"),
            );
            labels.push((alloc, label));
        }
        bad += self.subjects[at].mismatches(labels);
        let delta = self.absorb(at, &report);
        // Warm answers are validation-sampled; any disagreement is a
        // wrong answer served from the store.
        bad += delta.warm_mismatches;

        sample.mismatches = bad;
        sample.counters = counters;
        sample.failed = errors > 0;
        if traced {
            let mut layers = RealLayers::from_report(&report);
            layers.warm_hits = delta.warm_hits as f64;
            layers.warm_validations = delta.warm_validations as f64;
            layers.warm_mismatches = delta.warm_mismatches as f64;
            layers.frames = frames as f64;
            layers.error_frames = errors as f64;
            let inside = self.in_process(at, &request);
            layers.transport_us = Some((latency.as_secs_f64() - inside.as_secs_f64()) * 1e6);
            sample.layers = layers;
        }
        sample
    }

    fn repro_cache(&mut self, at: usize) -> Arc<SolverCache> {
        Arc::clone(&self.resident[at])
    }

    fn close(mut self: Box<Self>) -> Result<Option<Trace>, String> {
        let bye = Request::Shutdown { id: self.next_id };
        let sent = portend_cli::submit(&self.socket, &bye, &mut std::io::sink());
        let _ = std::fs::remove_dir_all(&self.dir);
        // Only a daemon that acknowledged the shutdown is joined; one
        // that cannot be reached would block the join forever.
        sent.map_err(|e| format!("shutdown: {e}"))?;
        let joined = match self.daemon.take() {
            Some(handle) => handle.join(),
            None => Ok(Ok(())),
        };
        match joined {
            Ok(Ok(())) => {}
            Ok(Err(e)) => return Err(format!("daemon: {e}")),
            Err(_) => return Err("daemon thread panicked".to_string()),
        }
        Ok(self.recorder.as_ref().map(Recorder::finish))
    }
}
