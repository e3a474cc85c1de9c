//! The closed-loop runner shared by every workload: repeated set-up,
//! the timed request loop, the end-to-end metrics, and the traced run's
//! per-layer metrics.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use portend::PipelineResult;
use portend_cli::AnalyzeOptions;
use portend_obs::json::Json;
use portend_obs::{Recorder, Trace};
use portend_symex::{SolverCache, DEFAULT_SHARDS};

use crate::host;
use crate::layers::{self, Repro, SpanTotals};
use crate::subject::{Counters, Subject, Truth};
use crate::util::{mean, median, metric, ms, peak_rss_mb, quantile, ratio, Metric, SETUP_REPS};

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed for the request order.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What set-up gets to know.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Farm width: one worker per CPU.
    pub workers: usize,
    /// Whether this is the traced run.
    pub trace: bool,
    /// A private working directory next to the binary.
    pub work_dir: std::path::PathBuf,
}

/// Layer numbers the real request path reports about itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RealLayers {
    /// Summed farm job busy time.
    pub farm_busy_ms: f64,
    /// Farm workers × farm wall time.
    pub farm_capacity_ms: f64,
    /// Farm steals.
    pub farm_steals: f64,
    /// `farm.slices_offloaded`, read by key (0 when absent).
    pub slices_offloaded: f64,
    /// `farm.single_flight.claims`, read by key (0 when absent).
    pub sf_claims: f64,
    /// `farm.single_flight.slices_deduped`, read by key (0 when absent).
    pub sf_deduped: f64,
    /// `farm.dispatch.batches_dispatched`, read by key (0 when absent).
    pub dispatch_batches: f64,
    /// Warm-store hits during the request.
    pub warm_hits: f64,
    /// Warm-store validations during the request.
    pub warm_validations: f64,
    /// Warm-store validation mismatches during the request.
    pub warm_mismatches: f64,
    /// Frames received.
    pub frames: f64,
    /// Error frames received.
    pub error_frames: f64,
    /// Socket round trip minus the in-process `handle_line` time.
    pub transport_us: Option<f64>,
}

impl RealLayers {
    /// Reads the farm section of a `RunReport` JSON document by key, so
    /// counters a later version drops read as 0 instead of failing.
    pub fn from_report(report: &Json) -> Self {
        let farm = report.get("farm");
        let num = |path: &[&str]| -> f64 {
            let mut v = farm;
            for key in path {
                v = v.and_then(|x| x.get(key));
            }
            v.and_then(Json::as_f64).unwrap_or(0.0)
        };
        let workers = farm
            .and_then(|f| f.get("per_worker"))
            .and_then(Json::as_arr)
            .map_or(0, <[Json]>::len);
        RealLayers {
            farm_busy_ms: num(&["busy_total_ns"]) / 1e6,
            farm_capacity_ms: num(&["wall_ns"]) / 1e6 * workers as f64,
            farm_steals: num(&["steals"]),
            slices_offloaded: num(&["slices_offloaded"]),
            sf_claims: num(&["single_flight", "claims"]),
            sf_deduped: num(&["single_flight", "slices_deduped"]),
            dispatch_batches: num(&["dispatch", "batches_dispatched"]),
            ..Default::default()
        }
    }
}

/// One request through a workload's real path.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    /// Subject index.
    pub at: usize,
    /// Request wall time, client side.
    pub latency: Duration,
    /// Time to the first verdict, when the request produced one.
    pub first_verdict: Option<Duration>,
    /// The request failed (error, no terminating report).
    pub failed: bool,
    /// Ground-truth and wire-consistency disagreements.
    pub mismatches: u64,
    /// Deterministic counters.
    pub counters: Counters,
    /// What the path reported about its layers (traced run only).
    pub layers: RealLayers,
}

/// A workload instance after set-up.
pub trait Bench {
    /// The programs requests draw from.
    fn subjects(&self) -> &[Subject];
    /// Serves one request for subject `at` through the real path;
    /// `traced` asks for [`RealLayers`].
    fn request(&mut self, at: usize, traced: bool) -> Sample;
    /// The solver cache a reproduced request of `at` classifies with:
    /// fresh per request, or resident like the daemon's.
    fn repro_cache(&mut self, at: usize) -> Arc<SolverCache>;
    /// Stops everything set-up started; returns the events of lanes the
    /// workload recorded on its own threads (the daemon thread).
    fn close(self: Box<Self>) -> Result<Option<Trace>, String>;
}

/// A workload's static description.
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Whether verdicts stream as frames (and are rendered).
    pub streams: bool,
    /// Programs on which the traced layers must cover ≥ 95% of the
    /// request.
    pub coverage: &'static [&'static str],
    /// The request order for `n` subjects and a seed.
    pub order: fn(usize, u64) -> Box<dyn Iterator<Item = usize>>,
    /// Whether a user-facing request is a whole round (one pass over
    /// every program) rather than one program: latencies and the first
    /// verdict are then taken per round.
    pub per_round: bool,
    /// Set-up: build the workload, start what it serves from, warm up.
    pub setup: fn(&Ctx) -> Result<Box<dyn Bench>, String>,
}

/// What a run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests failed.
    pub failed: u64,
    /// Verdict mismatches against ground truth and wire consistency.
    pub mismatches: u64,
    /// Deterministic counters per program, first observation.
    pub fingerprint: BTreeMap<&'static str, Counters>,
    /// Counters that changed between requests of the same program.
    pub drift: Vec<String>,
    /// Reported metrics.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn observe(&mut self, name: &'static str, c: Counters, what: &str) {
        match self.fingerprint.get(name) {
            Some(prev) if *prev != c => {
                self.drift
                    .push(format!("{what}: {} then {}", prev.line(name), c.line(name)))
            }
            Some(_) => {}
            None => {
                self.fingerprint.insert(name, c);
            }
        }
    }

    /// Fills each fingerprinted program's `solves` from one serial
    /// classification pass with a fresh cache (untimed).
    fn add_serial_solves(&mut self, subjects: &[Subject]) {
        for s in subjects {
            if let Some(c) = self.fingerprint.get_mut(s.name) {
                let cache = Arc::new(SolverCache::new(DEFAULT_SHARDS));
                c.solves = layers::reproduce(s, &cache, None, None).counters.solves;
            }
        }
    }

    fn add_samples(&mut self, subjects: &[Subject], samples: &[Sample]) {
        for s in samples {
            self.attempted += 1;
            self.failed += u64::from(s.failed);
            self.mismatches += s.mismatches;
            if !s.failed {
                self.observe(subjects[s.at].name, s.counters, "request counters drifted");
            }
        }
    }
}

/// The outputs of a closed loop, with the end time of each whole round
/// and the host-speed readings taken after it.
struct Loop<T> {
    out: Vec<T>,
    round: usize,
    round_ends: Vec<Duration>,
    probes: Vec<Duration>,
    /// `host::cpu_ticks` at the start, then after each round.
    ticks: Vec<(u64, u64)>,
}

/// Consecutive whole rounds of a [`Loop`], at least [`WINDOW`] long.
struct Window<'a, T> {
    out: &'a [T],
    wall: Duration,
    /// How much slower than nominal the host ran during the window.
    slowness: f64,
}

/// The unit that rates and host speed are taken over. A run reports
/// the median over windows, so a burst of host noise shorter than half
/// the run does not move it.
const WINDOW: Duration = Duration::from_secs(1);

impl<T> Loop<T> {
    fn wall(&self) -> Duration {
        self.round_ends.last().copied().unwrap_or_default()
    }

    /// The rounds cut into windows; a short tail joins the last window.
    fn windows(&self) -> Vec<Window<'_, T>> {
        let mut cuts: Vec<usize> = Vec::new(); // exclusive round index
        let mut from_time = Duration::ZERO;
        for (i, end) in self.round_ends.iter().enumerate() {
            if *end - from_time >= WINDOW {
                cuts.push(i + 1);
                from_time = *end;
            }
        }
        let rounds = self.round_ends.len();
        match cuts.last_mut() {
            Some(last) => *last = rounds,
            None if rounds > 0 => cuts.push(rounds),
            None => {}
        }
        let mut from = 0;
        cuts.iter()
            .map(|&to| {
                let start = if from == 0 {
                    Duration::ZERO
                } else {
                    self.round_ends[from - 1]
                };
                let w = Window {
                    out: &self.out[from * self.round..to * self.round],
                    wall: self.round_ends[to - 1] - start,
                    slowness: host::slowness(
                        &self.probes[from..to],
                        self.ticks[from],
                        self.ticks[to],
                    ),
                };
                from = to;
                w
            })
            .collect()
    }
}

/// Runs `next` back to back, in whole rounds of `round` requests, until
/// `seconds` have passed (at least one round). Whole rounds keep every
/// program's share of the samples exact, so percentiles do not move
/// with where the clock happened to stop. The host-speed probe runs
/// between rounds and is not counted in the round times.
fn closed_loop<T>(
    seconds: f64,
    round: usize,
    order: &mut dyn Iterator<Item = usize>,
    mut next: impl FnMut(usize) -> T,
) -> Loop<T> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut run = Loop {
        out: Vec::new(),
        round,
        round_ends: Vec::new(),
        probes: Vec::new(),
        ticks: vec![host::cpu_ticks()],
    };
    let mut probe = host::Probe::new();
    let mut probing = Duration::ZERO;
    while run.out.is_empty() || start.elapsed() < budget {
        for at in (&mut *order).take(round) {
            run.out.push(next(at));
        }
        run.round_ends.push(start.elapsed() - probing);
        let took = probe.run();
        probing += took;
        run.probes.push(took);
        run.ticks.push(host::cpu_ticks());
    }
    run
}

/// Set-up `SETUP_REPS` times (closing all but the last instance);
/// returns the kept instance and the median set-up seconds, raw and
/// scaled to nominal host speed.
fn set_up(spec: &Spec, ctx: &Ctx) -> Result<(Box<dyn Bench>, f64, f64), String> {
    let mut raw = Vec::with_capacity(SETUP_REPS);
    let mut scaled = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Box<dyn Bench>> = None;
    let mut probe = host::Probe::new();
    for _ in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            previous.close()?;
        }
        let probes: Vec<Duration> = (0..5).map(|_| probe.run()).collect();
        let ticks = host::cpu_ticks();
        let t = Instant::now();
        kept = Some((spec.setup)(ctx)?);
        let took = t.elapsed().as_secs_f64();
        raw.push(took);
        scaled.push(took / host::slowness(&probes, ticks, host::cpu_ticks()));
    }
    Ok((
        kept.expect("at least one set-up"),
        median(&raw),
        median(&scaled),
    ))
}

/// Runs one workload invocation.
pub fn run(spec: &Spec, args: &Args, ctx: &Ctx) -> Result<Outcome, String> {
    let (mut bench, setup_raw, setup_s) = set_up(spec, ctx)?;
    let round = bench.subjects().len();
    let mut order = (spec.order)(round, args.seed);
    let mut outcome = Outcome::default();
    if !args.trace {
        // Read before the loop: the samples the loop keeps would
        // otherwise count, and they grow with throughput.
        let rss = peak_rss_mb();
        let run = closed_loop(args.seconds, round, &mut order, |at| {
            bench.request(at, false)
        });
        outcome.add_samples(bench.subjects(), &run.out);
        eprintln!("set-up: median {setup_raw:.4} s raw");
        outcome.metrics = end_to_end(spec, &run, setup_s, rss);
        outcome.add_serial_solves(bench.subjects());
        bench.close()?;
        return Ok(outcome);
    }

    // Traced run: a third of the time each on the real path (for the
    // numbers it reports about itself), the untraced reproduction, and
    // the traced reproduction.
    let third = args.seconds / 3.0;
    let real = closed_loop(third, round, &mut order, |at| bench.request(at, true)).out;
    outcome.add_samples(bench.subjects(), &real);
    outcome.add_serial_solves(bench.subjects());

    let subjects = bench.subjects().to_vec();
    let render: Vec<Option<PipelineResult>> = subjects
        .iter()
        .map(|s| match (&s.truth, spec.streams) {
            (Truth::Corpus(w), true) => {
                let opts = AnalyzeOptions {
                    workers: ctx.workers,
                    quiet: true,
                    ..Default::default()
                };
                portend_cli::analyze_workload(w, 1, None, &opts, &mut std::io::sink())
                    .map(|(result, _)| result)
                    .ok()
            }
            _ => None,
        })
        .collect();
    let reproduce = |bench: &mut Box<dyn Bench>, at: usize, rec: Option<&Recorder>| {
        let cache = bench.repro_cache(at);
        layers::reproduce(&subjects[at], &cache, render[at].as_ref(), rec)
    };
    // One untimed pass fills resident caches and lazily built state.
    for at in 0..subjects.len() {
        reproduce(&mut bench, at, None);
    }
    let plain = closed_loop(third, round, &mut order, |at| {
        (at, reproduce(&mut bench, at, None))
    });
    let (plain_wall, plain) = (plain.wall(), plain.out);
    // Each traced request's lane is folded in as it finishes, so the
    // events never pile up.
    let recorder = Recorder::new();
    let mut totals = SpanTotals::default();
    let mut per_subject: BTreeMap<usize, SpanTotals> = BTreeMap::new();
    let traced = closed_loop(third, round, &mut order, |at| {
        let mut r = reproduce(&mut bench, at, Some(&recorder));
        if let Some(t) = r.trace.take() {
            totals.add(&t);
            per_subject.entry(at).or_default().add(&t);
        }
        (at, r)
    });
    let (traced_wall, traced) = (traced.wall(), traced.out);
    let drive: Vec<(u64, Duration)> = subjects
        .iter()
        .map(|s| layers::drive_plain(s, 20))
        .collect();
    let daemon_trace = bench.close()?;

    let mut repro_fp = Outcome::default();
    for (at, r) in plain.iter().chain(&traced) {
        outcome.attempted += 1;
        outcome.mismatches += r.mismatches;
        repro_fp.observe(
            subjects[*at].name,
            r.counters,
            "reproduced counters drifted",
        );
    }
    outcome.drift.extend(repro_fp.drift);

    let mut daemon = SpanTotals::default();
    if let Some(t) = &daemon_trace {
        daemon.add(t);
    }

    let coverage = print_layer_report(spec, &subjects, &plain, &per_subject, &drive);
    let min_coverage = coverage
        .iter()
        .filter(|(name, _)| spec.coverage.contains(name))
        .map(|(_, pct)| *pct)
        .fold(f64::INFINITY, f64::min);
    let min_coverage = if min_coverage.is_finite() {
        min_coverage
    } else {
        0.0
    };
    eprintln!(
        "coverage check (record + sa + Σ classify{} ≥ 95% of request wall on {}): {:.1}% → {}",
        if spec.streams { " + render" } else { "" },
        spec.coverage.join(", "),
        min_coverage,
        if min_coverage >= 95.0 { "PASS" } else { "FAIL" }
    );
    eprintln!(
        "gap left for in-program tracing: classify self time is not split into \
         locate / Algorithm 1 / explore / alternates / outcmp"
    );

    outcome.metrics = per_layer(
        &real,
        &plain,
        plain_wall,
        &traced,
        traced_wall,
        &totals,
        &daemon,
        &drive,
        min_coverage,
        &outcome,
    );
    Ok(outcome)
}

/// The end-to-end metrics of an untraced run. Every time is divided by
/// its window's host slowness (see `host.rs`), so drift in the shared
/// host's speed cancels; the raw figures go to standard error.
/// Throughput and ns per instruction are medians over windows;
/// latencies are over all requests; `rss_mb` is the peak after set-up,
/// whose warm-ups ran every program.
fn end_to_end(spec: &Spec, run: &Loop<Sample>, setup_s: f64, rss_mb: f64) -> Vec<Metric> {
    let windows = run.windows();
    let (mut lat, mut first, mut raw) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut ns_per_inst, mut slowness) = (Vec::new(), Vec::new(), Vec::new());
    for w in &windows {
        let requests: Vec<&[Sample]> = if spec.per_round {
            w.out.chunks(run.round).collect()
        } else {
            w.out.chunks(1).collect()
        };
        for r in requests {
            let latency: Duration = r.iter().map(|s| s.latency).sum();
            raw.push(ms(latency));
            lat.push(ms(latency) / w.slowness);
            first.extend(r[0].first_verdict.map(|d| ms(d) / w.slowness));
        }
        let completed = w.out.iter().filter(|s| !s.failed).count() as f64;
        rates.push(completed / w.wall.as_secs_f64() * w.slowness);
        let wall_ns: f64 = w.out.iter().map(|s| s.latency.as_nanos() as f64).sum();
        let instructions: f64 = w.out.iter().map(|s| s.counters.instructions as f64).sum();
        ns_per_inst.push(ratio(wall_ns, instructions) / w.slowness);
        slowness.push(w.slowness);
    }
    let p99 = quantile(&lat, 0.99);
    let beyond = lat.iter().filter(|l| **l > p99).count();
    eprintln!(
        "{}: {} requests in {:.2} s over {} windows, host slowness median {:.3}; \
         raw latency p50 {:.3} ms, p99 {:.3} ms; p99 over {} samples ({} beyond it); \
         first verdict over {} samples",
        spec.name,
        lat.len(),
        run.wall().as_secs_f64(),
        windows.len(),
        median(&slowness),
        median(&raw),
        quantile(&raw, 0.99),
        lat.len(),
        beyond,
        first.len()
    );
    vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_rps", median(&rates), "1/s"),
        metric("latency_p50_ms", median(&lat), "ms"),
        metric("latency_p99_ms", p99, "ms"),
        metric("first_verdict_p50_ms", median(&first), "ms"),
        metric("ns_per_inst", median(&ns_per_inst), "ns"),
        metric("peak_rss_mb", rss_mb, "MiB"),
    ]
}

/// Prints the Table-4 rendition and the per-program coverage rows;
/// returns `(program, coverage %)` per program seen in the traced phase.
fn print_layer_report(
    spec: &Spec,
    subjects: &[Subject],
    plain: &[(usize, Repro)],
    per_subject: &BTreeMap<usize, SpanTotals>,
    drive: &[(u64, Duration)],
) -> Vec<(&'static str, f64)> {
    eprintln!(
        "Table 4 ({}): plain interpretation vs classification time per race",
        spec.name
    );
    eprintln!(
        "{:<20} {:>6} {:>10} {:>12} {:>10} {:>10} {:>10} {:>9}",
        "program", "races", "vm steps", "vm ns/step", "ms/race", "min", "max", "coverage"
    );
    let mut coverage = Vec::new();
    for (at, s) in subjects.iter().enumerate() {
        let races: Vec<f64> = plain
            .iter()
            .filter(|(i, _)| *i == at)
            .flat_map(|(_, r)| r.classify.iter().map(|d| ms(*d)))
            .collect();
        let clusters = plain
            .iter()
            .find(|(i, _)| *i == at)
            .map_or(0, |(_, r)| r.counters.clusters);
        let (steps, t) = drive[at];
        let pct = per_subject.get(&at).map(|t| {
            let covered = [layers::RECORD, layers::SA, layers::CLASSIFY, layers::RENDER]
                .iter()
                .map(|n| t.total(n))
                .sum::<u64>();
            100.0 * ratio(covered as f64, t.total(layers::REQUEST) as f64)
        });
        if let Some(pct) = pct {
            coverage.push((s.name, pct));
        }
        let min = races.iter().copied().fold(f64::INFINITY, f64::min);
        let max = races.iter().copied().fold(0.0, f64::max);
        eprintln!(
            "{:<20} {:>6} {:>10} {:>12.1} {:>10.3} {:>10.3} {:>10.3} {:>8.1}%",
            s.name,
            clusters,
            steps,
            ratio(t.as_nanos() as f64, steps as f64),
            mean(&races),
            if min.is_finite() { min } else { 0.0 },
            max,
            pct.unwrap_or(0.0)
        );
    }
    coverage
}

/// The traced run's per-layer metrics.
#[allow(clippy::too_many_arguments)]
fn per_layer(
    real: &[Sample],
    plain: &[(usize, Repro)],
    plain_wall: Duration,
    traced: &[(usize, Repro)],
    traced_wall: Duration,
    totals: &SpanTotals,
    daemon: &SpanTotals,
    drive: &[(u64, Duration)],
    min_coverage: f64,
    outcome: &Outcome,
) -> Vec<Metric> {
    let n3 = traced.len().max(1) as f64;
    let per3 = |name: &str| totals.total(name) as f64 / n3;
    let self3 = |name: &str| totals.self_ns(name) as f64 / n3 / 1e6;
    let avg =
        |f: &dyn Fn(&Repro) -> f64| mean(&plain.iter().map(|(_, r)| f(r)).collect::<Vec<_>>());
    let real_avg = |f: &dyn Fn(&RealLayers) -> f64| {
        mean(&real.iter().map(|s| f(&s.layers)).collect::<Vec<_>>())
    };
    let race_ms: Vec<f64> = plain
        .iter()
        .flat_map(|(_, r)| r.classify.iter().map(|d| ms(*d)))
        .collect();
    let steps: u64 = drive.iter().map(|d| d.0).sum();
    let drive_ns: f64 = drive.iter().map(|d| d.1.as_nanos() as f64).sum();
    let hits: f64 = plain.iter().map(|(_, r)| r.cache_hits as f64).sum();
    let solves: f64 = plain.iter().map(|(_, r)| r.counters.solves as f64).sum();
    let errors: u64 = plain.iter().chain(traced).map(|(_, r)| r.errors).sum();
    let busy: f64 = real.iter().map(|s| s.layers.farm_busy_ms).sum();
    let capacity: f64 = real.iter().map(|s| s.layers.farm_capacity_ms).sum();
    let transport: Vec<f64> = real.iter().filter_map(|s| s.layers.transport_us).collect();
    let untraced_rps = plain.len() as f64 / plain_wall.as_secs_f64();
    let traced_rps = traced.len() as f64 / traced_wall.as_secs_f64();
    let per_daemon = |name: &str| ratio(daemon.total(name) as f64, daemon.count(name) as f64) / 1e6;
    vec![
        metric("vm.drive_ns_per_step", ratio(drive_ns, steps as f64), "ns"),
        metric("vm.steps", steps as f64, "count"),
        metric("record.us", per3(layers::RECORD) / 1e3, "us"),
        metric(
            "record.trace_events",
            avg(&|r| r.trace_events as f64),
            "count",
        ),
        metric(
            "record.race_instances",
            avg(&|r| r.race_instances as f64),
            "count",
        ),
        metric(
            "record.clusters",
            avg(&|r| r.counters.clusters as f64),
            "count",
        ),
        metric("sa.us", per3(layers::SA) / 1e3, "us"),
        metric("sa.candidates", avg(&|r| r.sa_candidates as f64), "count"),
        metric("classify.ms", per3(layers::CLASSIFY) / 1e6, "ms"),
        metric("classify.ms_per_race_p50", median(&race_ms), "ms"),
        metric("classify.ms_per_race_p99", quantile(&race_ms, 0.99), "ms"),
        metric(
            "classify.instructions",
            avg(&|r| r.counters.instructions as f64),
            "count",
        ),
        metric(
            "classify.preemptions",
            avg(&|r| r.preemptions as f64),
            "count",
        ),
        metric("classify.primaries", avg(&|r| r.primaries as f64), "count"),
        metric(
            "classify.alternates",
            avg(&|r| r.alternates as f64),
            "count",
        ),
        metric(
            "classify.dependent_branches",
            avg(&|r| r.dependent_branches as f64),
            "count",
        ),
        metric("classify.errors", errors as f64, "count"),
        metric("solver.solves", avg(&|r| r.counters.solves as f64), "count"),
        metric("solver.cache_hits", avg(&|r| r.cache_hits as f64), "count"),
        metric("solver.hit_ratio", ratio(hits, hits + solves), "ratio"),
        metric("solver.check_ms", per3("solver_check") / 1e6, "ms"),
        metric("solver.nodes", totals.solver_nodes as f64 / n3, "count"),
        metric("warm.load_ms", per_daemon("warm_load"), "ms"),
        metric("warm.save_ms", per_daemon("warm_save"), "ms"),
        metric("warm.hits", real_avg(&|l| l.warm_hits), "count"),
        metric(
            "warm.validations",
            real_avg(&|l| l.warm_validations),
            "count",
        ),
        metric(
            "warm.mismatches",
            real.iter().map(|s| s.layers.warm_mismatches).sum(),
            "count",
        ),
        metric("fork.bytes_copied", avg(&|r| r.fork_copied as f64), "B"),
        metric("fork.bytes_shared", avg(&|r| r.fork_shared as f64), "B"),
        metric(
            "fork.slices_reused",
            avg(&|r| r.slices_reused as f64),
            "count",
        ),
        metric("farm.busy_ms", real_avg(&|l| l.farm_busy_ms), "ms"),
        metric(
            "farm.idle_ms",
            real_avg(&|l| l.farm_capacity_ms - l.farm_busy_ms),
            "ms",
        ),
        metric("farm.utilization", ratio(busy, capacity), "ratio"),
        metric("farm.steals", real_avg(&|l| l.farm_steals), "count"),
        metric(
            "farm.slices_offloaded",
            real_avg(&|l| l.slices_offloaded),
            "count",
        ),
        metric(
            "farm.single_flight_claims",
            real_avg(&|l| l.sf_claims),
            "count",
        ),
        metric(
            "farm.single_flight_deduped",
            real_avg(&|l| l.sf_deduped),
            "count",
        ),
        metric(
            "farm.dispatch_batches",
            real_avg(&|l| l.dispatch_batches),
            "count",
        ),
        metric("report.render_us", per3(layers::RENDER) / 1e3, "us"),
        metric("serve.transport_us", median(&transport), "us"),
        metric("serve.frames", real_avg(&|l| l.frames), "count"),
        metric(
            "serve.error_frames",
            real.iter().map(|s| s.layers.error_frames).sum(),
            "count",
        ),
        metric("self.record_ms", self3(layers::RECORD), "ms"),
        metric("self.sa_ms", self3(layers::SA), "ms"),
        metric("self.classify_ms", self3(layers::CLASSIFY), "ms"),
        metric(
            "self.solver_ms",
            self3("solver_check") + self3("slice_solve"),
            "ms",
        ),
        metric("self.render_ms", self3(layers::RENDER), "ms"),
        metric("self.unattributed_ms", self3(layers::REQUEST), "ms"),
        metric("trace.untraced_rps", untraced_rps, "1/s"),
        metric("trace.traced_rps", traced_rps, "1/s"),
        metric(
            "trace.overhead_pct",
            100.0 * (ratio(untraced_rps, traced_rps) - 1.0),
            "%",
        ),
        metric("coverage.min_pct", min_coverage, "%"),
        metric("verdict_mismatches", outcome.mismatches as f64, "count"),
        metric(
            "failed_ratio",
            ratio(outcome.failed as f64, outcome.attempted as f64),
            "ratio",
        ),
    ]
}
