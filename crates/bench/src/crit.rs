//! A minimal, dependency-free Criterion-compatible benchmark harness.
//!
//! The container this reproduction builds in has no access to crates.io,
//! so the `criterion` crate cannot be vendored; this module provides the
//! narrow API surface our benches use — [`Criterion::bench_function`],
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::throughput`],
//! [`Bencher::iter`], [`black_box`], and
//! the [`crate::criterion_group!`]/[`crate::criterion_main!`] macros — with wall-clock
//! timing and a min/mean/median report (plus the median per element
//! when a [`Throughput`] is set). Benches declare
//! `harness = false` and run as plain binaries under `cargo bench`.
//!
//! ## Machine-readable output
//!
//! `cargo bench --bench bench_solver -- --json out.json` additionally
//! writes every benchmark's per-iteration statistics as one JSON
//! document (`{"format":"portend-bench","version":1,"benches":[…]}`,
//! durations in integer nanoseconds, `elements` per iteration or
//! `null`) — the artifact CI uploads so runs can be diffed across
//! commits.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use portend_obs::json::Json;

pub use std::hint::black_box;

/// One finished benchmark's record, kept for the `--json` report.
#[derive(Debug, Clone)]
struct BenchRecord {
    group: Option<String>,
    name: String,
    samples_ns: Vec<u64>,
    elements: Option<u64>,
}

/// Work one iteration performs, mirroring `criterion::Throughput`: the
/// report adds the median time per element.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration (e.g. interpreted instructions).
    Elements(u64),
}

static RESULTS: Mutex<Vec<BenchRecord>> = Mutex::new(Vec::new());

/// Samples per benchmark unless overridden via
/// [`BenchmarkGroup::sample_size`].
pub const DEFAULT_SAMPLE_SIZE: usize = 20;

/// The top-level harness handle, mirroring `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Runs one benchmark with the default sample size.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_bench(None, name, DEFAULT_SAMPLE_SIZE, None, f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("group: {name}");
        BenchmarkGroup {
            _parent: self,
            name: name.to_string(),
            sample_size: DEFAULT_SAMPLE_SIZE,
            throughput: None,
        }
    }
}

/// A group of benchmarks sharing a sample-size and throughput setting.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Sets the work per iteration of the benchmarks that follow.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, name: &str, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let elements = self.throughput.map(|Throughput::Elements(n)| n);
        run_bench(Some(&self.name), name, self.sample_size, elements, f);
        self
    }

    /// Ends the group (accepted for API compatibility).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; [`Bencher::iter`] times the payload.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples: Vec<Duration>,
}

impl Bencher {
    /// Times `f` over one warmup run plus `sample_size` measured runs.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        black_box(f()); // warmup (and forces at least one execution)
        self.samples.reserve(self.sample_size);
        for _ in 0..self.sample_size {
            let t0 = Instant::now();
            black_box(f());
            self.samples.push(t0.elapsed());
        }
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    group: Option<&str>,
    name: &str,
    sample_size: usize,
    elements: Option<u64>,
    mut f: F,
) {
    let mut b = Bencher {
        sample_size,
        samples: Vec::new(),
    };
    f(&mut b);
    if b.samples.is_empty() {
        println!("{name:<48} (no samples — closure never called iter)");
        return;
    }
    b.samples.sort();
    let min = b.samples[0];
    let median = b.samples[b.samples.len() / 2];
    let mean = b.samples.iter().sum::<Duration>() / b.samples.len() as u32;
    let per_element = match elements {
        Some(n) if n > 0 => format!(
            " | {:.1} ns/elem over {n} elem",
            median.as_nanos() as f64 / n as f64
        ),
        _ => String::new(),
    };
    println!(
        "{name:<48} min {} | median {} | mean {} ({} samples){per_element}",
        fmt_duration(min),
        fmt_duration(median),
        fmt_duration(mean),
        b.samples.len(),
    );
    RESULTS.lock().expect("bench registry").push(BenchRecord {
        group: group.map(str::to_string),
        name: name.to_string(),
        samples_ns: b.samples.iter().map(|d| d.as_nanos() as u64).collect(),
        elements,
    });
}

/// Renders every benchmark recorded so far as the `--json` document.
pub fn results_json() -> String {
    let results = RESULTS.lock().expect("bench registry");
    let benches: Vec<Json> = results
        .iter()
        .map(|r| {
            // `samples_ns` is sorted (run_bench sorts before recording).
            let total: u64 = r.samples_ns.iter().sum();
            let n = r.samples_ns.len() as u64;
            Json::Obj(vec![
                (
                    "group".into(),
                    r.group.as_deref().map_or(Json::Null, Json::from),
                ),
                ("name".into(), r.name.as_str().into()),
                ("samples".into(), Json::from(n)),
                ("total_ns".into(), Json::from(total)),
                ("min_ns".into(), Json::from(r.samples_ns[0])),
                (
                    "median_ns".into(),
                    Json::from(r.samples_ns[r.samples_ns.len() / 2]),
                ),
                ("mean_ns".into(), Json::from(total / n)),
                (
                    "max_ns".into(),
                    Json::from(*r.samples_ns.last().expect("non-empty")),
                ),
                ("elements".into(), r.elements.map_or(Json::Null, Json::from)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("format".into(), "portend-bench".into()),
        ("version".into(), Json::from(1u32)),
        ("benches".into(), Json::Arr(benches)),
    ])
    .render()
}

/// Handles the harness's own CLI: with `--json <path>` among the
/// arguments (anything after `cargo bench … --`), writes
/// [`results_json`] to that path. Called by the `main` that
/// [`crate::criterion_main!`] generates, after every group has run.
pub fn finish() {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--json" {
            let path = PathBuf::from(args.next().unwrap_or_else(|| {
                eprintln!("--json requires a path");
                std::process::exit(2);
            }));
            // Cargo runs bench binaries from the package directory, so
            // relative paths may point at directories that don't exist
            // yet — create them rather than failing the whole bench.
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                let _ = std::fs::create_dir_all(parent);
            }
            if let Err(e) = std::fs::write(&path, results_json()) {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            }
            println!("json report: {}", path.display());
            return;
        }
    }
}

/// Human-scale duration formatting (ns/µs/ms/s).
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group function, mirroring
/// `criterion::criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::crit::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench binary's `main`, mirroring
/// `criterion::criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
            $crate::crit::finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_samples_and_formats() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("t");
        group
            .sample_size(3)
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        group.finish();
        assert_eq!(fmt_duration(Duration::from_nanos(10)), "10 ns");
        assert!(fmt_duration(Duration::from_micros(15)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(15)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).contains("s"));
    }

    #[test]
    fn json_report_is_well_formed() {
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("json-group");
        group
            .sample_size(4)
            .throughput(Throughput::Elements(6))
            .bench_function("probe", |b| b.iter(|| black_box(2) * 3));
        group.finish();
        let doc = portend_obs::json::parse(&results_json()).expect("report parses");
        assert_eq!(
            doc.get("format").and_then(Json::as_str),
            Some("portend-bench")
        );
        assert_eq!(doc.get("version").and_then(Json::as_u64), Some(1));
        let benches = doc.get("benches").and_then(Json::as_arr).expect("benches");
        let probe = benches
            .iter()
            .find(|b| b.get("name").and_then(Json::as_str) == Some("probe"))
            .expect("probe bench recorded");
        assert_eq!(
            probe.get("group").and_then(Json::as_str),
            Some("json-group")
        );
        assert_eq!(probe.get("samples").and_then(Json::as_u64), Some(4));
        assert_eq!(probe.get("elements").and_then(Json::as_u64), Some(6));
        let min = probe.get("min_ns").and_then(Json::as_u64).expect("min");
        let max = probe.get("max_ns").and_then(Json::as_u64).expect("max");
        let median = probe.get("median_ns").and_then(Json::as_u64).unwrap();
        assert!(min <= median && median <= max);
    }
}
