//! Small shared pieces: percentiles, peak RSS, the seeded request order,
//! a frame-capturing writer, and the result-line JSON.

use std::io::Write;
use std::time::{Duration, Instant};

use portend_vm::SmallRng;

/// How many times set-up runs per invocation; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Milliseconds in a duration, as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; `0.0` when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The median of `values`; `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; `0.0` when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's peak resident set size in MiB (`VmHWM`), or `0.0`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The seeded request order: rounds over `0..n`, each round a fresh
/// shuffle, so every subject is drawn equally often and the seed only
/// decides the order within each round.
pub struct Rounds {
    rng: SmallRng,
    n: usize,
    round: Vec<usize>,
}

impl Rounds {
    /// Shuffled rounds over `n` subjects.
    pub fn shuffled(n: usize, seed: u64) -> Self {
        Rounds {
            rng: SmallRng::seed_from_u64(seed),
            n,
            round: Vec::with_capacity(n),
        }
    }
}

impl Iterator for Rounds {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.round.is_empty() {
            self.round = (0..self.n).collect();
            // Fisher–Yates, consumed from the back.
            for i in (1..self.round.len()).rev() {
                let j = self.rng.gen_index(i + 1);
                self.round.swap(i, j);
            }
        }
        self.round.pop()
    }
}

/// A `Write` sink that keeps the frame lines a front end streams and
/// notes when the first byte arrived — the first-verdict clock.
pub struct FrameTap {
    start: Instant,
    /// Time from [`FrameTap::restart`] to the first write, if any.
    pub first: Option<Duration>,
    /// Everything written since the last restart.
    pub bytes: Vec<u8>,
}

impl FrameTap {
    /// An empty tap whose clock starts now.
    pub fn new() -> Self {
        FrameTap {
            start: Instant::now(),
            first: None,
            bytes: Vec::new(),
        }
    }

    /// Clears the captured frames and restarts the clock.
    pub fn restart(&mut self) {
        self.bytes.clear();
        self.first = None;
        self.start = Instant::now();
    }

    /// The captured frame lines.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        std::str::from_utf8(&self.bytes)
            .unwrap_or("")
            .lines()
            .filter(|l| !l.trim().is_empty())
    }
}

impl Write for FrameTap {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.first.is_none() && !buf.is_empty() {
            self.first = Some(self.start.elapsed());
        }
        self.bytes.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Shorthand constructor for a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Renders the result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
