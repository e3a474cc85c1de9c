//! Host speed. The benchmark shares its machine with other tenants, so
//! the same work takes a different time from minute to minute. A probe
//! — fixed work that runs none of the program's code — runs between
//! request rounds; its time over its nominal time is the host's
//! slowness, and end-to-end times are divided by it. The probe's code
//! never changes with the program under test, so a change to the
//! program still shows in full.
//!
//! The hypervisor also takes whole slices of time from the VM (steal
//! time, which the probe's median never sees), and a request that waits
//! on farm workers stalls when either vCPU is taken. So a window's
//! slowness is the probe's, divided by the share of CPU time the host
//! left the VM over that window (`/proc/stat`; 1 where unavailable).
//!
//! The probe sorts a fixed array of keys in place: branchy comparisons
//! over cache-resident memory, like the interpreter's inner loop. It
//! allocates nothing while timed — an allocation can fault pages in,
//! and page faults on a shared host vary independently of the
//! program's speed.

use std::time::{Duration, Instant};

/// Keys the probe sorts.
const KEYS: usize = 3072;

/// The probe's time on an unloaded host, by definition of the scale.
pub const NOMINAL: Duration = Duration::from_micros(70);

/// The probe's fixed input and its sort buffer.
pub struct Probe {
    source: Vec<u64>,
    keys: Vec<u64>,
}

impl Probe {
    /// Builds the fixed pseudo-random input.
    pub fn new() -> Self {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let source: Vec<u64> = (0..KEYS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 4096
            })
            .collect();
        Probe {
            keys: source.clone(),
            source,
        }
    }

    /// Runs the probe once and returns how long it took.
    pub fn run(&mut self) -> Duration {
        let start = Instant::now();
        self.keys.copy_from_slice(&self.source);
        self.keys.sort_unstable();
        let mut acc = 0u64;
        for pair in self.keys.windows(2) {
            acc = if pair[0] == pair[1] {
                acc.rotate_left(5)
            } else {
                acc.wrapping_add(pair[1] - pair[0])
            };
        }
        std::hint::black_box(acc);
        start.elapsed()
    }
}

/// The VM's cumulative CPU time counters `(steal, total)` in clock
/// ticks, summed over CPUs; `(0, 0)` where `/proc/stat` is unavailable.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let Some(fields) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    // user nice system idle iowait irq softirq steal (guest time is
    // already counted in user).
    let ticks: Vec<u64> = fields
        .split_whitespace()
        .take(8)
        .filter_map(|f| f.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Slowness over an interval: the median of `probes` over [`NOMINAL`]
/// (1.0 without probes), divided by the share of CPU time left to the
/// VM between the `cpu_ticks` readings `from` and `to`.
pub fn slowness(probes: &[Duration], from: (u64, u64), to: (u64, u64)) -> f64 {
    let probe = if probes.is_empty() {
        1.0
    } else {
        let mut ns: Vec<u128> = probes.iter().map(Duration::as_nanos).collect();
        ns.sort_unstable();
        ns[(ns.len() - 1) / 2] as f64 / NOMINAL.as_nanos() as f64
    };
    let total = to.1.saturating_sub(from.1);
    let steal = to.0.saturating_sub(from.0);
    let left = if total == 0 {
        1.0
    } else {
        1.0 - steal as f64 / total as f64
    };
    // A window the host took almost entirely says nothing reliable.
    probe / left.max(0.25)
}
