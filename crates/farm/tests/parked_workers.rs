//! Farm workers are parked between runs, not spawned per run. This file
//! holds one test so that it runs in a process of its own, where no
//! other farm adds threads to the process-wide pool.

use std::collections::HashSet;
use std::thread;

use portend_farm::{Farm, JobSpec};

/// Twenty back-to-back runs at width 2 run every job on the same two
/// named threads: each run finds the previous run's workers idle.
#[test]
fn runs_reuse_the_same_parked_threads() {
    let mut threads = HashSet::new();
    for _ in 0..20 {
        let jobs = (0..6).map(|i| JobSpec::new(i, ())).collect();
        Farm::new(2).run(
            jobs,
            |_, ()| {
                let me = thread::current();
                let name = me.name().unwrap_or("<unnamed>");
                assert!(name.starts_with("portend-farm-"), "{name}");
                me.id()
            },
            |out| {
                threads.insert(out.result.expect("job ran on a farm thread"));
            },
        );
    }
    assert!(
        threads.len() <= 2,
        "{} distinct threads ran the jobs of 20 width-2 runs",
        threads.len()
    );
}
