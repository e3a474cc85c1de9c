//! `idioms-serial`: the 16 conformance idioms (12 positive, 4 negative)
//! through serial `Idiom::analyze` (`Pipeline::run`) — no farm, no
//! store, no daemon. The serial path yields every verdict when the run
//! returns, so a run's first verdict arrives with its last.

use std::sync::Arc;
use std::time::Instant;

use portend::PortendConfig;
use portend_obs::Trace;
use portend_symex::{SolverCache, DEFAULT_SHARDS};
use portend_workloads::conformance::{all_idioms, Idiom};

use crate::bench::{Bench, Ctx, Sample, Spec};
use crate::subject::{Counters, Subject};
use crate::util::Rounds;

/// The workload's description.
pub const SPEC: Spec = Spec {
    name: "idioms-serial",
    streams: false,
    coverage: &["spsc_ring", "adhoc_flag"],
    order: |n, seed| Box::new(Rounds::shuffled(n, seed)),
    per_round: false,
    setup,
};

struct Idioms {
    idioms: Vec<Idiom>,
    subjects: Vec<Subject>,
}

fn setup(_ctx: &Ctx) -> Result<Box<dyn Bench>, String> {
    let idioms = all_idioms();
    let subjects = idioms.iter().map(Subject::idiom).collect();
    let mut bench = Idioms { idioms, subjects };
    for at in 0..bench.idioms.len() {
        let warm = bench.request(at, false);
        if warm.failed || warm.mismatches > 0 {
            return Err(format!(
                "warm-up of {} failed its checks",
                bench.subjects[at].name
            ));
        }
    }
    Ok(Box::new(bench))
}

impl Bench for Idioms {
    fn subjects(&self) -> &[Subject] {
        &self.subjects
    }

    fn request(&mut self, at: usize, _traced: bool) -> Sample {
        let start = Instant::now();
        let result = self.idioms[at].analyze(PortendConfig::default());
        let latency = start.elapsed();
        Sample {
            at,
            latency,
            first_verdict: (!result.analyzed.is_empty()).then_some(latency),
            failed: false,
            mismatches: self.subjects[at].result_mismatches(&result),
            counters: Counters::of_result(&result),
            layers: Default::default(),
        }
    }

    fn repro_cache(&mut self, _at: usize) -> Arc<SolverCache> {
        Arc::new(SolverCache::new(DEFAULT_SHARDS))
    }

    fn close(self: Box<Self>) -> Result<Option<Trace>, String> {
        Ok(None)
    }
}
