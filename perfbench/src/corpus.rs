//! `corpus-cli`: the 11 Table-1 workloads in paper order through
//! `portend_cli::analyze_workload` — the `portend analyze` path, with a
//! fresh solver cache per program, streamed frames, and no store. One
//! request is one pass over the corpus, as `portend analyze` with no
//! names runs it; the order is fixed, so the seed changes nothing.

use std::sync::Arc;
use std::time::Instant;

use portend_cli::AnalyzeOptions;
use portend_obs::Trace;
use portend_symex::{SolverCache, DEFAULT_SHARDS};
use portend_workloads::Workload;

use crate::bench::{Bench, Ctx, RealLayers, Sample, Spec};
use crate::subject::{Counters, Subject};
use crate::util::FrameTap;

/// The workload's description.
pub const SPEC: Spec = Spec {
    name: "corpus-cli",
    streams: true,
    coverage: &["pbzip2", "memcached", "ctrace"],
    order: |n, _seed| Box::new((0..n).cycle()),
    per_round: true,
    setup,
};

struct Corpus {
    workloads: Vec<Workload>,
    subjects: Vec<Subject>,
    opts: AnalyzeOptions,
    tap: FrameTap,
    next_id: u64,
}

fn setup(ctx: &Ctx) -> Result<Box<dyn Bench>, String> {
    let workloads = portend_workloads::all();
    let subjects = workloads.iter().map(Subject::corpus).collect();
    let mut corpus = Corpus {
        workloads,
        subjects,
        opts: AnalyzeOptions {
            workers: ctx.workers,
            ..Default::default()
        },
        tap: FrameTap::new(),
        next_id: 1,
    };
    for at in 0..corpus.workloads.len() {
        let warm = corpus.request(at, false);
        if warm.failed || warm.mismatches > 0 {
            return Err(format!(
                "warm-up of {} failed its checks",
                corpus.subjects[at].name
            ));
        }
    }
    Ok(Box::new(corpus))
}

impl Bench for Corpus {
    fn subjects(&self) -> &[Subject] {
        &self.subjects
    }

    fn request(&mut self, at: usize, traced: bool) -> Sample {
        let id = self.next_id;
        self.next_id += 1;
        self.tap.restart();
        let start = Instant::now();
        let out =
            portend_cli::analyze_workload(&self.workloads[at], id, None, &self.opts, &mut self.tap);
        let latency = start.elapsed();
        let mut sample = Sample {
            at,
            latency,
            first_verdict: self.tap.first,
            ..Default::default()
        };
        match out {
            Err(e) => {
                eprintln!("{}: {e}", self.subjects[at].name);
                sample.failed = true;
            }
            Ok((result, report)) => {
                let frames = self.tap.lines().count();
                sample.mismatches = self.subjects[at].result_mismatches(&result)
                    + u64::from(frames != result.analyzed.len() + 1);
                sample.counters = Counters::of_result(&result);
                if result.analyzed.is_empty() {
                    sample.first_verdict = None;
                }
                if traced {
                    sample.layers = RealLayers::from_report(&report.to_json_value());
                    sample.layers.frames = frames as f64;
                }
            }
        }
        sample
    }

    fn repro_cache(&mut self, _at: usize) -> Arc<SolverCache> {
        Arc::new(SolverCache::new(DEFAULT_SHARDS))
    }

    fn close(self: Box<Self>) -> Result<Option<Trace>, String> {
        Ok(None)
    }
}
