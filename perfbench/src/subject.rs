//! What a request analyzes: one program with its inputs, plus the
//! labeled ground truth every verdict is checked against.

use std::collections::BTreeMap;
use std::sync::Arc;

use portend::{PipelineResult, Predicate, RaceClass};
use portend_vm::{InputSpec, Program, Scheduler, VmConfig};
use portend_workloads::conformance::Idiom;
use portend_workloads::Workload;

/// Verdict labels in histogram order; the last slot counts errors.
pub const CLASSES: [&str; 5] = ["specViol", "outDiff", "k-witness", "singleOrd", "error"];

/// The ground truth a request's verdicts must match.
#[derive(Clone)]
pub enum Truth {
    /// A Table-1 workload: each race's class must equal
    /// `Workload::expected_verdict` for its allocation.
    Corpus(Workload),
    /// A conformance idiom: per allocation, the produced label multiset
    /// must equal `Idiom::expected_labels`, and `must_not_race`
    /// allocations must produce no race.
    Idiom(Idiom),
}

/// One analyzable program.
#[derive(Clone)]
pub struct Subject {
    /// Program name (workload or idiom name).
    pub name: &'static str,
    /// The model program.
    pub program: Arc<Program>,
    /// Concrete input log.
    pub inputs: Vec<i64>,
    /// Symbolic input declarations.
    pub input_spec: InputSpec,
    /// Semantic predicates.
    pub predicates: Vec<Predicate>,
    /// Recording scheduler.
    pub scheduler: Scheduler,
    /// VM configuration.
    pub vm: VmConfig,
    /// Ground truth.
    pub truth: Truth,
}

impl Subject {
    /// A Table-1 workload.
    pub fn corpus(w: &Workload) -> Self {
        Subject {
            name: w.name,
            program: Arc::clone(&w.program),
            inputs: w.inputs.clone(),
            input_spec: w.input_spec.clone(),
            predicates: w.predicates.clone(),
            scheduler: w.record_scheduler.clone(),
            vm: w.vm,
            truth: Truth::Corpus(w.clone()),
        }
    }

    /// A conformance idiom (analyzed without predicates, as
    /// `Idiom::analyze` does).
    pub fn idiom(i: &Idiom) -> Self {
        Subject {
            name: i.name,
            program: Arc::clone(&i.program),
            inputs: i.inputs.clone(),
            input_spec: i.input_spec.clone(),
            predicates: Vec::new(),
            scheduler: i.scheduler.clone(),
            vm: i.vm,
            truth: Truth::Idiom(i.clone()),
        }
    }

    /// How many `(allocation, label)` verdicts disagree with the ground
    /// truth. `label` is `None` for a failed classification.
    pub fn mismatches<'a>(
        &self,
        verdicts: impl IntoIterator<Item = (&'a str, Option<&'a str>)>,
    ) -> u64 {
        match &self.truth {
            Truth::Corpus(w) => verdicts
                .into_iter()
                .filter(|(alloc, label)| w.expected_verdict(alloc).map(RaceClass::label) != *label)
                .count() as u64,
            Truth::Idiom(idiom) => {
                let mut produced: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
                for (alloc, label) in verdicts {
                    produced
                        .entry(alloc)
                        .or_default()
                        .push(label.unwrap_or("error"));
                }
                let mut bad = 0u64;
                for (alloc, labels) in &mut produced {
                    labels.sort_unstable();
                    let unlabeled = !idiom.labeled_allocs().contains(alloc);
                    if unlabeled || idiom.must_not_race(alloc) {
                        bad += labels.len() as u64;
                    } else if *labels != idiom.expected_labels(alloc) {
                        bad += 1;
                    }
                }
                for alloc in idiom.labeled_allocs() {
                    if !produced.contains_key(alloc) && !idiom.expected_labels(alloc).is_empty() {
                        bad += 1;
                    }
                }
                bad
            }
        }
    }

    /// [`Subject::mismatches`] over a pipeline result.
    pub fn result_mismatches(&self, result: &PipelineResult) -> u64 {
        self.mismatches(result.analyzed.iter().map(|a| {
            (
                a.cluster.representative.alloc_name.as_str(),
                a.verdict.as_ref().ok().map(|v| v.class.label()),
            )
        }))
    }
}

/// Work counters of one request that must repeat exactly for the same
/// program on the same code: the deterministic-counter fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Logical VM instructions (`ClassifyStats::instructions`, summed).
    pub instructions: u64,
    /// Solver solves (whole-query plus slice cache misses) of one
    /// serial classification pass with a fresh cache. The farm's count
    /// varies with timing — two workers can miss on one key at once —
    /// so it is measured outside the farm.
    pub solves: u64,
    /// Copy-on-write fork bytes, copied plus shared.
    pub fork_bytes: u64,
    /// Distinct race clusters.
    pub clusters: u64,
    /// Verdicts per [`CLASSES`] slot.
    pub classes: [u64; 5],
}

impl Counters {
    /// Adds one verdict (its label, `None` for an error) and its work.
    pub fn add_verdict(&mut self, label: Option<&str>, instructions: u64, fork_bytes: u64) {
        let slot = label
            .and_then(|l| CLASSES.iter().position(|c| *c == l))
            .unwrap_or(CLASSES.len() - 1);
        self.classes[slot] += 1;
        self.clusters += 1;
        self.instructions += instructions;
        self.fork_bytes += fork_bytes;
    }

    /// Counters of a pipeline result, `solves` left at 0.
    pub fn of_result(result: &PipelineResult) -> Self {
        let mut c = Counters::default();
        for a in &result.analyzed {
            match &a.verdict {
                Ok(v) => c.add_verdict(
                    Some(v.class.label()),
                    v.stats.instructions,
                    v.stats.bytes_copied_on_fork + v.stats.bytes_shared_on_fork,
                ),
                Err(_) => c.add_verdict(None, 0, 0),
            }
        }
        c
    }

    /// One fingerprint line for `program`.
    pub fn line(&self, program: &str) -> String {
        let classes: Vec<String> = CLASSES
            .iter()
            .zip(self.classes)
            .map(|(c, n)| format!("{c}:{n}"))
            .collect();
        format!(
            "{program} instructions={} solves={} fork_bytes={} clusters={} classes={}",
            self.instructions,
            self.solves,
            self.fork_bytes,
            self.clusters,
            classes.join(",")
        )
    }
}
