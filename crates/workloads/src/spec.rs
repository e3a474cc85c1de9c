//! Workload descriptors: a program model plus everything Portend needs to
//! analyze it, plus the manually-derived ground truth used to score
//! classification accuracy (the paper's one person-month of manual
//! classification, §5).

use std::sync::Arc;

use portend::{
    AnalyzedRace, Pipeline, PipelineResult, PortendConfig, Predicate, RaceClass, WarmSource,
};
use portend_race::RaceReport;
use portend_replay::RecordConfig;
use portend_vm::{InputSpec, Program, Scheduler, VmConfig};

/// Which analysis technique a race's correct classification requires —
/// the Fig. 7 breakdown dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Needs {
    /// Single-pre/single-post analysis suffices.
    SinglePath,
    /// Requires ad-hoc synchronization detection.
    AdHoc,
    /// Requires multi-path analysis.
    MultiPath,
    /// Requires multi-path *and* multi-schedule analysis.
    MultiSchedule,
}

/// Ground truth for one distinct race, keyed by the racy allocation.
#[derive(Debug, Clone)]
pub struct GroundTruth {
    /// Name of the allocation the race is on.
    pub alloc: String,
    /// The manually-derived correct class.
    pub expected: RaceClass,
    /// The class Portend is expected to *produce*, when it differs from
    /// the manually-derived truth (the paper's known residual
    /// misclassifications — ocean's k-bounded "output differs" race).
    /// `None` means Portend gets it right: produced == [`GroundTruth::expected`].
    pub predicted: Option<RaceClass>,
    /// Which technique is needed to get it right.
    pub needs: Needs,
    /// Whether the post-race memory states differ between the orderings
    /// (Table 3's k-witness sub-columns; only meaningful for harmless
    /// races).
    pub states_differ: bool,
    /// Short human note.
    pub note: &'static str,
}

impl GroundTruth {
    /// The classification Portend is expected to produce for this race:
    /// [`GroundTruth::predicted`] when the paper documents a residual
    /// misclassification, otherwise the manual truth itself.
    pub fn produced_class(&self) -> RaceClass {
        self.predicted.unwrap_or(self.expected)
    }
}

/// Expected per-class distinct-race counts (a Table 3 row).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassCounts {
    /// "Spec violated" races.
    pub spec_viol: usize,
    /// "Output differs" races.
    pub out_diff: usize,
    /// "K-witness harmless" with identical post-race states.
    pub kw_same: usize,
    /// "K-witness harmless" with differing post-race states.
    pub kw_differ: usize,
    /// "Single ordering" races.
    pub single_ord: usize,
}

impl ClassCounts {
    /// Total distinct races.
    pub fn total(&self) -> usize {
        self.spec_viol + self.out_diff + self.kw_same + self.kw_differ + self.single_ord
    }
}

/// One experimental target (a Table 1 row).
#[derive(Clone)]
pub struct Workload {
    /// Program name (Table 1).
    pub name: &'static str,
    /// Source language of the modeled original (Table 1).
    pub language: &'static str,
    /// Lines of code of the modeled original program (Table 1 context).
    pub original_loc: usize,
    /// Threads the model forks (Table 1).
    pub forked_threads: usize,
    /// The model program.
    pub program: Arc<Program>,
    /// Concrete input log for the recorded run.
    pub inputs: Vec<i64>,
    /// Symbolic input declarations for multi-path analysis.
    pub input_spec: InputSpec,
    /// Semantic predicates enabled by default.
    pub predicates: Vec<Predicate>,
    /// Optional predicates for what-if experiments (fmm's "timestamps are
    /// positive", §5.1).
    pub optional_predicates: Vec<Predicate>,
    /// Scheduler for the recording run.
    pub record_scheduler: Scheduler,
    /// VM configuration.
    pub vm: VmConfig,
    /// Ground truth per distinct race.
    pub ground_truth: Vec<GroundTruth>,
    /// Expected Table 3 row.
    pub expected: ClassCounts,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workload")
            .field("name", &self.name)
            .field("threads", &self.forked_threads)
            .field("races", &self.expected.total())
            .finish_non_exhaustive()
    }
}

impl Workload {
    /// Ground truth for a detected race, by allocation name.
    pub fn truth_for(&self, race: &RaceReport) -> Option<&GroundTruth> {
        self.ground_truth
            .iter()
            .find(|g| g.alloc == race.alloc_name)
    }

    /// The class Portend is expected to produce for the race on `alloc`
    /// (see [`GroundTruth::produced_class`]); `None` for an unknown
    /// allocation.
    pub fn expected_verdict(&self, alloc: &str) -> Option<RaceClass> {
        self.ground_truth
            .iter()
            .find(|g| g.alloc == alloc)
            .map(GroundTruth::produced_class)
    }

    /// Runs the full detect + classify pipeline with the given Portend
    /// configuration (and this workload's default predicates) on one
    /// farm worker: the calling thread.
    pub fn analyze(&self, config: PortendConfig) -> PipelineResult {
        self.analyze_with_predicates(config, self.predicates.clone())
    }

    /// Runs the pipeline with explicit predicates (e.g. including
    /// [`Workload::optional_predicates`]) on one farm worker.
    pub fn analyze_with_predicates(
        &self,
        config: PortendConfig,
        predicates: Vec<Predicate>,
    ) -> PipelineResult {
        self.pipeline(config).run(
            &self.program,
            self.inputs.clone(),
            self.input_spec.clone(),
            predicates,
            1,
            &WarmSource::default(),
            &mut |_, _, _| {},
        )
    }

    /// The front-end entry point: this workload's races classified on
    /// the farm with `workers` workers (`0` = one per CPU), an explicit
    /// warm lifecycle, and a per-cluster streaming `sink` that observes
    /// every classified race in completion order (see
    /// `Pipeline::run`). Verdicts are identical to
    /// [`Workload::analyze`]'s. To warm-start from (and persist back
    /// to) a store directory, pass a `WarmSource` naming a
    /// `StoreManager`.
    pub fn analyze_streamed(
        &self,
        config: PortendConfig,
        workers: usize,
        warm: &WarmSource,
        sink: &mut dyn FnMut(u64, usize, &AnalyzedRace),
    ) -> PipelineResult {
        self.pipeline(config).run(
            &self.program,
            self.inputs.clone(),
            self.input_spec.clone(),
            self.predicates.clone(),
            workers,
            warm,
            sink,
        )
    }

    /// The model's stable content fingerprint
    /// (`portend_vm::Program::fingerprint`) — the key its managed warm
    /// store lives under.
    pub fn fingerprint(&self) -> u64 {
        self.program.fingerprint()
    }

    /// The pipeline this workload is analyzed with.
    fn pipeline(&self, config: PortendConfig) -> Pipeline {
        Pipeline {
            record: RecordConfig {
                scheduler: self.record_scheduler.clone(),
                vm: self.vm,
                ..Default::default()
            },
            portend: config,
        }
    }

    /// The model's size in IR instructions (our Table 1 "size" analog).
    pub fn model_insts(&self) -> usize {
        self.program.inst_count()
    }
}

/// Scores a pipeline result against ground truth.
#[derive(Debug, Clone, Default)]
pub struct ScoreCard {
    /// `(allocation, expected, got)` for every scored race.
    pub rows: Vec<(String, RaceClass, RaceClass)>,
    /// Races with no ground-truth entry (should be none).
    pub unmatched: usize,
    /// Classification failures.
    pub errors: usize,
}

impl ScoreCard {
    /// Builds a scorecard from a pipeline result.
    pub fn new(workload: &Workload, result: &PipelineResult) -> Self {
        let mut card = ScoreCard::default();
        for a in &result.analyzed {
            let race = &a.cluster.representative;
            let truth = match workload.truth_for(race) {
                Some(t) => t,
                None => {
                    card.unmatched += 1;
                    continue;
                }
            };
            match &a.verdict {
                Ok(v) => card
                    .rows
                    .push((race.alloc_name.clone(), truth.expected, v.class)),
                Err(_) => card.errors += 1,
            }
        }
        card
    }

    /// Correctly classified races.
    pub fn correct(&self) -> usize {
        self.rows.iter().filter(|(_, e, g)| e == g).count()
    }

    /// Total scored races.
    pub fn total(&self) -> usize {
        self.rows.len() + self.errors
    }

    /// Accuracy in percent (100 × correct / total).
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            100.0
        } else {
            100.0 * self.correct() as f64 / self.total() as f64
        }
    }

    /// The misclassified `(allocation, expected, got)` rows.
    pub fn misclassified(&self) -> Vec<&(String, RaceClass, RaceClass)> {
        self.rows.iter().filter(|(_, e, g)| e != g).collect()
    }
}
