//! The Portend classifier: orchestrates Algorithm 1, multi-path
//! exploration, multi-schedule alternates, and symbolic output comparison
//! into a final [`Verdict`] (paper §3.5).

use std::fmt;
use std::sync::Arc;

use portend_race::RaceReport;
use portend_symex::{Solver, SolverCache};
use portend_vm::{InputMode, InputSource, InputSpec, Machine, Scheduler, Watch};

use crate::case::AnalysisCase;
use crate::config::{PortendConfig, SCHEDULE_SEED, STEP_BUDGET};
use crate::enforce::{enforce_alternate, EnforceOutcome};
use crate::explorer::{explore_primaries, ExploreResult, PrimaryPath};
use crate::locate::locate_race;
use crate::outcmp::{symbolic_match, OutputMatch};
use crate::single::{single_classify, SingleResult, SingleWork};
use crate::supervise::{SupStop, Supervisor};
use crate::taxonomy::{
    ClassifyStats, RaceClass, ReplayEvidence, SpecViolationKind, Verdict, VerdictDetail,
};

/// Why a classification could not be carried out at all (distinct from a
/// verdict: verdicts are conclusions, this is an infrastructure failure
/// such as a trace that no longer reproduces the race).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassifyError(pub String);

impl fmt::Display for ClassifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "classification failed: {}", self.0)
    }
}

impl std::error::Error for ClassifyError {}

/// The Portend race classifier.
///
/// ```no_run
/// use portend::{AnalysisCase, Portend, PortendConfig};
/// # fn get_case() -> (AnalysisCase, portend_race::RaceReport) { unimplemented!() }
/// let (case, race) = get_case();
/// let portend = Portend::new(PortendConfig::default());
/// let verdict = portend.classify(&case, &race).expect("classifiable");
/// println!("{race}: {verdict}");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Portend {
    /// The analysis configuration (Mp, Ma, stages, budgets).
    pub config: PortendConfig,
    solver: Solver,
}

impl Portend {
    /// A classifier with the given configuration.
    pub fn new(config: PortendConfig) -> Self {
        Portend {
            config,
            solver: Solver::new(),
        }
    }

    /// A classifier whose solver memoizes every query in `cache`.
    ///
    /// Classifiers on different threads sharing one cache solve each
    /// distinct path-constraint query once across all of them; cached
    /// answers are exact, so verdicts are unchanged (the farm's
    /// cross-race sharing relies on this).
    pub fn with_cache(config: PortendConfig, cache: Arc<SolverCache>) -> Self {
        Portend {
            config,
            solver: Solver::new().cached(cache),
        }
    }

    /// Classifies one race (one cluster representative) from a recorded
    /// case into the four-category taxonomy.
    ///
    /// # Errors
    ///
    /// Fails when the race cannot be re-located in a deterministic replay
    /// of the case's trace (e.g. the trace belongs to another program).
    pub fn classify(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
    ) -> Result<Verdict, ClassifyError> {
        let cfg = &self.config;
        let located = locate_race(case, race, STEP_BUDGET * 2).map_err(|e| ClassifyError(e.0))?;

        let mut stats = ClassifyStats {
            primaries: 1,
            alternates: 1,
            preemptions: located.post.0.preemptions,
            dependent_branches: 0,
            instructions: located.replay_steps,
            interpreted: located.interpreted_steps,
            max_path_instructions: 0,
            bytes_copied_on_fork: 0,
            bytes_shared_on_fork: 0,
            slices_reused_at_fork: 0,
        };

        // --- Algorithm 1: single-pre/single-post.
        let (single, swork) = single_classify(case, race, &located, cfg);
        stats.instructions += swork.instructions;
        stats.interpreted += swork.interpreted;
        stats.preemptions += swork.preemptions;
        let states_differ = match single {
            SingleResult::SpecViol { kind, replay } => {
                return Ok(finish(Verdict::spec_violation(kind, replay), stats))
            }
            SingleResult::SingleOrd => return Ok(finish(Verdict::single_ordering(), stats)),
            SingleResult::OutDiff(ev) => {
                return Ok(finish(
                    Verdict {
                        class: RaceClass::OutputDiffers,
                        detail: VerdictDetail::OutputDiff(ev),
                        k: 0,
                        states_differ: None,
                        stats,
                    },
                    stats,
                ))
            }
            SingleResult::OutSame { states_differ } => states_differ,
        };

        // --- Algorithm 2: multi-path (+ multi-schedule) analysis.
        if !cfg.stages.multi_path {
            return Ok(Verdict {
                class: RaceClass::KWitnessHarmless,
                detail: VerdictDetail::KWitness,
                k: 1,
                states_differ: Some(states_differ),
                stats,
            });
        }

        let (explored, xstats) = explore_primaries(case, race, &located, cfg, &self.solver);
        stats.dependent_branches = xstats.dependent_branches;
        stats.instructions += xstats.instructions;
        stats.interpreted += xstats.interpreted;
        stats.preemptions += xstats.preemptions;
        stats.max_path_instructions = xstats.max_path_instructions;
        stats.bytes_copied_on_fork = xstats.bytes_copied_on_fork;
        stats.bytes_shared_on_fork = xstats.bytes_shared_on_fork;
        stats.slices_reused_at_fork = xstats.slices_reused_at_fork;
        let primaries = match explored {
            ExploreResult::SpecViol { kind, replay } => {
                return Ok(finish(Verdict::spec_violation(kind, replay), stats))
            }
            ExploreResult::Primaries(ps) => ps,
        };
        stats.primaries = primaries.len().max(1) as u64;

        let ma = if cfg.stages.multi_schedule {
            cfg.ma.max(1)
        } else {
            1
        };
        let mut k: u64 = 1; // Algorithm 1's matching pair counts as a witness.
        for (i, primary) in primaries.iter().enumerate() {
            for j in 0..ma {
                let seed = SCHEDULE_SEED
                    .wrapping_add((i as u64) << 8)
                    .wrapping_add(j as u64);
                stats.alternates += 1;
                let (outcome, awork) = self.run_alternate(case, race, primary, seed, cfg, j > 0);
                stats.instructions += awork.instructions;
                stats.interpreted += awork.interpreted;
                stats.preemptions += awork.preemptions;
                match outcome {
                    AltOutcome::Match => k += 1,
                    AltOutcome::Skipped => {}
                    AltOutcome::Mismatch(ev) => {
                        return Ok(finish(
                            Verdict {
                                class: RaceClass::OutputDiffers,
                                detail: VerdictDetail::OutputDiff(ev),
                                k: 0,
                                states_differ: Some(states_differ),
                                stats,
                            },
                            stats,
                        ))
                    }
                    AltOutcome::SpecViol { kind, replay } => {
                        return Ok(finish(Verdict::spec_violation(kind, replay), stats))
                    }
                }
            }
        }

        Ok(Verdict {
            class: RaceClass::KWitnessHarmless,
            detail: VerdictDetail::KWitness,
            k,
            states_differ: Some(states_differ),
            stats,
        })
    }

    /// Runs one alternate for a primary: replay the primary's inputs to
    /// the pre-race point, enforce the reversed access ordering, then run
    /// to completion with a randomized post-race schedule (when
    /// `randomize`), and compare outputs symbolically. Also reports the
    /// work executed, for the `ClassifyStats` totals.
    fn run_alternate(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
        primary: &PrimaryPath,
        seed: u64,
        cfg: &PortendConfig,
        randomize: bool,
    ) -> (AltOutcome, SingleWork) {
        let mut sup = Supervisor::new(STEP_BUDGET);
        let outcome = self.run_alternate_inner(case, race, primary, seed, cfg, randomize, &mut sup);
        let mut work = SingleWork::default();
        work.absorb(&sup);
        (outcome, work)
    }

    #[allow(clippy::too_many_arguments)]
    fn run_alternate_inner(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
        primary: &PrimaryPath,
        seed: u64,
        cfg: &PortendConfig,
        randomize: bool,
        sup: &mut Supervisor,
    ) -> AltOutcome {
        let fallback = Scheduler::RoundRobin;
        let mut m = Machine::new(
            case.program.clone(),
            InputSource::new(
                InputSpec::concrete(primary.concrete_inputs.clone()),
                InputMode::Concrete,
            ),
            case.vm,
        );
        let mut sched = case.trace.scheduler_with_fallback(fallback);
        let cell = Watch::cell(race.alloc, race.offset as i64);

        // Phase 1: replay to the pre-race point (the
        // `first_occ_at_race`-th occurrence of the first racing access).
        sup.race_watches.push(cell);
        let mut count: u32 = 0;
        loop {
            match sup.run(&mut m, &mut sched, &case.predicates) {
                SupStop::RaceHit(h) => {
                    if h.tid == race.first.tid && h.pc == race.first.pc {
                        count += 1;
                        if count >= primary.first_occ_at_race.max(1) {
                            break; // at the pre-race point, access pending
                        }
                    }
                    if sup.step_over_checked(&mut m, &case.predicates).is_some() {
                        return AltOutcome::Skipped;
                    }
                }
                SupStop::Error(e) => {
                    return AltOutcome::SpecViol {
                        kind: e.into(),
                        replay: replay_of(&m, primary, "alternate replay to the race"),
                    }
                }
                SupStop::Semantic(message) => {
                    return AltOutcome::SpecViol {
                        kind: SpecViolationKind::Semantic { message },
                        replay: replay_of(&m, primary, "alternate replay to the race"),
                    }
                }
                _ => return AltOutcome::Skipped,
            }
        }

        // Phase 2: enforce the alternate ordering.
        match enforce_alternate(&mut m, &mut sched, sup, race, &case.predicates) {
            EnforceOutcome::Swapped => {
                if randomize && cfg.stages.multi_schedule {
                    // Paper §3.4: once the alternate ordering is enforced,
                    // the post-race schedule is fully randomized (the
                    // trace is abandoned, not just slipped).
                    sched = Scheduler::random(seed);
                }
            }
            EnforceOutcome::Error(e) => {
                return AltOutcome::SpecViol {
                    kind: e.into(),
                    replay: replay_of(&m, primary, "alternate ordering enforcement"),
                }
            }
            EnforceOutcome::Semantic(message) => {
                return AltOutcome::SpecViol {
                    kind: SpecViolationKind::Semantic { message },
                    replay: replay_of(&m, primary, "alternate ordering enforcement"),
                }
            }
            EnforceOutcome::RetryLoop
            | EnforceOutcome::Timeout
            | EnforceOutcome::Stuck
            | EnforceOutcome::Completed => return AltOutcome::Skipped,
        }

        // Phase 3: run to completion with racing-cell preemption points
        // (paper §3.4: the post-race schedule is randomized).
        sup.suspended.clear();
        sup.race_watches.clear();
        sup.preempt_watches = vec![cell];
        sup.budget = sup.budget.max(STEP_BUDGET / 2);
        match sup.run(&mut m, &mut sched, &case.predicates) {
            SupStop::Completed => {
                match symbolic_match(
                    &primary.machine,
                    &m.output,
                    &primary.concrete_inputs,
                    &self.solver,
                ) {
                    OutputMatch::Match => AltOutcome::Match,
                    OutputMatch::Mismatch(ev) => AltOutcome::Mismatch(ev),
                }
            }
            SupStop::Error(e) => AltOutcome::SpecViol {
                kind: e.into(),
                replay: replay_of(&m, primary, "alternate execution after the race"),
            },
            SupStop::Semantic(message) => AltOutcome::SpecViol {
                kind: SpecViolationKind::Semantic { message },
                replay: replay_of(&m, primary, "alternate execution after the race"),
            },
            SupStop::Timeout => AltOutcome::SpecViol {
                kind: SpecViolationKind::InfiniteLoop { spinning: m.cur },
                replay: replay_of(&m, primary, "alternate execution hung after the race"),
            },
            SupStop::Stuck
            | SupStop::RaceHit(_)
            | SupStop::SymBranch { .. }
            | SupStop::SymAssert { .. } => AltOutcome::Skipped,
        }
    }
}

/// Outcome of one alternate execution.
enum AltOutcome {
    Match,
    Mismatch(crate::taxonomy::OutputDiffEvidence),
    SpecViol {
        kind: SpecViolationKind,
        replay: ReplayEvidence,
    },
    Skipped,
}

fn replay_of(m: &Machine, primary: &PrimaryPath, what: &str) -> ReplayEvidence {
    ReplayEvidence {
        inputs: primary.concrete_inputs.clone(),
        schedule: m.sched_log.to_vec(),
        description: what.to_string(),
    }
}

fn finish(mut v: Verdict, stats: ClassifyStats) -> Verdict {
    v.stats = stats;
    v
}
