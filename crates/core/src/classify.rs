//! The Portend classifier: orchestrates Algorithm 1, multi-path
//! exploration, multi-schedule alternates, and symbolic output comparison
//! into a final [`Verdict`] (paper §3.5).

use std::fmt;
use std::ops::ControlFlow::{self, Break, Continue};
use std::sync::Arc;

use portend_race::RaceReport;
use portend_symex::{Solver, SolverCache};
use portend_vm::{InputMode, InputSource, InputSpec, Machine, Scheduler, Watch};

use crate::case::AnalysisCase;
use crate::config::{PortendConfig, SCHEDULE_SEED, STEP_BUDGET};
use crate::enforce::{enforce_alternate, EnforceOutcome};
use crate::explorer::{explore_primaries, PrimaryPath};
use crate::locate::{locate_race, Located};
use crate::outcmp::symbolic_match;
use crate::single::single_classify;
use crate::supervise::{SupStop, Supervisor};
use crate::taxonomy::{ClassifyStats, RaceClass, Verdict, VerdictDetail};

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
        let located = locate_race(case, race, STEP_BUDGET * 2)?;
        let mut stats = ClassifyStats {
            primaries: 1,
            alternates: 1,
            preemptions: located.post.0.preemptions,
            instructions: located.replay_steps,
            interpreted: located.interpreted_steps,
            ..ClassifyStats::default()
        };
        let (Break(mut v) | Continue(mut v)) = self.decide(case, race, &located, &mut stats);
        v.stats = stats;
        Ok(v)
    }

    /// Runs the stages in the paper's order, each adding its work to
    /// `stats`: the first stage that decides the race breaks with its
    /// verdict. A race no stage decides continues as k-witness harmless.
    fn decide(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
        located: &Located,
        stats: &mut ClassifyStats,
    ) -> ControlFlow<Verdict, Verdict> {
        let cfg = &self.config;
        // --- Algorithm 1: single-pre/single-post.
        let states_differ = single_classify(case, race, located, cfg, stats)?;
        let mut k: u64 = 1; // Algorithm 1's matching pair counts as a witness.

        // --- Algorithm 2: multi-path (+ multi-schedule) analysis.
        if cfg.stages.multi_path {
            let primaries = explore_primaries(case, race, located, cfg, &self.solver, stats)?;
            stats.primaries = primaries.len().max(1) as u64;
            let ma = if cfg.stages.multi_schedule {
                cfg.ma.max(1)
            } else {
                1
            };
            for (i, primary) in primaries.iter().enumerate() {
                for j in 0..ma {
                    // A primary's first alternate keeps the trace's
                    // schedule; the others randomize theirs (paper §3.4).
                    let seed = (j > 0).then(|| {
                        SCHEDULE_SEED
                            .wrapping_add((i as u64) << 8)
                            .wrapping_add(j as u64)
                    });
                    stats.alternates += 1;
                    let mut sup = Supervisor::new(STEP_BUDGET);
                    let witnessed =
                        self.run_alternate(case, race, primary, seed, states_differ, &mut sup);
                    sup.charge(stats);
                    k += u64::from(witnessed?);
                }
            }
        }

        Continue(Verdict {
            class: RaceClass::KWitnessHarmless,
            detail: VerdictDetail::KWitness,
            k,
            states_differ: Some(states_differ),
            stats: ClassifyStats::default(),
        })
    }

    /// Runs one alternate for a primary under `sup`: replay the primary's
    /// inputs to the pre-race point, enforce the reversed access
    /// ordering, then run to completion — with a post-race schedule
    /// randomized from `seed`, when given — and compare outputs
    /// symbolically. Breaks with a spec violation or an output
    /// difference; continues with whether the alternate witnessed the
    /// race harmless (`false` when it could not be run).
    fn run_alternate(
        &self,
        case: &AnalysisCase,
        race: &RaceReport,
        primary: &PrimaryPath,
        seed: Option<u64>,
        states_differ: bool,
        sup: &mut Supervisor,
    ) -> ControlFlow<Verdict, bool> {
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
        let inputs = &primary.concrete_inputs;

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
                        return Continue(false);
                    }
                }
                stop @ (SupStop::Error(_) | SupStop::Semantic(_)) => {
                    return Break(stop.violation(&m, inputs, "alternate replay to the race"))
                }
                _ => return Continue(false),
            }
        }

        // Phase 2: enforce the alternate ordering.
        match enforce_alternate(&mut m, &mut sched, sup, race, &case.predicates) {
            EnforceOutcome::Swapped => {
                if let Some(seed) = seed {
                    // Paper §3.4: once the alternate ordering is enforced,
                    // the post-race schedule is fully randomized (the
                    // trace is abandoned, not just slipped).
                    sched = Scheduler::random(seed);
                }
            }
            EnforceOutcome::Violated(stop) => {
                return Break(stop.violation(&m, inputs, "alternate ordering enforcement"))
            }
            EnforceOutcome::RetryLoop
            | EnforceOutcome::Timeout
            | EnforceOutcome::Stuck
            | EnforceOutcome::Completed => return Continue(false),
        }

        // Phase 3: run to completion with racing-cell preemption points
        // (paper §3.4: the post-race schedule is randomized).
        sup.suspended.clear();
        sup.race_watches.clear();
        sup.preempt_watches = vec![cell];
        sup.budget = sup.budget.max(STEP_BUDGET / 2);
        match sup.run(&mut m, &mut sched, &case.predicates) {
            SupStop::Completed => {
                match symbolic_match(&primary.machine, &m.output, inputs, &self.solver) {
                    None => Continue(true),
                    Some(ev) => Break(Verdict::output_differs(ev, Some(states_differ))),
                }
            }
            stop @ SupStop::Timeout => {
                Break(stop.violation(&m, inputs, "alternate execution hung after the race"))
            }
            stop @ (SupStop::Error(_) | SupStop::Semantic(_)) => {
                Break(stop.violation(&m, inputs, "alternate execution after the race"))
            }
            SupStop::Stuck
            | SupStop::RaceHit(_)
            | SupStop::SymBranch { .. }
            | SupStop::SymAssert { .. } => Continue(false),
        }
    }
}
