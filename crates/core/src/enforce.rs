//! Alternate-ordering enforcement (shared by Algorithm 1, the
//! multi-path alternate runner, and the §5.4 baselines).
//!
//! From a pre-race checkpoint, the thread that raced first (`Ti`) is
//! suspended and execution continues until the other thread (`Tj`)
//! performs an access to the racy cell — tolerating a different pc, as
//! §3.3 requires. Two failure signatures are diagnosed here:
//!
//! * **timeout / stuck** — `Tj` never reaches the cell while `Ti` is held
//!   back (it is blocked or spinning on something `Ti` must do first);
//! * **retry loop** — `Tj` reaches the cell but re-executes the *same*
//!   access pc over and over (a busy-wait loop reading the racy cell
//!   itself, the paper's Fig. 8(d) pattern).
//!
//! Both are the "alternate schedule is not possible" signatures that make
//! Portend classify a race "single ordering" (and make the
//! Record/Replay-Analyzer's replay diverge, §5.4).

use portend_race::RaceReport;
use portend_vm::{Machine, Pc, Scheduler, Watch};

use crate::case::Predicate;
use crate::supervise::{SupStop, Supervisor};

/// Consecutive same-pc re-accesses that count as a busy-wait retry loop.
const RETRY_LIMIT: u32 = 3;
/// Instruction budget of the post-swap grace window in which retries are
/// observed.
const GRACE_BUDGET: u64 = 4_000;

/// How an enforcement attempt ended.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum EnforceOutcome {
    /// The alternate ordering was enforced: `Tj` performed its access
    /// (and it was not a retry loop). `Ti` is still suspended; the caller
    /// decides when to release it.
    Swapped,
    /// `Tj` kept re-executing the same access pc: ad-hoc synchronization
    /// on the racy cell itself.
    RetryLoop,
    /// `Tj` never accessed the cell within the budget.
    Timeout,
    /// Only the suspended thread could make progress.
    Stuck,
    /// `Tj` (and everything else runnable) finished without accessing the
    /// cell.
    Completed,
    /// The attempt crashed, deadlocked or violated a semantic predicate
    /// (see [`SupStop::violation`]).
    Violated(SupStop),
}

/// Attempts to enforce the alternate ordering of `race` on `m`.
///
/// On entry the machine must be at the pre-race checkpoint (the first
/// racing access pending). On [`EnforceOutcome::Swapped`], the second
/// thread's access has executed and `sup` still suspends the first
/// thread.
pub(crate) fn enforce_alternate(
    m: &mut Machine,
    sched: &mut Scheduler,
    sup: &mut Supervisor,
    race: &RaceReport,
    predicates: &[Predicate],
) -> EnforceOutcome {
    let cell = Watch::cell(race.alloc, race.offset as i64);
    sup.suspended.insert(race.first.tid);
    sup.race_watches = vec![cell.by(race.second.tid)];

    let first_hit_pc: Pc = match sup.run(m, sched, predicates) {
        SupStop::RaceHit(h) => h.pc,
        SupStop::Timeout => return EnforceOutcome::Timeout,
        SupStop::Stuck => return EnforceOutcome::Stuck,
        SupStop::Completed => return EnforceOutcome::Completed,
        stop @ (SupStop::Error(_) | SupStop::Semantic(_)) => return EnforceOutcome::Violated(stop),
        SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
            unreachable!("enforcement runs concretely")
        }
    };
    if let Some(stop) = sup.step_over_checked(m, predicates) {
        return EnforceOutcome::Violated(stop);
    }

    // Grace window: watch for same-pc retries of the enforced access.
    // On exit, the overall budget is restored minus exactly what the
    // window consumed (`initial_grace - grace`); subtracting the full
    // GRACE_BUDGET when less than that was available would over-charge
    // the window and under-report the remaining budget.
    let saved = sup.budget;
    let initial_grace = sup.budget.min(GRACE_BUDGET);
    let mut grace = initial_grace;
    let mut retries: u32 = 0;
    loop {
        sup.budget = grace;
        let stop = sup.run(m, sched, predicates);
        grace = sup.budget;
        match stop {
            SupStop::RaceHit(h) if h.pc == first_hit_pc => {
                retries += 1;
                if retries >= RETRY_LIMIT {
                    sup.budget = saved.saturating_sub(initial_grace - grace);
                    return EnforceOutcome::RetryLoop;
                }
                if let Some(stop) = sup.step_over_checked(m, predicates) {
                    return EnforceOutcome::Violated(stop);
                }
            }
            // A different pc, a timeout of the grace window, or the second
            // thread moving on all confirm a genuine swap. A pending
            // (unstepped) hit stays pending for the caller's next phase.
            SupStop::RaceHit(_) | SupStop::Timeout | SupStop::Stuck | SupStop::Completed => {
                sup.budget = saved.saturating_sub(initial_grace - grace);
                return EnforceOutcome::Swapped;
            }
            stop @ (SupStop::Error(_) | SupStop::Semantic(_)) => {
                return EnforceOutcome::Violated(stop)
            }
            SupStop::SymBranch { .. } | SupStop::SymAssert { .. } => {
                unreachable!("enforcement runs concretely")
            }
        }
    }
}
