//! Synchronization object state: mutexes, condition variables, barriers.

use crate::program::{BarrierSpec, SyncId};
use crate::thread::ThreadId;

/// Runtime state of one mutex.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MutexState {
    /// The owning thread, if held.
    pub owner: Option<ThreadId>,
    /// Threads blocked trying to acquire.
    pub waiters: Vec<ThreadId>,
}

/// Runtime state of one condition variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CondState {
    /// Threads waiting on the condition.
    pub waiters: Vec<ThreadId>,
}

/// Runtime state of one barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BarrierState {
    /// Party size.
    pub party: u32,
    /// Threads that have arrived and are blocked.
    pub arrived: Vec<ThreadId>,
}

/// All synchronization objects of one execution state.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SyncState {
    /// Mutexes, indexed by the mutex `SyncId` space.
    pub mutexes: Vec<MutexState>,
    /// Condition variables, indexed by the cond `SyncId` space.
    pub conds: Vec<CondState>,
    /// Barriers, indexed by the barrier `SyncId` space.
    pub barriers: Vec<BarrierState>,
}

// Manual impl: `clone_from` reuses the object tables' buffers (the
// executor's cycle snapshots re-take this state repeatedly).
impl Clone for SyncState {
    fn clone(&self) -> Self {
        SyncState {
            mutexes: self.mutexes.clone(),
            conds: self.conds.clone(),
            barriers: self.barriers.clone(),
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.mutexes.clone_from(&source.mutexes);
        self.conds.clone_from(&source.conds);
        self.barriers.clone_from(&source.barriers);
    }
}

impl SyncState {
    /// Instantiates sync state from program declarations.
    pub fn from_program(n_mutexes: usize, n_conds: usize, barriers: &[BarrierSpec]) -> Self {
        SyncState {
            mutexes: vec![MutexState::default(); n_mutexes],
            conds: vec![CondState::default(); n_conds],
            barriers: barriers
                .iter()
                .map(|b| BarrierState {
                    party: b.party,
                    arrived: Vec::new(),
                })
                .collect(),
        }
    }

    /// The owner of a mutex.
    pub fn mutex_owner(&self, m: SyncId) -> Option<ThreadId> {
        self.mutexes[m.0 as usize].owner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_owner_reports_the_holder() {
        let mut s = SyncState::from_program(3, 0, &[]);
        s.mutexes[0].owner = Some(ThreadId(1));
        s.mutexes[2].owner = Some(ThreadId(1));
        s.mutexes[1].owner = Some(ThreadId(0));
        assert_eq!(s.mutex_owner(SyncId(1)), Some(ThreadId(0)));
    }

    #[test]
    fn barrier_party_from_spec() {
        let s = SyncState::from_program(
            0,
            0,
            &[BarrierSpec {
                name: "b".into(),
                party: 4,
            }],
        );
        assert_eq!(s.barriers[0].party, 4);
        assert!(s.barriers[0].arrived.is_empty());
    }
}
