//! The VM's memory: named, bounds-checked allocations of 64-bit cells.
//!
//! Addresses are `(AllocId, offset)` pairs, which gives race reports stable
//! identities across runs (the paper clusters races by accessed location)
//! and makes every out-of-bounds or use-after-free access a detectable
//! crash, mirroring KLEE's memory-error detector inside Cloud9.
//!
//! Storage is structurally shared: the allocation table is an
//! `Arc<Vec<Arc<Allocation>>>`, so cloning a [`Memory`] — how checkpoints
//! and the multi-path explorer's forks capture the heap — copies one
//! pointer instead of every cell. Mutation goes through
//! [`Arc::make_mut`], which copies an allocation only on the first write
//! after a fork (copy-on-write); until then parent and child share every
//! byte. The bytes each instance lazily copied this way are tracked in a
//! monotone per-instance counter ([`Memory::cow_bytes`]) so exploration
//! engines can attribute the deferred fork cost to the state that paid it.

use std::fmt;
use std::sync::Arc;

use crate::program::{AllocId, AllocSpec};
use crate::value::Val;

/// A memory access fault; the machine wraps it into a `VmError` with
/// thread and pc context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemFault {
    /// Index outside `0..len`.
    OutOfBounds {
        /// The out-of-range index.
        index: i64,
        /// The allocation's length.
        len: usize,
    },
    /// Access to a freed allocation.
    UseAfterFree,
    /// `Free` of an already-freed allocation.
    DoubleFree,
}

/// One allocation: a named run of cells plus liveness.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The allocation's name, used in reports.
    pub name: String,
    /// The cell values.
    pub cells: Vec<Val>,
    /// Whether the allocation is still live (`Free` clears this).
    pub live: bool,
}

impl Allocation {
    /// Approximate bytes a deep copy of this allocation moves (cells,
    /// name, liveness flag). Used for fork-cost accounting.
    pub fn byte_size(&self) -> u64 {
        (self.cells.len() * std::mem::size_of::<Val>() + self.name.len() + 1) as u64
    }
}

/// The whole memory of one execution state. Cloning a [`Memory`] is how
/// checkpoints capture the heap — an O(1) pointer copy under the
/// copy-on-write sharing scheme (see the module docs).
#[derive(Debug, Clone)]
pub struct Memory {
    allocs: Arc<Vec<Arc<Allocation>>>,
    /// Bytes this instance lazily copied on first-write-after-fork
    /// (monotone; carried by value across clones, so `cow_bytes() - base`
    /// is the copy work one execution segment performed).
    cow_bytes: u64,
}

impl PartialEq for Memory {
    fn eq(&self, other: &Self) -> bool {
        // Accounting counters are not part of the memory's value.
        self.allocs == other.allocs
    }
}

impl Memory {
    /// Instantiates memory from the program's allocation specs.
    pub fn from_specs(specs: &[AllocSpec]) -> Self {
        let allocs = specs
            .iter()
            .map(|s| {
                let mut cells = vec![Val::C(0); s.len];
                for (i, &v) in s.init.iter().enumerate().take(s.len) {
                    cells[i] = Val::C(v);
                }
                Arc::new(Allocation {
                    name: s.name.clone(),
                    cells,
                    live: true,
                })
            })
            .collect();
        Memory {
            allocs: Arc::new(allocs),
            cow_bytes: 0,
        }
    }

    /// Read-only view of an allocation.
    ///
    /// # Panics
    ///
    /// Panics when `id` is out of range.
    pub fn alloc(&self, id: AllocId) -> &Allocation {
        &self.allocs[id.0 as usize]
    }

    /// Copy-on-write access to an allocation: shared storage is copied
    /// (and the copied bytes counted) before the mutable borrow is
    /// handed out.
    fn alloc_mut(&mut self, id: AllocId) -> &mut Allocation {
        let idx = id.0 as usize;
        if Arc::strong_count(&self.allocs) > 1 {
            // The spine (one `Arc` per allocation) un-shares first.
            self.cow_bytes += (self.allocs.len() * std::mem::size_of::<Arc<Allocation>>()) as u64;
        }
        let spine = Arc::make_mut(&mut self.allocs);
        if Arc::strong_count(&spine[idx]) > 1 {
            self.cow_bytes += spine[idx].byte_size();
        }
        Arc::make_mut(&mut spine[idx])
    }

    /// Loads `alloc[index]`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds or use-after-free accesses.
    pub fn load(&self, id: AllocId, index: i64) -> Result<Val, MemFault> {
        let a = &self.allocs[id.0 as usize];
        if !a.live {
            return Err(MemFault::UseAfterFree);
        }
        if index < 0 || index as usize >= a.cells.len() {
            return Err(MemFault::OutOfBounds {
                index,
                len: a.cells.len(),
            });
        }
        Ok(a.cells[index as usize].clone())
    }

    /// Stores `value` into `alloc[index]`.
    ///
    /// # Errors
    ///
    /// Fails on out-of-bounds or use-after-free accesses.
    pub fn store(&mut self, id: AllocId, index: i64, value: Val) -> Result<(), MemFault> {
        // Validate on the shared view first: faulting accesses must not
        // trigger a copy.
        let a = &self.allocs[id.0 as usize];
        if !a.live {
            return Err(MemFault::UseAfterFree);
        }
        if index < 0 || index as usize >= a.cells.len() {
            return Err(MemFault::OutOfBounds {
                index,
                len: a.cells.len(),
            });
        }
        self.alloc_mut(id).cells[index as usize] = value;
        Ok(())
    }

    /// Frees an allocation; later accesses fault.
    ///
    /// # Errors
    ///
    /// Fails when the allocation is already freed.
    pub fn free(&mut self, id: AllocId) -> Result<(), MemFault> {
        if !self.allocs[id.0 as usize].live {
            return Err(MemFault::DoubleFree);
        }
        self.alloc_mut(id).live = false;
        Ok(())
    }

    /// Total bytes a *deep* copy of this memory would move (all
    /// allocations plus the sharing spine): the heap cost a fork avoids
    /// by sharing structurally.
    pub fn heap_bytes(&self) -> u64 {
        let spine = (self.allocs.len() * std::mem::size_of::<Arc<Allocation>>()) as u64;
        spine + self.allocs.iter().map(|a| a.byte_size()).sum::<u64>()
    }

    /// Bytes this instance copied on-write since construction (monotone).
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// Whether this memory still shares its allocation table with
    /// `other` (no write has un-shared the spine since they forked).
    pub fn shares_storage_with(&self, other: &Memory) -> bool {
        Arc::ptr_eq(&self.allocs, &other.allocs)
    }

    /// An eagerly deep-copied clone: every allocation is copied now, no
    /// storage is shared. Behaviorally identical to `clone()` — used by
    /// the CoW-transparency property tests and the fork microbench as
    /// the "what a non-CoW fork would cost" reference.
    pub fn deep_clone(&self) -> Memory {
        Memory {
            allocs: Arc::new(
                self.allocs
                    .iter()
                    .map(|a| Arc::new(a.as_ref().clone()))
                    .collect(),
            ),
            cow_bytes: self.cow_bytes,
        }
    }

    /// A 64-bit fingerprint of all cell values, used by the
    /// Record/Replay-Analyzer baseline's post-race *state* comparison
    /// (paper §2.1/§5.2). Symbolic cells hash their printed form.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        for a in self.allocs.iter() {
            h.write_u64(a.live as u64);
            for c in &a.cells {
                match c.as_concrete() {
                    Some(v) => h.write_u64(v as u64),
                    None => h.write_str(&c.to_string()),
                }
            }
        }
        h.finish()
    }

    /// Cell-by-cell differences against another memory (same program),
    /// as `(allocation name, index, self value, other value)`.
    pub fn diff(&self, other: &Memory) -> Vec<(String, usize, Val, Val)> {
        let mut out = Vec::new();
        for (a, b) in self.allocs.iter().zip(other.allocs.iter()) {
            for (i, (x, y)) in a.cells.iter().zip(&b.cells).enumerate() {
                if x != y {
                    out.push((a.name.clone(), i, x.clone(), y.clone()));
                }
            }
        }
        out
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in self.allocs.iter() {
            let vals: Vec<String> = a.cells.iter().map(|c| c.to_string()).collect();
            writeln!(
                f,
                "{}{}: [{}]",
                a.name,
                if a.live { "" } else { " (freed)" },
                vals.join(", ")
            )?;
        }
        Ok(())
    }
}

/// Minimal FNV-1a hasher (no external dependency needed).
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    /// A fresh hasher with the FNV offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one byte.
    pub fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x100_0000_01b3);
    }

    /// Mixes eight bytes.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Mixes a string.
    pub fn write_str(&mut self, s: &str) {
        for b in s.as_bytes() {
            self.write_u8(*b);
        }
        self.write_u8(0xff);
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::from_specs(&[
            AllocSpec {
                name: "g".into(),
                len: 1,
                init: vec![7],
            },
            AllocSpec {
                name: "arr".into(),
                len: 4,
                init: vec![1, 2],
            },
        ])
    }

    #[test]
    fn init_values_zero_extended() {
        let m = mem();
        assert_eq!(m.load(AllocId(1), 0), Ok(Val::C(1)));
        assert_eq!(m.load(AllocId(1), 1), Ok(Val::C(2)));
        assert_eq!(m.load(AllocId(1), 2), Ok(Val::C(0)));
    }

    #[test]
    fn store_load_roundtrip() {
        let mut m = mem();
        m.store(AllocId(0), 0, Val::C(42)).unwrap();
        assert_eq!(m.load(AllocId(0), 0), Ok(Val::C(42)));
    }

    #[test]
    fn out_of_bounds_faults() {
        let mut m = mem();
        assert_eq!(
            m.load(AllocId(1), 4),
            Err(MemFault::OutOfBounds { index: 4, len: 4 })
        );
        assert_eq!(
            m.store(AllocId(1), -1, Val::C(0)),
            Err(MemFault::OutOfBounds { index: -1, len: 4 })
        );
    }

    #[test]
    fn use_after_free_faults() {
        let mut m = mem();
        m.free(AllocId(0)).unwrap();
        assert_eq!(m.load(AllocId(0), 0), Err(MemFault::UseAfterFree));
        assert_eq!(
            m.store(AllocId(0), 0, Val::C(1)),
            Err(MemFault::UseAfterFree)
        );
        assert_eq!(m.free(AllocId(0)), Err(MemFault::DoubleFree));
    }

    #[test]
    fn fingerprint_tracks_state() {
        let mut a = mem();
        let b = mem();
        assert_eq!(a.fingerprint(), b.fingerprint());
        a.store(AllocId(0), 0, Val::C(8)).unwrap();
        assert_ne!(a.fingerprint(), b.fingerprint());
        let d = a.diff(&b);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].0, "g");
        assert_eq!(d[0].2, Val::C(8));
    }

    #[test]
    fn clone_shares_until_first_write() {
        let mut parent = mem();
        let mut child = parent.clone();
        assert!(child.shares_storage_with(&parent));
        assert_eq!(child.cow_bytes(), 0);

        // First write in the child copies the spine + the touched
        // allocation, nothing else; the parent is unaffected.
        child.store(AllocId(0), 0, Val::C(99)).unwrap();
        assert!(!child.shares_storage_with(&parent));
        assert!(child.cow_bytes() > 0);
        assert_eq!(parent.cow_bytes(), 0);
        assert_eq!(parent.load(AllocId(0), 0), Ok(Val::C(7)));
        assert_eq!(child.load(AllocId(0), 0), Ok(Val::C(99)));

        // The untouched allocation is still shared under the new spine;
        // a second write to the same allocation copies nothing more.
        let before = child.cow_bytes();
        child.store(AllocId(0), 0, Val::C(100)).unwrap();
        assert_eq!(child.cow_bytes(), before);

        // The parent's allocation 1 is still shared with the child's
        // spine, so the parent's first write to it copies it (and only
        // it — its own spine is unshared by now).
        parent.store(AllocId(1), 0, Val::C(5)).unwrap();
        let one_alloc = parent.alloc(AllocId(1)).byte_size();
        assert_eq!(parent.cow_bytes(), one_alloc);
        assert_eq!(child.load(AllocId(1), 0), Ok(Val::C(1)));

        // With no live fork at all, writes never count as CoW.
        let mut lone = mem();
        lone.store(AllocId(0), 0, Val::C(1)).unwrap();
        assert_eq!(lone.cow_bytes(), 0);
    }

    #[test]
    fn faulting_store_does_not_copy() {
        let parent = mem();
        let mut child = parent.clone();
        assert!(child.store(AllocId(1), 9, Val::C(0)).is_err());
        assert!(child.shares_storage_with(&parent));
        assert_eq!(child.cow_bytes(), 0);
    }

    #[test]
    fn deep_clone_equals_cow_clone() {
        let mut m = mem();
        m.store(AllocId(1), 3, Val::C(11)).unwrap();
        let cow = m.clone();
        let deep = m.deep_clone();
        assert_eq!(cow, deep);
        assert_eq!(cow.fingerprint(), deep.fingerprint());
        assert!(deep.diff(&cow).is_empty());
        assert!(!deep.shares_storage_with(&m));
        assert!(m.heap_bytes() > 0);
    }
}
