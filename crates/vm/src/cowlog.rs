//! Shared storage for append-only, `Arc`-backed copy-on-write logs.
//!
//! [`OutputLog`](crate::OutputLog) and [`SchedLog`](crate::SchedLog)
//! follow the same discipline: cloning (part of every machine fork)
//! copies one pointer; the first append after a fork copies the items
//! once ([`Arc::make_mut`]), after which appends are owned; and the
//! bytes each instance lazily copied are tracked in a monotone
//! per-instance counter for fork-cost accounting. [`CowList`]
//! implements that invariant once so the two logs cannot drift.

use std::sync::Arc;

/// An append-only list with structural sharing and per-instance
/// copy-on-write byte accounting.
#[derive(Debug, Clone)]
pub(crate) struct CowList<T> {
    items: Arc<Vec<T>>,
    /// Bytes this instance copied on first-append-after-fork (monotone;
    /// carried by value across clones, so `cow_bytes() - base` is the
    /// copy work one execution segment performed).
    cow_bytes: u64,
}

// Manual impl: the derive would require `T: Default`, which the stored
// record types don't (and needn't) satisfy.
impl<T> Default for CowList<T> {
    fn default() -> Self {
        CowList {
            items: Arc::new(Vec::new()),
            cow_bytes: 0,
        }
    }
}

impl<T: PartialEq> PartialEq for CowList<T> {
    fn eq(&self, other: &Self) -> bool {
        // Accounting counters are not part of the list's value.
        self.items == other.items
    }
}

impl<T: Clone> CowList<T> {
    /// Appends an item, copying the shared storage first (and counting
    /// the copied bytes) when another instance still references it.
    pub fn push(&mut self, item: T) {
        if Arc::strong_count(&self.items) > 1 {
            self.cow_bytes += self.heap_bytes();
        }
        Arc::make_mut(&mut self.items).push(item);
    }

    /// Appends `times` more copies of the last `len` items, with the same
    /// copy-on-write accounting as that many [`CowList::push`] calls.
    ///
    /// # Panics
    ///
    /// Panics when `len` exceeds the list's length.
    pub fn repeat_tail(&mut self, len: usize, times: usize) {
        let start = self.items.len() - len;
        if len * times == 0 {
            return;
        }
        if Arc::strong_count(&self.items) > 1 {
            self.cow_bytes += self.heap_bytes();
        }
        let items = Arc::make_mut(&mut self.items);
        let end = items.len() + len * times;
        items.reserve(len * times);
        // Copy by doubling: everything from `start` on is whole
        // repetitions, so each pass appends all of it, capped at what
        // is left.
        while items.len() < end {
            let copy = (items.len() - start).min(end - items.len());
            items.extend_from_within(start..start + copy);
        }
    }

    /// The items as a slice, in append order.
    pub fn as_slice(&self) -> &[T] {
        &self.items
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing was appended.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bytes a deep copy of the list would move; the cost a fork shares
    /// away structurally.
    pub fn heap_bytes(&self) -> u64 {
        (self.items.len() * std::mem::size_of::<T>()) as u64
    }

    /// Bytes this instance copied on-write since construction
    /// (monotone).
    pub fn cow_bytes(&self) -> u64 {
        self.cow_bytes
    }

    /// An eagerly deep-copied clone (no shared storage); the non-CoW
    /// reference for transparency tests and the fork microbench.
    pub fn deep_clone(&self) -> Self {
        CowList {
            items: Arc::new(self.items.as_ref().clone()),
            cow_bytes: self.cow_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_until_push_and_counts_bytes() {
        let mut a: CowList<u64> = CowList::default();
        a.push(1);
        a.push(2);
        let mut b = a.clone();
        assert_eq!(b.cow_bytes(), 0);
        b.push(3);
        assert_eq!(
            b.cow_bytes(),
            2 * std::mem::size_of::<u64>() as u64,
            "first post-fork append copies the pre-fork items"
        );
        assert_eq!(a.cow_bytes(), 0);
        assert_eq!(a.as_slice(), &[1, 2]);
        assert_eq!(b.as_slice(), &[1, 2, 3]);
        assert_eq!(a.deep_clone(), a);
        assert!(!a.is_empty());
        assert_eq!(b.len(), 3);
    }

    /// `repeat_tail` leaves the items and the copy-on-write bytes that
    /// `len × times` single pushes would, with and without a live
    /// clone sharing the storage.
    #[test]
    fn repeat_tail_matches_repeated_pushes() {
        for len in [1, 2, 3] {
            for times in [0, 1, 2, 5, 1000] {
                for shared in [false, true] {
                    let build = || {
                        let mut list: CowList<u64> = CowList::default();
                        for i in 0..7 {
                            list.push(i * 10);
                        }
                        let live = shared.then(|| list.clone());
                        (list, live)
                    };
                    let ((mut fast, _fast_live), (mut slow, _slow_live)) = (build(), build());
                    fast.repeat_tail(len, times);
                    let cycle = slow.as_slice()[7 - len..].to_vec();
                    for _ in 0..times {
                        for &item in &cycle {
                            slow.push(item);
                        }
                    }
                    let case = format!("len {len}, times {times}, shared {shared}");
                    assert_eq!(fast.as_slice(), slow.as_slice(), "{case}");
                    assert_eq!(fast.cow_bytes(), slow.cow_bytes(), "{case}");
                }
            }
        }
    }
}
