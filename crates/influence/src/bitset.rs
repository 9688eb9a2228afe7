//! A fixed-size bitset over dense `u32` ids.
//!
//! Used by the meets computation (per-trajectory dedup of candidate
//! billboards) and by tests as a reference membership structure. Implemented
//! here rather than pulled in as a dependency because it is a trivial,
//! hot-path substrate and the approved crate list has no bitset.

use crate::kernel;

/// A fixed-capacity set of `u32` ids backed by `u64` blocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitSet {
    blocks: Vec<u64>,
    capacity: usize,
}

const BITS: usize = 64;

impl BitSet {
    /// Creates an empty set that can hold ids `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            blocks: vec![0; capacity.div_ceil(BITS)],
            capacity,
        }
    }

    /// The exclusive upper bound on storable ids.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn index(&self, id: usize) -> (usize, u64) {
        debug_assert!(
            id < self.capacity,
            "bitset id {id} out of capacity {}",
            self.capacity
        );
        (id / BITS, 1u64 << (id % BITS))
    }

    /// Inserts `id`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: usize) -> bool {
        let (b, mask) = self.index(id);
        let was = self.blocks[b] & mask != 0;
        self.blocks[b] |= mask;
        !was
    }

    /// Removes `id`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: usize) -> bool {
        let (b, mask) = self.index(id);
        let was = self.blocks[b] & mask != 0;
        self.blocks[b] &= !mask;
        was
    }

    /// Whether `id` is present.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        let (b, mask) = self.index(id);
        self.blocks[b] & mask != 0
    }

    /// Number of ids present ([`kernel::popcount`] over the blocks).
    pub fn len(&self) -> usize {
        kernel::popcount(&self.blocks) as usize
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// In-place union; both sets must share a capacity.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        kernel::or_merge(&mut self.blocks, &other.blocks);
    }

    /// Size of the union without materialising it.
    pub fn union_len(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        kernel::or_popcount(&self.blocks, &other.blocks) as usize
    }

    /// Size of the intersection without materialising it.
    pub fn intersection_len(&self, other: &BitSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        kernel::and_popcount(&self.blocks, &other.blocks) as usize
    }

    /// Iterates present ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.blocks.iter().enumerate().flat_map(|(bi, &block)| {
            let mut bits = block;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(bi * BITS + tz)
                }
            })
        })
    }
}

/// Number of distinct ids across `lists`, every id `< capacity`: the
/// size of their union, counted by setting bits in a
/// `⌈capacity/64⌉`-word scratch and taking its [`kernel::popcount`].
/// Coverage reads (`I(S)` of a billboard set) count through it.
pub fn distinct_count<'l>(capacity: usize, lists: impl IntoIterator<Item = &'l [u32]>) -> u64 {
    let mut seen = BitSet::new(capacity);
    for list in lists {
        for &id in list {
            seen.insert(id as usize);
        }
    }
    seen.len() as u64
}

impl FromIterator<usize> for BitSet {
    /// Builds a set sized to the maximum id in the iterator.
    fn from_iter<T: IntoIterator<Item = usize>>(iter: T) -> Self {
        let ids: Vec<usize> = iter.into_iter().collect();
        let cap = ids.iter().max().map_or(0, |&m| m + 1);
        let mut set = BitSet::new(cap);
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn boundary_ids() {
        let mut s = BitSet::new(128);
        s.insert(0);
        s.insert(63);
        s.insert(64);
        s.insert(127);
        assert_eq!(s.len(), 4);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127]);
    }

    #[test]
    fn non_multiple_of_64_capacity() {
        let mut s = BitSet::new(70);
        s.insert(69);
        assert!(s.contains(69));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn zero_capacity() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
    }

    #[test]
    fn clear_empties() {
        let mut s: BitSet = [1usize, 2, 3].into_iter().collect();
        assert_eq!(s.len(), 3);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn union_and_intersection_lens() {
        let mut a = BitSet::new(100);
        let mut b = BitSet::new(100);
        for i in [1usize, 2, 3, 50] {
            a.insert(i);
        }
        for i in [3usize, 50, 99] {
            b.insert(i);
        }
        assert_eq!(a.union_len(&b), 5);
        assert_eq!(a.intersection_len(&b), 2);
        a.union_with(&b);
        assert_eq!(a.len(), 5);
        assert!(a.contains(99));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn union_capacity_mismatch_panics() {
        let a = BitSet::new(10);
        let b = BitSet::new(20);
        let _ = a.union_len(&b);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: BitSet = [7usize, 2].into_iter().collect();
        assert_eq!(s.capacity(), 8);
        assert!(s.contains(7));
        assert!(s.contains(2));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn prop_matches_btreeset(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..300)) {
            let mut bs = BitSet::new(200);
            let mut reference = BTreeSet::new();
            for (id, insert) in ops {
                if insert {
                    prop_assert_eq!(bs.insert(id), reference.insert(id));
                } else {
                    prop_assert_eq!(bs.remove(id), reference.remove(&id));
                }
            }
            prop_assert_eq!(bs.len(), reference.len());
            prop_assert_eq!(bs.iter().collect::<Vec<_>>(),
                            reference.iter().copied().collect::<Vec<_>>());
        }
    }
}
