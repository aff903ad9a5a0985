//! [`IdMap`]: an id-ordered map with O(1) keyed lookup.
//!
//! The simulator's per-flow tables are read on every packet but change
//! only when a flow starts or stops, and their sweeps (controller polls,
//! reports, telemetry) must visit flows in ascending id order so that
//! replay and golden outputs do not depend on anything but the seed. A
//! `BTreeMap` gives the order but charges a tree search per packet per
//! table. `IdMap` keeps the entries in two id-sorted `Vec`s (keys and
//! values) and a hashed key → position index ([`IdHashMap`], fixed
//! hasher) beside them:
//!
//! * `get`/`get_mut`/`contains_key` are one hash probe plus a `Vec` index;
//! * `iter`/`keys`/`values` walk the sorted `Vec`s, so they yield exactly
//!   the ascending order a `BTreeMap` would;
//! * `insert` of a new key and `remove` shift the tail of the `Vec`s and
//!   re-point the index entries of the shifted keys: O(n), paid on control
//!   events only. An insert of a key above every present key (flows start
//!   in id order) is an append, O(1).
//!
//! Memory grows with the number of entries, never with the magnitude of
//! the ids: a map holding only `u32::MAX` holds one entry.

use std::hash::Hash;

use crate::hash::IdHashMap;

/// An ordered map for `Copy` id keys: sorted storage for iteration, a
/// hashed index for lookup. See the module docs for the cost model.
#[derive(Clone)]
pub struct IdMap<K, V> {
    /// Keys, strictly ascending.
    keys: Vec<K>,
    /// `vals[i]` belongs to `keys[i]`.
    vals: Vec<V>,
    /// Key → its position in `keys`/`vals`. Lookup only: never iterated.
    slot_of: IdHashMap<K, u32>,
}

impl<K, V> Default for IdMap<K, V> {
    fn default() -> Self {
        IdMap {
            keys: Vec::new(),
            vals: Vec::new(),
            slot_of: IdHashMap::default(),
        }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for IdMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.keys.iter().zip(&self.vals))
            .finish()
    }
}

impl<K: Ord + Hash + Copy, V> IdMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Position of `key` in iteration order, if present. Positions move
    /// only when a key is inserted or removed, so a handler that does
    /// neither can resolve a key once and then reach its value with
    /// [`IdMap::at_mut`], without another hash probe.
    #[inline]
    pub fn slot(&self, key: &K) -> Option<usize> {
        self.slot_of.get(key).map(|&i| i as usize)
    }

    /// The value at position `slot` (from [`IdMap::slot`]). Panics when
    /// `slot` is out of range.
    #[inline]
    pub fn at_mut(&mut self, slot: usize) -> &mut V {
        &mut self.vals[slot]
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: &K) -> bool {
        self.slot_of.contains_key(key)
    }

    /// The value of `key`, if present.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.slot(key).map(|i| &self.vals[i])
    }

    /// The value of `key` for mutation, if present.
    #[inline]
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.slot(key).map(|i| &mut self.vals[i])
    }

    /// Re-point the index entries of `keys[from..]` at their positions.
    fn reindex_from(&mut self, from: usize) {
        for (i, k) in self.keys.iter().enumerate().skip(from) {
            *self
                .slot_of
                .get_mut(k)
                .expect("invariant: every stored key is indexed") = i as u32;
        }
    }

    /// Insert `value` under `key`, returning the value it replaces. A new
    /// key is placed in id order: an append when it exceeds every present
    /// key, otherwise an O(n) shift.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(i) = self.slot(&key) {
            return Some(std::mem::replace(&mut self.vals[i], value));
        }
        let at = match self.keys.last() {
            Some(last) if *last > key => self.keys.partition_point(|k| *k < key),
            _ => self.keys.len(),
        };
        let slot = u32::try_from(at).expect("invariant: an IdMap holds fewer than 2^32 entries");
        self.keys.insert(at, key);
        self.vals.insert(at, value);
        self.slot_of.insert(key, slot);
        self.reindex_from(at + 1);
        None
    }

    /// Remove `key`, returning its value. O(n): the tail shifts down.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let at = self.slot_of.remove(key)? as usize;
        self.keys.remove(at);
        let value = self.vals.remove(at);
        self.reindex_from(at);
        Some(value)
    }

    /// Entries in ascending key order.
    #[inline]
    pub fn iter(&self) -> std::iter::Zip<std::slice::Iter<'_, K>, std::slice::Iter<'_, V>> {
        self.keys.iter().zip(self.vals.iter())
    }

    /// Entries in ascending key order, values mutable.
    #[inline]
    pub fn iter_mut(
        &mut self,
    ) -> std::iter::Zip<std::slice::Iter<'_, K>, std::slice::IterMut<'_, V>> {
        self.keys.iter().zip(self.vals.iter_mut())
    }

    /// Keys in ascending order.
    #[inline]
    pub fn keys(&self) -> std::slice::Iter<'_, K> {
        self.keys.iter()
    }

    /// Values in ascending key order.
    #[inline]
    pub fn values(&self) -> std::slice::Iter<'_, V> {
        self.vals.iter()
    }

    /// Values in ascending key order, mutable.
    #[inline]
    pub fn values_mut(&mut self) -> std::slice::IterMut<'_, V> {
        self.vals.iter_mut()
    }
}

/// `map[&key]`, like `BTreeMap`: panics when `key` is absent.
impl<K: Ord + Hash + Copy, V> std::ops::Index<&K> for IdMap<K, V> {
    type Output = V;

    #[inline]
    fn index(&self, key: &K) -> &V {
        self.get(key)
            .expect("invariant: an indexed key is present (`get` is the fallible lookup)")
    }
}

impl<'a, K: Ord + Hash + Copy, V> IntoIterator for &'a IdMap<K, V> {
    type Item = (&'a K, &'a V);
    type IntoIter = std::iter::Zip<std::slice::Iter<'a, K>, std::slice::Iter<'a, V>>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn iterates_in_ascending_key_order_whatever_the_insert_order() {
        let mut m = IdMap::new();
        for k in [5u32, 1, 9, 3, 7] {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), [1, 3, 5, 7, 9]);
        assert_eq!(
            m.values().copied().collect::<Vec<_>>(),
            [10, 30, 50, 70, 90]
        );
        assert_eq!(m.remove(&3), Some(30));
        assert_eq!(m.get(&7), Some(&70));
        assert_eq!(m.iter().map(|(k, _)| *k).collect::<Vec<_>>(), [1, 5, 7, 9]);
    }

    #[test]
    fn a_huge_id_allocates_nothing_sized_by_the_key() {
        let mut m = IdMap::new();
        m.insert(u32::MAX, 1u8);
        assert_eq!(m.len(), 1);
        assert_eq!(m.get(&u32::MAX), Some(&1));
        // One entry: every allocation is sized by the entry count (the
        // hash index rounds up to its smallest table), not by the id.
        assert!(m.keys.capacity() <= 4, "{}", m.keys.capacity());
        assert!(m.vals.capacity() <= 8, "{}", m.vals.capacity());
        assert!(m.slot_of.capacity() <= 4, "{}", m.slot_of.capacity());
    }

    /// One step of a differential trace against `BTreeMap`.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u32, u64),
        Remove(u32),
        Get(u32),
        GetMut(u32, u64),
        Iterate,
    }

    /// Keys concentrate on a small space (so replaces and removes of
    /// present keys are common) plus the extremes `0` and `u32::MAX` and
    /// arbitrary draws.
    fn key() -> impl Strategy<Value = u32> {
        prop_oneof![
            4 => 0u32..32,
            1 => Just(0u32),
            1 => Just(u32::MAX),
            1 => any::<u32>(),
        ]
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            4 => (key(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
            2 => key().prop_map(Op::Remove),
            2 => key().prop_map(Op::Get),
            2 => (key(), any::<u64>()).prop_map(|(k, v)| Op::GetMut(k, v)),
            1 => Just(Op::Iterate),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn matches_btreemap(ops in prop::collection::vec(op(), 1..300)) {
            let mut m: IdMap<u32, u64> = IdMap::new();
            let mut r: BTreeMap<u32, u64> = BTreeMap::new();
            for op in &ops {
                match *op {
                    Op::Insert(k, v) => prop_assert_eq!(m.insert(k, v), r.insert(k, v)),
                    Op::Remove(k) => prop_assert_eq!(m.remove(&k), r.remove(&k)),
                    Op::Get(k) => {
                        prop_assert_eq!(m.get(&k), r.get(&k));
                        prop_assert_eq!(m.contains_key(&k), r.contains_key(&k));
                    }
                    Op::GetMut(k, v) => {
                        let (a, b) = (m.get_mut(&k), r.get_mut(&k));
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(a), Some(b)) = (a, b) {
                            prop_assert_eq!(*a, *b);
                            *a ^= v;
                            *b ^= v;
                        }
                    }
                    Op::Iterate => {
                        prop_assert!(m.iter().eq(r.iter()));
                        prop_assert!(m.keys().eq(r.keys()));
                        prop_assert!(m.values().eq(r.values()));
                        for (v, w) in m.values_mut().zip(r.values_mut()) {
                            *v = v.wrapping_add(1);
                            *w = w.wrapping_add(1);
                        }
                    }
                }
                prop_assert_eq!(m.len(), r.len());
                prop_assert_eq!(m.is_empty(), r.is_empty());
            }
            prop_assert!(m.iter_mut().map(|(k, v)| (*k, *v)).eq(r.into_iter()));
        }
    }
}
