//! A sorted-vector map for the small maps of checker state.
//!
//! A checker state holds a handful of locations, view entries and stack
//! slots, and the checker clones a state for every successor. A
//! [`FlatMap`] keeps its pairs in one vector sorted by key, so a clone is
//! one allocation and a lookup is a binary search over a few entries.
//! It iterates in ascending key order and hashes the same stream a
//! `BTreeMap` with the same pairs does (its length, then each key and
//! value), so state digests keep their meaning.

use std::hash::{Hash, Hasher};

/// A map kept as a vector of `(key, value)` pairs in ascending key order.
#[derive(PartialEq, Eq)]
pub struct FlatMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K: Clone, V: Clone> Clone for FlatMap<K, V> {
    fn clone(&self) -> Self {
        FlatMap {
            entries: self.entries.clone(),
        }
    }

    /// Copies `source` into this map's own buffer.
    fn clone_from(&mut self, source: &Self) {
        self.entries.clone_from(&source.entries);
    }
}

impl<K, V> Default for FlatMap<K, V> {
    fn default() -> Self {
        FlatMap {
            entries: Vec::new(),
        }
    }
}

impl<K: Ord, V> FlatMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        FlatMap::default()
    }

    /// Where `key` sits, or where it would be inserted.
    #[inline]
    fn search(&self, key: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value at `key`.
    #[inline]
    pub fn get(&self, key: &K) -> Option<&V> {
        self.search(key).ok().map(|i| &self.entries[i].1)
    }

    /// Sets `key` to `value`; returns the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.search(&key) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, value)),
            Err(i) => {
                self.entries.insert(i, (key, value));
                None
            }
        }
    }

    /// The value at `key`, inserting `make()` first if there is none.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let i = match self.search(&key) {
            Ok(i) => i,
            Err(i) => {
                self.entries.insert(i, (key, make()));
                i
            }
        };
        &mut self.entries[i].1
    }

    /// Whether the map holds no key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// The pairs in ascending key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.entries.iter_mut().map(|(k, v)| (&*k, v))
    }
}

impl<K: Hash, V: Hash> Hash for FlatMap<K, V> {
    /// The stream `BTreeMap::hash` writes: the length, then each pair in
    /// key order.
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.entries.len());
        for (k, v) in &self.entries {
            k.hash(state);
            v.hash(state);
        }
    }
}

impl<K: std::fmt::Debug, V: std::fmt::Debug> std::fmt::Debug for FlatMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|(k, v)| (k, v)))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shared::digest;
    use atomig_testutil::Rng;
    use std::collections::BTreeMap;

    /// Feeds both maps the same random inserts and insert-or-default
    /// updates over a few keys, checking lookups as it goes.
    fn fed_pair(seed: u64, ops: usize) -> (FlatMap<u64, i64>, BTreeMap<u64, i64>) {
        let mut rng = Rng::new(seed);
        let mut flat = FlatMap::new();
        let mut tree = BTreeMap::new();
        for _ in 0..ops {
            let key = rng.gen_usize(12) as u64;
            let val = rng.gen_range(-50..50);
            if rng.gen_ratio(1, 2) {
                assert_eq!(flat.insert(key, val), tree.insert(key, val));
            } else {
                *flat.get_or_insert_with(key, || 0) += val;
                *tree.entry(key).or_insert(0) += val;
            }
            let probe = rng.gen_usize(14) as u64;
            assert_eq!(
                flat.get(&probe),
                tree.get(&probe),
                "seed {seed}, key {probe}"
            );
        }
        (flat, tree)
    }

    #[test]
    fn keys_stay_sorted_whatever_the_insertion_order() {
        for seed in 0..50 {
            let (flat, _) = fed_pair(seed, 40);
            let keys: Vec<u64> = flat.iter().map(|(k, _)| *k).collect();
            assert!(
                keys.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: {keys:?}"
            );
        }
        let mut flat = FlatMap::new();
        for key in [5u64, 1, 9, 3, 7, 1, 5] {
            flat.insert(key, ());
        }
        let keys: Vec<u64> = flat.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, [1, 3, 5, 7, 9]);
    }

    #[test]
    fn lookups_and_updates_agree_with_a_btreemap() {
        for seed in 0..50 {
            let (flat, tree) = fed_pair(seed, 60);
            assert!(flat.iter().eq(tree.iter()), "seed {seed}");
            for key in 0..14 {
                assert_eq!(flat.get(&key), tree.get(&key));
            }
        }
    }

    #[test]
    fn digest_matches_a_btreemap_with_the_same_pairs() {
        for seed in 0..50 {
            let (flat, tree) = fed_pair(seed, 30);
            assert_eq!(digest(|h| flat.hash(h)), digest(|h| tree.hash(h)));
        }
        let empty: FlatMap<u64, u64> = FlatMap::new();
        assert_eq!(
            digest(|h| empty.hash(h)),
            digest(|h| BTreeMap::<u64, u64>::new().hash(h))
        );
    }
}
