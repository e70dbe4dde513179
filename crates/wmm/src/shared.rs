//! Copy-on-write checker state with a cached content digest.
//!
//! The model checker clones a state for every successor, and most of a
//! successor is the same as its parent: one step runs one thread and
//! touches a few locations. Every part that a step may change on its own
//! (a thread, a location's write history, a view) sits behind a
//! [`Shared`] node. A clone copies only the reference, and a step copies
//! only the nodes it changes.
//!
//! Each node also caches a 128-bit digest of its contents, computed the
//! first time the node is hashed. [`Hash`] for a node writes that digest,
//! so fingerprinting a successor hashes the contents of the nodes its
//! step copied and one digest for each node it still shares. The digest
//! depends on the contents only, so equal states built apart hash equal.
//! The two `&mut` paths, [`Shared::make_mut`] and [`Shared::get_mut`],
//! clear the digest, so a cached digest is never stale.

use std::cell::Cell;
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// The two seeds of a digest's 64-bit lanes.
const DIGEST_SEEDS: [u64; 2] = [0x9e37_79b9_7f4a_7c15, 0xc2b2_ae3d_27d4_eb4f];

/// The digest slot of a node nobody has hashed since it last changed.
const UNSET: [u64; 2] = [0; 2];

/// The 128-bit digest of what `feed` writes, as two 64-bit lanes.
pub(crate) fn digest(feed: impl FnOnce(&mut FxHasher<2>)) -> [u64; 2] {
    let mut h = FxHasher::new(DIGEST_SEEDS);
    feed(&mut h);
    h.lanes()
}

#[derive(Clone)]
struct Node<T> {
    /// The digest of `value`, or [`UNSET`].
    digest: Cell<[u64; 2]>,
    value: T,
}

/// A reference-counted, copy-on-write node of checker state that caches
/// the digest of its contents.
///
/// `Rc`, not `Arc`: the checker, `batch` and the table bins run on one
/// thread. The digest adds 16 bytes to the node, not to the handle.
pub struct Shared<T>(Rc<Node<T>>);

impl<T> Shared<T> {
    /// A node holding `value`, not yet hashed.
    pub fn new(value: T) -> Shared<T> {
        Shared(Rc::new(Node {
            digest: Cell::new(UNSET),
            value,
        }))
    }

    /// Whether two handles point at the same node.
    pub fn ptr_eq(a: &Shared<T>, b: &Shared<T>) -> bool {
        Rc::ptr_eq(&a.0, &b.0)
    }

    /// The contents, for a change, if no other handle shares the node;
    /// clears the cached digest then. A caller that would copy the
    /// contents only to cut or grow them builds the changed copy itself.
    pub fn get_mut(this: &mut Shared<T>) -> Option<&mut T> {
        let node = Rc::get_mut(&mut this.0)?;
        node.digest.set(UNSET);
        Some(&mut node.value)
    }
}

impl<T: Clone> Shared<T> {
    /// The contents, for a change: copies the node first if another
    /// handle shares it, and clears the (copy's) cached digest.
    pub fn make_mut(this: &mut Shared<T>) -> &mut T {
        let node = Rc::make_mut(&mut this.0);
        node.digest.set(UNSET);
        &mut node.value
    }
}

impl<T: Hash> Shared<T> {
    /// The digest of the contents, computed now if the node has none.
    fn digest(&self) -> [u64; 2] {
        let node = &*self.0;
        if uncached() {
            return digest(|h| node.value.hash(h));
        }
        let mut d = node.digest.get();
        if d == UNSET {
            d = digest(|h| node.value.hash(h));
            node.digest.set(d);
        }
        d
    }
}

impl<T> std::ops::Deref for Shared<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0.value
    }
}

impl<T> Clone for Shared<T> {
    /// Another handle to the same node; it shares the cached digest.
    fn clone(&self) -> Shared<T> {
        Shared(Rc::clone(&self.0))
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Shared<T> {
        Shared::new(T::default())
    }
}

impl<T: PartialEq> PartialEq for Shared<T> {
    fn eq(&self, other: &Shared<T>) -> bool {
        Shared::ptr_eq(self, other) || **self == **other
    }
}

impl<T: Eq> Eq for Shared<T> {}

impl<T: Hash> Hash for Shared<T> {
    /// Writes the digest of the contents, not the contents.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [hi, lo] = self.digest();
        state.write_u64(hi);
        state.write_u64(lo);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

thread_local! {
    /// Set while [`without_cache`] runs; never set in release builds.
    static UNCACHED: Cell<bool> = const { Cell::new(false) };
}

/// Whether digests are being recomputed from scratch.
#[inline]
fn uncached() -> bool {
    cfg!(debug_assertions) && UNCACHED.with(Cell::get)
}

/// Runs `f` with every [`Shared`] digest recomputed from the contents,
/// neither read from nor written to the cache. A hash taken inside `f`
/// therefore differs from the same hash taken outside only if a cached
/// digest is stale. Debug builds only.
#[cfg(debug_assertions)]
pub(crate) fn without_cache<R>(f: impl FnOnce() -> R) -> R {
    UNCACHED.with(|u| u.set(true));
    let r = f();
    UNCACHED.with(|u| u.set(false));
    r
}

/// A multiply-rotate hasher (FxHash-style) for digests, with one
/// independently seeded 64-bit lane per seed. Every write mixes into all
/// lanes, so one pass over a state yields what one pass per seed would.
pub(crate) struct FxHasher<const LANES: usize> {
    state: [u64; LANES],
}

impl<const LANES: usize> FxHasher<LANES> {
    fn new(seeds: [u64; LANES]) -> Self {
        FxHasher { state: seeds }
    }

    #[inline]
    fn mix(&mut self, w: u64) {
        for s in &mut self.state {
            *s = (s.rotate_left(5) ^ w).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        }
    }

    /// Each lane's finalized hash.
    fn lanes(&self) -> [u64; LANES] {
        self.state.map(|mut x| {
            x ^= x >> 33;
            x = x.wrapping_mul(0xff51afd7ed558ccd);
            x ^= x >> 33;
            x
        })
    }
}

impl<const LANES: usize> Hasher for FxHasher<LANES> {
    /// The first lane.
    #[inline]
    fn finish(&self) -> u64 {
        self.lanes()[0]
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.mix(u64::from_le_bytes(c.try_into().expect("8 bytes")));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            w[..rem.len()].copy_from_slice(rem);
            self.mix(u64::from_le_bytes(w));
        }
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_i64(&mut self, v: i64) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn hash_of<T: Hash>(value: &T) -> [u64; 2] {
        digest(|h| value.hash(h))
    }

    /// The two-lane hasher's lanes equal two single-lane passes seeded
    /// with the digest seeds, for every kind of write a state hash makes.
    #[test]
    fn two_lane_hasher_matches_two_single_lane_passes() {
        fn feed<H: Hasher>(h: &mut H) {
            h.write(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]);
            h.write_u64(0xdead_beef_0bad_f00d);
            h.write_u32(7);
            h.write_u8(255);
            h.write_usize(1 << 40);
            h.write_i64(-3);
            vec![4i64, -5, 6].hash(h);
            BTreeMap::from([(0x1000u64, 1i64), (0x1001, -1)]).hash(h);
        }
        let mut both = FxHasher::new(DIGEST_SEEDS);
        feed(&mut both);
        let lanes = DIGEST_SEEDS.map(|seed| {
            let mut one = FxHasher::new([seed]);
            feed(&mut one);
            one.finish()
        });
        assert_eq!(both.lanes(), lanes);
        assert_ne!(lanes[0], lanes[1]);
    }

    #[test]
    fn a_clone_shares_the_cached_digest() {
        let a = Shared::new(vec![1i64, 2, 3]);
        let before = hash_of(&a);
        assert_eq!(a.0.digest.get(), hash_of(&vec![1i64, 2, 3]));
        let b = a.clone();
        assert!(Shared::ptr_eq(&a, &b));
        assert_eq!(b.0.digest.get(), a.0.digest.get());
        assert_eq!(hash_of(&b), before);
    }

    #[test]
    fn make_mut_on_a_shared_clone_clears_only_the_copy() {
        let a = Shared::new(vec![1i64, 2, 3]);
        let before = hash_of(&a);
        let mut b = a.clone();
        Shared::make_mut(&mut b).push(4);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(b.0.digest.get(), UNSET);
        assert_eq!(a.0.digest.get(), hash_of(&vec![1i64, 2, 3]));
        assert_eq!(hash_of(&a), before);
        assert_eq!(*a, vec![1, 2, 3]);
        assert_ne!(hash_of(&b), before);
        assert_eq!(hash_of(&b), hash_of(&Shared::new(vec![1i64, 2, 3, 4])));
    }

    /// What keeps revisit counts intact: equality of contents, not of
    /// nodes, decides the hash.
    #[test]
    fn equal_values_built_separately_hash_equal() {
        let a = Shared::new(BTreeMap::from([(1u64, 2u64)]));
        let mut b = Shared::new(BTreeMap::new());
        let _ = hash_of(&b);
        Shared::make_mut(&mut b).insert(1, 2);
        assert!(!Shared::ptr_eq(&a, &b));
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        let nested = |v: &Shared<BTreeMap<u64, u64>>| vec![Shared::new(vec![v.clone()])];
        assert_eq!(hash_of(&nested(&a)), hash_of(&nested(&b)));
    }

    #[cfg(debug_assertions)]
    #[test]
    fn without_cache_recomputes_from_the_contents() {
        let mut a = Shared::new(vec![7i64]);
        let fresh = hash_of(&a);
        // A stale digest: change the contents behind the cache's back.
        Rc::get_mut(&mut a.0).unwrap().value.push(8);
        assert_eq!(hash_of(&a), fresh);
        let recomputed = without_cache(|| hash_of(&a));
        assert_eq!(recomputed, hash_of(&Shared::new(vec![7i64, 8])));
        assert_ne!(recomputed, fresh);
        assert!(!uncached());
    }
}
