//! # atomig-testutil
//!
//! A tiny, dependency-free, deterministic pseudo-random number generator
//! used by the synthetic-codebase generator and the seeded generative
//! tests. The whole suite must build offline, so this replaces the usual
//! `rand` / `proptest` stack with an explicit SplitMix64 stream: the same
//! seed always produces the same sequence, on every platform and in every
//! release, which is exactly what reproducible workload generation and
//! shrunk-regression pinning need.

#![forbid(unsafe_code)]

/// A deterministic SplitMix64 generator.
///
/// SplitMix64 (Steele, Lea & Flood, OOPSLA '14) passes BigCrush, needs
/// only one `u64` of state, and — unlike library generators — its stream
/// is trivially stable across versions, so generated MiniC codebases are
/// reproducible byte-for-byte from their seed.
///
/// # Examples
///
/// ```
/// use atomig_testutil::Rng;
/// let mut a = Rng::new(42);
/// let mut b = Rng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// let v = a.gen_range(10..20);
/// assert!((10..20).contains(&v));
/// ```
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[range.start, range.end)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn gen_range(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "gen_range: empty range {range:?}");
        let width = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add((self.next_u64() % width) as i64)
    }

    /// A uniform `usize` in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn gen_usize(&mut self, n: usize) -> usize {
        assert!(n > 0, "gen_usize: empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// A coin flip that is `true` with probability `num / denom`.
    pub fn gen_ratio(&mut self, num: u64, denom: u64) -> bool {
        assert!(denom > 0 && num <= denom);
        self.next_u64() % denom < num
    }
}

/// A deterministic clock for byte-comparable timing fields.
///
/// Every [`ManualClock::now`] reading advances an atomic tick counter by a
/// fixed step, so successive readings are strictly monotone and identical
/// across runs. Wire it into `atomig_core` with
/// `Clock::from_fn(move || clock.now())` (this crate stays dependency-free,
/// so the adapter lives with the caller).
///
/// # Examples
///
/// ```
/// use atomig_testutil::ManualClock;
/// use std::time::Duration;
/// let c = ManualClock::new(1000);
/// assert_eq!(c.now(), Duration::from_nanos(1000));
/// assert_eq!(c.now(), Duration::from_nanos(2000));
/// ```
#[derive(Debug)]
pub struct ManualClock {
    ticks: std::sync::atomic::AtomicU64,
    step: u64,
}

impl ManualClock {
    /// A clock advancing `step_nanos` nanoseconds per reading.
    pub fn new(step_nanos: u64) -> ManualClock {
        ManualClock {
            ticks: std::sync::atomic::AtomicU64::new(0),
            step: step_nanos,
        }
    }

    /// The next reading (strictly after every previous one).
    pub fn now(&self) -> std::time::Duration {
        let t = self
            .ticks
            .fetch_add(self.step, std::sync::atomic::Ordering::Relaxed);
        std::time::Duration::from_nanos(t + self.step)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_is_monotone_and_reproducible() {
        let a = ManualClock::new(500);
        let b = ManualClock::new(500);
        let mut last = std::time::Duration::ZERO;
        for _ in 0..8 {
            let (ta, tb) = (a.now(), b.now());
            assert_eq!(ta, tb);
            assert!(ta > last);
            last = ta;
        }
    }

    #[test]
    fn streams_are_deterministic() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_are_respected() {
        let mut r = Rng::new(99);
        for _ in 0..1000 {
            let v = r.gen_range(-5..5);
            assert!((-5..5).contains(&v));
            let u = r.gen_usize(3);
            assert!(u < 3);
        }
    }

    #[test]
    fn range_covers_all_values() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..500 {
            seen[r.gen_usize(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn ratio_edges() {
        let mut r = Rng::new(5);
        assert!(!r.gen_ratio(0, 10));
        assert!(r.gen_ratio(10, 10));
    }
}
