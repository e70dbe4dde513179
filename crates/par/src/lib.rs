//! A zero-dependency scoped-thread worker pool with a deterministic merge.
//!
//! Every parallel phase in the pipeline follows the same contract: work
//! items are *indexed*, workers pull items off a shared cursor and return
//! `(index, result)` pairs, and the pool places the results into slots so
//! the caller always sees them in item order — byte-identical output for
//! any thread count. Anything order-sensitive (ledger records, metric
//! sums, report counters) happens in the sequential reduce that follows,
//! never inside a worker.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The number of workers the host can usefully run, with a safe fallback
/// when the platform cannot tell us.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve a job count from an environment variable (e.g. `ATOMIG_JOBS`).
/// Unset, empty, or `0` fall back to [`available_parallelism`] ("auto");
/// anything else must parse as a positive integer.
///
/// # Errors
///
/// Returns a named parse error — consistent with the CLI's `--jobs N`
/// diagnostics — instead of silently ignoring a typo like
/// `ATOMIG_JOBS=lots`.
pub fn jobs_from_env(var: &str) -> Result<usize, String> {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => match v.trim().parse::<usize>() {
            Ok(0) => Ok(available_parallelism()),
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{var}: `{v}` is not a thread count")),
        },
        _ => Ok(available_parallelism()),
    }
}

/// A fixed-width pool of scoped workers. The pool owns no threads between
/// calls: each [`WorkerPool::map`] spawns up to `jobs` scoped threads,
/// joins them all, and returns results in item order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    jobs: usize,
}

impl WorkerPool {
    /// A pool that runs `jobs` workers; `0` is clamped to `1`.
    pub fn new(jobs: usize) -> WorkerPool {
        WorkerPool { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Apply `f` to every item and return the results in item order.
    ///
    /// `f` receives the item index and a reference to the item. With one
    /// job (or at most one item) this runs inline on the caller's thread;
    /// otherwise workers race down a shared cursor, collect
    /// `(index, result)` pairs locally, and the results are placed into
    /// index slots after all workers join. A panic in any worker is
    /// propagated to the caller after the scope unwinds.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.jobs.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let cursor = AtomicUsize::new(0);
        let mut batches: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(item) = items.get(i) else { break };
                            local.push((i, f(i, item)));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(local) => local,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });
        let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
        for (i, r) in batches.drain(..).flatten() {
            debug_assert!(slots[i].is_none(), "duplicate result for item {i}");
            slots[i] = Some(r);
        }
        slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| s.unwrap_or_else(|| panic!("worker pool lost item {i}")))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order_for_any_width() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for jobs in [1, 2, 4, 16, 64] {
            let got = WorkerPool::new(jobs).map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 3 + 1
            });
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one_and_empty_input_is_fine() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.jobs(), 1);
        let got: Vec<u8> = pool.map(&[] as &[u8], |_, &b| b);
        assert!(got.is_empty());
        assert_eq!(WorkerPool::new(8).map(&[5u8], |_, &b| b + 1), vec![6]);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        let items: Vec<usize> = (0..64).collect();
        let res = std::panic::catch_unwind(|| {
            WorkerPool::new(4).map(&items, |_, &x| {
                assert!(x != 17, "boom");
                x
            })
        });
        assert!(res.is_err());
    }

    #[test]
    fn env_job_resolution_prefers_positive_integers() {
        assert!(available_parallelism() >= 1);
        std::env::set_var("ATOMIG_PAR_TEST_JOBS", "3");
        assert_eq!(jobs_from_env("ATOMIG_PAR_TEST_JOBS"), Ok(3));
        // `0` and empty mean "auto", like an absent variable.
        std::env::set_var("ATOMIG_PAR_TEST_JOBS", "0");
        assert_eq!(
            jobs_from_env("ATOMIG_PAR_TEST_JOBS"),
            Ok(available_parallelism())
        );
        std::env::set_var("ATOMIG_PAR_TEST_JOBS", " ");
        assert_eq!(
            jobs_from_env("ATOMIG_PAR_TEST_JOBS"),
            Ok(available_parallelism())
        );
        std::env::remove_var("ATOMIG_PAR_TEST_JOBS");
        assert_eq!(
            jobs_from_env("ATOMIG_PAR_TEST_JOBS"),
            Ok(available_parallelism())
        );
        // A typo is an error, not a silent fallback.
        std::env::set_var("ATOMIG_PAR_TEST_JOBS", "lots");
        let err = jobs_from_env("ATOMIG_PAR_TEST_JOBS").unwrap_err();
        assert!(
            err.contains("ATOMIG_PAR_TEST_JOBS") && err.contains("`lots`"),
            "{err}"
        );
        std::env::set_var("ATOMIG_PAR_TEST_JOBS", "-2");
        assert!(jobs_from_env("ATOMIG_PAR_TEST_JOBS").is_err());
        std::env::remove_var("ATOMIG_PAR_TEST_JOBS");
    }
}
