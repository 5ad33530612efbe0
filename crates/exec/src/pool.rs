//! The scoped worker pool.
//!
//! Std-only by design: the build environment is offline, so no rayon /
//! crossbeam — `std::thread::scope` gives us borrowing workers, an atomic
//! cursor gives us dynamic load balancing, and indexed result slots give
//! us submission-ordered output no matter which worker finishes first.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "SPARCH_THREADS";

/// A fixed-width pool of scoped worker threads.
///
/// `ShardPool` shards a list of independent items across its workers and
/// returns the results **in submission order**, so output is bit-identical
/// regardless of the worker count (the determinism guard in
/// `crates/bench/tests/determinism.rs` pins this end to end).
///
/// # Example
///
/// ```
/// use sparch_exec::ShardPool;
///
/// let squares = ShardPool::new(4).scoped_map(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPool {
    threads: usize,
}

impl ShardPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        ShardPool {
            threads: threads.max(1),
        }
    }

    /// A pool sized from the environment: `SPARCH_THREADS` if set to a
    /// positive integer, otherwise the machine's available parallelism.
    pub fn from_env() -> Self {
        ShardPool::new(env_threads().unwrap_or_else(available_parallelism))
    }

    /// A pool honoring an explicit override (e.g. a `--threads N` flag):
    /// `Some(n)` wins over the environment, `None` falls back to
    /// [`ShardPool::from_env`].
    pub fn with_override(threads: Option<usize>) -> Self {
        match threads {
            Some(n) => ShardPool::new(n),
            None => ShardPool::from_env(),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item (receiving `(index, &item)`), sharding
    /// across the pool's workers, and returns the results in submission
    /// order.
    ///
    /// Items are claimed dynamically (an atomic cursor), so a few slow
    /// items don't idle the rest of the pool. When the batch is much
    /// larger than the pool — the serving layer fans out thousands of
    /// small requests — workers claim short contiguous *runs* of indices
    /// per atomic operation instead of one, amortizing cursor contention;
    /// results are still written to per-index slots, so the output stays
    /// submission-ordered and thread-count-invariant. `f` must be pure
    /// with respect to the item for that invariance to hold.
    ///
    /// # Panics
    ///
    /// Propagates the first panic raised inside `f`.
    pub fn scoped_map<I, R, F>(&self, items: &[I], f: F) -> Vec<R>
    where
        I: Sync,
        R: Send,
        F: Fn(usize, &I) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items
                .iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }

        // Claim-run length: 1 while the batch is small (best balance for
        // a handful of slow sweeps), growing once there are ≥16 items per
        // worker so huge batches of cheap items don't serialize on the
        // cursor's cache line. Capped so stragglers can't strand work.
        let chunk = (items.len() / (workers * 16)).clamp(1, 64);
        let cursor = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= items.len() {
                        break;
                    }
                    for (i, item) in items.iter().enumerate().take(start + chunk).skip(start) {
                        let result = f(i, item);
                        *slots[i].lock().expect("result slot poisoned") = Some(result);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every claimed slot")
            })
            .collect()
    }
}

impl Default for ShardPool {
    fn default() -> Self {
        ShardPool::from_env()
    }
}

/// Parses `SPARCH_THREADS`; `None` if unset, empty, zero or malformed.
pub fn env_threads() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()?
        .trim()
        .parse::<usize>()
        .ok()
        .filter(|&n| n > 0)
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_submission_ordered() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 3, 8, 200] {
            let out = ShardPool::new(threads).scoped_map(&items, |i, &x| {
                assert_eq!(i, x);
                x * 10
            });
            assert_eq!(
                out,
                (0..100).map(|x| x * 10).collect::<Vec<_>>(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make early items the slowest so completion order inverts
        // submission order under any real parallelism.
        let items: Vec<u64> = (0..16).collect();
        let out = ShardPool::new(8).scoped_map(&items, |_, &x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20 - 4 * x));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn chunked_claiming_covers_large_batches_in_order() {
        // Batches big enough to trigger multi-item claim runs (> 16 items
        // per worker) must still produce submission-ordered, complete
        // output at any worker count.
        for (len, threads) in [(1000, 2), (1000, 8), (4097, 3), (130, 4)] {
            let items: Vec<usize> = (0..len).collect();
            let out = ShardPool::new(threads).scoped_map(&items, |i, &x| {
                assert_eq!(i, x);
                x + 1
            });
            assert_eq!(
                out,
                (1..=len).collect::<Vec<_>>(),
                "len {len} threads {threads}"
            );
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        assert_eq!(ShardPool::new(0).threads(), 1);
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<u32> = ShardPool::new(4).scoped_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn explicit_override_beats_environment() {
        assert_eq!(ShardPool::with_override(Some(3)).threads(), 3);
        assert!(ShardPool::with_override(None).threads() >= 1);
    }

    #[test]
    fn borrows_captured_state() {
        // The scoped pool must let `f` borrow from the caller's stack.
        let offset = 7u64;
        let items = [1u64, 2, 3];
        let out = ShardPool::new(2).scoped_map(&items, |_, &x| x + offset);
        assert_eq!(out, vec![8, 9, 10]);
    }
}
