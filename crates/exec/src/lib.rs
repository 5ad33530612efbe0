//! Parallel sharded execution for the SpArch reproduction.
//!
//! The paper's evaluation is embarrassingly parallel: 20 suite matrices ×
//! ablations × design-space points, every simulation independent of the
//! rest. This crate is the execution layer that turns those sweeps into
//! sharded multi-core runs with **deterministic, submission-ordered
//! results** — the reproduction sweep (`sparch-bench`) produces
//! bit-identical numbers at `--threads 1` and `--threads 8`.
//!
//! Two pieces:
//!
//! * [`ShardPool`] — a std-only scoped worker pool (the build environment
//!   is offline, so no rayon): dynamic work claiming over an atomic
//!   cursor, results returned by submission index
//!   ([`ShardPool::scoped_map`]),
//! * [`SharedQueue`] — the worker-side job-claiming protocol for workers
//!   fed by a channel (the streaming pipeline's merge workers speak it).
//!
//! Worker counts come from (in priority order) an explicit override such
//! as a `--threads N` flag, the `SPARCH_THREADS` environment variable,
//! then the machine's available parallelism.
//!
//! # Example
//!
//! ```
//! use sparch_exec::ShardPool;
//!
//! let sweep: Vec<u64> = (1..=5).collect();
//! let records = ShardPool::with_override(Some(2)).scoped_map(&sweep, |_, &n| n * n);
//! assert_eq!(records, vec![1, 4, 9, 16, 25]);
//! ```

pub mod pool;
pub mod queue;

pub use pool::{env_threads, ShardPool, THREADS_ENV};
pub use queue::SharedQueue;
