//! Parallel sharded execution for the SpArch reproduction.
//!
//! The paper's evaluation is embarrassingly parallel: 20 suite matrices ×
//! ablations × design-space points, every simulation independent of the
//! rest. This crate is the execution layer that turns those sweeps into
//! sharded multi-core runs with **deterministic, submission-ordered
//! results** — the reproduction sweep (`sparch-bench`) produces
//! bit-identical numbers at `--threads 1` and `--threads 8`.
//!
//! Four pieces:
//!
//! * [`ShardPool`] — a std-only scoped worker pool (the build environment
//!   is offline, so no rayon): dynamic work claiming over an atomic
//!   cursor, results returned by submission index,
//! * [`SharedQueue`] — the worker-side job-claiming protocol for pools
//!   fed by a channel (the streaming pipeline's stages and the
//!   distributed shard worker both speak it),
//! * [`Workload`] — the unit of a sweep: a name, a `build` producing the
//!   inputs on the worker, and a pure `run` to a serializable record
//!   ([`FnWorkload`] assembles one from closures),
//! * [`ParallelRunner`] — shards a batch of workloads over a pool, with
//!   per-workload progress and optional wall-clock timing ([`Timed`]).
//!
//! Worker counts come from (in priority order) an explicit override such
//! as a `--threads N` flag, the `SPARCH_THREADS` environment variable,
//! then the machine's available parallelism.
//!
//! # Example
//!
//! ```
//! use sparch_exec::{FnWorkload, ParallelRunner, ShardPool};
//!
//! let sweep: Vec<_> = (1u64..=5)
//!     .map(|n| FnWorkload::new(format!("point-{n}"), move || n, |n| n * n))
//!     .collect();
//! let records = ParallelRunner::new(ShardPool::with_override(Some(2)))
//!     .quiet()
//!     .run_all(&sweep);
//! assert_eq!(records, vec![1, 4, 9, 16, 25]);
//! ```

pub mod pool;
pub mod queue;
pub mod workload;

pub use pool::{env_threads, Permits, ShardPool, THREADS_ENV};
pub use queue::SharedQueue;
pub use workload::{FnWorkload, ParallelRunner, Timed, Workload};
