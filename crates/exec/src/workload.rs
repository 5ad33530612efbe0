//! The [`Workload`] contract and the [`ParallelRunner`] that shards
//! workloads over a [`ShardPool`](crate::ShardPool).

use crate::pool::ShardPool;
use serde::Serialize;
use std::marker::PhantomData;
use std::time::Instant;

/// One independent unit of an evaluation sweep.
///
/// A workload names itself (for progress and reporting), builds its own
/// inputs (so the expensive surrogate-matrix generation also runs on the
/// worker, off the submitting thread), and runs to a serializable record.
/// `build` and `run` must be pure functions of `self` — that is what
/// makes a sharded sweep's output independent of the worker count.
pub trait Workload: Sync {
    /// What `build` produces and `run` consumes (e.g. a matrix).
    type Input: Send;
    /// The serializable result record.
    type Record: Serialize + Send;

    /// Display name, used for progress lines and timing records.
    fn name(&self) -> String;

    /// Materializes the workload's inputs.
    fn build(&self) -> Self::Input;

    /// Runs the workload to its record.
    fn run(&self, input: Self::Input) -> Self::Record;
}

/// A [`Workload`] assembled from two closures, so a sweep needs no
/// bespoke struct per job kind.
///
/// # Example
///
/// ```
/// use sparch_exec::{FnWorkload, ParallelRunner, ShardPool, Workload};
///
/// let jobs: Vec<_> = (0..4u64)
///     .map(|n| FnWorkload::new(format!("job-{n}"), move || n, |n| n * n))
///     .collect();
/// let squares = ParallelRunner::new(ShardPool::new(2)).quiet().run_all(&jobs);
/// assert_eq!(squares, vec![0, 1, 4, 9]);
/// ```
pub struct FnWorkload<I, R, B, F>
where
    B: Fn() -> I + Sync,
    F: Fn(I) -> R + Sync,
{
    name: String,
    build: B,
    run: F,
    _marker: PhantomData<fn() -> (I, R)>,
}

impl<I, R, B, F> FnWorkload<I, R, B, F>
where
    B: Fn() -> I + Sync,
    F: Fn(I) -> R + Sync,
{
    /// A workload called `name` that runs `run(build())`.
    pub fn new(name: impl Into<String>, build: B, run: F) -> Self {
        FnWorkload {
            name: name.into(),
            build,
            run,
            _marker: PhantomData,
        }
    }
}

impl<I, R, B, F> Workload for FnWorkload<I, R, B, F>
where
    I: Send,
    R: Serialize + Send,
    B: Fn() -> I + Sync,
    F: Fn(I) -> R + Sync,
{
    type Input = I;
    type Record = R;

    fn name(&self) -> String {
        self.name.clone()
    }

    fn build(&self) -> I {
        (self.build)()
    }

    fn run(&self, input: I) -> R {
        (self.run)(input)
    }
}

/// A workload record paired with its wall-clock measurement.
#[derive(Debug, Clone)]
pub struct Timed<R> {
    /// The workload's name.
    pub name: String,
    /// Wall-clock seconds for `build`.
    pub build_seconds: f64,
    /// Wall-clock seconds for `run`.
    pub run_seconds: f64,
    /// The workload's record.
    pub record: R,
}

// Hand-written: the vendored serde derive does not support generics.
impl<R: Serialize> Serialize for Timed<R> {
    fn to_json(&self) -> serde::Json {
        serde::Json::Obj(vec![
            ("name".into(), self.name.to_json()),
            ("build_seconds".into(), self.build_seconds.to_json()),
            ("run_seconds".into(), self.run_seconds.to_json()),
            ("record".into(), self.record.to_json()),
        ])
    }
}

/// Shards a batch of [`Workload`]s across a [`ShardPool`], returning the
/// records in submission order regardless of the worker count.
///
/// Progress goes to stderr (suppress with [`ParallelRunner::quiet`]),
/// the records come back in submission order, and the sweep uses every
/// core the pool has.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    pool: ShardPool,
    progress: bool,
}

impl ParallelRunner {
    /// A runner over `pool`, with progress lines on stderr.
    pub fn new(pool: ShardPool) -> Self {
        ParallelRunner {
            pool,
            progress: true,
        }
    }

    /// Suppresses the per-workload `done <name>` progress lines.
    pub fn quiet(mut self) -> Self {
        self.progress = false;
        self
    }

    /// The underlying worker count.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Runs every workload, returning records in submission order.
    pub fn run_all<W: Workload>(&self, workloads: &[W]) -> Vec<W::Record> {
        self.pool.scoped_map(workloads, |_, w| {
            let record = w.run(w.build());
            if self.progress {
                eprintln!("done {}", w.name());
            }
            record
        })
    }

    /// Runs every workload, timing each `build` and `run` on its worker.
    /// Records come back in submission order.
    pub fn run_all_timed<W: Workload>(&self, workloads: &[W]) -> Vec<Timed<W::Record>> {
        self.pool.scoped_map(workloads, |_, w| {
            let t0 = Instant::now();
            let input = w.build();
            let t1 = Instant::now();
            let record = w.run(input);
            let t2 = Instant::now();
            if self.progress {
                eprintln!("done {}", w.name());
            }
            Timed {
                name: w.name(),
                build_seconds: (t1 - t0).as_secs_f64(),
                run_seconds: (t2 - t1).as_secs_f64(),
                record,
            }
        })
    }
}

impl Default for ParallelRunner {
    fn default() -> Self {
        ParallelRunner::new(ShardPool::from_env())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Doubler(u64);

    impl Workload for Doubler {
        type Input = u64;
        type Record = u64;

        fn name(&self) -> String {
            format!("double-{}", self.0)
        }

        fn build(&self) -> u64 {
            self.0
        }

        fn run(&self, input: u64) -> u64 {
            input * 2
        }
    }

    #[test]
    fn trait_workloads_run_in_order() {
        let jobs: Vec<Doubler> = (0..20).map(Doubler).collect();
        for threads in [1, 2, 8] {
            let out = ParallelRunner::new(ShardPool::new(threads))
                .quiet()
                .run_all(&jobs);
            assert_eq!(out, (0..20).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn timed_records_carry_names_and_times() {
        let jobs: Vec<Doubler> = (0..3).map(Doubler).collect();
        let out = ParallelRunner::new(ShardPool::new(2))
            .quiet()
            .run_all_timed(&jobs);
        assert_eq!(out.len(), 3);
        assert_eq!(out[1].name, "double-1");
        assert_eq!(out[1].record, 2);
        assert!(out
            .iter()
            .all(|t| t.build_seconds >= 0.0 && t.run_seconds >= 0.0));
    }

    #[test]
    fn fn_workloads_capture_environment() {
        let scale = 3u64;
        let jobs: Vec<_> = (0..4u64)
            .map(|n| FnWorkload::new(format!("n{n}"), move || n, move |n| n * scale))
            .collect();
        let out = ParallelRunner::new(ShardPool::new(4))
            .quiet()
            .run_all(&jobs);
        assert_eq!(out, vec![0, 3, 6, 9]);
    }
}
