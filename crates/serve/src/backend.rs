//! The eight software SpGEMM backends as a closed, dispatchable enum.

use serde::{Deserialize, Serialize};
use sparch_dist::{DistConfig, DistCoordinator};
use sparch_sparse::{algo, Csr};
use sparch_stream::{StreamConfig, StreamingExecutor};
use std::fmt;
use std::str::FromStr;

/// One of the software SpGEMM implementations the serving layer can
/// dispatch to: the six in-memory kernels in `sparch_sparse::algo`, the
/// out-of-core streaming pipeline in `sparch_stream`, and the
/// multi-process sharded pipeline in `sparch_dist`.
///
/// Gustavson's sparse accumulator is the one the dispatcher runs for
/// every step that fits in memory: on the backend census
/// (`examples/backend_census.rs`; table in the README) it is the fastest
/// of the six in-memory kernels on every case, as SparseZipper (PAPERS.md)
/// also takes it as the CPU SpGEMM baseline. Hash, heap, ESC, inner and
/// outer product stay as the paper's software baselines and as
/// conformance oracles, reachable through `fixed:<backend>`. The
/// streaming pipeline adds the memory axis: it is never the cheapest on
/// compute, but it is the only backend whose footprint is *bounded*, so
/// the dispatcher routes to it when a task's estimated footprint exceeds
/// the service's memory budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Backend {
    /// Row-wise sparse accumulator (Intel MKL's strategy).
    Gustavson,
    /// Per-row open-addressing hash table (cuSPARSE's strategy).
    Hash,
    /// Per-row k-way heap merge (HeapSpGEMM).
    Heap,
    /// Expansion–sorting–compression (CUSP's strategy).
    SortMerge,
    /// Row × column dot products (the vanilla dataflow).
    Inner,
    /// Column × row rank-1 expansion + pairwise merge (OuterSPACE).
    Outer,
    /// Panel-partitioned, memory-budgeted out-of-core pipeline
    /// (`sparch_stream` — the paper's partial-matrix merge discipline).
    Streaming,
    /// Panel-sharded multi-process pipeline (`sparch_dist`): the same
    /// panels and merge plan as `Streaming`, executed by shard worker
    /// processes with their own address spaces — the footprint escape
    /// hatch when even one streaming pipeline's resident set is too
    /// much for the serving process.
    Distributed,
}

impl Backend {
    /// Every backend, in the canonical (report and calibration-table) order.
    pub const ALL: [Backend; 8] = [
        Backend::Gustavson,
        Backend::Hash,
        Backend::Heap,
        Backend::SortMerge,
        Backend::Inner,
        Backend::Outer,
        Backend::Streaming,
        Backend::Distributed,
    ];

    /// The backend's snake_case name, matching its `algo` function.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Gustavson => "gustavson",
            Backend::Hash => "hash_spgemm",
            Backend::Heap => "heap_spgemm",
            Backend::SortMerge => "sort_merge",
            Backend::Inner => "inner_product",
            Backend::Outer => "outer_product",
            Backend::Streaming => "streaming",
            Backend::Distributed => "distributed",
        }
    }

    /// Runs this backend on `a * b`.
    ///
    /// `Streaming` runs the pinned single-worker configuration
    /// (`StreamConfig::pinned`) so results are reproducible and request
    /// fan-out stays the serving layer's only parallelism axis; the
    /// service's step executor substitutes its configured memory budget
    /// via `run_streaming_with`. Spill I/O failure degrades to an
    /// unbounded in-core retry instead of panicking (see
    /// `run_streaming_with`).
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()` (all backends share that
    /// contract).
    pub fn run(self, a: &Csr, b: &Csr) -> Csr {
        match self {
            Backend::Gustavson => {
                // The panel kernel with a per-thread scratch: repeated
                // requests on one serving thread reuse the warm SPA
                // instead of allocating two O(b.cols()) arrays per call.
                // Bit-identical to `algo::gustavson` — the cost model's
                // asymptotics are unchanged, only the constants improve.
                thread_local! {
                    static SCRATCH: std::cell::RefCell<algo::MultiplyScratch> =
                        std::cell::RefCell::new(algo::MultiplyScratch::new());
                }
                SCRATCH.with(|s| algo::gustavson_scratch(a, b, &mut s.borrow_mut()))
            }
            Backend::Hash => algo::hash_spgemm(a, b),
            Backend::Heap => algo::heap_spgemm(a, b),
            Backend::SortMerge => algo::sort_merge(a, b),
            Backend::Inner => algo::inner_product(a, b),
            Backend::Outer => algo::outer_product(a, b),
            Backend::Streaming => run_streaming_with(StreamConfig::pinned(), a, b),
            Backend::Distributed => run_distributed_with(DistConfig::pinned(2), a, b),
        }
    }
}

/// Runs the distributed coordinator under `config`, degrading instead of
/// dying: if the fleet cannot be spawned (worker binary missing, socket
/// trouble) or a job exhausts its retries, the step falls back to the
/// in-process streaming pipeline under the *same* stream configuration.
/// The fallback is **bit-identical** by construction — the coordinator
/// and the streaming executor share the panel split, the Huffman plan
/// and the merge kernels — so degradation costs locality, never
/// correctness. (The streaming fallback itself degrades to an unbounded
/// in-core run on spill I/O failure; see [`run_streaming_with`].)
pub(crate) fn run_distributed_with(config: DistConfig, a: &Csr, b: &Csr) -> Csr {
    let stream = config.stream.clone();
    match DistCoordinator::new(config).multiply(a, b) {
        Ok((c, _)) => c,
        Err(_) => run_streaming_with(stream, a, b),
    }
}

/// Runs the streaming pipeline under `config`, degrading instead of
/// dying: if the budgeted run fails on spill I/O (unwritable temp dir,
/// disk full), it retries with an unbounded budget. The retry performs
/// no file I/O at all — partials only touch disk when the budget forces
/// them out — and reproduces the **bit-identical** result, because the
/// merge plan and fold order depend only on the partials, not on what
/// spilled. A transient disk problem therefore costs one request its
/// memory bound (what any in-memory backend would have used anyway)
/// rather than taking down the serving process.
pub(crate) fn run_streaming_with(config: StreamConfig, a: &Csr, b: &Csr) -> Csr {
    let executor = StreamingExecutor::new(config.clone());
    match executor.multiply(a, b) {
        Ok((c, _)) => c,
        Err(_) => {
            let fallback = StreamConfig {
                budget: sparch_stream::MemoryBudget::unbounded(),
                ..config
            };
            let (c, _) = StreamingExecutor::new(fallback)
                .multiply(a, b)
                .expect("unbounded streaming run performs no spill I/O");
            c
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Backend {
    type Err = String;

    /// Parses both the `algo` function names and common short forms.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "gustavson" | "mkl" => Ok(Backend::Gustavson),
            "hash" | "hash_spgemm" => Ok(Backend::Hash),
            "heap" | "heap_spgemm" => Ok(Backend::Heap),
            "sort_merge" | "sort-merge" | "esc" => Ok(Backend::SortMerge),
            "inner" | "inner_product" => Ok(Backend::Inner),
            "outer" | "outer_product" => Ok(Backend::Outer),
            "stream" | "streaming" => Ok(Backend::Streaming),
            "dist" | "distributed" => Ok(Backend::Distributed),
            other => Err(format!(
                "unknown backend {other:?} (expected one of: gustavson, hash, heap, \
                 sort_merge, inner, outer, streaming, distributed)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_sparse::gen;

    #[test]
    fn names_round_trip_through_from_str() {
        for b in Backend::ALL {
            assert_eq!(b.name().parse::<Backend>().unwrap(), b);
        }
        assert!("spectral".parse::<Backend>().is_err());
    }

    #[test]
    fn serde_round_trip() {
        for b in Backend::ALL {
            let json = serde_json::to_string(&b).unwrap();
            let back: Backend = serde_json::from_str(&json).unwrap();
            assert_eq!(b, back);
        }
    }

    #[test]
    fn every_backend_multiplies() {
        let a = gen::uniform_random(20, 24, 90, 5);
        let b = gen::uniform_random(24, 16, 80, 6);
        let reference = Backend::Gustavson.run(&a, &b);
        for backend in Backend::ALL {
            assert!(
                backend.run(&a, &b).approx_eq(&reference, 1e-9),
                "{backend} disagrees"
            );
        }
    }

    #[test]
    fn gustavson_backend_is_bit_identical_to_the_plain_kernel_across_requests() {
        // The backend runs the scratch kernel behind a thread-local; the
        // second and later requests hit warm scratch and must still be
        // bit-identical to the one-shot kernel — varying shapes so the
        // SPA both grows and shrinks its live region between requests.
        for seed in 0..6u64 {
            let cols = [16, 64, 8, 96, 24, 40][seed as usize];
            let a = gen::uniform_random(20, 24, 90, seed);
            let b = gen::uniform_random(24, cols, 80, seed + 100);
            assert_eq!(
                Backend::Gustavson.run(&a, &b),
                sparch_sparse::algo::gustavson(&a, &b),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn streaming_spill_failure_degrades_to_in_core() {
        // A spill_dir nested under a regular file is unwritable, so the
        // zero-budget run fails on its very first spill; the fallback
        // must still produce the exact product (and not panic).
        let blocker =
            std::env::temp_dir().join(format!("sparch_spill_blocker_{}", std::process::id()));
        std::fs::write(&blocker, b"not a directory").unwrap();
        let a = gen::uniform_random(24, 24, 100, 3);
        let config = StreamConfig {
            budget: sparch_stream::MemoryBudget::from_bytes(0),
            spill_dir: Some(blocker.clone()),
            ..StreamConfig::pinned()
        };
        let c = run_streaming_with(config, &a, &a);
        assert!(c.approx_eq(&Backend::Gustavson.run(&a, &a), 1e-9));
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn distributed_backend_degrades_to_streaming_when_no_worker_exists() {
        // Point the coordinator at a worker binary that does not exist:
        // the fleet cannot spawn, and the step must fall back to the
        // in-process pipeline with the same (bit-identical) result.
        let a = gen::uniform_random(20, 24, 90, 5);
        let b = gen::uniform_random(24, 16, 80, 6);
        let config = sparch_dist::DistConfig {
            worker: Some(std::path::PathBuf::from("/nonexistent/sparch-dist-worker")),
            ..sparch_dist::DistConfig::pinned(2)
        };
        let c = run_distributed_with(config, &a, &b);
        assert_eq!(
            c,
            run_streaming_with(StreamConfig::pinned(), &a, &b),
            "degraded result must be bit-identical to the streaming pipeline"
        );
    }
}
