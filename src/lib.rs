//! # SpArch — Efficient Architecture for Sparse Matrix Multiplication
//!
//! A full-system Rust reproduction of *SpArch: Efficient Architecture for
//! Sparse Matrix Multiplication* (Zhang, Wang, Han, Dally — HPCA 2020).
//!
//! This facade crate re-exports the public API of the workspace:
//!
//! * [`sparse`] — matrix formats, generators, software SpGEMM algorithms,
//! * [`mem`] — DRAM/HBM, FIFO/buffer and energy/area cost models,
//! * [`engine`] — comparator-array merger, merge tree, zero eliminator,
//! * [`core`] — the SpArch accelerator simulator (condensing, Huffman
//!   scheduler, row prefetcher, full pipeline), staged plan → prefetch →
//!   execute → writeback with reusable [`core::SimScratch`] buffers,
//! * [`exec`] — the parallel sharded execution layer ([`exec::ShardPool`]
//!   with its submission-ordered [`exec::ShardPool::scoped_map`]) for
//!   multi-core sweeps,
//! * [`obs`] — unified tracing and metrics ([`obs::Recorder`] span lanes
//!   feeding Chrome-trace export, counters/gauges/histograms; the report
//!   structs across stream/dist/serve derive from the same recorder),
//! * [`stream`] — the streaming out-of-core SpGEMM pipeline
//!   ([`stream::StreamingExecutor`]: panel-partitioned multiply,
//!   memory-budgeted Huffman-ordered partial merge, disk spill),
//! * [`dist`] — distributed panel sharding ([`dist::DistCoordinator`]:
//!   panel jobs shipped to shard worker processes over Unix sockets,
//!   heartbeat liveness, retry and straggler re-dispatch, bit-identical
//!   to the single-node streaming pipeline),
//! * [`serve`] — the request-serving layer ([`serve::SpgemmService`],
//!   footprint-routed backend dispatch, operand caching, batch reports),
//! * [`tune`] — knob planning ([`tune::KnobPlanner`] derives a full
//!   stream configuration from operand structure and a memory budget),
//! * [`baselines`] — the OuterSPACE model and software baseline proxies.
//!
//! # Quickstart
//!
//! ```
//! use sparch::prelude::*;
//!
//! // A small power-law matrix, squared on the accelerator.
//! let a = sparch::sparse::gen::rmat_graph500(256, 8, 42);
//! let report = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
//!
//! // The simulated result is exact: compare with a software reference.
//! let reference = sparch::sparse::algo::gustavson(&a, &a);
//! assert!(report.result().approx_eq(&reference, 1e-9));
//! println!("{} GFLOPS, {} MB DRAM traffic",
//!          report.perf.gflops, report.traffic.total_bytes() as f64 / 1e6);
//! ```

pub use sparch_baselines as baselines;
pub use sparch_core as core;
pub use sparch_dist as dist;
pub use sparch_engine as engine;
pub use sparch_exec as exec;
pub use sparch_mem as mem;
pub use sparch_obs as obs;
pub use sparch_serve as serve;
pub use sparch_sparse as sparse;
pub use sparch_stream as stream;
pub use sparch_tune as tune;

/// Commonly used items, importable in one line.
pub mod prelude {
    pub use sparch_baselines::outerspace::OuterSpaceModel;
    pub use sparch_core::{
        PrefetchConfig, SchedulerKind, SimReport, SimScratch, SpArchConfig, SpArchSim,
    };
    pub use sparch_dist::{DistConfig, DistCoordinator, DistReport};
    pub use sparch_engine::{Clock, Clocked, MergeItem, MergeTree, MergeTreeConfig};
    pub use sparch_exec::ShardPool;
    pub use sparch_obs::{MetricsSnapshot, Recorder, Trace};
    pub use sparch_serve::{
        Backend, Batch, BatchReport, Calibration, DispatchPolicy, Request, ServiceConfig,
        SpgemmService,
    };
    pub use sparch_sparse::{Coo, Csc, Csr, CsrBuilder, Dense, Index, Triple, Value};
    pub use sparch_stream::{
        MemoryBudget, PanelBalance, SpillCodec, StageReport, StreamConfig, StreamReport,
        StreamingExecutor,
    };
    pub use sparch_tune::{BRows, KnobPlanner, OperandStats, Plan};
}
