//! Streaming out-of-core SpGEMM for the SpArch reproduction.
//!
//! SpArch's whole premise is doing outer-product SpGEMM under a *bounded
//! on-chip budget*: condense the left matrix, produce partial-product
//! matrices, and merge them in an order (the Huffman scheduler, §II-C)
//! that minimizes how many times partials round-trip through DRAM. The
//! software backends in `sparch_sparse::algo` have the opposite shape —
//! they materialize both operands and the whole output in RAM, so
//! matrices larger than memory are simply out of scope.
//!
//! This crate brings the paper's partial-matrix discipline to the
//! software layer as a **staged dataflow pipeline** run by the calling
//! thread, which starts merge workers for large rounds and a spill
//! writer for a bounded budget, so disk ingest, the multiply-merge
//! rounds and spill write-back overlap instead of alternating (see the
//! [`pipeline`-module](crate) docs for the stage diagram). A
//! [`StreamingExecutor`]:
//!
//! 1. **reads** — streams *both* operands panel pair by panel
//!    pair: `A`'s column panels and `B`'s matching row panels
//!    (`A · B = Σ_p A[:, p] · B[p, :]`), from memory, or from disk via
//!    `sparch_sparse::mm::{PanelReader, RowPanelReader}` — one text
//!    scan per file at any panel count, buckets yielded in the plan's
//!    panel order — so neither operand is ever materialized whole. The
//!    panels are those of an [`ExecPlan`] built from `A`'s column
//!    histogram (uniform or nnz-balanced, [`PanelBalance`]) before the
//!    first one is read, and they must arrive in its production order
//!    ([`ExecPlan::production_order`]: each round's leaf pairs together,
//!    rounds in order); each pair is checked against it,
//! 2. **fused multiply-merge rounds** — folds the partials through a
//!    multi-round k-way merge whose round order is the [`ExecPlan`]'s:
//!    the **same** k-ary Huffman scheduler the cycle-level simulator
//!    uses (`sparch_core::sched::huffman_plan`, smallest first, weighted
//!    by per-panel `A` non-zeros). A round runs the moment its pairs
//!    and children are present — in place when it is small, otherwise on
//!    a merge worker while the calling thread keeps reading — and
//!    multiplies its leaf pairs row by row *inside* its fold, so a leaf's
//!    partial is merged as it is produced (SpArch §II-A) and never
//!    built, stored or spilled, and
//! 3. keeps the resident set of round outputs under an explicit
//!    [`MemoryBudget`]: outputs that do not fit spill to a temp
//!    directory in a compact binary format — raw sorted COO or the
//!    delta+varint codec ([`SpillCodec`], [`spill`]-module docs) — and
//!    *stream* back in for their merge round — a spilled partial is
//!    consumed through a small read buffer, never re-materialized.
//!
//! The merged result is **bit-identical to `algo::gustavson`** for
//! exactly-representable arithmetic and structurally identical always
//! (same `row_ptr`/`col_idx`, including the repository-wide
//! keep-structural-zeros convention), at every budget, panel count,
//! thread count, spill codec and balance mode — the merge order depends
//! only on the [`ExecPlan`] (built in one place, the [`plan`] module,
//! from `A`'s column histogram alone), never on stage timing or what
//! happened to spill.
//! `crates/stream/tests/` pins this across the `gen::arb` grid and
//! audits the budget with a counting allocator.
//!
//! # Example
//!
//! ```
//! use sparch_stream::{MemoryBudget, StreamConfig, StreamingExecutor};
//! use sparch_sparse::{algo, gen};
//!
//! let a = gen::rmat_graph500(128, 6, 1);
//! let exec = StreamingExecutor::new(StreamConfig {
//!     budget: MemoryBudget::from_kb(64), // force the spill path
//!     panels: 6,
//!     ..StreamConfig::default()
//! });
//! let (c, report) = exec.multiply(&a, &a).unwrap();
//! assert!(c.approx_eq(&algo::gustavson(&a, &a), 1e-12));
//! assert!(report.peak_live_bytes <= report.budget_bytes);
//! ```

pub mod config;
pub mod executor;
pub mod merge;
mod pipeline;
pub mod plan;
pub mod spill;
mod store;
#[doc(hidden)]
pub mod tempdir;

pub use config::{MemoryBudget, PanelBalance, SpillCodec, StreamConfig};
pub use executor::{StageReport, StreamReport, StreamingExecutor};
pub use plan::ExecPlan;

use std::fmt;

/// Errors from the streaming pipeline.
///
/// Shape violations can only arrive through the panel-ingestion entry
/// points ([`StreamingExecutor::multiply_streams`] and
/// [`StreamingExecutor::multiply_subtree`]); the in-memory entry point
/// panics on incompatible operands exactly like the
/// `sparch_sparse::algo` kernels do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Spill-file or ingestion I/O failed (disk full, unwritable temp
    /// dir, truncated spill).
    Io(String),
    /// Ingested panels disagree with the declared operand shapes or
    /// with the plan.
    Shape(String),
    /// An operand's panel stream failed while being read (e.g. a
    /// malformed `.mtx` discovered mid-pass); carries the source
    /// parser's message.
    Ingest(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(msg) => write!(f, "stream i/o error: {msg}"),
            StreamError::Shape(msg) => write!(f, "stream shape error: {msg}"),
            StreamError::Ingest(msg) => write!(f, "stream ingest error: {msg}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        StreamError::Io(e.to_string())
    }
}

impl From<sparch_sparse::SparseError> for StreamError {
    fn from(e: sparch_sparse::SparseError) -> Self {
        StreamError::Ingest(e.to_string())
    }
}
