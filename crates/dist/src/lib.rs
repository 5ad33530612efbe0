//! Distributed panel sharding for the SpArch reproduction.
//!
//! The streaming executor already decomposes `A · B` into the paper's
//! outer-product panels — `A`'s column panels times `B`'s matching row
//! panels — and folds the partials in the order of an
//! [`ExecPlan`](sparch_stream::ExecPlan), fixed by the split alone
//! before anything executes. That structure is what makes distribution
//! safe: this crate takes the *same* plan value from the same
//! constructor, **cuts it into subtrees**, ships each subtree's leaf
//! panel pairs to a **shard worker process** over a Unix socket, and has
//! the worker run the whole subtree — leaf multiplies *and* merge rounds
//! — through the same pipeline. SpArch's first move is to merge partial
//! matrices where they are produced instead of round-tripping them
//! through DRAM; here the wire is the DRAM, so partials are merged on
//! the shard that made them and only the frontier crosses: inputs out
//! once, one partial per subtree back. The coordinator folds the few
//! rounds above the cut itself. Every round, wherever it runs, folds the
//! same children in the plan's order — so the result is **bit-identical
//! to the single-node run at every shard count**, under every fault the
//! coordinator can recover from.
//!
//! ```text
//!  DistCoordinator                          sparch-dist-worker (× shards)
//!  ├─ ExecPlan::for_operand(A)      ──────▶ connect, Hello, heartbeat thread
//!  ├─ plan.frontier(2 × fleet):     jobs    loop {
//!  │    subtrees below the cut  ─┐             Subtree{plan sizes, node, leaf pairs}
//!  │    rounds above the cut     │  ──────▶      → ExecPlan::from_panel_nnz
//!  ├─ dispatch heaviest first ◀──┘               → StreamingExecutor::multiply_subtree
//!  │    (idempotent, 1 per worker)                 (multiplies + rounds, budget, spill)
//!  ├─ per-worker reader thread      ◀──────    Result{partial, spans} | Failed{error}
//!  │    (decode; read deadline =               / Heartbeat
//!  │     heartbeat loss)                     }
//!  ├─ fold thread: merge_bands on each       Shutdown → exit
//!  │    round above the cut as its children land (inputs dropped after)
//!  └─ retry / respawn / straggler dup
//! ```
//!
//! **Fault model.** Every job is idempotent — a pure function of its
//! frame: the plan's panel sizes, the node to produce, and the leaf
//! pairs beneath it — so the coordinator recovers from any worker
//! failure by re-running the job on a fresh worker: process death
//! (socket EOF mid-job), heartbeat loss (read deadline with no traffic),
//! and truncated/corrupt result frames all follow the same
//! requeue-and-respawn path, bounded by `max_retries` per job. A job the
//! worker's pipeline *rejects* comes home as a `Failed` frame carrying
//! the error text: the healthy worker is kept, the job is requeued
//! under the same bound, and the [`DistError::Job`] that ends the run
//! names the real cause. A straggler (job outstanding past
//! `straggler_after` with an idle worker available) is *duplicated*, not
//! killed: first result wins, and because jobs are deterministic both
//! copies carry identical bits, so the race is benign by construction.
//! The rounds the coordinator folds itself need no recovery — they run
//! in this process, on results it already holds.
//!
//! **Wire format.** Frames are length-prefixed ([`wire`]) and matrices
//! travel as SPM3 spill-codec blocks ([`sparch_stream::spill`]), encoded
//! straight into the frame from borrowed matrices and decoded by an
//! untrusting validator — corruption surfaces as a typed [`DistError`],
//! never a panic or a hang.

pub mod coordinator;
pub mod wire;
pub mod worker;

pub use coordinator::{DistConfig, DistCoordinator, DistReport};
pub use wire::{read_message, write_message, Message};

use sparch_stream::StreamError;
use std::fmt;

/// Errors from the distributed layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DistError {
    /// A wire frame was malformed: bad magic, unknown kind, truncated
    /// mid-frame, oversized declared length, or trailing garbage.
    Frame(String),
    /// A matrix block inside a frame failed the spill codec's
    /// untrusting validation.
    Codec(StreamError),
    /// Socket or process I/O failed outside a frame boundary.
    Io(String),
    /// A worker process could not be spawned, found, or identified.
    Worker(String),
    /// A read deadline expired — the worker stopped heartbeating.
    Timeout(String),
    /// A job exhausted its retries; the message names the last cause.
    Job(String),
    /// Shard inputs disagree with the declared operand shapes.
    Shape(String),
}

impl fmt::Display for DistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistError::Frame(msg) => write!(f, "dist frame error: {msg}"),
            DistError::Codec(e) => write!(f, "dist codec error: {e}"),
            DistError::Io(msg) => write!(f, "dist i/o error: {msg}"),
            DistError::Worker(msg) => write!(f, "dist worker error: {msg}"),
            DistError::Timeout(msg) => write!(f, "dist timeout: {msg}"),
            DistError::Job(msg) => write!(f, "dist job error: {msg}"),
            DistError::Shape(msg) => write!(f, "dist shape error: {msg}"),
        }
    }
}

impl std::error::Error for DistError {}

impl From<StreamError> for DistError {
    fn from(e: StreamError) -> Self {
        DistError::Codec(e)
    }
}
