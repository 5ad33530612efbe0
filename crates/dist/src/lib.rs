//! Distributed panel sharding for the SpArch reproduction.
//!
//! The streaming executor already decomposes `A · B` into the paper's
//! outer-product panels — `A`'s column panels times `B`'s matching row
//! panels — and folds the partials in the order of an
//! [`ExecPlan`](sparch_stream::ExecPlan), fixed by the split alone
//! before anything executes. That structure is what makes distribution
//! safe: this crate takes the *same* plan value from the same
//! constructor, ships its leaf panel pairs to **shard worker processes**
//! over Unix sockets, runs the same per-panel multiply pipeline on each
//! shard, and tree-reduces the shard partials through the plan's rounds
//! — so the result is **bit-identical to the single-node run at every
//! shard count**, under every fault the coordinator can recover from.
//!
//! ```text
//!  DistCoordinator                         sparch-dist-worker (× shards)
//!  ├─ ExecPlan::for_operand(A)     ──────▶ connect, Hello, heartbeat thread
//!  ├─ slice the plan's leaf pairs  jobs    loop {
//!  ├─ dispatch Multiply/Merge jobs ──────▶   Multiply → StreamingExecutor
//!  │    (idempotent, 1 per worker)           Merge    → merge_sources
//!  ├─ per-worker reader thread     ◀──────   Result / Heartbeat
//!  │    (read deadline = heartbeat loss)   }
//!  └─ retry / respawn / straggler dup      Shutdown → exit
//! ```
//!
//! **Fault model.** Every job is idempotent — a multiply is a pure
//! function of its panel pair, a merge of its ordered children — so the
//! coordinator recovers from any worker failure by re-running the job on
//! a fresh worker: process death (socket EOF mid-job), heartbeat loss
//! (read deadline with no traffic), and truncated/corrupt result frames
//! all follow the same requeue-and-respawn path, bounded by
//! `max_retries` per job. A straggler (job outstanding past
//! `straggler_after` with an idle worker available) is *duplicated*, not
//! killed: first result wins, and because jobs are deterministic both
//! copies carry identical bits, so the race is benign by construction.
//!
//! **Wire format.** Frames are length-prefixed ([`wire`]) and matrices
//! travel as SPM2 spill-codec blocks ([`sparch_stream::spill`]) decoded
//! by an untrusting validator — corruption surfaces as a typed
//! [`DistError`], never a panic or a hang.

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
    /// A job exhausted its retries or the run lost all workers.
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
