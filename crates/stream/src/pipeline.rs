//! The staged dataflow pipeline: reader → fused multiply-merge rounds →
//! spill.
//!
//! SpArch pipelines its multiply and merge stages so partial matrices are
//! merged on chip the moment they are produced (§II-A), and overlaps
//! fetch with compute. The software pipeline does both with three
//! concurrently running stages around a single orchestrator thread:
//!
//! ```text
//!  reader thread        orchestrator          merge workers
//!  (both operands, ──▶  (parks leaf pairs, ──▶ (ShardPool::scoped_
//!   panel pair by        store inserts,        workers; each round
//!   panel pair, in       round dispatch)  ◀──  multiplies its leaf pairs
//!   production order)        │        done     row by row inside its
//!                            │       events    k-way fold: merge_bands)
//!                            │ spill jobs
//!                            ▼
//!                      writer thread
//!                      (encode + write spill files)
//! ```
//!
//! The reader streams panel *pairs* — `A[:, p]` plus the matching
//! `B[p, :]` — so neither operand is ever materialized whole, builds
//! each pair's [`Leaf`] (the product's `B` table and row bounds) and hands
//! it to the orchestrator. A pair is not multiplied on its own: the
//! orchestrator parks it until the merge round that consumes it can run,
//! and that round computes the leaf's rows inside its fold, as it reads
//! them ([`PartialSource::from_leaf`]) — or, in a round of leaves alone,
//! sums every output row of its leaves in one accumulator, with no fold
//! at all. A one-leaf subtree runs its leaf as a one-source round of its
//! own. No leaf partial is ever built,
//! stored or spilled; only round outputs enter the budgeted
//! [`PartialStore`], so the budget and every spill cover round outputs
//! alone. Pairs arrive in production order
//! ([`ExecPlan::production_order`]: round 0's pairs, then round 1's, …;
//! the reader names the i-th pair the i-th of the subtree's
//! [`Subtree::leaves`]), so each round's pairs arrive together, and a
//! read-ahead window of `ways` pairs — permits the orchestrator returns
//! as it hands pairs to rounds — bounds how much of either operand is
//! resident.
//!
//! The orchestrator dispatches every round of the Huffman plan whose
//! pairs and stored children are all present onto the merge workers —
//! *independent rounds run concurrently*, up to the merge worker count.
//! Spill write-back is off the orchestrator too: the store hands
//! [`SpillJob`]s to a dedicated writer thread and marks the node
//! unavailable until the write lands. Disk ingest, spill writes and
//! rounds all overlap instead of alternating. A round that would
//! otherwise run alone — every pair is in, nothing else is in flight or
//! ready, its input is large — is cut into row bands folded on every
//! merge worker's core at once ([`merge_bands`]; a leaf can be cut at any
//! row, a round with spilled inputs at their spill files' row marks), so
//! the Huffman root no longer leaves all but one core idle.
//!
//! **Determinism.** This module decides nothing about the
//! decomposition: every run is handed its [`ExecPlan`] and the
//! [`Subtree`] of it to execute (the whole plan, or one shard's part of
//! the fleet's plan) before the first panel is read. The reader accepts
//! exactly that subtree's leaf panels, the store evicts by the plan's
//! consumption schedule from the first insert, and the orchestrator
//! dispatches a round the moment its inputs are present — while the
//! reader is still ingesting. The plan fixes every round's children up
//! front, so however rounds interleave across merge workers, each round
//! folds exactly the same inputs in the same child order, and a leaf's
//! rows are those of the Gustavson kernel whichever band computes them —
//! the fold order, and therefore every output bit, depends only on the
//! plan, never on which worker ran first or how many bands folded a
//! round. Timing can shift *which* partials spill, *when* a round is
//! dispatched and whether it runs alone (spill and overlap counters and
//! band counts vary at `threads > 1`), but never what any round
//! computes.

use crate::merge::{lone_round_bands, merge_bands, Leaf, MergeScratch, PartialSource};
use crate::plan::{ExecPlan, Subtree};
use crate::spill::{raw_size, SpillFile, SpillWriter};
use crate::store::{PartialStore, SpillJob, StoreStats};
use crate::{StreamConfig, StreamError};
use serde::{Deserialize, Serialize};
use sparch_exec::{Permits, ShardPool, SharedQueue};
use sparch_obs::{Counter, Recorder, ThreadRecorder};
use sparch_sparse::Csr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::{Arc, Mutex};

/// Per-stage busy time and overlap evidence for one pipelined multiply.
///
/// Busy seconds are summed per stage (merge across all of its workers),
/// so they can exceed the wall clock — that excess *is* the overlap. A
/// round's wall time is split between the multiply figures (the time its
/// leaves' rows took) and the merge figures (the rest of the round). The
/// counters are direct evidence of pipelining: they count events that
/// are impossible in a phase-alternating executor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// Time the reader stage spent pulling + validating panel pairs and
    /// building each leaf's product tables.
    pub reader_busy_seconds: f64,
    /// Time merge rounds spent multiplying their leaves' rows, summed
    /// over rounds: each leaf's row time, summed over the band threads
    /// that computed it, is divided by the round's band count, as the
    /// round's wall time is counted once. In a round of leaves alone every
    /// row is multiply time: the leaves' products are summed in one
    /// accumulator, with no fold of their own. Built from
    /// `multiply_kernel_seconds`, so the two are one measure.
    pub multiply_busy_seconds: f64,
    /// The same measure as `multiply_busy_seconds` — with the multiply
    /// inside the rounds there is no multiply-side wait left to tell them
    /// apart (the multiply twin of `merge_kernel_seconds`). Both fields are
    /// kept because the benchmark harness reads both.
    pub multiply_kernel_seconds: f64,
    /// Leaf-row chunks multiplied on already-warm merge-worker scratch
    /// (no accumulator growth). Each band scratch warms on its first leaf
    /// chunk and keeps its accumulator across rounds, so at most one
    /// chunk per merge worker and band is cold.
    pub multiply_scratch_reuses: u64,
    /// Time the merge stage spent on partials end to end: orchestrator
    /// bookkeeping (store inserts, round dispatch) plus
    /// `merge_kernel_seconds`. Spill encoding/writing is *not* included
    /// — it runs on the writer thread (`spill_write_seconds`).
    pub merge_busy_seconds: f64,
    /// Time inside the k-way merge kernel itself, summed over merge
    /// workers — each round's wall time less its multiply share, the
    /// portion that scales with `merge_triples`. A round folded in row
    /// bands counts its wall time once, not once per band thread.
    pub merge_kernel_seconds: f64,
    /// Wall time spent encoding + writing spill files (on the writer
    /// thread once the pipeline is running, so it overlaps every other
    /// stage).
    pub spill_write_seconds: f64,
    /// Triples consumed by merge rounds: the stored inputs' non-zeros
    /// plus the entries the leaves' rows produced, summed over rounds.
    /// `merge_triples / merge_kernel_seconds` is the merge kernel's
    /// throughput.
    pub merge_triples: u64,
    /// Panel reads that completed while ≥ 1 round was in flight — the
    /// reader ingesting while the multiply-merge stage holds unfinished
    /// work. Meaningful even on a single core: it counts *pipelining*
    /// (stages progressing with upstream work outstanding) rather than
    /// physical simultaneity. A phase-alternating executor scores 0 by
    /// construction.
    pub reads_overlapping_multiply: u64,
    /// Merge rounds dispatched while panel pairs were still to arrive —
    /// rounds multiplying and folding while ingest continues.
    pub rounds_overlapping_multiply: u64,
    /// Merge rounds dispatched while pairs were still to arrive *or* ≥ 1
    /// other round was in flight — rounds that ran concurrently with
    /// other pipeline work instead of strictly after it.
    pub rounds_merged_concurrently: u64,
}

/// What one pipeline run produced, before the executor folds it into its
/// public [`StreamReport`](crate::StreamReport).
pub(crate) struct PipelineOutcome {
    pub result: Csr,
    /// The plan the run executed and the part of it that ran: panel, leaf
    /// and round counts of the public report are read off them.
    pub plan: ExecPlan,
    pub scope: Subtree,
    pub partial_bytes_total: u64,
    pub largest_partial_bytes: u64,
    pub store_stats: StoreStats,
    pub stages: StageReport,
}

/// A merge round handed to a merge worker: the plan round index, its
/// inputs — leaves multiplied as they are read and already-taken
/// (budget-pinned or spill-streaming) stored children — and the row bands
/// to fold them in (see [`MergeStage::bands_for`]).
struct RoundJob {
    /// The plan round, or `None` for the one-source round that multiplies
    /// the leaf of a one-leaf subtree.
    round: Option<usize>,
    sources: Vec<PartialSource>,
    /// The round's leaves, whose tallies the worker reads once it is done.
    leaves: Vec<Arc<Leaf>>,
    /// Non-zeros of the stored children.
    stored_triples: u64,
    bands: usize,
}

/// Everything the stages funnel into the orchestrator. One unbounded
/// channel (std has no `select`) carries them all; each producer is
/// individually bounded — pairs by the reader's window, rounds by the
/// dispatch cap, spills by the writer's `sync_channel(1)` — so the queue
/// never grows past a few entries.
enum Event {
    /// The reader read leaf `leaf`'s panel pair (named by its position
    /// in production order).
    Pair { leaf: usize, product: Leaf },
    /// A merge worker finished plan round `round` (`None`: the lone
    /// leaf's round).
    RoundDone {
        round: Option<usize>,
        outcome: Result<Csr, StreamError>,
        /// The round's wall time less its multiply share.
        merge_seconds: f64,
        multiply_seconds: f64,
        triples: u64,
        /// Summed and largest [`Leaf::estimated_bytes`] of its leaves.
        leaf_bytes: u64,
        largest_leaf_bytes: u64,
        /// Leaf-row chunks multiplied on warm scratch.
        warm_chunks: u64,
    },
    /// The writer thread finished (or failed) the spill of node `id`;
    /// on success carries the spill file, its raw-equivalent bytes and
    /// the write time.
    SpillDone {
        id: usize,
        outcome: Result<(SpillFile, u64, f64), StreamError>,
    },
    /// The reader has stopped: every `Pair` event is already queued
    /// ahead of this.
    ReaderClosed,
    /// Every merge worker has exited. Arrives mid-run only if the stage
    /// died abnormally — normally the orchestrator outlives it.
    MergeStageClosed,
}

/// Announces the reader's end when dropped — on a panic too, so the
/// orchestrator never waits on a reader that is gone.
struct Closing(Sender<Event>);

impl Drop for Closing {
    fn drop(&mut self) {
        let _ = self.0.send(Event::ReaderClosed);
    }
}

/// What the reader thread learned, returned through its join handle.
struct ReaderOutcome {
    busy_seconds: f64,
    reads_overlapping_multiply: u64,
    error: Option<StreamError>,
}

/// The shared plumbing the orchestrator drives: owning `round_tx` means
/// dropping these links is what lets the merge workers exit.
struct OrchestratorLinks<'a> {
    round_tx: SyncSender<RoundJob>,
    /// Rounds in flight, which the reader samples.
    inflight: &'a AtomicUsize,
    /// The reader's read-ahead window.
    window: &'a Permits,
    abort: &'a AtomicBool,
}

/// Runs `subtree` of `plan` (the whole plan for a full multiply) over a
/// stream of leaves.
///
/// `pairs` must yield exactly the subtree's leaves in production order:
/// the i-th item is the pair of leaf `subtree.leaves[i]` — built from a
/// panel pair whose shapes [`validate_shapes`] passed (`A[:, range]` with
/// localized columns, `B[range, :]` with localized rows, and the `A`
/// panel's occupied rows, which the executor records while slicing or
/// with one row-pointer sweep). The iterator runs on the reader thread,
/// so the slicing and the leaves' product tables are built there. The
/// reader checks the count — a pair past the last leaf, or a stream
/// ending short, is a [`StreamError::Shape`]; iterator errors (e.g. a
/// disk reader failing mid-file or a panel of the wrong shape) abort the
/// run with that error.
/// Every stage runs its timing through an [`sparch_obs`] span lane: the
/// busy-seconds in [`StageReport`] are read off the very spans an enabled
/// recorder exports, so the report is a view of the trace (span taxonomy:
/// `read-panel` on the reader lane; `merge-round` on merge lanes, whose
/// `multiply_ns` argument is the round's multiply share and whose `round`
/// is `u64::MAX` on a lone leaf's round; `spill-write` on
/// the writer lane; `orchestrate` on the orchestrator lane; `claim-wait`
/// measures channel and window waits outside every busy figure). With a
/// disabled recorder the lanes allocate nothing.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run<I>(
    config: &StreamConfig,
    a_rows: usize,
    b_cols: usize,
    pairs: I,
    spill_dir: PathBuf,
    recorder: &Recorder,
    plan: ExecPlan,
    subtree: Subtree,
) -> Result<PipelineOutcome, StreamError>
where
    I: Iterator<Item = Result<Leaf, StreamError>> + Send,
{
    let merge_pool = ShardPool::with_override(config.threads);
    let mut store = PartialStore::new(
        config.budget,
        spill_dir,
        config.spill_codec,
        plan.consumers().to_vec(),
    );

    // Stage plumbing. Each event producer is bounded (see `Event`),
    // which is what keeps the pipeline's transient memory a constant
    // factor of the panel size.
    let (evt_tx, evt_rx) = channel::<Event>();
    // Round jobs never outnumber merge workers (the dispatch cap), so
    // this capacity means the orchestrator never blocks sending one.
    let (round_tx, round_rx) = sync_channel::<RoundJob>(merge_pool.threads());
    // Spill write-back: the orchestrator blocks only when a write is
    // already in progress *and* one is queued — the natural backpressure
    // that keeps at most two partial-sized buffers with the writer.
    let (spill_tx, spill_rx) = sync_channel::<SpillJob>(1);
    store.set_spill_sink(spill_tx);

    // The round receiver becomes a shared claim queue so any merge worker
    // can take the next round; the stage *closes* it once every worker
    // is done — even by panic.
    let round_rx = SharedQueue::new(round_rx);
    let inflight = AtomicUsize::new(0);
    // One permit per pair read and not yet handed to a round: a whole
    // round's pairs fit, which is all production order needs.
    let window = Permits::new(plan.ways());
    // Raised by the orchestrator on its first failure so the reader
    // stops ingesting promptly — a disk-full on the first spill must not
    // cost the whole remaining ingest.
    let abort = AtomicBool::new(false);
    let leaves = subtree.leaves.clone();

    std::thread::scope(|scope| {
        let refs = (&inflight, &abort, &window);
        let closing = Closing(evt_tx.clone());
        let reader_lane = recorder.thread("reader");
        let reader =
            scope.spawn(move || reader_stage(pairs, &leaves, &closing.0, refs, reader_lane));

        let merge_evt = evt_tx.clone();
        let round_rx_ref = &round_rx;
        let mergers = scope.spawn(move || {
            let evt_proto = Mutex::new(merge_evt);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                merge_pool.scoped_workers(|_| {
                    let tx = evt_proto.lock().expect("event sender poisoned").clone();
                    let lane = recorder.thread("merge");
                    merge_worker(round_rx_ref, &tx, a_rows, b_cols, lane);
                });
            }));
            round_rx_ref.close();
            let _ = evt_proto
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .send(Event::MergeStageClosed);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });

        let writer_evt = evt_tx.clone();
        let writer_lane = recorder.thread("spill-writer");
        let spill_counters = SpillCounters {
            files: recorder.counter("stream.spill_files_written"),
            bytes: recorder.counter("stream.spill_bytes_written"),
            raw_bytes: recorder.counter("stream.spill_bytes_raw_equivalent"),
        };
        let writer =
            scope.spawn(move || spill_writer(spill_rx, writer_evt, writer_lane, spill_counters));

        // The orchestrator holds only the receiver: if every stage dies,
        // the disconnect (rather than a deadlock) ends the loop.
        drop(evt_tx);

        let mut merge = MergeStage {
            store,
            a_rows,
            b_cols,
            max_rounds_inflight: merge_pool.threads().max(1),
            produced: vec![false; plan.num_nodes()],
            dispatched: vec![false; plan.num_rounds()],
            parked: (0..plan.num_leaves()).map(|_| None).collect(),
            arrived: 0,
            plan,
            scope: subtree,
            rounds_inflight: 0,
            reader_closed: false,
            merge_closed: false,
            result: None,
            leaf_bytes: (0, 0),
            stages: StageReport::default(),
            failure: None,
            lane: recorder.thread("orchestrator"),
        };
        merge.run(
            &evt_rx,
            OrchestratorLinks {
                round_tx,
                inflight: &inflight,
                window: &window,
                abort: &abort,
            },
        );

        let reader = reader.join().expect("reader stage panicked");
        mergers.join().expect("merge worker panicked");
        writer.join().expect("spill writer panicked");
        merge.finish(reader)
    })
}

/// The reader stage: takes a permit of the `window`, pulls the next pair,
/// names it the next of `leaves` and hands it to the orchestrator,
/// sampling the rounds `inflight`. Stops early when the orchestrator
/// raises `abort` (its failure is the one reported).
fn reader_stage<I>(
    mut pairs: I,
    leaves: &[usize],
    evt_tx: &Sender<Event>,
    (inflight, abort, window): (&AtomicUsize, &AtomicBool, &Permits),
    mut lane: ThreadRecorder,
) -> ReaderOutcome
where
    I: Iterator<Item = Result<Leaf, StreamError>> + Send,
{
    let (mut panels, mut busy, mut overlapping) = (0usize, 0f64, 0u64);
    let mut error = None;
    let mut aborted = false;
    loop {
        let wait = lane.begin("stream", "claim-wait");
        window.acquire();
        lane.end(wait);
        if abort.load(Ordering::Relaxed) {
            // The orchestrator failed; whatever it recorded is the root
            // cause. Skip the count check — stopping short is the point.
            aborted = true;
            break;
        }
        // One span per pull (read + validate + leaf build); its duration
        // *is* the report's reader busy time (the final, empty pull
        // included).
        let span = lane.begin("stream", "read-panel");
        let Some(item) = pairs.next() else {
            busy += lane.end(span);
            break;
        };
        busy += lane.end_with(span, &[("panel", panels as u64)]);
        if inflight.load(Ordering::Relaxed) > 0 {
            overlapping += 1;
        }
        let product = match item {
            Ok(read) => read,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        let Some(&leaf) = leaves.get(panels) else {
            let msg = "a panel arrived after the plan's last leaf";
            error = Some(StreamError::Shape(msg.into()));
            break;
        };
        panels += 1;
        if evt_tx.send(Event::Pair { leaf, product }).is_err() {
            break;
        }
    }
    if error.is_none() && !aborted && panels < leaves.len() {
        error = Some(StreamError::Shape(format!(
            "panel stream ended {} leaf panels short of the plan",
            leaves.len() - panels
        )));
    }
    ReaderOutcome {
        busy_seconds: busy,
        reads_overlapping_multiply: overlapping,
        error,
    }
}

/// Shape validation for one incoming panel pair over `range`.
pub(crate) fn validate_shapes(
    range: &Range<usize>,
    a: &Csr,
    b: &Csr,
    a_rows: usize,
    b_cols: usize,
) -> Result<(), StreamError> {
    if a.rows() != a_rows || a.cols() != range.len() {
        return Err(StreamError::Shape(format!(
            "A panel {range:?} has shape {}x{}, expected {a_rows}x{}",
            a.rows(),
            a.cols(),
            range.len()
        )));
    }
    if b.rows() != range.len() || b.cols() != b_cols {
        return Err(StreamError::Shape(format!(
            "B panel {range:?} has shape {}x{}, expected {}x{b_cols}",
            b.rows(),
            b.cols(),
            range.len()
        )));
    }
    Ok(())
}

/// One merge worker: pulls round jobs until the orchestrator closes the
/// channel, runs the k-way kernel — which multiplies the round's leaves
/// as it folds them — reusing its scratch across rounds, in the job's row
/// bands, and reports the result. A banded round's `merge-round` span
/// covers its wall time once, however many threads its bands ran on, and
/// carries the round's multiply share as `multiply_ns`.
fn merge_worker(
    round_rx: &SharedQueue<RoundJob>,
    evt_tx: &Sender<Event>,
    a_rows: usize,
    b_cols: usize,
    mut lane: ThreadRecorder,
) {
    let mut scratch = MergeScratch::new();
    loop {
        let wait = lane.begin("stream", "claim-wait");
        let job = round_rx.claim();
        lane.end(wait);
        let Some(job) = job else { break };
        let warm = scratch.multiply_reuses();
        let span = lane.begin("stream", "merge-round");
        let outcome = merge_bands(a_rows, b_cols, job.sources, &mut scratch, job.bands);
        // The span records the bands the kernel ran with (a failed round
        // counts as one); the leaves' row time, summed over those bands'
        // threads, counts once per band, as the wall time does.
        let bands = outcome.as_ref().map_or(1, |&(_, bands)| bands) as u64;
        let leaves = &job.leaves;
        let multiply_ns = leaves.iter().map(|l| l.tally().1).sum::<u64>() / bands;
        let entries: u64 = leaves.iter().map(|l| l.tally().0 as u64).sum();
        let triples = job.stored_triples + entries;
        let args = [
            ("round", job.round.map_or(u64::MAX, |r| r as u64)),
            ("triples", triples),
            ("bands", bands),
            ("leaves", leaves.len() as u64),
            ("multiply_ns", multiply_ns),
        ];
        let seconds = lane.end_with(span, &args);
        let multiply_seconds = multiply_ns as f64 * 1e-9;
        let bytes = leaves.iter().map(|l| l.estimated_bytes());
        if evt_tx
            .send(Event::RoundDone {
                round: job.round,
                outcome: outcome.map(|(merged, _)| merged),
                merge_seconds: seconds - multiply_seconds,
                multiply_seconds,
                triples,
                leaf_bytes: bytes.clone().sum(),
                largest_leaf_bytes: bytes.max().unwrap_or(0),
                warm_chunks: scratch.multiply_reuses() - warm,
            })
            .is_err()
        {
            break;
        }
    }
}

/// The spill writer: encodes and writes each handed-off partial through
/// one chunk buffer kept for the whole run, then reports the outcome
/// (never blocking — the event channel is unbounded), so the
/// orchestrator keeps scheduling while spills land.
fn spill_writer(
    spill_rx: Receiver<SpillJob>,
    evt_tx: Sender<Event>,
    mut lane: ThreadRecorder,
    counters: SpillCounters,
) {
    let mut writer = SpillWriter::default();
    while let Ok(SpillJob {
        id,
        path,
        csr,
        codec,
    }) = spill_rx.recv()
    {
        let raw = raw_size(&csr);
        let span = lane.begin("stream", "spill-write");
        let outcome = writer.write(&path, &csr, codec);
        let seconds = lane.end_with(
            span,
            &[
                ("node", id as u64),
                ("bytes", outcome.as_ref().map_or(0, |f| f.bytes)),
            ],
        );
        if let Ok(file) = &outcome {
            counters.files.incr();
            counters.bytes.add(file.bytes);
            counters.raw_bytes.add(raw);
        }
        let outcome = outcome.map(|file| (file, raw, seconds));
        // The partial's only copy dies here, before the completion is
        // announced — the store already stopped counting its bytes.
        drop(csr);
        if evt_tx.send(Event::SpillDone { id, outcome }).is_err() {
            break;
        }
    }
}

/// Spill-traffic counters the writer thread feeds (no-ops when tracing
/// is off; mirrored in `StreamReport`'s spill fields).
struct SpillCounters {
    files: Counter,
    bytes: Counter,
    raw_bytes: Counter,
}

/// The orchestrator: owns the budgeted store, the parked leaf pairs and
/// the [`ExecPlan`], and dispatches every merge round in scope whose
/// inputs are all present onto the merge workers — several at once when
/// the plan allows it.
struct MergeStage {
    store: PartialStore,
    a_rows: usize,
    b_cols: usize,
    /// Dispatch cap: rounds in flight never exceed the merge worker
    /// count (also the round channel's capacity, so sends never block).
    max_rounds_inflight: usize,
    /// The plan and the part of it this run executes.
    plan: ExecPlan,
    scope: Subtree,
    /// Per node id: the leaf's pair arrived / the round finished.
    produced: Vec<bool>,
    /// Per round: handed to a merge worker (in flight or done).
    dispatched: Vec<bool>,
    /// Per leaf: its pair, parked until its round is dispatched.
    parked: Vec<Option<Leaf>>,
    /// Pairs arrived so far.
    arrived: usize,
    rounds_inflight: usize,
    reader_closed: bool,
    merge_closed: bool,
    result: Option<Csr>,
    /// Summed and largest footprint of the leaves multiplied so far.
    leaf_bytes: (u64, u64),
    /// The report's figures as they accumulate; `merge_busy_seconds`
    /// holds the orchestrator's bookkeeping alone until [`Self::finish`].
    stages: StageReport,
    failure: Option<StreamError>,
    /// Span lane for orchestrator bookkeeping (`orchestrate` spans); the
    /// sum of those spans plus the merge workers' `merge-round` spans,
    /// less their multiply share, is exactly `merge_busy_seconds`.
    lane: ThreadRecorder,
}

impl MergeStage {
    /// Consumes stage events until the run is complete, interleaving
    /// pair parking, store inserts and round dispatches. On failure it
    /// raises `abort` — and wakes a reader waiting on its window — so the
    /// reader stops ingesting, then keeps draining so the other stages
    /// can always finish — no early return, no deadlock.
    fn run(&mut self, evt_rx: &Receiver<Event>, links: OrchestratorLinks<'_>) {
        while !self.finished() {
            let Ok(event) = evt_rx.recv() else {
                // Every producer died without announcing itself — a bug,
                // but one that must surface as an error, not a hang.
                if self.failure.is_none() {
                    self.failure =
                        Some(StreamError::Io("pipeline stages disconnected early".into()));
                }
                break;
            };
            self.handle(event, &links);
            if self.failure.is_some() && !links.abort.swap(true, Ordering::Relaxed) {
                links.window.release();
            }
        }
        // Disconnect the merge workers (round_tx drops with `links`) and
        // the writer: both stages exit once their queues drain.
        self.store.remove_spill_sink();
    }

    fn handle(&mut self, event: Event, links: &OrchestratorLinks<'_>) {
        match event {
            Event::Pair { leaf, product } => {
                self.arrived += 1;
                if self.failure.is_some() {
                    return;
                }
                let span = self.lane.begin("stream", "orchestrate");
                self.produced[leaf] = true;
                self.parked[leaf] = Some(product);
                self.dispatch_rounds(links);
                self.stages.merge_busy_seconds += self.lane.end(span);
            }
            Event::RoundDone {
                round,
                outcome,
                merge_seconds,
                multiply_seconds,
                triples,
                leaf_bytes,
                largest_leaf_bytes,
                warm_chunks,
            } => {
                self.rounds_inflight -= 1;
                links.inflight.fetch_sub(1, Ordering::Relaxed);
                let stages = &mut self.stages;
                stages.merge_kernel_seconds += merge_seconds;
                stages.multiply_kernel_seconds += multiply_seconds;
                stages.merge_triples += triples;
                stages.multiply_scratch_reuses += warm_chunks;
                let (total, largest) = self.leaf_bytes;
                self.leaf_bytes = (total + leaf_bytes, largest.max(largest_leaf_bytes));
                match outcome {
                    Ok(merged) if self.failure.is_none() => {
                        let span = self.lane.begin("stream", "orchestrate");
                        let output = match round {
                            Some(round) => {
                                for id in self.plan.round_children(round) {
                                    self.store.release(id);
                                }
                                self.plan.round_output(round)
                            }
                            None => self.scope.root.expect("a lone leaf's round"),
                        };
                        self.produced[output] = true;
                        if self.scope.root == Some(output) {
                            self.result = Some(merged);
                        } else if let Err(e) = self.store.insert(output, merged) {
                            self.failure = Some(e);
                        }
                        if self.failure.is_none() {
                            self.dispatch_rounds(links);
                        }
                        self.stages.merge_busy_seconds += self.lane.end(span);
                    }
                    // Failure already recorded — the round only needed
                    // accounting so the drain can terminate.
                    Ok(_) => {}
                    Err(e) => {
                        if self.failure.is_none() {
                            self.failure = Some(e);
                        }
                    }
                }
            }
            Event::SpillDone { id, outcome } => {
                match self.store.complete_spill(id, outcome) {
                    Err(e) => {
                        if self.failure.is_none() {
                            self.failure = Some(e);
                        }
                    }
                    Ok(()) if self.failure.is_none() => {
                        // A node just became available — rounds gated on
                        // its write-back may be dispatchable now.
                        let span = self.lane.begin("stream", "orchestrate");
                        self.dispatch_rounds(links);
                        self.stages.merge_busy_seconds += self.lane.end(span);
                    }
                    Ok(()) => {}
                }
            }
            Event::ReaderClosed => {
                self.reader_closed = true;
                // Every pair the reader will send is queued ahead of this
                // event. A short stream is the reader's own error, which
                // `finish` reports first.
                if self.failure.is_none() && self.arrived < self.scope.leaves.len() {
                    self.failure = Some(StreamError::Io(
                        "reader stopped before every panel pair arrived".into(),
                    ));
                }
            }
            Event::MergeStageClosed => {
                // Normally sent only after the orchestrator drops the
                // round channel — seeing it mid-run means the stage died
                // with rounds unaccounted for.
                self.merge_closed = true;
                if self.rounds_inflight > 0 && self.failure.is_none() {
                    self.failure = Some(StreamError::Io("merge worker stage ended early".into()));
                }
            }
        }
    }

    /// The run is complete when no more events can change the outcome:
    /// the reader has closed, nothing is in flight, and (absent a
    /// failure) the subtree's root is in.
    fn finished(&self) -> bool {
        if !self.reader_closed || self.store.spills_in_flight() > 0 {
            return false;
        }
        if self.failure.is_some() {
            return self.rounds_inflight == 0 || self.merge_closed;
        }
        (self.scope.root.is_none() || self.result.is_some()) && self.rounds_inflight == 0
    }

    /// Dispatches every pending round in scope whose inputs are all
    /// present, lowest round id first, until the in-flight cap is
    /// reached, and returns the window permits of the pairs it hands
    /// over. Round children always reference earlier rounds, so one
    /// ascending scan per call suffices; later events re-scan as inputs
    /// land. A one-leaf subtree has no plan round: its leaf runs as a
    /// one-source round of its own, banded like any round that runs
    /// alone.
    fn dispatch_rounds(&mut self, links: &OrchestratorLinks<'_>) {
        let lone = self.scope.root.filter(|_| self.scope.rounds.is_empty());
        for step in 0..self.scope.rounds.len().max(usize::from(lone.is_some())) {
            if self.failure.is_some() || self.rounds_inflight >= self.max_rounds_inflight {
                return;
            }
            let round = self.scope.rounds.get(step).copied();
            let children: Vec<usize> = match (round, lone) {
                (Some(r), _) if self.dispatchable(r) => self.plan.round_children(r).collect(),
                (None, Some(leaf)) if self.parked[leaf].is_some() => vec![leaf],
                _ => continue,
            };
            let (mut sources, mut leaves, mut stored_triples) = (Vec::new(), Vec::new(), 0);
            for id in children {
                if let Some(leaf) = self.parked.get_mut(id).and_then(Option::take) {
                    let leaf = Arc::new(leaf);
                    sources.push(PartialSource::from_leaf(Arc::clone(&leaf)));
                    leaves.push(leaf);
                    continue;
                }
                match self.store.take(id) {
                    Ok(source) => {
                        stored_triples += source.remaining_nnz() as u64;
                        sources.push(source);
                    }
                    Err(e) => {
                        self.failure = Some(e);
                        return;
                    }
                }
            }
            leaves.iter().for_each(|_| links.window.release());
            let bands = self.bands_for(round, &sources);
            let job = RoundJob {
                round,
                sources,
                leaves,
                stored_triples,
                bands,
            };
            if links.round_tx.send(job).is_err() {
                self.failure = Some(StreamError::Io("merge worker stage is gone".into()));
                return;
            }
            let ingesting = self.arrived < self.scope.leaves.len();
            self.stages.rounds_overlapping_multiply += u64::from(ingesting);
            let concurrent = ingesting || self.rounds_inflight > 0;
            self.stages.rounds_merged_concurrently += u64::from(concurrent);
            if let Some(r) = round {
                self.dispatched[r] = true;
            }
            self.rounds_inflight += 1;
            links.inflight.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether round `r` is pending and its inputs are all present: its
    /// leaves' pairs arrived, its other children stored and available
    /// (`available` is false while a node's spill write-back is still on
    /// the writer thread).
    fn dispatchable(&self, r: usize) -> bool {
        let present = |id: usize| {
            self.produced[id] && (id < self.plan.num_leaves() || self.store.available(id))
        };
        !self.dispatched[r] && self.plan.round_ready(r, present)
    }

    /// The row bands to ask for `round` over `sources`: one per merge
    /// worker, as far as the round fills them ([`lone_round_bands`]),
    /// when the round would otherwise run alone — every pair has
    /// arrived, and no other round is in flight or dispatchable; one
    /// otherwise. [`merge_bands`] decides what it can cut (a round with a
    /// spilled source only at its files' row marks). Bands never change
    /// the bits, only how many cores fold the rows.
    fn bands_for(&self, round: Option<usize>, sources: &[PartialSource]) -> usize {
        let alone = self.rounds_inflight == 0
            && self.arrived == self.scope.leaves.len()
            && !self
                .scope
                .rounds
                .iter()
                .any(|&o| Some(o) != round && self.dispatchable(o));
        if !alone {
            return 1;
        }
        let triples = sources.iter().map(PartialSource::remaining_nnz).sum();
        lone_round_bands(triples, self.max_rounds_inflight)
    }

    /// Resolves the run: reader errors win (they are the root cause),
    /// then orchestrator failures, then the result — the zero matrix when
    /// every panel was pruned — at its own size: a round's output is
    /// pre-sized to its inputs' bound, so its arrays are shrunk to the
    /// entries it holds before it is handed back.
    fn finish(mut self, reader: ReaderOutcome) -> Result<PipelineOutcome, StreamError> {
        if let Some(e) = reader.error.or(self.failure.take()) {
            self.store.cleanup();
            return Err(e);
        }
        let zero = || Csr::zero(self.a_rows, self.b_cols);
        let mut result = self.result.take().unwrap_or_else(zero);
        result.shrink_to_fit();
        let store_stats = self.store.stats().clone();
        self.store.cleanup();
        let s = self.stages;
        Ok(PipelineOutcome {
            result,
            plan: self.plan,
            scope: self.scope,
            partial_bytes_total: self.leaf_bytes.0,
            largest_partial_bytes: self.leaf_bytes.1,
            stages: StageReport {
                reader_busy_seconds: reader.busy_seconds,
                multiply_busy_seconds: s.multiply_kernel_seconds,
                merge_busy_seconds: s.merge_busy_seconds + s.merge_kernel_seconds,
                spill_write_seconds: store_stats.spill_write_seconds,
                reads_overlapping_multiply: reader.reads_overlapping_multiply,
                ..s
            },
            store_stats,
        })
    }
}
