//! The staged dataflow pipeline: reader → multiply → merge → spill.
//!
//! SpArch overlaps fetch with compute — the row prefetcher and the
//! condensed left matrix exist so the comparator array never stalls on
//! DRAM. The software pipeline mirrors that discipline with four
//! concurrently running stages around a single orchestrator thread:
//!
//! ```text
//!  reader thread       multiply workers        merge workers
//!  (both operands, ──▶ (ShardPool::scoped_ ──┐ (ShardPool::scoped_
//!   panel by panel) ch. workers, gustavson   │  workers, k-way
//!                       per panel pair)      │  merge_bands per
//!                                            │  plan round)
//!                                            ▼        ▲ round │ done
//!                                     orchestrator ───┘ jobs  │ events
//!                                     (store inserts,         │
//!                                      round dispatch) ◀──────┘
//!                                            │ spill jobs
//!                                            ▼
//!                                      writer thread
//!                                      (encode + write spill files)
//! ```
//!
//! The reader streams panel *pairs* — `A[:, p]` plus the matching
//! `B[p, :]` — so neither operand is ever materialized whole; the job
//! channel bound (`threads + 1` pairs) caps how much of either operand
//! is resident. Multiply workers pull pairs and publish partials into
//! the orchestrator's event queue, gated by a [`Permits`] counter so at
//! most `threads` un-inserted partials exist at once. The orchestrator
//! inserts each arrival into the budgeted [`PartialStore`] and
//! dispatches every merge round of the Huffman plan whose children are
//! all available onto the merge workers — *independent rounds run
//! concurrently*, up to the merge worker count. Spill write-back is
//! off the orchestrator too: the store hands [`SpillJob`]s to a
//! dedicated writer thread and marks the node unavailable until the
//! write lands. Disk ingest, multiplies, spill writes and merge rounds
//! all overlap instead of alternating. A round that would otherwise run
//! alone — the last leaves are in, nothing else is in flight or ready,
//! its input is large — is cut into row bands folded on every merge
//! worker's core at once ([`merge_bands`]; a round with spilled inputs is
//! cut at their spill files' row marks), so the Huffman root no longer
//! leaves all but one core idle.
//!
//! **Determinism.** This module decides nothing about the
//! decomposition: every run is handed its [`ExecPlan`] and the
//! [`Subtree`] of it to execute (the whole plan, or one shard's part of
//! the fleet's plan) before the first panel is read. The reader expects
//! exactly that subtree's leaf panels, the store evicts by the plan's
//! consumption schedule from the first insert, and the orchestrator
//! dispatches a round the moment its children are present — while the
//! reader is still ingesting. The plan fixes every round's children up
//! front, so however rounds interleave across merge workers, each round
//! folds exactly the same inputs in the same child order — the fold
//! order, and therefore every output bit, depends only on the plan,
//! never on which worker ran first or how many bands folded a round.
//! Timing can shift *which* partials spill, *when* a round is dispatched
//! and whether it runs alone (spill and overlap counters and band counts
//! vary at `threads > 1`), but never what any round computes.

use crate::merge::{lone_round_bands, merge_bands, MergeScratch, PartialSource};
use crate::plan::{ExecPlan, Subtree};
use crate::spill::{raw_size, SpillFile, SpillWriter};
use crate::store::{PartialStore, SpillJob, StoreStats};
use crate::{StreamConfig, StreamError};
use serde::{Deserialize, Serialize};
use sparch_exec::{Permits, ShardPool, SharedQueue};
use sparch_obs::{Counter, Recorder, ThreadRecorder};
use sparch_sparse::{algo, Csr, Index};
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Mutex;
use std::vec::IntoIter;

/// One panel pair flowing from the reader into the multiply stage:
/// `A[:, range]` with localized columns and `B[range, :]` with localized
/// rows, plus the `A` panel's occupied-row index — the condensed view the
/// multiply kernel iterates instead of scanning all rows. The executor
/// records the index while slicing (or with one row-pointer sweep when
/// panels arrive pre-sliced), so the multiply workers never pay for it.
pub(crate) struct PanelPair {
    pub range: Range<usize>,
    pub a: Csr,
    pub b: Csr,
    /// Rows of `a` with at least one entry, strictly increasing.
    pub live: Vec<Index>,
}

/// Per-stage busy time and overlap evidence for one pipelined multiply.
///
/// Busy seconds are summed per stage (multiply and merge across all of
/// their workers), so they can exceed the wall clock — that excess *is*
/// the overlap. The counters are direct evidence of pipelining: they
/// count events that are impossible in a phase-alternating executor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// Time the reader stage spent pulling + validating panel pairs.
    pub reader_busy_seconds: f64,
    /// Total worker time handling multiply jobs end to end (summed over
    /// workers): the SpGEMM kernel plus the publish-gate wait for the
    /// orchestrator to consume earlier partials.
    pub multiply_busy_seconds: f64,
    /// Time inside the panel SpGEMM kernel itself, summed over multiply
    /// workers — the portion of `multiply_busy_seconds` that scales with
    /// the flop count (the multiply twin of `merge_kernel_seconds`).
    pub multiply_kernel_seconds: f64,
    /// Multiply jobs served entirely from already-warm worker scratch
    /// (no SPA allocation or growth). With `p` panels on `w` workers,
    /// at most `w` jobs are cold, so this is at least `p - w`.
    pub multiply_scratch_reuses: u64,
    /// Time the merge stage spent on partials end to end: orchestrator
    /// bookkeeping (store inserts, round dispatch) plus
    /// `merge_kernel_seconds`. Spill encoding/writing is *not* included
    /// — it runs on the writer thread (`spill_write_seconds`).
    pub merge_busy_seconds: f64,
    /// Time inside the k-way merge kernel itself, summed over merge
    /// workers — the portion of `merge_busy_seconds` that scales with
    /// `merge_triples`. A round folded in row bands counts its wall time
    /// once, not once per band thread.
    pub merge_kernel_seconds: f64,
    /// Wall time spent encoding + writing spill files (on the writer
    /// thread once the pipeline is running, so it overlaps every other
    /// stage).
    pub spill_write_seconds: f64,
    /// Triples consumed by merge rounds (summed input non-zeros across
    /// all rounds). `merge_triples / merge_kernel_seconds` is the merge
    /// kernel's throughput.
    pub merge_triples: u64,
    /// Panel reads that completed while ≥ 1 multiply was in flight —
    /// the reader ingesting while the compute stage holds unfinished
    /// work. "In flight" spans from the reader handing a pair to the
    /// multiply stage until the orchestrator consumes the partial, so
    /// the counter measures *pipelining* (stages progressing with
    /// upstream work outstanding) rather than physical simultaneity, and
    /// is meaningful even on a single core. A phase-alternating executor
    /// scores 0 by construction.
    pub reads_overlapping_multiply: u64,
    /// Merge rounds dispatched while ≥ 1 multiply was in flight (same
    /// definition) — the merge stage folding while the compute stage
    /// still holds work.
    pub rounds_overlapping_multiply: u64,
    /// Merge rounds dispatched while ≥ 1 multiply *or* ≥ 1 other merge
    /// round was in flight — rounds that ran concurrently with other
    /// pipeline work instead of strictly after it.
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

/// A multiply job: one panel pair tagged with its merge-plan leaf id.
struct MultiplyJob {
    leaf: usize,
    a: Csr,
    b: Csr,
    /// Occupied-row index of `a` (see [`PanelPair::live`]).
    live: Vec<Index>,
}

/// A merge round handed to a merge worker: the plan round index, its
/// already-taken (budget-pinned or spill-streaming) inputs, and the row
/// bands to fold them in (see [`MergeStage::bands_for`]).
struct RoundJob {
    round: usize,
    sources: Vec<PartialSource>,
    bands: usize,
}

/// Everything the producer stages funnel into the orchestrator. One
/// unbounded channel (std has no `select`) carries them all; each
/// producer kind is individually bounded — multiplies by the [`Permits`]
/// gate, rounds by the dispatch cap, spills by the writer's
/// `sync_channel(1)` — so the queue never grows past a few entries.
enum Event {
    /// A multiply worker finished leaf `leaf`.
    MultiplyDone {
        leaf: usize,
        partial: Csr,
        /// Whole-job worker time (kernel + publish-gate wait).
        seconds: f64,
        /// Time inside the SpGEMM kernel alone.
        kernel_seconds: f64,
        /// Whether the job ran entirely on already-warm worker scratch.
        warm: bool,
    },
    /// A merge worker finished plan round `round`.
    RoundDone {
        round: usize,
        outcome: Result<Csr, StreamError>,
        kernel_seconds: f64,
        triples: u64,
    },
    /// The writer thread finished (or failed) the spill of node `id`;
    /// on success carries the spill file, its raw-equivalent bytes and
    /// the write time.
    SpillDone {
        id: usize,
        outcome: Result<(SpillFile, u64, f64), StreamError>,
    },
    /// Every multiply worker has exited: all `MultiplyDone` events are
    /// already queued ahead of this.
    MultiplyStageClosed,
    /// Every merge worker has exited. Arrives mid-run only if the stage
    /// died abnormally — normally the orchestrator outlives it.
    MergeStageClosed,
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
    inflight: &'a AtomicUsize,
    gate: &'a Permits,
    abort: &'a AtomicBool,
}

/// Runs `subtree` of `plan` (the whole plan for a full multiply) over a
/// stream of panel pairs.
///
/// `pairs` must yield exactly the subtree's leaf panels, in leaf order,
/// each under its leaf's range; the reader checks the count and that
/// panel shapes agree with the ranges and `a_rows`/`b_cols`. Iterator
/// errors (e.g. a disk reader failing mid-file) abort the run with that
/// error.
/// Every stage runs its timing through an [`sparch_obs`] span lane: the
/// busy-seconds in [`StageReport`] are the `end()` return values of the
/// very spans an enabled recorder exports, so the report is a view of
/// the trace (span taxonomy: `read-panel` on the reader lane;
/// `multiply-job` wrapping `kernel` + `publish-wait` on each multiply
/// lane; `merge-round` on merge lanes; `spill-write` on the writer lane;
/// `orchestrate` on the orchestrator lane; `claim-wait` measures channel
/// waits outside every busy figure). With a disabled recorder the lanes
/// allocate nothing.
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
    I: Iterator<Item = Result<PanelPair, StreamError>> + Send,
{
    let leaves = subtree.leaves.clone().into_iter();
    let pool = ShardPool::with_override(config.threads);
    let merge_pool = ShardPool::new(config.merge_workers.unwrap_or(pool.threads()));
    let mut store = PartialStore::new(
        config.budget,
        spill_dir,
        config.spill_codec,
        plan.consumers().to_vec(),
    );

    // Stage plumbing. The job channel is bounded (at most `threads + 1`
    // pairs queued for multiply) and each event producer is bounded (see
    // `Event`), which is what keeps the pipeline's transient memory a
    // constant factor of the panel size.
    let (job_tx, job_rx) = sync_channel::<MultiplyJob>(pool.threads() + 1);
    let (evt_tx, evt_rx) = channel::<Event>();
    // Round jobs never outnumber merge workers (the dispatch cap), so
    // this capacity means the orchestrator never blocks sending one.
    let (round_tx, round_rx) = sync_channel::<RoundJob>(merge_pool.threads());
    // Spill write-back: the orchestrator blocks only when a write is
    // already in progress *and* one is queued — the natural backpressure
    // that keeps at most two partial-sized buffers with the writer.
    let (spill_tx, spill_rx) = sync_channel::<SpillJob>(1);
    store.set_spill_sink(spill_tx);

    // The job/round receivers become shared claim queues so any worker
    // in a stage can take the next job. Each stage *closes* its queue
    // once every worker is done — even by panic: the job-channel
    // disconnect is what unblocks a reader mid-send; without the
    // unconditional close a worker panic would wedge it instead of
    // propagating at join.
    let job_rx = SharedQueue::new(job_rx);
    let round_rx = SharedQueue::new(round_rx);
    // Jobs in the submitted-to-consumed window (reader sent the pair,
    // orchestrator has not yet received the partial); the overlap
    // counters sample this.
    let inflight = AtomicUsize::new(0);
    // Bounds un-consumed multiply results (the event channel itself is
    // unbounded): a worker takes a permit to publish, the orchestrator
    // returns it on consumption.
    let gate = Permits::new(pool.threads());
    // Raised by the orchestrator on its first failure so the reader
    // stops ingesting promptly — a disk-full on the first spill must not
    // cost the whole remaining ingest + multiply bill.
    let abort = AtomicBool::new(false);

    std::thread::scope(|scope| {
        let (inflight_ref, abort_ref, gate_ref) = (&inflight, &abort, &gate);
        let reader_lane = recorder.thread("reader");
        let reader = scope.spawn(move || {
            reader_stage(
                pairs,
                leaves,
                a_rows,
                b_cols,
                job_tx,
                inflight_ref,
                abort_ref,
                reader_lane,
            )
        });

        let multiply_evt = evt_tx.clone();
        let job_rx_ref = &job_rx;
        let workers = scope.spawn(move || {
            let evt_proto = Mutex::new(multiply_evt);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.scoped_workers(|_| {
                    let tx = evt_proto.lock().expect("event sender poisoned").clone();
                    let lane = recorder.thread("multiply");
                    multiply_worker(job_rx_ref, &tx, gate_ref, lane);
                });
            }));
            // Close the job channel and announce the stage end, panic or
            // not (see the channel setup above). The Closed event is what
            // tells the orchestrator no more partials can arrive.
            job_rx_ref.close();
            let _ = evt_proto
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .send(Event::MultiplyStageClosed);
            if let Err(panic) = outcome {
                std::panic::resume_unwind(panic);
            }
        });

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

        let mut merge = MergeStage::new(
            store,
            plan,
            subtree,
            a_rows,
            b_cols,
            merge_pool.threads(),
            recorder.thread("orchestrator"),
        );
        merge.run(
            &evt_rx,
            OrchestratorLinks {
                round_tx,
                inflight: &inflight,
                gate: &gate,
                abort: &abort,
            },
        );

        let reader = reader.join().expect("reader stage panicked");
        workers.join().expect("multiply worker panicked");
        mergers.join().expect("merge worker panicked");
        writer.join().expect("spill writer panicked");
        merge.finish(reader)
    })
}

/// The reader stage: pulls panel pairs, checks each against the next of
/// the subtree's `leaves` and the declared shapes, and feeds it to the
/// multiply stage. Stops early when the orchestrator raises `abort` (its
/// failure is the one reported).
#[allow(clippy::too_many_arguments)]
fn reader_stage<I>(
    mut pairs: I,
    mut leaves: IntoIter<usize>,
    a_rows: usize,
    b_cols: usize,
    job_tx: SyncSender<MultiplyJob>,
    inflight: &AtomicUsize,
    abort: &AtomicBool,
    mut lane: ThreadRecorder,
) -> ReaderOutcome
where
    I: Iterator<Item = Result<PanelPair, StreamError>> + Send,
{
    let mut panels = 0u64;
    let mut busy = 0f64;
    let mut overlapping = 0u64;
    let mut error = None;
    let mut aborted = false;
    loop {
        if abort.load(Ordering::Relaxed) {
            // The orchestrator failed; whatever it recorded is the root
            // cause. Skip the count check — stopping short is the point.
            aborted = true;
            break;
        }
        // One span per pull + validate; its duration *is* the report's
        // reader busy time (the final, empty pull included).
        let span = lane.begin("stream", "read-panel");
        let Some(item) = pairs.next() else {
            busy += lane.end(span);
            break;
        };
        let verdict = item.and_then(|pair| {
            let leaf = leaves.next().ok_or_else(|| {
                StreamError::Shape("a panel arrived after the plan's last leaf".into())
            })?;
            validate_shapes(&pair.range, &pair.a, &pair.b, a_rows, b_cols)?;
            Ok((pair, leaf))
        });
        busy += lane.end_with(span, &[("panel", panels)]);
        panels += 1;
        if inflight.load(Ordering::Relaxed) > 0 {
            overlapping += 1;
        }
        let (pair, leaf) = match verdict {
            Ok(admitted) => admitted,
            Err(e) => {
                error = Some(e);
                break;
            }
        };
        // Count the job in flight *before* handing it over: a fast
        // worker could otherwise finish it — and the orchestrator
        // decrement — before this thread reached the increment,
        // wrapping the counter below zero and fabricating overlap.
        inflight.fetch_add(1, Ordering::Relaxed);
        if job_tx
            .send(MultiplyJob {
                leaf,
                a: pair.a,
                b: pair.b,
                live: pair.live,
            })
            .is_err()
        {
            // Workers are gone (a failure is already being reported
            // downstream); the job never entered the pipeline.
            inflight.fetch_sub(1, Ordering::Relaxed);
            break;
        }
    }
    if error.is_none() && !aborted && leaves.len() > 0 {
        error = Some(StreamError::Shape(format!(
            "panel stream ended {} leaf panels short of the plan",
            leaves.len()
        )));
    }
    drop(job_tx);
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

/// One multiply worker: pulls jobs until the reader closes the channel,
/// multiplies, and publishes partials (with the time they took) into the
/// event queue, one permit per un-consumed result.
///
/// The worker owns one [`algo::MultiplyScratch`] for its whole lifetime
/// — the SPA arrays warm up on the first job and every later job of
/// comparable width runs allocation-free (the same per-worker reuse
/// discipline as [`merge_worker`]'s `MergeScratch`). Each job visits
/// only the occupied rows recorded at slicing time.
fn multiply_worker(
    job_rx: &SharedQueue<MultiplyJob>,
    evt_tx: &Sender<Event>,
    gate: &Permits,
    mut lane: ThreadRecorder,
) {
    let mut scratch = algo::MultiplyScratch::new();
    loop {
        let wait = lane.begin("stream", "claim-wait");
        let job = job_rx.claim();
        lane.end(wait);
        let Some(job) = job else { break };
        let reuses_before = scratch.reuses();
        // The whole-job span (kernel + publish-gate wait) is what the
        // report sums as multiply busy seconds; the nested spans split
        // the attribution.
        let job_span = lane.begin("stream", "multiply-job");
        let kernel_span = lane.begin("stream", "kernel");
        let partial = algo::gustavson_scratch_on_rows(&job.a, &job.b, &job.live, &mut scratch);
        let kernel_seconds = lane.end(kernel_span);
        let warm = scratch.reuses() > reuses_before;
        let gate_span = lane.begin("stream", "publish-wait");
        gate.acquire();
        lane.end(gate_span);
        let seconds = lane.end_with(
            job_span,
            &[("leaf", job.leaf as u64), ("nnz", partial.nnz() as u64)],
        );
        if evt_tx
            .send(Event::MultiplyDone {
                leaf: job.leaf,
                partial,
                seconds,
                kernel_seconds,
                warm,
            })
            .is_err()
        {
            gate.release();
            break;
        }
    }
}

/// One merge worker: pulls round jobs until the orchestrator closes the
/// channel, runs the k-way kernel (reusing its scratch lanes across
/// rounds) in the job's row bands, and reports the result. A banded
/// round's `merge-round` span covers its wall time once, however many
/// threads its bands ran on.
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
        let triples: u64 = job.sources.iter().map(|s| s.remaining_nnz() as u64).sum();
        let span = lane.begin("stream", "merge-round");
        let outcome = merge_bands(a_rows, b_cols, job.sources, &mut scratch, job.bands);
        // The span records the bands the kernel ran with (a failed round
        // counts as one).
        let bands = outcome.as_ref().map_or(1, |&(_, bands)| bands);
        let args = [
            ("round", job.round as u64),
            ("triples", triples),
            ("bands", bands as u64),
        ];
        let kernel_seconds = lane.end_with(span, &args);
        if evt_tx
            .send(Event::RoundDone {
                round: job.round,
                outcome: outcome.map(|(merged, _)| merged),
                kernel_seconds,
                triples,
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

/// The orchestrator: owns the budgeted store and the [`ExecPlan`], and
/// dispatches every merge round in scope whose children are all
/// available onto the merge workers — several at once when the plan
/// allows it.
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
    /// Per node id: the leaf's partial arrived / the round finished.
    produced: Vec<bool>,
    /// Per round: handed to a merge worker (in flight or done).
    dispatched: Vec<bool>,
    rounds_done: usize,
    rounds_inflight: usize,
    multiply_closed: bool,
    merge_closed: bool,
    result: Option<Csr>,
    partial_bytes_total: u64,
    largest_partial_bytes: u64,
    multiply_busy: f64,
    multiply_kernel_seconds: f64,
    multiply_scratch_reuses: u64,
    merge_busy: f64,
    merge_kernel_seconds: f64,
    merge_triples: u64,
    rounds_overlapping: u64,
    rounds_concurrent: u64,
    failure: Option<StreamError>,
    /// Span lane for orchestrator bookkeeping (`orchestrate` spans); the
    /// sum of those spans plus the merge workers' `merge-round` spans is
    /// exactly `merge_busy_seconds`.
    lane: ThreadRecorder,
}

impl MergeStage {
    fn new(
        store: PartialStore,
        plan: ExecPlan,
        scope: Subtree,
        a_rows: usize,
        b_cols: usize,
        max_rounds_inflight: usize,
        lane: ThreadRecorder,
    ) -> Self {
        MergeStage {
            store,
            a_rows,
            b_cols,
            max_rounds_inflight: max_rounds_inflight.max(1),
            produced: vec![false; plan.num_nodes()],
            dispatched: vec![false; plan.num_rounds()],
            plan,
            scope,
            rounds_done: 0,
            rounds_inflight: 0,
            multiply_closed: false,
            merge_closed: false,
            result: None,
            partial_bytes_total: 0,
            largest_partial_bytes: 0,
            multiply_busy: 0.0,
            multiply_kernel_seconds: 0.0,
            multiply_scratch_reuses: 0,
            merge_busy: 0.0,
            merge_kernel_seconds: 0.0,
            merge_triples: 0,
            rounds_overlapping: 0,
            rounds_concurrent: 0,
            failure: None,
            lane,
        }
    }

    /// Consumes stage events until the run is complete, interleaving
    /// store inserts and round dispatches. On failure it raises `abort`
    /// so the reader stops ingesting, then keeps draining so the other
    /// stages can always finish — no early return, no deadlock.
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
            if self.failure.is_some() {
                links.abort.store(true, Ordering::Relaxed);
            }
        }
        // Disconnect the merge workers (round_tx drops with `links`) and
        // the writer: both stages exit once their queues drain.
        self.store.remove_spill_sink();
    }

    fn handle(&mut self, event: Event, links: &OrchestratorLinks<'_>) {
        match event {
            Event::MultiplyDone {
                leaf,
                partial,
                seconds,
                kernel_seconds,
                warm,
            } => {
                links.inflight.fetch_sub(1, Ordering::Relaxed);
                links.gate.release();
                self.multiply_busy += seconds;
                self.multiply_kernel_seconds += kernel_seconds;
                self.multiply_scratch_reuses += u64::from(warm);
                if self.failure.is_some() {
                    return;
                }
                let span = self.lane.begin("stream", "orchestrate");
                self.insert_leaf(leaf, partial);
                self.dispatch_rounds(links);
                self.merge_busy += self.lane.end(span);
            }
            Event::RoundDone {
                round,
                outcome,
                kernel_seconds,
                triples,
            } => {
                self.rounds_inflight -= 1;
                self.rounds_done += 1;
                self.merge_kernel_seconds += kernel_seconds;
                self.merge_triples += triples;
                match outcome {
                    Ok(merged) if self.failure.is_none() => {
                        let span = self.lane.begin("stream", "orchestrate");
                        let output = self.plan.round_output(round);
                        for id in self.plan.round_children(round) {
                            self.store.release(id);
                        }
                        self.produced[output] = true;
                        if self.scope.root == Some(output) {
                            self.result = Some(merged);
                        } else if let Err(e) = self.store.insert(output, merged) {
                            self.failure = Some(e);
                        }
                        if self.failure.is_none() {
                            self.dispatch_rounds(links);
                        }
                        self.merge_busy += self.lane.end(span);
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
                        self.merge_busy += self.lane.end(span);
                    }
                    Ok(()) => {}
                }
            }
            Event::MultiplyStageClosed => {
                self.multiply_closed = true;
                if self.failure.is_some() {
                    return;
                }
                let span = self.lane.begin("stream", "orchestrate");
                // Every MultiplyDone is queued ahead of this event, so
                // all leaves that will ever arrive have arrived. Anything
                // else is a lost stage.
                if self.scope.leaves.iter().any(|&leaf| !self.produced[leaf]) {
                    self.failure = Some(StreamError::Io(
                        "multiply stage ended before every partial arrived".into(),
                    ));
                } else {
                    self.dispatch_rounds(links);
                }
                self.merge_busy += self.lane.end(span);
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
    /// the multiply stage has closed, nothing is in flight, and (absent
    /// a failure) the plan has fully executed.
    fn finished(&self) -> bool {
        if !self.multiply_closed || self.store.spills_in_flight() > 0 {
            return false;
        }
        if self.failure.is_some() {
            return self.rounds_inflight == 0 || self.merge_closed;
        }
        self.rounds_done == self.scope.rounds.len() && self.rounds_inflight == 0
    }

    fn insert_leaf(&mut self, leaf: usize, partial: Csr) {
        let bytes = partial.estimated_bytes();
        self.partial_bytes_total += bytes;
        self.largest_partial_bytes = self.largest_partial_bytes.max(bytes);
        self.produced[leaf] = true;
        if let Err(e) = self.store.insert(leaf, partial) {
            self.failure = Some(e);
        }
    }

    /// Dispatches every pending round in scope whose children are all
    /// available, lowest round id first, until the in-flight cap is
    /// reached. Round children always reference earlier rounds, so one
    /// ascending scan per call suffices; later events re-scan as children
    /// land.
    fn dispatch_rounds(&mut self, links: &OrchestratorLinks<'_>) {
        let (plan, scope) = (&self.plan, &self.scope);
        for &r in &scope.rounds {
            if self.failure.is_some() || self.rounds_inflight >= self.max_rounds_inflight {
                return;
            }
            if !self.dispatchable(r) {
                continue;
            }
            let mut sources = Vec::new();
            for id in plan.round_children(r) {
                match self.store.take(id) {
                    Ok(source) => sources.push(source),
                    Err(e) => {
                        self.failure = Some(e);
                        return;
                    }
                }
            }
            let bands = self.bands_for(r, &sources, links);
            let job = RoundJob {
                round: r,
                sources,
                bands,
            };
            if links.round_tx.send(job).is_err() {
                self.failure = Some(StreamError::Io("merge worker stage is gone".into()));
                return;
            }
            let multiplies = links.inflight.load(Ordering::Relaxed);
            if multiplies > 0 {
                self.rounds_overlapping += 1;
            }
            if multiplies > 0 || self.rounds_inflight > 0 {
                self.rounds_concurrent += 1;
            }
            self.dispatched[r] = true;
            self.rounds_inflight += 1;
        }
    }

    /// Whether round `r` is pending and its children are all available
    /// (`available` is false while a node's spill write-back is still on
    /// the writer thread).
    fn dispatchable(&self, r: usize) -> bool {
        !self.dispatched[r]
            && self
                .plan
                .round_ready(r, |id| self.produced[id] && self.store.available(id))
    }

    /// The row bands to ask for round `r` over `sources`: one per merge
    /// worker, as far as the round fills them ([`lone_round_bands`]),
    /// when the round would otherwise run alone — no multiply is in
    /// flight or left to run, and no other round is in flight or
    /// dispatchable; one otherwise. [`merge_bands`] decides what it can
    /// cut (a round with a spilled source only at its files' row marks).
    /// Bands never change the bits, only how many cores fold the rows.
    fn bands_for(
        &self,
        r: usize,
        sources: &[PartialSource],
        links: &OrchestratorLinks<'_>,
    ) -> usize {
        let alone = links.inflight.load(Ordering::Relaxed) == 0
            && self.rounds_inflight == 0
            && self.scope.leaves.iter().all(|&leaf| self.produced[leaf])
            && !self
                .scope
                .rounds
                .iter()
                .any(|&o| o != r && self.dispatchable(o));
        if !alone {
            return 1;
        }
        let triples = sources.iter().map(PartialSource::remaining_nnz).sum();
        lone_round_bands(triples, self.max_rounds_inflight)
    }

    /// Resolves the run: reader errors win (they are the root cause),
    /// then orchestrator failures, then the degenerate zero- and
    /// one-leaf results.
    fn finish(mut self, reader: ReaderOutcome) -> Result<PipelineOutcome, StreamError> {
        if let Some(e) = reader.error {
            self.store.cleanup();
            return Err(e);
        }
        if let Some(e) = self.failure.take() {
            self.store.cleanup();
            return Err(e);
        }
        let result = match (self.scope.root, self.result.take()) {
            (None, _) => Csr::zero(self.a_rows, self.b_cols),
            (Some(_), Some(merged)) => merged,
            // No round ran: the root is the lone leaf.
            (Some(leaf), None) => match self.store.take_full(leaf) {
                Ok(csr) => csr,
                Err(e) => {
                    self.store.cleanup();
                    return Err(e);
                }
            },
        };
        let store_stats = self.store.stats().clone();
        self.store.cleanup();
        Ok(PipelineOutcome {
            result,
            plan: self.plan,
            scope: self.scope,
            partial_bytes_total: self.partial_bytes_total,
            largest_partial_bytes: self.largest_partial_bytes,
            store_stats: store_stats.clone(),
            stages: StageReport {
                reader_busy_seconds: reader.busy_seconds,
                multiply_busy_seconds: self.multiply_busy,
                multiply_kernel_seconds: self.multiply_kernel_seconds,
                multiply_scratch_reuses: self.multiply_scratch_reuses,
                merge_busy_seconds: self.merge_busy + self.merge_kernel_seconds,
                merge_kernel_seconds: self.merge_kernel_seconds,
                spill_write_seconds: store_stats.spill_write_seconds,
                merge_triples: self.merge_triples,
                reads_overlapping_multiply: reader.reads_overlapping_multiply,
                rounds_overlapping_multiply: self.rounds_overlapping,
                rounds_merged_concurrently: self.rounds_concurrent,
            },
        })
    }
}
