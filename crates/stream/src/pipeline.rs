//! The streaming pipeline: pairs pulled and small rounds folded on the
//! calling thread, larger rounds on merge workers, spills on a writer.
//!
//! SpArch pipelines its multiply and merge stages so partial matrices are
//! merged on chip the moment they are produced, with no hand-off between
//! stages (§II-A), and overlaps fetch with compute. The software pipeline
//! does both from the thread that calls it, the orchestrator, and starts
//! a helper thread only when it has work for one:
//!
//! ```text
//!  calling thread (orchestrator)                 merge workers
//!  pulls panel pairs in production     round     (spawned with the first
//!  order, parks leaves, inserts round  ──────▶   round of ≥ BAND_MIN_ENTRIES
//!  outputs, dispatches rounds; folds   jobs      input entries; each round
//!  every smaller round itself      ◀──────────   multiplies its leaf pairs
//!        │        ▲                done events   row by row inside its k-way
//!        │ spill  │ done                         fold: merge_bands)
//!        ▼ jobs   │
//!  spill writer (bounded budget only: encode + write spill files)
//! ```
//!
//! The orchestrator pulls panel *pairs* — `A[:, p]` plus the matching
//! `B[p, :]` — so neither operand is ever materialized whole; building a
//! pair's [`Leaf`] (the product's `B` table and row bounds) is the
//! iterator's work. A pair is not multiplied on its own: the orchestrator
//! parks it until the merge round that consumes it can run, and that
//! round computes the leaf's rows inside its fold, as it reads them
//! ([`PartialSource::from_leaf`]), whatever else the round folds. A
//! one-leaf subtree runs its leaf as a one-source round of its own. No
//! leaf partial is ever built, stored or spilled; only round outputs
//! enter the budgeted [`PartialStore`], so the budget and every spill
//! cover round outputs alone. Pairs arrive in production order
//! ([`ExecPlan::production_order`]: round 0's pairs, then round 1's, …;
//! the i-th pair is the i-th of the subtree's [`Subtree::leaves`]), so
//! each round's pairs arrive together, and a read window of `ways` parked
//! pairs — freed as rounds take their pairs — bounds how much of either
//! operand is resident. Before each pull the orchestrator handles every
//! event already queued.
//!
//! Every round of the Huffman plan whose pairs and stored children are
//! all present is dispatched at once. A round of fewer than
//! [`BAND_MIN_ENTRIES`] input entries folds on the calling thread, where
//! a hand-off would cost more than the fold; a larger one goes to the
//! merge workers, which the first such round spawns — *independent
//! rounds run concurrently*, up to the worker count, while the
//! orchestrator keeps reading. A worker round that would otherwise run
//! alone — every pair is in, nothing else is in flight or ready — is cut
//! into row bands folded on every worker's core at once
//! ([`merge_bands`]; a leaf can be cut at any row, a round with spilled
//! inputs at their spill files' row marks), so the Huffman root does not
//! leave all but one core idle. Under a bounded budget the store hands
//! [`SpillJob`]s to a writer thread and marks the node unavailable until
//! the write lands; an unbounded store never spills and starts none.
//!
//! **Determinism.** This module decides nothing about the
//! decomposition: every run is handed its [`ExecPlan`] and the
//! [`Subtree`] of it to execute (the whole plan, or one shard's part of
//! the fleet's plan) before the first panel is read. The orchestrator
//! accepts exactly that subtree's leaf panels, the store evicts by the
//! plan's consumption schedule from the first insert, and a round is
//! dispatched the moment its inputs are present — while pairs are still
//! being read. The plan fixes every round's children up front, so
//! whichever thread folds a round and however rounds interleave, each
//! round folds exactly the same inputs in the same child order, and a
//! leaf's rows are those of the Gustavson kernel whichever band computes
//! them — the fold order, and therefore every output bit, depends only on
//! the plan, never on which thread ran first or how many bands folded a
//! round. Timing can shift *which* partials spill, *when* a round is
//! dispatched and whether it runs alone (spill and overlap counters and
//! band counts vary at `threads > 1`), but never what any round
//! computes.

use crate::merge::{
    lone_round_bands, merge_bands, Leaf, MergeScratch, PartialSource, BAND_MIN_ENTRIES,
};
use crate::plan::{ExecPlan, Subtree};
use crate::spill::{raw_size, SpillFile, SpillWriter};
use crate::store::{PartialStore, SpillJob, StoreStats};
use crate::{StreamConfig, StreamError};
use serde::{Deserialize, Serialize};
use sparch_exec::{ShardPool, SharedQueue};
use sparch_obs::{Counter, Recorder, ThreadRecorder};
use sparch_sparse::Csr;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::mpsc::{channel, sync_channel, Receiver, Sender, SyncSender};
use std::sync::Arc;
use std::thread::Scope;
use std::time::Instant;

/// Per-stage busy time and overlap evidence for one pipelined multiply.
///
/// Busy seconds are summed per stage (merge across all of its workers),
/// so they can exceed the wall clock — that excess *is* the overlap. A
/// round multiplies its leaves' rows inside its fold, so its wall time is
/// split between the multiply figures and the merge figures by input
/// entries: the leaves' share of the round's input entries is its
/// multiply share. The counters are direct evidence of pipelining: they
/// count events that are impossible in a phase-alternating executor.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageReport {
    /// Time the orchestrator spent pulling panel pairs from the stream:
    /// reading and validating them and building each leaf's product
    /// tables.
    pub reader_busy_seconds: f64,
    /// The multiply share of the merge rounds' wall time, summed over
    /// rounds: each round's wall time (counted once, however many bands
    /// folded it) times the entries its leaves fed over its input entries
    /// (those entries plus its stored inputs' non-zeros). A round of
    /// leaves alone is all multiply time, one of stored partials alone
    /// none. Built from `multiply_kernel_seconds`, so the two are one
    /// measure.
    pub multiply_busy_seconds: f64,
    /// The same measure as `multiply_busy_seconds` — with the multiply
    /// inside the rounds there is no multiply-side wait left to tell them
    /// apart (the multiply twin of `merge_kernel_seconds`). Both fields are
    /// kept because the benchmark harness reads both.
    pub multiply_kernel_seconds: f64,
    /// Band folds with a leaf whose multiply accumulator was already warm
    /// (no accumulator growth). Each band scratch warms on its first band
    /// fold with a leaf and keeps its accumulator across rounds, so at
    /// most one such fold per folding thread (the calling thread and each
    /// merge worker) and band is cold.
    pub multiply_scratch_reuses: u64,
    /// Time the merge stage spent on partials end to end: orchestrator
    /// bookkeeping (store inserts, round dispatch) plus
    /// `merge_kernel_seconds`. Spill encoding/writing is *not* included
    /// — it runs on the writer thread (`spill_write_seconds`).
    pub merge_busy_seconds: f64,
    /// Time inside the k-way merge kernel itself, summed over the
    /// threads that folded rounds — each round's wall time less its
    /// multiply share (see
    /// `multiply_busy_seconds`). A round folded in row bands counts its
    /// wall time once, not once per band thread.
    pub merge_kernel_seconds: f64,
    /// Wall time spent encoding + writing spill files (on the writer
    /// thread, so it overlaps every other stage).
    pub spill_write_seconds: f64,
    /// Triples consumed by merge rounds: the stored inputs' non-zeros
    /// plus the entries the leaves' rows produced, summed over rounds.
    /// `merge_triples / merge_kernel_seconds` is the merge kernel's
    /// throughput.
    pub merge_triples: u64,
    /// Panel reads that completed while ≥ 1 round was in flight on the
    /// merge workers — ingest going on while a round multiplies and
    /// folds. Rounds folded on the calling thread never overlap a read,
    /// so a run whose rounds are all small scores 0. Meaningful even on
    /// a single core: it counts *pipelining* (stages progressing with
    /// upstream work outstanding) rather than physical simultaneity. A
    /// phase-alternating executor scores 0 by construction.
    pub reads_overlapping_multiply: u64,
    /// Merge rounds dispatched while panel pairs were still to arrive —
    /// rounds multiplying and folding while ingest continues.
    pub rounds_overlapping_multiply: u64,
    /// Merge rounds dispatched while pairs were still to arrive *or* ≥ 1
    /// other round was in flight on the merge workers — rounds that ran
    /// concurrently with other pipeline work instead of strictly after
    /// it.
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

/// A merge round ready to fold: the plan round index, its inputs —
/// leaves multiplied as they are read and already-taken (budget-pinned
/// or spill-streaming) stored children — and the row bands to fold them
/// in (see [`MergeStage::bands_for`]).
struct RoundJob {
    /// The plan round, or `None` for the one-source round that multiplies
    /// the leaf of a one-leaf subtree.
    round: Option<usize>,
    sources: Vec<PartialSource>,
    /// The round's leaves, whose tallies are read once it is done.
    leaves: Vec<Arc<Leaf>>,
    /// Non-zeros of the stored children.
    stored_triples: u64,
    bands: usize,
}

/// A folded round and its figures, from [`fold_round`].
struct RoundDone {
    /// As [`RoundJob::round`].
    round: Option<usize>,
    outcome: Result<Csr, StreamError>,
    /// The round's wall time less its multiply share.
    merge_seconds: f64,
    multiply_seconds: f64,
    triples: u64,
    /// Summed and largest [`Leaf::estimated_bytes`] of its leaves.
    leaf_bytes: u64,
    largest_leaf_bytes: u64,
    /// Band folds with a leaf on warm multiply scratch.
    warm_folds: u64,
}

/// What the helper threads tell the orchestrator. One unbounded channel
/// (std has no `select`) carries it all; each producer is bounded —
/// rounds by the dispatch cap, spills by the writer's `sync_channel(1)` —
/// so the queue never grows past a few entries.
enum Event {
    /// A merge worker folded a round.
    RoundDone(RoundDone),
    /// The writer thread finished (or failed) the spill of node `id`;
    /// on success carries the spill file, its raw-equivalent bytes and
    /// the write time.
    SpillDone {
        id: usize,
        outcome: Result<(SpillFile, u64, f64), StreamError>,
    },
    /// A helper thread panicked: what it held never comes back.
    HelperPanicked,
}

/// Sends [`Event::HelperPanicked`] if its thread unwinds, so the
/// orchestrator never waits on a round or a spill that died with it.
struct PanicNotice(Sender<Event>);

impl Drop for PanicNotice {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = self.0.send(Event::HelperPanicked);
        }
    }
}

/// The merge workers, spawned into the run's scope by the first round
/// sent to them. Dropping this drops the round sender, which is what
/// lets them exit.
struct Workers<'scope, 'env> {
    scope: &'scope Scope<'scope, 'env>,
    queue: &'env SharedQueue<RoundJob>,
    round_tx: SyncSender<RoundJob>,
    evt_tx: Sender<Event>,
    recorder: &'env Recorder,
    threads: usize,
    spawned: bool,
    a_rows: usize,
    b_cols: usize,
}

impl Workers<'_, '_> {
    /// Hands `job` to the merge workers, spawning them first if none
    /// runs yet. Never blocks: the round channel holds as many jobs as
    /// the dispatch cap lets be in flight.
    fn send(&mut self, job: RoundJob) {
        if !self.spawned {
            self.spawned = true;
            for _ in 0..self.threads {
                let (queue, evt_tx) = (self.queue, self.evt_tx.clone());
                let (a_rows, b_cols) = (self.a_rows, self.b_cols);
                let lane = self.recorder.thread("merge");
                self.scope
                    .spawn(move || merge_worker(queue, evt_tx, a_rows, b_cols, lane));
            }
        }
        self.round_tx
            .send(job)
            .expect("the round queue outlives the run");
    }
}

/// Runs `subtree` of `plan` (the whole plan for a full multiply) over a
/// stream of leaves, on the calling thread.
///
/// `pairs` must yield exactly the subtree's leaves in production order:
/// the i-th item is the pair of leaf `subtree.leaves[i]` — built from a
/// panel pair whose shapes [`validate_shapes`] passed (`A[:, range]` with
/// localized columns, `B[range, :]` with localized rows, and the `A`
/// panel's occupied rows, which the executor records while slicing or
/// with one row-pointer sweep). The iterator runs on the calling thread.
/// The count is checked — a pair past the last leaf, or a stream ending
/// short, is a [`StreamError::Shape`]; iterator errors (e.g. a disk
/// reader failing mid-file or a panel of the wrong shape) abort the run
/// with that error. No pair is pulled after the first failure.
///
/// Every stage runs its timing through an [`sparch_obs`] span lane: the
/// busy-seconds in [`StageReport`] are read off the very spans an enabled
/// recorder exports, so the report is a view of the trace (span taxonomy:
/// `read-panel` and `orchestrate` on the orchestrator lane; `merge-round`
/// on the orchestrator lane for a round folded in place and on a merge
/// lane otherwise — its `multiply_ns` argument is the round's multiply
/// share and its `round` is `u64::MAX` on a lone leaf's round;
/// `spill-write` on the writer lane; `claim-wait` measures a merge
/// worker's wait for its next round, outside every busy figure). A lane
/// is declared only for a thread that runs. With a disabled recorder the
/// lanes allocate nothing.
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
    I: Iterator<Item = Result<Leaf, StreamError>>,
{
    let threads = ShardPool::with_override(config.threads).threads();
    let mut store = PartialStore::new(
        config.budget,
        spill_dir,
        config.spill_codec,
        plan.consumers().to_vec(),
    );
    let (evt_tx, evt_rx) = channel::<Event>();
    // Round jobs never outnumber merge workers (the dispatch cap), so
    // this capacity means the orchestrator never blocks sending one.
    let (round_tx, round_rx) = sync_channel::<RoundJob>(threads);
    let queue = SharedQueue::new(round_rx);

    // Registered whether or not anything spills, so a run's metrics
    // always list them.
    let counters = SpillCounters {
        files: recorder.counter("stream.spill_files_written"),
        bytes: recorder.counter("stream.spill_bytes_written"),
        raw_bytes: recorder.counter("stream.spill_bytes_raw_equivalent"),
    };

    std::thread::scope(|scope| {
        if config.budget.bytes() < u64::MAX {
            // Spill write-back: the orchestrator blocks only when a write
            // is already in progress *and* one is queued — the natural
            // backpressure that keeps at most two partial-sized buffers
            // with the writer.
            let (spill_tx, spill_rx) = sync_channel::<SpillJob>(1);
            store.set_spill_sink(spill_tx);
            let writer_evt = evt_tx.clone();
            let lane = recorder.thread("spill-writer");
            scope.spawn(move || spill_writer(spill_rx, writer_evt, lane, counters));
        }
        let mut workers = Workers {
            scope,
            queue: &queue,
            round_tx,
            evt_tx,
            recorder,
            threads,
            spawned: false,
            a_rows,
            b_cols,
        };
        let mut merge = MergeStage {
            store,
            a_rows,
            b_cols,
            max_rounds_inflight: threads,
            produced: vec![false; plan.num_nodes()],
            dispatched: vec![false; plan.num_rounds()],
            parked: (0..plan.num_leaves()).map(|_| None).collect(),
            window: 0,
            arrived: 0,
            plan,
            scope: subtree,
            rounds_inflight: 0,
            here: Vec::new(),
            scratch: MergeScratch::new(),
            result: None,
            leaf_bytes: (0, 0),
            stages: StageReport::default(),
            failure: None,
            lane: recorder.thread("orchestrator"),
        };
        merge.run(pairs, &evt_rx, &mut workers);
        // The helpers exit once the round sender (with `workers`) and the
        // spill sink (with the store) drop; the scope then joins them.
        merge.finish()
    })
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

/// Folds one round — the k-way kernel multiplies the round's leaves as
/// it folds them — in the job's row bands, on `scratch` kept across
/// rounds. The `merge-round` span covers the round's wall time once,
/// however many threads its bands ran on, and carries the round's
/// multiply share as `multiply_ns`: the wall time times the leaves' share
/// of the round's input entries, rounded up, so a round whose leaves fed
/// anything has a multiply share. The orchestrator folds small rounds
/// through it, the merge workers every other.
fn fold_round(
    job: RoundJob,
    a_rows: usize,
    b_cols: usize,
    scratch: &mut MergeScratch,
    lane: &mut ThreadRecorder,
) -> RoundDone {
    let warm = scratch.multiply_reuses();
    let span = lane.begin("stream", "merge-round");
    let start = Instant::now();
    let outcome = merge_bands(a_rows, b_cols, job.sources, scratch, job.bands);
    let wall_ns = start.elapsed().as_nanos();
    // The span records the bands the kernel ran with (a failed round
    // counts as one).
    let bands = outcome.as_ref().map_or(1, |&(_, bands)| bands) as u64;
    let leaves = &job.leaves;
    let entries: u64 = leaves.iter().map(|l| l.entries() as u64).sum();
    let triples = job.stored_triples + entries;
    let multiply_ns = match triples {
        0 => 0,
        _ => (wall_ns * u128::from(entries)).div_ceil(u128::from(triples)) as u64,
    };
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
    RoundDone {
        round: job.round,
        outcome: outcome.map(|(merged, _)| merged),
        merge_seconds: seconds - multiply_seconds,
        multiply_seconds,
        triples,
        leaf_bytes: bytes.clone().sum(),
        largest_leaf_bytes: bytes.max().unwrap_or(0),
        warm_folds: scratch.multiply_reuses() - warm,
    }
}

/// One merge worker: claims round jobs until the orchestrator drops the
/// round sender, folds each ([`fold_round`]) on a scratch kept across
/// rounds, and reports it.
fn merge_worker(
    queue: &SharedQueue<RoundJob>,
    evt_tx: Sender<Event>,
    a_rows: usize,
    b_cols: usize,
    mut lane: ThreadRecorder,
) {
    let _notice = PanicNotice(evt_tx.clone());
    let mut scratch = MergeScratch::new();
    loop {
        let wait = lane.begin("stream", "claim-wait");
        let job = queue.claim();
        lane.end(wait);
        let Some(job) = job else { break };
        let done = fold_round(job, a_rows, b_cols, &mut scratch, &mut lane);
        if evt_tx.send(Event::RoundDone(done)).is_err() {
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
    let _notice = PanicNotice(evt_tx.clone());
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

/// The orchestrator: pulls the pairs, owns the budgeted store, the parked
/// leaf pairs and the [`ExecPlan`], and dispatches every merge round in
/// scope whose inputs are all present — folding the small ones itself,
/// handing the rest to the merge workers, several at once when the plan
/// allows it.
struct MergeStage {
    store: PartialStore,
    a_rows: usize,
    b_cols: usize,
    /// Dispatch cap: rounds in flight on the merge workers never exceed
    /// their count (also the round channel's capacity, so sends never
    /// block).
    max_rounds_inflight: usize,
    /// The plan and the part of it this run executes.
    plan: ExecPlan,
    scope: Subtree,
    /// Per node id: the leaf's pair arrived / the round finished.
    produced: Vec<bool>,
    /// Per round: dispatched (queued, in flight or done).
    dispatched: Vec<bool>,
    /// Per leaf: its pair, parked until its round is dispatched.
    parked: Vec<Option<Leaf>>,
    /// The read window: pairs parked and not yet handed to a round. A
    /// pair is pulled only while fewer than `ways` are.
    window: usize,
    /// Pairs arrived so far.
    arrived: usize,
    /// Rounds in flight on the merge workers.
    rounds_inflight: usize,
    /// Dispatched rounds to fold on this thread.
    here: Vec<RoundJob>,
    /// The scratch the rounds folded on this thread share.
    scratch: MergeScratch,
    result: Option<Csr>,
    /// Summed and largest footprint of the leaves multiplied so far.
    leaf_bytes: (u64, u64),
    /// The report's figures as they accumulate; `merge_busy_seconds`
    /// holds the orchestrator's bookkeeping alone until [`Self::finish`].
    stages: StageReport,
    failure: Option<StreamError>,
    /// Span lane for the orchestrator's reads (`read-panel`), its
    /// bookkeeping (`orchestrate`) and the rounds it folds
    /// (`merge-round`); the `orchestrate` spans plus every `merge-round`
    /// span, less their multiply share, are exactly `merge_busy_seconds`.
    lane: ThreadRecorder,
}

impl MergeStage {
    /// Pulls pairs while the read window has room, handling every queued
    /// event before each pull, and waits for an event only when the
    /// window is full or the stream is done; stops pulling at the first
    /// failure and returns once nothing is left in flight — no early
    /// return while a helper still holds work, no wait on a helper that
    /// holds none.
    fn run<I>(&mut self, mut pairs: I, evt_rx: &Receiver<Event>, workers: &mut Workers<'_, '_>)
    where
        I: Iterator<Item = Result<Leaf, StreamError>>,
    {
        let mut reading = true;
        loop {
            while let Ok(event) = evt_rx.try_recv() {
                self.handle(event, workers);
            }
            if reading && self.failure.is_none() && self.window < self.plan.ways() {
                reading = self.pull(&mut pairs, workers);
                continue;
            }
            if self.rounds_inflight == 0 && self.store.spills_in_flight() == 0 {
                break;
            }
            let event = evt_rx.recv().expect("the orchestrator holds a sender");
            self.handle(event, workers);
        }
    }

    /// Pulls the next pair and parks it; false once the stream is done —
    /// ended, failed, or past the subtree's last leaf.
    fn pull<I>(&mut self, pairs: &mut I, workers: &mut Workers<'_, '_>) -> bool
    where
        I: Iterator<Item = Result<Leaf, StreamError>>,
    {
        // One span per pull (read + validate + leaf build); its duration
        // *is* the report's reader busy time (the final, empty pull
        // included).
        let span = self.lane.begin("stream", "read-panel");
        let Some(item) = pairs.next() else {
            self.stages.reader_busy_seconds += self.lane.end(span);
            let short = self.scope.leaves.len() - self.arrived;
            if short > 0 {
                self.failure = Some(StreamError::Shape(format!(
                    "panel stream ended {short} leaf panels short of the plan"
                )));
            }
            return false;
        };
        let args = [("panel", self.arrived as u64)];
        self.stages.reader_busy_seconds += self.lane.end_with(span, &args);
        self.stages.reads_overlapping_multiply += u64::from(self.rounds_inflight > 0);
        let product = match item {
            Ok(product) => product,
            Err(e) => {
                self.failure = Some(e);
                return false;
            }
        };
        let Some(&leaf) = self.scope.leaves.get(self.arrived) else {
            let msg = "a panel arrived after the plan's last leaf";
            self.failure = Some(StreamError::Shape(msg.into()));
            return false;
        };
        self.arrived += 1;
        self.window += 1;
        let span = self.lane.begin("stream", "orchestrate");
        self.produced[leaf] = true;
        self.parked[leaf] = Some(product);
        self.dispatch_rounds(workers);
        self.stages.merge_busy_seconds += self.lane.end(span);
        self.fold_here(workers);
        true
    }

    fn handle(&mut self, event: Event, workers: &mut Workers<'_, '_>) {
        match event {
            Event::RoundDone(done) => {
                self.rounds_inflight -= 1;
                self.round_done(done, workers);
            }
            Event::SpillDone { id, outcome } => {
                match self.store.complete_spill(id, outcome) {
                    Err(e) => {
                        self.failure.get_or_insert(e);
                    }
                    Ok(()) if self.failure.is_none() => {
                        // A node just became available — rounds gated on
                        // its write-back may be dispatchable now.
                        let span = self.lane.begin("stream", "orchestrate");
                        self.dispatch_rounds(workers);
                        self.stages.merge_busy_seconds += self.lane.end(span);
                    }
                    Ok(()) => {}
                }
            }
            // The helper's panic is re-raised when the scope joins it;
            // raising it here unwinds the orchestrator, whose dropped
            // senders let every other helper exit.
            Event::HelperPanicked => panic!("a streaming pipeline helper thread panicked"),
        }
        self.fold_here(workers);
    }

    /// Folds the rounds dispatched to this thread, one at a time; each
    /// completion may dispatch more.
    fn fold_here(&mut self, workers: &mut Workers<'_, '_>) {
        while let Some(job) = self.here.pop() {
            if self.failure.is_some() {
                self.here.clear();
                return;
            }
            let done = fold_round(
                job,
                self.a_rows,
                self.b_cols,
                &mut self.scratch,
                &mut self.lane,
            );
            self.round_done(done, workers);
        }
    }

    /// Books a folded round: its figures, then — unless the run already
    /// failed — its output into the store (or as the result) and the
    /// rounds that output makes dispatchable.
    fn round_done(&mut self, done: RoundDone, workers: &mut Workers<'_, '_>) {
        let stages = &mut self.stages;
        stages.merge_kernel_seconds += done.merge_seconds;
        stages.multiply_kernel_seconds += done.multiply_seconds;
        stages.merge_triples += done.triples;
        stages.multiply_scratch_reuses += done.warm_folds;
        let (total, largest) = self.leaf_bytes;
        self.leaf_bytes = (
            total + done.leaf_bytes,
            largest.max(done.largest_leaf_bytes),
        );
        let merged = match done.outcome {
            Ok(merged) if self.failure.is_none() => merged,
            // Failure already recorded — the round only needed
            // accounting so the drain can terminate.
            Ok(_) => return,
            Err(e) => {
                self.failure.get_or_insert(e);
                return;
            }
        };
        let span = self.lane.begin("stream", "orchestrate");
        let output = match done.round {
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
        self.dispatch_rounds(workers);
        self.stages.merge_busy_seconds += self.lane.end(span);
    }

    /// Dispatches every pending round in scope whose inputs are all
    /// present, lowest round id first, until the merge workers' in-flight
    /// cap is reached, and frees the read window of the pairs it hands
    /// over. A round of fewer than [`BAND_MIN_ENTRIES`] input entries is
    /// queued to fold on this thread; a larger one goes to the merge
    /// workers. Round children always reference earlier rounds, so one
    /// ascending scan per call suffices; later events re-scan as inputs
    /// land. A one-leaf subtree has no plan round: its leaf runs as a
    /// one-source round of its own, banded like any round that runs
    /// alone.
    fn dispatch_rounds(&mut self, workers: &mut Workers<'_, '_>) {
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
            self.window -= leaves.len();
            let ingesting = self.arrived < self.scope.leaves.len();
            self.stages.rounds_overlapping_multiply += u64::from(ingesting);
            let concurrent = ingesting || self.rounds_inflight > 0;
            self.stages.rounds_merged_concurrently += u64::from(concurrent);
            if let Some(r) = round {
                self.dispatched[r] = true;
            }
            let triples = sources.iter().map(PartialSource::remaining_nnz).sum();
            let here = triples < BAND_MIN_ENTRIES;
            let job = RoundJob {
                round,
                sources,
                leaves,
                stored_triples,
                bands: if here {
                    1
                } else {
                    self.bands_for(round, triples)
                },
            };
            if here {
                self.here.push(job);
            } else {
                workers.send(job);
                self.rounds_inflight += 1;
            }
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

    /// The row bands to ask for `round` over `triples` input entries: one
    /// per merge worker, as far as the round fills them
    /// ([`lone_round_bands`]), when the round would otherwise run alone —
    /// every pair has arrived, and no other round is in flight or
    /// dispatchable; one otherwise. [`merge_bands`] decides what it can
    /// cut (a round with a spilled source only at its files' row marks).
    /// Bands never change the bits, only how many cores fold the rows.
    fn bands_for(&self, round: Option<usize>, triples: usize) -> usize {
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
        lone_round_bands(triples, self.max_rounds_inflight)
    }

    /// Resolves the run: the first failure, or the result — the zero
    /// matrix when every panel was pruned — at its own size: a round's
    /// output is pre-sized to its inputs' bound, so its arrays are shrunk
    /// to the entries they hold before it is handed back. The store's
    /// spill directory goes either way (on an error, with the store).
    fn finish(mut self) -> Result<PipelineOutcome, StreamError> {
        if let Some(e) = self.failure.take() {
            return Err(e);
        }
        let mut result = self.result.take().unwrap_or_else(|| {
            let root = self.scope.root;
            assert!(
                root.is_none(),
                "the run ended before its root {root:?} was folded"
            );
            Csr::zero(self.a_rows, self.b_cols)
        });
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
                multiply_busy_seconds: s.multiply_kernel_seconds,
                merge_busy_seconds: s.merge_busy_seconds + s.merge_kernel_seconds,
                spill_write_seconds: store_stats.spill_write_seconds,
                ..s
            },
            store_stats,
        })
    }
}
