//! The coordinator: the cut, placement, liveness, retry, and the top of
//! the plan.
//!
//! [`DistCoordinator::multiply`] owns the run end to end. It decides
//! nothing about the decomposition: [`ExecPlan::for_operand`] — the
//! constructor behind
//! [`StreamingExecutor::multiply`](sparch_stream::StreamingExecutor::multiply)
//! too — yields the panel split, the live leaves and the merge rounds.
//! The coordinator *cuts* that plan ([`ExecPlan::frontier`], about two
//! subtrees per worker) and ships each subtree below the cut as one
//! idempotent **job**: the leaf panel pairs go out once, the worker
//! multiplies them and folds its own partials, and one partial comes
//! back. Shard worker processes claim one job at a time over Unix
//! sockets, heaviest first. The few rounds above the cut are folded here,
//! by a dedicated thread running the same
//! [`merge_bands`] kernel (their output has to land here anyway), so
//! the event loop never stops dispatching or watching liveness while a
//! merge runs; a round's inputs are dropped the moment it has folded
//! them. A round that folds once every job is done and nothing else is
//! folding — the root, typically — is cut into row bands over the
//! host's threads, since the fleet has nothing left to run beside it.
//! Because the plan fixes every round's children and every round —
//! wherever it runs — folds the same inputs in the same order, the final
//! CSR is bit-identical to the single-node run at every shard count,
//! whatever the cut, the dispatch interleaving and the band count.
//!
//! **Liveness** is the per-worker reader thread's read deadline: a
//! healthy worker heartbeats every [`DistConfig::heartbeat_interval`],
//! so a socket silent for [`DistConfig::heartbeat_timeout`] means the
//! worker is dead or wedged. Either way the coordinator kills the
//! process, requeues whatever it held, and spawns a clean replacement —
//! the same path handles EOF mid-frame (death, truncated result),
//! corrupt frames, and protocol violations. A job a healthy worker
//! *reports* as failed (`Failed` frame) is requeued without a respawn.
//! Per-job retries are bounded by [`DistConfig::max_retries`], and the
//! error that ends a run names the last cause. A job outstanding longer
//! than [`DistConfig::straggler_after`] while a worker sits idle is
//! *duplicated* onto the idle worker, not killed; results are
//! deterministic, so whichever copy lands first is the result and the
//! race is benign.

use crate::wire::{read_message, write_message, write_subtree, Message};
use crate::worker::FAULT_ENV;
use crate::DistError;
use serde::{Deserialize, Serialize};
use sparch_obs::{Counter, Recorder, ThreadRecorder, WireSpan};
use sparch_sparse::Csr;
use sparch_stream::merge::{lone_round_bands, merge_bands, MergeScratch, PartialSource};
use sparch_stream::{ExecPlan, StreamConfig, StreamError};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

/// How long a freshly spawned worker gets to connect and say `Hello`.
const SPAWN_TIMEOUT: Duration = Duration::from_secs(10);

/// Main-loop tick: straggler checks run at least this often even when
/// no worker traffic arrives.
const TICK: Duration = Duration::from_millis(50);

/// Distinguishes socket directories of coordinators in one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Configuration for a distributed run.
#[derive(Debug, Clone, PartialEq)]
pub struct DistConfig {
    /// Shard worker processes to spawn (at least 1; capped at the job
    /// count, since a worker holds one job at a time).
    pub shards: usize,
    /// Pipeline configuration shipped to every worker — the panel split
    /// and merge plan derive from it exactly as on a single node.
    pub stream: StreamConfig,
    /// How often workers heartbeat.
    pub heartbeat_interval: Duration,
    /// Read deadline on each worker socket; silence past this means the
    /// worker is declared dead and its jobs are retried.
    pub heartbeat_timeout: Duration,
    /// Duplicate a job outstanding longer than this onto an idle worker
    /// (`None` disables straggler re-dispatch).
    pub straggler_after: Option<Duration>,
    /// Times a single job may be requeued after worker failures before
    /// the run fails with [`DistError::Job`].
    pub max_retries: u64,
    /// Explicit path to the `sparch-dist-worker` binary. `None` falls
    /// back to `SPARCH_DIST_WORKER` in the environment, then to the
    /// coordinator executable's own directory.
    pub worker: Option<PathBuf>,
    /// Fault spec passed to *initial* workers via [`FAULT_ENV`]
    /// (tests only — respawned workers never inherit it).
    pub fault: Option<String>,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            shards: 2,
            stream: StreamConfig::default(),
            heartbeat_interval: Duration::from_millis(25),
            heartbeat_timeout: Duration::from_secs(2),
            straggler_after: None,
            max_retries: 3,
            worker: None,
            fault: None,
        }
    }
}

impl DistConfig {
    /// A deterministic-by-pinning config: `shards` workers, each running
    /// the single-threaded pipeline ([`StreamConfig::pinned`]). Bit
    /// identity does not require pinning — this just makes failures
    /// easier to reason about in tests and benches.
    pub fn pinned(shards: usize) -> Self {
        DistConfig {
            shards,
            stream: StreamConfig::pinned(),
            ..DistConfig::default()
        }
    }
}

/// What a distributed run did — the coordinator's flight record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DistReport {
    /// Stable layout version of this report
    /// ([`DistReport::SCHEMA_VERSION`]); bump on any field change so
    /// archived snapshot JSONs stay diffable across PRs.
    pub schema_version: u32,
    /// Worker processes requested (the fleet actually spawned is capped
    /// at `jobs`).
    pub shards: usize,
    /// Panel pairs in the split, including pruned all-empty `A` panels.
    pub panels: usize,
    /// Merge leaves (non-empty panels) — leaf multiplies in the run.
    pub partials: usize,
    /// Merge rounds in the Huffman plan, wherever they ran.
    pub merge_rounds: u64,
    /// Merger ways the plan was built with.
    pub merge_ways: usize,
    /// Subtree jobs the plan was cut into — partials that crossed the
    /// wire back.
    pub jobs: usize,
    /// Rounds above the cut, folded by the coordinator itself; the other
    /// `merge_rounds - coordinator_rounds` ran on the shards.
    pub coordinator_rounds: u64,
    /// Total job dispatches, counting retries and straggler duplicates.
    pub dispatches: u64,
    /// Jobs requeued after a worker failure.
    pub retries: u64,
    /// Replacement workers spawned after failures.
    pub respawns: u64,
    /// Worker failures detected by heartbeat silence (read deadline).
    pub heartbeat_timeouts: u64,
    /// Jobs duplicated onto an idle worker past `straggler_after`.
    pub straggler_redispatches: u64,
    /// Frame bytes the coordinator wrote to workers.
    pub wire_bytes_sent: u64,
    /// Frame bytes the coordinator read from workers.
    pub wire_bytes_received: u64,
    /// Stored entries of the result.
    pub output_nnz: u64,
}

impl DistReport {
    /// Current value of [`DistReport::schema_version`].
    pub const SCHEMA_VERSION: u32 = 2;

    /// A deterministic view for snapshot diffing: the same report with
    /// every scheduling-dependent quantity zeroed — dispatch, retry and
    /// liveness counters, and the wire traffic (which counts
    /// heartbeats, so it varies with run duration).
    pub fn without_timing(&self) -> DistReport {
        DistReport {
            dispatches: 0,
            retries: 0,
            respawns: 0,
            heartbeat_timeouts: 0,
            straggler_redispatches: 0,
            wire_bytes_sent: 0,
            wire_bytes_received: 0,
            ..self.clone()
        }
    }
}

/// Distributed SpGEMM front end — see the [module docs](self).
#[derive(Debug, Clone)]
pub struct DistCoordinator {
    config: DistConfig,
    recorder: Recorder,
}

impl DistCoordinator {
    /// A coordinator with the given configuration and tracing disabled.
    pub fn new(config: DistConfig) -> Self {
        DistCoordinator {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a recorder. Subsequent runs record a per-worker lane of
    /// dispatch/job spans, re-based worker-side `compute-subtree` spans
    /// with the shard pipeline's spans nested inside (shipped back in
    /// each `Result` frame — workers are spawned with the extra `trace`
    /// argument), a `coordinator` lane of `coordinator-merge` spans,
    /// instant events for heartbeat timeouts, retries and straggler
    /// re-dispatches, and wire-byte counters.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The coordinator's recorder (disabled unless set by
    /// [`with_recorder`](Self::with_recorder)).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The coordinator's configuration.
    pub fn config(&self) -> &DistConfig {
        &self.config
    }

    /// Computes `C = A · B` across the shard fleet. Bit-identical to
    /// [`StreamingExecutor::multiply`](sparch_stream::StreamingExecutor::multiply)
    /// under `self.config().stream` at every shard count, including runs
    /// that recover from worker failures.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()` — the same contract as every
    /// `sparch_sparse::algo` kernel.
    ///
    /// # Errors
    ///
    /// [`DistError::Job`] when a job exhausts `max_retries` (the message
    /// carries the last cause, a worker-side pipeline error included);
    /// [`DistError::Worker`]/[`DistError::Io`] when the fleet cannot be
    /// spawned or replaced. A corrupt frame or dead socket never aborts
    /// the run by itself — it fails its worker, whose jobs are retried.
    pub fn multiply(&self, a: &Csr, b: &Csr) -> Result<(Csr, DistReport), DistError> {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let cfg = &self.config.stream;
        let plan = ExecPlan::for_operand(&a.col_nnz(), cfg.panels, cfg.balance, cfg.merge_ways);
        let shards = self.config.shards.max(1);
        // Two jobs per worker: one to run and one waiting behind it, so
        // a reply is decoded (on its reader thread) and folded while the
        // worker that sent it is already computing again.
        let frontier = plan.frontier(2 * shards.min(plan.num_leaves()));
        let mut report = DistReport {
            schema_version: DistReport::SCHEMA_VERSION,
            shards,
            panels: plan.panels(),
            partials: plan.num_leaves(),
            merge_rounds: plan.num_rounds() as u64,
            merge_ways: plan.ways(),
            jobs: frontier.jobs.len(),
            coordinator_rounds: frontier.top_rounds.len() as u64,
            dispatches: 0,
            retries: 0,
            respawns: 0,
            heartbeat_timeouts: 0,
            straggler_redispatches: 0,
            wire_bytes_sent: 0,
            wire_bytes_received: 0,
            output_nnz: 0,
        };
        let Some(root) = plan.root() else {
            // Nothing to compute; do not spawn a fleet to agree on it.
            return Ok((Csr::zero(a.rows(), b.cols()), report));
        };
        let pairs = plan
            .leaf_ranges()
            .map(|r| (a.col_panel(r.clone()), b.row_panel(r.clone())))
            .collect();
        let jobs = frontier
            .jobs
            .iter()
            .map(|&node| JobState {
                node,
                leaves: plan.subtree(node).leaves,
                done: false,
                retries: 0,
                queued: true,
                assigned: Vec::new(),
                dispatched_at: None,
                dispatch_ns: 0,
                duplicated: false,
            })
            .collect::<Vec<_>>();

        let (rows, cols) = (a.rows(), b.cols());
        let result = std::thread::scope(|scope| {
            let (evt_tx, evt_rx) = channel();
            let (fold_tx, fold_rx) = channel();
            let (fold_evt, fold_lane) = (evt_tx.clone(), self.recorder.thread("coordinator"));
            scope.spawn(move || fold_stage(fold_rx, fold_evt, rows, cols, fold_lane));
            // Dropping the run (on every path out of this closure) closes
            // `fold_tx`, which ends the fold thread before the scope
            // joins it.
            Run {
                config: &self.config,
                a_rows: rows,
                b_cols: cols,
                pairs,
                plan: &plan,
                root,
                cluster: Cluster::new(&self.config, evt_tx, self.recorder.is_enabled())?,
                evt_rx,
                fold_tx,
                folds_inflight: 0,
                host_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
                ready: (0..jobs.len() as u64).collect(),
                jobs,
                results: (0..plan.num_nodes()).map(|_| None).collect(),
                report: &mut report,
                recorder: &self.recorder,
                lanes: HashMap::new(),
                wire_sent: self.recorder.counter("dist.wire_bytes_sent"),
                wire_received: self.recorder.counter("dist.wire_bytes_received"),
            }
            .drive()
        })?;
        report.output_nnz = result.nnz() as u64;
        Ok((result, report))
    }
}

/// The coordinator's own merge stage: folds each round above the cut as
/// its children land, in the row bands the run asked for, off the event
/// loop, and reports the output back through the loop's own queue. Ends
/// when the run drops its sender.
fn fold_stage(
    fold_rx: Receiver<FoldJob>,
    evt_tx: Sender<Ev>,
    rows: usize,
    cols: usize,
    mut lane: ThreadRecorder,
) {
    let mut scratch = MergeScratch::new();
    while let Ok(FoldJob {
        round,
        children,
        bands,
    }) = fold_rx.recv()
    {
        let triples: u64 = children.iter().map(|c| c.nnz() as u64).sum();
        let sources = children.into_iter().map(PartialSource::from_csr).collect();
        let span = lane.begin("dist", "coordinator-merge");
        let outcome = merge_bands(rows, cols, sources, &mut scratch, bands);
        // The span records the bands the kernel ran with (a failed round
        // counts as one).
        let ran = outcome.as_ref().map_or(1, |&(_, ran)| ran);
        let args = [
            ("round", round as u64),
            ("triples", triples),
            ("bands", ran as u64),
        ];
        lane.end_with(span, &args);
        let outcome = outcome.map(|(merged, _)| merged);
        if evt_tx.send(Ev::Folded { round, outcome }).is_err() {
            return;
        }
    }
}

/// A round above the cut handed to the fold thread: its children in
/// plan order and the row bands to fold them in.
struct FoldJob {
    round: usize,
    children: Vec<Csr>,
    bands: usize,
}

/// Dispatch bookkeeping for one job: a subtree below the cut. Job ids
/// index the frontier's heaviest-first order.
#[derive(Debug)]
struct JobState {
    /// The plan node the job produces.
    node: usize,
    /// The leaves beneath it, ascending — whose panel pairs the job
    /// frame carries.
    leaves: Vec<usize>,
    done: bool,
    retries: u64,
    /// Sitting in the ready queue right now.
    queued: bool,
    /// Worker generations currently holding a copy of this job.
    assigned: Vec<u64>,
    /// When the oldest still-outstanding dispatch happened.
    dispatched_at: Option<Instant>,
    /// The same moment in recorder-anchor nanoseconds — start of the
    /// synthesized dispatch→reply "job" span (0 when tracing is off).
    dispatch_ns: u64,
    /// A straggler duplicate was already issued for this dispatch.
    duplicated: bool,
}

/// What a reader thread reports about its worker.
enum EvKind {
    /// A decoded frame plus the wire bytes it occupied.
    Msg(Message, u64),
    /// The socket closed: `None` for clean EOF, `Some` for a read error
    /// (a [`DistError::Timeout`] here is a missed heartbeat deadline).
    Closed(Option<DistError>),
}

/// Everything the event loop waits on, in one queue.
enum Ev {
    /// From the reader thread of worker generation `gen`.
    Worker { gen: u64, kind: EvKind },
    /// From the fold thread: round `round` above the cut has folded.
    Folded {
        round: usize,
        outcome: Result<Csr, StreamError>,
    },
}

/// Byte-counting [`Read`] adapter so reader threads can report each
/// frame's wire footprint.
struct CountingReader<R> {
    inner: R,
    count: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.count += n as u64;
        Ok(n)
    }
}

/// A worker process (live or killed) and the write half of its socket.
struct Shard {
    gen: u64,
    child: Child,
    stream: UnixStream,
    /// Job ids currently outstanding on this worker (at most one).
    busy: Vec<u64>,
    alive: bool,
}

/// The spawned fleet plus the socket it listens on. Dropping the
/// cluster kills every child and removes the socket directory, so every
/// early-error path cleans up for free.
struct Cluster<'a> {
    config: &'a DistConfig,
    bin: PathBuf,
    dir: PathBuf,
    socket: PathBuf,
    listener: UnixListener,
    evt_tx: Sender<Ev>,
    shards: Vec<Shard>,
    next_gen: u64,
    stream_json: String,
    /// Spawn workers with the extra `trace` argument so they record and
    /// ship each job's spans in its `Result` frame.
    trace: bool,
}

impl Drop for Cluster<'_> {
    fn drop(&mut self) {
        for s in &mut self.shards {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

impl<'a> Cluster<'a> {
    fn new(config: &'a DistConfig, evt_tx: Sender<Ev>, trace: bool) -> Result<Self, DistError> {
        let bin = resolve_worker_bin(config)?;
        let dir = std::env::temp_dir().join(format!(
            "sparch-dist-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir)
            .map_err(|e| DistError::Io(format!("create socket dir {}: {e}", dir.display())))?;
        let socket = dir.join("sock");
        let listener = UnixListener::bind(&socket)
            .and_then(|l| {
                // Non-blocking accept lets the spawn loop poll the child
                // for an early exit instead of hanging on a worker that
                // never connects.
                l.set_nonblocking(true)?;
                Ok(l)
            })
            .map_err(|e| {
                let _ = std::fs::remove_dir_all(&dir);
                DistError::Io(format!("bind {}: {e}", socket.display()))
            })?;
        let stream_json = serde_json::to_string(&config.stream).map_err(|e| {
            let _ = std::fs::remove_dir_all(&dir);
            DistError::Worker(format!("serialize stream config: {e}"))
        })?;
        Ok(Cluster {
            config,
            bin,
            dir,
            socket,
            listener,
            evt_tx,
            shards: Vec::new(),
            next_gen: 0,
            stream_json,
            trace,
        })
    }

    /// Spawns one worker, waits for it to connect and identify itself,
    /// and starts its reader thread. Only initial workers (the first
    /// `shards` generations) see the injected fault spec — respawns get
    /// a scrubbed environment, which is what "retries land on a fresh
    /// worker" means.
    fn spawn_worker(&mut self) -> Result<(), DistError> {
        let gen = self.next_gen;
        self.next_gen += 1;
        let initial = gen < self.config.shards as u64;
        let mut cmd = Command::new(&self.bin);
        cmd.arg(&self.socket)
            .arg(gen.to_string())
            .arg(self.config.heartbeat_interval.as_millis().to_string())
            .arg(&self.stream_json)
            .stdin(Stdio::null());
        if self.trace {
            cmd.arg("trace");
        }
        match &self.config.fault {
            Some(spec) if initial => {
                cmd.env(FAULT_ENV, spec);
            }
            _ => {
                cmd.env_remove(FAULT_ENV);
            }
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| DistError::Worker(format!("spawn {}: {e}", self.bin.display())))?;

        let stream = match self.accept_worker(&mut child, gen) {
            Ok(s) => s,
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        };

        let reader = stream
            .try_clone()
            .map_err(|e| DistError::Io(format!("clone worker {gen} socket: {e}")))?;
        reader
            .set_read_timeout(Some(self.config.heartbeat_timeout))
            .map_err(|e| DistError::Io(format!("worker {gen} read deadline: {e}")))?;
        // A wedged worker stops draining its socket; bound writes too so
        // dispatch cannot hang past the liveness deadline.
        stream
            .set_write_timeout(Some(
                self.config.heartbeat_timeout.max(Duration::from_secs(1)),
            ))
            .map_err(|e| DistError::Io(format!("worker {gen} write deadline: {e}")))?;
        let tx = self.evt_tx.clone();
        std::thread::spawn(move || {
            let mut r = CountingReader {
                inner: reader,
                count: 0,
            };
            loop {
                let before = r.count;
                let kind = match read_message(&mut r) {
                    Ok(Some(msg)) => EvKind::Msg(msg, r.count - before),
                    Ok(None) => EvKind::Closed(None),
                    Err(e) => EvKind::Closed(Some(e)),
                };
                let closed = matches!(kind, EvKind::Closed(_));
                if tx.send(Ev::Worker { gen, kind }).is_err() || closed {
                    return;
                }
            }
        });

        self.shards.push(Shard {
            gen,
            child,
            stream,
            busy: Vec::new(),
            alive: true,
        });
        Ok(())
    }

    /// Accepts the connection for generation `gen` and validates its
    /// `Hello`. Workers are spawned one at a time, so the next accepted
    /// connection is the worker just spawned.
    fn accept_worker(&self, child: &mut Child, gen: u64) -> Result<UnixStream, DistError> {
        let deadline = Instant::now() + SPAWN_TIMEOUT;
        let stream = loop {
            match self.listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if let Ok(Some(status)) = child.try_wait() {
                        return Err(DistError::Worker(format!(
                            "worker {gen} exited before connecting: {status}"
                        )));
                    }
                    if Instant::now() >= deadline {
                        return Err(DistError::Timeout(format!(
                            "worker {gen} did not connect within {SPAWN_TIMEOUT:?}"
                        )));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(DistError::Io(format!("accept worker {gen}: {e}"))),
            }
        };
        stream
            .set_nonblocking(false)
            .and_then(|()| stream.set_read_timeout(Some(SPAWN_TIMEOUT)))
            .map_err(|e| DistError::Io(format!("worker {gen} socket setup: {e}")))?;
        let mut hello_side = stream
            .try_clone()
            .map_err(|e| DistError::Io(format!("clone worker {gen} socket: {e}")))?;
        match read_message(&mut hello_side)? {
            Some(Message::Hello { worker }) if worker == gen => Ok(stream),
            Some(Message::Hello { worker }) => Err(DistError::Worker(format!(
                "worker announced generation {worker}, expected {gen}"
            ))),
            Some(other) => Err(DistError::Frame(format!(
                "expected Hello, got {} frame",
                other.kind_name()
            ))),
            None => Err(DistError::Worker(format!(
                "worker {gen} closed its socket before Hello"
            ))),
        }
    }

    fn shard_index(&self, gen: u64) -> Option<usize> {
        self.shards.iter().position(|s| s.gen == gen)
    }

    fn idle_shard(&self) -> Option<usize> {
        self.shards
            .iter()
            .position(|s| s.alive && s.busy.is_empty())
    }

    /// Kills a worker process and reaps it. Idempotent.
    fn kill_shard(&mut self, idx: usize) {
        let s = &mut self.shards[idx];
        s.alive = false;
        let _ = s.child.kill();
        let _ = s.child.wait();
    }
}

/// Locates the `sparch-dist-worker` binary: explicit config, then the
/// `SPARCH_DIST_WORKER` environment variable, then next to (or one
/// directory above) the current executable — which covers both cargo
/// test binaries (`target/debug/deps/…`) and installed CLIs.
fn resolve_worker_bin(config: &DistConfig) -> Result<PathBuf, DistError> {
    if let Some(p) = &config.worker {
        return Ok(p.clone());
    }
    if let Ok(p) = std::env::var("SPARCH_DIST_WORKER") {
        return Ok(PathBuf::from(p));
    }
    if let Ok(exe) = std::env::current_exe() {
        let parents = [exe.parent(), exe.parent().and_then(|p| p.parent())];
        for dir in parents.into_iter().flatten() {
            let cand = dir.join("sparch-dist-worker");
            if cand.is_file() {
                return Ok(cand);
            }
        }
    }
    Err(DistError::Worker(
        "sparch-dist-worker binary not found: set DistConfig.worker, export \
         SPARCH_DIST_WORKER, or build it with `cargo build -p sparch-dist`"
            .into(),
    ))
}

/// All the state of one in-flight distributed multiply.
struct Run<'a> {
    config: &'a DistConfig,
    a_rows: usize,
    b_cols: usize,
    /// Leaf panel pairs, retained for the lifetime of the run so any job
    /// can be re-dispatched after a failure.
    pairs: Vec<(Csr, Csr)>,
    plan: &'a ExecPlan,
    /// The plan node holding the product; the run ends when it lands.
    root: usize,
    cluster: Cluster<'a>,
    evt_rx: Receiver<Ev>,
    /// Rounds above the cut go here the moment their children are in.
    fold_tx: Sender<FoldJob>,
    /// Rounds sent to the fold thread that have not folded yet.
    folds_inflight: usize,
    /// The host's thread count: the bands of a round folding alone.
    host_threads: usize,
    jobs: Vec<JobState>,
    /// Partial per plan node, from its job or its fold; taken (and so
    /// dropped once folded) by the round that consumes it.
    results: Vec<Option<Csr>>,
    ready: VecDeque<u64>,
    report: &'a mut DistReport,
    recorder: &'a Recorder,
    /// One trace lane per worker generation, created on first use; each
    /// carries that worker's dispatch spans, synthesized dispatch→reply
    /// "job" spans, re-based compute spans, and failure events.
    lanes: HashMap<u64, ThreadRecorder>,
    wire_sent: Counter,
    wire_received: Counter,
}

/// The lane for worker generation `gen`, created on demand. A free
/// function over the two fields so callers can hold the lane and other
/// `Run` fields mutably at once.
fn lane_for<'l>(
    lanes: &'l mut HashMap<u64, ThreadRecorder>,
    recorder: &Recorder,
    gen: u64,
) -> &'l mut ThreadRecorder {
    lanes
        .entry(gen)
        .or_insert_with(|| recorder.thread_for("worker", gen))
}

impl Run<'_> {
    /// Spawns the fleet, drives the job graph to completion, and hands
    /// back the root node's partial — the product.
    fn drive(mut self) -> Result<Csr, DistError> {
        // No point keeping more workers than jobs — a worker holds one
        // at a time.
        let fleet = self.config.shards.clamp(1, self.jobs.len());
        for _ in 0..fleet {
            self.cluster.spawn_worker()?;
        }

        while self.results[self.root].is_none() {
            self.dispatch_ready()?;
            self.duplicate_stragglers()?;
            match self.evt_rx.recv_timeout(TICK) {
                Ok(Ev::Worker { gen, kind }) => self.handle_event(gen, kind)?,
                Ok(Ev::Folded { round, outcome }) => {
                    self.folds_inflight -= 1;
                    self.landed(self.plan.round_output(round), outcome?)?;
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => {
                    // Unreachable while the cluster owns an evt_tx clone,
                    // but a lost channel must not become a busy loop.
                    return Err(DistError::Io("coordinator event channel closed".into()));
                }
            }
        }

        // Courteous shutdown; the cluster's Drop then reaps everything,
        // including wedged workers that will never read the frame.
        let codec = self.config.stream.spill_codec;
        for s in self.cluster.shards.iter_mut().filter(|s| s.alive) {
            let _ = write_message(&mut s.stream, &Message::Shutdown, codec);
        }
        Ok(self.results[self.root]
            .take()
            .expect("the loop ended on it"))
    }

    /// Node `node`'s partial is in. If that completes the children of the
    /// round consuming it — necessarily one above the cut — the round
    /// goes to the fold thread, taking its inputs with it.
    fn landed(&mut self, node: usize, partial: Csr) -> Result<(), DistError> {
        self.results[node] = Some(partial);
        let Some(round) = self.plan.consumer(node) else {
            return Ok(());
        };
        if !self
            .plan
            .round_ready(round, |child| self.results[child].is_some())
        {
            return Ok(());
        }
        let children: Vec<Csr> = self
            .plan
            .round_children(round)
            .map(|child| self.results[child].take().expect("checked ready"))
            .collect();
        // Once every job is done and no other round is folding, the
        // round has the host to itself: fold it in row bands.
        let alone = self.folds_inflight == 0 && self.jobs.iter().all(|j| j.done);
        let triples = children.iter().map(Csr::nnz).sum();
        let bands = if alone {
            lone_round_bands(triples, self.host_threads)
        } else {
            1
        };
        self.folds_inflight += 1;
        let job = FoldJob {
            round,
            children,
            bands,
        };
        self.fold_tx
            .send(job)
            .map_err(|_| DistError::Io("coordinator merge thread is gone".into()))
    }

    /// Hands ready jobs to idle workers, one job per worker.
    fn dispatch_ready(&mut self) -> Result<(), DistError> {
        while !self.ready.is_empty() {
            let Some(idx) = self.cluster.idle_shard() else {
                return Ok(());
            };
            let job = self.ready.pop_front().expect("checked non-empty");
            self.jobs[job as usize].queued = false;
            self.send_job(idx, job)?;
        }
        Ok(())
    }

    /// Issues at most one duplicate of each overdue job to idle workers.
    fn duplicate_stragglers(&mut self) -> Result<(), DistError> {
        let Some(after) = self.config.straggler_after else {
            return Ok(());
        };
        let overdue: Vec<u64> = self
            .jobs
            .iter()
            .enumerate()
            .filter(|(_, j)| {
                !j.done
                    && !j.duplicated
                    && !j.assigned.is_empty()
                    && j.dispatched_at.is_some_and(|t| t.elapsed() >= after)
            })
            .map(|(id, _)| id as u64)
            .collect();
        for job in overdue {
            let Some(idx) = self.cluster.idle_shard() else {
                return Ok(());
            };
            self.jobs[job as usize].duplicated = true;
            self.report.straggler_redispatches += 1;
            let gen = self.cluster.shards[idx].gen;
            lane_for(&mut self.lanes, self.recorder, gen).event_with(
                "dist",
                "straggler-redispatch",
                &[("job", job)],
            );
            self.send_job(idx, job)?;
        }
        Ok(())
    }

    /// Writes one job to one worker, encoded straight from the retained
    /// leaf pairs. A failed write fails the worker (requeue + respawn)
    /// instead of the run.
    fn send_job(&mut self, idx: usize, job: u64) -> Result<(), DistError> {
        // Book the assignment first so a failed write finds the job on
        // the worker's manifest and requeues it like any other failure.
        let gen = self.cluster.shards[idx].gen;
        self.cluster.shards[idx].busy.push(job);
        let lane = lane_for(&mut self.lanes, self.recorder, gen);
        let state = &mut self.jobs[job as usize];
        state.assigned.push(gen);
        if state.dispatched_at.is_none() {
            state.dispatched_at = Some(Instant::now());
            state.dispatch_ns = lane.now_ns();
        }
        let pairs = state.leaves.iter().map(|&leaf| {
            let (a, b) = &self.pairs[leaf];
            (a, b)
        });
        let codec = self.config.stream.spill_codec;
        let span = lane.begin("dist", "dispatch");
        let written = write_subtree(
            &mut self.cluster.shards[idx].stream,
            job,
            self.plan,
            state.node,
            pairs,
            codec,
        );
        lane.end_with(span, &[("job", job)]);
        match written {
            Ok(bytes) => {
                self.report.wire_bytes_sent += bytes;
                self.wire_sent.add(bytes);
                self.report.dispatches += 1;
                Ok(())
            }
            Err(e) => self.fail_worker(idx, Some(e)),
        }
    }

    /// One event from a worker's reader thread.
    fn handle_event(&mut self, gen: u64, kind: EvKind) -> Result<(), DistError> {
        let Some(idx) = self.cluster.shard_index(gen) else {
            return Ok(());
        };
        if !self.cluster.shards[idx].alive {
            // Stale traffic from a worker already failed (e.g. the
            // reader's Closed after a write error killed it).
            return Ok(());
        }
        let (msg, bytes) = match kind {
            EvKind::Msg(msg, bytes) => (msg, bytes),
            EvKind::Closed(reason) => return self.fail_worker(idx, reason),
        };
        self.report.wire_bytes_received += bytes;
        self.wire_received.add(bytes);
        match msg {
            // The heartbeat's real work happened already: it reset the
            // reader thread's read deadline.
            Message::Heartbeat => Ok(()),
            Message::Result {
                job,
                partial,
                spans,
            } => self.complete_job(idx, job, partial, spans),
            Message::Failed { job, error } if (job as usize) < self.jobs.len() => {
                // The worker is fine; only its job goes back.
                self.cluster.shards[idx].busy.retain(|&j| j != job);
                self.requeue(job, gen, &error)
            }
            other => self.fail_worker(
                idx,
                Some(DistError::Frame(format!(
                    "worker {gen} sent an unexpected {} frame",
                    other.kind_name()
                ))),
            ),
        }
    }

    /// Records a worker's result, frees the worker, and unblocks the
    /// round above the cut that was waiting on it.
    fn complete_job(
        &mut self,
        idx: usize,
        job: u64,
        partial: Csr,
        spans: Vec<WireSpan>,
    ) -> Result<(), DistError> {
        let gen = self.cluster.shards[idx].gen;
        self.cluster.shards[idx].busy.retain(|&j| j != job);
        let Some(state) = self.jobs.get_mut(job as usize) else {
            return self.fail_worker(
                idx,
                Some(DistError::Frame(format!(
                    "worker {gen} answered unknown job {job}"
                ))),
            );
        };
        state.assigned.retain(|&g| g != gen);
        if state.done {
            // The slow copy of a straggler-duplicated job: the bits are
            // identical by construction, so dropping them loses nothing.
            return Ok(());
        }
        if partial.rows() != self.a_rows || partial.cols() != self.b_cols {
            return self.fail_worker(
                idx,
                Some(DistError::Shape(format!(
                    "job {job} result is {}x{}, expected {}x{}",
                    partial.rows(),
                    partial.cols(),
                    self.a_rows,
                    self.b_cols
                ))),
            );
        }
        state.done = true;
        state.dispatched_at = None;
        let (node, dispatch_ns) = (state.node, state.dispatch_ns);

        if self.recorder.is_enabled() {
            let lane = lane_for(&mut self.lanes, self.recorder, gen);
            let reply_ns = lane.now_ns();
            // The worker's clock anchor differs from ours; align its
            // spans so the latest one ends at the reply's arrival —
            // a lower bound on the true offset (encoding and wire time
            // shift spans slightly late, never early).
            if let Some(max_end) = spans.iter().map(|s| s.end_ns).max() {
                let base = reply_ns.saturating_sub(max_end);
                lane.import_rebased(&spans, base);
            }
            // The dispatch→reply interval as one synthesized span on
            // our own timeline; the compute span nests inside it, and
            // the difference between the two is wire + queue time.
            lane.import_rebased(
                &[WireSpan {
                    name: "job".into(),
                    cat: "dist".into(),
                    start_ns: dispatch_ns,
                    end_ns: reply_ns,
                    depth: 0,
                }],
                0,
            );
        }
        self.landed(node, partial)
    }

    /// Puts a job that worker `gen` held and did not finish back at the
    /// head of the queue — unless a copy of it is still running, queued
    /// or done — counting the attempt against `max_retries`.
    fn requeue(&mut self, job: u64, gen: u64, cause: &str) -> Result<(), DistError> {
        let state = &mut self.jobs[job as usize];
        state.assigned.retain(|&g| g != gen);
        if state.done || state.queued || !state.assigned.is_empty() {
            // A straggler duplicate still runs elsewhere, or the result
            // already landed — nothing to recover.
            return Ok(());
        }
        state.retries += 1;
        self.report.retries += 1;
        lane_for(&mut self.lanes, self.recorder, gen).event_with("dist", "retry", &[("job", job)]);
        if state.retries > self.config.max_retries {
            return Err(DistError::Job(format!(
                "job {job} failed {} times (last worker error: {cause})",
                state.retries
            )));
        }
        state.dispatched_at = None;
        state.duplicated = false;
        state.queued = true;
        // Retried work goes to the queue's front: it is the oldest and
        // most likely to be what the fold above the cut is waiting on.
        self.ready.push_front(job);
        Ok(())
    }

    /// Declares a worker dead: kills the process, requeues everything it
    /// held (bounded by `max_retries` per job), and spawns a clean
    /// replacement.
    fn fail_worker(&mut self, idx: usize, reason: Option<DistError>) -> Result<(), DistError> {
        if !self.cluster.shards[idx].alive {
            return Ok(());
        }
        let gen = self.cluster.shards[idx].gen;
        if matches!(reason, Some(DistError::Timeout(_))) {
            self.report.heartbeat_timeouts += 1;
            lane_for(&mut self.lanes, self.recorder, gen).event("dist", "heartbeat-timeout");
        }
        self.cluster.kill_shard(idx);
        let cause = reason.map_or_else(|| "socket closed".into(), |e| e.to_string());
        for job in std::mem::take(&mut self.cluster.shards[idx].busy) {
            self.requeue(job, gen, &cause)?;
        }
        self.report.respawns += 1;
        self.cluster.spawn_worker()
    }
}
