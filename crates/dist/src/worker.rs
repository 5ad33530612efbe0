//! The shard worker: one process, one socket, the existing pipeline.
//!
//! A worker connects to the coordinator's Unix socket, announces itself
//! with `Hello`, starts a heartbeat thread, and then serves **subtree
//! jobs** until `Shutdown` or EOF. A job frame carries the fleet's plan
//! (as the panel sizes it is rebuilt from), the node to produce, and the
//! panel pairs of the leaves beneath that node; the worker runs that
//! subtree — the leaf multiplies *and* the merge rounds, each round's
//! children in the plan's fold order — through the *existing*
//! [`StreamingExecutor`] pipeline
//! ([`multiply_subtree`](StreamingExecutor::multiply_subtree)), so the
//! partial is exactly the bits the single-node run holds at that node.
//! Budget, spill and merge-worker settings from the shipped
//! [`StreamConfig`] apply per shard — a zero budget spills every partial
//! locally and streams it back, bit-exactly. Partials are merged where
//! they were made: only the subtree's one output crosses the wire.
//!
//! A job is a pure function of its frame, which is what makes the
//! coordinator's retry/duplicate logic sound. A job the pipeline
//! rejects (the panels disagree with the plan, the spill directory is
//! unwritable) is answered with a `Failed` frame carrying the error
//! text; the worker stays up.
//!
//! **Fault injection** (tests only): `SPARCH_DIST_FAULT=<id>:<kind>[:<ms>]`
//! arms a fault on the worker whose generation id matches `<id>`:
//! `die` exits mid-job after claiming one, `mute` suppresses all
//! heartbeats and wedges on the first job (only the read deadline can
//! notice), `truncate` computes the result but writes only half its
//! frame before exiting, and `stall:<ms>` sleeps before each job while
//! heartbeats continue — a straggler, not a corpse. Respawned workers
//! never inherit the variable, so retries always land on a clean
//! process.

use crate::wire::{read_message, write_message, Message};
use crate::DistError;
use sparch_obs::{Recorder, WireSpan};
use sparch_sparse::Csr;
use sparch_stream::{ExecPlan, SpillCodec, StreamConfig, StreamError, StreamingExecutor};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Environment variable carrying a fault spec (see module docs).
pub const FAULT_ENV: &str = "SPARCH_DIST_FAULT";

/// An injected failure mode, parsed from [`FAULT_ENV`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Exit(3) immediately after claiming a job — death mid-job.
    Die,
    /// Never heartbeat; wedge forever on the first job.
    Mute,
    /// Compute the result, write half its frame, exit(4).
    Truncate,
    /// Sleep this long before each job; keep heartbeating (straggler).
    Stall(Duration),
}

fn fault_for(worker: u64) -> Option<Fault> {
    let spec = std::env::var(FAULT_ENV).ok()?;
    let mut parts = spec.splitn(3, ':');
    let id: u64 = parts.next()?.parse().ok()?;
    if id != worker {
        return None;
    }
    match (parts.next()?, parts.next()) {
        ("die", _) => Some(Fault::Die),
        ("mute", _) => Some(Fault::Mute),
        ("truncate", _) => Some(Fault::Truncate),
        ("stall", Some(ms)) => Some(Fault::Stall(Duration::from_millis(ms.parse().ok()?))),
        _ => None,
    }
}

/// Entry point behind the `sparch-dist-worker` binary:
/// `<socket> <worker_id> <heartbeat_ms> <stream_config_json> [trace]`.
/// The optional trailing `trace` literal turns on span recording — the
/// worker's and the pipeline's; spans ship back inside each `Result`
/// frame.
pub fn run_from_args(args: &[String]) -> Result<(), DistError> {
    if args.len() != 4 && args.len() != 5 {
        return Err(DistError::Worker(format!(
            "expected <socket> <worker_id> <heartbeat_ms> <stream_config_json> [trace], \
             got {} args",
            args.len()
        )));
    }
    let trace = match args.get(4).map(String::as_str) {
        None => false,
        Some("trace") => true,
        Some(other) => {
            return Err(DistError::Worker(format!(
                "unknown trailing argument {other:?} (expected \"trace\")"
            )))
        }
    };
    let worker: u64 = args[1]
        .parse()
        .map_err(|_| DistError::Worker(format!("bad worker id {:?}", args[1])))?;
    let heartbeat_ms: u64 = args[2]
        .parse()
        .map_err(|_| DistError::Worker(format!("bad heartbeat interval {:?}", args[2])))?;
    let config: StreamConfig = serde_json::from_str(&args[3])
        .map_err(|e| DistError::Worker(format!("bad stream config: {e}")))?;
    run(
        Path::new(&args[0]),
        worker,
        Duration::from_millis(heartbeat_ms),
        config,
        trace,
    )
}

/// Connects to the coordinator and serves jobs until shutdown. With
/// `trace` on, each job is recorded as one `compute-subtree` span with
/// the pipeline's own spans (`read-panel`, `merge-round`, …) nested in
/// it (worker-clock timestamps), shipped in the job's `Result` frame.
pub fn run(
    socket: &Path,
    worker: u64,
    heartbeat: Duration,
    config: StreamConfig,
    trace: bool,
) -> Result<(), DistError> {
    let fault = fault_for(worker);
    let codec = config.spill_codec;
    let mut read_side = UnixStream::connect(socket)
        .map_err(|e| DistError::Io(format!("connect {}: {e}", socket.display())))?;
    let write_side = Arc::new(Mutex::new(
        read_side
            .try_clone()
            .map_err(|e| DistError::Io(e.to_string()))?,
    ));

    send(&write_side, &Message::Hello { worker }, codec)?;

    if fault != Some(Fault::Mute) {
        // The heartbeat thread shares the write lock with result sends,
        // so frames never interleave. It dies with the process (or when
        // the peer closes and the write errors out).
        let beat_side = Arc::clone(&write_side);
        std::thread::spawn(move || loop {
            std::thread::sleep(heartbeat);
            let mut w = beat_side.lock().unwrap_or_else(|e| e.into_inner());
            if write_message(&mut *w, &Message::Heartbeat, SpillCodec::Raw).is_err() {
                break;
            }
        });
    }

    let recorder = if trace {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let mut lane = recorder.thread_for("shard", worker);
    let executor = StreamingExecutor::new(config).with_recorder(recorder.clone());
    loop {
        let (job, plan, node, pairs) = match read_message(&mut read_side)? {
            None | Some(Message::Shutdown) => return Ok(()),
            Some(Message::Subtree {
                job,
                plan,
                node,
                pairs,
            }) => (job, plan, node, pairs),
            Some(other) => {
                return Err(DistError::Frame(format!(
                    "worker received unexpected {} frame",
                    other.kind_name()
                )));
            }
        };
        on_job_claimed(fault);
        let span = lane.begin("dist", "compute-subtree");
        let outcome = run_subtree(&executor, plan, node, pairs);
        lane.end(span);
        // The pipeline's lanes drained into the recorder when the run
        // joined its stages; they ship one level beneath the span that
        // contains them all.
        let mut spans = lane.take_wire_spans();
        spans.extend(recorder.drain("shard").spans.into_iter().map(|s| WireSpan {
            name: s.name,
            cat: s.cat,
            start_ns: s.start_ns,
            end_ns: s.end_ns,
            depth: s.depth + 1,
        }));
        let reply = match outcome {
            Ok(partial) => Message::Result {
                job,
                partial,
                spans,
            },
            Err(e) => Message::Failed {
                job,
                error: e.to_string(),
            },
        };
        send_reply(&write_side, &reply, codec, fault)?;
    }
}

/// Runs one job through the pipeline. The output shape is the panels':
/// every `A` panel has the product's rows, every `B` panel its columns.
fn run_subtree(
    executor: &StreamingExecutor,
    plan: ExecPlan,
    node: u64,
    pairs: Vec<(Csr, Csr)>,
) -> Result<Csr, StreamError> {
    let Some((a, b)) = pairs.first() else {
        return Err(StreamError::Shape(
            "subtree job carries no panel pairs".into(),
        ));
    };
    let (rows, cols) = (a.rows(), b.cols());
    executor
        .multiply_subtree(rows, cols, plan, node as usize, pairs)
        .map(|(partial, _report)| partial)
}

/// Applies pre-compute faults the moment a job is claimed.
fn on_job_claimed(fault: Option<Fault>) {
    match fault {
        // Death mid-job: the job was claimed, no result will come.
        Some(Fault::Die) => std::process::exit(3),
        // Heartbeats are already suppressed; wedge so the only signal
        // the coordinator ever gets is the read deadline expiring.
        Some(Fault::Mute) => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
        Some(Fault::Stall(delay)) => std::thread::sleep(delay),
        _ => {}
    }
}

fn send(
    write_side: &Arc<Mutex<UnixStream>>,
    msg: &Message,
    codec: SpillCodec,
) -> Result<u64, DistError> {
    let mut w = write_side.lock().unwrap_or_else(|e| e.into_inner());
    write_message(&mut *w, msg, codec)
}

fn send_reply(
    write_side: &Arc<Mutex<UnixStream>>,
    msg: &Message,
    codec: SpillCodec,
    fault: Option<Fault>,
) -> Result<(), DistError> {
    if fault == Some(Fault::Truncate) {
        // Serialize the full frame, put half of it on the wire, vanish:
        // the coordinator sees a mid-frame EOF on a claimed job.
        let mut frame = Vec::new();
        write_message(&mut frame, msg, codec)?;
        use std::io::Write;
        let mut w = write_side.lock().unwrap_or_else(|e| e.into_inner());
        let _ = w.write_all(&frame[..frame.len() / 2]);
        let _ = w.flush();
        std::process::exit(4);
    }
    send(write_side, msg, codec)?;
    Ok(())
}
