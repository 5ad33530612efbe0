//! Wire-framing properties across a *real* process boundary, plus the
//! read-deadline guarantee the liveness detector rests on.
//!
//! The in-memory corruption grid (truncation at every byte of every
//! frame kind, bad magic, lying lengths and counts, corrupt matrix
//! blocks) lives in `src/wire.rs`'s unit tests; these tests put actual
//! Unix sockets, worker processes and the worker loop on the other end
//! of the frame.

mod common;

use common::{assert_bits_equal, dist_config};
use sparch_dist::{read_message, write_message, DistCoordinator, DistError, Message};
use sparch_sparse::gen;
use sparch_stream::{ExecPlan, SpillCodec, StreamConfig, StreamingExecutor};
use std::io::Write;
use std::os::unix::net::{UnixListener, UnixStream};
use std::time::{Duration, Instant};

#[test]
fn frames_round_trip_through_a_worker_process_over_the_arb_grid() {
    // Every panel pair crosses the socket to a worker and every partial
    // crosses back, so a 1-shard distributed run over the shared `arb`
    // strategies is an end-to-end SPM2 round-trip at process scope:
    // any wire corruption or codec asymmetry would break bit-equality
    // with the in-process pipeline.
    let strategy = gen::arb::spgemm_pair(24, 220, gen::arb::ValueClass::Float);
    let exec = sparch_stream::StreamingExecutor::new(StreamConfig::pinned());
    for seed in 0..6u64 {
        let (a, b) = gen::arb::sample(&strategy, seed);
        let (expected, _) = exec.multiply(&a, &b).expect("single-node run");
        let coordinator = DistCoordinator::new(dist_config(1));
        let (c, report) = coordinator
            .multiply(&a, &b)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_bits_equal(&c, &expected, &format!("arb seed {seed}"));
        if report.partials > 0 {
            assert!(
                report.wire_bytes_sent > 0 && report.wire_bytes_received > 0,
                "seed {seed}: the result did not cross the wire? report: {report:?}"
            );
        }
    }
}

#[test]
fn worker_answers_a_subtree_job_and_reports_a_rejected_one_without_dying() {
    // The worker loop itself on the far end of a real socket: a good
    // subtree frame comes back as the subtree's partial, a frame whose
    // panels disagree with its plan comes back as a `Failed` frame with
    // the pipeline's message — and the same worker then serves on.
    let a = gen::uniform_random(30, 36, 240, 31);
    let b = gen::uniform_random(36, 28, 220, 32);
    let config = StreamConfig {
        panels: 6,
        merge_ways: 2,
        ..StreamConfig::pinned()
    };
    let plan = ExecPlan::for_operand(&a.col_nnz(), config.panels, config.balance, 2);
    let node = plan.round_output(0);
    let pairs: Vec<_> = plan
        .subtree(node)
        .leaves
        .iter()
        .map(|&leaf| {
            let r = plan.leaf_range(leaf).clone();
            (a.col_panel(r.clone()), b.row_panel(r))
        })
        .collect();
    let (expected, _) = StreamingExecutor::new(config.clone())
        .multiply_subtree(a.rows(), b.cols(), plan.clone(), node, pairs.clone())
        .expect("in-process subtree run");

    let dir = std::env::temp_dir().join(format!("sparch-dist-wire-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("socket dir");
    let socket = dir.join("sock");
    let listener = UnixListener::bind(&socket).expect("bind");
    let worker = std::thread::spawn({
        let socket = socket.clone();
        move || sparch_dist::worker::run(&socket, 7, Duration::from_millis(20), config, false)
    });
    let (stream, _) = listener.accept().expect("worker connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("read deadline");
    let next_reply = || loop {
        match read_message(&mut &stream).expect("frame") {
            Some(Message::Heartbeat) => {}
            Some(other) => break other,
            None => panic!("worker closed the socket"),
        }
    };
    assert_eq!(next_reply(), Message::Hello { worker: 7 });

    let job = |job: u64, pairs: Vec<_>| Message::Subtree {
        job,
        plan: plan.clone(),
        node: node as u64,
        pairs,
    };
    let send = |msg: &Message| write_message(&mut &stream, msg, SpillCodec::Varint).expect("send");
    let mut short = pairs.clone();
    short.pop();
    send(&job(1, short));
    match next_reply() {
        Message::Failed { job: 1, error } => {
            assert!(error.contains("short of the plan"), "{error}")
        }
        other => panic!("expected a Failed frame, got {other:?}"),
    }
    send(&job(2, pairs));
    match next_reply() {
        Message::Result {
            job: 2, partial, ..
        } => assert_bits_equal(&partial, &expected, "subtree over the socket"),
        other => panic!("expected a Result frame, got {other:?}"),
    }
    send(&Message::Shutdown);
    worker
        .join()
        .expect("worker thread")
        .expect("worker exits cleanly");
    std::fs::remove_dir_all(&dir).expect("remove socket dir");
}

#[test]
fn read_deadline_turns_silence_into_a_typed_timeout() {
    // The coordinator's liveness detector is exactly this: read_message
    // on a socket with a read timeout. A silent peer must produce
    // DistError::Timeout at (roughly) the deadline — not a hang, and
    // not a generic I/O error.
    let (reader, _writer) = UnixStream::pair().expect("socketpair");
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    let mut reader = reader;
    let start = Instant::now();
    match read_message(&mut reader) {
        Err(DistError::Timeout(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(80),
        "deadline fired early: {waited:?}"
    );
    assert!(
        waited < Duration::from_secs(5),
        "deadline nowhere near the configured 100ms: {waited:?}"
    );
}

#[test]
fn mid_frame_silence_also_hits_the_deadline() {
    // A peer that sends half a header and stalls must not pin the
    // reader: each read in the frame assembly inherits the deadline.
    let (reader, mut writer) = UnixStream::pair().expect("socketpair");
    reader
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("set read timeout");
    writer.write_all(&[0x31, 0x44]).expect("partial magic");
    writer.flush().expect("flush");
    let mut reader = reader;
    match read_message(&mut reader) {
        Err(DistError::Timeout(_)) => {}
        other => panic!("expected a timeout, got {other:?}"),
    }
}

#[test]
fn garbage_from_a_peer_is_a_typed_frame_error() {
    let (reader, mut writer) = UnixStream::pair().expect("socketpair");
    writer
        .write_all(b"this is not a SPD1 frame at all........")
        .expect("write garbage");
    writer.flush().expect("flush");
    drop(writer);
    let mut reader = reader;
    match read_message(&mut reader) {
        Err(DistError::Frame(msg)) => {
            assert!(msg.contains("magic"), "should blame the magic: {msg}");
        }
        other => panic!("expected a frame error, got {other:?}"),
    }
}
