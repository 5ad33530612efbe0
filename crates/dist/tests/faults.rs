//! Fault-injection harness: every failure class the coordinator claims
//! to survive, exercised against a real fleet.
//!
//! Each test arms one fault on worker 0 via the `SPARCH_DIST_FAULT`
//! environment variable (only initial workers inherit it — respawns are
//! clean by construction) and then asserts two things: the final CSR is
//! **bit-identical** to the single-node streaming run, and the
//! coordinator's report records the recovery it performed (retries,
//! respawns, heartbeat timeouts, straggler duplicates). The plan is
//! shaped so the job worker 0 claims first is a real *subtree* — two
//! leaf multiplies and the round folding them — not a bare leaf.

mod common;

use common::{assert_bits_equal, dist_config, plan_of};
use sparch_dist::{DistConfig, DistCoordinator, DistError, DistReport};
use sparch_sparse::{gen, Csr};
use sparch_stream::{StreamConfig, StreamingExecutor};
use std::time::Duration;

fn operands() -> (Csr, Csr) {
    (
        gen::uniform_random(48, 40, 520, 81),
        gen::uniform_random(40, 44, 480, 82),
    )
}

/// Single-node reference under the same stream config.
fn reference(a: &Csr, b: &Csr, stream: &StreamConfig) -> Csr {
    StreamingExecutor::new(stream.clone())
        .multiply(a, b)
        .expect("single-node reference run")
        .0
}

/// Two shards over eight nnz-balanced panels folded two at a time: the
/// cut is four two-leaf subtrees under a three-round top.
fn subtree_config() -> DistConfig {
    DistConfig {
        stream: StreamConfig {
            panels: 8,
            merge_ways: 2,
            ..StreamConfig::pinned()
        },
        ..dist_config(2)
    }
}

fn faulty_config(fault: &str) -> DistConfig {
    DistConfig {
        fault: Some(fault.into()),
        ..subtree_config()
    }
}

/// The fault landed on a subtree job: the first job out — the one
/// worker 0 claims — is a round node of the plan, not a leaf.
fn assert_first_job_is_a_subtree(a: &Csr, cfg: &DistConfig, report: &DistReport) {
    let plan = plan_of(a, &cfg.stream);
    let cut = plan.frontier(2 * cfg.shards);
    assert_eq!(report.jobs, cut.jobs.len());
    assert!(report.jobs < report.partials, "report: {report:?}");
    assert!(
        plan.subtree(cut.jobs[0]).rounds.len() == 1,
        "the heaviest job should be a two-leaf subtree: {cut:?}"
    );
}

#[test]
fn worker_killed_mid_panel_is_retried_on_a_fresh_worker() {
    let (a, b) = operands();
    let cfg = faulty_config("0:die");
    let expected = reference(&a, &b, &cfg.stream);
    let (c, report) = DistCoordinator::new(cfg.clone())
        .multiply(&a, &b)
        .expect("run must survive a worker death");
    assert_bits_equal(&c, &expected, "death mid-subtree");
    assert_first_job_is_a_subtree(&a, &cfg, &report);
    assert!(
        report.retries >= 1,
        "the dead worker's job must be retried, report: {report:?}"
    );
    assert!(
        report.respawns >= 1,
        "a replacement worker must be spawned, report: {report:?}"
    );
}

#[test]
fn dropped_heartbeat_is_detected_by_the_read_deadline() {
    let (a, b) = operands();
    // The mute worker never heartbeats and wedges on its first job, so
    // the *only* signal is the reader's deadline expiring. Short
    // timeout keeps the test quick; the interval stays well under it so
    // healthy workers are never misdeclared.
    let cfg = DistConfig {
        heartbeat_interval: Duration::from_millis(20),
        heartbeat_timeout: Duration::from_millis(300),
        ..faulty_config("0:mute")
    };
    let expected = reference(&a, &b, &cfg.stream);
    let (c, report) = DistCoordinator::new(cfg.clone())
        .multiply(&a, &b)
        .expect("run must survive a muted worker");
    assert_bits_equal(&c, &expected, "dropped heartbeat");
    assert_first_job_is_a_subtree(&a, &cfg, &report);
    assert!(
        report.heartbeat_timeouts >= 1,
        "silence must be detected as a timeout, report: {report:?}"
    );
    assert!(report.retries >= 1, "report: {report:?}");
    assert!(report.respawns >= 1, "report: {report:?}");
}

#[test]
fn truncated_result_stream_is_a_typed_failure_and_retried() {
    let (a, b) = operands();
    // The worker computes the right answer, writes half the result
    // frame, and exits: the coordinator must treat the mid-frame EOF as
    // that worker's failure — never parse a partial frame — and rerun
    // the job elsewhere.
    let cfg = faulty_config("0:truncate");
    let expected = reference(&a, &b, &cfg.stream);
    let (c, report) = DistCoordinator::new(cfg.clone())
        .multiply(&a, &b)
        .expect("run must survive a truncated result");
    assert_bits_equal(&c, &expected, "truncated result stream");
    assert_first_job_is_a_subtree(&a, &cfg, &report);
    assert!(report.retries >= 1, "report: {report:?}");
    assert!(report.respawns >= 1, "report: {report:?}");
}

#[test]
fn recovery_survives_every_budgeted_spill_path_too() {
    // Same death fault, but with a zero budget the surviving workers
    // spill every partial locally and stream it back — recovery and
    // out-of-core operation compose.
    let (a, b) = operands();
    let mut cfg = faulty_config("0:die");
    cfg.stream.budget = sparch_stream::MemoryBudget::from_bytes(0);
    let expected = reference(&a, &b, &cfg.stream);
    let (c, report) = DistCoordinator::new(cfg)
        .multiply(&a, &b)
        .expect("run must survive death with spilling enabled");
    assert_bits_equal(&c, &expected, "death with zero budget");
    assert!(report.retries >= 1, "report: {report:?}");
}

#[test]
fn job_that_always_fails_exhausts_retries_with_a_typed_error() {
    let (a, b) = operands();
    // A single shard with a die fault and zero retries: the first
    // failure must surface as DistError::Job, not a hang or a panic.
    let cfg = DistConfig {
        max_retries: 0,
        ..faulty_config("0:die")
    };
    let cfg = DistConfig { shards: 1, ..cfg };
    match DistCoordinator::new(cfg).multiply(&a, &b) {
        Err(DistError::Job(msg)) => {
            assert!(msg.contains("failed"), "job error should say so: {msg}");
        }
        other => panic!("expected DistError::Job, got {other:?}"),
    }
}

#[test]
fn stalled_subtree_is_duplicated_not_killed() {
    let (a, b) = operands();
    // Worker 0 sleeps before its subtree job while heartbeating: the
    // whole subtree is re-sent to the idle worker, first result wins.
    let cfg = DistConfig {
        straggler_after: Some(Duration::from_millis(50)),
        ..faulty_config("0:stall:400")
    };
    let expected = reference(&a, &b, &cfg.stream);
    let (c, report) = DistCoordinator::new(cfg.clone())
        .multiply(&a, &b)
        .expect("run must route around a straggler");
    assert_bits_equal(&c, &expected, "stalled subtree");
    assert_first_job_is_a_subtree(&a, &cfg, &report);
    assert!(report.straggler_redispatches >= 1, "report: {report:?}");
    assert_eq!((report.heartbeat_timeouts, report.respawns), (0, 0));
}

#[test]
fn a_job_the_pipeline_rejects_names_its_cause() {
    let (a, b) = operands();
    // A zero budget makes every shard spill — sixteen panels give every
    // job a subtree of several rounds, whose inner outputs go to disk —
    // and the spill directory is a path under a regular file: every job
    // fails inside the worker's pipeline with an I/O error,
    // deterministically. The run must end with the pipeline's own
    // message, not a guess about the socket.
    let blocker = std::env::temp_dir().join(format!("sparch-dist-faults-{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").expect("create blocker file");
    let mut cfg = subtree_config();
    cfg.stream.panels = 16;
    cfg.stream.budget = sparch_stream::MemoryBudget::from_bytes(0);
    cfg.stream.spill_dir = Some(blocker.join("spills"));
    let outcome = DistCoordinator::new(cfg).multiply(&a, &b);
    std::fs::remove_file(&blocker).expect("remove blocker file");
    match outcome {
        Err(DistError::Job(msg)) => {
            assert!(msg.contains("failed 4 times"), "{msg}");
            assert!(msg.contains("spill dir"), "the cause must come home: {msg}");
            assert!(!msg.contains("socket closed"), "{msg}");
        }
        other => panic!("expected DistError::Job, got {other:?}"),
    }
}
