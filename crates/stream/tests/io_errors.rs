//! Injected-failure coverage for the pipeline's spill I/O paths.
//!
//! The guarantee under test: when the spill volume fails mid-run — here
//! injected by pointing `spill_dir` under a regular file, which fails
//! exactly like a full disk does (`create_dir_all`/`create` error) —
//! the run resolves to a typed [`StreamError::Io`] whose message names
//! the offending path. No panic on the writer thread and no hang, at
//! one merge worker and at two.

use sparch_sparse::gen;
use sparch_stream::{MemoryBudget, StreamConfig, StreamError, StreamingExecutor};

fn blocked_spill_dir(tag: &str) -> std::path::PathBuf {
    let blocker = std::env::temp_dir().join(format!("sparch_ioerr_{tag}_{}", std::process::id()));
    std::fs::write(&blocker, b"i am a file, not a directory").unwrap();
    blocker.join("spills")
}

/// A zero budget forces every round output but the root's through the
/// spill writer (two-way rounds over four leaves give two of them); with
/// the spill directory uncreatable the run must fail with `Io` and the
/// error must name the path, at one merge worker and at two.
#[test]
fn spill_failure_surfaces_as_io_error_with_path_context() {
    let a = gen::uniform_random(48, 48, 400, 21);
    let b = gen::uniform_random(48, 48, 400, 22);
    for threads in [1usize, 2] {
        let spill_dir = blocked_spill_dir(&format!("t{threads}"));
        let exec = StreamingExecutor::new(StreamConfig {
            budget: MemoryBudget::from_bytes(0),
            panels: 4,
            merge_ways: 2,
            threads: Some(threads),
            spill_dir: Some(spill_dir.clone()),
            ..StreamConfig::default()
        });
        match exec.multiply(&a, &b) {
            Err(StreamError::Io(msg)) => {
                let parent = spill_dir.parent().unwrap();
                assert!(
                    msg.contains(&*parent.to_string_lossy()) || msg.contains("spill"),
                    "error should carry spill-path context, got: {msg}"
                );
            }
            Err(other) => panic!("expected Io error, got {other:?}"),
            Ok(_) => panic!("run must fail when the spill volume is unusable"),
        }
        let _ = std::fs::remove_file(spill_dir.parent().unwrap());
    }
}

/// The same failure injected while the pipeline is already deep in a run
/// (non-zero budget, so spilling starts only under pressure) still
/// resolves to an error, not a wedge: the orchestrator aborts the reader
/// and drains every stage.
#[test]
fn late_spill_failure_aborts_cleanly() {
    let a = gen::rmat_graph500(128, 8, 31);
    let spill_dir = blocked_spill_dir("late");
    let exec = StreamingExecutor::new(StreamConfig {
        // Small but non-zero: the first round outputs fit, pressure
        // builds, then the first eviction hits the broken volume.
        budget: MemoryBudget::from_kb(8),
        panels: 6,
        merge_ways: 2,
        threads: Some(2),
        spill_dir: Some(spill_dir.clone()),
        ..StreamConfig::default()
    });
    match exec.multiply(&a, &a) {
        Err(StreamError::Io(_)) => {}
        Err(other) => panic!("expected Io error, got {other:?}"),
        Ok(_) => panic!("run must fail when the spill volume is unusable"),
    }
    let _ = std::fs::remove_file(spill_dir.parent().unwrap());
}

/// Sanity twin: an identical run with a *working* spill dir succeeds and
/// matches the dense reference — so the failures above are the injected
/// fault, not the configuration.
#[test]
fn control_run_with_working_spill_dir_succeeds() {
    let a = gen::uniform_random(48, 48, 400, 21);
    let b = gen::uniform_random(48, 48, 400, 22);
    let exec = StreamingExecutor::new(StreamConfig {
        budget: MemoryBudget::from_bytes(0),
        panels: 4,
        merge_ways: 2,
        threads: Some(2),
        ..StreamConfig::default()
    });
    let (c, report) = exec.multiply(&a, &b).unwrap();
    assert!(report.spill_writes > 0, "budget 0 must spill");
    assert!(c.approx_eq(&sparch_sparse::algo::gustavson(&a, &b), 1e-12));
}
