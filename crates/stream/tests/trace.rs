//! End-to-end trace export for the streaming pipeline.
//!
//! A budgeted two-thread run with an enabled recorder must produce a
//! Chrome trace that (a) parses as strict JSON, (b) contains at least
//! one complete event for every pipeline stage — `read-panel`,
//! `merge-round` (which multiplies its leaves as it folds them),
//! `spill-write`, `orchestrate` — on correctly labelled thread lanes:
//! every round of this small run folds on the calling thread, so its
//! `orchestrator` lane carries the reads, the bookkeeping and the rounds,
//! a `spill-writer` lane the spills, and no merge worker lane exists,
//! (c) attributes per-stage span time to within 1 ns of the
//! `StageReport` busy figures the same run publishes — each busy figure
//! is a sum of the very span durations, and of the `multiply_ns` share
//! each `merge-round` span records, that the trace holds, so only float
//! rounding may tell them apart — with every leaf multiplied in exactly
//! one round, and (d) counts exactly the spill bytes, raw-equivalent
//! bytes and files the report does.

use serde_json::Value;
use sparch_obs::{chrome_trace_json, Recorder};
use sparch_sparse::{algo, gen};
use sparch_stream::{MemoryBudget, StreamConfig, StreamingExecutor};

fn int_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> sparch_sparse::Csr {
    sparch_sparse::linalg::map_values(&gen::uniform_random(rows, cols, nnz, seed), |v| {
        (v * 4.0).round()
    })
}

fn str_field(event: &Value, key: &str) -> String {
    event
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("event missing string {key:?}: {event:?}"))
        .to_string()
}

#[test]
fn budgeted_two_thread_run_exports_full_stage_coverage() {
    let a = int_matrix(128, 128, 128 * 8, 31);
    let executor = StreamingExecutor::new(StreamConfig {
        budget: MemoryBudget::from_bytes(0), // force the spill path
        panels: 8,
        merge_ways: 3,
        threads: Some(2),
        ..StreamConfig::default()
    })
    .with_recorder(Recorder::enabled());

    let (c, report) = executor.multiply(&a, &a).unwrap();
    assert_eq!(c, algo::gustavson(&a, &a));

    let trace = executor.recorder().drain("stream");

    // Stage attribution: span sums vs the report's busy-seconds. Both
    // sum the same nanosecond durations, in different orders.
    let tol = 1e-9;
    let s = &report.stages;
    let close = |name: &str, expect: f64| {
        let got = trace.seconds_named(name);
        assert!(
            (got - expect).abs() <= tol,
            "{name} spans sum to {got}s, report says {expect}s"
        );
    };
    close("read-panel", s.reader_busy_seconds);
    // A round's wall time is its leaves' multiply share plus the merge
    // kernel's rest; the share is the span's `multiply_ns` argument.
    close(
        "merge-round",
        s.merge_kernel_seconds + s.multiply_kernel_seconds,
    );
    close("spill-write", s.spill_write_seconds);
    let rounds: Vec<_> = trace
        .spans
        .iter()
        .filter(|x| x.name == "merge-round")
        .collect();
    let arg = |span: &sparch_obs::Span, key: &str| {
        let found = span.args.iter().find(|x| x.key == key);
        found
            .unwrap_or_else(|| panic!("merge-round without {key}"))
            .value
    };
    let multiply: f64 = rounds
        .iter()
        .map(|r| arg(r, "multiply_ns") as f64 * 1e-9)
        .sum();
    for (what, figure) in [
        ("multiply_busy_seconds", s.multiply_busy_seconds),
        ("multiply_kernel_seconds", s.multiply_kernel_seconds),
    ] {
        assert!(
            (multiply - figure).abs() <= tol,
            "multiply_ns shares sum to {multiply}s, report's {what} is {figure}s"
        );
    }
    assert!(multiply > 0.0, "no leaf row took any time");
    let leaves: u64 = rounds.iter().map(|r| arg(r, "leaves")).sum();
    assert_eq!(
        leaves, report.partials as u64,
        "each leaf is multiplied in one round"
    );
    // Orchestrator bookkeeping + merge rounds less their multiply share
    // together are the merge stage's busy time.
    let merge_busy =
        trace.seconds_named("orchestrate") + trace.seconds_named("merge-round") - multiply;
    assert!(
        (merge_busy - s.merge_busy_seconds).abs() <= tol,
        "orchestrate + merge-round - multiply = {merge_busy}s, report says {}s",
        s.merge_busy_seconds
    );

    // Spill counters mirror the report's byte accounting exactly.
    assert_eq!(
        trace.metrics.counter("stream.spill_bytes_written"),
        report.spill_bytes_written
    );
    assert_eq!(
        trace.metrics.counter("stream.spill_bytes_raw_equivalent"),
        report.spill_bytes_raw_equivalent
    );
    assert_eq!(
        trace.metrics.counter("stream.spill_files_written"),
        report.spill_writes
    );

    // The exported Chrome trace parses strictly and covers every stage.
    let json = chrome_trace_json(&trace);
    let root: Value = serde_json::from_str(&json).expect("exporter must emit valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    for stage in ["read-panel", "merge-round", "spill-write", "orchestrate"] {
        let count = events
            .iter()
            .filter(|e| str_field(e, "ph") == "X" && str_field(e, "name") == stage)
            .count();
        assert!(count > 0, "no complete {stage} event in the export");
    }
    // Every lane that ran announces itself by name: the orchestrator and
    // the spill writer, and no merge worker or reader thread.
    let lane_names: Vec<String> = events
        .iter()
        .filter(|e| str_field(e, "ph") == "M" && str_field(e, "name") == "thread_name")
        .map(|e| {
            e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Value::as_str)
                .expect("thread_name args.name")
                .to_string()
        })
        .collect();
    for lane in ["spill-writer", "orchestrator"] {
        assert!(
            lane_names.iter().any(|n| n.starts_with(lane)),
            "no {lane} lane declared; lanes: {lane_names:?}"
        );
    }
    assert_eq!(lane_names.len(), 2, "lanes: {lane_names:?}");
    // Reads, bookkeeping and every round sit on the orchestrator lane.
    let orchestrator = trace
        .threads
        .iter()
        .find(|t| t.label.starts_with("orchestrator"))
        .expect("orchestrator lane")
        .tid;
    for stage in ["read-panel", "orchestrate", "merge-round"] {
        let spans = trace.spans.iter().filter(|x| x.name == stage);
        assert!(
            spans.clone().all(|x| x.tid == orchestrator),
            "a {stage} span off the orchestrator lane"
        );
    }
}
