//! End-to-end tracing for a distributed run.
//!
//! A two-shard run with an enabled recorder must record, per worker
//! lane: a `dispatch` span per job write, a synthesized `job` span
//! covering dispatch→reply, and — shipped back in `Result` frames and
//! re-based onto the coordinator's timeline — one worker-side
//! `compute-subtree` span per job with the shard pipeline's own
//! `read-panel` / `merge-round` spans nested inside it — one
//! `read-panel` per leaf pair plus the pull that ends each job's stream,
//! the leaves multiplied inside the shard rounds. The rounds
//! above the cut show as `coordinator-merge` spans on the coordinator's
//! lane. Wire-byte counters must equal the report's wire accounting, and
//! the Chrome export must parse.

mod common;

use common::{assert_bits_equal, dist_config};
use serde_json::Value;
use sparch_dist::DistCoordinator;
use sparch_obs::{chrome_trace_json, Recorder};
use sparch_sparse::{algo, gen, linalg};

#[test]
fn two_shard_run_traces_dispatch_compute_and_reply() {
    let a = linalg::map_values(&gen::uniform_random(72, 72, 500, 51), |v| (v * 4.0).round());
    let b = linalg::map_values(&gen::uniform_random(72, 60, 400, 52), |v| (v * 4.0).round());

    // Eight panels folded two at a time: four two-leaf subtree jobs, so
    // merge rounds run on the shards *and* on the coordinator.
    let mut config = dist_config(2);
    config.stream.panels = 8;
    config.stream.merge_ways = 2;
    let coordinator = DistCoordinator::new(config).with_recorder(Recorder::enabled());
    let (c, report) = coordinator.multiply(&a, &b).unwrap();
    assert_bits_equal(&c, &algo::gustavson(&a, &b), "traced dist run");
    assert_eq!(
        report.schema_version,
        sparch_dist::DistReport::SCHEMA_VERSION
    );

    let trace = coordinator.recorder().drain("dist");

    // Every dispatch wrote one dispatch span; every job produced one
    // dispatch→reply span and shipped one compute span home; every leaf
    // pair was read once (plus one final empty pull per job) and every
    // merge round shows exactly once — either inside a shard's subtree,
    // multiplying its leaves, or on the coordinator's lane.
    assert!(report.jobs < report.partials && report.coordinator_rounds >= 1);
    assert_eq!(trace.count_named("dispatch") as u64, report.dispatches);
    assert_eq!(trace.count_named("job"), report.jobs);
    assert_eq!(trace.count_named("compute-subtree"), report.jobs);
    assert_eq!(
        trace.count_named("read-panel"),
        report.partials + report.jobs
    );
    assert_eq!(
        trace.count_named("coordinator-merge") as u64,
        report.coordinator_rounds
    );
    assert_eq!(
        trace.count_named("merge-round") as u64,
        report.merge_rounds - report.coordinator_rounds
    );

    // Re-based worker spans nest: on each lane every compute span sits
    // inside *some* job span, and every pipeline span the worker shipped
    // sits inside some compute span, one level (or more) down.
    let inside = |inner: &sparch_obs::Span, outer: &str| {
        trace.spans.iter().any(|o| {
            o.name == outer
                && o.tid == inner.tid
                && o.start_ns <= inner.start_ns
                && inner.end_ns <= o.end_ns
        })
    };
    for span in &trace.spans {
        match span.name.as_str() {
            "compute-subtree" => assert!(inside(span, "job"), "compute span escapes its job"),
            "merge-round" | "read-panel" | "orchestrate" => assert!(
                span.depth >= 1 && inside(span, "compute-subtree"),
                "shipped {} span (depth {}) is not nested in a compute-subtree span",
                span.name,
                span.depth
            ),
            _ => {}
        }
    }
    assert!(trace
        .threads
        .iter()
        .any(|t| t.label.starts_with("coordinator-")));

    // One lane per worker generation, labelled worker-<gen>.
    assert!(
        trace
            .threads
            .iter()
            .filter(|t| t.label.starts_with("worker-"))
            .count()
            >= 2
    );

    // Wire counters mirror the report's byte accounting exactly.
    assert_eq!(
        trace.metrics.counter("dist.wire_bytes_sent"),
        report.wire_bytes_sent
    );
    assert_eq!(
        trace.metrics.counter("dist.wire_bytes_received"),
        report.wire_bytes_received
    );

    // The Chrome export parses and carries the dist categories.
    let json = chrome_trace_json(&trace);
    let root: Value = serde_json::from_str(&json).expect("exporter must emit valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_arr)
        .expect("traceEvents array");
    for name in [
        "dispatch",
        "job",
        "compute-subtree",
        "read-panel",
        "merge-round",
        "coordinator-merge",
    ] {
        assert!(
            events
                .iter()
                .any(|e| e.get("name").and_then(Value::as_str) == Some(name)),
            "no {name} event in the Chrome export"
        );
    }

    // The deterministic view drops the scheduling-dependent counters.
    let view = report.without_timing();
    assert_eq!(view.dispatches, 0);
    assert_eq!(view.wire_bytes_sent, 0);
    assert_eq!(view.output_nnz, report.output_nnz);
}

#[test]
fn untraced_run_ships_no_spans_and_empty_trace() {
    let a = linalg::map_values(&gen::uniform_random(32, 32, 150, 53), |v| (v * 4.0).round());
    let coordinator = DistCoordinator::new(dist_config(2));
    let (c, _) = coordinator.multiply(&a, &a).unwrap();
    assert_bits_equal(&c, &algo::gustavson(&a, &a), "untraced dist run");
    let trace = coordinator.recorder().drain("dist");
    assert!(trace.spans.is_empty() && trace.threads.is_empty());
}
