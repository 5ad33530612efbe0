//! Drives the built harness in `--check` mode: every layer (the shard
//! fleet and the `sparch-cli` subprocess included) at tiny orders, one
//! repetition, in seconds — so `cargo test` exercises the benchmark the
//! way the driver and a person at the terminal do.
//!
//! One test function on purpose: every run writes `out/trace-*.json` and
//! `out/result-seed*.json`, so concurrent runs would race on those files.

use serde_json::Value;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 4] = ["rmat_merge", "banded_mult", "uniform_spill", "small_many"];

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/benchmark sits two levels below the workspace root")
}

fn harness(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparch-benchmark"))
        .args(args)
        .current_dir(workspace_root())
        .output()
        .expect("spawn sparch-benchmark")
}

fn names(section: &Value) -> Vec<String> {
    section
        .as_arr()
        .expect("a list of metrics")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_owned()
        })
        .collect()
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

#[test]
fn check_mode_drives_every_layer_and_speaks_the_driver_protocol() {
    let spec = std::fs::read_to_string(workspace_root().join("BENCHMARK.json")).unwrap();
    let spec: Value = serde_json::from_str(&spec).unwrap();
    let end_to_end = names(spec.get("end_to_end").unwrap());
    let per_layer = names(spec.get("per_layer").unwrap());

    // The driver's protocol: the last stdout line is the result object,
    // with exactly the metrics of the section asked for. (The full run
    // below puts every workload through both sections.)
    for (workload, trace, expected) in [
        ("uniform_spill", "0", &end_to_end),
        ("small_many", "1", &per_layer),
    ] {
        let run = harness(&[
            "--check",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
        ]);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(run.status.success(), "{workload} --trace {trace}: {stderr}");
        let stdout = String::from_utf8(run.stdout).unwrap();
        let last: Value = serde_json::from_str(stdout.lines().last().unwrap()).unwrap();
        assert_eq!(keys(&last), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(last.get("correct"), Some(&Value::Bool(true)), "{stdout}");
        assert_eq!(last.get("failed"), Some(&Value::U64(0)), "{stdout}");
        assert!(matches!(last.get("attempted"), Some(Value::U64(n)) if *n >= 7));
        let metrics = last.get("metrics").unwrap();
        assert_eq!(&keys(metrics), expected, "{workload} --trace {trace}");
        for (name, m) in metrics.as_obj().unwrap() {
            assert_eq!(keys(m), ["value", "unit"], "{name}");
            assert!(
                !matches!(m.get("value"), Some(Value::Null)),
                "{name} is not finite"
            );
        }
    }

    // The full run: all four workloads, timed and traced, one record.
    let record = workspace_root().join("crates/benchmark/out/smoke-record.json");
    let record = record.to_str().unwrap();
    let full = harness(&["--check", "--seed", "5", "--json", record]);
    let stdout = String::from_utf8_lossy(&full.stdout);
    assert!(
        full.status.success(),
        "{stdout}\n{}",
        String::from_utf8_lossy(&full.stderr)
    );
    assert!(stdout.contains("Workload self-check"), "{stdout}");
    assert!(
        stdout.contains("ops_failed / ops_attempted: 0 / "),
        "{stdout}"
    );
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(stdout.contains(name.as_str()), "{name} is not printed");
    }

    for workload in WORKLOADS {
        let trace = workspace_root().join(format!("crates/benchmark/out/trace-{workload}.json"));
        let trace: Value = serde_json::from_str(&std::fs::read_to_string(trace).unwrap()).unwrap();
        let events = trace.get("traceEvents").and_then(Value::as_arr).unwrap();
        assert!(
            events.len() > 20,
            "{workload}: {} trace events",
            events.len()
        );
    }

    // A record compared with itself has no regression.
    let same = harness(&["compare", record, record]);
    let stdout = String::from_utf8_lossy(&same.stdout);
    assert!(same.status.success(), "{stdout}");
    assert!(
        stdout.contains("no regression") && stdout.contains("identical"),
        "{stdout}"
    );

    // Scratch (.mtx operands, spill files, sockets) is gone on exit.
    let left: Vec<_> = std::fs::read_dir(workspace_root().join("crates/benchmark/out"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with("tmp-"))
        .collect();
    assert!(left.is_empty(), "scratch left behind: {left:?}");
}
