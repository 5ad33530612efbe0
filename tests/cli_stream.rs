//! `sparch-cli stream` driven as a program: the unhappy paths end in an
//! exit code and a message (never a backtrace), the paper's `A²` shape
//! verifies against `gustavson`, and no run — failed or not — leaves a
//! file in its temp dir. Every child gets its own `TMPDIR`, so the tests
//! share no state.

use sparch::sparse::{gen, mm};
use sparch::stream::tempdir::TempDir;
use std::path::Path;
use std::process::{Command, Output};

/// Runs `sparch-cli <args>` with `tmp` as its temp dir.
fn cli(tmp: &Path, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sparch-cli"))
        .args(args.split_whitespace())
        .env("TMPDIR", tmp)
        .output()
        .expect("spawn sparch-cli")
}

/// Runs `sparch-cli stream --a <a> <flags>` with `tmp` as its temp dir.
fn stream(tmp: &Path, a: &str, flags: &str) -> Output {
    cli(tmp, &format!("stream --a {a} {flags}"))
}

/// A scratch dir holding `a.mtx` (big enough that panel buckets overflow
/// into the reader's staging run) and an empty `tmp/` for the child.
fn fixture(tag: &str) -> (TempDir, String) {
    let dir = TempDir::new(tag);
    std::fs::create_dir(dir.file("tmp")).expect("create child temp dir");
    let a = gen::rmat_graph500(2048, 12, 5);
    mm::write_file(dir.file("a.mtx"), &a.to_coo()).expect("write operand");
    let a_path = dir.file("a.mtx").to_str().expect("utf-8 path").to_owned();
    (dir, a_path)
}

fn assert_empty(dir: &Path) {
    let left: Vec<_> = std::fs::read_dir(dir)
        .expect("list temp dir")
        .map(|entry| entry.expect("dir entry").file_name())
        .collect();
    assert!(left.is_empty(), "left in {}: {left:?}", dir.display());
}

/// `sparch-cli <command> <flag> lots` ends in the usage text and exit
/// code 2, naming the flag — before any file is opened.
fn assert_usage_error(tmp: &Path, command: &str, flag: &str) {
    let out = cli(tmp, &format!("{command} {flag} lots"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{command} {flag}: {stderr}");
    assert!(
        stderr.contains(flag) && stderr.contains("usage:"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{command} {flag}: {stderr}");
}

#[test]
fn non_numeric_flag_values_are_usage_errors() {
    // Flags are parsed before any file is opened — in every subcommand.
    let tmp = TempDir::new("cli_bad_flag");
    for (command, flag) in [
        ("stream --a absent.mtx", "--panels"),
        ("stream --a absent.mtx", "--ways"),
        ("stream --a absent.mtx", "--budget-mb"),
        ("stream --a absent.mtx", "--threads"),
        ("stream --a absent.mtx", "--balance"),
        ("multiply --a absent.mtx", "--layers"),
        ("generate --out absent.mtx", "--n"),
        ("generate --out absent.mtx", "--degree"),
        ("generate --out absent.mtx", "--seed"),
        ("batch --file absent.json", "--threads"),
        ("dist --a absent.mtx", "--shards"),
        ("dist --a absent.mtx", "--panels"),
        ("dist --a absent.mtx", "--budget-mb"),
    ] {
        assert_usage_error(tmp.path(), command, flag);
    }
}

#[test]
fn a_flag_the_subcommand_does_not_read_is_a_usage_error() {
    // Each flag here is another subcommand's, or a retired one.
    let tmp = TempDir::new("cli_unknown_flag");
    for (command, flag) in [
        ("multiply --a absent.mtx", "--panels"),
        ("generate --out absent.mtx", "--a"),
        ("stats --a absent.mtx", "--b"),
        ("batch --file absent.json", "--a"),
        ("stream --a absent.mtx", "--merge-workers"),
        ("dist --a absent.mtx", "--ways"),
        ("trace-check --file absent.json", "--verify"),
    ] {
        assert_usage_error(tmp.path(), command, flag);
    }
}

#[test]
fn a_default_policy_batch_runs_every_step_on_gustavson() {
    let dir = TempDir::new("cli_batch_default");
    let requests = dir.file("requests.json");
    std::fs::write(
        &requests,
        r#"{
          "operands": [
            {"name": "g", "spec": {"Gen": {"recipe": {"Rmat": {"n": 64, "avg_degree": 4}}, "seed": 1}}},
            {"name": "u", "spec": {"Gen": {"recipe": {"Uniform": {"rows": 64, "cols": 64, "nnz": 256}}, "seed": 2}}}
          ],
          "requests": [
            {"Single": {"a": "g", "b": "u"}},
            {"Chain": {"operands": ["g", "u", "g"]}},
            {"Power": {"a": "g", "k": 3, "threshold": 0.0}},
            {"Masked": {"a": "g", "b": "g", "mask": "u"}}
          ]
        }"#,
    )
    .expect("write requests");
    let json = dir.file("report.json");
    // `--reference-calibration` is a retired flag: old command lines
    // still run, and mean what the default now means.
    let out = Command::new(env!("CARGO_BIN_EXE_sparch-cli"))
        .args(["batch", "--threads", "2", "--reference-calibration"])
        .arg("--file")
        .arg(&requests)
        .arg("--json")
        .arg(&json)
        .output()
        .expect("spawn sparch-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let report: sparch::serve::BatchReport =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("read report"))
            .expect("parse report");
    assert_eq!(report.policy, "adaptive");
    assert_eq!(report.total_steps, 1 + 2 + 2 + 1);
    for steps in &report.backend_steps {
        let want = if steps.backend == "gustavson" { 6 } else { 0 };
        assert_eq!(steps.steps, want, "{}", steps.backend);
    }
    assert!(report
        .requests
        .iter()
        .flat_map(|r| &r.backends)
        .all(|b| b == "gustavson"));
}

#[test]
fn a_tuned_run_plans_for_the_threads_it_runs_on() {
    // No `--threads`: the pipeline takes its count from SPARCH_THREADS,
    // so the planner must target the same 3 — its panel floor and its
    // "nnz balance only with workers to balance" rule (the fixture's
    // column skew is far past the threshold) both show it did. A
    // planner targeting one thread would pick 2 uniform panels here.
    let (dir, a) = fixture("cli_tuned_threads");
    let json = dir.file("report.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sparch-cli"))
        .args([
            "stream",
            "--a",
            &a,
            "--tune",
            "--budget-mb",
            "4096",
            "--json",
        ])
        .arg(&json)
        .env("TMPDIR", dir.file("tmp"))
        .env("SPARCH_THREADS", "3")
        .output()
        .expect("spawn sparch-cli");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let report: sparch::stream::StreamReport =
        serde_json::from_str(&std::fs::read_to_string(&json).expect("read report"))
            .expect("parse report");
    assert_eq!(report.threads, 3);
    assert!(report.panels >= 3, "{} panels", report.panels);
    assert_eq!(report.balance, sparch::stream::PanelBalance::Nnz);
}

#[test]
fn squaring_one_file_verifies_and_leaves_the_temp_dir_empty() {
    let (dir, a) = fixture("cli_square");
    let tmp = dir.file("tmp");
    // Fixed knobs, then the planner's (whose histogram the nnz-balanced
    // split reuses): the same verified product either way.
    for flags in [
        "--panels 8 --balance nnz --budget-mb 0 --verify",
        "--panels auto --budget-mb 1 --verify",
    ] {
        let out = stream(&tmp, &a, flags);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{flags}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("verification: OK"), "{flags}: {stdout}");
        assert_empty(&tmp);
    }
}

#[test]
fn a_truncated_operand_fails_with_the_count_message_and_a_clean_temp_dir() {
    let (dir, a) = fixture("cli_truncated");
    let tmp = dir.file("tmp");
    // Drop the last 100 entry lines: the header still declares them.
    let text = std::fs::read_to_string(&a).expect("read operand");
    let declared = mm::read_panels(&a, 1).expect("open operand").declared_nnz();
    let kept: Vec<&str> = text.lines().collect();
    std::fs::write(&a, kept[..kept.len() - 100].join("\n")).expect("truncate operand");
    let want = format!("declared {declared} entries but found {}", declared - 100);

    // Both balance modes fail in the histogram scan the plan is built
    // from, before either panel reader opens.
    for balance in ["nnz", "uniform"] {
        let out = stream(&tmp, &a, &format!("--panels 8 --balance {balance}"));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{balance}: {stderr}");
        assert!(stderr.contains(&want), "{balance}: {stderr}");
        assert_empty(&tmp);
    }
}

#[test]
fn an_unwritable_json_path_fails_with_the_path_and_no_panic() {
    let (dir, a) = fixture("cli_unwritable_json");
    let tmp = dir.file("tmp");
    let json = dir.file("missing-dir").join("r.json");
    let json = json.to_str().expect("utf-8 path");
    let out = stream(&tmp, &a, &format!("--panels 4 --json {json}"));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains(&format!("failed to write {json}")),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_empty(&tmp);
}
