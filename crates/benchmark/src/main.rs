//! `sparch-benchmark`: one harness, four workloads, every layer.
//!
//! ```console
//! cargo run --release -p sparch-benchmark -- --seed 77           # all workloads, timed + traced
//! cargo run --release -p sparch-benchmark -- --check             # tiny orders, < 10 s
//! cargo run --release -p sparch-benchmark -- --workload rmat_merge --seed 1 --seconds 20 --trace 0
//! cargo run --release -p sparch-benchmark -- compare out/a.json out/b.json
//! ```
//!
//! See `README.md` beside this crate for the metric tables.

mod bins;
mod compare;
mod host;
mod perlayer;
mod report;
mod run;
mod setup;
mod spec;
mod stats;
mod workloads;

use report::{RunRecord, WorkloadRecord, DETAIL_PREFIX};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use workloads::Workload;

/// Seconds one single-workload run measures for (`run_seconds` in
/// `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;
const DEFAULT_SEED: u64 = 77;

/// The benchmark's own directory, relative to the workspace root the
/// harness must be started from. Relative on purpose: the shard fleet
/// binds a Unix socket under the scratch directory, and socket paths are
/// limited to ~100 bytes, which an absolute checkout path can exceed.
const HOME: &str = "crates/benchmark";

const USAGE: &str = "\
usage: sparch-benchmark [--seed N] [--seconds S] [--check] [--json FILE]
       sparch-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--check]
       sparch-benchmark compare BASE.json NEW.json

  --seed N        workload seed (default 77); the same seed gives the same inputs
  --seconds S     seconds each single-workload run measures for (default 20)
  --workload W    run one workload in this process and print one JSON result line:
                  rmat_merge | banded_mult | uniform_spill | small_many
  --trace 0|1     0: end-to-end metrics; 1: per-layer metrics and a Chrome trace
  --check         tiny operands, one repetition: exercises every layer in seconds
  --json FILE     also write the full run's record to FILE
  --cli PATH      the sparch-cli binary      (else $SPARCH_CLI, else next to this executable)
  --worker PATH   the sparch-dist-worker binary (else $SPARCH_DIST_WORKER, else next to it)

Run from the workspace root. Scratch files live under crates/benchmark/out/.";

#[derive(Debug, Default)]
struct Args {
    workload: Option<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    check: bool,
    json: Option<PathBuf>,
    cli: Option<PathBuf>,
    worker: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = argv else {
            return Err("compare takes exactly two files".into());
        };
        args.compare = Some((base.into(), new.into()));
        return Ok(args);
    }
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--check" => args.check = true,
            "--workload" => {
                let name = value()?;
                args.workload = Some(
                    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                args.seed = Some(
                    value()?
                        .parse()
                        .map_err(|_| "--seed needs a whole number")?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--json" => args.json = Some(value()?.into()),
            "--cli" => args.cli = Some(value()?.into()),
            "--worker" => args.worker = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_none() && args.trace.is_some() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

fn read_record(path: &Path) -> Result<RunRecord, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v: Value = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    RunRecord::from_json(&v).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload, here: what the driver (and the full run) invokes.
fn run_one(args: &Args, workload: Workload, bins: &bins::Bins) -> Result<(), String> {
    let home = Path::new(HOME);
    let out_dir = home.join("out");
    let scratch = run::Scratch::create(out_dir.join(format!("tmp-{}", std::process::id())))?;
    // Spill files, fleet sockets and the CLI subprocess's temporaries all
    // follow TMPDIR; nothing is written outside the checkout. Set before
    // any thread exists.
    std::env::set_var("TMPDIR", scratch.path());

    let outcome = run::run(&run::Options {
        workload,
        seed: args.seed.unwrap_or(DEFAULT_SEED),
        seconds: args.seconds.unwrap_or(DEFAULT_SECONDS),
        trace: args.trace.unwrap_or(false),
        check: args.check,
        bins,
        out_dir: &out_dir,
        scratch: scratch.path(),
    })?;
    drop(scratch);

    println!(
        "{} (seed {})",
        workload.name(),
        args.seed.unwrap_or(DEFAULT_SEED)
    );
    report::print_metrics(&outcome.metrics);
    for note in &outcome.notes {
        println!("  note: {note}");
    }
    for failure in &outcome.ops.failures {
        println!("  FAILED: {failure}");
    }
    println!("{}", report::detail_line(&outcome));
    println!("{}", report::contract_line(&outcome));
    Ok(())
}

/// The commit the run was made at, as `git describe` names it: the short
/// hash, with `-dirty` when the tree has uncommitted changes.
fn git_commit() -> String {
    Command::new("git")
        .args(["describe", "--always", "--dirty", "--exclude", "*"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Every workload, each in a fresh child process of this executable (so
/// each gets its own peak RSS and a clean allocator): a timed run, then a
/// traced run.
fn run_all(args: &Args, bins: &bins::Bins) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(DEFAULT_SECONDS);
    let mut record = RunRecord {
        commit: git_commit(),
        seed,
        seconds,
        check: args.check,
        ..RunRecord::default()
    };
    for workload in Workload::ALL {
        let mut merged = WorkloadRecord::default();
        for trace in ["0", "1"] {
            eprintln!("{} --trace {trace} ...", workload.name());
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .arg("--cli")
                .arg(&bins.cli)
                .arg("--worker")
                .arg(&bins.worker);
            if args.check {
                cmd.arg("--check");
            }
            let output = cmd
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
            if !output.status.success() {
                return Err(format!(
                    "{} --trace {trace} exited with {}",
                    workload.name(),
                    output.status
                ));
            }
            let stdout = String::from_utf8_lossy(&output.stdout);
            let detail = stdout
                .lines()
                .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
                .ok_or("the child printed no detail line")?;
            let detail: Value = serde_json::from_str(detail).map_err(|e| e.to_string())?;
            merged.absorb(&detail)?;
        }
        record.workloads.insert(workload.name().into(), merged);
    }

    record.print();
    let home = Path::new(HOME);
    let text =
        serde_json::to_string_pretty(&record.to_json()).expect("JSON values always serialize");
    let default_path = home.join("out").join(format!("result-seed{seed}.json"));
    for path in [Some(&default_path), args.json.as_ref()]
        .into_iter()
        .flatten()
    {
        std::fs::write(path, &text).map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("record written to {}", path.display());
    }
    if !args.check {
        use std::io::Write;
        let path = home.join("trajectory.jsonl");
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        writeln!(file, "{}", record.trajectory_line()).map_err(|e| e.to_string())?;
        println!("appended to {}", path.display());
    }
    let (_, failed) = record.ops();
    Ok(failed == 0)
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(&argv).map_err(|e| format!("{e}\n\n{USAGE}"))?;
    if let Some((base, new)) = &args.compare {
        return Ok(!compare::compare(&read_record(base)?, &read_record(new)?));
    }
    // The stack under test is the workspace around this crate; without
    // it there is nothing to measure.
    for manifest in [Path::new("Cargo.toml"), &Path::new(HOME).join("Cargo.toml")] {
        if !manifest.is_file() {
            return Err(format!(
                "{} not found: start sparch-benchmark from the workspace root",
                manifest.display()
            ));
        }
    }
    let bins = bins::resolve(args.cli.as_deref(), args.worker.as_deref())?;
    match args.workload {
        Some(workload) => run_one(&args, workload, &bins).map(|()| true),
        None => run_all(&args, &bins),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("sparch-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_driver_protocol() {
        let a = parse(&[
            "--workload",
            "small_many",
            "--seed",
            "9",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::SmallMany));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(9), Some(2.5), Some(true))
        );
        assert!(!a.check);
    }

    #[test]
    fn rejects_malformed_arguments() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2", "--workload", "rmat_merge"],
            &["--trace", "1"],
            &["--frobnicate"],
            &["compare", "only-one.json"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
        let c = parse(&["compare", "a.json", "b.json"]).unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
