//! Finding (or building) the two programs the harness drives as
//! subprocesses: `sparch-cli` and `sparch-dist-worker`.
//!
//! Lookup order for each: the command-line flag, the environment
//! variable, then next to this executable (or one directory up, which
//! covers `target/<profile>/deps/`). When one is still missing the
//! harness builds both with cargo, in this executable's profile — the
//! benchmark command is `cargo run -p sparch-benchmark`, which builds
//! only this package's own binary.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

pub const CLI: &str = "sparch-cli";
pub const WORKER: &str = "sparch-dist-worker";
pub const CLI_ENV: &str = "SPARCH_CLI";
pub const WORKER_ENV: &str = "SPARCH_DIST_WORKER";

#[derive(Debug, Clone)]
pub struct Bins {
    pub cli: PathBuf,
    pub worker: PathBuf,
}

fn exe_dirs() -> Vec<PathBuf> {
    let Ok(exe) = std::env::current_exe() else {
        return Vec::new();
    };
    [exe.parent(), exe.parent().and_then(Path::parent)]
        .into_iter()
        .flatten()
        .map(Path::to_path_buf)
        .collect()
}

fn locate(name: &str, flag: Option<&Path>, env: &str) -> Option<PathBuf> {
    if let Some(p) = flag {
        return Some(p.to_path_buf());
    }
    if let Some(p) = std::env::var_os(env) {
        return Some(PathBuf::from(p));
    }
    exe_dirs()
        .into_iter()
        .map(|dir| dir.join(name))
        .find(|cand| cand.is_file())
}

/// Builds both programs into the target directory this executable runs
/// from. Cargo's own output goes to stderr, so stdout stays the result
/// stream.
fn build() -> Result<(), String> {
    let release = exe_dirs()
        .iter()
        .any(|dir| dir.file_name().is_some_and(|n| n == "release"));
    let mut cmd = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cmd.args(["build", "--offline", "-p", "sparch", "--bin", CLI])
        .args(["-p", "sparch-dist", "--bin", WORKER]);
    if release {
        cmd.arg("--release");
    }
    eprintln!("building {CLI} and {WORKER} ...");
    let status = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo to build {CLI} and {WORKER}: {e}"))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "cargo build of {CLI} and {WORKER} failed: {status}"
        ))
    }
}

pub fn resolve(cli_flag: Option<&Path>, worker_flag: Option<&Path>) -> Result<Bins, String> {
    let find = || {
        Some(Bins {
            cli: locate(CLI, cli_flag, CLI_ENV)?,
            worker: locate(WORKER, worker_flag, WORKER_ENV)?,
        })
    };
    let bins = match find() {
        Some(bins) => bins,
        None => {
            build()?;
            find().ok_or_else(|| {
                format!(
                    "{CLI} / {WORKER} not found next to this executable even after \
                     building them; pass --cli and --worker"
                )
            })?
        }
    };
    for path in [&bins.cli, &bins.worker] {
        if !path.is_file() {
            return Err(format!("{} is not a file", path.display()));
        }
    }
    Ok(bins)
}
