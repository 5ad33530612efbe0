//! The driver's command line, geometric means, table printing and the
//! JSON dump.

use serde::Serialize;
use std::path::{Path, PathBuf};

/// The driver's command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Linear scale applied to the suite matrices (default 0.04 keeps the
    /// whole suite tractable on a laptop; raise toward 1.0 for fidelity).
    pub scale: f64,
    /// Where to write the sweep's record as JSON, if anywhere.
    pub json: Option<PathBuf>,
    /// Worker threads (`--threads N`); `None` falls back to
    /// `SPARCH_THREADS`, then to all available cores.
    pub threads: Option<usize>,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            scale: 0.04,
            json: None,
            threads: None,
        }
    }
}

/// The full usage text, printed on `--help` and on any argument error.
pub const USAGE: &str = "options:
  --scale X    surrogate scale in (0, 1] (default 0.04)
  --json PATH  write the sweep's record as JSON to PATH
  --threads N  worker threads (default: SPARCH_THREADS, else all cores)
  --help, -h   print this message";

/// Successful outcomes of [`parse_args_from`].
#[derive(Debug, Clone, PartialEq)]
pub enum ArgsOutcome {
    /// Every argument parsed.
    Parsed(Args),
    /// `--help` / `-h` was given; the caller should print [`USAGE`].
    Help,
}

/// Parses an argument list (without the program name) — a pure function
/// with no printing or process exit, so it is unit-testable end to end.
/// Returns the full usage text inside the error message on any malformed
/// or unknown argument, so the driver never dies on a bare flag name.
pub fn parse_args_from<I>(args: I) -> Result<ArgsOutcome, String>
where
    I: IntoIterator<Item = String>,
{
    let mut parsed = Args::default();
    let mut it = args.into_iter();
    let missing = |flag: &str| format!("{flag} needs a value\n{USAGE}");
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--scale" => {
                let v = it.next().ok_or_else(|| missing("--scale"))?;
                parsed.scale = v
                    .parse()
                    .map_err(|_| format!("--scale needs a number, got {v:?}\n{USAGE}"))?;
                if !(parsed.scale > 0.0 && parsed.scale <= 1.0) {
                    return Err(format!("--scale must be in (0, 1], got {v}\n{USAGE}"));
                }
            }
            "--json" => {
                parsed.json = Some(PathBuf::from(it.next().ok_or_else(|| missing("--json"))?));
            }
            "--threads" => {
                let v = it.next().ok_or_else(|| missing("--threads"))?;
                let n: usize = v.parse().map_err(|_| {
                    format!("--threads needs a positive integer, got {v:?}\n{USAGE}")
                })?;
                if n == 0 {
                    return Err(format!("--threads must be at least 1\n{USAGE}"));
                }
                parsed.threads = Some(n);
            }
            "--help" | "-h" => return Ok(ArgsOutcome::Help),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(ArgsOutcome::Parsed(parsed))
}

/// Parses `std::env::args`: prints the usage and exits 0 on `--help`,
/// prints the full usage and exits 2 on any malformed or unknown
/// argument.
pub fn parse_args() -> Args {
    match parse_args_from(std::env::args().skip(1)) {
        Ok(ArgsOutcome::Parsed(args)) => args,
        Ok(ArgsOutcome::Help) => {
            println!("{USAGE}");
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    }
}

/// Geometric mean, the paper's aggregate for speedups/savings.
///
/// # Panics
///
/// Panics if any value is non-positive.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "geomean needs positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

/// Prints an aligned text table.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i == 0 {
                s.push_str(&format!("{:<width$}", cell, width = widths[i]));
            } else {
                s.push_str(&format!("  {:>width$}", cell, width = widths[i]));
            }
        }
        s
    };
    println!("{}", line(headers.iter().map(|h| h.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1))
    );
    for row in rows {
        println!("{}", line(row.clone()));
    }
}

/// Writes `value` as pretty JSON to `path`. The error names the path.
pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    let fail = |e: &dyn std::fmt::Display| format!("cannot write {}: {e}", path.display());
    let json = serde_json::to_string_pretty(value).map_err(|e| fail(&e))?;
    std::fs::write(path, json).map_err(|e| fail(&e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        match parse_args_from(args.iter().map(|s| s.to_string()))? {
            ArgsOutcome::Parsed(a) => Ok(a),
            ArgsOutcome::Help => panic!("unexpected --help outcome"),
        }
    }

    #[test]
    fn geomean_of_known_values() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    fn table_prints_without_panicking() {
        print_table(
            &["matrix", "speedup"],
            &[
                vec!["wiki-Vote".into(), "3.96".into()],
                vec!["cit-Patents".into(), "3.93".into()],
            ],
        );
    }

    #[test]
    fn default_args() {
        let a = Args::default();
        assert!(a.scale > 0.0 && a.scale <= 1.0);
        assert!(a.json.is_none());
        assert!(a.threads.is_none());
    }

    #[test]
    fn parses_every_flag() {
        let a = parse(&["--scale", "0.5", "--json", "out.json", "--threads", "8"]).unwrap();
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.json, Some(PathBuf::from("out.json")));
        assert_eq!(a.threads, Some(8));
    }

    #[test]
    fn help_is_a_value_not_an_exit() {
        let outcome = parse_args_from(["--help".to_string()]).unwrap();
        assert_eq!(outcome, ArgsOutcome::Help);
        let outcome = parse_args_from(["-h".to_string()]).unwrap();
        assert_eq!(outcome, ArgsOutcome::Help);
    }

    #[test]
    fn scale_as_a_value_is_not_explicit_scale() {
        // "--scale" appearing as another flag's value must not be read
        // as the scale flag (which would then demand a value of its own).
        let a = parse(&["--json", "--scale"]).unwrap();
        assert_eq!(a.json, Some(PathBuf::from("--scale")));
        assert_eq!(a.scale, Args::default().scale);
    }

    #[test]
    fn empty_args_are_defaults() {
        assert_eq!(parse(&[]).unwrap(), Args::default());
    }

    #[test]
    fn unknown_flag_reports_full_usage() {
        let err = parse(&["--bogus"]).unwrap_err();
        assert!(err.contains("unknown argument \"--bogus\""), "{err}");
        assert!(err.contains("--threads N"), "full usage missing: {err}");
        assert!(err.contains("--scale X"), "full usage missing: {err}");
    }

    #[test]
    fn missing_value_reports_full_usage() {
        let err = parse(&["--threads"]).unwrap_err();
        assert!(err.contains("--threads needs a value"), "{err}");
        assert!(err.contains("options:"), "{err}");
    }

    #[test]
    fn bad_values_are_rejected() {
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "1.5"]).is_err());
        assert!(parse(&["--scale", "abc"]).is_err());
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads", "-2"]).is_err());
    }

    #[test]
    fn the_removed_sweep_flag_is_an_unknown_argument() {
        let err = parse(&["--sweep", "line"]).unwrap_err();
        assert!(err.contains("unknown argument \"--sweep\""), "{err}");
        assert!(err.contains("options:"), "full usage missing: {err}");
        assert!(!USAGE.contains("--sweep"), "{USAGE}");
    }

    #[test]
    fn a_failed_json_write_names_the_path() {
        let dir = std::env::temp_dir().join(format!("sparch-bench-{}", std::process::id()));
        let path = dir.join("missing").join("sweep.json");
        let err = write_json(&path, &vec![1.0, 2.0]).unwrap_err();
        assert!(err.contains(&path.display().to_string()), "{err}");
        assert!(!path.exists());
    }
}
