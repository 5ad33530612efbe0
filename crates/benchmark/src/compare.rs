//! `sparch-benchmark compare <base.json> <new.json>`: per end-to-end
//! metric and workload, the change against the metric's bound.

use crate::report::RunRecord;
use crate::spec::{Better, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the base by more than the bound.
    Regression,
    /// Every run of the new record reads better than every run of the base.
    Improved,
    /// Within the bound, and the runs were steady enough to say so.
    Unchanged,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound, so "unchanged" cannot be claimed.
    Unresolved,
    /// An exact count that repeated bit for bit.
    Identical,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
            Verdict::Identical => "identical",
        }
    }
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when it is better).
fn worse_by(def: &MetricDef, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs().max(f64::MIN_POSITIVE);
    match def.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn judge(def: &MetricDef, bound: f64, base: &Summary, new: &Summary) -> Verdict {
    if def.exact && base.median == new.median {
        return Verdict::Identical;
    }
    // A single reading (a count, the peak resident set) has no runs to
    // compare: any decrease would pass for "every run better".
    let every_run_better = base.n > 1
        && new.n > 1
        && match def.better {
            Better::Lower => new.max < base.min,
            Better::Higher => new.min > base.max,
        };
    if worse_by(def, base.median, new.median) > bound {
        Verdict::Regression
    } else if every_run_better {
        Verdict::Improved
    } else if base.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// Prints the comparison; returns whether anything regressed.
pub fn compare(base: &RunRecord, new: &RunRecord) -> bool {
    println!(
        "base: commit {} seed {} | new: commit {} seed {}",
        base.commit, base.seed, new.commit, new.seed
    );
    if base.seed != new.seed {
        println!("note: the seeds differ, so exact counts are expected to differ too");
    }
    let mut regressed = false;
    println!(
        "\n{:<14} {:<24} {:>14} {:>14} {:>8} {:>6} {:>7}  verdict",
        "workload", "metric", "base", "new", "change", "bound", "spread"
    );
    for (name, b) in &base.workloads {
        let Some(n) = new.workloads.get(name) else {
            println!("{name:<14} missing from the new record");
            regressed = true;
            continue;
        };
        for def in &END_TO_END {
            let (Some(bs), Some(ns)) = (b.metrics.get(def.name), n.metrics.get(def.name)) else {
                println!("{name:<14} {:<24} missing", def.name);
                regressed = true;
                continue;
            };
            let bound = def.bound.expect("end-to-end metrics carry a bound");
            let verdict = judge(def, bound, bs, ns);
            regressed |= verdict == Verdict::Regression;
            println!(
                "{name:<14} {:<24} {:>14.6} {:>14.6} {:>+7.1}% {:>5.0}% {:>6.1}%  {}",
                def.name,
                bs.median,
                ns.median,
                worse_by(def, bs.median, ns.median) * 100.0,
                bound * 100.0,
                bs.spread().max(ns.spread()) * 100.0,
                verdict.label()
            );
        }
        // A rise in the failure rate is a regression whatever the timings say.
        let rate = |failed: u64, attempted: u64| failed as f64 / attempted.max(1) as f64;
        let (rb, rn) = (
            rate(b.ops_failed, b.ops_attempted),
            rate(n.ops_failed, n.ops_attempted),
        );
        if rn > rb {
            println!(
                "{name:<14} ops_failed / ops_attempted rose: {} / {} -> {} / {}  REGRESSION",
                b.ops_failed, b.ops_attempted, n.ops_failed, n.ops_attempted
            );
            regressed = true;
        }
    }

    // Per-layer metrics carry no bound; list the ones that moved, so the
    // layer behind an end-to-end change can be named.
    println!("\nper-layer metrics that moved (exact counts: any change; others: more than 10 %)");
    for (name, b) in &base.workloads {
        let Some(n) = new.workloads.get(name) else {
            continue;
        };
        for def in &PER_LAYER {
            let (Some(bs), Some(ns)) = (b.metrics.get(def.name), n.metrics.get(def.name)) else {
                continue;
            };
            let change = worse_by(def, bs.median, ns.median);
            let moved = if def.exact {
                bs.median != ns.median
            } else {
                change.abs() > 0.10
            };
            if moved {
                println!(
                    "{name:<14} {:<34} {:>16.6} {:>16.6} {:>+8.1}% {}",
                    def.name,
                    bs.median,
                    ns.median,
                    change * 100.0,
                    if change > 0.0 { "worse" } else { "better" }
                );
            }
        }
    }
    println!(
        "\n{}",
        if regressed {
            "REGRESSED"
        } else {
            "no regression"
        }
    );
    regressed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Option<&'static MetricDef> {
        END_TO_END.iter().find(|m| m.name == name)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let wall = end_to_end("stream_wall_s").unwrap();
        let steady = |m: f64| Summary::of(&[m * 0.99, m, m * 1.01]);
        let noisy = |m: f64| Summary::of(&[m * 0.7, m, m * 1.3]);
        assert_eq!(
            judge(wall, 0.10, &steady(1.0), &steady(1.05)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(wall, 0.10, &steady(1.0), &steady(1.2)),
            Verdict::Regression
        );
        assert_eq!(
            judge(wall, 0.10, &steady(1.0), &steady(0.8)),
            Verdict::Improved
        );
        assert_eq!(
            judge(wall, 0.10, &noisy(1.0), &steady(1.05)),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wall, 0.10, &noisy(1.0), &noisy(1.5)),
            Verdict::Regression
        );

        let cycles = end_to_end("sim_cycles").unwrap();
        let exact = Summary::single(1000.0);
        assert_eq!(judge(cycles, 0.1, &exact, &exact), Verdict::Identical);
        assert_eq!(
            judge(cycles, 0.1, &exact, &Summary::single(1001.0)),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(cycles, 0.1, &exact, &Summary::single(1200.0)),
            Verdict::Regression
        );
        assert_eq!(
            judge(cycles, 0.1, &exact, &Summary::single(990.0)),
            Verdict::Unchanged
        );
    }
}
