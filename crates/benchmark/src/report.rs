//! Result records: the line a single-workload run prints for its parent,
//! the aggregated record of a full run, its printed tables, the workload
//! self-check and the trajectory line.

use crate::run::Outcome;
use crate::spec::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{json_f64, Summary};
use crate::workloads::Workload;
use serde_json::Value;
use std::collections::BTreeMap;

/// Prefix of the stdout line that carries a run's full detail.
pub const DETAIL_PREFIX: &str = "detail: ";

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn strings(items: &[String]) -> Value {
    Value::Arr(items.iter().cloned().map(Value::Str).collect())
}

fn metrics_json(metrics: &[(&'static str, &'static str, Summary)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, unit, s)| (name.to_string(), s.to_json(unit)))
            .collect(),
    )
}

/// The last line of a single-workload run: exactly `correct`,
/// `attempted`, `failed` and `metrics` (value and unit per metric).
pub fn contract_line(outcome: &Outcome) -> String {
    let metrics = Value::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, unit, s)| {
                let entry = obj(vec![
                    ("value", Value::F64(s.median)),
                    ("unit", Value::Str(unit.to_string())),
                ]);
                (name.to_string(), entry)
            })
            .collect(),
    );
    let line = obj(vec![
        ("correct", Value::Bool(outcome.ops.failed == 0)),
        ("attempted", Value::U64(outcome.ops.attempted)),
        ("failed", Value::U64(outcome.ops.failed)),
        ("metrics", metrics),
    ]);
    serde_json::to_string(&line).expect("JSON values always serialize")
}

/// The detail line: every metric with its spread, plus notes and failures.
pub fn detail_line(outcome: &Outcome) -> String {
    let detail = obj(vec![
        ("ops_attempted", Value::U64(outcome.ops.attempted)),
        ("ops_failed", Value::U64(outcome.ops.failed)),
        ("failures", strings(&outcome.ops.failures)),
        ("notes", strings(&outcome.notes)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    format!(
        "{DETAIL_PREFIX}{}",
        serde_json::to_string(&detail).expect("JSON values always serialize")
    )
}

/// Human-readable rows for one run's metrics.
pub fn print_metrics(metrics: &[(&'static str, &'static str, Summary)]) {
    for (name, unit, s) in metrics {
        if s.n > 1 {
            println!(
                "  {name:<34} {:>14.6} {unit:<10} [q1 {:.6}, q3 {:.6}, min {:.6}, max {:.6}, n {}]",
                s.median, s.q1, s.q3, s.min, s.max, s.n
            );
        } else {
            println!("  {name:<34} {:>14.6} {unit}", s.median);
        }
    }
}

/// What one workload measured across its timed and traced runs.
#[derive(Debug, Clone, Default)]
pub struct WorkloadRecord {
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, Summary>,
}

impl WorkloadRecord {
    /// Folds one run's detail line into the record.
    pub fn absorb(&mut self, detail: &Value) -> Result<(), String> {
        let count = |key: &str| -> Result<u64, String> {
            detail
                .get(key)
                .and_then(json_f64)
                .map(|n| n as u64)
                .ok_or_else(|| format!("detail line lacks {key}"))
        };
        let list = |key: &str| -> Vec<String> {
            detail
                .get(key)
                .and_then(Value::as_arr)
                .map(|items| {
                    items
                        .iter()
                        .filter_map(Value::as_str)
                        .map(str::to_owned)
                        .collect()
                })
                .unwrap_or_default()
        };
        self.ops_attempted += count("ops_attempted")?;
        self.ops_failed += count("ops_failed")?;
        self.failures.extend(list("failures"));
        self.notes.extend(list("notes"));
        let metrics = detail
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or("detail line lacks metrics")?;
        for (name, v) in metrics {
            let s = Summary::from_json(v).ok_or_else(|| format!("malformed metric {name}"))?;
            self.metrics.insert(name.clone(), s);
        }
        Ok(())
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|s| s.median)
    }

    fn to_json(&self) -> Value {
        let section = |defs: &[MetricDef]| -> Value {
            Value::Obj(
                defs.iter()
                    .filter_map(|d| {
                        Some((
                            d.name.to_string(),
                            self.metrics.get(d.name)?.to_json(d.unit),
                        ))
                    })
                    .collect(),
            )
        };
        obj(vec![
            ("ops_attempted", Value::U64(self.ops_attempted)),
            ("ops_failed", Value::U64(self.ops_failed)),
            ("failures", strings(&self.failures)),
            ("notes", strings(&self.notes)),
            ("end_to_end", section(&END_TO_END)),
            ("per_layer", section(&PER_LAYER)),
        ])
    }

    fn from_json(v: &Value) -> Result<WorkloadRecord, String> {
        let mut record = WorkloadRecord {
            ops_attempted: v
                .get("ops_attempted")
                .and_then(json_f64)
                .ok_or("no ops_attempted")? as u64,
            ops_failed: v
                .get("ops_failed")
                .and_then(json_f64)
                .ok_or("no ops_failed")? as u64,
            ..WorkloadRecord::default()
        };
        for section in ["end_to_end", "per_layer"] {
            let entries = v
                .get(section)
                .and_then(Value::as_obj)
                .ok_or("missing metric section")?;
            for (name, m) in entries {
                let s = Summary::from_json(m).ok_or_else(|| format!("malformed metric {name}"))?;
                record.metrics.insert(name.clone(), s);
            }
        }
        Ok(record)
    }
}

/// One self-check row: does the workload still stress its layer?
#[derive(Debug, Clone)]
pub struct SelfCheck {
    pub workload: &'static str,
    pub what: &'static str,
    pub value: f64,
    pub floor: f64,
}

impl SelfCheck {
    pub fn holds(&self) -> bool {
        self.value >= self.floor
    }
}

/// The aggregated record of a full run.
#[derive(Debug, Clone, Default)]
pub struct RunRecord {
    pub commit: String,
    pub seed: u64,
    pub seconds: f64,
    pub check: bool,
    pub workloads: BTreeMap<String, WorkloadRecord>,
}

impl RunRecord {
    /// Share of each workload's time that goes to the layer it was built
    /// to stress. A later size change that stops a workload stressing
    /// its layer shows up here.
    pub fn self_check(&self) -> Vec<SelfCheck> {
        let get = |w: Workload, name: &str| -> f64 {
            self.workloads
                .get(w.name())
                .and_then(|r| r.median(name))
                .unwrap_or(f64::NAN)
        };
        let busy = |w: Workload| {
            get(w, "stream.reader_busy_s")
                + get(w, "stream.multiply_busy_s")
                + get(w, "stream.merge_busy_s")
        };
        use Workload::*;
        let small_calls = SmallMany.plan(self.check).main.len() as f64;
        let row = |w: Workload, what, value, floor| SelfCheck {
            workload: w.name(),
            what,
            value,
            floor,
        };
        vec![
            row(
                RmatMerge,
                "merge share of stream busy time",
                get(RmatMerge, "stream.merge_busy_s") / busy(RmatMerge),
                0.60,
            ),
            row(
                BandedMult,
                "multiply share of stream busy time",
                get(BandedMult, "stream.multiply_busy_s") / busy(BandedMult),
                0.50,
            ),
            row(
                UniformSpill,
                "stream.spill_cost_s / stream_wall_s",
                get(UniformSpill, "stream.spill_cost_s") / get(UniformSpill, "stream_wall_s"),
                0.25,
            ),
            row(
                UniformSpill,
                "sparse.mm_panel_read_s / file_wall_s",
                get(UniformSpill, "sparse.mm_panel_read_s") / get(UniformSpill, "file_wall_s"),
                0.50,
            ),
            row(
                SmallMany,
                "dist.spawn_floor_s x calls / dist_wall_s",
                get(SmallMany, "dist.spawn_floor_s") * small_calls / get(SmallMany, "dist_wall_s"),
                0.30,
            ),
        ]
    }

    pub fn ops(&self) -> (u64, u64) {
        self.workloads
            .values()
            .fold((0, 0), |(a, f), w| (a + w.ops_attempted, f + w.ops_failed))
    }

    pub fn to_json(&self) -> Value {
        let checks = self
            .self_check()
            .iter()
            .map(|c| {
                obj(vec![
                    ("workload", Value::Str(c.workload.into())),
                    ("what", Value::Str(c.what.into())),
                    ("value", Value::F64(c.value)),
                    ("floor", Value::F64(c.floor)),
                    ("holds", Value::Bool(c.holds())),
                ])
            })
            .collect();
        obj(vec![
            ("schema", Value::U64(1)),
            ("commit", Value::Str(self.commit.clone())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("check", Value::Bool(self.check)),
            (
                "workloads",
                Value::Obj(
                    self.workloads
                        .iter()
                        .map(|(name, w)| (name.clone(), w.to_json()))
                        .collect(),
                ),
            ),
            ("self_check", Value::Arr(checks)),
        ])
    }

    pub fn from_json(v: &Value) -> Result<RunRecord, String> {
        let mut record = RunRecord {
            commit: v
                .get("commit")
                .and_then(Value::as_str)
                .unwrap_or("unknown")
                .to_string(),
            seed: v
                .get("seed")
                .and_then(json_f64)
                .ok_or("record lacks seed")? as u64,
            seconds: v
                .get("seconds")
                .and_then(json_f64)
                .ok_or("record lacks seconds")?,
            check: matches!(v.get("check"), Some(Value::Bool(true))),
            workloads: BTreeMap::new(),
        };
        let workloads = v
            .get("workloads")
            .and_then(Value::as_obj)
            .ok_or("record lacks workloads")?;
        for (name, w) in workloads {
            let parsed = WorkloadRecord::from_json(w).map_err(|e| format!("{name}: {e}"))?;
            record.workloads.insert(name.clone(), parsed);
        }
        Ok(record)
    }

    /// One line for `trajectory.jsonl`: commit, host facts, every median.
    pub fn trajectory_line(&self) -> String {
        let host = self
            .workloads
            .values()
            .next()
            .map(|w| {
                Value::Obj(
                    w.metrics
                        .iter()
                        .filter(|(name, _)| name.starts_with("host."))
                        .map(|(name, s)| (name.clone(), Value::F64(s.median)))
                        .collect(),
                )
            })
            .unwrap_or(Value::Null);
        let medians = Value::Obj(
            self.workloads
                .iter()
                .map(|(name, w)| {
                    let m = w
                        .metrics
                        .iter()
                        .filter(|(name, _)| !name.starts_with("host."))
                        .map(|(name, s)| (name.clone(), Value::F64(s.median)))
                        .collect();
                    (name.clone(), Value::Obj(m))
                })
                .collect(),
        );
        let (attempted, failed) = self.ops();
        let line = obj(vec![
            ("commit", Value::Str(self.commit.clone())),
            ("seed", Value::U64(self.seed)),
            ("seconds", Value::F64(self.seconds)),
            ("ops_attempted", Value::U64(attempted)),
            ("ops_failed", Value::U64(failed)),
            ("host", host),
            ("medians", medians),
        ]);
        serde_json::to_string(&line).expect("JSON values always serialize")
    }

    /// The three printed tables: end-to-end, per-layer, self-check.
    pub fn print(&self) {
        let names: Vec<&str> = spec::workload_names()
            .filter(|w| self.workloads.contains_key(*w))
            .collect();
        let table = |title: &str, defs: &[MetricDef], with_spread: bool| {
            println!("\n{title}");
            print!("  {:<34} {:<10}", "metric", "unit");
            for w in &names {
                print!(" {w:>22}");
            }
            println!();
            for d in defs {
                print!("  {:<34} {:<10}", d.name, d.unit);
                for w in &names {
                    match self.workloads[*w].metrics.get(d.name) {
                        Some(s) if with_spread && s.n > 1 => {
                            print!(" {:>14.6} ±{:>4.1}%", s.median, s.spread() * 100.0)
                        }
                        Some(s) => print!(" {:>22.6}", s.median),
                        None => print!(" {:>22}", "-"),
                    }
                }
                println!();
            }
        };
        table(
            "End-to-end (median; ± is the interquartile range as a share of the median)",
            &END_TO_END,
            true,
        );
        table("Per-layer", &PER_LAYER, false);

        println!("\nWorkload self-check");
        for c in self.self_check() {
            println!(
                "  {:<14} {:<44} {:>6.1} %  (floor {:.0} %)  {}",
                c.workload,
                c.what,
                c.value * 100.0,
                c.floor * 100.0,
                match (self.check, c.holds()) {
                    (true, _) => "not judged at --check orders",
                    (false, true) => "ok",
                    (false, false) => "BELOW FLOOR",
                }
            );
        }
        for (name, w) in &self.workloads {
            for note in &w.notes {
                println!("  note [{name}] {note}");
            }
            for failure in &w.failures {
                println!("  FAILED [{name}] {failure}");
            }
        }
        let (attempted, failed) = self.ops();
        println!("\nops_failed / ops_attempted: {failed} / {attempted}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::Ops;

    fn outcome() -> Outcome {
        let mut ops = Ops::default();
        ops.record("a", Ok(()));
        ops.record("b", Err("boom".into()));
        Outcome {
            metrics: vec![
                ("setup_s", "s", Summary::of(&[1.0, 2.0, 3.0])),
                ("sim_cycles", "cycles", Summary::single(42.0)),
            ],
            ops,
            notes: vec!["n".into()],
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let v: Value = serde_json::from_str(&contract_line(&outcome())).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        assert_eq!(v.get("attempted"), Some(&Value::U64(2)));
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        let keys: Vec<&str> = setup
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["value", "unit"]);
    }

    #[test]
    fn detail_round_trips_through_the_records() {
        let line = detail_line(&outcome());
        let detail: Value =
            serde_json::from_str(line.strip_prefix(DETAIL_PREFIX).unwrap()).unwrap();
        let mut w = WorkloadRecord::default();
        w.absorb(&detail).unwrap();
        w.absorb(&detail).unwrap();
        assert_eq!((w.ops_attempted, w.ops_failed), (4, 2));
        assert_eq!(w.median("setup_s"), Some(2.0));
        assert_eq!(w.failures, ["b: boom", "b: boom"]);

        let mut run = RunRecord {
            commit: "abc".into(),
            seed: 7,
            seconds: 1.0,
            ..RunRecord::default()
        };
        run.workloads.insert("rmat_merge".into(), w);
        let back = RunRecord::from_json(&run.to_json()).unwrap();
        assert_eq!(back.seed, 7);
        assert_eq!(
            back.workloads["rmat_merge"].median("sim_cycles"),
            Some(42.0)
        );
        assert_eq!(back.ops(), (4, 2));
        let line: Value = serde_json::from_str(&run.trajectory_line()).unwrap();
        assert_eq!(line.get("commit").and_then(Value::as_str), Some("abc"));
    }
}
