//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root lists the same names, units, directions and bounds; a
//! test keeps the two identical.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One named metric. `bound` is the share of the baseline's median by
/// which an end-to-end metric may worsen before `compare` calls it a
/// regression; per-layer metrics carry none. `exact` marks counts that
/// repeat bit-for-bit at a fixed seed, which `compare` holds to equality.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        exact,
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: None,
        exact: false,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
        bound: None,
        exact: false,
    }
}

/// A count that repeats exactly at a fixed seed.
const fn exact(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

/// Workload names with the reason each exists (one line, at most 200
/// characters — it is copied into `BENCHMARK.json`).
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "rmat_merge",
        "R-MAT(8192, degree 8) squared: skewed columns give unequal Huffman leaves and heavily overlapping partials, so the merge stage folds duplicates and dominates pipeline busy time",
    ),
    (
        "banded_mult",
        "Band(8000, half-width 64) squared, compression 58: the multiply kernel's accumulation dominates and partials are nearly disjoint, so the same merge layer runs without duplicate folding",
    ),
    (
        "uniform_spill",
        "Uniform(60000 square, 8 per row) squared, compression 1.0: nothing folds, so output materialisation, spill codec, disk, wire bytes per product and .mtx panel re-scanning dominate",
    ),
    (
        "small_many",
        "Eight distinct order-256 matrices per timed unit plus a 240-request mix at order 512: per-call fixed cost (fleet spawn, threads, scratch growth, dispatch) dominates and kernels do little",
    ),
];

/// What a user of the stack waits for or pays, per workload. Everything
/// is lower-is-better.
///
/// The bounds come from the 2-vCPU reference host, whose speed drifts by
/// 5-30 % over seconds: over ten runs at ten seeds the timings and the
/// peak resident set spread by up to 9 % of their median (interquartile),
/// and a bound has to be three times the spread before "unchanged" can
/// be told from "regressed". The simulated counts are exact at a fixed
/// seed (`compare` holds them to equality); their bound only has to cover
/// the seed-to-seed change of the operands, which is 8 % for
/// `small_many`'s cycles (its block-sparse operand dominates them).
pub const END_TO_END: [MetricDef; 11] = [
    e2e("setup_s", "s", 0.25, false),
    e2e("inmem_wall_s", "s", 0.25, false),
    e2e("stream_nospill_wall_s", "s", 0.25, false),
    e2e("stream_wall_s", "s", 0.25, false),
    e2e("file_wall_s", "s", 0.25, false),
    e2e("dist_wall_s", "s", 0.25, false),
    e2e("serve_wall_s", "s", 0.25, false),
    e2e("sim_host_s", "s", 0.25, false),
    e2e("sim_cycles", "cycles", 0.25, true),
    e2e("sim_dram_bytes", "bytes", 0.15, true),
    e2e("peak_rss_mb", "MiB", 0.25, false),
];

/// Per-layer metrics, layer = crate. The prefix before the first dot is
/// the crate (`core` also covers `engine` and `mem`).
pub const PER_LAYER: [MetricDef; 98] = [
    // sparse — generators, Matrix Market I/O, in-memory kernels.
    lower("sparse.gen_s", "s"),
    lower("sparse.mm_write_s", "s"),
    exact("sparse.flops", "count", Better::Lower),
    exact("sparse.out_nnz", "count", Better::Lower),
    exact("sparse.compression", "ratio", Better::Higher),
    higher("sparse.gustavson_mflops", "Mflop/s"),
    lower("sparse.heap_s", "s"),
    lower("sparse.hash_s", "s"),
    lower("sparse.panel_slice_s", "s"),
    lower("sparse.panel_mult_s", "s"),
    higher("sparse.panel_mult_mflops", "Mflop/s"),
    exact("sparse.panel_mult_bytes_per_flop", "B/flop", Better::Lower),
    higher("sparse.panel_mult_roofline_frac", "ratio"),
    lower("sparse.mm_panel_read_s", "s"),
    higher("sparse.mm_read_mb_per_s", "MB/s"),
    // stream — merge kernel, spill codec, pipeline stages.
    lower("stream.merge_s", "s"),
    higher("stream.merge_mtriples_per_s", "Mtriple/s"),
    exact("stream.merge_dup_ratio", "ratio", Better::Higher),
    higher("stream.merge_roofline_frac", "ratio"),
    lower("stream.spill_encode_s", "s"),
    lower("stream.spill_decode_s", "s"),
    lower("stream.spill_file_write_s", "s"),
    lower("stream.spill_file_read_s", "s"),
    exact("stream.spill_ratio", "ratio", Better::Lower),
    lower("stream.reader_busy_s", "s"),
    lower("stream.multiply_busy_s", "s"),
    lower("stream.multiply_kernel_s", "s"),
    lower("stream.merge_busy_s", "s"),
    lower("stream.merge_kernel_s", "s"),
    lower("stream.spill_writeback_s", "s"),
    exact("stream.merge_triples", "count", Better::Lower),
    lower("stream.spill_bytes_written", "bytes"),
    lower("stream.spill_reads", "count"),
    lower("stream.peak_live_bytes", "bytes"),
    exact("stream.partial_bytes_total", "bytes", Better::Lower),
    exact("stream.merge_rounds", "count", Better::Lower),
    higher("stream.rounds_merged_concurrently", "count"),
    higher("stream.reads_overlapping_multiply", "count"),
    lower("stream.t1_nospill_wall_s", "s"),
    lower("stream.residual_s", "s"),
    lower("stream.spill_cost_s", "s"),
    higher("stream.thread_speedup", "ratio"),
    // tune — the knob planner, tracked so a stream change that strands
    // it shows; moves no end-to-end metric by design.
    lower("tune.plan_s", "s"),
    exact("tune.auto_panels", "count", Better::Lower),
    exact("tune.auto_ways", "count", Better::Lower),
    lower("tune.auto_wall_s", "s"),
    lower("tune.auto_over_fixed", "ratio"),
    // dist — shard fleet.
    lower("dist.spawn_floor_s", "s"),
    lower("dist.shards1_wall_s", "s"),
    lower("dist.over_stream", "ratio"),
    exact("dist.dispatches", "count", Better::Lower),
    lower("dist.retries", "count"),
    lower("dist.respawns", "count"),
    exact("dist.wire_bytes_sent", "bytes", Better::Lower),
    // Replies carry the workers' timings, so their size moves by a few
    // bytes from run to run.
    lower("dist.wire_bytes_received", "bytes"),
    lower("dist.wire_bytes_per_flop", "B/flop"),
    higher("dist.wire_mb_per_s", "MB/s"),
    // serve — dispatch and the operand cache.
    exact("serve.requests", "count", Better::Higher),
    exact("serve.steps", "count", Better::Lower),
    higher("serve.req_per_s", "1/s"),
    exact("serve.cache_hit_rate", "ratio", Better::Higher),
    lower("serve.mispredict_rate", "ratio"),
    exact("serve.steps.gustavson", "count", Better::Higher),
    exact("serve.steps.hash_spgemm", "count", Better::Higher),
    exact("serve.steps.heap_spgemm", "count", Better::Higher),
    exact("serve.steps.sort_merge", "count", Better::Higher),
    exact("serve.steps.inner_product", "count", Better::Higher),
    exact("serve.steps.outer_product", "count", Better::Higher),
    exact("serve.steps.streaming", "count", Better::Higher),
    exact("serve.steps.distributed", "count", Better::Higher),
    lower("serve.step_p50_s", "s"),
    lower("serve.step_p95_s", "s"),
    higher("serve.step_tail_pct", "%"),
    lower("serve.model_cost_error_units", "units"),
    lower("serve.warm_wall_s", "s"),
    lower("serve.fixed_gustavson_wall_s", "s"),
    lower("serve.adaptive_over_fixed", "ratio"),
    // exec — the worker pool.
    lower("exec.map_ns_per_job", "ns"),
    // obs — the recorder; nothing here should move with it off.
    lower("obs.disabled_span_ns", "ns"),
    lower("obs.spans", "count"),
    lower("obs.trace_overhead_frac", "ratio"),
    // core (with engine, mem, baselines) — the cycle-level simulator.
    higher("core.host_mflops_per_s", "Mflop/s"),
    exact("core.sim_gflops", "Gflop/s", Better::Higher),
    exact("core.bandwidth_utilization", "ratio", Better::Higher),
    exact("core.partial_matrices", "count", Better::Lower),
    exact("core.rounds", "count", Better::Lower),
    exact("core.prefetch_hit_rate", "ratio", Better::Higher),
    exact("core.dram.mat_a_read", "bytes", Better::Lower),
    exact("core.dram.mat_b_read", "bytes", Better::Lower),
    exact("core.dram.partial_write", "bytes", Better::Lower),
    exact("core.dram.partial_read", "bytes", Better::Lower),
    exact("core.dram.final_write", "bytes", Better::Lower),
    exact("baselines.outerspace_dram_ratio", "ratio", Better::Higher),
    // host — what the numbers above were measured on.
    higher("host.nproc", "count"),
    higher("host.threads", "count"),
    higher("host.llc_bytes", "bytes"),
    higher("host.triad_gbps", "GB/s"),
    lower("host.noise_frac", "ratio"),
];

pub fn workload_names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|(name, _)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::json_f64;
    use serde_json::Value;
    use std::collections::HashSet;

    fn better_str(better: Better) -> &'static str {
        match better {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Names start with a letter or digit and use at most 64 of
    /// `[A-Za-z0-9_.-]`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// Units use at most 16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_and_unit_rules() {
        for ok in ["a", "9lives", "serve.steps.heap_spgemm", "x-y_z.0"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".dot", "_x", "has space", "slash/y", "é", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "1/s", "MB/s", "%", "B/flop", "Mtriple/s"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "seventeen_chars__"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn tables_fit_the_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = HashSet::new();
        for (name, why) in WORKLOADS {
            assert!(valid_name(name) && seen.insert(name), "{name}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{} unit {}", m.name, m.unit);
        }
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }

    /// `BENCHMARK.json` is the file the driver reads; the tables above
    /// are what the harness emits. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc
            .as_obj()
            .expect("top level is an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let paths = doc.get("paths").and_then(Value::as_arr).expect("paths");
        assert_eq!(paths, [Value::Str("crates/benchmark".into())]);
        let seconds = json_f64(doc.get("run_seconds").expect("run_seconds")).expect("number");
        assert_eq!(seconds, crate::DEFAULT_SECONDS);

        let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_owned);
        let listed: Vec<(String, String)> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| (field(w, "name").unwrap(), field(w, "why").unwrap()))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|(n, w)| (n.to_string(), w.to_string()))
            .collect();
        assert_eq!(listed, ours);

        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = doc.get(key).and_then(Value::as_arr).expect(key);
            assert_eq!(entries.len(), table.len(), "{key} length");
            for (entry, m) in entries.iter().zip(table) {
                assert_eq!(field(entry, "name").as_deref(), Some(m.name));
                assert_eq!(field(entry, "unit").as_deref(), Some(m.unit), "{}", m.name);
                assert_eq!(
                    field(entry, "better").as_deref(),
                    Some(better_str(m.better)),
                    "{}",
                    m.name
                );
                assert_eq!(
                    entry.get("bound").and_then(json_f64),
                    m.bound,
                    "{} bound",
                    m.name
                );
            }
        }
    }
}
