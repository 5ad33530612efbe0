//! `sparch-cli` — run the SpArch simulator on real matrices.
//!
//! ```text
//! sparch-cli multiply --a matrix.mtx [--b other.mtx] [--verify] [--json out.json]
//! sparch-cli generate --kind rmat --n 4096 --degree 8 --out matrix.mtx
//! sparch-cli stats --a matrix.mtx
//! sparch-cli batch --file requests.json [--policy adaptive] [--threads N] [--json out.json]
//! sparch-cli stream --a matrix.mtx [--b other.mtx] [--budget-mb N] [--panels P|auto] \
//!     [--balance uniform|nnz] [--spill-codec raw|varint] [--threads T]
//! sparch-cli dist --a matrix.mtx [--b other.mtx] [--shards S] [--panels P|auto] \
//!     [--budget-mb N] [--verify] [--json out.json]
//! ```
//!
//! `multiply` simulates `A × B` (B defaults to A), printing the same
//! report the paper's evaluation measures: GFLOP/s, per-category DRAM
//! traffic, prefetch hit rate, energy breakdown. `generate` writes
//! synthetic workloads in Matrix Market format; `stats` prints the
//! structural quantities SpArch's performance depends on. `batch` runs a
//! JSON request file through the `sparch-serve` layer — footprint-routed
//! backend dispatch, operand caching, sharded execution — and prints the
//! batch report. `stream` multiplies through the out-of-core `sparch-stream`
//! pipeline: **both** operands are ingested panel by panel (neither is
//! ever materialized whole) and flow through the staged
//! reader → multiply → merge/spill dataflow; partials merge in Huffman
//! order under `--budget-mb`, spilling to a temp directory — raw or
//! delta+varint encoded — when they do not fit. The merge plan is fixed
//! from `A`'s column histogram before either operand is read, so a round
//! can merge while later panels are still arriving. The histogram costs
//! a scan of `A`'s text of its own, so a run scans three times
//! (histogram, `A`, `B`) under either `--balance` — `uniform` included,
//! which needs the histogram only for the plan's leaf weights. With
//! `--panels auto` (or
//! `--tune`) the pipeline knobs — panel count and balance, merge fan-in,
//! spill codec — are derived by the `sparch-tune` planner from the
//! operand's column histogram and the budget instead of taken from
//! flags; the result is bit-identical either way. `dist` runs the same
//! panel decomposition across a fleet of shard worker *processes*
//! (`sparch-dist-worker`, found next to this binary or via
//! `SPARCH_DIST_WORKER`) connected over Unix sockets, with heartbeat
//! liveness, retry and straggler re-dispatch — the result is
//! bit-identical to the single-node pipeline at every shard count.

use serde_json::Value;
use sparch::baselines::OuterSpaceModel;
use sparch::core::{SpArchConfig, SpArchSim};
use sparch::dist::{DistConfig, DistCoordinator};
use sparch::exec::ShardPool;
use sparch::mem::TrafficCategory;
use sparch::obs::{chrome_trace_json, Recorder, Trace};
use sparch::serve::{Batch, DispatchPolicy, ServiceConfig, SpgemmService};
use sparch::sparse::{algo, gen, mm, stats, Csr};
use sparch::stream::{ExecPlan, MemoryBudget, StreamConfig, StreamingExecutor};
use sparch::tune::{BRows, KnobPlanner, OperandStats, Plan};
use std::collections::HashMap;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage:\n  sparch-cli multiply --a <mtx> [--b <mtx>] [--layers N] [--no-prefetch] \
         [--no-condense] [--verify] [--json <path>]\n  sparch-cli generate --kind \
         <rmat|uniform|poisson|banded> --n <N> [--degree D] [--seed S] --out <mtx>\n  \
         sparch-cli stats --a <mtx>\n  sparch-cli batch --file <requests.json> \
         [--policy adaptive|fixed:<backend>] [--threads N] [--tune] [--json <path>] \
         [--trace <path>]\n  \
         sparch-cli stream --a <mtx> [--b <mtx>] \
         [--budget-mb N] [--panels P|auto] [--tune] [--balance uniform|nnz] [--ways W] \
         [--spill-codec raw|varint] [--threads T] [--verify] [--json <path>] \
         [--trace <path>]\n  sparch-cli dist --a <mtx> [--b <mtx>] \
         [--shards S] [--panels P|auto] [--tune] [--budget-mb N] [--verify] \
         [--json <path>] [--trace <path>]\n  sparch-cli trace-check --file <trace.json> \
         --expect <name>[,<name>...]"
    );
    std::process::exit(2);
}

/// Parses `--name [value]` pairs. A flag missing from `known` — the
/// flags the subcommand reads — is a usage error (exit code 2), so a
/// mistyped or retired flag never runs silently at a default.
fn parse_flags(args: &[String], known: &str) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        if let Some(name) = arg.strip_prefix("--") {
            if !known.split(' ').any(|k| k == name) {
                eprintln!("unknown flag {arg}");
                usage();
            }
            let value = it.next_if(|v| !v.starts_with("--"));
            let value = value.map_or_else(|| "true".to_string(), Clone::clone);
            flags.insert(name.to_string(), value);
        } else {
            eprintln!("unexpected argument {arg:?}");
            usage();
        }
    }
    flags
}

/// The parsed value of `--key`, if the flag was given. A value that does
/// not parse is a usage error (exit code 2), not a panic.
fn flag_value<T>(flags: &HashMap<String, String>, key: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    flags.get(key).map(|v| {
        v.parse().unwrap_or_else(|e| {
            eprintln!("bad value {v:?} for --{key}: {e}");
            usage()
        })
    })
}

fn load(path: &str) -> Csr {
    match mm::read_file(path) {
        Ok(coo) => coo.to_csr(),
        Err(e) => {
            eprintln!("failed to read {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The recorder a command runs with: enabled iff `--trace` was given.
fn recorder_for(flags: &HashMap<String, String>) -> Recorder {
    if flags.contains_key("trace") {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    }
}

/// Writes `contents` to `path`. A failure is reported on stderr and
/// handed back as the exit code the command should return.
fn write_out(path: &str, contents: impl AsRef<[u8]>) -> Result<(), ExitCode> {
    std::fs::write(path, contents).map_err(|e| {
        eprintln!("failed to write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// Writes the report `json` renders to the `--json` path, if any. The
/// callers' `expect("serialize")` is an invariant: every report is plain
/// numbers, strings and lists, which always serialize.
fn write_json(
    flags: &HashMap<String, String>,
    json: impl FnOnce() -> String,
) -> Result<(), ExitCode> {
    if let Some(path) = flags.get("json") {
        write_out(path, json())?;
        println!("\nreport written to {path}");
    }
    Ok(())
}

/// Writes the Chrome trace-event export to the `--trace` path, if any.
fn write_trace(flags: &HashMap<String, String>, trace: &Trace) -> Result<(), ExitCode> {
    if let Some(path) = flags.get("trace") {
        write_out(path, chrome_trace_json(trace))?;
        println!("trace written to {path} (load it in Perfetto or chrome://tracing)");
    }
    Ok(())
}

/// The one-line summary of a planner decision (`--panels auto` / `--tune`).
fn print_plan(plan: &Plan) {
    println!(
        "auto-tuned: {} panels ({} balance), {}-way merge, {} spill codec{}",
        plan.config.panels,
        plan.config.balance,
        plan.config.merge_ways,
        plan.config.spill_codec,
        if plan.budget_satisfied {
            ""
        } else {
            " (budget formula unachievable; best effort)"
        }
    );
}

fn cmd_multiply(flags: &HashMap<String, String>) -> ExitCode {
    let Some(a_path) = flags.get("a") else {
        usage()
    };
    let mut config = SpArchConfig::default();
    if let Some(layers) = flag_value(flags, "layers") {
        config = config.with_tree_layers(layers);
    }
    if flags.contains_key("no-prefetch") {
        config = config.without_prefetcher();
    }
    if flags.contains_key("no-condense") {
        config = config.without_condensing();
    }

    let a = load(a_path);
    let b = flags.get("b").map(|p| load(p));
    let b = b.as_ref().unwrap_or(&a);

    let report = SpArchSim::new(config).run(&a, b);
    if flags.contains_key("verify") {
        let reference = algo::gustavson(&a, b);
        if report.result().approx_eq(&reference, 1e-9) {
            println!("verification: OK ({} non-zeros)", reference.nnz());
        } else {
            eprintln!("verification FAILED");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "A: {}x{}, {} nnz | B: {}x{}, {} nnz",
        a.rows(),
        a.cols(),
        a.nnz(),
        b.rows(),
        b.cols(),
        b.nnz()
    );
    println!("result: {} nnz", report.perf.output_nnz);
    println!(
        "partial matrices: {}, merge rounds: {}",
        report.partial_matrices, report.perf.rounds
    );
    println!(
        "cycles: {} ({:.3} ms @ 1 GHz)",
        report.perf.cycles,
        report.perf.seconds * 1e3
    );
    println!("throughput: {:.2} GFLOP/s", report.perf.gflops);
    println!(
        "bandwidth utilization: {:.1}%",
        report.perf.bandwidth_utilization * 100.0
    );
    println!(
        "prefetch hit rate: {:.1}%",
        report.prefetch.hit_rate() * 100.0
    );
    println!(
        "energy: {:.3} mJ ({:.3} nJ/FLOP)",
        report.energy_total() * 1e3,
        report.nj_per_flop()
    );
    println!("\nDRAM traffic ({:.2} MB total):", report.dram_mb());
    for cat in TrafficCategory::ALL {
        println!(
            "  {:>14}: {:.2} MB",
            cat.to_string(),
            report.traffic.bytes(cat) as f64 / 1e6
        );
    }
    let os = OuterSpaceModel::default().run(&a, b);
    println!(
        "\nvs OuterSPACE: {:.2}x speedup, {:.2}x less DRAM, {:.2}x energy saving",
        report.perf.gflops / os.gflops,
        os.traffic.total_bytes() as f64 / report.traffic.total_bytes() as f64,
        os.energy_j / report.energy_total()
    );

    let json = || serde_json::to_string_pretty(&report).expect("serialize");
    write_json(flags, json).err().unwrap_or(ExitCode::SUCCESS)
}

fn cmd_generate(flags: &HashMap<String, String>) -> ExitCode {
    let kind = flags.get("kind").map(String::as_str).unwrap_or("rmat");
    let n: usize = flag_value(flags, "n").unwrap_or(4096);
    let degree: usize = flag_value(flags, "degree").unwrap_or(8);
    let seed: u64 = flag_value(flags, "seed").unwrap_or(42);
    let Some(out) = flags.get("out") else { usage() };
    let m = match kind {
        "rmat" => gen::rmat_graph500(n, degree, seed),
        "uniform" => gen::uniform_random(n, n, n * degree, seed),
        "poisson" => {
            let side = (n as f64).cbrt().round() as usize;
            gen::poisson3d(side, side, side)
        }
        "banded" => gen::banded(n, degree / 2, n, seed),
        other => {
            eprintln!("unknown --kind {other:?}");
            usage();
        }
    };
    if let Err(e) = mm::write_file(out, &m.to_coo()) {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {}x{} matrix with {} nnz to {out}",
        m.rows(),
        m.cols(),
        m.nnz()
    );
    ExitCode::SUCCESS
}

fn cmd_stats(flags: &HashMap<String, String>) -> ExitCode {
    let Some(a_path) = flags.get("a") else {
        usage()
    };
    let a = load(a_path);
    let ms = stats::MatrixStats::of(&a);
    let ts = stats::TaskStats::of(&a, &a);
    // Plain numeric stats: serializing them cannot fail.
    println!("{}", serde_json::to_string_pretty(&ms).expect("serialize"));
    println!("{}", serde_json::to_string_pretty(&ts).expect("serialize"));
    ExitCode::SUCCESS
}

fn cmd_batch(flags: &HashMap<String, String>) -> ExitCode {
    let Some(file) = flags.get("file") else {
        usage()
    };
    let threads = flag_value(flags, "threads");
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let batch = match Batch::from_json(&text) {
        Ok(batch) => batch,
        Err(e) => {
            eprintln!("failed to parse {file}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let policy = match flags.get("policy") {
        Some(p) => match p.parse::<DispatchPolicy>() {
            Ok(policy) => policy,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => DispatchPolicy::Adaptive,
    };
    let mut service = SpgemmService::new(ServiceConfig {
        policy,
        threads,
        // `--tune` plans out-of-core steps' knobs per task.
        auto_tune: flags.contains_key("tune"),
        ..ServiceConfig::default()
    })
    .with_recorder(recorder_for(flags));
    let report = match service.serve(&batch) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("batch failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "served {} requests ({} multiply steps) on {} thread(s), policy {}",
        report.total_requests, report.total_steps, report.threads, report.policy
    );
    println!(
        "operand cache: {} hits / {} misses ({:.1}% hit rate)",
        report.cache_hits,
        report.cache_misses,
        report.cache_hit_rate * 100.0
    );
    println!(
        "total model-side work: {:.3e} units",
        report.total_model_cost
    );
    println!("wall: {:.3} s\n", report.wall_seconds);
    println!("backend            steps");
    for bs in &report.backend_steps {
        println!("{:>16} {:>7}", bs.backend, bs.steps);
    }

    let json = || serde_json::to_string_pretty(&report).expect("serialize");
    let written = write_json(flags, json)
        .and_then(|()| write_trace(flags, &service.recorder().drain("serve")));
    written.err().unwrap_or(ExitCode::SUCCESS)
}

fn cmd_stream(flags: &HashMap<String, String>) -> ExitCode {
    let Some(a_path) = flags.get("a") else {
        usage()
    };
    let b_path = flags.get("b").unwrap_or(a_path);
    let defaults = StreamConfig::default();
    let budget = flag_value(flags, "budget-mb").map_or(defaults.budget, MemoryBudget::from_mb);
    let base = StreamConfig {
        threads: flag_value(flags, "threads"),
        spill_dir: None,
        ..defaults.clone()
    };
    let tuned =
        flags.get("panels").map(String::as_str) == Some("auto") || flags.contains_key("tune");
    // A's column histogram, once something has scanned for it.
    let mut a_col_nnz = None;
    let config = if tuned {
        // Derive the data knobs from the operand's structure: one
        // histogram pass over A's file, B priced at its average row fill
        // (only its declared entry count is known without a second scan).
        let stats = match OperandStats::scan_file(a_path) {
            Ok(stats) => stats,
            Err(e) => {
                eprintln!("failed to scan {a_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let b_nnz = match mm::read_row_panels(b_path, 1) {
            Ok(probe) => probe.declared_nnz() as u64,
            Err(e) => {
                eprintln!("failed to open {b_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        // The planner targets the thread count the pipeline will really
        // run on (`--threads`, else `SPARCH_THREADS`, else all cores), so
        // resolve it once and pin both to it.
        let threads = ShardPool::with_override(base.threads).threads();
        let plan = KnobPlanner::new(budget)
            .with_threads(threads)
            .plan(&stats, &BRows::Average { nnz: b_nnz });
        print_plan(&plan);
        a_col_nnz = Some(stats.col_nnz);
        plan.config_over(&StreamConfig {
            threads: Some(threads),
            ..base
        })
    } else {
        StreamConfig {
            budget,
            panels: flag_value(flags, "panels")
                .unwrap_or(defaults.panels)
                .max(1),
            balance: flag_value(flags, "balance").unwrap_or(defaults.balance),
            merge_ways: flag_value(flags, "ways")
                .unwrap_or(defaults.merge_ways)
                .max(2),
            spill_codec: flag_value(flags, "spill-codec").unwrap_or(defaults.spill_codec),
            ..base
        }
    };

    // Both operands stream panel by panel through the staged pipeline —
    // neither is ever materialized whole (--verify re-reads them whole
    // afterwards, outside the pipelined path). The plan comes first, from
    // A's column histogram — the planner's, or one scan of A — over the
    // shapes the two headers declare; then each reader parses its file's
    // text once, whatever the panel count, on the plan's ranges: three
    // text scans at most, whatever the balance mode.
    let probe = |path: &str| match mm::read_panels(path, 1) {
        Ok(probe) => Some((probe.rows(), probe.cols())),
        Err(e) => {
            eprintln!("failed to open {path}: {e}");
            None
        }
    };
    let Some((a_rows, inner_dim)) = probe(a_path) else {
        return ExitCode::FAILURE;
    };
    let Some((b_rows, b_cols)) = probe(b_path) else {
        return ExitCode::FAILURE;
    };
    if b_rows != inner_dim {
        eprintln!("shape mismatch: A is {a_rows}x{inner_dim} but B is {b_rows}x{b_cols}");
        return ExitCode::FAILURE;
    }
    let a_col_nnz = match a_col_nnz.map_or_else(|| mm::scan_col_nnz(a_path), Ok) {
        Ok(col_nnz) => col_nnz,
        Err(e) => {
            eprintln!("failed to scan {a_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let plan = ExecPlan::for_operand(&a_col_nnz, config.panels, config.balance, config.merge_ways);
    let ranges: Vec<_> = plan.panel_sizes().map(|(range, _)| range.clone()).collect();
    // Both readers yield the plan's panel order, so each merge round's
    // pairs arrive together and the round runs as soon as they have.
    let order = plan.panel_order();
    let a_reader = match mm::PanelReader::open_with_ranges(a_path, ranges.clone()) {
        Ok(reader) => reader.in_order(order.clone()),
        Err(e) => {
            eprintln!("failed to open {a_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let b_reader = match mm::RowPanelReader::open_with_ranges(b_path, ranges) {
        Ok(reader) => reader.in_order(order),
        Err(e) => {
            eprintln!("failed to open {b_path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let executor = StreamingExecutor::new(config).with_recorder(recorder_for(flags));
    let to_csr = |item: Result<
        (std::ops::Range<usize>, sparch::sparse::Coo),
        sparch::sparse::SparseError,
    >| {
        item.map(|(range, coo)| (range, coo.into_csr()))
            .map_err(sparch::stream::StreamError::from)
    };
    let outcome = executor.multiply_streams(
        a_rows,
        b_cols,
        plan,
        a_reader.map(to_csr),
        b_reader.map(to_csr),
    );
    let (c, report) = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("streaming multiply failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if flags.contains_key("verify") {
        let a = load(a_path);
        let b = load(b_path);
        let reference = algo::gustavson(&a, &b);
        if c.approx_eq(&reference, 1e-9) {
            println!("verification: OK ({} non-zeros)", reference.nnz());
        } else {
            eprintln!("verification FAILED");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "A: {a_rows}x{inner_dim} | B: {b_rows}x{b_cols} — both streamed in {} panels \
         ({} balance)",
        report.panels, report.balance
    );
    println!("result: {} nnz", report.output_nnz);
    println!(
        "partials: {} ({} merge rounds, {}-way)",
        report.partials, report.merge_rounds, report.merge_ways
    );
    println!(
        "budget: {:.2} MiB, peak live: {:.2} MiB",
        report.budget_bytes as f64 / (1 << 20) as f64,
        report.peak_live_bytes as f64 / (1 << 20) as f64
    );
    println!(
        "spill ({} codec): {} writes / {} reads, {:.2} MiB written ({:.2} MiB raw equivalent)",
        report.spill_codec,
        report.spill_writes,
        report.spill_reads,
        report.spill_bytes_written as f64 / (1 << 20) as f64,
        report.spill_bytes_raw_equivalent as f64 / (1 << 20) as f64
    );
    let s = &report.stages;
    println!(
        "stages: reader {:.3}s, multiply {:.3}s, merge {:.3}s (spill write {:.3}s); \
         overlap: {} reads while rounds ran / {} rounds while reads went on",
        s.reader_busy_seconds,
        s.multiply_busy_seconds,
        s.merge_busy_seconds,
        s.spill_write_seconds,
        s.reads_overlapping_multiply,
        s.rounds_overlapping_multiply
    );

    let json = || serde_json::to_string_pretty(&report).expect("serialize");
    let written = write_json(flags, json)
        .and_then(|()| write_trace(flags, &executor.recorder().drain("stream")));
    written.err().unwrap_or(ExitCode::SUCCESS)
}

fn cmd_dist(flags: &HashMap<String, String>) -> ExitCode {
    let Some(a_path) = flags.get("a") else {
        usage()
    };
    let mut config = DistConfig {
        shards: flag_value(flags, "shards").unwrap_or(2).max(1),
        ..DistConfig::default()
    };
    let auto_panels = flags.get("panels").map(String::as_str) == Some("auto");
    let tuned = auto_panels || flags.contains_key("tune");
    if !auto_panels {
        if let Some(panels) = flag_value::<usize>(flags, "panels") {
            config.stream.panels = panels.max(1);
        }
    }
    if let Some(mb) = flag_value(flags, "budget-mb") {
        config.stream.budget = MemoryBudget::from_mb(mb);
    }

    let a = load(a_path);
    let b = flags.get("b").map(|p| load(p));
    let b = b.as_ref().unwrap_or(&a);
    if a.cols() != b.rows() {
        eprintln!(
            "shape mismatch: A is {}x{} but B is {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        );
        return ExitCode::FAILURE;
    }
    if tuned {
        // Both operands are in memory here, so the planner gets exact
        // histograms on both sides; thread knobs keep their defaults.
        let stats = OperandStats::from_csr(&a);
        let b_rows = sparch::tune::row_nnz_histogram(b);
        let plan = KnobPlanner::new(config.stream.budget)
            .with_threads(config.stream.threads.unwrap_or(1))
            .plan(&stats, &BRows::Histogram(&b_rows));
        print_plan(&plan);
        config.stream = plan.config_over(&config.stream);
    }

    let coordinator = DistCoordinator::new(config).with_recorder(recorder_for(flags));
    let (c, report) = match coordinator.multiply(&a, b) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("distributed multiply failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    if flags.contains_key("verify") {
        let reference = algo::gustavson(&a, b);
        if c.approx_eq(&reference, 1e-9) {
            println!("verification: OK ({} non-zeros)", reference.nnz());
        } else {
            eprintln!("verification FAILED");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "A: {}x{}, {} nnz | B: {}x{}, {} nnz",
        a.rows(),
        a.cols(),
        a.nnz(),
        b.rows(),
        b.cols(),
        b.nnz()
    );
    println!("result: {} nnz", report.output_nnz);
    println!(
        "fleet: {} shard worker(s), {} panel pair(s) -> {} partial(s), \
         {} merge round(s) ({}-way)",
        report.shards, report.panels, report.partials, report.merge_rounds, report.merge_ways
    );
    println!(
        "jobs: {} subtree(s) shipped, {} round(s) folded here | {} dispatched, {} retried, \
         {} straggler re-dispatch(es)",
        report.jobs,
        report.coordinator_rounds,
        report.dispatches,
        report.retries,
        report.straggler_redispatches
    );
    println!(
        "fleet health: {} respawn(s), {} heartbeat timeout(s)",
        report.respawns, report.heartbeat_timeouts
    );
    println!(
        "wire: {:.2} MiB sent, {:.2} MiB received",
        report.wire_bytes_sent as f64 / (1 << 20) as f64,
        report.wire_bytes_received as f64 / (1 << 20) as f64
    );

    let json = || serde_json::to_string_pretty(&report).expect("serialize");
    let written = write_json(flags, json)
        .and_then(|()| write_trace(flags, &coordinator.recorder().drain("dist")));
    written.err().unwrap_or(ExitCode::SUCCESS)
}

/// Validates a Chrome trace export: the file must parse, and every
/// `--expect`ed span name must appear as at least one complete ("X")
/// event. Exit code 1 on any miss — CI smoke tests gate on this.
fn cmd_trace_check(flags: &HashMap<String, String>) -> ExitCode {
    let Some(file) = flags.get("file") else {
        usage()
    };
    let Some(expect) = flags.get("expect") else {
        usage()
    };
    let text = match std::fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("failed to read {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root: Value = match serde_json::from_str(&text) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{file} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(events) = root.get("traceEvents").and_then(Value::as_arr) else {
        eprintln!("{file} has no traceEvents array");
        return ExitCode::FAILURE;
    };
    let mut missing = 0;
    for name in expect.split(',').filter(|n| !n.is_empty()) {
        let spans = events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(Value::as_str) == Some("X")
                    && e.get("name").and_then(Value::as_str) == Some(name)
            })
            .count();
        if spans == 0 {
            eprintln!("missing: no {name:?} span in {file}");
            missing += 1;
        } else {
            println!("{name}: {spans} span(s)");
        }
    }
    if missing > 0 {
        return ExitCode::FAILURE;
    }
    println!("trace OK: {} events", events.len());
    ExitCode::SUCCESS
}

type Command = fn(&HashMap<String, String>) -> ExitCode;

/// Every subcommand with the flags it reads, space-separated.
const COMMANDS: [(&str, Command, &str); 7] = [
    (
        "multiply",
        cmd_multiply,
        "a b layers no-prefetch no-condense verify json",
    ),
    ("generate", cmd_generate, "kind n degree seed out"),
    ("stats", cmd_stats, "a"),
    // `--reference-calibration` is retired: the reference table is the
    // default now, so old command lines still mean the same.
    (
        "batch",
        cmd_batch,
        "file policy threads tune json trace reference-calibration",
    ),
    (
        "stream",
        cmd_stream,
        "a b budget-mb panels tune balance ways spill-codec threads verify json trace",
    ),
    (
        "dist",
        cmd_dist,
        "a b shards panels tune budget-mb verify json trace",
    ),
    ("trace-check", cmd_trace_check, "file expect"),
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        usage()
    };
    let Some(&(_, run, known)) = COMMANDS.iter().find(|c| c.0 == cmd) else {
        usage()
    };
    run(&parse_flags(rest, known))
}

#[cfg(test)]
mod tests {
    use super::{parse_flags, COMMANDS};

    #[test]
    fn a_flag_without_a_value_is_true_even_last() {
        let args = ["--a", "x.mtx", "--verify", "--layers", "2", "--no-prefetch"];
        let flags = parse_flags(&args.map(String::from), COMMANDS[0].2);
        let get = |k: &str| flags.get(k).map(String::as_str);
        assert_eq!(get("a"), Some("x.mtx"));
        assert_eq!(get("verify"), Some("true"));
        assert_eq!(get("layers"), Some("2"));
        assert_eq!(get("no-prefetch"), Some("true"));
        assert_eq!(flags.len(), 4);
    }
}
