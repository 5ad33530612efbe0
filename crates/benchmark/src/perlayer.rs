//! Per-layer measurements (`--trace 1`): each crate's public kernels
//! timed in isolation on the workload's own operands, the counters the
//! layers return in their reports, and one traced pass.
//!
//! Layer = crate. Everything here is measured from outside: the panel
//! decomposition below is rebuilt from the same public functions the
//! streaming executor composes (`panel_ranges_by_nnz`,
//! `col_panel_condensed`, `row_panel`, `gustavson_scratch_on_rows`,
//! `huffman_plan`, `merge_sources`), so a kernel's isolated time can be
//! set against the pipeline time it is part of.

use crate::host::Triad;
use crate::run::{ensure, Ctx, Layer};
use crate::setup::{stream_config, MERGE_WAYS, PANELS};
use crate::stats::{tail_percentile, Summary};
use sparch_baselines::OuterSpaceModel;
use sparch_core::sched::{huffman_plan, PlanNode};
use sparch_dist::{read_message, write_message, DistConfig, DistCoordinator, Message};
use sparch_exec::ShardPool;
use sparch_mem::TrafficCategory;
use sparch_obs::{chrome_trace_json, Recorder, ThreadRecorder};
use sparch_serve::{Backend, DispatchPolicy};
use sparch_sparse::algo::{self, MultiplyScratch};
use sparch_sparse::{gen, mm, panel_ranges_by_nnz, Csr, Index};
use sparch_stream::merge::{merge_sources, MergeScratch, PartialSource};
use sparch_stream::spill::{self, SpillReader};
use sparch_stream::{MemoryBudget, SpillCodec};
use sparch_tune::{row_nnz_histogram, BRows, KnobPlanner, OperandStats};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Metrics = BTreeMap<&'static str, Summary>;

/// Repetitions of an isolated measurement; a measurement that has
/// already used `SAMPLE_BUDGET_S` stops early (but runs at least once).
const REPS: usize = 3;
const SAMPLE_BUDGET_S: f64 = 1.5;

/// Runs `f` (which returns the seconds it measured) up to `reps` times.
fn sample(reps: usize, mut f: impl FnMut() -> f64) -> Summary {
    let mut seconds = Vec::with_capacity(reps);
    let mut used = 0.0;
    while seconds.len() < reps && (seconds.is_empty() || used < SAMPLE_BUDGET_S) {
        let s = f();
        used += s;
        seconds.push(s);
    }
    Summary::of(&seconds)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let value = f();
    (value, t0.elapsed().as_secs_f64())
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One operand's panel jobs: `(A[:, p] condensed, B[p, :], occupied rows)`
/// for every non-empty panel, as the streaming reader produces them.
struct PanelJobs {
    jobs: Vec<(Csr, Csr, Vec<Index>)>,
}

impl PanelJobs {
    /// The Huffman leaf weights: non-zeros of each `A` panel.
    fn weights(&self) -> Vec<u64> {
        self.jobs.iter().map(|(a, _, _)| a.nnz() as u64).collect()
    }
}

fn slice_panels(a: &Csr) -> (PanelJobs, f64) {
    let ranges = panel_ranges_by_nnz(&a.col_nnz(), PANELS);
    let (sliced, seconds) = timed(|| {
        ranges
            .into_iter()
            .map(|r| {
                let (a_panel, live) = a.col_panel_condensed(r.clone());
                (a_panel, a.row_panel(r), live)
            })
            .collect::<Vec<_>>()
    });
    let jobs = sliced.into_iter().filter(|(a, _, _)| a.nnz() > 0).collect();
    (PanelJobs { jobs }, seconds)
}

/// Executes the Huffman plan over `partials` with `merge_sources`;
/// returns the product, seconds inside the kernel, and input / output
/// triples summed over the rounds.
fn merge_plan(
    partials: Vec<Csr>,
    weights: &[u64],
    rows: usize,
    cols: usize,
    scratch: &mut MergeScratch,
) -> Result<(Csr, f64, u64, u64), String> {
    let plan = huffman_plan(weights, MERGE_WAYS);
    let leaves = partials.len();
    let mut nodes: Vec<Option<Csr>> = partials.into_iter().map(Some).collect();
    let (mut seconds, mut triples_in, mut triples_out) = (0.0, 0u64, 0u64);
    for round in &plan.rounds {
        let sources: Vec<PartialSource> = round
            .children
            .iter()
            .map(|child| {
                let id = match *child {
                    PlanNode::Leaf(l) => l,
                    PlanNode::Round(r) => leaves + r,
                };
                let csr = nodes[id].take().expect("the plan consumes each node once");
                triples_in += csr.nnz() as u64;
                PartialSource::from_csr(csr)
            })
            .collect();
        let (merged, dt) = timed(|| merge_sources(rows, cols, sources, scratch));
        let merged = merged.map_err(|e| e.to_string())?;
        seconds += dt;
        triples_out += merged.nnz() as u64;
        nodes.push(Some(merged));
    }
    let product = nodes
        .pop()
        .flatten()
        .ok_or("the merge plan produced no result")?;
    Ok((product, seconds, triples_in, triples_out))
}

/// The isolated measurements and report-derived counters. `e2e` holds
/// this run's end-to-end baselines in `Layer::ALL` order.
pub fn measure(
    ctx: &mut Ctx<'_>,
    e2e: &[Summary],
    triad: &Triad,
    notes: &mut Vec<String>,
) -> Metrics {
    let reps = if ctx.check { 1 } else { REPS };
    let wall = |layer: Layer| e2e[layer as usize].median;
    let bandwidth = triad.gbps() * 1e9;
    let mut m = Metrics::new();
    let mut put = |name: &'static str, s: Summary| {
        m.insert(name, s);
    };
    let main = ctx.setup.main.clone();
    let flops: u64 = main.iter().map(|o| o.flops).sum();
    let out_nnz: u64 = main.iter().map(|o| o.reference.nnz() as u64).sum();

    // ---- sparse ----------------------------------------------------
    put("sparse.gen_s", Summary::single(ctx.setup.gen_s));
    put("sparse.mm_write_s", Summary::single(ctx.setup.mm_write_s));
    put("sparse.flops", Summary::single(flops as f64));
    put("sparse.out_nnz", Summary::single(out_nnz as f64));
    put(
        "sparse.compression",
        Summary::single(ratio(flops as f64, out_nnz as f64)),
    );
    put(
        "sparse.gustavson_mflops",
        Summary::single(flops as f64 / wall(Layer::Inmem) / 1e6),
    );

    // The kernels adaptive serving picks between, on the served operands.
    let serve_refs: Vec<Csr> = ctx
        .setup
        .serve
        .operands
        .iter()
        .map(|a| algo::gustavson_reference(a, a))
        .collect();
    type Kernel = fn(&Csr, &Csr) -> Csr;
    let kernels: [(&'static str, Kernel); 2] = [
        ("sparse.heap_s", algo::heap_spgemm),
        ("sparse.hash_s", algo::hash_spgemm),
    ];
    for (name, kernel) in kernels {
        let s = sample(reps, || {
            let mut seconds = 0.0;
            for (a, reference) in ctx.setup.serve.operands.iter().zip(&serve_refs) {
                let (c, dt) = timed(|| kernel(a, a));
                seconds += dt;
                let ok = c.approx_eq(reference, 1e-12);
                ctx.ops.record(
                    name,
                    ensure(ok, || "differs from gustavson_reference".into()),
                );
            }
            seconds
        });
        put(name, s);
    }
    drop(serve_refs);

    // Panel slicing, then the panel multiply kernel on a warm scratch.
    let mut panels = Vec::new();
    let slice_s = sample(reps, || {
        panels.clear();
        main.iter()
            .map(|op| {
                let (jobs, seconds) = slice_panels(&op.a);
                panels.push(jobs);
                seconds
            })
            .sum()
    });
    put("sparse.panel_slice_s", slice_s.clone());

    let mut scratch = MultiplyScratch::new();
    let multiply_all = |scratch: &mut MultiplyScratch| -> (Vec<Vec<Csr>>, f64) {
        timed(|| {
            panels
                .iter()
                .map(|p| {
                    p.jobs
                        .iter()
                        .map(|(a, b, live)| algo::gustavson_scratch_on_rows(a, b, live, scratch))
                        .collect()
                })
                .collect()
        })
    };
    multiply_all(&mut scratch); // warm the accumulator
    let mut partials = Vec::new();
    let mult_s = sample(reps, || {
        let (p, seconds) = multiply_all(&mut scratch);
        partials = p;
        seconds
    });
    let moved_bytes: u64 = panels
        .iter()
        .zip(&partials)
        .flat_map(|(p, outs)| p.jobs.iter().zip(outs))
        .map(|((a, b, _), c)| a.estimated_bytes() + b.estimated_bytes() + c.estimated_bytes())
        .sum();
    put("sparse.panel_mult_s", mult_s.clone());
    put(
        "sparse.panel_mult_mflops",
        Summary::single(flops as f64 / mult_s.median / 1e6),
    );
    // Computed from CSR sizes (each panel and partial counted once), not
    // measured traffic: cache misses on B's rows are not in it.
    put(
        "sparse.panel_mult_bytes_per_flop",
        Summary::single(ratio(moved_bytes as f64, flops as f64)),
    );
    put(
        "sparse.panel_mult_roofline_frac",
        Summary::single(moved_bytes as f64 / mult_s.median / bandwidth),
    );

    // Draining both panel readers over the CLI's operand files: one
    // histogram scan plus one full scan per panel and operand side.
    let read_s = sample(reps, || {
        let mut seconds = 0.0;
        for f in &ctx.setup.file {
            let (outcome, dt) = timed(|| -> Result<usize, sparch_sparse::SparseError> {
                let ranges = panel_ranges_by_nnz(&mm::scan_col_nnz(&f.path)?, PANELS);
                let mut entries = 0;
                for panel in mm::PanelReader::open_with_ranges(&f.path, ranges.clone())? {
                    entries += panel?.1.nnz();
                }
                for panel in mm::RowPanelReader::open_with_ranges(&f.path, ranges)? {
                    entries += panel?.1.nnz();
                }
                Ok(entries)
            });
            seconds += dt;
            let want = 2 * f.operand.a.nnz();
            ctx.ops.record(
                "sparse.mm_panel_read_s",
                outcome.map_err(|e| e.to_string()).and_then(|got| {
                    ensure(got == want, || format!("read {got} entries, wrote {want}"))
                }),
            );
        }
        seconds
    });
    let scanned: u64 = ctx
        .setup
        .file
        .iter()
        .map(|f| f.file_bytes * (1 + 2 * PANELS as u64))
        .sum();
    put("sparse.mm_panel_read_s", read_s.clone());
    put(
        "sparse.mm_read_mb_per_s",
        Summary::single(scanned as f64 / read_s.median / 1e6),
    );

    // ---- stream: the merge kernel on the run's own Huffman plan ------
    let mut merge_scratch = MergeScratch::new();
    let (mut triples_in, mut triples_out) = (0u64, 0u64);
    let merge_s = sample(reps, || {
        (triples_in, triples_out) = (0, 0);
        let mut seconds = 0.0;
        for ((op, p), leaves) in main.iter().zip(&panels).zip(&partials) {
            let outcome = merge_plan(
                leaves.clone(),
                &p.weights(),
                op.a.rows(),
                op.a.cols(),
                &mut merge_scratch,
            )
            .and_then(|(product, dt, t_in, t_out)| {
                seconds += dt;
                triples_in += t_in;
                triples_out += t_out;
                ensure(product == op.probe(ctx.threads).product, || {
                    "merged partials are not bit-identical to the pipeline's product".into()
                })
            });
            ctx.ops.record("stream.merge_s", outcome);
        }
        seconds
    });
    put("stream.merge_s", merge_s.clone());
    put(
        "stream.merge_mtriples_per_s",
        Summary::single(triples_in as f64 / merge_s.median / 1e6),
    );
    put(
        "stream.merge_dup_ratio",
        Summary::single(ratio((triples_in - triples_out) as f64, triples_in as f64)),
    );
    // Twelve bytes per triple read and per triple written, computed.
    put(
        "stream.merge_roofline_frac",
        Summary::single((triples_in + triples_out) as f64 * 12.0 / merge_s.median / bandwidth),
    );

    // The spill codec and spill files, over every leaf partial.
    let leaves: Vec<&Csr> = partials.iter().flatten().collect();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let encode_s = sample(reps, || {
        let (bytes, seconds) = timed(|| {
            leaves
                .iter()
                .map(|p| spill::encode_partial(p, SpillCodec::Varint))
                .collect()
        });
        encoded = bytes;
        seconds
    });
    let decode_s = sample(reps, || {
        let (decoded, seconds) = timed(|| {
            encoded
                .iter()
                .map(|bytes| spill::decode_partial(bytes))
                .collect::<Vec<_>>()
        });
        for (back, p) in decoded.into_iter().zip(&leaves) {
            let outcome = back
                .map_err(|e| e.to_string())
                .and_then(|c| ensure(c == **p, || "decode(encode(p)) != p".into()));
            ctx.ops.record("stream.spill_decode_s", outcome);
        }
        seconds
    });
    let spill_path = ctx.scratch.join("isolated.spill");
    let mut file_read_samples = Vec::new();
    let file_write_s = sample(reps, || {
        let (mut write_s, mut read_s) = (0.0, 0.0);
        for p in &leaves {
            let (written, dt) = timed(|| spill::write_partial(&spill_path, p, SpillCodec::Varint));
            write_s += dt;
            let (back, dt) =
                timed(|| SpillReader::open(&spill_path).and_then(SpillReader::read_all));
            read_s += dt;
            let outcome = written
                .and(back)
                .map_err(|e| e.to_string())
                .and_then(|c| ensure(c == **p, || "spill file does not read back equal".into()));
            ctx.ops.record("stream.spill_file_write_s", outcome);
        }
        file_read_samples.push(read_s);
        write_s
    });
    let _ = std::fs::remove_file(&spill_path);
    let raw_bytes: u64 = leaves.iter().map(|p| spill::raw_size(p)).sum();
    let coded_bytes: u64 = encoded.iter().map(|b| b.len() as u64).sum();
    put("stream.spill_encode_s", encode_s);
    put("stream.spill_decode_s", decode_s);
    put("stream.spill_file_write_s", file_write_s);
    put("stream.spill_file_read_s", Summary::of(&file_read_samples));
    put(
        "stream.spill_ratio",
        Summary::single(ratio(coded_bytes as f64, raw_bytes as f64)),
    );

    // The largest leaf, framed and parsed back: the wire codec's rate.
    let largest = leaves
        .iter()
        .max_by_key(|p| p.nnz())
        .expect("every workload has a non-empty operand");
    let frame = Message::Result {
        job: 0,
        partial: (*largest).clone(),
        spans: Vec::new(),
    };
    let mut frame_bytes = 0u64;
    let wire_s = sample(reps, || {
        let mut buf = Vec::new();
        let (outcome, seconds) = timed(|| {
            frame_bytes = write_message(&mut buf, &frame, SpillCodec::Varint)?;
            read_message(&mut buf.as_slice())
        });
        let ok =
            matches!(&outcome, Ok(Some(Message::Result { partial, .. })) if partial == *largest);
        ctx.ops.record(
            "dist.wire_mb_per_s",
            ensure(ok, || "frame did not round-trip".into()),
        );
        seconds
    });
    drop(encoded);
    drop(leaves);
    drop(partials);
    drop(panels);

    // What the budgeted streaming runs of the last pass reported.
    {
        let reports = &ctx.last.stream;
        let stage = |f: fn(&sparch_stream::StageReport) -> f64| -> f64 {
            reports.iter().map(|r| f(&r.stages)).sum()
        };
        let count = |f: fn(&sparch_stream::StreamReport) -> u64| -> f64 {
            reports.iter().map(f).sum::<u64>() as f64
        };
        put(
            "stream.reader_busy_s",
            Summary::single(stage(|s| s.reader_busy_seconds)),
        );
        put(
            "stream.multiply_busy_s",
            Summary::single(stage(|s| s.multiply_busy_seconds)),
        );
        put(
            "stream.multiply_kernel_s",
            Summary::single(stage(|s| s.multiply_kernel_seconds)),
        );
        put(
            "stream.merge_busy_s",
            Summary::single(stage(|s| s.merge_busy_seconds)),
        );
        put(
            "stream.merge_kernel_s",
            Summary::single(stage(|s| s.merge_kernel_seconds)),
        );
        put(
            "stream.spill_writeback_s",
            Summary::single(stage(|s| s.spill_write_seconds)),
        );
        put(
            "stream.merge_triples",
            Summary::single(count(|r| r.stages.merge_triples)),
        );
        put(
            "stream.spill_bytes_written",
            Summary::single(count(|r| r.spill_bytes_written)),
        );
        put(
            "stream.spill_reads",
            Summary::single(count(|r| r.spill_reads)),
        );
        put(
            "stream.peak_live_bytes",
            Summary::single(count(|r| r.peak_live_bytes)),
        );
        put(
            "stream.partial_bytes_total",
            Summary::single(count(|r| r.partial_bytes_total)),
        );
        put(
            "stream.merge_rounds",
            Summary::single(count(|r| r.merge_rounds as u64)),
        );
        put(
            "stream.rounds_merged_concurrently",
            Summary::single(count(|r| r.stages.rounds_merged_concurrently)),
        );
        put(
            "stream.reads_overlapping_multiply",
            Summary::single(count(|r| r.stages.reads_overlapping_multiply)),
        );
    }

    // Single-threaded pipeline, unbounded and budgeted.
    let pinned = |ctx: &mut Ctx<'_>, name: &'static str, budgeted: bool| -> Summary {
        sample(reps, || {
            let mut seconds = 0.0;
            for op in &main {
                let budget = if budgeted {
                    op.probe(ctx.threads).budget()
                } else {
                    MemoryBudget::unbounded()
                };
                let (result, dt) = timed(|| ctx.stream_call(op, budget, 1));
                seconds += dt;
                let outcome = result.and_then(|(c, _)| {
                    ensure(c == op.probe(ctx.threads).product, || {
                        "single-threaded product is not bit-identical".into()
                    })
                });
                ctx.ops.record(name, outcome);
            }
            seconds
        })
    };
    let nospill = wall(Layer::Nospill);
    let (t1, speedup) = if ctx.threads >= 2 {
        let t1 = pinned(ctx, "stream.t1_nospill_wall_s", false);
        let speedup = t1.median / nospill;
        (t1, speedup)
    } else {
        notes.push(
            "stream.thread_speedup: nproc < 2, so the timed runs are already single-threaded; \
             reported as 1 by definition, not measured"
                .into(),
        );
        (e2e[Layer::Nospill as usize].clone(), 1.0)
    };
    put(
        "stream.residual_s",
        Summary::single(t1.median - (slice_s.median + mult_s.median + merge_s.median)),
    );
    put("stream.t1_nospill_wall_s", t1);
    put(
        "stream.spill_cost_s",
        Summary::single(wall(Layer::Stream) - nospill),
    );
    put("stream.thread_speedup", Summary::single(speedup));
    let pinned_budgeted = pinned(ctx, "dist.over_stream", true);

    // ---- tune ----------------------------------------------------------
    let mut plans = Vec::new();
    let plan_s = sample(reps, || {
        plans.clear();
        let (_, seconds) = timed(|| {
            for op in &main {
                let stats = OperandStats::from_csr(&op.a);
                let rows = row_nnz_histogram(&op.a);
                let planner =
                    KnobPlanner::new(op.probe(ctx.threads).budget()).with_threads(ctx.threads);
                plans.push(planner.plan(&stats, &BRows::Histogram(&rows)));
            }
        });
        seconds
    });
    let mean = |f: fn(&sparch_tune::Plan) -> usize| -> f64 {
        plans.iter().map(|p| f(p) as f64).sum::<f64>() / plans.len() as f64
    };
    put("tune.plan_s", plan_s);
    put(
        "tune.auto_panels",
        Summary::single(mean(|p| p.config.panels)),
    );
    put(
        "tune.auto_ways",
        Summary::single(mean(|p| p.config.merge_ways)),
    );
    let auto_s = sample(reps, || {
        let mut seconds = 0.0;
        for (op, plan) in main.iter().zip(&plans) {
            let executor = sparch_stream::StreamingExecutor::new(plan.config.clone());
            let (result, dt) = timed(|| executor.multiply(&op.a, &op.a));
            seconds += dt;
            // Another panel split folds in another order: equal pattern,
            // values to rounding.
            let outcome = result.map_err(|e| e.to_string()).and_then(|(c, _)| {
                ensure(c.approx_eq(&op.reference, 1e-12), || {
                    "auto-tuned product differs from gustavson_reference".into()
                })
            });
            ctx.ops.record("tune.auto_wall_s", outcome);
        }
        seconds
    });
    put(
        "tune.auto_over_fixed",
        Summary::single(auto_s.median / wall(Layer::Stream)),
    );
    put("tune.auto_wall_s", auto_s);

    // ---- dist ----------------------------------------------------------
    let tiny = gen::uniform_random(64, 64, 326, ctx.seed);
    let tiny_ref = algo::gustavson_reference(&tiny, &tiny);
    let floor_s = sample(reps, || {
        let coordinator = DistCoordinator::new(DistConfig {
            shards: 2,
            stream: stream_config(MemoryBudget::unbounded(), 1),
            worker: Some(ctx.bins.worker.clone()),
            ..DistConfig::default()
        });
        let (result, seconds) = timed(|| coordinator.multiply(&tiny, &tiny));
        let outcome = result.map_err(|e| e.to_string()).and_then(|(c, _)| {
            ensure(c.approx_eq(&tiny_ref, 1e-12), || {
                "64x64 fleet product is wrong".into()
            })
        });
        ctx.ops.record("dist.spawn_floor_s", outcome);
        seconds
    });
    put("dist.spawn_floor_s", floor_s);
    let shards1_s = sample(reps, || {
        let mut seconds = 0.0;
        for op in &main {
            let (result, dt) = timed(|| ctx.dist_call(op, 1));
            seconds += dt;
            let outcome = result.and_then(|(c, _)| {
                ensure(c == op.probe(ctx.threads).product, || {
                    "one-shard product is not bit-identical".into()
                })
            });
            ctx.ops.record("dist.shards1_wall_s", outcome);
        }
        seconds
    });
    put("dist.shards1_wall_s", shards1_s);
    put(
        "dist.over_stream",
        Summary::single(wall(Layer::Dist) / pinned_budgeted.median),
    );
    {
        let reports = &ctx.last.dist;
        let count = |f: fn(&sparch_dist::DistReport) -> u64| -> f64 {
            reports.iter().map(f).sum::<u64>() as f64
        };
        let wire = count(|r| r.wire_bytes_sent + r.wire_bytes_received);
        put("dist.dispatches", Summary::single(count(|r| r.dispatches)));
        put("dist.retries", Summary::single(count(|r| r.retries)));
        put("dist.respawns", Summary::single(count(|r| r.respawns)));
        put(
            "dist.wire_bytes_sent",
            Summary::single(count(|r| r.wire_bytes_sent)),
        );
        put(
            "dist.wire_bytes_received",
            Summary::single(count(|r| r.wire_bytes_received)),
        );
        put(
            "dist.wire_bytes_per_flop",
            Summary::single(ratio(wire, flops as f64)),
        );
    }
    put(
        "dist.wire_mb_per_s",
        Summary::single(frame_bytes as f64 / wire_s.median / 1e6),
    );

    // ---- serve -----------------------------------------------------------
    let serve_wall = wall(Layer::Serve);
    {
        let report = ctx
            .last
            .serve
            .as_ref()
            .expect("every pass serves the batch");
        put(
            "serve.requests",
            Summary::single(report.total_requests as f64),
        );
        put("serve.steps", Summary::single(report.total_steps as f64));
        put(
            "serve.req_per_s",
            Summary::single(report.total_requests as f64 / serve_wall),
        );
        put(
            "serve.cache_hit_rate",
            Summary::single(report.cache_hit_rate),
        );
        put(
            "serve.mispredict_rate",
            Summary::single(report.mispredict_rate()),
        );
        // Under `Calibration::reference()` one model unit is priced at one
        // second, so this "seconds" field is an error in model units.
        put(
            "serve.model_cost_error_units",
            Summary::single(report.mean_abs_cost_error_seconds),
        );
        const STEP_METRICS: [&str; 8] = [
            "serve.steps.gustavson",
            "serve.steps.hash_spgemm",
            "serve.steps.heap_spgemm",
            "serve.steps.sort_merge",
            "serve.steps.inner_product",
            "serve.steps.outer_product",
            "serve.steps.streaming",
            "serve.steps.distributed",
        ];
        for (backend, name) in Backend::ALL.into_iter().zip(STEP_METRICS) {
            assert!(
                name.ends_with(backend.name()),
                "{name} is not {}",
                backend.name()
            );
            let steps = report
                .backend_steps
                .iter()
                .find(|b| b.backend == backend.name())
                .map_or(0, |b| b.steps);
            put(name, Summary::single(steps as f64));
        }
    }
    let steps = Summary::of(&ctx.serve_steps);
    // The tail is reported only as high as the pooled step count supports.
    let (tail_pct, tail) = tail_percentile(&ctx.serve_steps, 95).unwrap_or((50, steps.median));
    if tail_pct != 95 {
        notes.push(format!(
            "serve.step_p95_s: {} pooled steps support the {tail_pct}th percentile at most \
             (ten samples beyond); that is what is reported, see serve.step_tail_pct",
            steps.n
        ));
    }
    put("serve.step_p50_s", Summary::single(steps.median));
    put("serve.step_p95_s", Summary::single(tail));
    put("serve.step_tail_pct", Summary::single(tail_pct as f64));

    let warm_s = sample(reps, || {
        let mut service = ctx.service(DispatchPolicy::Adaptive);
        let cold = service.serve(&ctx.setup.serve.batch);
        let (warm, seconds) = timed(|| service.serve(&ctx.setup.serve.batch));
        let outcome = cold
            .and(warm)
            .map_err(|e| e.to_string())
            .and_then(|report| {
                ctx.check_batch(&report)?;
                ensure(report.cache_misses == 0, || {
                    format!("{} cache misses on the second serve", report.cache_misses)
                })
            });
        ctx.ops.record("serve.warm_wall_s", outcome);
        seconds
    });
    put("serve.warm_wall_s", warm_s);
    let fixed_s = sample(reps, || {
        let mut service = ctx.service(DispatchPolicy::Fixed(Backend::Gustavson));
        let (result, seconds) = timed(|| service.serve(&ctx.setup.serve.batch));
        let outcome = result
            .map_err(|e| e.to_string())
            .and_then(|report| ctx.check_batch(&report));
        ctx.ops.record("serve.fixed_gustavson_wall_s", outcome);
        seconds
    });
    put(
        "serve.adaptive_over_fixed",
        Summary::single(serve_wall / fixed_s.median),
    );
    put("serve.fixed_gustavson_wall_s", fixed_s);

    // ---- exec, obs ---------------------------------------------------------
    let jobs: Vec<u32> = (0..if ctx.check { 10_000 } else { 100_000 }).collect();
    let pool = ShardPool::new(ctx.threads);
    let map_s = sample(reps, || {
        timed(|| black_box(pool.scoped_map(&jobs, |_, x| *x))).1
    });
    put(
        "exec.map_ns_per_job",
        Summary::single(map_s.median * 1e9 / jobs.len() as f64),
    );
    let spans = if ctx.check { 100_000 } else { 1_000_000 };
    let span_s = sample(reps, || {
        let mut lane = ThreadRecorder::disabled();
        timed(|| {
            for _ in 0..spans {
                let h = lane.begin("bench", "noop");
                black_box(lane.end(h));
            }
        })
        .1
    });
    put(
        "obs.disabled_span_ns",
        Summary::single(span_s.median * 1e9 / spans as f64),
    );

    // ---- core (engine, mem) and baselines -----------------------------------
    {
        let sims = &ctx.last.sim;
        let multiplies: u64 = sims.iter().map(|s| s.perf.multiplies).sum();
        let cycles: u64 = sims.iter().map(|s| s.perf.cycles).sum();
        let sim_seconds: f64 = sims.iter().map(|s| s.perf.seconds).sum();
        let sim_flops: u64 = sims.iter().map(|s| s.perf.flops).sum();
        let busy: f64 = sims
            .iter()
            .map(|s| s.perf.bandwidth_utilization * s.perf.cycles as f64)
            .sum();
        let hits: u64 = sims.iter().map(|s| s.prefetch.line_hits).sum();
        let requests: u64 = sims.iter().map(|s| s.prefetch.line_requests).sum();
        put(
            "core.host_mflops_per_s",
            Summary::single(multiplies as f64 / wall(Layer::Sim) / 1e6),
        );
        put(
            "core.sim_gflops",
            Summary::single(ratio(sim_flops as f64, sim_seconds) / 1e9),
        );
        put(
            "core.bandwidth_utilization",
            Summary::single(ratio(busy, cycles as f64)),
        );
        put(
            "core.partial_matrices",
            Summary::single(sims.iter().map(|s| s.partial_matrices).sum::<usize>() as f64),
        );
        put(
            "core.rounds",
            Summary::single(sims.iter().map(|s| s.perf.rounds).sum::<usize>() as f64),
        );
        put(
            "core.prefetch_hit_rate",
            Summary::single(ratio(hits as f64, requests as f64)),
        );
        const DRAM_METRICS: [&str; 5] = [
            "core.dram.mat_a_read",
            "core.dram.mat_b_read",
            "core.dram.partial_write",
            "core.dram.partial_read",
            "core.dram.final_write",
        ];
        for (category, name) in TrafficCategory::ALL.into_iter().zip(DRAM_METRICS) {
            assert!(
                name.ends_with(&category.to_string()),
                "{name} is not {category}"
            );
            let bytes: u64 = sims.iter().map(|s| s.traffic.bytes(category)).sum();
            put(name, Summary::single(bytes as f64));
        }
        // The paper reports 2.8x less DRAM traffic than OuterSPACE. Both
        // sides here are models, unvalidated against hardware.
        let outerspace: u64 = ctx
            .setup
            .sim
            .iter()
            .map(|op| {
                OuterSpaceModel::default()
                    .run(&op.a, &op.a)
                    .traffic
                    .total_bytes()
            })
            .sum();
        put(
            "baselines.outerspace_dram_ratio",
            Summary::single(ratio(outerspace as f64, ctx.sim_dram_bytes() as f64)),
        );
    }
    m
}

/// One more pass with a live recorder owned by the benchmark: a span for
/// the workload, a child span around every call into a layer, and the
/// libraries' own recorders attached. Writes the Chrome trace and returns
/// the `obs.*` metrics that come from it.
pub fn traced_pass(
    ctx: &mut Ctx<'_>,
    out_dir: &Path,
    e2e: &[Summary],
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let cat = ctx.workload.name();
    let recorder = Recorder::enabled();
    ctx.recorder = recorder.clone();
    let mut lane = recorder.thread("bench");
    let root = lane.begin(cat, "workload");
    let times = ctx.pass(&mut lane);
    let workload_s = lane.end(root);
    drop(lane);
    ctx.recorder = Recorder::disabled();
    let trace = recorder.drain(&format!("sparch-benchmark {cat}"));

    // Self time of the workload span = its duration minus its children;
    // the harness must account for (nearly) all of it with layer spans.
    let bench_tid = trace
        .threads
        .iter()
        .find(|t| t.label.starts_with("bench"))
        .map(|t| t.tid)
        .ok_or("the traced pass recorded no bench lane")?;
    let children: f64 = trace
        .spans
        .iter()
        .filter(|s| s.tid == bench_tid && s.depth == 1)
        .map(|s| s.seconds())
        .sum();
    let coverage = children / workload_s;
    ctx.ops.record(
        "trace",
        ensure(coverage >= 0.95, || {
            format!(
                "layer spans cover only {:.1} % of the workload span",
                coverage * 100.0
            )
        }),
    );
    notes.push(format!(
        "trace: {} spans, layer spans cover {:.2} % of the {workload_s:.3} s workload span",
        trace.spans.len(),
        coverage * 100.0
    ));

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("trace-{cat}.json"));
    std::fs::write(&path, chrome_trace_json(&trace))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    let mut m = Metrics::new();
    m.insert("obs.spans", Summary::single(trace.spans.len() as f64));
    let stream = Layer::Stream as usize;
    m.insert(
        "obs.trace_overhead_frac",
        Summary::single(times[stream] / e2e[stream].median - 1.0),
    );
    Ok(m)
}

pub fn host_metrics(triad: &Triad, threads: usize, notes: &mut Vec<String>) -> Metrics {
    notes.push(format!(
        "host.triad_gbps: three arrays of {} MiB each, {:.1}x the {} MiB last-level cache, on {threads} thread(s)",
        triad.array_bytes >> 20,
        triad.array_bytes as f64 / triad.llc_bytes as f64,
        triad.llc_bytes >> 20,
    ));
    Metrics::from([
        ("host.nproc", Summary::single(crate::host::nproc() as f64)),
        ("host.threads", Summary::single(threads as f64)),
        ("host.llc_bytes", Summary::single(triad.llc_bytes as f64)),
        ("host.triad_gbps", Summary::single(triad.gbps())),
        ("host.noise_frac", Summary::single(triad.noise_frac())),
    ])
}
