//! One workload, in this process: set-up, interleaved timed passes over
//! the seven end-to-end layers, and — with `--trace 1` — the per-layer
//! measurements and one traced pass.
//!
//! Every call goes through a public entry point of the stack (a library
//! function, or the built `sparch-cli` / `sparch-dist-worker`), is timed
//! by the span around it, and has its result checked outside that span.

use crate::bins::Bins;
use crate::host;
use crate::perlayer;
use crate::setup::{stream_config, FileOperand, Operand, Setup};
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::Summary;
use crate::workloads::{Plan, Workload};
use sparch_core::{SimReport, SimScratch, SpArchConfig, SpArchSim};
use sparch_dist::{DistConfig, DistCoordinator, DistReport};
use sparch_obs::{Recorder, ThreadRecorder};
use sparch_serve::{BatchReport, Calibration, DispatchPolicy, ServiceConfig, SpgemmService};
use sparch_sparse::{algo, Csr};
use sparch_stream::{MemoryBudget, StreamReport, StreamingExecutor};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The seven timed layers, in the order every pass visits them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Inmem,
    Nospill,
    Stream,
    File,
    Dist,
    Serve,
    Sim,
}

impl Layer {
    pub const ALL: [Layer; 7] = [
        Layer::Inmem,
        Layer::Nospill,
        Layer::Stream,
        Layer::File,
        Layer::Dist,
        Layer::Serve,
        Layer::Sim,
    ];

    /// The end-to-end metric this layer's time is reported as.
    pub fn metric(self) -> &'static str {
        match self {
            Layer::Inmem => "inmem_wall_s",
            Layer::Nospill => "stream_nospill_wall_s",
            Layer::Stream => "stream_wall_s",
            Layer::File => "file_wall_s",
            Layer::Dist => "dist_wall_s",
            Layer::Serve => "serve_wall_s",
            Layer::Sim => "sim_host_s",
        }
    }

    /// Span name in the trace: the metric's stem.
    pub fn span(self) -> &'static str {
        match self {
            Layer::Inmem => "inmem",
            Layer::Nospill => "stream_nospill",
            Layer::Stream => "stream",
            Layer::File => "file",
            Layer::Dist => "dist",
            Layer::Serve => "serve",
            Layer::Sim => "sim",
        }
    }
}

/// Operations attempted and failed. An `Err` from the stack or a result
/// that does not match its reference is a failed operation.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(format!("{what}: {why}"));
            }
        }
    }
}

/// `Ok` when `ok`, otherwise the lazily built reason.
pub fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// What the simulator reported for one operand, without the product.
#[derive(Debug, Clone)]
pub struct SimFacts {
    pub perf: sparch_core::PerfSummary,
    pub traffic: sparch_mem::TrafficCounter,
    pub prefetch: sparch_core::prefetch::PrefetchStats,
    pub partial_matrices: usize,
}

/// Reports returned by each layer's most recent sweep, one per operand —
/// the public return values the per-layer metrics are read from.
#[derive(Debug, Default)]
pub struct Telemetry {
    pub stream: Vec<StreamReport>,
    pub dist: Vec<DistReport>,
    pub serve: Option<BatchReport>,
    pub sim: Vec<SimFacts>,
}

/// A per-run scratch directory (`.mtx` operands, spill files, sockets,
/// CLI reports), removed with everything in it on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn create(path: PathBuf) -> Result<Scratch, String> {
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Scratch(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Options<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub check: bool,
    pub bins: &'a Bins,
    /// Where `trace-<workload>.json` goes.
    pub out_dir: &'a Path,
    pub scratch: &'a Path,
}

/// One workload's measured run: named metrics with their spread, plus
/// the operation counts.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    pub ops: Ops,
    pub notes: Vec<String>,
}

/// What one timed call returned, waiting to be checked.
enum Output {
    Product(Csr),
    /// Product, report, and whether the run had a bounded budget.
    Streamed(Csr, StreamReport, bool),
    CliReport(StreamReport),
    Fleet(Csr, DistReport),
    Batch(BatchReport),
    Simulated(SimReport),
}

/// Everything the layer calls need.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub plan: Plan,
    pub setup: Setup,
    pub bins: &'a Bins,
    pub threads: usize,
    pub seed: u64,
    pub check: bool,
    pub scratch: &'a Path,
    pub ops: Ops,
    /// Attached to every library call that takes one; disabled except in
    /// the traced pass.
    pub recorder: Recorder,
    pub last: Telemetry,
    /// Step times of every adaptive served batch so far, pooled.
    pub serve_steps: Vec<f64>,
    sim: SpArchSim,
    sim_scratch: SimScratch,
}

impl<'a> Ctx<'a> {
    /// `StreamingExecutor::multiply` of `A · A` under the pinned knobs.
    pub fn stream_call(
        &self,
        operand: &Operand,
        budget: MemoryBudget,
        threads: usize,
    ) -> Result<(Csr, StreamReport), String> {
        StreamingExecutor::new(stream_config(budget, threads))
            .with_recorder(self.recorder.clone())
            .multiply(&operand.a, &operand.a)
            .map_err(|e| e.to_string())
    }

    /// `DistCoordinator::multiply` of `A · A`: pinned single-threaded
    /// pipeline per shard, the same knobs and budget as the streaming run.
    pub fn dist_call(&self, operand: &Operand, shards: usize) -> Result<(Csr, DistReport), String> {
        let budget = operand.probe(self.threads).budget();
        DistCoordinator::new(DistConfig {
            shards,
            stream: stream_config(budget, 1),
            worker: Some(self.bins.worker.clone()),
            ..DistConfig::default()
        })
        .with_recorder(self.recorder.clone())
        .multiply(&operand.a, &operand.a)
        .map_err(|e| e.to_string())
    }

    pub fn service(&self, policy: DispatchPolicy) -> SpgemmService {
        SpgemmService::new(ServiceConfig {
            policy,
            threads: Some(self.threads),
            calibration: Some(Calibration::reference()),
            ..ServiceConfig::default()
        })
        .with_recorder(self.recorder.clone())
    }

    /// Every request must come back with the reference evaluation's shape
    /// and non-zero count (the service returns no matrices).
    pub fn check_batch(&self, report: &BatchReport) -> Result<(), String> {
        let expected = &self.setup.serve.expected;
        ensure(report.requests.len() == expected.len(), || {
            format!(
                "{} of {} requests answered",
                report.requests.len(),
                expected.len()
            )
        })?;
        for (r, want) in report.requests.iter().zip(expected) {
            let got = (r.output_rows, r.output_cols, r.output_nnz);
            ensure(got == *want, || {
                format!(
                    "request {} ({}) returned {got:?}, reference {want:?}",
                    r.index, r.kind
                )
            })?;
        }
        Ok(())
    }

    /// The `sparch-cli stream` subprocess squaring one `.mtx` operand;
    /// returns the report it wrote.
    fn file_call(&self, f: &FileOperand, report_path: &Path) -> Result<StreamReport, String> {
        let status = Command::new(&self.bins.cli)
            .arg("stream")
            .arg("--a")
            .arg(&f.path)
            .arg("--b")
            .arg(&f.path)
            .args(["--panels", &crate::setup::PANELS.to_string()])
            .args(["--ways", &crate::setup::MERGE_WAYS.to_string()])
            .args(["--balance", "nnz", "--spill-codec", "varint"])
            .args(["--threads", &self.threads.to_string()])
            .args(["--budget-mb", &f.budget_mb.to_string()])
            .arg("--json")
            .arg(report_path)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("spawn {}: {e}", self.bins.cli.display()))?;
        ensure(status.success(), || {
            format!("sparch-cli stream exited with {status}")
        })?;
        let text = std::fs::read_to_string(report_path).map_err(|e| e.to_string())?;
        serde_json::from_str(&text).map_err(|e| format!("unreadable CLI report: {e}"))
    }

    /// Times `repeats` back-to-back sweeps of `layer` over its operands.
    /// Each call gets a span (which is also the stopwatch) and a `check`
    /// span after it; returns seconds per sweep.
    fn run_layer(&mut self, layer: Layer, lane: &mut ThreadRecorder) -> f64 {
        let cat = self.workload.name();
        let r = self.plan.repeats;
        let repeats = match layer {
            Layer::Inmem => r.inmem,
            Layer::Nospill => r.nospill,
            Layer::Stream => r.stream,
            Layer::File => r.file,
            Layer::Dist => r.dist,
            Layer::Serve => r.serve,
            Layer::Sim => r.sim,
        };
        let operands = match layer {
            Layer::Inmem | Layer::Nospill | Layer::Stream | Layer::Dist => self.setup.main.len(),
            Layer::File => self.setup.file.len(),
            Layer::Sim => self.setup.sim.len(),
            Layer::Serve => 1,
        };
        let mut total = 0.0;
        for _ in 0..repeats {
            // `last` holds one sweep's reports, like the per-sweep times.
            match layer {
                Layer::Stream => self.last.stream.clear(),
                Layer::Dist => self.last.dist.clear(),
                Layer::Sim => self.last.sim.clear(),
                _ => {}
            }
            for i in 0..operands {
                let span = lane.begin(cat, layer.span());
                let output = self.call(layer, i);
                total += lane.end(span);
                let check = lane.begin(cat, "check");
                let verdict = output.and_then(|out| self.verify(i, out));
                self.ops.record(layer.span(), verdict);
                lane.end(check);
            }
        }
        total / repeats as f64
    }

    /// The timed part: one call into the stack, nothing else.
    fn call(&mut self, layer: Layer, i: usize) -> Result<Output, String> {
        Ok(match layer {
            Layer::Inmem => {
                let op = &self.setup.main[i];
                Output::Product(algo::gustavson(&op.a, &op.a))
            }
            Layer::Nospill => {
                let (c, report) =
                    self.stream_call(&self.setup.main[i], MemoryBudget::unbounded(), self.threads)?;
                Output::Streamed(c, report, false)
            }
            Layer::Stream => {
                let op = &self.setup.main[i];
                let budget = op.probe(self.threads).budget();
                let (c, report) = self.stream_call(op, budget, self.threads)?;
                Output::Streamed(c, report, true)
            }
            Layer::File => {
                let report_path = self.scratch.join("cli-report.json");
                let report = self.file_call(&self.setup.file[i], &report_path);
                let _ = std::fs::remove_file(&report_path);
                Output::CliReport(report?)
            }
            Layer::Dist => {
                let (c, report) = self.dist_call(&self.setup.main[i], 2)?;
                Output::Fleet(c, report)
            }
            Layer::Serve => {
                let mut service = self.service(DispatchPolicy::Adaptive);
                let report = service.serve(&self.setup.serve.batch);
                Output::Batch(report.map_err(|e| e.to_string())?)
            }
            Layer::Sim => {
                let op = &self.setup.sim[i];
                Output::Simulated(
                    self.sim
                        .run_with_scratch(&op.a, &op.a, &mut self.sim_scratch),
                )
            }
        })
    }

    /// The untimed part: compares operand `i`'s output with its reference
    /// and keeps the report for the per-layer metrics.
    fn verify(&mut self, i: usize, output: Output) -> Result<(), String> {
        match output {
            Output::Product(c) => ensure(c.approx_eq(&self.setup.main[i].reference, 1e-12), || {
                "gustavson differs from gustavson_reference".into()
            }),
            Output::Streamed(c, report, budgeted) => {
                let spilled = report.spill_writes > 0;
                if budgeted {
                    self.last.stream.push(report);
                }
                ensure(c == self.setup.main[i].probe(self.threads).product, || {
                    "streamed product is not bit-identical to the probe run".into()
                })?;
                ensure(spilled == budgeted, || {
                    format!("spilled: {spilled}, but the budget was bounded: {budgeted}")
                })
            }
            Output::CliReport(report) => {
                let want = &self.setup.file[i].operand.reference;
                let got = (report.a_rows, report.b_cols, report.output_nnz);
                ensure(got == (want.rows(), want.cols(), want.nnz()), || {
                    format!(
                        "CLI reports {got:?}, the reference is {}x{} with {} nnz",
                        want.rows(),
                        want.cols(),
                        want.nnz()
                    )
                })
            }
            Output::Fleet(c, report) => {
                self.last.dist.push(report);
                ensure(c == self.setup.main[i].probe(self.threads).product, || {
                    "fleet product is not bit-identical to the streaming run".into()
                })
            }
            Output::Batch(report) => {
                let verdict = self.check_batch(&report);
                self.serve_steps
                    .extend(report.requests.iter().flat_map(|r| &r.step_actual_seconds));
                self.last.serve = Some(report);
                verdict
            }
            Output::Simulated(report) => {
                self.last.sim.push(SimFacts {
                    perf: report.perf,
                    traffic: report.traffic.clone(),
                    prefetch: report.prefetch,
                    partial_matrices: report.partial_matrices,
                });
                ensure(
                    report
                        .result()
                        .approx_eq(&self.setup.sim[i].reference, 1e-12),
                    || "simulated product differs from gustavson_reference".into(),
                )
            }
        }
    }

    /// One interleaved pass: every layer once, in order.
    pub fn pass(&mut self, lane: &mut ThreadRecorder) -> [f64; 7] {
        Layer::ALL.map(|layer| self.run_layer(layer, lane))
    }

    pub fn sim_cycles(&self) -> u64 {
        self.last.sim.iter().map(|s| s.perf.cycles).sum()
    }

    pub fn sim_dram_bytes(&self) -> u64 {
        self.last.sim.iter().map(|s| s.traffic.total_bytes()).sum()
    }
}

/// Runs timed units until `seconds` have passed and every layer has
/// `min_samples`. The layer with the fewest timed seconds so far goes
/// next, so every layer gets an equal share of the run — cheap layers
/// collect more samples — and all of them stay interleaved across the
/// whole window: a slow spell of the host lands on every layer's
/// samples rather than on one layer's.
fn timed_units(ctx: &mut Ctx<'_>, seconds: f64, min_samples: usize) -> [Vec<f64>; 7] {
    let mut samples: [Vec<f64>; 7] = Default::default();
    let mut spent = [0.0f64; 7];
    let mut lane = ThreadRecorder::disabled();
    let start = Instant::now();
    loop {
        let over = start.elapsed().as_secs_f64() >= seconds;
        let next = (0..Layer::ALL.len())
            .filter(|&i| !over || samples[i].len() < min_samples)
            .min_by(|&a, &b| spent[a].total_cmp(&spent[b]));
        let Some(i) = next else {
            return samples;
        };
        let t0 = Instant::now();
        samples[i].push(ctx.run_layer(Layer::ALL[i], &mut lane));
        // Checks included: they take the run's time too.
        spent[i] += t0.elapsed().as_secs_f64();
    }
}

pub fn run(opts: &Options<'_>) -> Result<Outcome, String> {
    let threads = host::threads();
    let plan = opts.workload.plan(opts.check);
    let mut notes = Vec::new();

    // The bandwidth probe brackets the run: start, middle, end.
    let mut triad = opts.trace.then(|| {
        let mut t = host::Triad::new(threads, opts.check.then_some(1 << 20));
        t.probe();
        t
    });

    // Set-up, several times when it is the metric being reported: its
    // median is steadier than one reading, and set-up is cheap next to
    // the timed passes.
    let setups = if opts.trace || opts.check { 1 } else { 3 };
    let mut setup_samples = Vec::new();
    let mut setup = None;
    for _ in 0..setups {
        drop(setup.take());
        let s = Setup::build(&plan, opts.seed, threads, opts.scratch);
        setup_samples.push(s.seconds);
        setup = Some(s);
    }

    let mut ctx = Ctx {
        workload: opts.workload,
        plan,
        setup: setup.expect("at least one set-up ran"),
        bins: opts.bins,
        threads,
        seed: opts.seed,
        check: opts.check,
        scratch: opts.scratch,
        ops: Ops::default(),
        recorder: Recorder::disabled(),
        last: Telemetry::default(),
        serve_steps: Vec::new(),
        sim: SpArchSim::new(SpArchConfig::default()),
        sim_scratch: SimScratch::new(),
    };

    // One discarded pass lets page cache, allocator arenas and scratch
    // buffers reach steady state; its operations still count.
    if !opts.check {
        ctx.pass(&mut ThreadRecorder::disabled());
    }
    let (budget, min_samples) = match (opts.check, opts.trace) {
        (true, _) => (0.0, 1),
        (false, false) => (opts.seconds, 3),
        // The traced run spends most of its time on the per-layer
        // measurements; it only needs baselines for the derived ones.
        (false, true) => (opts.seconds / 3.0, 2),
    };
    let samples = timed_units(&mut ctx, budget, min_samples);
    let e2e: Vec<Summary> = samples.iter().map(|s| Summary::of(s)).collect();

    let mut metrics: Vec<(&'static str, &'static str, Summary)> = Vec::new();
    if !opts.trace {
        let rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
        for def in &END_TO_END {
            let summary = match def.name {
                "setup_s" => Summary::of(&setup_samples),
                "sim_cycles" => Summary::single(ctx.sim_cycles() as f64),
                "sim_dram_bytes" => Summary::single(ctx.sim_dram_bytes() as f64),
                "peak_rss_mb" => Summary::single(rss),
                name => {
                    let layer = Layer::ALL
                        .iter()
                        .position(|l| l.metric() == name)
                        .expect("every other end-to-end metric is a layer's wall time");
                    e2e[layer].clone()
                }
            };
            metrics.push((def.name, def.unit, summary));
        }
    } else {
        let triad = triad.as_mut().expect("the traced run owns a triad probe");
        triad.probe();
        let mut layer_metrics = perlayer::measure(&mut ctx, &e2e, triad, &mut notes);
        let traced = perlayer::traced_pass(&mut ctx, opts.out_dir, &e2e, &mut notes)?;
        layer_metrics.extend(traced);
        triad.probe();
        layer_metrics.extend(perlayer::host_metrics(triad, threads, &mut notes));
        for def in &PER_LAYER {
            let summary = layer_metrics
                .remove(def.name)
                .ok_or_else(|| format!("per-layer metric {} was not measured", def.name))?;
            metrics.push((def.name, def.unit, summary));
        }
        if let Some(extra) = layer_metrics.keys().next() {
            return Err(format!("measured {extra}, which the spec does not list"));
        }
    }

    Ok(Outcome {
        metrics,
        ops: ctx.ops,
        notes,
    })
}
