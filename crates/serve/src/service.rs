//! [`SpgemmService`]: batched request execution over the exec layer.
//!
//! A batch flows through three phases:
//!
//! 1. **Resolve** (sequential, submission order) — operand specs are
//!    materialized once per name, then every request's operand references
//!    probe the [`OperandCache`]; because this walk is sequential, the
//!    per-request hit/miss telemetry and LRU evictions are identical at
//!    any worker count.
//! 2. **Execute** (parallel) — requests fan out over the worker pool
//!    ([`ShardPool::scoped_map`]), each timed on its worker; each
//!    multiply step measures its [`TaskFeatures`], asks the dispatcher
//!    for a backend, and runs it. Choices depend only on matrix
//!    structure, so they too are thread-count-invariant.
//! 3. **Report** — per-request records (backend per step, model cost,
//!    output shape, cache telemetry, wall time) aggregate into a
//!    serializable [`BatchReport`].

use crate::cache::{OperandCache, PreparedOperand};
use crate::dispatch::{AdaptiveDispatcher, Calibration, DispatchPolicy, TaskFeatures};
use crate::request::{Batch, Request};
use crate::{Backend, ServeError};
use serde::{Deserialize, Serialize};
use sparch_exec::ShardPool;
use sparch_obs::{Counter, Recorder, ThreadRecorder};
use sparch_sparse::{linalg, Csr};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Configuration for a [`SpgemmService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Backend selection policy.
    pub policy: DispatchPolicy,
    /// Worker-thread override (`None` = `SPARCH_THREADS` / all cores).
    pub threads: Option<usize>,
    /// Operand-cache capacity, in operands.
    pub cache_capacity: usize,
    /// Calibration table. `None` means [`Calibration::reference`]; a
    /// pinned table scales the *reported* model cost of each backend's
    /// steps and never changes which backend runs.
    pub calibration: Option<Calibration>,
    /// Memory budget in bytes for a single multiply step. When set, any
    /// step whose [`TaskFeatures::estimated_footprint_bytes`] exceeds it
    /// is routed to [`Backend::Streaming`] regardless of policy (an
    /// in-memory backend would materialize more than the budget). `None`
    /// disables footprint routing.
    pub memory_budget: Option<u64>,
    /// Second, larger footprint threshold in bytes: steps estimated
    /// above it are routed to [`Backend::Distributed`] — shard worker
    /// processes with their own address spaces — instead of the
    /// in-process streaming pipeline. Set it at or above
    /// `memory_budget`. `None` disables distributed routing.
    pub distributed_threshold: Option<u64>,
    /// Pipeline configuration for streaming steps: panel count and
    /// balance mode, merge fan-in, spill codec. The default is the
    /// deterministic [`sparch_stream::StreamConfig::pinned`] (single
    /// multiply worker — request fan-out stays the serving layer's only
    /// parallelism axis). [`ServiceConfig::memory_budget`] overrides the
    /// budget field per step; the other knobs pass through as-is.
    pub stream_config: sparch_stream::StreamConfig,
    /// Plan streaming/distributed steps' knobs per task instead of using
    /// [`ServiceConfig::stream_config`] verbatim: each out-of-core step
    /// runs a [`sparch_tune::KnobPlanner`] over the step's operand
    /// structure and the effective budget, deriving panels, balance,
    /// fan-in and codec (thread-count knobs and the spill directory still
    /// come from `stream_config`). Deterministic — the plan is a pure
    /// function of matrix structure — and bit-identity to the in-memory
    /// backends holds at any planned setting.
    pub auto_tune: bool,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            policy: DispatchPolicy::Adaptive,
            threads: None,
            cache_capacity: 64,
            calibration: None,
            memory_budget: None,
            distributed_threshold: None,
            stream_config: sparch_stream::StreamConfig::pinned(),
            auto_tune: false,
        }
    }
}

/// Telemetry for one served request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestReport {
    /// Position of the request in the batch.
    pub index: usize,
    /// Request kind (`single` / `chain` / `power` / `masked`).
    pub kind: String,
    /// Backend chosen for each multiply step, in order.
    pub backends: Vec<String>,
    /// Number of multiply steps executed.
    pub steps: usize,
    /// Total calibrated model cost across the request's steps.
    pub model_cost: f64,
    /// Output shape: rows.
    pub output_rows: usize,
    /// Output shape: columns.
    pub output_cols: usize,
    /// Output stored entries.
    pub output_nnz: usize,
    /// Operand-cache hits while resolving this request's references.
    pub cache_hits: u32,
    /// Operand-cache misses while resolving this request's references.
    pub cache_misses: u32,
    /// Wall-clock seconds on the worker (not deterministic).
    pub wall_seconds: f64,
    /// Calibrated model cost of each multiply step, in order —
    /// deterministic given the service's calibration table.
    pub step_model_seconds: Vec<f64>,
    /// Measured wall-clock seconds of each multiply step, in order (not
    /// deterministic; zeroed by [`BatchReport::without_timing`]).
    pub step_actual_seconds: Vec<f64>,
}

/// Steps executed per backend over a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BackendSteps {
    /// The backend's name.
    pub backend: String,
    /// Multiply steps dispatched to it.
    pub steps: u64,
}

/// The serializable result of serving one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchReport {
    /// Report schema version ([`BatchReport::SCHEMA_VERSION`]). Bumped
    /// whenever a field is added, removed, or changes meaning, so
    /// archived reports stay comparable.
    pub schema_version: u32,
    /// The dispatch policy, as text (`adaptive` / `fixed:<backend>`).
    pub policy: String,
    /// Worker threads used for the execute phase.
    pub threads: usize,
    /// Number of requests served.
    pub total_requests: usize,
    /// Total multiply steps across all requests.
    pub total_steps: usize,
    /// Sum of per-request calibrated model costs — the "model-side work"
    /// that makes runs under different policies comparable.
    pub total_model_cost: f64,
    /// Operand-cache hits across the batch's operand references.
    pub cache_hits: u64,
    /// Operand-cache misses across the batch's operand references.
    pub cache_misses: u64,
    /// `hits / (hits + misses)` for this batch (0 when no references).
    pub cache_hit_rate: f64,
    /// Multiply steps per backend, in [`Backend::ALL`] order.
    pub backend_steps: Vec<BackendSteps>,
    /// Wall-clock seconds for the whole batch (not deterministic).
    pub wall_seconds: f64,
    /// Mean over steps of `|predicted − measured|` step cost in seconds
    /// (not deterministic; zeroed by [`BatchReport::without_timing`]).
    pub mean_abs_cost_error_seconds: f64,
    /// Per-request telemetry, in submission order.
    pub requests: Vec<RequestReport>,
}

impl BatchReport {
    /// Current value written into [`BatchReport::schema_version`].
    /// Version history: 1 — initial schema; 2 — added
    /// `mean_abs_cost_error_seconds`, per-step `step_model_seconds` /
    /// `step_actual_seconds` and a batches-since-calibration counter;
    /// 3 — dropped that counter (the table is fixed for a service's
    /// lifetime).
    pub const SCHEMA_VERSION: u32 = 3;

    /// A copy with every wall-clock field zeroed — the model-driven view
    /// that must be bit-identical across worker counts (pinned by
    /// `crates/serve/tests/service_batch.rs`).
    pub fn without_timing(&self) -> BatchReport {
        let mut stripped = self.clone();
        stripped.wall_seconds = 0.0;
        stripped.mean_abs_cost_error_seconds = 0.0;
        for r in &mut stripped.requests {
            r.wall_seconds = 0.0;
            r.step_actual_seconds.iter_mut().for_each(|s| *s = 0.0);
        }
        stripped
    }

    /// Dispatch mispredict rate: over every pair of steps in the batch
    /// whose *predicted* costs differ, the fraction the model ranked in
    /// the opposite order from their *measured* times (a Kendall-style
    /// inversion count). `0.0` is a perfect ranking, and a batch with
    /// fewer than two comparable steps scores `0.0`.
    pub fn mispredict_rate(&self) -> f64 {
        let steps: Vec<(f64, f64)> = self
            .requests
            .iter()
            .flat_map(|r| {
                r.step_model_seconds
                    .iter()
                    .zip(&r.step_actual_seconds)
                    .map(|(&m, &a)| (m, a))
            })
            .collect();
        let mut comparable = 0u64;
        let mut inversions = 0u64;
        for i in 0..steps.len() {
            for j in i + 1..steps.len() {
                let dm = steps[i].0 - steps[j].0;
                let da = steps[i].1 - steps[j].1;
                if dm != 0.0 && da != 0.0 {
                    comparable += 1;
                    if (dm > 0.0) != (da > 0.0) {
                        inversions += 1;
                    }
                }
            }
        }
        if comparable == 0 {
            0.0
        } else {
            inversions as f64 / comparable as f64
        }
    }
}

/// A resolved, shape-checked request ready to execute.
struct PlannedRequest {
    index: usize,
    request: Request,
    ops: Vec<Arc<PreparedOperand>>,
    cache_hits: u32,
    cache_misses: u32,
}

/// The request-serving layer over the eight software SpGEMM backends.
///
/// # Example
///
/// ```
/// use sparch_serve::{Batch, DispatchPolicy, ServiceConfig, SpgemmService};
/// use sparch_serve::request::{OperandDef, OperandSpec, Request};
/// use sparch_sparse::gen::Recipe;
///
/// let batch = Batch {
///     operands: vec![OperandDef {
///         name: "g".into(),
///         spec: OperandSpec::Gen {
///             recipe: Recipe::Rmat { n: 64, avg_degree: 4 },
///             seed: 1,
///         },
///     }],
///     requests: vec![
///         Request::Single { a: "g".into(), b: "g".into() },
///         Request::Power { a: "g".into(), k: 3, threshold: 0.0 },
///     ],
/// };
/// let mut service = SpgemmService::new(ServiceConfig {
///     threads: Some(2),
///     ..ServiceConfig::default()
/// });
/// let report = service.serve(&batch).unwrap();
/// assert_eq!(report.total_requests, 2);
/// assert!(report.cache_hits > 0); // "g" is reused across requests
/// ```
pub struct SpgemmService {
    dispatcher: AdaptiveDispatcher,
    cache: OperandCache,
    pool: ShardPool,
    stream_config: sparch_stream::StreamConfig,
    recorder: Recorder,
    auto_tune: bool,
}

impl SpgemmService {
    /// Builds a service. Runs no backend and spawns no process: the
    /// calibration table is the config's, or [`Calibration::reference`].
    pub fn new(config: ServiceConfig) -> Self {
        let calibration = config.calibration.unwrap_or_else(Calibration::reference);
        let mut dispatcher = AdaptiveDispatcher::new(config.policy, calibration);
        if let Some(budget) = config.memory_budget {
            dispatcher = dispatcher.with_memory_budget(budget);
        }
        if let Some(threshold) = config.distributed_threshold {
            dispatcher = dispatcher.with_distributed_threshold(threshold);
        }
        SpgemmService {
            dispatcher,
            cache: OperandCache::new(config.cache_capacity),
            pool: ShardPool::with_override(config.threads),
            stream_config: config.stream_config,
            recorder: Recorder::disabled(),
            auto_tune: config.auto_tune,
        }
    }

    /// Replaces the service's recorder. With an enabled recorder every
    /// multiply step records a span named after the chosen backend (one
    /// lane per request, labelled `req-<index>`) carrying the model's
    /// cost estimate, and the `serve.model_cost_us` /
    /// `serve.actual_cost_us` counters accumulate predicted vs measured
    /// step time in microseconds.
    #[must_use]
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The recorder this service reports spans and metrics to.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The dispatcher (policy + calibration) this service runs with.
    pub fn dispatcher(&self) -> &AdaptiveDispatcher {
        &self.dispatcher
    }

    /// The operand cache (persists across [`SpgemmService::serve`] calls).
    pub fn cache(&self) -> &OperandCache {
        &self.cache
    }

    /// Serves one batch: resolves operands through the cache, executes
    /// every request across the worker pool, and returns the batch report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if an operand fails to build, a request
    /// references an unknown name, or shapes are incompatible. The batch
    /// is validated before anything executes — a bad request fails the
    /// whole batch rather than half-running it.
    pub fn serve(&mut self, batch: &Batch) -> Result<BatchReport, ServeError> {
        let wall_start = Instant::now();
        let plans = self.resolve(batch)?;

        let runner = RequestRunner {
            dispatcher: &self.dispatcher,
            stream_config: &self.stream_config,
            recorder: &self.recorder,
            auto_tune: self.auto_tune,
        };
        let requests = self.pool.scoped_map(&plans, |_, plan| {
            let start = Instant::now();
            let mut report = runner.run(plan);
            report.wall_seconds = start.elapsed().as_secs_f64();
            report
        });

        let mean_abs_cost_error_seconds = mean_abs_cost_error(&requests);

        let cache_hits: u64 = requests.iter().map(|r| r.cache_hits as u64).sum();
        let cache_misses: u64 = requests.iter().map(|r| r.cache_misses as u64).sum();
        let refs = cache_hits + cache_misses;
        let mut steps_per_backend: HashMap<&str, u64> = HashMap::new();
        for r in &requests {
            for b in &r.backends {
                *steps_per_backend.entry(b.as_str()).or_insert(0) += 1;
            }
        }
        Ok(BatchReport {
            schema_version: BatchReport::SCHEMA_VERSION,
            policy: self.dispatcher.policy().to_string(),
            threads: self.pool.threads(),
            total_requests: requests.len(),
            total_steps: requests.iter().map(|r| r.steps).sum(),
            total_model_cost: requests.iter().map(|r| r.model_cost).sum(),
            cache_hits,
            cache_misses,
            cache_hit_rate: if refs == 0 {
                0.0
            } else {
                cache_hits as f64 / refs as f64
            },
            backend_steps: Backend::ALL
                .iter()
                .map(|b| BackendSteps {
                    backend: b.name().to_string(),
                    steps: steps_per_backend.get(b.name()).copied().unwrap_or(0),
                })
                .collect(),
            wall_seconds: wall_start.elapsed().as_secs_f64(),
            mean_abs_cost_error_seconds,
            requests,
        })
    }

    /// Phase 1: materialize operands, probe the cache in submission
    /// order, and shape-check every request.
    fn resolve(&mut self, batch: &Batch) -> Result<Vec<PlannedRequest>, ServeError> {
        let mut specs = HashMap::new();
        for def in &batch.operands {
            if specs.insert(def.name.as_str(), &def.spec).is_some() {
                return Err(ServeError::Operand(format!(
                    "duplicate operand name {:?}",
                    def.name
                )));
            }
        }

        // Per-name memo of the built + prepared operand: the first
        // reference pays for the build, the fingerprint hash and (on a
        // cache miss) the conversions; every later reference probes the
        // cache by the memoized fingerprint — O(1), no rehash — with
        // identical hit/miss/LRU semantics.
        let mut resolved: HashMap<&str, Arc<PreparedOperand>> = HashMap::new();
        let mut plans = Vec::with_capacity(batch.requests.len());
        for (index, request) in batch.requests.iter().enumerate() {
            let mut ops = Vec::new();
            let (mut hits, mut misses) = (0u32, 0u32);
            for name in request.operand_names() {
                let (prepared, hit) = match resolved.get(name) {
                    Some(prepared) => {
                        let hit = self.cache.probe_prepared(prepared.fingerprint, prepared);
                        (Arc::clone(prepared), hit)
                    }
                    None => {
                        let Some(&spec) = specs.get(name) else {
                            return Err(ServeError::Operand(format!(
                                "request {index} references unknown operand {name:?}"
                            )));
                        };
                        let (prepared, hit) = self.cache.get_or_prepare(&spec.build()?);
                        resolved.insert(name, Arc::clone(&prepared));
                        (prepared, hit)
                    }
                };
                if hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
                ops.push(prepared);
            }
            validate_shapes(index, request, &ops)?;
            plans.push(PlannedRequest {
                index,
                request: request.clone(),
                ops,
                cache_hits: hits,
                cache_misses: misses,
            });
        }
        Ok(plans)
    }
}

impl Default for SpgemmService {
    fn default() -> Self {
        SpgemmService::new(ServiceConfig::default())
    }
}

fn validate_shapes(
    index: usize,
    request: &Request,
    ops: &[Arc<PreparedOperand>],
) -> Result<(), ServeError> {
    let shape = |i: usize| (ops[i].csr.rows(), ops[i].csr.cols());
    let mismatch = |msg: String| Err(ServeError::Shape(format!("request {index}: {msg}")));
    match request {
        Request::Single { .. } => {
            if shape(0).1 != shape(1).0 {
                return mismatch(format!("{:?} * {:?}", shape(0), shape(1)));
            }
        }
        Request::Chain { operands } => {
            if operands.len() < 2 {
                return mismatch("chain needs at least two operands".into());
            }
            for w in 0..ops.len() - 1 {
                if shape(w).1 != shape(w + 1).0 {
                    return mismatch(format!(
                        "chain link {w}: {:?} * {:?}",
                        shape(w),
                        shape(w + 1)
                    ));
                }
            }
        }
        Request::Power { k, .. } => {
            if *k == 0 {
                return mismatch("power needs k >= 1".into());
            }
            if shape(0).0 != shape(0).1 {
                return mismatch(format!("power needs a square operand, got {:?}", shape(0)));
            }
        }
        Request::Masked { .. } => {
            if shape(0).1 != shape(1).0 {
                return mismatch(format!("{:?} * {:?}", shape(0), shape(1)));
            }
            if shape(2) != (shape(0).0, shape(1).1) {
                return mismatch(format!(
                    "mask shape {:?} != output shape {:?}",
                    shape(2),
                    (shape(0).0, shape(1).1)
                ));
            }
        }
    }
    Ok(())
}

/// Mean over every step in the batch of `|predicted − measured|` cost.
fn mean_abs_cost_error(requests: &[RequestReport]) -> f64 {
    let mut abs_error = 0.0;
    let mut steps = 0u64;
    for r in requests {
        for (&model, &actual) in r.step_model_seconds.iter().zip(&r.step_actual_seconds) {
            abs_error += (model - actual).abs();
            steps += 1;
        }
    }
    if steps == 0 {
        0.0
    } else {
        abs_error / steps as f64
    }
}

/// What every request of a batch runs with.
struct RequestRunner<'a> {
    dispatcher: &'a AdaptiveDispatcher,
    stream_config: &'a sparch_stream::StreamConfig,
    recorder: &'a Recorder,
    auto_tune: bool,
}

/// Seconds → whole microseconds, the fixed-point unit the serve cost
/// counters accumulate in.
fn cost_micros(seconds: f64) -> u64 {
    (seconds * 1e6).round() as u64
}

/// Running tally of one request's multiply steps.
struct StepLog<'a> {
    backends: Vec<String>,
    model_cost: f64,
    step_model_seconds: Vec<f64>,
    step_actual_seconds: Vec<f64>,
    stream_config: &'a sparch_stream::StreamConfig,
    auto_tune: bool,
    lane: ThreadRecorder,
    model_cost_us: Counter,
    actual_cost_us: Counter,
}

impl<'a> StepLog<'a> {
    fn new(
        stream_config: &'a sparch_stream::StreamConfig,
        auto_tune: bool,
        recorder: &Recorder,
        index: u64,
    ) -> Self {
        StepLog {
            backends: Vec::new(),
            model_cost: 0.0,
            step_model_seconds: Vec::new(),
            step_actual_seconds: Vec::new(),
            stream_config,
            auto_tune,
            lane: recorder.thread_for("req", index),
            model_cost_us: recorder.counter("serve.model_cost_us"),
            actual_cost_us: recorder.counter("serve.actual_cost_us"),
        }
    }

    /// The pipeline configuration for one out-of-core step: the service's
    /// `stream_config` with the dispatcher's budget override — and, under
    /// `auto_tune`, with data knobs (panels, balance, fan-in, codec)
    /// re-planned per task from the step's operand structure. Thread
    /// knobs and the spill directory always come from the service config.
    fn stream_config_for(
        &self,
        d: &AdaptiveDispatcher,
        a: &Csr,
        b: &Csr,
    ) -> sparch_stream::StreamConfig {
        let mut config = self.stream_config.clone();
        if let Some(budget) = d.memory_budget() {
            config.budget = sparch_stream::MemoryBudget::from_bytes(budget);
        }
        if self.auto_tune {
            let stats = sparch_tune::OperandStats::from_csr(a);
            let b_rows = sparch_tune::row_nnz_histogram(b);
            let plan = sparch_tune::KnobPlanner::new(config.budget)
                .with_threads(config.threads.unwrap_or(1))
                .plan(&stats, &sparch_tune::BRows::Histogram(&b_rows));
            config = plan.config_over(&config);
        }
        config
    }

    /// One multiply step with both operands from the cache: every cached
    /// view (CSC, occupancy counts) feeds the feature measurement.
    fn multiply_pair(
        &mut self,
        d: &AdaptiveDispatcher,
        a: &PreparedOperand,
        b: &PreparedOperand,
    ) -> Csr {
        let features = TaskFeatures::measure_pair(a, b);
        self.dispatch(d, &features, &a.csr, &b.csr)
    }

    /// One multiply step on a plain (intermediate) left operand against a
    /// cached right operand — the chain/power continuation case.
    fn multiply_rhs(&mut self, d: &AdaptiveDispatcher, a: &Csr, b: &PreparedOperand) -> Csr {
        let features = TaskFeatures::measure_rhs(a, b);
        self.dispatch(d, &features, a, &b.csr)
    }

    fn dispatch(
        &mut self,
        d: &AdaptiveDispatcher,
        features: &TaskFeatures,
        a: &Csr,
        b: &Csr,
    ) -> Csr {
        let (backend, cost) = d.choose(features);
        self.backends.push(backend.name().to_string());
        self.model_cost += cost;
        // The span is named after the *chosen* backend, so a trace shows
        // the dispatch decision and its duration in one event; the
        // model's estimate rides along as an arg for side-by-side
        // comparison with the span's measured duration.
        let span = self.lane.begin("serve", backend.name());
        let result = match backend {
            // A streaming step runs the *service's* pipeline
            // configuration (panel balance, codec, fan-in), with the
            // budget field overridden by the service budget when one is
            // set — the bound the footprint routing promised — rather
            // than the pinned default `Backend::run` uses standalone.
            // Under `auto_tune` the data knobs are re-planned per task.
            Backend::Streaming => {
                crate::backend::run_streaming_with(self.stream_config_for(d, a, b), a, b)
            }
            // A distributed step ships the service's stream config (and
            // budget, applied *per shard*) to the worker fleet; if no
            // fleet can be spawned it degrades to the streaming pipeline
            // with the identical result.
            Backend::Distributed => {
                let config = sparch_dist::DistConfig {
                    stream: self.stream_config_for(d, a, b),
                    ..sparch_dist::DistConfig::default()
                };
                crate::backend::run_distributed_with(config, a, b)
            }
            _ => backend.run(a, b),
        };
        let actual = self
            .lane
            .end_with(span, &[("model_cost_us", cost_micros(cost))]);
        self.model_cost_us.add(cost_micros(cost));
        self.actual_cost_us.add(cost_micros(actual));
        self.step_model_seconds.push(cost);
        self.step_actual_seconds.push(actual);
        result
    }
}

impl RequestRunner<'_> {
    /// Runs one planned request to its report (`wall_seconds` left for
    /// the caller, which times the run).
    fn run(&self, plan: &PlannedRequest) -> RequestReport {
        let d = self.dispatcher;
        let ops = &plan.ops;
        let mut log = StepLog::new(
            self.stream_config,
            self.auto_tune,
            self.recorder,
            plan.index as u64,
        );
        let result = match &plan.request {
            Request::Single { .. } => log.multiply_pair(d, &ops[0], &ops[1]),
            Request::Chain { .. } => {
                let mut cur = log.multiply_pair(d, &ops[0], &ops[1]);
                for next in &ops[2..] {
                    cur = log.multiply_rhs(d, &cur, next);
                }
                cur
            }
            Request::Power { k, threshold, .. } => {
                let a = &ops[0];
                let mut cur = a.csr.clone();
                for step in 1..*k {
                    cur = if step == 1 {
                        log.multiply_pair(d, a, a)
                    } else {
                        log.multiply_rhs(d, &cur, a)
                    };
                    if *threshold > 0.0 {
                        cur = linalg::prune(&cur, *threshold);
                    }
                }
                cur
            }
            Request::Masked { .. } => {
                let product = log.multiply_pair(d, &ops[0], &ops[1]);
                linalg::hadamard(&product, &ops[2].csr)
            }
        };
        RequestReport {
            index: plan.index,
            kind: plan.request.kind().to_string(),
            steps: log.backends.len(),
            backends: log.backends,
            model_cost: log.model_cost,
            output_rows: result.rows(),
            output_cols: result.cols(),
            output_nnz: result.nnz(),
            cache_hits: plan.cache_hits,
            cache_misses: plan.cache_misses,
            wall_seconds: 0.0, // filled from the caller's measurement
            step_model_seconds: log.step_model_seconds,
            step_actual_seconds: log.step_actual_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{OperandDef, OperandSpec};
    use sparch_sparse::gen::Recipe;
    use sparch_sparse::{algo, gen};

    fn gen_operand(name: &str, recipe: Recipe, seed: u64) -> OperandDef {
        OperandDef {
            name: name.into(),
            spec: OperandSpec::Gen { recipe, seed },
        }
    }

    fn fixed_service(backend: Backend) -> SpgemmService {
        SpgemmService::new(ServiceConfig {
            policy: DispatchPolicy::Fixed(backend),
            threads: Some(2),
            calibration: Some(Calibration::reference()),
            ..ServiceConfig::default()
        })
    }

    fn small_batch() -> Batch {
        Batch {
            operands: vec![
                gen_operand(
                    "g",
                    Recipe::Rmat {
                        n: 48,
                        avg_degree: 4,
                    },
                    1,
                ),
                gen_operand(
                    "u",
                    Recipe::Uniform {
                        rows: 48,
                        cols: 48,
                        nnz: 200,
                    },
                    2,
                ),
            ],
            requests: vec![
                Request::Single {
                    a: "g".into(),
                    b: "u".into(),
                },
                Request::Chain {
                    operands: vec!["g".into(), "u".into(), "g".into()],
                },
                Request::Power {
                    a: "g".into(),
                    k: 3,
                    threshold: 0.0,
                },
                Request::Masked {
                    a: "g".into(),
                    b: "g".into(),
                    mask: "u".into(),
                },
            ],
        }
    }

    #[test]
    fn default_service_holds_the_reference_table() {
        let service = SpgemmService::new(ServiceConfig::default());
        assert_eq!(service.dispatcher().policy(), DispatchPolicy::Adaptive);
        assert_eq!(
            *service.dispatcher().calibration(),
            Calibration::reference()
        );
    }

    #[test]
    fn a_pinned_table_scales_the_reported_cost_and_not_the_choice() {
        let serve = |calibration: Option<Calibration>| {
            SpgemmService::new(ServiceConfig {
                threads: Some(2),
                calibration,
                ..ServiceConfig::default()
            })
            .serve(&small_batch())
            .unwrap()
        };
        let reference = serve(None);
        let mut table = Calibration::reference();
        table.seconds_per_unit[0] = 100.0; // gustavson, 100× dearer
        let pinned = serve(Some(table));
        for (p, r) in pinned.requests.iter().zip(&reference.requests) {
            assert_eq!(p.backends, r.backends);
            assert!(p.backends.iter().all(|b| b == "gustavson"));
            let scaled: Vec<f64> = r.step_model_seconds.iter().map(|s| 100.0 * s).collect();
            assert_eq!(p.step_model_seconds, scaled, "request {}", p.index);
        }
    }

    #[test]
    fn results_match_direct_computation() {
        let mut service = fixed_service(Backend::Gustavson);
        let report = service.serve(&small_batch()).unwrap();
        let g = Recipe::Rmat {
            n: 48,
            avg_degree: 4,
        }
        .build(1);
        let u = Recipe::Uniform {
            rows: 48,
            cols: 48,
            nnz: 200,
        }
        .build(2);

        assert_eq!(report.requests[0].output_nnz, algo::gustavson(&g, &u).nnz());
        let chain = algo::gustavson(&algo::gustavson(&g, &u), &g);
        assert_eq!(report.requests[1].output_nnz, chain.nnz());
        let cube = algo::gustavson(&algo::gustavson(&g, &g), &g);
        assert_eq!(report.requests[2].output_nnz, cube.nnz());
        let masked = linalg::hadamard(&algo::gustavson(&g, &g), &u);
        assert_eq!(report.requests[3].output_nnz, masked.nnz());

        assert_eq!(report.total_steps, 1 + 2 + 2 + 1);
        assert!(report
            .requests
            .iter()
            .all(|r| r.backends.iter().all(|b| b == "gustavson")));
    }

    #[test]
    fn cache_hits_accumulate_within_and_across_batches() {
        let mut service = fixed_service(Backend::Gustavson);
        let report = service.serve(&small_batch()).unwrap();
        // 9 operand references over 2 distinct operands: 2 misses.
        assert_eq!(report.cache_misses, 2);
        assert_eq!(report.cache_hits, 7);
        assert!(report.cache_hit_rate > 0.7);
        // Second serve of the same batch: everything hits.
        let second = service.serve(&small_batch()).unwrap();
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.cache_hits, 9);
    }

    #[test]
    fn power_resparsification_prunes() {
        let ops = vec![gen_operand(
            "m",
            Recipe::Uniform {
                rows: 40,
                cols: 40,
                nnz: 300,
            },
            5,
        )];
        let with_prune = Batch {
            operands: ops.clone(),
            requests: vec![Request::Power {
                a: "m".into(),
                k: 3,
                threshold: 0.5,
            }],
        };
        let without = Batch {
            operands: ops,
            requests: vec![Request::Power {
                a: "m".into(),
                k: 3,
                threshold: 0.0,
            }],
        };
        let mut service = fixed_service(Backend::Gustavson);
        let pruned_nnz = service.serve(&with_prune).unwrap().requests[0].output_nnz;
        let full_nnz = service.serve(&without).unwrap().requests[0].output_nnz;
        assert!(pruned_nnz < full_nnz, "{pruned_nnz} !< {full_nnz}");
        // The pruned result matches pruning applied between direct multiplies.
        let m = gen::uniform_random(40, 40, 300, 5);
        let sq = linalg::prune(&algo::gustavson(&m, &m), 0.5);
        let cube = linalg::prune(&algo::gustavson(&sq, &m), 0.5);
        assert_eq!(pruned_nnz, cube.nnz());
    }

    #[test]
    fn power_k1_copies_the_operand() {
        let batch = Batch {
            operands: vec![gen_operand(
                "m",
                Recipe::Uniform {
                    rows: 16,
                    cols: 16,
                    nnz: 60,
                },
                1,
            )],
            requests: vec![Request::Power {
                a: "m".into(),
                k: 1,
                threshold: 0.0,
            }],
        };
        let report = fixed_service(Backend::Heap).serve(&batch).unwrap();
        assert_eq!(report.requests[0].steps, 0);
        assert_eq!(
            report.requests[0].output_nnz,
            Recipe::Uniform {
                rows: 16,
                cols: 16,
                nnz: 60
            }
            .build(1)
            .nnz()
        );
    }

    #[test]
    fn memory_budget_routes_batch_steps_to_streaming() {
        let mut service = SpgemmService::new(ServiceConfig {
            policy: DispatchPolicy::Adaptive,
            threads: Some(2),
            calibration: Some(Calibration::reference()),
            memory_budget: Some(1), // every real task exceeds one byte
            ..ServiceConfig::default()
        });
        let report = service.serve(&small_batch()).unwrap();
        assert!(report.total_steps > 0);
        assert!(
            report
                .requests
                .iter()
                .flat_map(|r| &r.backends)
                .all(|b| b == "streaming"),
            "footprint routing must override the adaptive policy"
        );
        // The streamed results carry the same structure as the in-memory
        // baseline.
        let baseline = fixed_service(Backend::Gustavson)
            .serve(&small_batch())
            .unwrap();
        for (r, b) in report.requests.iter().zip(&baseline.requests) {
            assert_eq!(r.output_nnz, b.output_nnz, "request {}", r.index);
        }
    }

    #[test]
    fn custom_stream_config_threads_through_to_streaming_steps() {
        // A non-default pipeline configuration — zero budget so spills
        // really happen, varint codec, nnz balance, small panels — must
        // reach the streaming steps and still reproduce the in-memory
        // structure exactly.
        let stream_config = sparch_stream::StreamConfig {
            panels: 3,
            balance: sparch_stream::PanelBalance::Nnz,
            merge_ways: 2,
            spill_codec: sparch_stream::SpillCodec::Varint,
            ..sparch_stream::StreamConfig::pinned()
        };
        let mut service = SpgemmService::new(ServiceConfig {
            policy: DispatchPolicy::Fixed(Backend::Streaming),
            threads: Some(2),
            calibration: Some(Calibration::reference()),
            memory_budget: Some(1), // zero-ish budget: every partial spills
            stream_config,
            ..ServiceConfig::default()
        });
        let report = service.serve(&small_batch()).unwrap();
        assert!(report.total_steps > 0);
        assert!(report
            .requests
            .iter()
            .flat_map(|r| &r.backends)
            .all(|b| b == "streaming"));
        let baseline = fixed_service(Backend::Gustavson)
            .serve(&small_batch())
            .unwrap();
        for (r, b) in report.requests.iter().zip(&baseline.requests) {
            assert_eq!(r.output_nnz, b.output_nnz, "request {}", r.index);
        }
    }

    #[test]
    fn bad_batches_fail_before_executing() {
        let mut service = fixed_service(Backend::Gustavson);
        let unknown = Batch {
            operands: vec![],
            requests: vec![Request::Single {
                a: "ghost".into(),
                b: "ghost".into(),
            }],
        };
        assert!(matches!(
            service.serve(&unknown),
            Err(ServeError::Operand(_))
        ));

        let rect = gen_operand(
            "r",
            Recipe::Uniform {
                rows: 8,
                cols: 12,
                nnz: 20,
            },
            1,
        );
        let mismatched = Batch {
            operands: vec![rect.clone()],
            requests: vec![Request::Single {
                a: "r".into(),
                b: "r".into(),
            }],
        };
        assert!(matches!(
            service.serve(&mismatched),
            Err(ServeError::Shape(_))
        ));

        let non_square_power = Batch {
            operands: vec![rect.clone()],
            requests: vec![Request::Power {
                a: "r".into(),
                k: 2,
                threshold: 0.0,
            }],
        };
        assert!(matches!(
            service.serve(&non_square_power),
            Err(ServeError::Shape(_))
        ));

        let short_chain = Batch {
            operands: vec![rect],
            requests: vec![Request::Chain {
                operands: vec!["r".into()],
            }],
        };
        assert!(matches!(
            service.serve(&short_chain),
            Err(ServeError::Shape(_))
        ));
    }

    #[test]
    fn report_serializes_and_round_trips() {
        let mut service = fixed_service(Backend::Hash);
        let report = service.serve(&small_batch()).unwrap();
        assert_eq!(report.schema_version, BatchReport::SCHEMA_VERSION);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn recorder_traces_every_dispatch_decision() {
        let mut service = fixed_service(Backend::Gustavson).with_recorder(Recorder::enabled());
        let report = service.serve(&small_batch()).unwrap();
        let trace = service.recorder().drain("serve");

        // One span per multiply step, named after the chosen backend,
        // on a lane per request.
        assert_eq!(trace.count_named("gustavson"), report.total_steps);
        assert_eq!(trace.spans.len(), report.total_steps);
        assert_eq!(trace.threads.len(), report.total_requests);
        assert!(trace.threads.iter().all(|t| t.label.starts_with("req-")));

        // The cost counters accumulate in whole microseconds: the model
        // counter matches the report's model cost to per-step rounding,
        // and real work took measurable time.
        let model_us = trace.metrics.counter("serve.model_cost_us");
        let expected = report.total_model_cost * 1e6;
        assert!(
            (model_us as f64 - expected).abs() <= report.total_steps as f64,
            "{model_us} vs {expected}"
        );
        assert!(trace.metrics.counter("serve.actual_cost_us") > 0);

        // A service without a recorder traces nothing.
        let mut untraced = fixed_service(Backend::Gustavson);
        untraced.serve(&small_batch()).unwrap();
        let empty = untraced.recorder().drain("serve");
        assert!(empty.spans.is_empty() && empty.threads.is_empty());
    }
}
