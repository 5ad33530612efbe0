//! Backend selection: structural features, the dispatcher, and a
//! deterministic per-backend work model kept as telemetry.
//!
//! The dispatcher decides only what measurement says is a decision. For
//! each task it computes [`TaskFeatures`] (a superset of
//! `sparch_sparse::stats::TaskStats` — multiply count, output size,
//! compression factor, occupancy, footprint); a step whose estimated
//! footprint exceeds a configured threshold leaves memory
//! ([`Backend::Distributed`], then [`Backend::Streaming`]), and every
//! other step runs [`Backend::Gustavson`] under
//! [`DispatchPolicy::Adaptive`] or the named backend under
//! [`DispatchPolicy::Fixed`]. The analytic work model ([`model_cost`],
//! scaled by a [`Calibration`] table) prices the step that ran so
//! reports under different policies are comparable — it does not choose
//! it: on the backend census (`examples/backend_census.rs`) no other
//! in-memory kernel beat Gustavson on any case.

use crate::cache::PreparedOperand;
use crate::Backend;
use serde::{Deserialize, Serialize};
use sparch_sparse::stats::TaskStats;
use sparch_sparse::Csr;
use std::fmt;
use std::str::FromStr;

/// Structural features of one SpGEMM task `C = A * B`, as consumed by the
/// work model. Building them costs one symbolic pass (≈ the multiply
/// count), which is the price of modeling; the per-matrix parts come free
/// from the operand cache.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskFeatures {
    /// Rows of `A`.
    pub a_rows: usize,
    /// Columns of `B`.
    pub b_cols: usize,
    /// Stored entries of `A`.
    pub a_nnz: usize,
    /// Stored entries of `B`.
    pub b_nnz: usize,
    /// Rows of `A` with at least one entry.
    pub a_nonempty_rows: usize,
    /// Columns of `B` with at least one entry.
    pub b_nonempty_cols: usize,
    /// Scalar multiplications (`M`).
    pub multiplies: u64,
    /// Non-zeros of the output.
    pub output_nnz: u64,
    /// `multiplies / output_nnz` (the paper's condensing headroom).
    pub compression_factor: f64,
    /// Occupied columns of `A` — the outer product's partial-matrix count.
    pub occupied_cols: usize,
    /// Estimated bytes an in-memory backend needs live at once: both
    /// operands plus the output, at 12 bytes per stored entry and 8 per
    /// row pointer ([`Csr::estimated_bytes`]-style accounting). The
    /// dispatcher compares this against the service's memory budget to
    /// decide when a task must go out-of-core.
    pub estimated_footprint_bytes: u64,
}

/// The in-memory footprint estimate shared by every measurement path:
/// `A` + `B` + the (symbolically exact) output.
fn footprint_bytes(a_bytes: u64, b_bytes: u64, a_rows: usize, output_nnz: u64) -> u64 {
    a_bytes + b_bytes + output_nnz * 12 + (a_rows as u64 + 1) * 8
}

impl TaskFeatures {
    /// Measures the features of `a * b` where both operands come from the
    /// operand cache: the symbolic pass reuses `a`'s CSC view, and every
    /// per-matrix occupancy count comes precomputed from the cache
    /// instead of being rescanned per step.
    ///
    /// # Panics
    ///
    /// Panics if `a.csr.cols() != b.csr.rows()`.
    pub fn measure_pair(a: &PreparedOperand, b: &PreparedOperand) -> Self {
        let task = TaskStats::of_with_csc(&a.csr, &a.csc, &b.csr);
        TaskFeatures {
            a_rows: a.csr.rows(),
            b_cols: b.csr.cols(),
            a_nnz: a.csr.nnz(),
            b_nnz: b.csr.nnz(),
            a_nonempty_rows: a.nonempty_rows,
            b_nonempty_cols: b.nonempty_cols,
            multiplies: task.multiplies,
            output_nnz: task.output_nnz,
            compression_factor: task.compression_factor,
            occupied_cols: task.occupied_cols,
            estimated_footprint_bytes: footprint_bytes(
                a.csr.estimated_bytes(),
                b.csr.estimated_bytes(),
                a.csr.rows(),
                task.output_nnz,
            ),
        }
    }

    /// Measures the features of `a * b` where only the *right* operand is
    /// cached — the chained-multiply case, where `a` is a freshly
    /// materialized intermediate but `b` still comes from the cache.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.csr.rows()`.
    pub fn measure_rhs(a: &Csr, b: &PreparedOperand) -> Self {
        let task = TaskStats::of(a, &b.csr);
        TaskFeatures {
            a_rows: a.rows(),
            b_cols: b.csr.cols(),
            a_nnz: a.nnz(),
            b_nnz: b.csr.nnz(),
            a_nonempty_rows: (0..a.rows()).filter(|&r| a.row_nnz(r) > 0).count(),
            b_nonempty_cols: b.nonempty_cols,
            multiplies: task.multiplies,
            output_nnz: task.output_nnz,
            compression_factor: task.compression_factor,
            occupied_cols: task.occupied_cols,
            estimated_footprint_bytes: footprint_bytes(
                a.estimated_bytes(),
                b.csr.estimated_bytes(),
                a.rows(),
                task.output_nnz,
            ),
        }
    }

    /// Measures the features of `a * b` from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn measure(a: &Csr, b: &Csr) -> Self {
        let task = TaskStats::of(a, b);
        let mut col_seen = vec![false; b.cols()];
        for &c in b.col_indices() {
            col_seen[c as usize] = true;
        }
        TaskFeatures {
            a_rows: a.rows(),
            b_cols: b.cols(),
            a_nnz: a.nnz(),
            b_nnz: b.nnz(),
            a_nonempty_rows: (0..a.rows()).filter(|&r| a.row_nnz(r) > 0).count(),
            b_nonempty_cols: col_seen.iter().filter(|&&s| s).count(),
            multiplies: task.multiplies,
            output_nnz: task.output_nnz,
            compression_factor: task.compression_factor,
            occupied_cols: task.occupied_cols,
            estimated_footprint_bytes: footprint_bytes(
                a.estimated_bytes(),
                b.estimated_bytes(),
                a.rows(),
                task.output_nnz,
            ),
        }
    }
}

/// Deterministic analytic work units for running `backend` on a task with
/// the given features. The absolute scale is arbitrary ("abstract ops");
/// only ratios matter, and [`Calibration`] maps them to seconds.
///
/// The shapes encode each algorithm's asymptotics:
///
/// * Gustavson — `M` accumulator updates plus the per-row sort of the
///   output (`O·log(avg row)`),
/// * hash — the same plus probing overhead and the table scan,
/// * heap — every popped product pays the heap's `log(row fill of A)`,
/// * sort-merge (ESC) — the global `M·log M` sort dominates,
/// * inner product — pair enumeration over non-empty rows × columns plus
///   the merge comparisons, independent of `M`,
/// * outer product — each of the `M` expanded entries crosses
///   `log(partial count)` pairwise merge levels,
/// * streaming — Gustavson per panel plus every output entry crossing the
///   Huffman merge of the default panel count: by construction never
///   cheaper than plain Gustavson,
/// * distributed — the streaming shape plus every operand and output
///   entry crossing a socket twice (panel out, partial back): strictly
///   dominated by streaming in model units.
pub fn model_cost(backend: Backend, f: &TaskFeatures) -> f64 {
    let m = f.multiplies as f64;
    let o = f.output_nnz as f64;
    // Average output-row fill (for per-row sorts), clamped ≥ 2 so its log
    // is positive.
    let avg_out = (o / f.a_nonempty_rows.max(1) as f64).max(2.0);
    match backend {
        Backend::Gustavson => m + o * avg_out.log2(),
        Backend::Hash => 1.7 * m + o * avg_out.log2(),
        Backend::Heap => {
            let avg_k = (f.a_nnz as f64 / f.a_nonempty_rows.max(1) as f64).max(1.0);
            m * (1.0 + avg_k).log2().max(1.0) + o
        }
        Backend::SortMerge => m * m.max(2.0).log2(),
        Backend::Inner => {
            let pairs = f.a_nonempty_rows as f64 * f.b_nonempty_cols as f64;
            pairs
                + f.a_nonempty_rows as f64 * f.b_nnz as f64
                + f.b_nonempty_cols as f64 * f.a_nnz as f64
        }
        Backend::Outer => m * (1.0 + (f.occupied_cols as f64).max(2.0).log2()) + o,
        Backend::Streaming => {
            let panels = sparch_stream::StreamConfig::default().panels as f64;
            m + o * avg_out.log2() + o * (1.0 + panels.max(2.0).log2())
        }
        Backend::Distributed => {
            // The streaming shape, plus wire crossings: both operands
            // ship out panel by panel and every partial ships back.
            model_cost(Backend::Streaming, f) + 2.0 * (f.a_nnz + f.b_nnz) as f64 + 2.0 * o
        }
    }
}

/// Per-backend seconds-per-model-unit: the scale between [`model_cost`]'s
/// abstract units and the cost a report prints.
///
/// [`Calibration::reference`] is the identity table every service uses
/// unless [`crate::ServiceConfig::calibration`] pins another; a pinned
/// table rescales the *reported* cost of each backend's steps and has no
/// say in which backend runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Seconds per model unit, indexed like [`Backend::ALL`].
    pub seconds_per_unit: Vec<f64>,
}

impl Calibration {
    /// The identity table: every backend costs 1.0 per model unit, so
    /// reported costs are the pure analytic model. Fully reproducible.
    pub fn reference() -> Self {
        Calibration {
            seconds_per_unit: vec![1.0; Backend::ALL.len()],
        }
    }

    /// Seconds per model unit for `backend`.
    pub fn seconds_for(&self, backend: Backend) -> f64 {
        let idx = Backend::ALL
            .iter()
            .position(|&b| b == backend)
            .expect("Backend::ALL covers every variant");
        self.seconds_per_unit.get(idx).copied().unwrap_or(1.0)
    }
}

/// How the service picks a backend per multiply step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DispatchPolicy {
    /// Always use the given backend — how the conformance suite and the
    /// paper's software-baseline comparisons reach all eight.
    Fixed(Backend),
    /// The measured choice: [`Backend::Gustavson`] for every step that
    /// fits in memory. Today that makes the same choices as
    /// `Fixed(Gustavson)` and differs only in the report's `policy`
    /// string; it is the one place a future *measured* win region for
    /// another kernel would be written down.
    Adaptive,
}

impl fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchPolicy::Fixed(b) => write!(f, "fixed:{b}"),
            DispatchPolicy::Adaptive => f.write_str("adaptive"),
        }
    }
}

impl FromStr for DispatchPolicy {
    type Err = String;

    /// Parses `adaptive`, `fixed:<backend>`, or a bare backend name.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("adaptive") {
            return Ok(DispatchPolicy::Adaptive);
        }
        let name = s.strip_prefix("fixed:").unwrap_or(s);
        name.parse::<Backend>().map(DispatchPolicy::Fixed)
    }
}

/// Chooses a backend per multiply step from task features and a policy,
/// and prices the choice with the calibration table. Pure and
/// deterministic: the same features and policy always produce the same
/// choice, regardless of thread count or table.
///
/// When a memory budget is configured
/// ([`AdaptiveDispatcher::with_memory_budget`]), tasks whose
/// [`TaskFeatures::estimated_footprint_bytes`] exceeds it are routed to
/// [`Backend::Streaming`] *before* the policy applies — an in-memory
/// backend would materialize more than the budget allows, so the budget
/// guard overrides both fixed and adaptive policies. A second, larger
/// threshold ([`AdaptiveDispatcher::with_distributed_threshold`])
/// escalates past-streaming tasks to [`Backend::Distributed`]: when even
/// one pipeline's resident panels are too much for the serving process,
/// the work moves to shard worker processes with their own address
/// spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveDispatcher {
    policy: DispatchPolicy,
    calibration: Calibration,
    memory_budget: Option<u64>,
    distributed_threshold: Option<u64>,
}

impl AdaptiveDispatcher {
    /// A dispatcher with the given policy and calibration table, and no
    /// memory budget (nothing is ever routed out-of-core).
    pub fn new(policy: DispatchPolicy, calibration: Calibration) -> Self {
        AdaptiveDispatcher {
            policy,
            calibration,
            memory_budget: None,
            distributed_threshold: None,
        }
    }

    /// Enables footprint routing: tasks estimated to need more than
    /// `bytes` of live memory go to [`Backend::Streaming`].
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Enables distributed routing: tasks estimated to need more than
    /// `bytes` go to [`Backend::Distributed`]. Checked before the
    /// streaming budget, so set it at or above `with_memory_budget`'s
    /// value — the biggest tasks shard out, mid-size tasks stream, and
    /// everything else stays in memory.
    pub fn with_distributed_threshold(mut self, bytes: u64) -> Self {
        self.distributed_threshold = Some(bytes);
        self
    }

    /// The dispatch policy.
    pub fn policy(&self) -> DispatchPolicy {
        self.policy
    }

    /// The calibration table.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    /// The configured memory budget in bytes, if any.
    pub fn memory_budget(&self) -> Option<u64> {
        self.memory_budget
    }

    /// The configured distributed-routing threshold in bytes, if any.
    pub fn distributed_threshold(&self) -> Option<u64> {
        self.distributed_threshold
    }

    /// Picks the backend for one multiply step and returns it with its
    /// calibrated model cost — the only code that maps a policy to a
    /// backend. The footprint rules (see the type docs) apply first;
    /// what fits in memory runs the policy's backend.
    pub fn choose(&self, features: &TaskFeatures) -> (Backend, f64) {
        if let Some(threshold) = self.distributed_threshold {
            if features.estimated_footprint_bytes > threshold {
                return (
                    Backend::Distributed,
                    self.calibrated_cost(Backend::Distributed, features),
                );
            }
        }
        if let Some(budget) = self.memory_budget {
            if features.estimated_footprint_bytes > budget {
                return (
                    Backend::Streaming,
                    self.calibrated_cost(Backend::Streaming, features),
                );
            }
        }
        let backend = match self.policy {
            DispatchPolicy::Fixed(backend) => backend,
            DispatchPolicy::Adaptive => Backend::Gustavson,
        };
        (backend, self.calibrated_cost(backend, features))
    }

    /// The calibrated model cost of running `backend` on `features`.
    pub fn calibrated_cost(&self, backend: Backend, features: &TaskFeatures) -> f64 {
        model_cost(backend, features) * self.calibration.seconds_for(backend)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_sparse::gen;

    fn features(seed: u64) -> TaskFeatures {
        let a = gen::rmat_graph500(64, 4, seed);
        let b = gen::rmat_graph500(64, 4, seed + 10);
        TaskFeatures::measure(&a, &b)
    }

    #[test]
    fn adaptive_runs_gustavson_whatever_table_is_pinned() {
        // A table that prices Gustavson 100× dearer than everything else
        // scales the reported cost and has no say in the choice.
        let mut skewed = Calibration::reference();
        skewed.seconds_per_unit[0] = 100.0;
        let json = serde_json::to_string(&skewed).unwrap();
        assert_eq!(serde_json::from_str::<Calibration>(&json).unwrap(), skewed);
        for table in [Calibration::reference(), skewed] {
            let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, table.clone());
            for seed in 0..10 {
                let f = features(seed);
                let (backend, cost) = d.choose(&f);
                assert_eq!(backend, Backend::Gustavson, "seed {seed}");
                assert_eq!(
                    cost,
                    model_cost(Backend::Gustavson, &f) * table.seconds_for(Backend::Gustavson)
                );
            }
        }
    }

    #[test]
    fn footprint_routes_outrank_both_policies_under_any_table() {
        let f = features(0);
        let mut skewed = Calibration::reference();
        skewed.seconds_per_unit[6] = 1e6; // streaming
        skewed.seconds_per_unit[7] = 1e9; // distributed
        for policy in [
            DispatchPolicy::Adaptive,
            DispatchPolicy::Fixed(Backend::Gustavson),
            DispatchPolicy::Fixed(Backend::Heap),
        ] {
            let d = AdaptiveDispatcher::new(policy, skewed.clone())
                .with_memory_budget(f.estimated_footprint_bytes - 1);
            assert_eq!(d.choose(&f).0, Backend::Streaming, "policy {policy}");
            let d = d.with_distributed_threshold(f.estimated_footprint_bytes - 1);
            assert_eq!(d.choose(&f).0, Backend::Distributed, "policy {policy}");
        }
    }

    #[test]
    fn fixed_policy_always_returns_its_backend() {
        let d = AdaptiveDispatcher::new(
            DispatchPolicy::Fixed(Backend::SortMerge),
            Calibration::reference(),
        );
        for seed in 0..5 {
            assert_eq!(d.choose(&features(seed)).0, Backend::SortMerge);
        }
    }

    #[test]
    fn features_with_cached_csc_match_direct_measurement() {
        let a = gen::uniform_random(48, 40, 300, 3);
        let b = gen::uniform_random(40, 56, 280, 4);
        assert_eq!(
            TaskFeatures::measure(&a, &b),
            TaskFeatures::measure_pair(
                &PreparedOperand::prepare(a.clone()),
                &PreparedOperand::prepare(b.clone())
            )
        );
    }

    #[test]
    fn inner_product_wins_only_when_pair_space_is_tiny() {
        // 4x4 nearly dense: the pair space is minuscule, sort_merge pays
        // M log M, and inner's comparison count is small.
        let a = gen::uniform_random(4, 4, 12, 1);
        let b = gen::uniform_random(4, 4, 12, 2);
        let small = TaskFeatures::measure(&a, &b);
        // 512-row power-law squares: the pair space is enormous.
        let a = gen::rmat_graph500(512, 8, 3);
        let big = TaskFeatures::measure(&a, &a);
        assert!(model_cost(Backend::Inner, &small) < model_cost(Backend::Inner, &big));
        // On the big task, inner must be the most expensive class.
        for backend in Backend::ALL {
            if backend != Backend::Inner {
                assert!(
                    model_cost(backend, &big) < model_cost(Backend::Inner, &big),
                    "{backend} should beat inner on a large sparse task"
                );
            }
        }
    }

    #[test]
    fn footprint_estimate_counts_operands_and_output() {
        let a = gen::uniform_random(48, 40, 300, 3);
        let b = gen::uniform_random(40, 56, 280, 4);
        let f = TaskFeatures::measure(&a, &b);
        let expected = a.estimated_bytes()
            + b.estimated_bytes()
            + f.output_nnz * 12
            + (a.rows() as u64 + 1) * 8;
        assert_eq!(f.estimated_footprint_bytes, expected);
        assert!(f.estimated_footprint_bytes > 0);
    }

    #[test]
    fn streaming_never_undercuts_gustavson_in_the_model() {
        for seed in 0..10 {
            let f = features(seed);
            assert!(
                model_cost(Backend::Streaming, &f) >= model_cost(Backend::Gustavson, &f),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn memory_budget_routes_oversized_tasks_to_streaming() {
        let f = features(0);
        // Budget below the task's footprint: streaming, under any policy.
        for policy in [
            DispatchPolicy::Adaptive,
            DispatchPolicy::Fixed(Backend::Hash),
        ] {
            let d = AdaptiveDispatcher::new(policy, Calibration::reference())
                .with_memory_budget(f.estimated_footprint_bytes - 1);
            assert_eq!(d.choose(&f).0, Backend::Streaming, "policy {policy}");
        }
        // Budget at (or above) the footprint: the policy decides, and the
        // adaptive policy never lands on streaming by itself.
        let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, Calibration::reference())
            .with_memory_budget(f.estimated_footprint_bytes);
        assert_ne!(d.choose(&f).0, Backend::Streaming);
        // No budget: footprint is ignored entirely.
        let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, Calibration::reference());
        assert_eq!(d.memory_budget(), None);
        assert_ne!(d.choose(&f).0, Backend::Streaming);
    }

    #[test]
    fn distributed_threshold_routes_the_biggest_tasks_out_of_process() {
        let f = features(0);
        // Threshold below the task's footprint: distributed, under any
        // policy — the shard fleet is the only place the step fits.
        for policy in [
            DispatchPolicy::Adaptive,
            DispatchPolicy::Fixed(Backend::Hash),
        ] {
            let d = AdaptiveDispatcher::new(policy, Calibration::reference())
                .with_distributed_threshold(f.estimated_footprint_bytes - 1);
            assert_eq!(d.choose(&f).0, Backend::Distributed, "policy {policy}");
        }
        // The distributed threshold outranks the memory budget: a step
        // over both goes out of process, one over only the budget streams
        // in-process.
        let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, Calibration::reference())
            .with_memory_budget(f.estimated_footprint_bytes - 1)
            .with_distributed_threshold(f.estimated_footprint_bytes - 1);
        assert_eq!(d.choose(&f).0, Backend::Distributed);
        let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, Calibration::reference())
            .with_memory_budget(f.estimated_footprint_bytes - 1)
            .with_distributed_threshold(f.estimated_footprint_bytes);
        assert_eq!(d.choose(&f).0, Backend::Streaming);
        assert_eq!(d.distributed_threshold(), Some(f.estimated_footprint_bytes));
        // Shipping operands over sockets is never modeled as free, and the
        // adaptive policy must not land on distributed by itself.
        assert!(model_cost(Backend::Distributed, &f) > model_cost(Backend::Streaming, &f));
        let d = AdaptiveDispatcher::new(DispatchPolicy::Adaptive, Calibration::reference());
        assert_eq!(d.distributed_threshold(), None);
        assert_ne!(d.choose(&f).0, Backend::Distributed);
    }

    #[test]
    fn calibration_reference_is_identity() {
        let c = Calibration::reference();
        for backend in Backend::ALL {
            assert_eq!(c.seconds_for(backend), 1.0);
        }
    }

    #[test]
    fn policy_parsing() {
        assert_eq!(
            "adaptive".parse::<DispatchPolicy>().unwrap(),
            DispatchPolicy::Adaptive
        );
        assert_eq!(
            "fixed:heap".parse::<DispatchPolicy>().unwrap(),
            DispatchPolicy::Fixed(Backend::Heap)
        );
        assert_eq!(
            "gustavson".parse::<DispatchPolicy>().unwrap(),
            DispatchPolicy::Fixed(Backend::Gustavson)
        );
        assert!("fixed:quantum".parse::<DispatchPolicy>().is_err());
        assert_eq!(DispatchPolicy::Adaptive.to_string(), "adaptive");
        assert_eq!(
            DispatchPolicy::Fixed(Backend::Hash).to_string(),
            "fixed:hash_spgemm"
        );
    }
}
