//! The streaming out-of-core SpGEMM executor.
//!
//! See the crate docs for the pipeline shape. The executor is stateless
//! and cheap to clone per task; every run creates (and removes) its own
//! unique spill directory, so concurrent runs never collide.

use crate::merge::Leaf;
use crate::pipeline;
use crate::plan::{ExecPlan, Subtree};
use crate::{StreamConfig, StreamError};
use serde::{Deserialize, Serialize};
use sparch_obs::Recorder;
use sparch_sparse::Csr;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

pub use crate::pipeline::StageReport;

/// Telemetry of one streaming multiply — the quantities the paper's
/// merge-order analysis reasons about (partial count, merge rounds,
/// partial-result traffic), measured on the software pipeline, plus the
/// per-stage busy/overlap accounting of the staged dataflow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Stable layout version of this report
    /// ([`StreamReport::SCHEMA_VERSION`]); bump on any field change so
    /// archived snapshot JSONs stay diffable across PRs.
    pub schema_version: u32,
    /// Rows of `A` (= rows of the output).
    pub a_rows: usize,
    /// The shared inner dimension (`A` cols = `B` rows).
    pub inner_dim: usize,
    /// Columns of `B` (= columns of the output).
    pub b_cols: usize,
    /// Panel pairs the pipeline streamed (after clamping to the
    /// inner dimension).
    pub panels: usize,
    /// Merge-plan leaves: panels whose `A` panel held any non-zeros
    /// (all-empty panels are pruned before the first read).
    pub partials: usize,
    /// Merge rounds the Huffman plan scheduled.
    pub merge_rounds: usize,
    /// Fan-in of each merge round.
    pub merge_ways: usize,
    /// How panel boundaries were chosen.
    pub balance: crate::PanelBalance,
    /// The spill codec requested for this run.
    pub spill_codec: crate::SpillCodec,
    /// The configured budget, in bytes.
    pub budget_bytes: u64,
    /// High-water mark of resident partial bytes — never exceeds
    /// `budget_bytes` (the store's structural invariant). Only round
    /// outputs are ever resident: leaves are multiplied inside the rounds
    /// that fold them.
    pub peak_live_bytes: u64,
    /// Combined footprint of every leaf partial, counted as the rounds
    /// produce their rows: what holding every leaf whole would take.
    pub partial_bytes_total: u64,
    /// The largest single leaf partial's footprint.
    pub largest_partial_bytes: u64,
    /// Round outputs written to disk (evictions + direct spills).
    pub spill_writes: u64,
    /// Spilled partials streamed back for a merge round.
    pub spill_reads: u64,
    /// Total bytes written to spill files (in the chosen codec).
    pub spill_bytes_written: u64,
    /// What the same spills would have cost in the raw 16-byte format —
    /// divide by `spill_bytes_written` for the codec's saving.
    pub spill_bytes_raw_equivalent: u64,
    /// Stored entries of the result.
    pub output_nnz: usize,
    /// The thread count `threads` resolved to: the merge workers a run
    /// spawns once a round reaches `merge::BAND_MIN_ENTRIES` input
    /// entries. Smaller rounds fold on the calling thread, so a run whose
    /// rounds are all small starts no merge worker.
    pub threads: usize,
    /// Per-stage busy time and overlap counters.
    pub stages: StageReport,
}

impl StreamReport {
    /// Current value of [`StreamReport::schema_version`].
    pub const SCHEMA_VERSION: u32 = 2;

    /// A deterministic view for snapshot diffing: the same report with
    /// every wall-clock-dependent quantity zeroed — stage timings, the
    /// budget high-water mark, and the spill traffic counters, all of
    /// which vary with scheduling when `threads > 1`.
    pub fn without_timing(&self) -> StreamReport {
        StreamReport {
            peak_live_bytes: 0,
            spill_writes: 0,
            spill_reads: 0,
            spill_bytes_written: 0,
            spill_bytes_raw_equivalent: 0,
            stages: StageReport::default(),
            ..self.clone()
        }
    }
}

/// Monotone counter making every run's spill directory unique within the
/// process (the process id distinguishes concurrent processes).
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Panel-partitioned, memory-budgeted SpGEMM — the crate's entry point.
///
/// # Example
///
/// ```
/// use sparch_stream::{StreamConfig, StreamingExecutor};
/// use sparch_sparse::{algo, gen};
///
/// let a = gen::uniform_random(64, 64, 400, 1);
/// let b = gen::uniform_random(64, 48, 300, 2);
/// let (c, report) = StreamingExecutor::new(StreamConfig::default())
///     .multiply(&a, &b)
///     .unwrap();
/// // Structure is exact; float values regroup across panels, so compare
/// // to tolerance (integer-valued inputs are bit-identical).
/// assert!(c.approx_eq(&algo::gustavson(&a, &b), 1e-12));
/// assert_eq!(report.output_nnz, c.nnz());
/// ```
#[derive(Debug, Clone)]
pub struct StreamingExecutor {
    config: StreamConfig,
    recorder: Recorder,
}

impl StreamingExecutor {
    /// An executor with the given configuration and tracing disabled.
    pub fn new(config: StreamConfig) -> Self {
        StreamingExecutor {
            config,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches a recorder; every pipeline stage of subsequent runs
    /// emits spans and metrics into it (see `pipeline::run` for the
    /// span taxonomy). With the default disabled recorder the
    /// instrumentation is allocation-free no-ops.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The executor's recorder (disabled unless set by
    /// [`with_recorder`](Self::with_recorder)).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The executor's configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Computes `C = A · B` through the staged pipeline, executing
    /// [`ExecPlan::for_operand`] over `A`'s column histogram:
    /// `config.balance` picks uniform widths or equal `A`-column
    /// non-zeros per panel, and only the plan's leaf panels are sliced,
    /// in [`ExecPlan::production_order`].
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()` — the same contract as every
    /// `sparch_sparse::algo` kernel.
    ///
    /// # Errors
    ///
    /// [`StreamError::Io`] if spill I/O fails.
    pub fn multiply(&self, a: &Csr, b: &Csr) -> Result<(Csr, StreamReport), StreamError> {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let cfg = &self.config;
        let plan = ExecPlan::for_operand(&a.col_nnz(), cfg.panels, cfg.balance, cfg.merge_ways);
        let order = plan.production_order().into_iter();
        let ranges: Vec<_> = order.map(|l| plan.leaf_range(l).clone()).collect();
        let pairs = ranges.into_iter().map(|r| {
            // The condensed slicer records each panel's occupied rows for
            // free — the leaf's product then visits only those.
            let (a_panel, live) = a.col_panel_condensed(r.clone());
            Ok(Leaf::new(a_panel, b.row_panel(r), live))
        });
        let scope = plan.whole();
        self.run_pipeline(a.rows(), b.cols(), plan, scope, pairs)
    }

    /// Executes one subtree of a plan the caller already holds: the leaf
    /// multiplies and merge rounds beneath `root`, each round folding the
    /// same children in the same order as a whole-plan run, through the
    /// same staged pipeline (budget, spill codec and merge workers
    /// apply). `pairs` yields the `(A column panel, B row panel)` of each
    /// leaf of [`ExecPlan::subtree`]`(root)`, in the order of its
    /// [`Subtree::leaves`] — production order; the result is
    /// node `root`'s partial — the full product when `root` is the plan's
    /// root. The report counts what ran: the subtree's leaves and rounds.
    ///
    /// # Errors
    ///
    /// [`StreamError::Shape`] if `root` is not a node of `plan`, or the
    /// panels disagree with the plan's leaves (count, width, `A`
    /// non-zeros) or with `a_rows`/`b_cols`; [`StreamError::Io`] on spill
    /// I/O failure.
    pub fn multiply_subtree<I>(
        &self,
        a_rows: usize,
        b_cols: usize,
        plan: ExecPlan,
        root: usize,
        pairs: I,
    ) -> Result<(Csr, StreamReport), StreamError>
    where
        I: IntoIterator<Item = (Csr, Csr)>,
    {
        if root >= plan.num_nodes() {
            return Err(StreamError::Shape(format!(
                "subtree root {root} is not one of the plan's {} nodes",
                plan.num_nodes()
            )));
        }
        // The plan names the range and `A` non-zeros the i-th pair must
        // have. A pair past the last leaf is checked against itself alone:
        // the pipeline rejects it by its position.
        let scope = plan.subtree(root);
        let mut leaves = scope
            .leaves
            .iter()
            .map(|&leaf| (plan.leaf_range(leaf).clone(), plan.weight(leaf)))
            .collect::<Vec<_>>()
            .into_iter();
        let pairs = pairs.into_iter().map(move |(a, b)| {
            let (range, nnz) = leaves.next().unwrap_or((0..a.cols(), a.nnz() as u64));
            if a.nnz() as u64 != nnz {
                return Err(StreamError::Shape(format!(
                    "panel {range:?} holds {} A non-zeros where the plan's leaf has {nnz}",
                    a.nnz()
                )));
            }
            pipeline::validate_shapes(&range, &a, &b, a_rows, b_cols)?;
            let live = a.occupied_rows();
            Ok(Leaf::new(a, b, live))
        });
        self.run_pipeline(a_rows, b_cols, plan, scope, pairs)
    }

    /// Computes `C = A · B` under `plan` with **both** operands streamed:
    /// `A` as column panels, `B` as the matching row panels — e.g. from
    /// `sparch_sparse::mm::{PanelReader, RowPanelReader}` opened on the
    /// plan's ranges, in which case neither operand ever exists in memory
    /// as a whole matrix and each file's text is scanned once, by the
    /// first pull (so the first pair arrives after both scans; later
    /// pairs only read staged buckets back). Build the plan with
    /// [`ExecPlan::for_operand`] from `A`'s column histogram
    /// (`mm::scan_col_nnz` for a file) before the first panel is read, so
    /// merge rounds run while the streams are still being ingested.
    ///
    /// The two streams are consumed in lockstep and must yield every
    /// panel of the plan once, pruned ones included, under the plan's
    /// ranges, both in [`ExecPlan::panel_order`]: the leaves in
    /// production order, then the pruned panels (the `mm` readers yield
    /// it through `in_order`). Each round's pairs then arrive together,
    /// so a round runs the moment its last pair lands and the pipeline
    /// holds at most one round's pairs ahead of the rounds. A pruned
    /// panel's `A` side must be empty; the pair is dropped unmultiplied.
    /// A leaf panel's `A` non-zeros only weight the merge order, so a
    /// panel holding fewer than the plan counted — duplicate coordinates
    /// the reader folded — runs as read.
    ///
    /// # Errors
    ///
    /// [`StreamError::Shape`] when a stream disagrees with the plan (a
    /// range other than the one `panel_order` names next — another
    /// split, another order, a panel yielded twice —, a pruned panel
    /// carrying `A` non-zeros, a panel short or beyond the last —
    /// including one stream ending while the other still yields panels)
    /// or a panel's shape with `a_rows`/`b_cols`;
    /// errors yielded *by* the streams are passed through;
    /// [`StreamError::Io`] on spill I/O failure.
    pub fn multiply_streams<IA, IB>(
        &self,
        a_rows: usize,
        b_cols: usize,
        plan: ExecPlan,
        a_panels: IA,
        b_panels: IB,
    ) -> Result<(Csr, StreamReport), StreamError>
    where
        IA: IntoIterator<Item = Result<(Range<usize>, Csr), StreamError>>,
        IB: IntoIterator<Item = Result<(Range<usize>, Csr), StreamError>>,
    {
        // The plan's panel ranges in panel order: the first `leaves` are
        // the leaves in production order, the rest the pruned panels.
        let ranges: Vec<_> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
        let order: Vec<_> = plan
            .panel_order()
            .into_iter()
            .map(|p| ranges[p].clone())
            .collect();
        let (leaves, mut at) = (plan.num_leaves(), 0);
        let mut a_panels = a_panels.into_iter();
        let mut b_panels = b_panels.into_iter();
        // Hand-rolled lockstep pairing instead of `zip`: once every panel
        // has arrived both streams are polled once more, so a surplus
        // panel — or a trailing error the docs promise to surface — is
        // reported instead of silently dropped. The pipeline stops pulling
        // at the first error or `None`.
        let pairs = std::iter::from_fn(move || loop {
            let shape = |msg: String| Some(Err(StreamError::Shape(msg)));
            let (range, a, b) = match (a_panels.next(), b_panels.next()) {
                (Some(Err(e)), _) | (_, Some(Err(e))) => return Some(Err(e)),
                (None, None) if at == order.len() => return None,
                (None, None) => {
                    return shape(format!(
                        "panel streams ended {} panels short of the plan",
                        order.len() - at
                    ))
                }
                (Some(Ok((ra, _))), None) => {
                    return shape(format!(
                        "A stream yields panel {ra:?} after the B stream ended"
                    ))
                }
                (None, Some(Ok((rb, _)))) => {
                    return shape(format!(
                        "B stream yields panel {rb:?} after the A stream ended"
                    ))
                }
                (Some(Ok((ra, a))), Some(Ok((rb, b)))) if ra == rb => (ra, a, b),
                (Some(Ok((ra, _))), Some(Ok((rb, _)))) => {
                    return shape(format!(
                        "operand panel streams yield A {ra:?} and B {rb:?} together"
                    ))
                }
            };
            let is_leaf = match order.get(at) {
                Some(want) if *want == range => at < leaves,
                Some(want) => {
                    return shape(format!(
                        "operand panel streams yield {range:?} where the plan's panel order \
                         expects {want:?}"
                    ))
                }
                None => {
                    return shape(format!(
                        "operand panel streams yield {range:?} after the plan's last panel"
                    ))
                }
            };
            at += 1;
            if let Err(e) = pipeline::validate_shapes(&range, &a, &b, a_rows, b_cols) {
                return Some(Err(e));
            }
            if is_leaf {
                let live = a.occupied_rows();
                return Some(Ok(Leaf::new(a, b, live)));
            }
            // A pruned panel: dropped unmultiplied.
            if a.nnz() > 0 {
                return shape(format!(
                    "panel {range:?} holds {} A non-zeros where the plan prunes it",
                    a.nnz()
                ));
            }
        });
        let scope = plan.whole();
        self.run_pipeline(a_rows, b_cols, plan, scope, pairs)
    }

    /// Shared tail: run the staged pipeline over `scope` of `plan` and
    /// fold its outcome into the public report.
    fn run_pipeline<I>(
        &self,
        a_rows: usize,
        b_cols: usize,
        plan: ExecPlan,
        scope: Subtree,
        pairs: I,
    ) -> Result<(Csr, StreamReport), StreamError>
    where
        I: Iterator<Item = Result<Leaf, StreamError>>,
    {
        let inner_dim = plan.inner_dim();
        let outcome = pipeline::run(
            &self.config,
            a_rows,
            b_cols,
            pairs,
            self.spill_dir(),
            &self.recorder,
            plan,
            scope,
        )?;
        self.recorder
            .metrics()
            .gauge("stream.peak_live_bytes")
            .set(outcome.store_stats.peak_live_bytes as f64);
        let report = StreamReport {
            schema_version: StreamReport::SCHEMA_VERSION,
            a_rows,
            inner_dim,
            b_cols,
            panels: outcome.plan.panels(),
            partials: outcome.scope.leaves.len(),
            merge_rounds: outcome.scope.rounds.len(),
            merge_ways: outcome.plan.ways(),
            balance: self.config.balance,
            spill_codec: self.config.spill_codec,
            budget_bytes: self.config.budget.bytes(),
            peak_live_bytes: outcome.store_stats.peak_live_bytes,
            partial_bytes_total: outcome.partial_bytes_total,
            largest_partial_bytes: outcome.largest_partial_bytes,
            spill_writes: outcome.store_stats.spill_writes,
            spill_reads: outcome.store_stats.spill_reads,
            spill_bytes_written: outcome.store_stats.spill_bytes_written,
            spill_bytes_raw_equivalent: outcome.store_stats.spill_bytes_raw_equivalent,
            output_nnz: outcome.result.nnz(),
            threads: sparch_exec::ShardPool::with_override(self.config.threads).threads(),
            stages: outcome.stages,
        };
        Ok((outcome.result, report))
    }

    /// A unique per-run spill directory under the configured (or system)
    /// temp root.
    fn spill_dir(&self) -> std::path::PathBuf {
        let base = self
            .config
            .spill_dir
            .clone()
            .unwrap_or_else(std::env::temp_dir);
        base.join(format!(
            "sparch-stream-{}-{}",
            std::process::id(),
            RUN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use crate::{MemoryBudget, PanelBalance, SpillCodec};
    use sparch_sparse::{algo, gen, panel_ranges, Coo};
    use std::sync::atomic::AtomicBool;
    use std::time::{Duration, Instant};

    fn exec(budget: MemoryBudget, panels: usize, threads: usize) -> StreamingExecutor {
        StreamingExecutor::new(StreamConfig {
            budget,
            panels,
            merge_ways: 4,
            threads: Some(threads),
            ..StreamConfig::default()
        })
    }

    /// An integer-valued random matrix (values in `-4..=4`, explicit
    /// zeros possible): products and sums are exact in f64, so the
    /// streamed result must be **bit-identical** to `gustavson` no matter
    /// how the panel split regroups the summation.
    fn int_matrix(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
        sparch_sparse::linalg::map_values(&gen::uniform_random(rows, cols, nnz, seed), |v| {
            (v * 4.0).round()
        })
    }

    #[test]
    fn matches_gustavson_in_core() {
        let a = int_matrix(96, 96, 600, 1);
        let b = int_matrix(96, 80, 500, 2);
        let (c, report) = exec(MemoryBudget::unbounded(), 5, 2)
            .multiply(&a, &b)
            .unwrap();
        assert_eq!(c, algo::gustavson(&a, &b));
        assert_eq!(report.spill_writes, 0);
        assert!(report.partials >= 2 && report.merge_rounds >= 1);
        assert!(report.peak_live_bytes <= report.partial_bytes_total);
        assert_eq!(report.output_nnz, c.nnz());
        assert!(report.stages.multiply_busy_seconds > 0.0);
    }

    #[test]
    fn float_inputs_match_structurally_and_to_tolerance() {
        // Floating-point sums regroup across panels, so values may drift
        // by ulps — but the structure (row_ptr / col_idx, explicit zeros
        // included) must be exact, which approx_eq checks.
        let a = gen::rmat_graph500(96, 5, 1);
        let b = gen::uniform_random(96, 80, 500, 2);
        let (c, _) = exec(MemoryBudget::from_kb(8), 5, 2)
            .multiply(&a, &b)
            .unwrap();
        assert!(c.approx_eq(&algo::gustavson(&a, &b), 1e-12));
    }

    #[test]
    fn zero_budget_spills_every_partial_and_still_matches() {
        let a = int_matrix(64, 64, 400, 7);
        let (c, report) = exec(MemoryBudget::from_bytes(0), 6, 1)
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(c, algo::gustavson(&a, &a));
        assert_eq!(report.peak_live_bytes, 0);
        // Every partial that enters the store is a round output, and all
        // of them but the root's go to disk.
        assert!(report.merge_rounds >= 2);
        assert_eq!(report.spill_writes, report.merge_rounds as u64 - 1);
        assert!(report.spill_reads > 0);
        assert!(report.spill_bytes_written > 0);
        assert!(report.stages.spill_write_seconds > 0.0);
    }

    #[test]
    fn results_are_identical_across_budgets_panels_threads_codecs() {
        let a = int_matrix(80, 80, 500, 3);
        let b = int_matrix(80, 80, 350, 4);
        let expected = algo::gustavson(&a, &b);
        for budget in [0u64, 4 << 10, u64::MAX] {
            for panels in [1, 3, 4, 9] {
                for threads in [1, 4] {
                    for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                        let mut e = exec(MemoryBudget::from_bytes(budget), panels, threads);
                        e.config.spill_codec = codec;
                        let (c, _) = e.multiply(&a, &b).unwrap();
                        assert_eq!(
                            c, expected,
                            "budget {budget} panels {panels} threads {threads} codec {codec}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn float_results_are_identical_across_budgets_and_threads() {
        // At a fixed panel count and balance mode the fold order is
        // fixed, so even float results are bit-identical no matter the
        // budget, thread count or codec — stage timing never reaches
        // the merge plan.
        let a = gen::rmat_graph500(80, 6, 3);
        let b = gen::rmat_graph500(80, 4, 4);
        let reference = exec(MemoryBudget::unbounded(), 4, 1)
            .multiply(&a, &b)
            .unwrap()
            .0;
        for budget in [0u64, 4 << 10] {
            for threads in [1, 4] {
                let (c, _) = exec(MemoryBudget::from_bytes(budget), 4, threads)
                    .multiply(&a, &b)
                    .unwrap();
                assert_eq!(c, reference, "budget {budget} threads {threads}");
            }
        }
    }

    #[test]
    fn balance_modes_agree_for_exact_arithmetic() {
        let a = int_matrix(90, 90, 700, 11);
        let b = int_matrix(90, 70, 400, 12);
        let expected = algo::gustavson(&a, &b);
        for balance in [PanelBalance::Uniform, PanelBalance::Nnz] {
            let mut e = exec(MemoryBudget::from_kb(4), 5, 2);
            e.config.balance = balance;
            let (c, report) = e.multiply(&a, &b).unwrap();
            assert_eq!(c, expected, "balance {balance}");
            assert_eq!(report.balance, balance);
        }
    }

    #[test]
    fn nnz_balance_evens_out_partial_sizes_on_skewed_input() {
        // Concentrate A's mass in the first columns: uniform panels give
        // one huge partial, nnz panels spread the weight.
        let mut entries = Vec::new();
        for r in 0..60u32 {
            for c in 0..6u32 {
                entries.push((r, c, 1.0));
            }
        }
        for r in 0..20u32 {
            entries.push((r, 10 + 2 * r % 50, 2.0));
        }
        let a = sparch_sparse::Coo::from_entries(60, 60, entries).to_csr();
        let b = int_matrix(60, 40, 300, 9);
        let run = |balance: PanelBalance| {
            let mut e = exec(MemoryBudget::unbounded(), 4, 1);
            e.config.balance = balance;
            e.multiply(&a, &b).unwrap().1
        };
        let uniform = run(PanelBalance::Uniform);
        let nnz = run(PanelBalance::Nnz);
        assert_eq!(uniform.output_nnz, nnz.output_nnz);
        assert!(
            nnz.largest_partial_bytes < uniform.largest_partial_bytes,
            "balanced split should shrink the largest partial: {} vs {}",
            nnz.largest_partial_bytes,
            uniform.largest_partial_bytes
        );
    }

    #[test]
    fn single_panel_degenerates_to_one_partial() {
        let a = gen::uniform_random(32, 32, 160, 5);
        let (c, report) = exec(MemoryBudget::unbounded(), 1, 1)
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(c, algo::gustavson(&a, &a));
        assert_eq!(report.partials, 1);
        assert_eq!(report.merge_rounds, 0);
    }

    #[test]
    fn empty_operands_give_the_empty_product() {
        let (c, report) = exec(MemoryBudget::unbounded(), 4, 1)
            .multiply(&Csr::zero(5, 8), &Csr::zero(8, 3))
            .unwrap();
        assert_eq!((c.rows(), c.cols(), c.nnz()), (5, 3, 0));
        assert_eq!(report.partials, 0);
        assert_eq!(c, algo::gustavson(&Csr::zero(5, 8), &Csr::zero(8, 3)));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics_like_the_kernels() {
        let _ = exec(MemoryBudget::unbounded(), 2, 1).multiply(&Csr::zero(2, 3), &Csr::zero(2, 2));
    }

    /// The `Shape` error a plan-vs-stream mismatch must produce — a typed
    /// error, never a panic or a result.
    fn assert_shape_error(what: &str, outcome: Result<(Csr, StreamReport), StreamError>) {
        match outcome {
            Err(StreamError::Shape(_)) => {}
            Err(e) => panic!("{what}: expected a shape error, got {e:?}"),
            Ok(_) => panic!("{what}: expected a shape error, got a result"),
        }
    }

    #[test]
    fn panel_ingestion_validates_tiling() {
        // A's columns 4..8 are empty, so the three-panel plan prunes its
        // middle panel.
        let full = int_matrix(10, 12, 50, 1);
        let kept = full.iter().filter(|&(_, c, _)| !(4..8).contains(&c));
        let a = Coo::from_entries(10, 12, kept.collect()).to_csr();
        let b = int_matrix(12, 10, 50, 2);
        let e = exec(MemoryBudget::unbounded(), 3, 1);
        let plan = |col_nnz: &[usize], panels| {
            ExecPlan::for_operand(col_nnz, panels, PanelBalance::Uniform, 4)
        };
        let (three, one) = (plan(&a.col_nnz(), 3), plan(&a.col_nnz(), 1));
        assert_eq!((three.panels(), three.num_leaves()), (3, 2));
        // Each case: the plan and the (range, A panel, B panel) triples
        // both streams yield in lockstep.
        let run = |plan: &ExecPlan, panels: Vec<(Range<usize>, Csr, Csr)>| {
            let a_stream = panels.clone().into_iter().map(|(r, a, _)| Ok((r, a)));
            let b_stream = panels.into_iter().map(|(r, _, b)| Ok((r, b)));
            e.multiply_streams(10, 10, plan.clone(), a_stream, b_stream)
        };
        let sliced = |r: Range<usize>| (r.clone(), a.col_panel(r.clone()), b.row_panel(r));
        // The three panels in the plan's panel order: the leaves in
        // production order, then the pruned middle panel.
        let ranges = panel_ranges(12, 3);
        let good = || {
            let order = three.panel_order().into_iter();
            order.map(|p| sliced(ranges[p].clone())).collect::<Vec<_>>()
        };
        assert_eq!(good()[2].0, 4..8);

        assert_shape_error(
            "a gap in coverage",
            run(&three, vec![sliced(0..4), sliced(6..12)]),
        );
        assert_shape_error(
            "a wrong panel shape",
            run(&one, vec![(0..12, a.col_panel(0..6), b.clone())]),
        );
        assert_shape_error("one panel short", run(&three, good()[..2].to_vec()));
        let mut beyond = good();
        beyond.push(sliced(8..12));
        assert_shape_error("one panel beyond", run(&three, beyond));
        assert_shape_error(
            "B disagreeing with the plan's inner dimension",
            run(
                &plan(&a.col_nnz()[..9], 1),
                vec![(0..9, a.col_panel(0..9), b.clone())],
            ),
        );
        assert_shape_error(
            "a range past the inner dimension",
            run(&one, vec![(0..13, a.col_panel(0..12), Csr::zero(13, 10))]),
        );
        let carried = full.col_panel(4..8);
        assert!(carried.nnz() > 0);
        let mut carrying = good();
        carrying[2].1 = carried;
        assert_shape_error("a pruned panel carrying A non-zeros", run(&three, carrying));
        // And the happy path through the same entry point: the pruned
        // panel is drained from both streams and never multiplied.
        let (c, report) = run(&three, good()).unwrap();
        assert_eq!(c, algo::gustavson(&a, &b));
        assert_eq!((report.panels, report.partials), (3, 2));
    }

    #[test]
    fn multiply_streams_pairs_both_operands() {
        let a = int_matrix(20, 24, 120, 5);
        let b = int_matrix(24, 16, 100, 6);
        let e = exec(MemoryBudget::from_bytes(0), 4, 2);
        let plan = |panels| ExecPlan::for_operand(&a.col_nnz(), panels, PanelBalance::Uniform, 4);
        let a_side = |ranges: &[Range<usize>]| {
            ranges
                .iter()
                .map(|r| Ok((r.clone(), a.col_panel(r.clone()))))
                .collect::<Vec<_>>()
        };
        let b_side = |ranges: &[Range<usize>]| {
            ranges
                .iter()
                .map(|r| Ok((r.clone(), b.row_panel(r.clone()))))
                .collect::<Vec<_>>()
        };
        // The plan's ranges in its panel order.
        let in_panel_order = |plan: &ExecPlan| {
            let ranges: Vec<_> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
            let order = plan.panel_order().into_iter();
            order.map(|p| ranges[p].clone()).collect::<Vec<_>>()
        };
        let ranges = in_panel_order(&plan(4));
        let (c, report) = e
            .multiply_streams(20, 16, plan(4), a_side(&ranges), b_side(&ranges))
            .unwrap();
        assert_eq!(c, algo::gustavson(&a, &b));
        assert_eq!(report.panels, 4);

        // Mismatched ranges between the two streams are a shape error.
        assert_shape_error(
            "streams that disagree",
            e.multiply_streams(
                20,
                16,
                plan(4),
                a_side(&ranges),
                vec![Ok((0..24, b.clone()))],
            ),
        );
        // Both streams agreeing with each other but not with the plan:
        // another split, one panel short, one panel beyond.
        let thirds = panel_ranges(24, 3);
        assert_shape_error(
            "a split other than the plan's",
            e.multiply_streams(20, 16, plan(4), a_side(&thirds), b_side(&thirds)),
        );
        assert_shape_error(
            "one panel short",
            e.multiply_streams(20, 16, plan(4), a_side(&ranges[..3]), b_side(&ranges[..3])),
        );
        let mut beyond = ranges.clone();
        beyond.push(18..24);
        assert_shape_error(
            "one panel beyond",
            e.multiply_streams(20, 16, plan(4), a_side(&beyond), b_side(&beyond)),
        );
        // A plan that prunes a panel whose A side the stream fills.
        let mut hist = a.col_nnz();
        hist[6..12].fill(0);
        let pruned = ExecPlan::for_operand(&hist, 4, PanelBalance::Uniform, 4);
        let ranges = in_panel_order(&pruned);
        assert_eq!(ranges[3], 6..12);
        assert_shape_error(
            "a pruned panel carrying A non-zeros",
            e.multiply_streams(20, 16, pruned, a_side(&ranges), b_side(&ranges)),
        );

        // Errors yielded by a stream pass through verbatim.
        let a_stream = vec![Err(StreamError::Ingest("disk on fire".into()))];
        assert!(matches!(
            e.multiply_streams(20, 16, plan(1), a_stream, vec![Ok((0..24, b.clone()))]),
            Err(StreamError::Ingest(_))
        ));

        // A surplus B panel after A ended (here: a full-coverage A
        // stream against one panel too many) is a shape error, never
        // silently dropped — and a surplus trailing *error* surfaces
        // too.
        let whole = panel_ranges(24, 1);
        let b_stream = vec![Ok((0..24, b.clone())), Ok((24..30, Csr::zero(6, 16)))];
        assert_shape_error(
            "a surplus B panel",
            e.multiply_streams(20, 16, plan(1), a_side(&whole), b_stream),
        );
        let b_stream = vec![
            Ok((0..24, b.clone())),
            Err(StreamError::Ingest("truncated tail".into())),
        ];
        assert!(matches!(
            e.multiply_streams(20, 16, plan(1), a_side(&whole), b_stream),
            Err(StreamError::Ingest(_))
        ));
        // A surplus A panel after B ended reports the disagreement, not
        // a misleading coverage error.
        let halves = in_panel_order(&plan(2));
        match e.multiply_streams(20, 16, plan(2), a_side(&halves), b_side(&halves[..1])) {
            Err(StreamError::Shape(msg)) => {
                assert!(msg.contains("after the B stream ended"), "{msg}")
            }
            other => panic!("expected a stream-disagreement error, got {other:?}"),
        }
    }

    /// Whether a round output (node id `>= leaves`) has a spill file in
    /// some run directory under `dir`, polled for up to 10 s.
    fn round_output_spills(dir: &std::path::Path, leaves: usize) -> bool {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            let runs = std::fs::read_dir(dir).into_iter().flatten().flatten();
            let spilled = runs
                .flat_map(|run| {
                    std::fs::read_dir(run.path())
                        .into_iter()
                        .flatten()
                        .flatten()
                })
                .filter_map(|file| {
                    let name = file.file_name().into_string().ok()?;
                    name.strip_prefix("partial-")?
                        .strip_suffix(".bin")?
                        .parse::<usize>()
                        .ok()
                })
                .any(|id| id >= leaves);
            if spilled {
                return true;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        false
    }

    /// The plan exists before the first panel is read, so a round runs as
    /// soon as its inputs have arrived: here both streams yield the plan's
    /// production order and the `A` stream holds back its last panel until
    /// a round output has spilled, which happens only if rounds are
    /// dispatched while ingest is still under way.
    #[test]
    fn rounds_merge_before_the_last_panel_is_read() {
        // Four 3-column panels, lightest first (A weights 6, 12, 24, 48),
        // so the first two-way round folds leaves 0 and 1.
        let mut entries = Vec::new();
        for col in 0..12u32 {
            for row in 0..2u32 << (col / 3) {
                entries.push((row, col, f64::from(row % 3 + 1)));
            }
        }
        let a = Coo::from_entries(24, 12, entries).to_csr();
        let b = int_matrix(12, 20, 90, 3);
        let plan = ExecPlan::for_operand(&a.col_nnz(), 4, PanelBalance::Uniform, 2);
        let ranges: Vec<_> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
        assert_eq!((ranges.len(), plan.num_rounds()), (4, 3));
        let leaves = plan.num_leaves();
        let dir = TempDir::new("rounds_before_ingest");
        let e = StreamingExecutor::new(StreamConfig {
            budget: MemoryBudget::from_bytes(0),
            merge_ways: 2,
            threads: Some(2),
            spill_dir: Some(dir.path().to_path_buf()),
            ..StreamConfig::default()
        });
        let round_spilled = AtomicBool::new(false);
        let order: Vec<Range<usize>> = plan
            .panel_order()
            .iter()
            .map(|&p| ranges[p].clone())
            .collect();
        let a_stream = order.iter().enumerate().map(|(at, r)| {
            if at + 1 == order.len() {
                let spilled = round_output_spills(dir.path(), leaves);
                round_spilled.store(spilled, Ordering::Relaxed);
            }
            Ok((r.clone(), a.col_panel(r.clone())))
        });
        let b_stream = order
            .iter()
            .map(|r| Ok((r.clone(), b.row_panel(r.clone()))));
        let (c, report) = e
            .multiply_streams(24, 20, plan, a_stream, b_stream)
            .unwrap();
        assert!(
            round_spilled.load(Ordering::Relaxed),
            "no round output spilled within 10 s while the last panel was held back"
        );
        assert_eq!(c, algo::gustavson(&a, &b));
        assert_eq!(report.merge_rounds, 3);
    }

    #[test]
    fn stage_telemetry_reports_overlap_on_parallel_runs() {
        // With multiple panels and workers, rounds should start while the
        // reader still ingests at least once on a workload this size —
        // and busy seconds must be populated for every stage.
        let a = int_matrix(160, 160, 160 * 12, 21);
        let (c, report) = exec(MemoryBudget::from_kb(16), 12, 2)
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(c, algo::gustavson(&a, &a));
        let s = &report.stages;
        assert!(s.reader_busy_seconds > 0.0);
        // The leaves are multiplied inside the rounds: with no multiply
        // stage left, the kernel time is the whole multiply time.
        assert!(
            s.multiply_kernel_seconds > 0.0 && s.multiply_kernel_seconds == s.multiply_busy_seconds,
            "kernel time must be the positive multiply busy time: {s:?}"
        );
        assert!(
            s.multiply_scratch_reuses > 0,
            "12 leaves on 2 merge workers must multiply on warm scratch at least once: {s:?}"
        );
        assert!(s.merge_busy_seconds > 0.0);
        assert!(
            s.reads_overlapping_multiply > 0 || s.rounds_overlapping_multiply > 0,
            "no overlap observed at all: {s:?}"
        );
    }

    #[test]
    fn report_serializes() {
        let a = gen::uniform_random(24, 24, 100, 8);
        let (_, report) = exec(MemoryBudget::from_kb(1), 4, 1)
            .multiply(&a, &a)
            .unwrap();
        assert_eq!(report.schema_version, StreamReport::SCHEMA_VERSION);
        let json = serde_json::to_string(&report).unwrap();
        let back: StreamReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }

    #[test]
    fn without_timing_is_deterministic_across_runs() {
        let a = int_matrix(64, 64, 400, 13);
        let run = || {
            exec(MemoryBudget::from_kb(2), 5, 4)
                .multiply(&a, &a)
                .unwrap()
                .1
        };
        let first = run().without_timing();
        let second = run().without_timing();
        assert_eq!(first, second);
        assert_eq!(first.stages, StageReport::default());
        assert_eq!(first.peak_live_bytes, 0);
        // The structural facts survive the projection.
        assert!(first.partials > 0 && first.output_nnz > 0);
    }

    /// A float-valued R-MAT(2048, 8): a change of fold order would show
    /// in the bits of its square.
    fn float_rmat() -> Csr {
        let r = gen::rmat_graph500(2048, 8, 7);
        let values = (0..r.nnz())
            .map(|k| 1.0 + (k as f64 * 0.61).sin())
            .collect();
        let (rp, ci) = (r.row_ptr().to_vec(), r.col_indices().to_vec());
        Csr::try_new(r.rows(), r.cols(), rp, ci, values).unwrap()
    }

    /// The value of argument `key` of a `merge-round` span.
    fn span_arg(span: &sparch_obs::Span, key: &str) -> u64 {
        let found = span.args.iter().find(|x| x.key == key);
        found
            .unwrap_or_else(|| panic!("merge-round without {key}"))
            .value
    }

    /// Squares [`float_rmat`] at `panels` panels and 4 ways, with
    /// `threads` threads and merge workers under `budget`. Returns the
    /// product, the report and the run's `merge-round` spans.
    fn rmat_run(
        budget: MemoryBudget,
        panels: usize,
        threads: usize,
    ) -> (Csr, StreamReport, Vec<sparch_obs::Span>) {
        let a = float_rmat();
        let executor = StreamingExecutor::new(StreamConfig {
            budget,
            panels,
            merge_ways: 4,
            threads: Some(threads),
            ..StreamConfig::default()
        })
        .with_recorder(Recorder::enabled());
        let (c, report) = executor.multiply(&a, &a).unwrap();
        let trace = executor.recorder().drain("stream");
        let rounds = trace.spans.into_iter().filter(|s| s.name == "merge-round");
        (c, report, rounds.collect())
    }

    /// Squares [`float_rmat`] at 16 panels and 4 ways, with `threads`
    /// threads and merge workers under `budget`. Returns the product, the
    /// report, and the `bands` and `triples` of the root's `merge-round`
    /// span.
    fn rmat_root_run(budget: MemoryBudget, threads: usize) -> (Csr, StreamReport, u64, u64) {
        let (c, report, rounds) = rmat_run(budget, 16, threads);
        let root = rounds
            .iter()
            .max_by_key(|s| span_arg(s, "round"))
            .expect("a merge round");
        assert_eq!(span_arg(root, "round") as usize, report.merge_rounds - 1);
        let (bands, triples) = (span_arg(root, "bands"), span_arg(root, "triples"));
        (c, report, bands, triples)
    }

    fn bits(m: &Csr) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// A round that would otherwise run alone folds in row bands on every
    /// merge worker: the root of an unbounded two-thread run over
    /// R-MAT(2048, 8)² carries `bands` = 2 on its `merge-round` span, and
    /// the product is bit-identical to a one-thread, one-merge-worker
    /// run.
    #[test]
    fn a_lone_root_round_folds_in_row_bands_on_every_merge_worker() {
        let (want, _, bands, _) = rmat_root_run(MemoryBudget::unbounded(), 1);
        assert_eq!(bands, 1, "one merge worker folds in one band");
        let (got, _, bands, triples) = rmat_root_run(MemoryBudget::unbounded(), 2);
        assert_eq!(
            bands, 2,
            "the root ({triples} triples) folded in {bands} band(s)"
        );
        assert_eq!(got, want);
        assert_eq!(bits(&got), bits(&want));
    }

    /// A one-leaf plan runs its leaf as a one-source round of its own,
    /// banded like any round that would otherwise run alone: a one-panel
    /// run over R-MAT(2048, 8)² at two threads carries `bands` = 2 on its
    /// only `merge-round` span, and is bit-identical to `gustavson`.
    #[test]
    fn a_lone_leaf_runs_as_a_round_in_row_bands_on_every_merge_worker() {
        let (got, report, rounds) = rmat_run(MemoryBudget::unbounded(), 1, 2);
        assert_eq!((report.partials, report.merge_rounds), (1, 0));
        assert_eq!(rounds.len(), 1, "one round for the lone leaf");
        let arg = |key| span_arg(&rounds[0], key);
        let (bands, triples) = (arg("bands"), arg("triples"));
        assert_eq!(arg("leaves"), 1);
        assert_eq!(
            bands, 2,
            "the lone leaf ({triples} triples) ran in {bands} band(s)"
        );
        let a = float_rmat();
        let want = algo::gustavson(&a, &a);
        assert_eq!(got, want);
        assert_eq!(bits(&got), bits(&want));
        assert!(report.stages.multiply_kernel_seconds > 0.0);
    }

    /// A lone root over spilled children is cut at its spill files' row
    /// marks: a budget-0 run spills every partial and a run at a quarter
    /// of the partial footprint spills some, and in both the two-thread
    /// root carries `bands` = 2, with bits equal to the unbounded run and
    /// to the one-thread run under the same budget.
    #[test]
    fn a_lone_root_over_spilled_children_folds_in_row_bands() {
        let (want, probe, _, _) = rmat_root_run(MemoryBudget::unbounded(), 2);
        for budget in [0, probe.partial_bytes_total / 4] {
            let budget = MemoryBudget::from_bytes(budget);
            let (one, report, _, _) = rmat_root_run(budget, 1);
            assert!(report.spill_reads > 0, "{budget:?}: nothing spilled");
            let (got, report, bands, triples) = rmat_root_run(budget, 2);
            assert!(report.spill_reads > 0, "{budget:?}: nothing spilled");
            assert_eq!(
                bands, 2,
                "{budget:?}: the spilled root ({triples} triples) folded in {bands} band(s)"
            );
            assert_eq!(bits(&got), bits(&want), "{budget:?}");
            assert_eq!(bits(&got), bits(&one), "{budget:?}");
            assert_eq!(got, want, "{budget:?}");
        }
    }

    /// The node ids of every `spill-write` span of `run`'s trace.
    fn spilled_nodes(executor: &StreamingExecutor) -> Vec<u64> {
        let trace = executor.recorder().drain("stream");
        let writes = trace.spans.iter().filter(|s| s.name == "spill-write");
        let node = |s: &sparch_obs::Span| s.args.iter().find(|x| x.key == "node").unwrap().value;
        writes.map(node).collect()
    }

    /// Leaves are multiplied inside the rounds that fold them and never
    /// enter the store: under budgets that force spilling, every spill
    /// file written is a round output's (`partial-{id}.bin` with `id` at
    /// or past the leaf count), and at budget 0 every round output but
    /// the root's is written, at one thread and at two.
    #[test]
    fn no_leaf_partial_is_ever_spilled() {
        let a = int_matrix(120, 120, 1400, 9);
        let expected = algo::gustavson(&a, &a);
        let probe = exec(MemoryBudget::unbounded(), 11, 1)
            .multiply(&a, &a)
            .unwrap()
            .1;
        for budget in [0, probe.partial_bytes_total / 8] {
            for threads in [1, 2] {
                let executor = StreamingExecutor::new(StreamConfig {
                    budget: MemoryBudget::from_bytes(budget),
                    panels: 11,
                    merge_ways: 3,
                    threads: Some(threads),
                    ..StreamConfig::default()
                })
                .with_recorder(Recorder::enabled());
                let (c, report) = executor.multiply(&a, &a).unwrap();
                let what = format!("budget {budget}, {threads} thread(s)");
                assert_eq!(c, expected, "{what}");
                let nodes = spilled_nodes(&executor);
                assert!(!nodes.is_empty(), "{what}: nothing spilled");
                assert_eq!(nodes.len() as u64, report.spill_writes, "{what}");
                let leaves = report.partials as u64;
                assert!(
                    nodes.iter().all(|&id| id >= leaves),
                    "{what}: spilled {nodes:?}"
                );
                if budget == 0 {
                    assert_eq!(
                        report.spill_writes,
                        report.merge_rounds as u64 - 1,
                        "{what}"
                    );
                }
            }
        }
    }

    /// `partial_bytes_total` and `largest_partial_bytes` are what the leaf
    /// partials would occupy had each been built whole by the kernel — at
    /// every budget, thread count and band count, and through every entry
    /// point — so a budget taken as a fraction of a probe run's footprint
    /// means what it did when leaves were materialized.
    #[test]
    fn leaf_footprints_equal_the_materialized_leaves() {
        let a = gen::rmat_graph500(256, 6, 5);
        let b = gen::uniform_random(256, 200, 1500, 6);
        let plan = ExecPlan::for_operand(&a.col_nnz(), 9, PanelBalance::Nnz, 3);
        let mut scratch = algo::MultiplyScratch::new();
        let bytes: Vec<u64> = plan
            .leaf_ranges()
            .map(|r| {
                let (a_panel, live) = a.col_panel_condensed(r.clone());
                let leaf = algo::gustavson_scratch_on_rows(
                    &a_panel,
                    &b.row_panel(r.clone()),
                    &live,
                    &mut scratch,
                );
                leaf.estimated_bytes()
            })
            .collect();
        let total: u64 = bytes.iter().sum();
        let largest = *bytes.iter().max().unwrap();
        for budget in [u64::MAX, total / 4, 0] {
            for threads in [1, 2] {
                let mut e = exec(MemoryBudget::from_bytes(budget), 9, threads);
                e.config.merge_ways = 3;
                e.config.balance = PanelBalance::Nnz;
                let (_, report) = e.multiply(&a, &b).unwrap();
                let what = format!("budget {budget}, {threads} thread(s)");
                assert_eq!(report.partial_bytes_total, total, "{what}");
                assert_eq!(report.largest_partial_bytes, largest, "{what}");
                let root = plan.root().unwrap();
                let leaves = plan.subtree(root).leaves;
                let pairs: Vec<_> = leaves
                    .iter()
                    .map(|&leaf| {
                        let r = plan.leaf_range(leaf).clone();
                        (a.col_panel(r.clone()), b.row_panel(r))
                    })
                    .collect();
                let (_, cut) = e
                    .multiply_subtree(a.rows(), b.cols(), plan.clone(), root, pairs)
                    .unwrap();
                assert_eq!(
                    (cut.partial_bytes_total, cut.largest_partial_bytes),
                    (total, largest),
                    "{what}"
                );
            }
        }
        // A lone leaf is multiplied whole at the end of the run.
        let (_, one) = exec(MemoryBudget::unbounded(), 1, 1)
            .multiply(&a, &b)
            .unwrap();
        let whole = algo::gustavson(&a, &b).estimated_bytes();
        assert_eq!(
            (one.partial_bytes_total, one.largest_partial_bytes),
            (whole, whole)
        );
    }

    /// `multiply_streams` takes the plan's panels in its panel order
    /// only: in production order the bits equal `multiply`'s and so does
    /// the report apart from timing; range order, reversed order and a
    /// repeated panel are each one prompt `Shape` error naming the range
    /// expected and the range that arrived — never a hang.
    #[test]
    fn multiply_streams_rejects_panels_out_of_production_order() {
        let a = gen::rmat_graph500(128, 6, 8);
        let b = gen::uniform_random(128, 90, 700, 9);
        let mut hist = a.col_nnz();
        hist[40..60].fill(0);
        let kept = a.iter().filter(|&(_, c, _)| !(40..60).contains(&c));
        let a = Coo::from_entries(128, 128, kept.collect()).to_csr();
        assert_eq!(a.col_nnz(), hist);
        for budget in [0, u64::MAX] {
            let mut e = exec(MemoryBudget::from_bytes(budget), 12, 2);
            e.config.balance = PanelBalance::Uniform;
            let (want, report) = e.multiply(&a, &b).unwrap();
            let plan = ExecPlan::for_operand(&hist, 12, e.config.balance, e.config.merge_ways);
            assert!(plan.num_leaves() < plan.panels(), "a panel must be pruned");
            let ranges: Vec<_> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
            let run = |order: &[usize]| {
                let side = |f: &dyn Fn(Range<usize>) -> Csr| {
                    let panels = order
                        .iter()
                        .map(|&p| Ok((ranges[p].clone(), f(ranges[p].clone()))));
                    panels.collect::<Vec<_>>()
                };
                let (a_side, b_side) = (side(&|r| a.col_panel(r)), side(&|r| b.row_panel(r)));
                e.multiply_streams(128, 90, plan.clone(), a_side, b_side)
            };

            let production = plan.panel_order();
            let (c, got) = run(&production).unwrap();
            assert_eq!(bits(&c), bits(&want), "budget {budget}");
            assert_eq!(c, want, "budget {budget}");
            assert_eq!(
                got.without_timing(),
                report.without_timing(),
                "budget {budget}"
            );

            let range_order: Vec<usize> = (0..ranges.len()).collect();
            let reversed: Vec<usize> = production.iter().rev().copied().collect();
            let mut repeated = production.clone();
            repeated[1] = repeated[0];
            for (what, order) in [
                ("range order", range_order),
                ("reversed order", reversed),
                ("a repeated panel", repeated),
            ] {
                assert_ne!(order, production, "{what}");
                let at = (0..order.len())
                    .find(|&i| order[i] != production[i])
                    .unwrap();
                let (expected, arrived) = (&ranges[production[at]], &ranges[order[at]]);
                let started = Instant::now();
                match run(&order) {
                    Err(StreamError::Shape(msg)) => assert!(
                        msg.contains(&format!("{arrived:?}"))
                            && msg.contains(&format!("expects {expected:?}")),
                        "budget {budget}, {what}: {msg}"
                    ),
                    other => {
                        panic!("budget {budget}, {what}: expected a shape error, got {other:?}")
                    }
                }
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "budget {budget}, {what}: the error took {:?}",
                    started.elapsed()
                );
            }
        }
    }
}
