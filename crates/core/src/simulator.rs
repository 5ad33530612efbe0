//! The whole-task SpArch simulator (paper §II-E, Figure 10).
//!
//! One [`SpArchSim::run`] models a complete `C = A × B` task as four
//! explicit stages (each also callable on its own for instrumentation):
//!
//! 1. **plan** ([`SpArchSim::plan_stage`]) — the left matrix is viewed by
//!    condensed columns (§II-B) — or by original CSC columns when the
//!    condensing ablation is off — and the scheduler (§II-C) turns the
//!    column sizes into a merge plan,
//! 2. **prefetch** ([`SpArchSim::prefetch_stage`]) — the MatB row
//!    accesses implied by the plan drive the windowed-Bélády prefetch
//!    buffer (§II-D), attributing exact DRAM reads per round; the buffer
//!    model keeps its bookkeeping in dense per-position and per-row
//!    tables (see [`RowPrefetcher`]),
//! 3. **round-execute** ([`SpArchSim::execute_stage`]) — each round
//!    multiplies its fresh columns, merges their products with re-fetched
//!    partial results, folds duplicate coordinates and accounts
//!    traffic/cycles/activity; per-round cycles are the max of the
//!    memory-bound and compute-bound times plus startup latencies. The
//!    merge's *values* come from a row-wise accumulation that yields the
//!    merge tree's stream bit for bit (see [`crate::pipeline`]); its
//!    *costs* are the tree's,
//! 4. **writeback** ([`SpArchSim::writeback_stage`]) — the final round's
//!    rows become the result matrix and the cost models produce the report.
//!
//! All buffers the execute stage touches live in a reusable
//! [`SimScratch`], so repeated runs ([`SpArchSim::run_with_scratch`])
//! allocate nothing on the round hot path — the property sharded
//! parameter sweeps rely on (see `sparch_exec`).
//!
//! The result matrix is exact; traffic is exact given the model's
//! element-granularity layouts; cycles/energy come from the calibrated
//! cost models. `crates/core/tests/golden_counts.rs` pins every count.

use crate::condense::{CondensedElement, CondensedView};
use crate::config::SpArchConfig;
use crate::pipeline::{fold_round, CostParams, FoldInput, RoundCost};
use crate::prefetch::{PrefetchStats, RowPrefetcher};
use crate::report::{PerfSummary, SimReport};
use crate::sched::{MergePlan, PlanNode};
use crate::scratch::{RoundMatB, SimScratch};
use sparch_engine::HierarchicalMerger;
use sparch_mem::{ActivityCounts, AreaModel, TrafficCategory, TrafficCounter};
use sparch_sparse::{Csr, CsrBuilder, Index};

/// The SpArch accelerator simulator.
///
/// # Example
///
/// ```
/// use sparch_core::{SpArchConfig, SpArchSim};
/// use sparch_sparse::gen;
///
/// let a = gen::rmat_graph500(128, 4, 7);
/// let report = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
/// assert_eq!(report.result().rows(), 128);
/// ```
#[derive(Debug, Clone)]
pub struct SpArchSim {
    config: SpArchConfig,
}

/// Output of the plan stage: the initial partial matrices and the merge
/// schedule over them.
#[derive(Debug, Clone)]
pub struct SimPlan {
    /// Condensed (or original-CSC) columns of the left operand — the
    /// initial partial matrices, by leaf id.
    pub leaves: Vec<Vec<CondensedElement>>,
    /// Exact multiplied-stream size of each leaf (Σ nnz of the B rows its
    /// elements touch) — the scheduler's leaf weights.
    pub leaf_weights: Vec<u64>,
    /// The scheduler's merge plan over the leaf weights.
    pub merge_plan: MergePlan,
    /// Rounds to execute: the plan's rounds, or one pass-through round
    /// covering all leaves when no merging is needed (0 or 1 leaf).
    pub rounds: Vec<Vec<PlanNode>>,
    /// Number of partial matrices before merging.
    pub partial_matrices: usize,
    /// The scheduler's estimated total node weight (Figure 8's metric).
    pub estimated_total_weight: u64,
    /// Rows of the result matrix (`a.rows()`): the final write includes
    /// the CSR row-pointer array, `(rows + 1) * 8` bytes.
    pub output_rows: usize,
}

/// Totals accumulated by the execute stage.
#[derive(Debug, Clone, Default)]
pub struct ExecTotals {
    /// Per-category DRAM traffic.
    pub traffic: TrafficCounter,
    /// Raw activity counts (for energy accounting).
    pub activity: ActivityCounts,
    /// Estimated cycles over all rounds.
    pub cycles: u64,
}

impl SpArchSim {
    /// Creates a simulator with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SpArchConfig::validate`]).
    pub fn new(config: SpArchConfig) -> Self {
        config.validate();
        SpArchSim { config }
    }

    /// The simulator's configuration.
    pub fn config(&self) -> &SpArchConfig {
        &self.config
    }

    /// Simulates `C = A × B`.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn run(&self, a: &Csr, b: &Csr) -> SimReport {
        self.run_with_scratch(a, b, &mut SimScratch::new())
    }

    /// Simulates `C = A × B`, reusing `scratch`'s buffers.
    ///
    /// Identical output to [`SpArchSim::run`]; feed one scratch a
    /// sequence of tasks (e.g. a parameter sweep on one worker thread)
    /// and the round hot path stops allocating after the first run.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn run_with_scratch(&self, a: &Csr, b: &Csr, scratch: &mut SimScratch) -> SimReport {
        let plan = self.plan_stage(a, b);
        let prefetch = self.prefetch_stage(&plan, b, scratch);
        let totals = self.execute_stage(&plan, b, scratch);
        self.writeback_stage(a, b, &plan, prefetch, totals, scratch)
    }

    /// **Stage 1 — plan.** Builds the left-matrix view (condensed columns
    /// or original CSC columns), estimates each leaf's multiplied size,
    /// and schedules the merge rounds.
    ///
    /// # Panics
    ///
    /// Panics if `a.cols() != b.rows()`.
    pub fn plan_stage(&self, a: &Csr, b: &Csr) -> SimPlan {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let cfg = &self.config;

        let leaves: Vec<Vec<CondensedElement>> = if cfg.condensing {
            let view = CondensedView::new(a);
            (0..view.num_cols())
                .map(|j| view.col(j).collect())
                .collect()
        } else {
            let csc = a.to_csc();
            (0..a.cols())
                .filter(|&k| csc.col_nnz(k) > 0)
                .map(|k| {
                    let (rows, vals) = csc.col(k);
                    rows.iter()
                        .zip(vals)
                        .map(|(&r, &v)| CondensedElement {
                            row: r,
                            orig_col: k as Index,
                            value: v,
                        })
                        .collect()
                })
                .collect()
        };
        let partial_matrices = leaves.len();

        let leaf_weights: Vec<u64> = leaves
            .iter()
            .map(|col| {
                col.iter()
                    .map(|e| b.row_nnz(e.orig_col as usize) as u64)
                    .sum()
            })
            .collect();
        let merge_plan = MergePlan::build(cfg.scheduler, &leaf_weights, cfg.merge_ways());
        let estimated_total_weight = merge_plan.estimated_total_weight();

        // Rounds to execute: the plan's rounds, or one pass-through round
        // covering all leaves when no merging is needed (0 or 1 leaf).
        let rounds: Vec<Vec<PlanNode>> = if merge_plan.rounds.is_empty() {
            vec![(0..leaves.len()).map(PlanNode::Leaf).collect()]
        } else {
            merge_plan
                .rounds
                .iter()
                .map(|r| r.children.clone())
                .collect()
        };

        SimPlan {
            leaves,
            leaf_weights,
            merge_plan,
            rounds,
            partial_matrices,
            estimated_total_weight,
            output_rows: a.rows(),
        }
    }

    /// **Stage 2 — prefetch.** Replays the whole-task MatB access
    /// sequence (round-robin across each round's fresh columns, Figure
    /// 7's load sequence) through the row prefetcher, leaving exact
    /// per-round DRAM-read accounting in `scratch` for the execute stage.
    pub fn prefetch_stage(
        &self,
        plan: &SimPlan,
        b: &Csr,
        scratch: &mut SimScratch,
    ) -> PrefetchStats {
        let cfg = &self.config;
        scratch.prepare_prefetch(plan.rounds.len());

        // Build the access list round by round, remembering each round's
        // share of it.
        let mut round_access_counts: Vec<usize> = Vec::with_capacity(plan.rounds.len());
        for children in &plan.rounds {
            let mut fresh = 0usize;
            for &child in children {
                if let PlanNode::Leaf(i) = child {
                    if fresh == scratch.round_cols.len() {
                        scratch.round_cols.push(Vec::new());
                    }
                    scratch.round_cols[fresh].clear();
                    scratch.round_cols[fresh].extend_from_slice(&plan.leaves[i]);
                    fresh += 1;
                }
            }
            let before = scratch.accesses.len();
            scratch.accesses.extend(
                crate::fetch::ColumnFetcher::new(&scratch.round_cols[..fresh]).map(|e| e.orig_col),
            );
            round_access_counts.push(scratch.accesses.len() - before);
        }

        let mut prefetcher =
            RowPrefetcher::new(b, &cfg.prefetch, std::mem::take(&mut scratch.accesses));
        for &count in &round_access_counts {
            let misses_before = prefetcher.stats().line_misses;
            let mut bytes = 0u64;
            let mut row_fetches = 0u64;
            for _ in 0..count {
                let access_bytes = prefetcher.access_next();
                bytes += access_bytes;
                if access_bytes > 0 {
                    row_fetches += 1;
                }
            }
            scratch.round_matb.push(RoundMatB {
                bytes,
                row_fetches,
                line_misses: prefetcher.stats().line_misses - misses_before,
            });
        }

        let stats = *prefetcher.stats();
        // Recycle the access list's storage for the next task.
        scratch.accesses = prefetcher.into_accesses();
        stats
    }

    /// **Stage 3 — round-execute.** Runs every merge round: multiplies
    /// the round's fresh columns, merges them with re-fetched partial
    /// results, folds duplicates, and accounts traffic, cycles and
    /// activity. Each round's output is stored in `scratch` as a
    /// row-grouped partial, `sparch_sparse::algo::RowGroup`, which later
    /// rounds read back row by row; the final round's is left there for
    /// the writeback stage. DRAM traffic is charged at the hardware's
    /// 16-byte partial element, whatever the model stores. A leaf's
    /// products are made as the round's row-wise fold consumes them and
    /// never stored; its product count is its [`SimPlan::leaf_weights`]
    /// entry.
    ///
    /// This is the hot path: with a warmed-up `scratch` (same task run
    /// once before) it performs no heap allocation (pinned by
    /// `crates/core/tests/zero_alloc.rs`).
    ///
    /// # Panics
    ///
    /// Panics if [`SpArchSim::prefetch_stage`] did not leave per-round
    /// MatB accounting for this plan in `scratch` (only the round count
    /// is checkable — feeding a *different* plan with the same round
    /// count misattributes MatB traffic), or if the plan references the
    /// same round's output twice.
    pub fn execute_stage(&self, plan: &SimPlan, b: &Csr, scratch: &mut SimScratch) -> ExecTotals {
        let cfg = &self.config;
        let num_rounds = plan.rounds.len();
        assert_eq!(
            scratch.round_matb.len(),
            num_rounds,
            "prefetch stage must run before the execute stage"
        );
        scratch.prepare_execute(num_rounds);

        let cost_params = CostParams {
            bytes_per_cycle: cfg.hbm.bytes_per_cycle(),
            dram_latency: cfg.hbm.access_latency,
            tree_layers: cfg.tree_layers,
            merger_width: cfg.merger_width,
            multipliers: cfg.multipliers,
            lookahead: cfg.prefetch.lookahead,
            buffer_lines: cfg.prefetch.lines,
            fetchers: cfg.prefetch.fetchers,
        };
        let ops_per_element_level = HierarchicalMerger::new(cfg.merger_width, cfg.merger_chunk)
            .comparators() as f64
            / cfg.merger_width as f64;

        let mut totals = ExecTotals::default();
        let SimScratch {
            round_outputs,
            fold,
            cursors,
            round_matb,
            round_consumed,
            ..
        } = scratch;

        for (round_idx, children) in plan.rounds.iter().enumerate() {
            let is_final = round_idx + 1 == num_rounds;
            let mut cost = RoundCost::default();

            // MatB reads for this round's fresh columns, attributed by
            // the prefetch stage's exact per-access accounting.
            let matb = round_matb[round_idx];
            totals.traffic.record(TrafficCategory::MatB, matb.bytes);
            cost.line_misses = matb.line_misses;
            if !cfg.prefetch.enabled {
                cost.unhidden_fetches = matb.row_fetches;
            }

            // Fresh columns stream their products (one per element of
            // each `B` row they select); partial inputs are read back
            // from earlier rounds' outputs.
            let mut partial_read_bytes = 0u64;
            let mut input_elements = 0u64;
            for &child in children {
                match child {
                    PlanNode::Leaf(i) => {
                        let col = &plan.leaves[i];
                        let products = plan.leaf_weights[i];
                        cost.multiplies += products;
                        cost.mat_a_elements += col.len() as u64;
                        input_elements += products;
                        totals
                            .traffic
                            .record(TrafficCategory::MatA, col.len() as u64 * 12);
                        totals.activity.fetcher_elements += col.len() as u64;
                    }
                    PlanNode::Round(r) => {
                        assert!(r < round_idx, "plan consumes only earlier rounds");
                        assert!(!round_consumed[r], "plan consumes each round once");
                        round_consumed[r] = true;
                        let len = round_outputs[r].len() as u64;
                        partial_read_bytes += len * 16;
                        input_elements += len;
                    }
                }
            }
            totals
                .traffic
                .record(TrafficCategory::PartialRead, partial_read_bytes);

            // Fold this round's inputs into its output buffer. The split
            // keeps earlier rounds' outputs readable while the current
            // round's buffer is written.
            let (earlier, rest) = round_outputs.split_at_mut(round_idx);
            let out = &mut rest[0];
            let input = |c| match children[c] {
                PlanNode::Leaf(i) => FoldInput::Leaf(&plan.leaves[i], b),
                PlanNode::Round(r) => FoldInput::Partial(&earlier[r]),
            };
            let emit = |r, c, v| out.push(r, c, v);
            fold_round(children.len(), input, b.cols(), fold, cursors, emit);
            // Every input element is a coordinate's first or one addition.
            let adds = input_elements - out.len() as u64;

            let out_bytes = if is_final {
                out.len() as u64 * 12 + (plan.output_rows as u64 + 1) * 8
            } else {
                out.len() as u64 * 16
            };
            totals.traffic.record(
                if is_final {
                    TrafficCategory::FinalWrite
                } else {
                    TrafficCategory::PartialWrite
                },
                out_bytes,
            );

            // Cycle estimate for the round.
            cost.input_elements = input_elements;
            cost.output_elements = out.len() as u64;
            cost.dram_bytes =
                cost.mat_a_elements * 12 + matb.bytes + partial_read_bytes + out_bytes;
            totals.cycles += cost_params.round_cycles(&cost);

            // Activity accounting: each element crosses one merger level
            // per doubling of the round's fan-in.
            let levels = (children.len().max(2) as f64).log2().ceil() as u64;
            totals.activity.multiplies += cost.multiplies;
            totals.activity.adds += adds;
            totals.activity.merge_tree_elements += input_elements * levels;
            totals.activity.comparator_ops +=
                (input_elements as f64 * levels as f64 * ops_per_element_level) as u64;
            totals.activity.writer_elements += out.len() as u64;
        }

        totals
    }

    /// **Stage 4 — writeback.** Assembles the result matrix from the
    /// final round's rows and closes the books: prefetcher activity,
    /// timing summary, energy and area.
    pub fn writeback_stage(
        &self,
        a: &Csr,
        b: &Csr,
        plan: &SimPlan,
        prefetch: PrefetchStats,
        mut totals: ExecTotals,
        scratch: &SimScratch,
    ) -> SimReport {
        let cfg = &self.config;
        let root = &scratch.round_outputs[plan.rounds.len() - 1];

        let mut builder = CsrBuilder::with_capacity(a.rows(), b.cols(), root.len());
        let mut at = 0;
        while let Some(row) = root.head(at) {
            root.feed(&mut at, |c, v| builder.push(row, c, v));
        }
        let result = builder.finish();

        totals.activity.buffer_bytes = prefetch.buffer_read_bytes + prefetch.buffer_write_bytes;
        totals.activity.dram_read_bytes = totals.traffic.read_bytes();
        totals.activity.dram_write_bytes = totals.traffic.write_bytes();

        let multiplies = totals.activity.multiplies;
        let flops = 2 * multiplies;
        let seconds = totals.cycles as f64 / cfg.hbm.clock_hz;
        let busy_cycles =
            (totals.traffic.total_bytes() as f64 / cfg.hbm.bytes_per_cycle()).ceil() as u64;
        let perf = PerfSummary {
            cycles: totals.cycles,
            seconds,
            gflops: if seconds > 0.0 {
                flops as f64 / seconds / 1e9
            } else {
                0.0
            },
            multiplies,
            flops,
            output_nnz: result.nnz() as u64,
            rounds: plan.rounds.len(),
            bandwidth_utilization: if totals.cycles > 0 {
                (busy_cycles as f64 / totals.cycles as f64).min(1.0)
            } else {
                0.0
            },
        };

        let energy = cfg.energy.estimate(&totals.activity);
        let area = AreaModel {
            lookahead_elements: cfg.prefetch.lookahead,
            buffer_bytes: cfg.prefetch.capacity_bytes() as usize,
            multipliers: cfg.multipliers,
            tree_layers: cfg.tree_layers,
            merger_width: cfg.merger_width,
            writer_elements: cfg.writer_fifo,
        }
        .estimate();

        SimReport::new(
            result,
            totals.traffic,
            perf,
            prefetch,
            totals.activity,
            energy,
            area,
            plan.partial_matrices,
            plan.estimated_total_weight,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use sparch_sparse::{algo, gen, Dense};

    fn check_exact(a: &Csr, b: &Csr, config: SpArchConfig) -> SimReport {
        let report = SpArchSim::new(config).run(a, b);
        let reference = algo::gustavson(a, b);
        assert!(
            report.result().approx_eq(&reference, 1e-9),
            "simulated result differs from software reference"
        );
        report
    }

    #[test]
    fn exact_result_on_random_square() {
        let a = gen::uniform_random(120, 120, 700, 1);
        let b = gen::uniform_random(120, 120, 700, 2);
        let report = check_exact(&a, &b, SpArchConfig::default());
        assert!(report.perf.cycles > 0);
        assert!(report.perf.gflops > 0.0);
        assert_eq!(report.perf.multiplies, algo::multiply_flops(&a, &b));
    }

    #[test]
    fn exact_result_on_rectangular() {
        let a = gen::uniform_random(60, 90, 400, 3);
        let b = gen::uniform_random(90, 40, 350, 4);
        check_exact(&a, &b, SpArchConfig::default());
    }

    #[test]
    fn exact_result_on_powerlaw_squared() {
        let a = gen::rmat_graph500(256, 8, 5);
        check_exact(&a, &a, SpArchConfig::default());
    }

    #[test]
    fn exact_under_all_ablations() {
        let a = gen::rmat_graph500(128, 6, 6);
        let b = gen::rmat_graph500(128, 6, 7);
        for (name, config) in SpArchConfig::ablation_ladder() {
            let report = SpArchSim::new(config).run(&a, &b);
            let reference = algo::gustavson(&a, &b);
            assert!(
                report.result().approx_eq(&reference, 1e-9),
                "ablation '{name}' produced a wrong result"
            );
        }
    }

    #[test]
    fn multi_round_schedule_still_exact() {
        // Tiny tree (2 layers = 4 ways) forces many rounds.
        let a = gen::uniform_random(100, 100, 1500, 8);
        let config = SpArchConfig::default().with_tree_layers(2);
        let report = check_exact(&a, &a, config);
        assert!(report.perf.rounds > 3, "expected multiple rounds");
        assert!(
            report.traffic.partial_bytes() > 0,
            "multi-round merging must spill partials"
        );
    }

    #[test]
    fn single_round_spills_nothing() {
        // Few condensed columns fit the 64-way tree in one round.
        let a = gen::uniform_random(200, 200, 1200, 9);
        let report = check_exact(&a, &a, SpArchConfig::default());
        assert_eq!(report.perf.rounds, 1);
        assert_eq!(report.traffic.partial_bytes(), 0);
    }

    #[test]
    fn condensing_reduces_partial_matrices() {
        let a = gen::uniform_random(300, 300, 1800, 10);
        let with = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
        let without = SpArchSim::new(SpArchConfig::default().without_condensing()).run(&a, &a);
        assert!(
            with.partial_matrices * 10 < without.partial_matrices,
            "{} vs {}",
            with.partial_matrices,
            without.partial_matrices
        );
        assert!(with.traffic.total_bytes() < without.traffic.total_bytes());
    }

    #[test]
    fn huffman_beats_random_on_traffic() {
        let a = gen::rmat_graph500(512, 8, 11);
        let base = SpArchConfig::default()
            .with_tree_layers(3)
            .without_prefetcher();
        let huffman = SpArchSim::new(base.clone()).run(&a, &a);
        let random = SpArchSim::new(base.with_scheduler(SchedulerKind::Random(5))).run(&a, &a);
        assert!(
            huffman.traffic.partial_bytes() <= random.traffic.partial_bytes(),
            "huffman {} vs random {}",
            huffman.traffic.partial_bytes(),
            random.traffic.partial_bytes()
        );
    }

    #[test]
    fn prefetcher_reduces_mat_b_traffic() {
        let a = gen::rmat_graph500(512, 8, 12);
        let with = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
        let without = SpArchSim::new(SpArchConfig::default().without_prefetcher()).run(&a, &a);
        let b_with = with.traffic.bytes(TrafficCategory::MatB);
        let b_without = without.traffic.bytes(TrafficCategory::MatB);
        assert!(
            b_with < b_without,
            "prefetcher must reduce B reads: {b_with} vs {b_without}"
        );
        assert!(with.prefetch.hit_rate() > 0.0);
    }

    #[test]
    fn identity_product() {
        let i = Csr::identity(50);
        let report = check_exact(&i, &i, SpArchConfig::default());
        assert_eq!(report.result().nnz(), 50);
        assert_eq!(
            report.partial_matrices, 1,
            "identity condenses to one column"
        );
    }

    #[test]
    fn empty_matrix_product() {
        let a = Csr::zero(10, 10);
        let report = SpArchSim::new(SpArchConfig::default()).run(&a, &a);
        assert_eq!(report.result().nnz(), 0);
        assert_eq!(report.perf.multiplies, 0);
    }

    #[test]
    fn known_small_product() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).to_csr();
        let b = Dense::from_rows(&[&[0.0, 4.0], &[5.0, 0.0]]).to_csr();
        let report = SpArchSim::new(SpArchConfig::default()).run(&a, &b);
        assert_eq!(
            report.result().to_dense(),
            Dense::from_rows(&[&[10.0, 4.0], &[15.0, 0.0]])
        );
    }

    #[test]
    fn traffic_categories_are_consistent() {
        let a = gen::uniform_random(150, 150, 900, 13);
        let report = SpArchSim::new(SpArchConfig::default().with_tree_layers(2)).run(&a, &a);
        let t = &report.traffic;
        // A is read exactly once: nnz * 12 bytes.
        assert_eq!(t.bytes(TrafficCategory::MatA), a.nnz() as u64 * 12);
        // Partial writes equal partial reads (every spill is re-read once).
        assert_eq!(
            t.bytes(TrafficCategory::PartialWrite),
            t.bytes(TrafficCategory::PartialRead)
        );
        // Final write covers the result.
        assert!(t.bytes(TrafficCategory::FinalWrite) >= report.perf.output_nnz * 12);
        // Energy components respond to the activity.
        assert!(report.energy_total() > 0.0);
        assert!(report.perf.bandwidth_utilization > 0.0);
        assert!(report.perf.bandwidth_utilization <= 1.0);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_across_tasks() {
        // One scratch fed a sequence of different tasks must produce the
        // same reports as fresh runs, including multi-round schedules.
        let mut scratch = SimScratch::new();
        let sim = SpArchSim::new(SpArchConfig::default().with_tree_layers(2));
        for seed in 0..4u64 {
            let a = gen::uniform_random(90, 90, 1200, seed);
            let fresh = sim.run(&a, &a);
            let reused = sim.run_with_scratch(&a, &a, &mut scratch);
            assert_eq!(fresh.result(), reused.result(), "seed {seed}");
            assert_eq!(fresh.traffic, reused.traffic, "seed {seed}");
            assert_eq!(fresh.perf, reused.perf, "seed {seed}");
            assert_eq!(fresh.prefetch, reused.prefetch, "seed {seed}");
        }
    }

    #[test]
    fn stages_compose_into_run() {
        let a = gen::rmat_graph500(128, 6, 21);
        let sim = SpArchSim::new(SpArchConfig::default().with_tree_layers(3));
        let mut scratch = SimScratch::new();
        let plan = sim.plan_stage(&a, &a);
        assert_eq!(plan.partial_matrices, plan.leaves.len());
        let prefetch = sim.prefetch_stage(&plan, &a, &mut scratch);
        let totals = sim.execute_stage(&plan, &a, &mut scratch);
        assert!(totals.cycles > 0);
        let report = sim.writeback_stage(&a, &a, &plan, prefetch, totals, &scratch);
        let direct = sim.run(&a, &a);
        assert_eq!(report.result(), direct.result());
        assert_eq!(report.perf, direct.perf);
        assert_eq!(report.traffic, direct.traffic);
    }

    #[test]
    #[should_panic(expected = "prefetch stage must run")]
    fn execute_requires_prefetch_accounting() {
        let a = gen::uniform_random(40, 40, 200, 3);
        let sim = SpArchSim::new(SpArchConfig::default());
        let plan = sim.plan_stage(&a, &a);
        let mut scratch = SimScratch::new();
        let _ = sim.execute_stage(&plan, &a, &mut scratch);
    }
}
