//! The deterministic knob planner: from operand structure and a memory
//! budget to a full [`StreamConfig`].
//!
//! The paper's fig17 design-space sweep shows that the right merge fan-in
//! and partition granularity are a function of the matrix; this module is
//! the closed-form version of that sweep. Given `A`'s column-nnz
//! histogram (one stats API for in-memory and on-disk operands — see
//! [`OperandStats`]), `B`'s row fill, and the [`MemoryBudget`], the
//! planner projects every candidate configuration's partial sizes and
//! merge traffic through the two steps every executor's plan is built
//! from ([`plan::split`] for the panel ranges, [`plan::schedule`]'s
//! internal-node weight — over projected flops — for merge traffic) and
//! picks the cheapest — no timing anywhere, so a plan is a pure function
//! of matrix structure and the planned run stays bit-identical to any
//! other configuration.

use serde::{Deserialize, Serialize};
use sparch_sparse::{mm, Csr, SparseError};
use sparch_stream::{plan, MemoryBudget, PanelBalance, SpillCodec, StreamConfig};
use std::path::Path;

/// Structural statistics of one operand, as consumed by the planner:
/// shape, entry count, and the per-column non-zero histogram the
/// nnz-balanced panel splitter works from.
///
/// The two constructors are the "one stats API" for both operand homes:
/// [`OperandStats::from_csr`] reads an in-memory matrix
/// ([`Csr::col_nnz`]), [`OperandStats::scan_file`] streams a Matrix
/// Market file ([`mm::scan_col_nnz`]) without materializing it. The
/// parity test in `tests/stats_parity.rs` pins that both paths produce
/// the same histogram for the same matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperandStats {
    /// Number of rows.
    pub rows: usize,
    /// Number of columns.
    pub cols: usize,
    /// Stored entries.
    pub nnz: u64,
    /// Non-zeros per column (`cols` entries).
    pub col_nnz: Vec<usize>,
}

impl OperandStats {
    /// Stats of an in-memory matrix. `O(nnz)` for the histogram pass.
    pub fn from_csr(m: &Csr) -> Self {
        OperandStats {
            rows: m.rows(),
            cols: m.cols(),
            nnz: m.nnz() as u64,
            col_nnz: m.col_nnz(),
        }
    }

    /// Stats of an on-disk Matrix Market file, via one streaming
    /// histogram pass — the operand is never materialized. `nnz` counts
    /// stored entries after symmetry expansion (the histogram's total,
    /// not the header's declared count), so a `symmetric` file reports
    /// what [`OperandStats::from_csr`] reports for the matrix it holds.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError`] if the file cannot be read or parsed.
    pub fn scan_file<P: AsRef<Path>>(path: P) -> Result<Self, SparseError> {
        let rows = mm::read_panels(&path, 1)?.rows();
        let col_nnz = mm::scan_col_nnz(&path)?;
        Ok(OperandStats {
            rows,
            cols: col_nnz.len(),
            nnz: col_nnz.iter().map(|&n| n as u64).sum(),
            col_nnz,
        })
    }

    /// Column skew: the heaviest column's non-zeros over the mean
    /// (counting empty columns), `1.0` for empty or uniform matrices.
    /// This is what decides [`PanelBalance::Nnz`] vs `Uniform` on a
    /// multi-threaded plan — a skewed histogram concentrates
    /// partial-product mass in a few uniform panels, so the nnz-balanced
    /// splitter pays for itself once there are workers to balance.
    pub fn col_skew(&self) -> f64 {
        let max = self.col_nnz.iter().copied().max().unwrap_or(0);
        if max == 0 || self.cols == 0 {
            return 1.0;
        }
        max as f64 * self.cols as f64 / self.nnz.max(1) as f64
    }
}

/// `B`'s row fill, as the planner consumes it: either the exact
/// per-row histogram (in-memory operands) or the average fill
/// (streamed operands, where only the declared entry count is known
/// without a second file scan).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BRows<'a> {
    /// Exact non-zeros per row of `B` (`inner_dim` entries).
    Histogram(&'a [usize]),
    /// Only `B`'s total entry count is known; every row is assumed to
    /// carry the average fill.
    Average {
        /// Stored entries of `B`.
        nnz: u64,
    },
}

/// Non-zeros per row of a CSR matrix — the histogram to pass as
/// [`BRows::Histogram`] for an in-memory right operand. `O(rows)`.
pub fn row_nnz_histogram(m: &Csr) -> Vec<usize> {
    m.row_ptr().windows(2).map(|w| w[1] - w[0]).collect()
}

/// The planner's output: the derived [`StreamConfig`] plus the
/// projections it was chosen from, so callers (and the property tests)
/// can audit the decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    /// The derived configuration: budget, panel count and balance, merge
    /// fan-in, spill codec. `threads` is pinned to the planner's thread
    /// count; `spill_dir` is left at its default for the caller to
    /// override.
    pub config: StreamConfig,
    /// Projected bytes of each panel's partial matrix (flops upper
    /// bound × 12 B per entry + the row-pointer array), largest first
    /// panel order preserved.
    pub projected_partial_bytes: Vec<u64>,
    /// The largest entry of [`Plan::projected_partial_bytes`].
    pub projected_largest_partial_bytes: u64,
    /// Sum of [`Plan::projected_partial_bytes`].
    pub projected_total_partial_bytes: u64,
    /// The Huffman plan's internal-node weight (elements) for the chosen
    /// configuration — the paper's proxy for partial-result traffic.
    pub projected_merge_weight: u64,
    /// Projected spilled bytes: the pre-root merge traffic when the
    /// partials do not all fit in the budget, `0` when they do.
    pub projected_spill_bytes: u64,
    /// `A`'s column skew ([`OperandStats::col_skew`]).
    pub col_skew: f64,
    /// Whether the ROADMAP budget formula was achievable: the chosen
    /// split keeps the largest projected partial within
    /// `budget / merge_ways`. When even the finest split cannot (a hub
    /// column alone overflows, or the budget is zero), the planner falls
    /// back to the cheapest projected configuration and reports `false`.
    pub budget_satisfied: bool,
}

impl Plan {
    /// The planned data knobs (budget, panels, balance, fan-in, codec)
    /// laid over `base`'s execution knobs — thread count and spill
    /// directory stay the caller's.
    pub fn config_over(&self, base: &StreamConfig) -> StreamConfig {
        StreamConfig {
            threads: base.threads,
            spill_dir: base.spill_dir.clone(),
            ..self.config.clone()
        }
    }
}

/// Derives a full [`StreamConfig`] from operand statistics and a memory
/// budget — the ROADMAP formula ("pick panel count from the memory
/// budget and the `scan_col_nnz` histogram, so the largest partial ≈
/// budget / merge_ways") plus a projected-cost argmin over merge fan-ins.
///
/// Deterministic by construction: the projection uses flops upper bounds
/// and the Huffman plan's weight estimates, never timing, so the same
/// stats and budget always produce the same plan. And because every
/// streaming-pipeline invariant holds at *any* knob setting, a planned
/// run is bit-identical to any fixed configuration — tuning moves
/// timing, never bits.
#[derive(Debug, Clone, PartialEq)]
pub struct KnobPlanner {
    budget: MemoryBudget,
    threads: usize,
    max_panels: usize,
    skew_threshold: f64,
}

/// Merge fan-ins the planner prices. Capped at 16: the snapshot-scale
/// partial counts never reward the paper's full 64-way tree, and a
/// smaller fan-in keeps merge rounds fine-grained for the worker pool.
const WAYS_CANDIDATES: [usize; 4] = [2, 4, 8, 16];

impl KnobPlanner {
    /// A planner for the given budget, single-threaded, with the default
    /// panel cap (256) and skew threshold (2.0).
    pub fn new(budget: MemoryBudget) -> Self {
        KnobPlanner {
            budget,
            threads: 1,
            max_panels: 256,
            skew_threshold: 2.0,
        }
    }

    /// Sets the multiply-stage thread count the plan targets: the panel
    /// count never drops below it (each worker gets work) and the
    /// derived config pins `threads` to it.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The budget the planner plans against.
    pub fn budget(&self) -> MemoryBudget {
        self.budget
    }

    /// Plans a configuration for `A × B` from `A`'s stats and `B`'s row
    /// fill.
    ///
    /// For each candidate fan-in, the panel count is the smallest that
    /// keeps the largest projected partial within `budget / ways`
    /// (falling back to a projected-cost argmin over a panel grid when no
    /// count can); candidates are then priced as
    /// `12·huffman_internal_weight + row_ptr_bytes·panels +
    /// 2·projected_spill_bytes` and the cheapest wins, ties breaking
    /// toward the smaller fan-in. Balance comes from `A`'s column skew
    /// when the multiply runs multi-threaded (uniform otherwise), codec
    /// from whether the projection spills at all.
    pub fn plan(&self, a: &OperandStats, b: &BRows<'_>) -> Plan {
        let inner = a.cols;
        let weights = inner_flops(a, b);
        let skew = a.col_skew();
        // Nnz balancing exists to equalize worker shares; on one thread
        // it only warps panel boundaries, so uniform contiguous ranges
        // (cheaper splits, better locality) win regardless of skew.
        let balance = if self.threads > 1 && skew > self.skew_threshold {
            PanelBalance::Nnz
        } else {
            PanelBalance::Uniform
        };
        let row_ptr_bytes = (a.rows as u64 + 1) * 8;
        let cap = inner.max(1).min(self.max_panels.max(1));
        // At least two panels whenever the matrix allows: one monolithic
        // partial forfeits the streaming pipeline structure entirely (no
        // merge plan, one giant spill), and the per-panel overhead of a
        // second panel is noise next to that.
        let floor = self.threads.max(2).clamp(1, cap);
        let budget = self.budget.bytes();

        let mut best: Option<(u128, bool, Candidate)> = None;
        for ways in WAYS_CANDIDATES {
            let (candidate, satisfied) = self.panels_for(
                ways,
                floor,
                cap,
                budget,
                row_ptr_bytes,
                balance,
                a,
                &weights,
            );
            let cost = candidate.projected_cost(row_ptr_bytes);
            // A candidate that honors the budget formula always outranks
            // one that does not; within a tier the cheapest projection
            // wins, ties breaking toward the earlier (smaller) fan-in.
            let better = match &best {
                None => true,
                Some((best_cost, best_sat, _)) => {
                    (!best_sat && satisfied) || (satisfied == *best_sat && cost < *best_cost)
                }
            };
            if better {
                best = Some((cost, satisfied, candidate));
            }
        }
        let (_, satisfied, chosen) = best.expect("WAYS_CANDIDATES is non-empty");

        let spills = chosen.total_bytes > budget;
        let config = StreamConfig {
            budget: self.budget,
            panels: chosen.panels,
            balance,
            merge_ways: chosen.ways,
            spill_codec: if spills {
                SpillCodec::Varint
            } else {
                SpillCodec::Raw
            },
            threads: Some(self.threads),
            ..StreamConfig::default()
        };
        Plan {
            config,
            projected_largest_partial_bytes: chosen.largest_bytes,
            projected_total_partial_bytes: chosen.total_bytes,
            projected_merge_weight: chosen.merge_weight,
            projected_spill_bytes: chosen.spill_bytes,
            projected_partial_bytes: chosen.partial_bytes,
            col_skew: skew,
            budget_satisfied: satisfied,
        }
    }

    /// For one fan-in: the smallest panel count whose largest projected
    /// partial fits `budget / ways`, or — when none does — the panel
    /// count with the cheapest projection (ties toward the smaller
    /// largest partial).
    #[allow(clippy::too_many_arguments)]
    fn panels_for(
        &self,
        ways: usize,
        floor: usize,
        cap: usize,
        budget: u64,
        row_ptr_bytes: u64,
        balance: PanelBalance,
        a: &OperandStats,
        weights: &[u64],
    ) -> (Candidate, bool) {
        let mut fallback: Option<(u128, u64, Candidate)> = None;
        for panels in floor..=cap {
            let candidate =
                Candidate::project(panels, ways, balance, a, weights, row_ptr_bytes, budget);
            if candidate.largest_bytes.saturating_mul(ways as u64) <= budget {
                return (candidate, true);
            }
            // No count may fit at all (a hub column alone can overflow
            // `budget / ways`, and a near-zero budget fits nothing).
            // Residency is then off the table — the store spills the
            // overflow whatever the split — so splitting finer only adds
            // per-panel overhead: fall back to the cheapest projection
            // (spill round-trips are already priced into the cost).
            let cost = candidate.projected_cost(row_ptr_bytes);
            if fallback
                .as_ref()
                .is_none_or(|(c, l, _)| (cost, candidate.largest_bytes) < (*c, *l))
            {
                fallback = Some((cost, candidate.largest_bytes, candidate));
            }
        }
        let (_, _, fallback) = fallback.expect("floor..=cap is non-empty");
        (fallback, false)
    }
}

/// Per-inner-column multiply work: `a_col_nnz[k] * b_row_nnz[k]` — the
/// flops (and the partial-entry upper bound) column `k` contributes.
fn inner_flops(a: &OperandStats, b: &BRows<'_>) -> Vec<u64> {
    match b {
        BRows::Histogram(rows) => {
            debug_assert_eq!(
                rows.len(),
                a.cols,
                "B row histogram must span the inner dim"
            );
            a.col_nnz
                .iter()
                .zip(rows.iter())
                .map(|(&ac, &br)| ac as u64 * br as u64)
                .collect()
        }
        BRows::Average { nnz } => {
            let avg = *nnz as f64 / a.cols.max(1) as f64;
            a.col_nnz
                .iter()
                .map(|&ac| {
                    if ac == 0 {
                        0
                    } else {
                        ((ac as f64 * avg).round() as u64).max(1)
                    }
                })
                .collect()
        }
    }
}

/// One priced (panels, ways) point.
struct Candidate {
    panels: usize,
    ways: usize,
    partial_bytes: Vec<u64>,
    largest_bytes: u64,
    total_bytes: u64,
    merge_weight: u64,
    spill_bytes: u64,
}

impl Candidate {
    /// Projects partial sizes and merge traffic for one configuration:
    /// the executor's own split, and the executor's scheduler over the
    /// panels' projected flops (every panel, empty ones included).
    fn project(
        panels: usize,
        ways: usize,
        balance: PanelBalance,
        a: &OperandStats,
        weights: &[u64],
        row_ptr_bytes: u64,
        budget: u64,
    ) -> Candidate {
        let ranges = plan::split(&a.col_nnz, panels, balance);
        let panel_flops: Vec<u64> = ranges
            .iter()
            .map(|r| weights[r.clone()].iter().sum::<u64>())
            .collect();
        let partial_bytes: Vec<u64> = panel_flops
            .iter()
            .map(|&f| f * 12 + row_ptr_bytes)
            .collect();
        let largest_bytes = partial_bytes.iter().copied().max().unwrap_or(row_ptr_bytes);
        let total_bytes = partial_bytes.iter().sum();
        let ways = ways.clamp(2, ranges.len().max(2));
        let plan = plan::schedule(&panel_flops, ways);
        let merge_weight = plan.estimated_internal_weight();
        // When everything fits in the budget nothing round-trips disk;
        // otherwise the overflow itself must leave RAM at least once and
        // the pre-root merge traffic round-trips on top of it.
        let spill_bytes = if total_bytes > budget {
            (total_bytes - budget) + plan.estimated_spill_weight() * 12
        } else {
            0
        };
        Candidate {
            panels: ranges.len(),
            ways,
            partial_bytes,
            largest_bytes,
            total_bytes,
            merge_weight,
            spill_bytes,
        }
    }

    /// Projected traffic in bytes: merged elements (12 B each), one
    /// row-pointer array per partial, and spilled bytes paying the
    /// write + read round-trip.
    fn projected_cost(&self, row_ptr_bytes: u64) -> u128 {
        self.merge_weight as u128 * 12
            + row_ptr_bytes as u128 * self.panels as u128
            + self.spill_bytes as u128 * 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_sparse::gen;

    fn stats(seed: u64) -> OperandStats {
        OperandStats::from_csr(&gen::rmat_graph500(128, 6, seed))
    }

    #[test]
    fn stats_from_csr_match_manual_histogram() {
        let m = gen::uniform_random(40, 56, 300, 3);
        let s = OperandStats::from_csr(&m);
        assert_eq!(s.rows, 40);
        assert_eq!(s.cols, 56);
        assert_eq!(s.nnz, m.nnz() as u64);
        assert_eq!(s.col_nnz, m.col_nnz());
        assert_eq!(s.col_nnz.iter().sum::<usize>() as u64, s.nnz);
    }

    #[test]
    fn skew_separates_uniform_from_powerlaw() {
        let banded = OperandStats::from_csr(&gen::banded(256, 2, 0, 1));
        let rmat = stats(7);
        assert!(banded.col_skew() < 2.0, "banded skew {}", banded.col_skew());
        assert!(rmat.col_skew() > 2.0, "rmat skew {}", rmat.col_skew());
        let empty = OperandStats {
            rows: 4,
            cols: 4,
            nnz: 0,
            col_nnz: vec![0; 4],
        };
        assert_eq!(empty.col_skew(), 1.0);
    }

    #[test]
    fn plan_is_deterministic() {
        let a = stats(3);
        let b = gen::rmat_graph500(128, 6, 3);
        let rows = row_nnz_histogram(&b);
        let planner = KnobPlanner::new(MemoryBudget::from_kb(32)).with_threads(2);
        let p1 = planner.plan(&a, &BRows::Histogram(&rows));
        let p2 = planner.plan(&a, &BRows::Histogram(&rows));
        assert_eq!(p1, p2);
    }

    #[test]
    fn unbounded_budget_never_spills_and_stays_coarse() {
        let a = stats(5);
        let plan = KnobPlanner::new(MemoryBudget::unbounded())
            .with_threads(2)
            .plan(&a, &BRows::Average { nnz: a.nnz });
        assert!(plan.budget_satisfied);
        assert_eq!(plan.projected_spill_bytes, 0);
        assert_eq!(plan.config.spill_codec, SpillCodec::Raw);
        // Everything fits at the parallelism floor.
        assert_eq!(plan.config.panels, 2);
    }

    #[test]
    fn tight_budget_drives_panels_up() {
        // Uniform column mass: the budget formula is achievable, so the
        // planner must split finer until the working set fits.
        let m = gen::banded(256, 2, 0, 1);
        let a = OperandStats::from_csr(&m);
        let rows = row_nnz_histogram(&m);
        let loose = KnobPlanner::new(MemoryBudget::unbounded()).plan(&a, &BRows::Histogram(&rows));
        let total = loose.projected_total_partial_bytes;
        let tight = KnobPlanner::new(MemoryBudget::from_bytes(total / 4))
            .plan(&a, &BRows::Histogram(&rows));
        assert!(tight.budget_satisfied);
        assert!(
            tight.config.panels > loose.config.panels,
            "tight {} !> loose {}",
            tight.config.panels,
            loose.config.panels
        );
        assert!(
            tight.projected_largest_partial_bytes * tight.config.merge_ways as u64 <= total / 4
        );
        assert_eq!(tight.config.spill_codec, SpillCodec::Varint);
        assert!(tight.projected_spill_bytes > 0);
    }

    #[test]
    fn unachievable_budget_falls_back_to_the_cheapest_projection() {
        // A hub-dominated matrix under a tiny (but non-zero) budget: no
        // split fits, residency is impossible, and the fallback must not
        // burn panel overhead chasing it — the projected-cost argmin
        // stays coarse.
        let a = stats(5);
        let plan =
            KnobPlanner::new(MemoryBudget::from_bytes(64)).plan(&a, &BRows::Average { nnz: a.nnz });
        assert!(!plan.budget_satisfied);
        assert!(
            plan.config.panels <= 4,
            "fallback split finer than the projection justifies: {} panels",
            plan.config.panels
        );
        assert_eq!(plan.config.spill_codec, SpillCodec::Varint);
    }

    #[test]
    fn zero_budget_falls_back_without_satisfying() {
        let a = stats(9);
        let plan =
            KnobPlanner::new(MemoryBudget::from_bytes(0)).plan(&a, &BRows::Average { nnz: a.nnz });
        assert!(!plan.budget_satisfied);
        assert!(plan.config.panels >= 1);
        assert!(plan.config.merge_ways >= 2);
    }

    #[test]
    fn skewed_matrices_get_nnz_balance_once_there_are_workers() {
        let rmat = stats(11);
        let plan = KnobPlanner::new(MemoryBudget::from_kb(64))
            .with_threads(2)
            .plan(&rmat, &BRows::Average { nnz: rmat.nnz });
        assert_eq!(plan.config.balance, PanelBalance::Nnz);
        // Single-threaded there is nothing to balance: uniform ranges
        // win on split cost and locality even under heavy skew.
        let plan = KnobPlanner::new(MemoryBudget::from_kb(64))
            .plan(&rmat, &BRows::Average { nnz: rmat.nnz });
        assert_eq!(plan.config.balance, PanelBalance::Uniform);
        let banded = OperandStats::from_csr(&gen::banded(256, 2, 0, 1));
        let plan = KnobPlanner::new(MemoryBudget::from_kb(64))
            .with_threads(2)
            .plan(&banded, &BRows::Average { nnz: banded.nnz });
        assert_eq!(plan.config.balance, PanelBalance::Uniform);
    }

    #[test]
    fn threads_floor_the_panel_count() {
        let a = stats(13);
        for threads in [1usize, 2, 4, 8] {
            let plan = KnobPlanner::new(MemoryBudget::unbounded())
                .with_threads(threads)
                .plan(&a, &BRows::Average { nnz: a.nnz });
            assert!(plan.config.panels >= threads.min(a.cols));
            assert_eq!(plan.config.threads, Some(threads));
        }
    }

    #[test]
    fn plan_serializes() {
        let a = stats(1);
        let plan =
            KnobPlanner::new(MemoryBudget::from_kb(16)).plan(&a, &BRows::Average { nnz: a.nnz });
        let json = serde_json::to_string(&plan).unwrap();
        let back: Plan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
