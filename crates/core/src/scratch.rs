//! Reusable simulation buffers: the zero-allocation round hot path.
//!
//! [`SpArchSim::run`](crate::SpArchSim::run) allocates fresh partial
//! buffers for every round of every task. That is fine for a single run,
//! but the paper's evaluation sweeps hundreds of independent simulations
//! (20 suite matrices × ablations × design-space points), and a sharded
//! sweep wants each worker to pay the allocator once, not per round.
//!
//! [`SimScratch`] owns every buffer the round-execute stage touches:
//!
//! * the per-round merged outputs (partial results, each a
//!   [`RowGroup`]: occupied rows plus a column and a value array, 12 bytes
//!   per entry),
//! * the row-wise fold's accumulator (a `-0.0`-filled value array, one
//!   slot per output column, a two-level occupancy bitmap and a short-row
//!   sort buffer), its winner tree and the per-input cursors,
//! * the prefetch stage's access lists and per-round MatB accounting.
//!
//! Leaf products are never materialised: the fold multiplies each leaf's
//! elements by their `B` rows as it consumes them.
//!
//! Round outputs are indexed by round id, so re-running the **same** task
//! refills each buffer to exactly its previous size: after one warm-up
//! run the execute stage performs no heap allocation at all (pinned by
//! `crates/core/tests/zero_alloc.rs`). Across *different* tasks the
//! buffers simply grow to the high-water mark and stay there.

use crate::condense::CondensedElement;
use sparch_sparse::algo::{FoldScratch, RowGroup};

/// Per-round MatB accounting produced by the prefetch stage and consumed
/// by the execute stage.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RoundMatB {
    /// Bytes fetched from DRAM for this round's row accesses.
    pub bytes: u64,
    /// Row accesses that actually touched DRAM.
    pub row_fetches: u64,
    /// Buffer-line misses attributed to this round.
    pub line_misses: u64,
}

/// Reusable buffers for [`SpArchSim::run_with_scratch`](crate::SpArchSim::run_with_scratch).
///
/// A scratch is plain state — create one per worker thread and feed it
/// every simulation that worker runs:
///
/// ```
/// use sparch_core::{SimScratch, SpArchConfig, SpArchSim};
/// use sparch_sparse::gen;
///
/// let sim = SpArchSim::new(SpArchConfig::default());
/// let mut scratch = SimScratch::new();
/// for seed in 0..3 {
///     let a = gen::uniform_random(64, 64, 300, seed);
///     let report = sim.run_with_scratch(&a, &a, &mut scratch);
///     assert_eq!(report.result().rows(), 64);
/// }
/// ```
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Merged output of round `r` (index = round id; the last round's
    /// entry is the final result, whose rows the writeback stage reads).
    pub(crate) round_outputs: Vec<RowGroup>,
    /// The row-wise fold every round runs through.
    pub(crate) fold: FoldScratch,
    /// The fold's per-input positions.
    pub(crate) cursors: Vec<usize>,
    /// Guard: which round outputs have been consumed by a later round
    /// (every spill is read back exactly once; a malformed plan that
    /// references a round twice must fail loudly, not double-merge).
    pub(crate) round_consumed: Vec<bool>,
    /// Prefetch stage: the whole-task MatB row-access list.
    pub(crate) accesses: Vec<u32>,
    /// Prefetch stage: staging area for one round's fresh columns (the
    /// column fetcher wants them contiguous).
    pub(crate) round_cols: Vec<Vec<CondensedElement>>,
    /// Prefetch stage: per-round MatB accounting.
    pub(crate) round_matb: Vec<RoundMatB>,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        SimScratch::default()
    }

    /// Prepares the prefetch-stage buffers for a task with `num_rounds`
    /// rounds.
    pub(crate) fn prepare_prefetch(&mut self, num_rounds: usize) {
        self.accesses.clear();
        self.round_matb.clear();
        self.round_matb.reserve(num_rounds);
        for v in self.round_cols.iter_mut() {
            v.clear();
        }
    }

    /// Prepares the execute-stage buffers for a task with `num_rounds`
    /// rounds: every round output is emptied and kept, those beyond
    /// `num_rounds` too, for later tasks.
    pub(crate) fn prepare_execute(&mut self, num_rounds: usize) {
        self.round_outputs.iter_mut().for_each(RowGroup::clear);
        if self.round_outputs.len() < num_rounds {
            self.round_outputs
                .resize_with(num_rounds, RowGroup::default);
        }
        self.round_consumed.clear();
        self.round_consumed.resize(num_rounds, false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_keep_allocations_across_tasks() {
        let mut s = SimScratch::new();
        s.prepare_execute(3);
        s.round_outputs[2] = RowGroup::with_capacity(100);
        let cap = s.round_outputs[2].capacity();
        // A smaller follow-up task must not shrink or drop the buffers.
        s.prepare_execute(1);
        assert_eq!(s.round_outputs.len(), 3);
        assert!(s.round_outputs[2].capacity() >= cap);
        assert!(s.round_outputs.iter().all(RowGroup::is_empty));
    }
}
