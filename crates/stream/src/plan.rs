//! The execution plan: how `A · B` is cut into panel products and in
//! what order the partials are folded.
//!
//! SpArch's Huffman scheduler (§II-C) fixes the whole merge order from
//! the partial-matrix sizes *before* anything executes, and every
//! bit-identity guarantee of the software stack rests on that property.
//! This module is the one place the decision is made: [`split`] cuts the
//! inner dimension into panels (the only `match` on [`PanelBalance`]),
//! [`ExecPlan::from_panel_nnz`] prunes the panels whose `A` side is
//! empty, weights the surviving leaves by their `A` non-zeros, and
//! [`schedule`]s them (the only runtime call to the k-ary Huffman
//! scheduler). Every layer above is a consumer: the pipeline executes
//! the plan, the shard coordinator ships it, the knob planner prices
//! candidates through the same two steps.

use crate::PanelBalance;
use sparch_core::sched::{huffman_plan, MergePlan, PlanNode};
use sparch_sparse::{panel_ranges, panel_ranges_by_nnz};
use std::ops::Range;

/// Splits the inner dimension `0..inner_dim` into up to `panels`
/// contiguous ranges: equal widths for [`PanelBalance::Uniform`], equal
/// `A`-column non-zeros for [`PanelBalance::Nnz`]. `col_nnz` yields `A`'s
/// per-column histogram (`inner_dim` entries) and is consulted only by
/// the nnz-balanced split, so a caller whose histogram costs a file scan
/// pays for it only when the split needs it.
pub fn split<H: AsRef<[usize]>>(
    inner_dim: usize,
    panels: usize,
    balance: PanelBalance,
    col_nnz: impl FnOnce() -> H,
) -> Vec<Range<usize>> {
    match balance {
        PanelBalance::Uniform => panel_ranges(inner_dim, panels),
        PanelBalance::Nnz => {
            let col_nnz = col_nnz();
            debug_assert_eq!(col_nnz.as_ref().len(), inner_dim);
            panel_ranges_by_nnz(col_nnz.as_ref(), panels)
        }
    }
}

/// The merge schedule over `weights.len()` leaves: the k-ary Huffman
/// plan, smallest first, with `ways` clamped to at least 2.
pub fn schedule(weights: &[u64], ways: usize) -> MergePlan {
    huffman_plan(weights, ways.max(2))
}

/// One multiply's complete decomposition, immutable once built: the
/// panel ranges, which of them became merge leaves, and the merge rounds
/// that fold the leaves into the result.
///
/// **Node ids.** Leaves are `0..num_leaves()` — the panels whose `A`
/// side holds any non-zero, numbered densely in range order; the output
/// of round `r` is node `num_leaves() + r`. Stores, job tables and
/// result tables all index by node id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecPlan {
    /// Every panel's inner-dimension range, left to right — pruned ones
    /// included.
    ranges: Vec<Range<usize>>,
    /// `leaf_panels[leaf]` indexes `ranges`; strictly increasing.
    leaf_panels: Vec<usize>,
    merge: MergePlan,
    /// `consumers[node]` = the round that consumes it (`usize::MAX` for
    /// the root, which nothing consumes).
    consumers: Vec<usize>,
}

impl ExecPlan {
    /// The one constructor: prunes every panel with `panel_nnz == 0` (an
    /// empty `A` panel's product is empty whatever `B` holds), weights
    /// each remaining leaf by its `A` non-zeros and schedules them
    /// `ways`-way ([`schedule`]). `panel_nnz[p]` is the non-zero count of
    /// `A[:, ranges[p]]`.
    ///
    /// # Panics
    ///
    /// Panics if `ranges` and `panel_nnz` differ in length.
    pub fn from_panel_nnz(ranges: Vec<Range<usize>>, panel_nnz: &[u64], ways: usize) -> ExecPlan {
        assert_eq!(ranges.len(), panel_nnz.len(), "one nnz count per panel");
        let leaf_panels: Vec<usize> = (0..ranges.len()).filter(|&p| panel_nnz[p] > 0).collect();
        let weights: Vec<u64> = leaf_panels.iter().map(|&p| panel_nnz[p]).collect();
        let mut plan = ExecPlan {
            ranges,
            leaf_panels,
            merge: schedule(&weights, ways),
            consumers: Vec::new(),
        };
        let mut consumers = vec![usize::MAX; plan.num_nodes()];
        for round in 0..plan.num_rounds() {
            for node in plan.round_children(round) {
                consumers[node] = round;
            }
        }
        plan.consumers = consumers;
        plan
    }

    /// [`split`]s the operand by its column histogram, then
    /// [`from_panel_nnz`](Self::from_panel_nnz) with each panel's summed
    /// column counts — the whole decision from `A`'s histogram alone,
    /// whether it came from `Csr::col_nnz` or `mm::scan_col_nnz`.
    pub fn for_operand(
        col_nnz: &[usize],
        panels: usize,
        balance: PanelBalance,
        ways: usize,
    ) -> ExecPlan {
        let ranges = split(col_nnz.len(), panels, balance, || col_nnz);
        let panel_nnz: Vec<u64> = ranges
            .iter()
            .map(|r| col_nnz[r.clone()].iter().map(|&n| n as u64).sum())
            .collect();
        ExecPlan::from_panel_nnz(ranges, &panel_nnz, ways)
    }

    /// Panel pairs in the split, pruned ones included.
    pub fn panels(&self) -> usize {
        self.ranges.len()
    }

    /// Merge leaves: panels that survive pruning.
    pub fn num_leaves(&self) -> usize {
        self.leaf_panels.len()
    }

    /// The inner-dimension range of each leaf, in leaf-id order.
    pub fn leaf_ranges(&self) -> impl Iterator<Item = &Range<usize>> + '_ {
        self.leaf_panels.iter().map(|&p| &self.ranges[p])
    }

    /// Merge rounds in the schedule; the last one produces the result.
    pub fn num_rounds(&self) -> usize {
        self.merge.rounds.len()
    }

    /// Fan-in the schedule was built with (after clamping to ≥ 2).
    pub fn ways(&self) -> usize {
        self.merge.ways
    }

    /// Leaves plus round outputs — the size of any table indexed by
    /// node id.
    pub fn num_nodes(&self) -> usize {
        self.num_leaves() + self.num_rounds()
    }

    /// The node id of a schedule node.
    fn node_id(&self, node: PlanNode) -> usize {
        match node {
            PlanNode::Leaf(leaf) => leaf,
            PlanNode::Round(round) => self.round_output(round),
        }
    }

    /// The node id round `round` produces.
    pub fn round_output(&self, round: usize) -> usize {
        self.num_leaves() + round
    }

    /// The node ids round `round` folds, in fold order.
    pub fn round_children(&self, round: usize) -> impl Iterator<Item = usize> + '_ {
        self.merge.rounds[round]
            .children
            .iter()
            .map(|&child| self.node_id(child))
    }

    /// The round that consumes `node`, `None` for the root.
    pub fn consumer(&self, node: usize) -> Option<usize> {
        Some(self.consumers[node]).filter(|&round| round != usize::MAX)
    }

    /// The whole node → consuming-round table ([`consumer`](Self::consumer)
    /// per node, `usize::MAX` for the root) — the farthest-future-use
    /// schedule the partial store evicts by.
    pub fn consumers(&self) -> &[usize] {
        &self.consumers
    }

    /// The node holding the final result: the last round's output, the
    /// lone leaf of a one-leaf plan, `None` when every panel was pruned
    /// (the product is the zero matrix).
    pub fn root(&self) -> Option<usize> {
        self.num_nodes().checked_sub(1)
    }

    /// Whether round `round` can run: every child satisfies `available`.
    pub fn round_ready(&self, round: usize, available: impl Fn(usize) -> bool) -> bool {
        self.round_children(round).all(available)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use sparch_sparse::{gen, mm, Coo};

    #[test]
    fn all_empty_a_gives_no_leaves_and_no_rounds() {
        let plan = ExecPlan::for_operand(&[0; 12], 4, PanelBalance::Uniform, 4);
        assert_eq!(plan.panels(), 4);
        assert_eq!((plan.num_leaves(), plan.num_rounds()), (0, 0));
        assert_eq!(plan.root(), None);
        // A zero inner dimension has no panels at all.
        let plan = ExecPlan::for_operand(&[], 4, PanelBalance::Nnz, 4);
        assert_eq!((plan.panels(), plan.num_nodes()), (0, 0));
    }

    #[test]
    fn one_live_panel_is_one_leaf_and_the_root() {
        let plan = ExecPlan::from_panel_nnz(vec![0..3, 3..6, 6..9], &[0, 7, 0], 4);
        assert_eq!((plan.num_leaves(), plan.num_rounds()), (1, 0));
        assert_eq!(plan.leaf_ranges().collect::<Vec<_>>(), [&(3..6)]);
        assert_eq!(plan.root(), Some(0));
        assert_eq!(plan.consumer(0), None);
    }

    #[test]
    fn empty_panels_in_the_middle_keep_leaf_ids_dense_and_ordered() {
        let ranges = vec![0..2, 2..4, 4..6, 6..8, 8..10];
        let plan = ExecPlan::from_panel_nnz(ranges.clone(), &[5, 0, 3, 0, 9], 2);
        assert_eq!(plan.ranges, ranges);
        assert_eq!(
            plan.leaf_ranges().collect::<Vec<_>>(),
            [&(0..2), &(4..6), &(8..10)]
        );
        assert_eq!(plan.merge.leaf_weights, [5, 3, 9]);
        assert_eq!((plan.num_rounds(), plan.num_nodes()), (2, 5));
        // Smallest first: leaves 1 and 0 fold, then their output with 2.
        assert_eq!(plan.round_children(0).collect::<Vec<_>>(), [1, 0]);
        assert_eq!(plan.round_children(1).collect::<Vec<_>>(), [3, 2]);
        assert_eq!(plan.root(), Some(plan.round_output(1)));
    }

    #[test]
    fn every_node_but_the_root_has_exactly_one_consumer() {
        let weights: Vec<u64> = (1..=23).map(|i| (i * 37) % 11 + 1).collect();
        let ranges: Vec<Range<usize>> = (0..weights.len()).map(|p| p..p + 1).collect();
        for ways in [2, 3, 4, 8, 64] {
            let plan = ExecPlan::from_panel_nnz(ranges.clone(), &weights, ways);
            let mut consumed = vec![0usize; plan.num_nodes()];
            for round in 0..plan.num_rounds() {
                for node in plan.round_children(round) {
                    // Children always precede the round that folds them.
                    assert!(node < plan.round_output(round));
                    assert_eq!(plan.consumer(node), Some(round));
                    consumed[node] += 1;
                }
            }
            let root = plan.root().expect("23 leaves have a root");
            assert_eq!(plan.consumer(root), None);
            for (node, &count) in consumed.iter().enumerate() {
                assert_eq!(count, usize::from(node != root), "ways {ways} node {node}");
            }
        }
    }

    #[test]
    fn rounds_become_ready_exactly_when_their_children_are_available() {
        let plan = ExecPlan::from_panel_nnz(vec![0..1, 1..2, 2..3], &[4, 1, 2], 2);
        let mut have = vec![false; plan.num_nodes()];
        assert!(!plan.round_ready(0, |n| have[n]));
        for node in plan.round_children(0).collect::<Vec<_>>() {
            have[node] = true;
        }
        assert!(plan.round_ready(0, |n| have[n]));
        assert!(!plan.round_ready(1, |n| have[n]));
    }

    #[test]
    fn fan_in_below_two_clamps_to_two() {
        for ways in [0, 1] {
            let plan = ExecPlan::from_panel_nnz(vec![0..1, 1..2, 2..3], &[1, 1, 1], ways);
            assert_eq!(plan.ways(), 2);
            assert_eq!(plan.num_rounds(), 2);
        }
    }

    #[test]
    fn in_memory_and_on_disk_histograms_give_the_same_plan() {
        // Hub columns plus an all-empty stretch, so the two balance modes
        // split differently and pruning has something to prune.
        let mut entries = Vec::new();
        for r in 0..40u32 {
            entries.push((r, 0, 1.0));
            entries.push((r, (r * 7) % 16, 2.0));
            entries.push((r, 48 + r % 16, 3.0));
        }
        let scattered = Coo::from_entries(40, 64, entries).to_csr();
        let dir = TempDir::new("plan_parity");
        for (i, a) in [scattered, gen::rmat_graph500(96, 5, 3)].iter().enumerate() {
            let path = dir.file(&format!("a{i}.mtx"));
            mm::write_file(&path, &a.to_coo()).expect("write operand");
            let scanned = mm::scan_col_nnz(&path).expect("scan operand");
            for balance in [PanelBalance::Uniform, PanelBalance::Nnz] {
                for panels in [1, 4, 8, 200] {
                    assert_eq!(
                        ExecPlan::for_operand(&a.col_nnz(), panels, balance, 4),
                        ExecPlan::for_operand(&scanned, panels, balance, 4),
                        "operand {i} balance {balance} panels {panels}"
                    );
                }
            }
        }
    }
}
