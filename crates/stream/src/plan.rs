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
//!
//! A plan can also be *cut*: [`ExecPlan::subtree`] names one node and
//! everything beneath it, and [`ExecPlan::frontier`] picks the subtrees
//! a fleet runs whole — leaf multiplies and merge rounds together, on
//! the shard that produced the partials — leaving only the few rounds
//! above the cut to whoever collects the results.

use crate::PanelBalance;
use sparch_core::sched::{huffman_plan, MergePlan, PlanNode};
use sparch_sparse::{panel_ranges, panel_ranges_by_nnz};
use std::cmp::Reverse;
use std::ops::Range;

/// Splits the inner dimension `0..col_nnz.len()` into up to `panels`
/// contiguous ranges: equal widths for [`PanelBalance::Uniform`], equal
/// `A`-column non-zeros for [`PanelBalance::Nnz`]. `col_nnz` is `A`'s
/// per-column histogram.
pub fn split(col_nnz: &[usize], panels: usize, balance: PanelBalance) -> Vec<Range<usize>> {
    match balance {
        PanelBalance::Uniform => panel_ranges(col_nnz.len(), panels),
        PanelBalance::Nnz => panel_ranges_by_nnz(col_nnz, panels),
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

/// One node of a plan and everything beneath it — the unit a shard
/// executes. A bare leaf is the one-node subtree (no rounds).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Subtree {
    /// The node whose partial the subtree produces; `None` only for the
    /// whole of an all-pruned plan.
    pub root: Option<usize>,
    /// Leaf ids beneath the root in production order — each round's leaf
    /// children in fold order, rounds ascending — the order their panel
    /// pairs are read in, so each round's pairs arrive together and
    /// before any later round's.
    pub leaves: Vec<usize>,
    /// Round indices beneath the root, ascending — children always
    /// precede the round that folds them.
    pub rounds: Vec<usize>,
}

/// A cut through a plan ([`ExecPlan::frontier`]): every leaf and round
/// lies in exactly one of the `jobs` subtrees or is one of `top_rounds`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frontier {
    /// Roots of the subtrees below the cut, heaviest first.
    pub jobs: Vec<usize>,
    /// The rounds above the cut, ascending; the last is the plan's root
    /// round. Their children are `jobs` nodes or earlier `top_rounds`.
    pub top_rounds: Vec<usize>,
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
        let ranges = split(col_nnz, panels, balance);
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

    /// The inner dimension the split covers (the last panel's end).
    pub fn inner_dim(&self) -> usize {
        self.ranges.last().map_or(0, |r| r.end)
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

    /// Whether round `round` folds leaves alone — such a round is never
    /// split by [`frontier`](Self::frontier).
    pub fn leaf_only(&self, round: usize) -> bool {
        self.round_children(round).all(|c| c < self.num_leaves())
    }

    /// Whether round `round` can run: every child satisfies `available`.
    pub fn round_ready(&self, round: usize, available: impl Fn(usize) -> bool) -> bool {
        self.round_children(round).all(available)
    }

    /// Every panel's range and `A` non-zero count (0 for pruned panels),
    /// left to right — exactly what [`from_panel_nnz`](Self::from_panel_nnz)
    /// rebuilds this plan from, together with [`ways`](Self::ways).
    pub fn panel_sizes(&self) -> impl Iterator<Item = (&Range<usize>, u64)> + '_ {
        let mut leaves = self.leaf_panels.iter().zip(&self.merge.leaf_weights);
        let mut next = leaves.next();
        self.ranges.iter().enumerate().map(move |(p, range)| {
            let nnz = match next {
                Some((&panel, &nnz)) if panel == p => {
                    next = leaves.next();
                    nnz
                }
                _ => 0,
            };
            (range, nnz)
        })
    }

    /// The inner-dimension range of leaf `leaf`.
    pub fn leaf_range(&self, leaf: usize) -> &Range<usize> {
        &self.ranges[self.leaf_panels[leaf]]
    }

    /// The scheduling weight of `node`: the `A` non-zeros of the leaves
    /// beneath it.
    pub fn weight(&self, node: usize) -> u64 {
        match node.checked_sub(self.num_leaves()) {
            None => self.merge.leaf_weights[node],
            Some(round) => self.merge.rounds[round].estimated_weight,
        }
    }

    /// The subtree under `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node >= num_nodes()`.
    pub fn subtree(&self, node: usize) -> Subtree {
        assert!(node < self.num_nodes(), "node {node} is not in the plan");
        let mut tree = Subtree {
            root: Some(node),
            ..Subtree::default()
        };
        let mut pending = vec![node];
        while let Some(node) = pending.pop() {
            if let Some(round) = node.checked_sub(self.num_leaves()) {
                tree.rounds.push(round);
                pending.extend(self.round_children(round));
            }
        }
        tree.rounds.sort_unstable();
        tree.leaves = if tree.rounds.is_empty() {
            vec![node]
        } else {
            let children = tree.rounds.iter().flat_map(|&r| self.round_children(r));
            children.filter(|&c| c < self.num_leaves()).collect()
        };
        tree
    }

    /// The whole plan as one subtree (empty when every panel was pruned).
    pub fn whole(&self) -> Subtree {
        self.root()
            .map_or_else(Subtree::default, |root| self.subtree(root))
    }

    /// Every leaf id in production order: round 0's leaf children in fold
    /// order, then round 1's, and so on (the whole plan's
    /// [`Subtree::leaves`]). Read in this order, each round's panel pairs
    /// arrive together and the round can run the moment its last one
    /// lands, so no pair waits on a later round's.
    pub fn production_order(&self) -> Vec<usize> {
        self.whole().leaves
    }

    /// Every panel index in the order a stream fed to
    /// `StreamingExecutor::multiply_streams` must yield them — any other
    /// order is a shape error: the leaf panels in
    /// [`production_order`](Self::production_order), then the pruned
    /// panels left to right.
    pub fn panel_order(&self) -> Vec<usize> {
        let leaves = self.production_order().into_iter();
        let leaf_panels = leaves.map(|leaf| self.leaf_panels[leaf]);
        let pruned = (0..self.panels()).filter(|p| self.leaf_panels.binary_search(p).is_err());
        leaf_panels.chain(pruned).collect()
    }

    /// Cuts the plan into about `target` subtree jobs: start from the
    /// root alone and keep replacing the heaviest round node on the cut
    /// by its children until there are `target` nodes or only leaves and
    /// [`leaf_only`](Self::leaf_only) rounds remain (a split adds up to
    /// `ways - 1` nodes, so the count can overshoot by that much). A
    /// leaf-only round is never split: whole, it adds its leaves' rows as
    /// they are fed to its fold; split, the coordinator would add the
    /// leaves' materialized partials instead. Those are two compiled adds,
    /// which need not keep the same NaN payload when two NaNs meet (they
    /// did not at oracle seed 651), so a cut run and a whole-plan run must
    /// compute the round with the same one. The cut is a pure function of
    /// the plan.
    pub fn frontier(&self, target: usize) -> Frontier {
        let mut jobs: Vec<usize> = self.root().into_iter().collect();
        let mut top_rounds = Vec::new();
        let splittable = |node: usize| {
            let round = node.checked_sub(self.num_leaves());
            round.is_some_and(|round| !self.leaf_only(round))
        };
        while jobs.len() < target {
            let heaviest = jobs
                .iter()
                .enumerate()
                .filter(|&(_, &node)| splittable(node))
                .max_by_key(|&(_, &node)| (self.weight(node), node));
            let Some((at, &node)) = heaviest else { break };
            let round = node - self.num_leaves();
            jobs.swap_remove(at);
            jobs.extend(self.round_children(round));
            top_rounds.push(round);
        }
        jobs.sort_unstable_by_key(|&node| (Reverse(self.weight(node)), node));
        top_rounds.sort_unstable();
        Frontier { jobs, top_rounds }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;
    use proptest::prelude::*;
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
    fn panel_sizes_rebuild_the_plan() {
        let ranges = vec![0..2, 2..4, 4..6, 6..8, 8..10];
        let plan = ExecPlan::from_panel_nnz(ranges, &[5, 0, 3, 0, 9], 3);
        let (ranges, nnz): (Vec<_>, Vec<_>) =
            plan.panel_sizes().map(|(r, n)| (r.clone(), n)).unzip();
        assert_eq!(nnz, [5, 0, 3, 0, 9]);
        assert_eq!(ExecPlan::from_panel_nnz(ranges, &nnz, plan.ways()), plan);
        assert_eq!(plan.inner_dim(), 10);
    }

    #[test]
    fn a_leaf_is_the_one_node_subtree_and_the_root_is_the_whole_plan() {
        let plan = ExecPlan::from_panel_nnz(vec![0..1, 1..2, 2..3], &[4, 1, 2], 2);
        let leaf = plan.subtree(1);
        assert_eq!(
            (leaf.root, &leaf.leaves[..], &leaf.rounds[..]),
            (Some(1), &[1][..], &[][..])
        );
        assert_eq!(plan.subtree(plan.root().unwrap()), plan.whole());
        // Production order: round 0 folds leaves 1 and 2, round 1 its
        // output and leaf 0.
        assert_eq!(plan.whole().leaves, [1, 2, 0]);
        assert_eq!(plan.whole().rounds, [0, 1]);
        // All pruned: the whole plan is the empty subtree, and so is its cut.
        let empty = ExecPlan::from_panel_nnz(vec![0..2, 2..4], &[0, 0], 4);
        assert_eq!(empty.whole(), Subtree::default());
        let cut = empty.frontier(4);
        assert!(cut.jobs.is_empty() && cut.top_rounds.is_empty());
    }

    /// Whatever cut the cutter makes, "run each job's subtree, then the
    /// rounds above the cut" is the full plan: every leaf and round
    /// exactly once, every round after all of its children and with its
    /// children in the plan's fold order.
    fn check_every_frontier(panel_nnz: &[u64]) {
        let ranges: Vec<Range<usize>> = (0..panel_nnz.len()).map(|p| 3 * p..3 * p + 3).collect();
        for ways in [2, 3, 4, 8, 64] {
            let plan = ExecPlan::from_panel_nnz(ranges.clone(), panel_nnz, ways);
            let full: Vec<(usize, Vec<usize>)> = (0..plan.num_rounds())
                .map(|r| (r, plan.round_children(r).collect()))
                .collect();
            for target in 0..=2 * plan.num_leaves() + 2 {
                let cut = plan.frontier(target);
                let what = format!("ways {ways} target {target} cut {cut:?}");
                // Splitting stops at the target, or when every job is a
                // leaf or a leaf-only round, which is never split; one
                // split adds at most `ways - 1` nodes.
                let whole =
                    |n: usize| n < plan.num_leaves() || plan.leaf_only(n - plan.num_leaves());
                let stuck = cut.jobs.iter().all(|&n| whole(n));
                assert!(stuck || cut.jobs.len() >= target, "{what}");
                for &r in &cut.top_rounds {
                    assert!(!plan.leaf_only(r), "leaf-only round {r} split: {what}");
                }
                assert!(cut.jobs.len() < target.max(1) + ways, "{what}");
                assert!(
                    cut.jobs
                        .windows(2)
                        .all(|w| plan.weight(w[0]) >= plan.weight(w[1])),
                    "heaviest first: {what}"
                );

                let mut visited = Vec::new();
                let mut run_round = |r: usize, have: &mut [bool]| {
                    assert!(plan.round_ready(r, |n| have[n]), "round {r} early: {what}");
                    have[plan.round_output(r)] = true;
                    visited.push((r, plan.round_children(r).collect::<Vec<_>>()));
                };
                let mut have = vec![false; plan.num_nodes()];
                let mut leaves = Vec::new();
                for &job in &cut.jobs {
                    let tree = plan.subtree(job);
                    assert_eq!(tree.root, Some(job));
                    // A shard sees only its own leaves.
                    let mut local = vec![false; plan.num_nodes()];
                    for &leaf in &tree.leaves {
                        local[leaf] = true;
                    }
                    leaves.extend_from_slice(&tree.leaves);
                    for &r in &tree.rounds {
                        run_round(r, &mut local);
                    }
                    assert!(local[job], "job {job} never produced its root: {what}");
                    have[job] = true;
                }
                for &r in &cut.top_rounds {
                    run_round(r, &mut have);
                }
                leaves.sort_unstable();
                assert!(leaves.iter().copied().eq(0..plan.num_leaves()), "{what}");
                visited.sort();
                assert_eq!(visited, full, "{what}");
                assert!(plan.root().is_none_or(|root| have[root]), "{what}");
            }
        }
    }

    /// Production order lists every leaf once, each round's leaf children
    /// together, in fold order, and rounds in ascending order; the panel
    /// order maps it onto panels and ends with the pruned ones.
    #[test]
    fn production_order_reads_each_rounds_pairs_together_and_in_round_order() {
        let nnz = [5, 0, 3, 9, 1, 0, 4, 4, 2, 7, 6];
        let ranges: Vec<Range<usize>> = (0..nnz.len()).map(|p| p..p + 1).collect();
        for ways in [2, 3, 4, 64] {
            let plan = ExecPlan::from_panel_nnz(ranges.clone(), &nnz, ways);
            let order = plan.production_order();
            let expected: Vec<usize> = (0..plan.num_rounds())
                .flat_map(|r| plan.round_children(r).filter(|&c| c < plan.num_leaves()))
                .collect();
            assert_eq!(order, expected, "ways {ways}");
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert!(
                sorted.iter().copied().eq(0..plan.num_leaves()),
                "ways {ways}"
            );
            let panels = plan.panel_order();
            let leaf_ranges: Vec<_> = plan.leaf_ranges().cloned().collect();
            for (at, &leaf) in order.iter().enumerate() {
                assert_eq!(ranges[panels[at]], leaf_ranges[leaf], "ways {ways}");
            }
            assert_eq!(panels[order.len()..], [1, 5], "ways {ways}");
            // A subtree's leaves are the whole order's, restricted to it.
            for node in 0..plan.num_nodes() {
                let tree = plan.subtree(node);
                let within: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|l| tree.leaves.contains(l))
                    .collect();
                assert_eq!(tree.leaves, within, "ways {ways} node {node}");
            }
        }
        let lone = ExecPlan::from_panel_nnz(vec![0..3, 3..6], &[0, 7], 4);
        assert_eq!(
            (lone.production_order(), lone.panel_order()),
            (vec![0], vec![1, 0])
        );
        let empty = ExecPlan::from_panel_nnz(vec![0..3, 3..6], &[0, 0], 4);
        assert_eq!(
            (empty.production_order(), empty.panel_order()),
            (vec![], vec![0, 1])
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_frontier_partitions_the_plan_and_keeps_fold_order(
            panel_nnz in proptest::collection::vec(0u64..40, 1..48),
        ) {
            check_every_frontier(&panel_nnz);
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
