//! The merge tree (paper §II-A3, Figure 5).
//!
//! To merge up to 64 sorted arrays into one, SpArch stacks binary mergers
//! into a full binary tree: "each node represents a FIFO on the hardware.
//! Input arrays are fed to the leaf nodes, and the output array is
//! collected from the root node." The throughput of the whole tree is
//! bounded by the root, so **each layer shares one merger**.
//!
//! Two entry points model that hardware:
//!
//! * [`MergeTree::merge`] — the batch interface: preloaded leaf FIFOs,
//!   simulated to completion, returning the folded stream and counters.
//! * [`MergeTreeSim`] — the stateful cycle stepper behind it, driven
//!   through the [`Clocked`] two-phase discipline. Leaves can be fed
//!   *while* the tree merges (with FIFO backpressure), which is how
//!   `sparch-core`'s round co-simulation pipelines the multiplier array
//!   into the tree (Figure 10) without duplicating the service logic.
//!
//! Every cycle, each layer's merger serves one node (round-robin among
//! nodes with work), moving up to `merger_width` elements from its two
//! child FIFOs into the parent FIFO, folding duplicate coordinates through
//! the adder slice on the way (the zero eliminator is implicit in
//! fold-on-push: holes never enter the FIFO). The root FIFO drains into
//! the output at merger width per cycle, modelling the partial-matrix
//! writer; the drained batch is staged in `clock_update` and committed in
//! `clock_apply`, so the writer's output is flip-flopped like every other
//! inter-module signal.

use crate::adder;
use crate::clocked::{Clock, Clocked};
use crate::hierarchical::HierarchicalMerger;
use crate::item::MergeItem;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Merge-tree geometry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergeTreeConfig {
    /// Number of merger layers; the tree accepts `2^layers` input arrays.
    /// Table I: 6 layers → 64-way merge.
    pub layers: usize,
    /// Elements each layer's merger moves per cycle (Table I: 16).
    pub merger_width: usize,
    /// Low-level chunk size of the hierarchical merger (Table I: 4).
    pub merger_chunk: usize,
    /// Capacity of each node FIFO, in elements.
    pub fifo_capacity: usize,
}

impl Default for MergeTreeConfig {
    fn default() -> Self {
        MergeTreeConfig {
            layers: 6,
            merger_width: 16,
            merger_chunk: 4,
            fifo_capacity: 64,
        }
    }
}

impl MergeTreeConfig {
    /// Number of leaf ports (`2^layers`).
    pub fn leaf_count(&self) -> usize {
        1 << self.layers
    }
}

/// Counters from one tree merge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeStats {
    /// Total clock cycles until the last output element left the root.
    pub cycles: u64,
    /// Comparator evaluations across all layer mergers.
    pub comparator_ops: u64,
    /// Floating-point additions (duplicate folding).
    pub adds: u64,
    /// Elements moved through node FIFOs (each push + pop counts once).
    pub fifo_movements: u64,
    /// Cycles in which a layer's merger had no serviceable node.
    pub stalls: u64,
    /// Elements emitted at the root.
    pub output_elements: u64,
    /// Highest observed FIFO occupancy.
    pub fifo_high_water: usize,
}

/// One internal node's state during simulation.
#[derive(Debug, Clone)]
struct Node {
    fifo: VecDeque<MergeItem>,
    finished: bool,
}

/// The stateful, cycle-steppable merge tree.
///
/// Leaves are fed with [`MergeTreeSim::load_leaf`] (preloaded batch) or
/// [`MergeTreeSim::push_leaf`] (streaming, with backpressure), and sealed
/// with [`MergeTreeSim::finish_leaf`]. The tree advances one cycle per
/// [`Clocked`] update/apply pair — typically driven by a
/// [`crate::clocked::Clock`].
///
/// # Example
///
/// ```
/// use sparch_engine::clocked::Clock;
/// use sparch_engine::{MergeItem, MergeTreeConfig, MergeTreeSim};
///
/// let mut sim = MergeTreeSim::new(MergeTreeConfig { layers: 1, ..Default::default() });
/// sim.load_leaf(0, (0..10).map(|i| MergeItem { coord: 2 * i, value: 1.0 }).collect());
/// sim.load_leaf(1, (0..10).map(|i| MergeItem { coord: 2 * i + 1, value: 1.0 }).collect());
/// let mut clock = Clock::new();
/// while !sim.is_done() {
///     clock.tick(&mut [&mut sim]);
/// }
/// assert_eq!(sim.output().len(), 20);
/// assert_eq!(sim.stats().cycles, clock.cycles());
/// ```
#[derive(Debug, Clone)]
pub struct MergeTreeSim {
    config: MergeTreeConfig,
    /// `levels[l]` = nodes at depth `l`; level 0 is the root, level
    /// `layers` holds the leaf FIFOs.
    levels: Vec<Vec<Node>>,
    /// Round-robin service pointer per layer.
    rr: Vec<usize>,
    /// Root-drain batch staged by `clock_update`, committed by
    /// `clock_apply` (the partial-matrix writer's flip-flop).
    staged_out: Vec<MergeItem>,
    output: Vec<MergeItem>,
    stats: TreeStats,
    /// Comparator evaluations one layer merger performs per served cycle.
    ops_per_service: u64,
}

impl MergeTreeSim {
    /// Creates an empty tree with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `layers == 0`, `merger_width == 0`, the chunk does not
    /// divide the width, or the FIFO capacity is below the merger width
    /// (the merger must be able to land a full emission).
    pub fn new(config: MergeTreeConfig) -> Self {
        assert!(config.layers > 0, "need at least one layer");
        assert!(config.merger_width > 0, "merger width must be positive");
        assert!(
            config.merger_width.is_multiple_of(config.merger_chunk),
            "chunk must divide merger width"
        );
        assert!(
            config.fifo_capacity >= config.merger_width,
            "FIFO capacity must hold one full merger emission"
        );
        let levels = (0..=config.layers)
            .map(|l| {
                vec![
                    Node {
                        fifo: VecDeque::new(),
                        finished: false
                    };
                    1usize << l
                ]
            })
            .collect();
        MergeTreeSim {
            rr: vec![0; config.layers],
            levels,
            staged_out: Vec::new(),
            output: Vec::new(),
            stats: TreeStats::default(),
            ops_per_service: HierarchicalMerger::new(config.merger_width, config.merger_chunk)
                .comparators(),
            config,
        }
    }

    /// The tree's geometry.
    pub fn config(&self) -> MergeTreeConfig {
        self.config
    }

    /// Preloads leaf `leaf` with a complete sorted input and seals it, as
    /// if the data loader had already streamed it in.
    ///
    /// # Panics
    ///
    /// Panics if the leaf index is out of range or `items` is not sorted
    /// by coordinate.
    pub fn load_leaf(&mut self, leaf: usize, items: Vec<MergeItem>) {
        assert!(
            crate::item::is_sorted(&items),
            "input {leaf} is not sorted by coordinate"
        );
        let node = &mut self.levels[self.config.layers][leaf];
        node.fifo = items.into();
        node.finished = true;
    }

    /// Offers one element to leaf `leaf`'s FIFO. Returns the element back
    /// when the FIFO is full (backpressure: the producer must retry next
    /// cycle).
    ///
    /// # Panics
    ///
    /// Panics if the leaf is out of range, already sealed, or `item` would
    /// break the leaf stream's coordinate order.
    pub fn push_leaf(&mut self, leaf: usize, item: MergeItem) -> Result<(), MergeItem> {
        let node = &mut self.levels[self.config.layers][leaf];
        assert!(!node.finished, "leaf {leaf} is sealed");
        assert!(
            node.fifo.back().is_none_or(|b| b.coord <= item.coord),
            "push to leaf {leaf} breaks the sorted-stream contract"
        );
        if node.fifo.len() >= self.config.fifo_capacity {
            return Err(item);
        }
        node.fifo.push_back(item);
        self.stats.fifo_movements += 1;
        self.stats.fifo_high_water = self.stats.fifo_high_water.max(node.fifo.len());
        Ok(())
    }

    /// Current occupancy of leaf `leaf`'s FIFO.
    pub fn leaf_len(&self, leaf: usize) -> usize {
        self.levels[self.config.layers][leaf].fifo.len()
    }

    /// Whether leaf `leaf` can accept a push this cycle.
    pub fn leaf_has_room(&self, leaf: usize) -> bool {
        self.leaf_len(leaf) < self.config.fifo_capacity
    }

    /// Pre-allocates the output vector for an expected element count.
    pub fn reserve_output(&mut self, elements: usize) {
        self.output.reserve(elements);
    }

    /// Seals leaf `leaf`: no more input will arrive (idempotent).
    pub fn finish_leaf(&mut self, leaf: usize) {
        self.levels[self.config.layers][leaf].finished = true;
    }

    /// Seals every leaf (the batch-mode entry state).
    pub fn finish_all_leaves(&mut self) {
        for node in self.levels[self.config.layers].iter_mut() {
            node.finished = true;
        }
    }

    /// True when every element has been merged, drained and committed.
    pub fn is_done(&self) -> bool {
        let root = &self.levels[0][0];
        root.finished && root.fifo.is_empty() && self.staged_out.is_empty()
    }

    /// The committed output stream (sorted, duplicates folded).
    pub fn output(&self) -> &[MergeItem] {
        &self.output
    }

    /// Consumes the simulator, yielding the output stream and counters.
    pub fn into_parts(self) -> (Vec<MergeItem>, TreeStats) {
        (self.output, self.stats)
    }

    /// Counters so far.
    pub fn stats(&self) -> &TreeStats {
        &self.stats
    }

    /// Attempts one merger service for parent `(l, p)`. Returns whether
    /// any progress was made (elements moved or completion detected).
    fn service(&mut self, l: usize, p: usize) -> bool {
        let width = self.config.merger_width;
        let (c0, c1) = (2 * p, 2 * p + 1);
        // Split borrows: children live one level below the parent.
        let (upper, lower) = self.levels.split_at_mut(l + 1);
        let parent = &mut upper[l][p];
        if parent.finished {
            return false;
        }
        let (left_nodes, right_nodes) = lower[0].split_at_mut(c1);
        let left = &mut left_nodes[c0];
        let right = &mut right_nodes[0];

        let mut moved = 0usize;
        let mut staging: Vec<MergeItem> = Vec::with_capacity(width);
        while moved < width && parent.fifo.len() + staging.len() < self.config.fifo_capacity {
            let lh = left.fifo.front().map(|i| i.coord);
            let rh = right.fifo.front().map(|i| i.coord);
            let take_right = match (lh, rh) {
                (Some(a), Some(b)) => a >= b,
                // One side empty: safe to pull from the other only if the
                // empty side is finished (no future smaller element).
                (Some(_), None) => {
                    if right.finished {
                        false
                    } else {
                        break;
                    }
                }
                (None, Some(_)) => {
                    if left.finished {
                        true
                    } else {
                        break;
                    }
                }
                (None, None) => break,
            };
            let item = if take_right {
                right.fifo.pop_front().expect("head checked")
            } else {
                left.fifo.pop_front().expect("head checked")
            };
            self.stats.fifo_movements += 1;
            staging.push(item);
            moved += 1;
        }

        // Adder slice + zero eliminator on the emission, then fold against
        // the parent FIFO's tail (duplicates can straddle emissions).
        let (folded, adds) = adder::fold_duplicates(&staging);
        self.stats.adds += adds;
        for item in folded {
            match parent.fifo.back_mut() {
                Some(back) if back.coord == item.coord => {
                    back.value += item.value;
                    self.stats.adds += 1;
                }
                _ => {
                    parent.fifo.push_back(item);
                    self.stats.fifo_movements += 1;
                    self.stats.fifo_high_water = self.stats.fifo_high_water.max(parent.fifo.len());
                }
            }
        }

        if left.finished && right.finished && left.fifo.is_empty() && right.fifo.is_empty() {
            parent.finished = true;
            return true;
        }
        moved > 0
    }
}

impl Clocked for MergeTreeSim {
    /// One cycle's combinational work: stage the root drain (partial-matrix
    /// writer), then run each layer's shared merger top-down — root first,
    /// so a layer consumes the state its children latched last cycle and
    /// pushes from below become visible only next cycle.
    fn clock_update(&mut self) {
        self.stats.cycles += 1;

        let width = self.config.merger_width;
        let root = &mut self.levels[0][0];
        let take = root.fifo.len().min(width);
        for _ in 0..take {
            let item = root.fifo.pop_front().expect("len checked");
            self.stats.fifo_movements += 1;
            self.staged_out.push(item);
        }

        for l in 0..self.config.layers {
            let parents = 1usize << l;
            let mut served = false;
            for probe in 0..parents {
                let p = (self.rr[l] + probe) % parents;
                if self.service(l, p) {
                    self.rr[l] = (p + 1) % parents;
                    served = true;
                    break;
                }
            }
            if served {
                self.stats.comparator_ops += self.ops_per_service;
            } else {
                self.stats.stalls += 1;
            }
        }
    }

    /// Commits the staged writer batch to the output, folding a duplicate
    /// pair that straddled two merger emissions one final time — the
    /// hardware's last adder slice.
    fn clock_apply(&mut self) {
        for item in self.staged_out.drain(..) {
            match self.output.last_mut() {
                Some(last) if last.coord == item.coord => {
                    last.value += item.value;
                    self.stats.adds += 1;
                }
                _ => {
                    self.output.push(item);
                    self.stats.output_elements += 1;
                }
            }
        }
    }
}

/// The batch-mode merge tree: configuration plus [`MergeTree::merge`].
///
/// # Example
///
/// ```
/// use sparch_engine::{MergeItem, MergeTree, MergeTreeConfig};
///
/// let tree = MergeTree::new(MergeTreeConfig { layers: 2, ..Default::default() });
/// let inputs: Vec<Vec<MergeItem>> = (0..4)
///     .map(|k| (0..8u32).map(|i| MergeItem::new(0, i * 4 + k, 1.0)).collect())
///     .collect();
/// let (out, stats) = tree.merge(inputs);
/// assert_eq!(out.len(), 32);
/// assert!(out.windows(2).all(|w| w[0].coord < w[1].coord));
/// assert!(stats.cycles > 0);
/// ```
#[derive(Debug, Clone)]
pub struct MergeTree {
    config: MergeTreeConfig,
}

impl MergeTree {
    /// Creates a tree with the given geometry.
    ///
    /// # Panics
    ///
    /// Same validity requirements as [`MergeTreeSim::new`].
    pub fn new(config: MergeTreeConfig) -> Self {
        // Validate eagerly so a bad geometry fails at construction.
        let _ = MergeTreeSim::new(config);
        MergeTree { config }
    }

    /// The tree's geometry.
    pub fn config(&self) -> MergeTreeConfig {
        self.config
    }

    /// Merges up to `2^layers` sorted input arrays into one sorted,
    /// duplicate-folded output, simulating the datapath cycle by cycle
    /// through the [`Clocked`] discipline.
    ///
    /// # Panics
    ///
    /// Panics if more inputs than leaf ports are supplied, or if an input
    /// array is not sorted by coordinate.
    pub fn merge(&self, inputs: Vec<Vec<MergeItem>>) -> (Vec<MergeItem>, TreeStats) {
        let leaves = self.config.leaf_count();
        assert!(
            inputs.len() <= leaves,
            "{} inputs exceed the tree's {leaves} leaf ports",
            inputs.len()
        );
        for (i, arr) in inputs.iter().enumerate() {
            assert!(crate::item::is_sorted(arr), "input {i} is not sorted");
        }

        let total_in: usize = inputs.iter().map(Vec::len).sum();
        let layers = self.config.layers;
        let width = self.config.merger_width;

        let mut sim = MergeTreeSim::new(self.config);
        sim.reserve_output(total_in);
        for (i, input) in inputs.into_iter().enumerate() {
            sim.load_leaf(i, input);
        }
        sim.finish_all_leaves(); // unfed leaves are trivially done

        // Generous runaway guard: every element crosses `layers` FIFOs at
        // `width` per layer-cycle, so this bound is far above any legal run.
        let cycle_cap = 1000
            + (total_in as u64 + 1) * (layers as u64 + 2) * 4 / width as u64
            + (total_in as u64 + 1) * 8;

        let mut clock = Clock::new();
        while !sim.is_done() {
            assert!(
                clock.cycles() < cycle_cap.max(10_000),
                "merge tree failed to converge (bug): cycle {} of cap {}",
                clock.cycles(),
                cycle_cap
            );
            clock.tick(&mut [&mut sim]);
        }
        sim.into_parts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{is_sorted_unique, stream_of};

    fn sorted_run(start: u64, step: u64, len: usize) -> Vec<MergeItem> {
        (0..len as u64)
            .map(|i| MergeItem {
                coord: start + i * step,
                value: 1.0,
            })
            .collect()
    }

    #[test]
    fn figure5_four_way_merge() {
        // Figure 5's four arrays (coordinates only).
        let a = [24u64, 26, 31, 52, 54, 56, 57, 58, 73, 75];
        let b = [22u64, 28, 42, 44, 46, 47, 48];
        let c = [11u64, 13, 15, 21, 23, 25, 41, 43, 45];
        let d = [12u64, 14, 16, 17, 18, 32, 34, 36, 37, 38, 72];
        let inputs: Vec<Vec<MergeItem>> = [&a[..], &b, &c, &d]
            .iter()
            .map(|s| {
                s.iter()
                    .map(|&x| MergeItem {
                        coord: x,
                        value: 1.0,
                    })
                    .collect()
            })
            .collect();
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 2,
            ..Default::default()
        });
        let (out, stats) = tree.merge(inputs);
        let mut expected: Vec<u64> = a.iter().chain(&b).chain(&c).chain(&d).copied().collect();
        expected.sort_unstable();
        let got: Vec<u64> = out.iter().map(|i| i.coord).collect();
        assert_eq!(got, expected);
        assert_eq!(stats.output_elements as usize, expected.len());
        assert!(stats.cycles >= 3, "startup latency spans the layers");
    }

    #[test]
    fn folds_duplicates_across_arrays() {
        let inputs = vec![
            stream_of(&[(0, 1, 1.0), (0, 3, 2.0)]),
            stream_of(&[(0, 1, 10.0), (0, 2, 5.0)]),
            stream_of(&[(0, 3, 100.0)]),
            stream_of(&[(0, 1, 0.5)]),
        ];
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 2,
            ..Default::default()
        });
        let (out, stats) = tree.merge(inputs);
        assert!(is_sorted_unique(&out), "duplicates must fold: {out:?}");
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].value, 11.5); // 1 + 10 + 0.5
        assert_eq!(out[1].value, 5.0);
        assert_eq!(out[2].value, 102.0);
        assert!(stats.adds >= 3);
    }

    #[test]
    fn full_64_way_merge() {
        let tree = MergeTree::new(MergeTreeConfig::default());
        let inputs: Vec<Vec<MergeItem>> = (0..64).map(|k| sorted_run(k as u64, 64, 100)).collect();
        let (out, stats) = tree.merge(inputs);
        assert_eq!(out.len(), 6400);
        assert!(is_sorted_unique(&out));
        // Steady state: ~16 elements/cycle at the root, plus pipeline fill.
        assert!(
            stats.cycles >= 6400 / 16,
            "cycles {} below root-bound minimum",
            stats.cycles
        );
        assert!(
            stats.cycles < 3 * 6400 / 16 + 200,
            "cycles {} far above root-bound minimum: throughput bug",
            stats.cycles
        );
    }

    #[test]
    fn partial_leaf_population() {
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 3,
            ..Default::default()
        });
        // Only 3 of 8 leaves are fed.
        let inputs = vec![
            sorted_run(0, 3, 10),
            sorted_run(1, 3, 10),
            sorted_run(2, 3, 10),
        ];
        let (out, _) = tree.merge(inputs);
        assert_eq!(out.len(), 30);
        assert!(is_sorted_unique(&out));
    }

    #[test]
    fn empty_and_single_inputs() {
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 2,
            ..Default::default()
        });
        let (out, _) = tree.merge(vec![]);
        assert!(out.is_empty());
        let (out, _) = tree.merge(vec![sorted_run(5, 1, 7)]);
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn skewed_input_lengths() {
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 2,
            ..Default::default()
        });
        let inputs = vec![
            sorted_run(0, 1, 1000),
            sorted_run(5000, 1, 3),
            sorted_run(6000, 1, 1),
            sorted_run(7000, 1, 50),
        ];
        let (out, _) = tree.merge(inputs);
        assert_eq!(out.len(), 1054);
        assert!(is_sorted_unique(&out));
    }

    #[test]
    fn comparator_ops_scale_with_cycles() {
        let tree = MergeTree::new(MergeTreeConfig::default());
        let small = tree.merge((0..8).map(|k| sorted_run(k, 8, 10)).collect()).1;
        let large = tree
            .merge((0..8).map(|k| sorted_run(k, 8, 1000)).collect())
            .1;
        assert!(large.comparator_ops > small.comparator_ops);
        assert!(large.cycles > small.cycles);
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_inputs_rejected() {
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 1,
            ..Default::default()
        });
        let _ = tree.merge(vec![vec![], vec![], vec![]]);
    }

    #[test]
    #[should_panic(expected = "not sorted")]
    fn unsorted_input_rejected() {
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 1,
            ..Default::default()
        });
        let bad = vec![
            MergeItem {
                coord: 5,
                value: 1.0,
            },
            MergeItem {
                coord: 1,
                value: 1.0,
            },
        ];
        let _ = tree.merge(vec![bad]);
    }

    #[test]
    fn streaming_feed_matches_batch_merge() {
        // Feed the same streams element by element through push_leaf while
        // the tree runs; output and element counts must match batch mode.
        let config = MergeTreeConfig {
            layers: 2,
            ..Default::default()
        };
        let inputs: Vec<Vec<MergeItem>> = (0..4).map(|k| sorted_run(k, 4, 200)).collect();
        let (batch_out, _) = MergeTree::new(config).merge(inputs.clone());

        let mut sim = MergeTreeSim::new(config);
        let mut cursors = vec![0usize; inputs.len()];
        let mut clock = Clock::new();
        loop {
            sim.clock_update();
            for (k, input) in inputs.iter().enumerate() {
                // A few pushes per cycle, respecting backpressure.
                for _ in 0..4 {
                    if cursors[k] >= input.len() {
                        sim.finish_leaf(k);
                        break;
                    }
                    match sim.push_leaf(k, input[cursors[k]]) {
                        Ok(()) => cursors[k] += 1,
                        Err(_) => break,
                    }
                }
            }
            sim.clock_apply();
            clock.tick(&mut []); // external cycle counter only
            if sim.is_done() {
                break;
            }
            assert!(
                clock.cycles() < 100_000,
                "streaming feed failed to converge"
            );
        }
        assert_eq!(sim.output(), &batch_out[..]);
    }

    #[test]
    fn high_water_mark_is_recorded() {
        let tree = MergeTree::new(MergeTreeConfig::default());
        let inputs: Vec<Vec<MergeItem>> = (0..64).map(|k| sorted_run(k as u64, 64, 50)).collect();
        let (_, stats) = tree.merge(inputs);
        assert!(
            stats.fifo_high_water > 0,
            "preloaded leaves must register FIFO pressure"
        );
    }
}
