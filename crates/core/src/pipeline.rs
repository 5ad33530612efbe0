//! Round execution: the multiply → merge-tree → adder/zero-eliminator →
//! writer pipeline (paper §II-E, Figure 10), and its per-round cost model.
//!
//! The functional half ([`RowFold`], behind [`kway_merge_fold`]) produces
//! the round's merged stream bit for bit; the engine crate's `MergeTree`
//! is the cycle-level model of the same computation and the two are
//! cross-validated in `tests/merge_contract.rs`. The timing half
//! ([`RoundCost`]) reproduces the simulator's per-round cycle estimate: a
//! round is bound either by DRAM bandwidth or by the merge tree's root
//! throughput, plus startup latencies (DRAM access, tree pipeline fill,
//! look-ahead FIFO fill).
//!
//! # The functional model is a row-wise fold
//!
//! The hardware merges its inputs by comparing packed `(row, col)`
//! coordinates. The model computes the same stream as software Gustavson
//! does (the row-wise accumulation SparseZipper argues is the CPU's way to
//! do SpGEMM's merge): it visits output rows in ascending order, adds every
//! input's segment for the row into a sparse accumulator
//! (`sparch_sparse::algo::Spa`, the one the Gustavson kernel uses), and
//! emits the row's occupied columns in ascending order. The result is the
//! comparator merge's, bit for bit:
//!
//! * Each coordinate receives its items in `(input, position)` order — the
//!   order a left-to-right merge tree (or a heap tie-broken by input then
//!   position) folds duplicates in — because inputs are visited in plan
//!   order within a row and each segment in stream order.
//! * A row of at most `SHORT_ROW` items sorts them by `(column, arrival)`
//!   and folds each column from its first item, as the merge's first push
//!   does. A longer row adds into a value array that holds `-0.0` in
//!   every unoccupied slot; `-0.0 + x` is exactly `x` for every `x`
//!   (signed zeros included), so a coordinate's first item lands
//!   unchanged there too, and later items are added exactly as the
//!   merge's adder adds them. The row is emitted by walking a two-level
//!   occupancy bitmap, so no occupied-column list is sorted.
//! * Every input item is either a coordinate's first or one addition, so
//!   the adds are inputs − outputs, as in the merge.
//!
//! Inputs are picked per row by a winner tree keyed `(head row, input)`,
//! so a round costs O(items + segments · log inputs), independent of the
//! number of rows an input skips.

use crate::condense::CondensedElement;
use serde::{Deserialize, Serialize};
use sparch_engine::MergeItem;
use sparch_sparse::algo::{Spa, SHORT_ROW};
use sparch_sparse::{Csr, Index};

/// One input of a round's fold.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FoldInput<'s> {
    /// A coordinate-sorted stream: a partial result read back from DRAM.
    Stream(&'s [MergeItem]),
    /// A left-matrix column (elements in ascending row order) whose
    /// stream is each element times the `B` row it selects — produced on
    /// the fly, as the multiplier array feeds the tree.
    Leaf(&'s [CondensedElement], &'s Csr),
}

/// Winner-tree key of an input that has nothing left.
const EXHAUSTED: u64 = u64::MAX;

/// Calls `f(col, value)` for every item of `source` in `[start, end)`, in
/// stream order (a leaf's products are made here).
#[inline]
fn for_each_item<F: FnMut(Index, f64)>(source: FoldInput<'_>, start: usize, end: usize, mut f: F) {
    match source {
        FoldInput::Stream(s) => {
            for item in &s[start..end] {
                f(item.col(), item.value);
            }
        }
        FoldInput::Leaf(elements, b) => {
            for e in &elements[start..end] {
                let (cols, vals) = b.row(e.orig_col as usize);
                for (&c, &v) in cols.iter().zip(vals) {
                    f(c, e.value * v);
                }
            }
        }
    }
}

/// End of `source`'s segment for row `r` starting at `start`, and the
/// number of items in it.
fn segment_end(source: FoldInput<'_>, start: usize, r: Index) -> (usize, usize) {
    match source {
        FoldInput::Stream(s) => {
            let n = s[start..].iter().take_while(|item| item.row() == r).count();
            (start + n, n)
        }
        FoldInput::Leaf(elements, b) => {
            let mut end = start;
            let mut n = 0;
            while end < elements.len() && elements[end].row == r {
                n += b.row_nnz(elements[end].orig_col as usize);
                end += 1;
            }
            (end, n)
        }
    }
}

/// Winner-tree key of input `k` whose first unconsumed position is `pos`.
fn head_key(source: FoldInput<'_>, pos: usize, k: usize) -> u64 {
    let row = match source {
        FoldInput::Stream(s) => s.get(pos).map(MergeItem::row),
        FoldInput::Leaf(elements, _) => elements.get(pos).map(|e| e.row),
    };
    row.map_or(EXHAUSTED, |r| (u64::from(r) << 32) | k as u64)
}

/// The row-wise merge-fold and its reusable state (see the module docs).
///
/// After one call at a given width and fan-in, further calls allocate
/// nothing beyond growth of `out`.
#[derive(Debug, Default)]
pub(crate) struct RowFold {
    /// The accumulator every row folds through.
    spa: Spa,
    /// The current row's segments `(input, start, end)`, in input order.
    segments: Vec<(usize, usize, usize)>,
    /// Per input: position of its first unconsumed item (or element).
    cursors: Vec<usize>,
    /// Winner tree over the inputs' head keys `(row << 32) | input`:
    /// leaves at `[cap, 2 cap)`, the minimum at index 1.
    tree: Vec<u64>,
}

impl RowFold {
    /// Folds inputs `0..num_inputs` (looked up through `input`) into
    /// `out`, which is cleared first. Every output column must be below
    /// `width`. Returns the number of additions performed.
    pub(crate) fn fold<'s, I>(
        &mut self,
        num_inputs: usize,
        input: I,
        width: usize,
        out: &mut Vec<MergeItem>,
    ) -> u64
    where
        I: Fn(usize) -> FoldInput<'s>,
    {
        out.clear();
        if num_inputs == 0 {
            return 0;
        }
        self.spa.grow(width);
        self.cursors.clear();
        self.cursors.resize(num_inputs, 0);
        let cap = num_inputs.next_power_of_two();
        self.tree.clear();
        self.tree.resize(2 * cap, EXHAUSTED);
        for k in 0..num_inputs {
            let source = input(k);
            if let FoldInput::Stream(s) = source {
                debug_assert!(
                    sparch_engine::item::is_sorted(s),
                    "input {k} is not sorted by coordinate"
                );
            }
            self.tree[cap + k] = head_key(source, 0, k);
        }
        for i in (1..cap).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }

        let mut items = 0usize;
        while self.tree[1] != EXHAUSTED {
            // Take every input whose head is row r, in input order.
            let r = (self.tree[1] >> 32) as Index;
            let mut row_items = 0;
            self.segments.clear();
            while self.tree[1] != EXHAUSTED && (self.tree[1] >> 32) as Index == r {
                let k = (self.tree[1] & u64::from(u32::MAX)) as usize;
                let source = input(k);
                let start = self.cursors[k];
                let (end, n) = segment_end(source, start, r);
                row_items += n;
                self.cursors[k] = end;
                self.segments.push((k, start, end));
                let mut i = cap + k;
                self.tree[i] = head_key(source, end, k);
                while i > 1 {
                    i /= 2;
                    self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
                }
            }
            items += row_items;

            let Self { spa, segments, .. } = self;
            let mut emit = |c, v| out.push(MergeItem::new(r, c, v));
            if row_items <= SHORT_ROW {
                let mut row = spa.short_row();
                for &(k, start, end) in segments.iter() {
                    for_each_item(input(k), start, end, |c, x| row.add(c, x));
                }
                row.drain(&mut emit);
            } else {
                let mut row = spa.wide_row();
                for &(k, start, end) in segments.iter() {
                    for_each_item(input(k), start, end, |c, x| row.add(c, x));
                }
                row.drain(&mut emit);
            }
        }
        (items - out.len()) as u64
    }
}

/// Merges `k` sorted streams into one, folding duplicate coordinates
/// (adder slice) and dropping nothing else. Returns the stream and the
/// number of additions performed.
///
/// This is the functional model of one merge-tree round — the simulator's
/// own row-wise fold (see the module docs), sized to the largest column
/// present. The engine crate's `MergeTree` is the cycle-level model of
/// the same computation, and both enforce the same input contract —
/// streams sorted by packed coordinate (`sparch_engine::item::is_sorted`)
/// — so they are interchangeable and cross-validated (see
/// `tests/merge_contract.rs`).
///
/// The accumulator holds one slot per column up to the largest column
/// present, so memory is proportional to that column, not to the inputs.
///
/// # Panics
///
/// Panics in debug builds if an input stream is not sorted by coordinate.
pub fn kway_merge_fold(streams: &[&[MergeItem]]) -> (Vec<MergeItem>, u64) {
    let mut out = Vec::new();
    let adds = kway_merge_fold_into(streams, &mut out);
    (out, adds)
}

/// Like [`kway_merge_fold`], but appends into a caller-provided buffer
/// (cleared first), so repeated merges can reuse one allocation. Returns
/// the number of additions performed.
///
/// The simulator's round hot path runs the same fold over state kept in
/// [`crate::SimScratch`]; after a warm-up run it performs no heap
/// allocation at all.
///
/// # Panics
///
/// Panics in debug builds if an input stream is not sorted by coordinate.
pub fn kway_merge_fold_into(streams: &[&[MergeItem]], out: &mut Vec<MergeItem>) -> u64 {
    let width = streams
        .iter()
        .flat_map(|s| s.iter())
        .map(|item| item.col() as usize + 1)
        .max()
        .unwrap_or(0);
    RowFold::default().fold(streams.len(), |k| FoldInput::Stream(streams[k]), width, out)
}

/// Inputs to the per-round cycle model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundCost {
    /// Scalar multiplications performed by the multiplier array.
    pub multiplies: u64,
    /// Elements entering the merge tree (leaf + partial streams).
    pub input_elements: u64,
    /// Elements leaving the root after folding.
    pub output_elements: u64,
    /// DRAM bytes moved (all categories).
    pub dram_bytes: u64,
    /// Left-matrix elements streamed this round (fills the look-ahead
    /// FIFO).
    pub mat_a_elements: u64,
    /// Prefetch-buffer line misses this round (replacement-logic
    /// occupancy).
    pub line_misses: u64,
    /// Row fetches that pay unhidden DRAM latency (prefetcher disabled).
    pub unhidden_fetches: u64,
}

/// Architectural constants the cost model needs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostParams {
    /// DRAM bytes per cycle (128 for Table I's HBM).
    pub bytes_per_cycle: f64,
    /// DRAM access latency in cycles.
    pub dram_latency: u64,
    /// Merge-tree layers (pipeline depth).
    pub tree_layers: usize,
    /// Merger throughput in elements per cycle.
    pub merger_width: usize,
    /// Parallel multipliers.
    pub multipliers: usize,
    /// Look-ahead FIFO depth in elements.
    pub lookahead: usize,
    /// Buffer lines (replacement-logic depth grows with `log2(lines)`).
    pub buffer_lines: usize,
    /// Independent DRAM-channel fetchers (latency overlap factor).
    pub fetchers: usize,
}

impl CostParams {
    /// Cycles for one round: `max(memory-bound, compute-bound) + startup`.
    pub fn round_cycles(&self, cost: &RoundCost) -> u64 {
        let mem = (cost.dram_bytes as f64 / self.bytes_per_cycle).ceil() as u64;
        let compute = (cost.multiplies.div_ceil(self.multipliers as u64))
            .max(cost.input_elements.div_ceil(self.merger_width as u64))
            .max(cost.output_elements.div_ceil(self.merger_width as u64));
        mem.max(compute) + self.startup_cycles(cost) + self.overheads(cost)
    }

    /// Per-round startup: first DRAM access latency, merge-tree pipeline
    /// fill, and filling the look-ahead FIFO before multiply can start
    /// ("we need more time to fill the larger FIFO at the start of each
    /// round", §III-D).
    pub fn startup_cycles(&self, cost: &RoundCost) -> u64 {
        let tree_fill = (self.tree_layers as u64) * 4;
        let elements_per_cycle = self.bytes_per_cycle / 12.0;
        let fill_elements = (self.lookahead as u64).min(cost.mat_a_elements);
        let fifo_fill = (fill_elements as f64 / elements_per_cycle).ceil() as u64;
        self.dram_latency + tree_fill + fifo_fill
    }

    /// Serialized overheads: replacement logic occupancy beyond the
    /// 1024-line design point (a reduction tree over line metadata grows
    /// by one level per doubling), and unhidden DRAM latency when the
    /// prefetcher is absent (row fetches stall the multipliers, overlapped
    /// only across the independent channel fetchers).
    pub fn overheads(&self, cost: &RoundCost) -> u64 {
        let extra_levels = (self.buffer_lines.max(1) as f64).log2() - 10.0;
        let replacement = (cost.line_misses as f64 * extra_levels.max(0.0) * 0.6).round() as u64;
        let unhidden =
            cost.unhidden_fetches * self.dram_latency / (self.fetchers as u64).max(1) / 4;
        replacement + unhidden
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparch_engine::item::{is_sorted_unique, stream_of};

    #[test]
    fn kway_merge_matches_oracle() {
        let s1 = stream_of(&[(0, 0, 1.0), (0, 5, 2.0), (3, 3, 3.0)]);
        let s2 = stream_of(&[(0, 0, 10.0), (1, 1, 4.0)]);
        let s3 = stream_of(&[(0, 5, -2.0), (9, 9, 1.0)]);
        let (out, adds) = kway_merge_fold(&[&s1, &s2, &s3]);
        assert!(is_sorted_unique(&out));
        assert_eq!(adds, 2);
        assert_eq!(out.len(), 5);
        assert_eq!(out[0].value, 11.0); // (0,0): 1 + 10
        assert_eq!(out[1].value, 0.0); // (0,5): 2 - 2 (kept as explicit zero)
    }

    #[test]
    fn kway_merge_empty_and_single() {
        let (out, adds) = kway_merge_fold(&[]);
        assert!(out.is_empty());
        assert_eq!(adds, 0);
        let s = stream_of(&[(1, 1, 1.0)]);
        let (out, _) = kway_merge_fold(&[&s]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn into_variant_matches_and_reuses_buffer() {
        let s1 = stream_of(&[(0, 0, 1.0), (2, 2, 2.0)]);
        let s2 = stream_of(&[(0, 0, 3.0), (1, 1, 4.0)]);
        let (expected, expected_adds) = kway_merge_fold(&[&s1, &s2]);
        let mut out = Vec::new();
        let adds = kway_merge_fold_into(&[&s1, &s2], &mut out);
        assert_eq!(out, expected);
        assert_eq!(adds, expected_adds);
        // A second merge into the same buffer replaces the contents.
        let adds2 = kway_merge_fold_into(&[&s2], &mut out);
        assert_eq!(adds2, 0);
        assert_eq!(out, s2);
    }

    #[test]
    fn kway_merge_matches_engine_tree() {
        use sparch_engine::{MergeTree, MergeTreeConfig};
        let streams: Vec<Vec<MergeItem>> = (0..8)
            .map(|k| {
                (0..40u32)
                    .map(|i| MergeItem::new(i, k, 1.0 + k as f64))
                    .collect()
            })
            .collect();
        let refs: Vec<&[MergeItem]> = streams.iter().map(|s| s.as_slice()).collect();
        let (fast, _) = kway_merge_fold(&refs);
        let tree = MergeTree::new(MergeTreeConfig {
            layers: 3,
            ..Default::default()
        });
        let (slow, _) = tree.merge(streams.clone());
        assert_eq!(fast, slow, "functional and cycle models must agree");
    }

    /// Sort-based oracle: every item keyed `(coord, input, position)` and
    /// folded in key order — the comparator merge's order.
    fn sorted_oracle(streams: &[&[MergeItem]]) -> (Vec<MergeItem>, u64) {
        let mut all: Vec<(u64, usize, usize, f64)> = streams
            .iter()
            .enumerate()
            .flat_map(|(k, s)| {
                s.iter()
                    .enumerate()
                    .map(move |(p, e)| (e.coord, k, p, e.value))
            })
            .collect();
        all.sort_by_key(|&(coord, k, p, _)| (coord, k, p));
        let mut out: Vec<MergeItem> = Vec::new();
        let mut adds = 0;
        for (coord, _, _, value) in all {
            match out.last_mut() {
                Some(last) if last.coord == coord => {
                    last.value += value;
                    adds += 1;
                }
                _ => out.push(MergeItem { coord, value }),
            }
        }
        (out, adds)
    }

    fn bits(s: &[MergeItem]) -> Vec<(u64, u64)> {
        s.iter().map(|e| (e.coord, e.value.to_bits())).collect()
    }

    /// Five inputs over 24 rows; row `r` carries about `3 r` items per
    /// input (duplicates within an input included), so rows fall on both
    /// sides of `SHORT_ROW`. Every input draws from the same columns, so
    /// most coordinates collect several items, and values of mixed
    /// magnitude and sign make their addition order visible in the bits.
    fn mixed_streams() -> Vec<Vec<MergeItem>> {
        (0..5u32)
            .map(|k| {
                let mut s = Vec::new();
                for r in 0..24u32 {
                    let mut cols: Vec<u32> =
                        (0..(r * 3 + k) % 40).map(|i| (i * 7 + r) % 50).collect();
                    cols.sort_unstable();
                    for (i, c) in cols.into_iter().enumerate() {
                        let v = match (i + k as usize) % 5 {
                            0 => -0.0,
                            1 => 1e16,
                            2 => -1e16 + 1.0,
                            _ => 0.1 * (i as f64 + 1.0),
                        };
                        s.push(MergeItem::new(r, c, v));
                    }
                }
                s
            })
            .collect()
    }

    #[test]
    fn short_and_accumulated_rows_fold_like_the_comparator_merge() {
        let streams = mixed_streams();
        let refs: Vec<&[MergeItem]> = streams.iter().map(|s| s.as_slice()).collect();
        let (want, want_adds) = sorted_oracle(&refs);
        let (got, adds) = kway_merge_fold(&refs);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(adds, want_adds);
    }

    #[test]
    fn first_item_lands_unchanged_including_negative_zero() {
        let neg_zero = (-0.0f64).to_bits();
        // One item per row (a short row) and 40 in one row (accumulated).
        for (rows, cols) in [(3u32, 1u32), (1, 40)] {
            let neg: Vec<MergeItem> = (0..rows)
                .flat_map(|r| (0..cols).map(move |c| MergeItem::new(r, c, -0.0)))
                .collect();
            let (out, _) = kway_merge_fold(&[&neg]);
            assert!(out.iter().all(|e| e.value.to_bits() == neg_zero));
            let (out, adds) = kway_merge_fold(&[&neg, &neg]);
            assert_eq!(adds, neg.len() as u64);
            assert!(out.iter().all(|e| e.value.to_bits() == neg_zero));
        }
    }

    #[test]
    fn leaf_inputs_fold_like_their_materialised_streams() {
        use crate::condense::CondensedView;
        let a = sparch_sparse::gen::rmat_graph500(64, 6, 3);
        let b = sparch_sparse::gen::rmat_graph500(64, 6, 4);
        let view = CondensedView::new(&a);
        let leaves: Vec<Vec<CondensedElement>> = (0..view.num_cols())
            .map(|j| view.col(j).collect())
            .collect();
        let streams: Vec<Vec<MergeItem>> = leaves
            .iter()
            .map(|col| {
                col.iter()
                    .flat_map(|e| {
                        let (cols, vals) = b.row(e.orig_col as usize);
                        cols.iter()
                            .zip(vals)
                            .map(move |(&c, &v)| MergeItem::new(e.row, c, e.value * v))
                    })
                    .collect()
            })
            .collect();
        let refs: Vec<&[MergeItem]> = streams.iter().map(|s| s.as_slice()).collect();
        let (want, want_adds) = sorted_oracle(&refs);

        let mut out = Vec::new();
        let adds = RowFold::default().fold(
            leaves.len(),
            |k| FoldInput::Leaf(&leaves[k], &b),
            b.cols(),
            &mut out,
        );
        assert_eq!(bits(&out), bits(&want));
        assert_eq!(adds, want_adds);
    }

    fn params() -> CostParams {
        CostParams {
            bytes_per_cycle: 128.0,
            dram_latency: 64,
            tree_layers: 6,
            merger_width: 16,
            multipliers: 16,
            lookahead: 8192,
            buffer_lines: 1024,
            fetchers: 16,
        }
    }

    #[test]
    fn memory_bound_round() {
        let cost = RoundCost {
            multiplies: 100,
            input_elements: 100,
            output_elements: 80,
            dram_bytes: 128_000,
            mat_a_elements: 0,
            ..Default::default()
        };
        let cycles = params().round_cycles(&cost);
        // 1000 memory cycles dominate the ~7 compute cycles.
        assert!(cycles >= 1000 + 64);
        assert!(cycles < 1200);
    }

    #[test]
    fn compute_bound_round() {
        let cost = RoundCost {
            multiplies: 160_000,
            input_elements: 160_000,
            output_elements: 100_000,
            dram_bytes: 1280,
            ..Default::default()
        };
        let cycles = params().round_cycles(&cost);
        assert!(cycles >= 10_000, "16e4 multiplies / 16 per cycle");
    }

    #[test]
    fn lookahead_fill_charged_once_per_round() {
        let mut p = params();
        let cost = RoundCost {
            mat_a_elements: 100_000,
            ..Default::default()
        };
        let small = p.startup_cycles(&cost);
        p.lookahead = 16384;
        let large = p.startup_cycles(&cost);
        assert!(large > small, "bigger look-ahead FIFO fills longer");
    }

    #[test]
    fn unhidden_latency_penalizes_missing_prefetcher() {
        let p = params();
        let cost = RoundCost {
            unhidden_fetches: 10_000,
            ..Default::default()
        };
        assert!(p.overheads(&cost) > 0);
        let cost_hidden = RoundCost::default();
        assert_eq!(p.overheads(&cost_hidden), 0);
    }

    #[test]
    fn replacement_overhead_only_beyond_design_point() {
        let mut p = params();
        let cost = RoundCost {
            line_misses: 100_000,
            ..Default::default()
        };
        assert_eq!(p.overheads(&cost), 0, "1024 lines is the design point");
        p.buffer_lines = 4096;
        assert!(p.overheads(&cost) > 0);
    }
}
