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
//! coordinates. The model computes the same stream through the one
//! row-wise fold the product's merge rounds run too,
//! [`sparch_sparse::algo::fold_rows`]: it visits output rows in ascending
//! order, copies a run of rows one input alone holds straight through,
//! and adds every input's segment of a shared row into the sparse
//! accumulator the Gustavson kernel uses. Each coordinate receives its
//! items in `(input, position)` order — the order a left-to-right merge
//! tree (or a heap tie-broken by input then position) folds duplicates
//! in — so the result is the comparator merge's, bit for bit. Every input
//! item is either a coordinate's first or one addition, so the adds are
//! inputs − outputs, as in the merge.
//!
//! A round's inputs are [`FoldInput`]s: earlier rounds' output streams,
//! and fresh left-matrix columns whose products are made as the fold
//! consumes them, as the multiplier array feeds the tree.

use crate::condense::CondensedElement;
use serde::{Deserialize, Serialize};
use sparch_engine::MergeItem;
use sparch_sparse::algo::{fold_rows, FoldScratch, RowSources};
use sparch_sparse::Csr;
use std::convert::Infallible;

/// One input of a round's fold.
#[derive(Debug, Clone, Copy)]
pub(crate) enum FoldInput<'s> {
    /// A coordinate-sorted stream: a partial result read back from DRAM.
    Stream(&'s [MergeItem]),
    /// A left-matrix column (one element per row, in ascending row order)
    /// whose stream is each element times the `B` row it selects —
    /// produced on the fly, as the multiplier array feeds the tree.
    Leaf(&'s [CondensedElement], &'s Csr),
}

impl FoldInput<'_> {
    /// Row of unit `pos` — an item or an element — if there is one.
    fn row(self, pos: usize) -> Option<u64> {
        match self {
            FoldInput::Stream(s) => s.get(pos).map(|item| item.coord >> 32),
            FoldInput::Leaf(elements, _) => elements.get(pos).map(|e| u64::from(e.row)),
        }
    }

    /// Feeds every entry of the units from `pos` in rows below `limit` to
    /// `f` (a leaf's products are made here) and returns how many units
    /// that was.
    fn feed(self, pos: usize, limit: u64, mut f: impl FnMut(u64, f64)) -> usize {
        let mut n = 0;
        match self {
            FoldInput::Stream(s) => {
                for item in s[pos..].iter().take_while(|x| x.coord >> 32 < limit) {
                    f(item.coord, item.value);
                    n += 1;
                }
            }
            FoldInput::Leaf(elements, b) => {
                for e in elements[pos..]
                    .iter()
                    .take_while(|e| u64::from(e.row) < limit)
                {
                    let (cols, vals) = b.row(e.orig_col as usize);
                    for (&c, &v) in cols.iter().zip(vals) {
                        f(u64::from(e.row) << 32 | u64::from(c), e.value * v);
                    }
                    n += 1;
                }
            }
        }
        n
    }
}

/// A round's inputs as the fold's sources: input `k` is `input(k)`,
/// consumed up to unit `cursors[k]`.
struct Inputs<'c, I> {
    input: I,
    cursors: &'c mut [usize],
}

impl<'s, I: Fn(usize) -> FoldInput<'s>> RowSources for Inputs<'_, I> {
    type Error = Infallible;

    fn count(&self) -> usize {
        self.cursors.len()
    }

    fn buffered(&self, k: usize) -> (usize, bool) {
        let pos = self.cursors[k];
        let n = match (self.input)(k) {
            FoldInput::Stream(s) => {
                let row = s[pos].coord >> 32;
                s[pos..].iter().take_while(|x| x.coord >> 32 == row).count()
            }
            FoldInput::Leaf(elements, b) => b.row_nnz(elements[pos].orig_col as usize),
        };
        (n, true)
    }

    fn feed(
        &mut self,
        k: usize,
        limit: u64,
        f: impl FnMut(u64, f64),
    ) -> Result<Option<u64>, Infallible> {
        let input = (self.input)(k);
        self.cursors[k] += input.feed(self.cursors[k], limit, f);
        Ok(input.row(self.cursors[k]))
    }

    /// A stream may repeat a coordinate: its values are added from the
    /// first, as a shared row's accumulator would add them.
    fn copy(
        &mut self,
        k: usize,
        limit: u64,
        mut f: impl FnMut(u64, f64),
    ) -> Result<Option<u64>, Infallible> {
        let FoldInput::Stream(s) = (self.input)(k) else {
            return self.feed(k, limit, f);
        };
        let run = &s[self.cursors[k]..];
        let run = &run[..run.iter().take_while(|x| x.coord >> 32 < limit).count()];
        for same in run.chunk_by(|x, y| x.coord == y.coord) {
            f(
                same[0].coord,
                same[1..].iter().fold(same[0].value, |sum, x| sum + x.value),
            );
        }
        self.cursors[k] += run.len();
        Ok(s.get(self.cursors[k]).map(|x| x.coord >> 32))
    }
}

/// Folds inputs `0..num_inputs` (looked up through `input`) into `out`,
/// which is cleared first, through `fold` with `cursors` as the inputs'
/// positions. Every output column must be below `width`.
pub(crate) fn fold_round<'s>(
    num_inputs: usize,
    input: impl Fn(usize) -> FoldInput<'s>,
    width: usize,
    fold: &mut FoldScratch,
    cursors: &mut Vec<usize>,
    out: &mut Vec<MergeItem>,
) {
    out.clear();
    cursors.clear();
    cursors.resize(num_inputs, 0);
    debug_assert!(
        (0..num_inputs).all(|k| match input(k) {
            FoldInput::Stream(s) => sparch_engine::item::is_sorted(s),
            FoldInput::Leaf(elements, _) => elements.windows(2).all(|w| w[0].row < w[1].row),
        }),
        "an input is not sorted by coordinate, or a leaf holds a row twice"
    );
    let mut inputs = Inputs { input, cursors };
    let emit = |r, c, v| out.push(MergeItem::new(r, c, v));
    let Ok(()) = fold_rows(&mut inputs, width, fold, emit);
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
    let items = streams.iter().map(|s| s.len()).sum::<usize>();
    let width = streams
        .iter()
        .flat_map(|s| s.iter())
        .map(|item| item.col() as usize + 1)
        .max()
        .unwrap_or(0);
    let (fold, cursors) = (&mut FoldScratch::default(), &mut Vec::new());
    fold_round(
        streams.len(),
        |k| FoldInput::Stream(streams[k]),
        width,
        fold,
        cursors,
        out,
    );
    (items - out.len()) as u64
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
    use sparch_sparse::algo::SHORT_ROW;

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

    /// Rows 0 and 2 belong to the first stream alone, so they are copied
    /// through, and it repeats coordinates there: each must still be
    /// folded from its first item, in stream order.
    #[test]
    fn a_lone_stream_folds_its_repeated_coordinates() {
        let s1 = stream_of(&[
            (0, 0, 1e16),
            (0, 0, 1.0),
            (0, 0, -1e16),
            (0, 3, -0.0),
            (0, 3, -0.0),
            (2, 1, 0.1),
            (2, 1, 0.2),
        ]);
        let s2 = stream_of(&[(1, 0, 5.0)]);
        let refs: [&[MergeItem]; 2] = [&s1, &s2];
        let (want, want_adds) = sorted_oracle(&refs);
        let (got, adds) = kway_merge_fold(&refs);
        assert_eq!(bits(&got), bits(&want));
        assert_eq!((got.len(), adds), (4, want_adds));
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

    /// Rows `0..5` of a 10 × 3 matrix hold one entry each, in column 0,
    /// and rows `5..10` one in every column; row 0 of the 3 × 48 right
    /// matrix is full, so the first condensed leaf alone owns a run of five
    /// rows of 48 products each, wider than `SHORT_ROW`, before all three
    /// leaves share the rest. Values of both mix signed zeros with
    /// magnitudes whose sums round, so `-0.0` products land in the copied
    /// run and in shared rows.
    fn lone_wide_run() -> (Csr, Csr) {
        let zeros = |n: usize| match n % 5 {
            0 => -0.0,
            1 => 1e16,
            2 => -1e16 + 1.0,
            3 => 0.0,
            _ => 0.1 * n as f64,
        };
        let a_cols: Vec<u32> = (0..10)
            .flat_map(|r| if r < 5 { 0..1 } else { 0..3 })
            .collect();
        let a_vals = (0..a_cols.len())
            .map(|n| [-1.0, 0.5, -0.0][n % 3])
            .collect();
        let a_ptr = (0..=10)
            .map(|r: usize| r.min(5) + 3 * r.saturating_sub(5))
            .collect();
        let a = Csr::try_new(10, 3, a_ptr, a_cols, a_vals).unwrap();
        let b_cols: Vec<u32> = (0..48).chain(4..44).chain((0..10).map(|c| 3 * c)).collect();
        let b_vals = (0..b_cols.len()).map(zeros).collect();
        let b = Csr::try_new(3, 48, vec![0, 48, 88, 98], b_cols, b_vals).unwrap();
        (a, b)
    }

    #[test]
    fn leaf_inputs_fold_like_their_materialised_streams() {
        use crate::condense::CondensedView;
        let rmat = |seed| sparch_sparse::gen::rmat_graph500(64, 6, seed);
        for (a, b) in [(rmat(3), rmat(4)), lone_wide_run()] {
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
            let (fold, cursors) = (&mut FoldScratch::default(), &mut Vec::new());
            let input = |k: usize| FoldInput::Leaf(leaves[k].as_slice(), &b);
            fold_round(leaves.len(), input, b.cols(), fold, cursors, &mut out);
            assert_eq!(bits(&out), bits(&want));
            let items: usize = streams.iter().map(Vec::len).sum();
            assert_eq!((items - out.len()) as u64, want_adds);
        }
        // The hand-built pair does reach the path it is built for.
        let (a, b) = lone_wide_run();
        let view = CondensedView::new(&a);
        assert_eq!(
            (view.num_cols(), view.col(0).count(), b.row_nnz(0)),
            (3, 10, 48)
        );
        assert!(view.col(1).all(|e| e.row >= 5) && 48 > SHORT_ROW);
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
