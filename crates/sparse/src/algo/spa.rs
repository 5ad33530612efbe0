//! The sparse accumulator (SPA) shared by every row-wise fold in the
//! workspace. It has two users:
//!
//! * the Gustavson kernel (`algo::gustavson`), which folds products;
//! * [`fold_rows`](super::fold_rows), the one merge of sorted streams,
//!   which folds the rows two or more of its sources share — for the
//!   simulator's merge rounds and the streaming pipeline's alike.
//!
//! Each folds one output row at a time from items that arrive in no
//! particular column order, and each must emit the row in ascending
//! column order with each slot's values added in arrival order. A
//! [`Spa`] serves two row classes, picked by the caller from the row's
//! product count:
//!
//! * **Short rows** ([`Spa::short_row`], at most [`SHORT_ROW`] products)
//!   never touch the dense arrays. Each product is keyed
//!   `(col << 32) | arrival`, the keys are sorted and equal columns are
//!   folded in arrival order. A short row's handful of products, spread
//!   over a wide span, sorts faster than it would walk the bitmap below.
//! * **Wide rows** ([`Spa::wide_row`]) add into a dense value array and
//!   record occupancy in a two-level bitmap: one bit per column
//!   (`words`) and one bit per word (`summary`). The row is emitted by
//!   walking `summary`, then `words`, with `trailing_zeros`, which visits
//!   the occupied columns in ascending order, and each bit and slot is
//!   cleared as it is emitted. No column list is kept, nothing is sorted
//!   and no per-row stamp is needed to tell rows apart.
//!
//! Two invariants hold between rows, and the unit tests check both after
//! every drain:
//!
//! * **Every value slot holds `-0.0`**, IEEE-754's additive identity:
//!   `-0.0 + x` has the bits of `x` for every `x`, signed zeros included.
//!   A slot's first product is therefore the same `+=` as every later
//!   one, and lands with exactly the bits the short-row fold gives it.
//! * **Every bitmap word is zero.**
//!
//! A wide row sets occupancy bits once per 64-column word, not once per
//! product. Single products keep the pending word and its mask in the
//! row and OR them into `words` and `summary` only when a product lands
//! in another word or the row is drained: setting a bit per product
//! chains every product of a dense row through a store and a reload of
//! the same word. A group of products whose columns are known in advance
//! — a `B` row in the Gustavson kernel — is marked from its precomputed
//! [`word_masks`], one OR per word, with no per-product bit work at all.

use crate::Index;

/// Rows with at most this many products fold through a short row, sorted
/// by column; longer rows go through the dense value array's bitmap.
pub const SHORT_ROW: usize = 32;

/// Bits in one bitmap word.
const BITS: usize = u64::BITS as usize;

/// A reusable sparse accumulator; see the module docs.
///
/// Buffers grow to the widest row seen ([`Spa::grow`]) and are never
/// shrunk or wiped: a drained row leaves them in their between-rows
/// state, so rows of any width can follow with no clearing.
#[derive(Debug, Default)]
pub struct Spa {
    /// One slot per column, `-0.0` between rows.
    values: Vec<f64>,
    /// One occupancy bit per column, zero between rows.
    words: Vec<u64>,
    /// One bit per word of `words` that has a bit set, zero between rows.
    summary: Vec<u64>,
    /// A short row's products keyed `(col << 32) | arrival`: sorting the
    /// keys orders them by column, ties in arrival order.
    short_keys: Vec<u64>,
    /// A short row's products in arrival order.
    short_values: Vec<f64>,
}

impl Spa {
    /// Makes room for columns `0..width`. Returns `true` if any buffer
    /// grew, so a caller can tell a warm call from a cold one.
    pub fn grow(&mut self, width: usize) -> bool {
        let grew = self.values.len() < width || self.short_keys.capacity() < SHORT_ROW;
        if self.values.len() < width {
            self.values.resize(width, -0.0);
            let words = width.div_ceil(BITS);
            self.words.resize(words, 0);
            self.summary.resize(words.div_ceil(BITS), 0);
        }
        self.short_keys.reserve(SHORT_ROW);
        self.short_values.reserve(SHORT_ROW);
        grew
    }

    /// Starts a row of at most [`SHORT_ROW`] products.
    pub fn short_row(&mut self) -> ShortRow<'_> {
        ShortRow {
            keys: &mut self.short_keys,
            values: &mut self.short_values,
        }
    }

    /// Starts a row of any length over columns below the width last
    /// passed to [`Spa::grow`].
    pub fn wide_row(&mut self) -> WideRow<'_> {
        WideRow {
            values: &mut self.values,
            words: &mut self.words,
            summary: &mut self.summary,
            word: 0,
            mask: 0,
            lo: usize::MAX,
            hi: 0,
        }
    }
}

/// A short row in flight: products are collected, then sorted and folded
/// by [`ShortRow::drain`].
#[must_use = "a row is emitted only by `drain`"]
#[derive(Debug)]
pub struct ShortRow<'a> {
    keys: &'a mut Vec<u64>,
    values: &'a mut Vec<f64>,
}

impl ShortRow<'_> {
    /// Adds `x` to column `col`.
    #[inline]
    pub fn add(&mut self, col: Index, x: f64) {
        debug_assert!(self.keys.len() < SHORT_ROW, "too many products");
        self.keys
            .push((u64::from(col) << 32) | self.keys.len() as u64);
        self.values.push(x);
    }

    /// Emits `(col, sum)` for every occupied column in ascending order;
    /// each sum is its column's products added in arrival order.
    pub fn drain(self, mut emit: impl FnMut(Index, f64)) {
        self.keys.sort_unstable();
        let value = |key: u64| self.values[key as u32 as usize];
        let mut keys = self.keys.iter();
        if let Some(&key) = keys.next() {
            let (mut col, mut sum) = (key >> 32, value(key));
            for &key in keys {
                if key >> 32 == col {
                    sum += value(key);
                } else {
                    emit(col as Index, sum);
                    (col, sum) = (key >> 32, value(key));
                }
            }
            emit(col as Index, sum);
        }
        self.keys.clear();
        self.values.clear();
    }
}

/// A wide row in flight over the dense value array and the occupancy
/// bitmap; emitted by [`WideRow::drain`].
#[must_use = "a row left undrained leaves its columns occupied"]
#[derive(Debug)]
pub struct WideRow<'a> {
    values: &'a mut [f64],
    words: &'a mut [u64],
    summary: &'a mut [u64],
    /// The word the pending `mask` belongs to.
    word: usize,
    /// Occupancy bits of `word` not yet OR-ed into `words`.
    mask: u64,
    /// Range of `summary` words this row has set bits in, so a drain
    /// walks only those.
    lo: usize,
    hi: usize,
}

impl WideRow<'_> {
    /// Adds `x` to column `col`.
    #[inline]
    pub fn add(&mut self, col: Index, x: f64) {
        let j = col as usize;
        self.values[j] += x;
        let word = j / BITS;
        if word != self.word {
            self.flush();
            self.word = word;
        }
        self.mask |= 1 << (j % BITS);
    }

    /// Adds `a * vb[t]` to column `cols[t]` for every `t` and marks the
    /// columns occupied from `masks`, which must be their [`word_masks`].
    /// The positions in `run`, whose columns must be contiguous, are added
    /// as one slice, which the compiler vectorises. The multiply and the
    /// add stay separate operations, so each slot's rounding is the same
    /// as through [`WideRow::add`].
    #[inline]
    pub(crate) fn add_marked(
        &mut self,
        cols: &[Index],
        a: f64,
        vb: &[f64],
        run: std::ops::Range<usize>,
        masks: &[(Index, u64)],
    ) {
        if !run.is_empty() {
            let j0 = cols[run.start] as usize;
            debug_assert_eq!(cols[run.end - 1] as usize - j0, run.len() - 1);
            let slots = &mut self.values[j0..j0 + run.len()];
            for (v, &b) in slots.iter_mut().zip(&vb[run.clone()]) {
                *v += a * b;
            }
        }
        for outliers in [0..run.start, run.end..cols.len()] {
            for (&j, &b) in cols[outliers.clone()].iter().zip(&vb[outliers]) {
                self.values[j as usize] += a * b;
            }
        }
        for &(word, bits) in masks {
            let word = word as usize;
            self.words[word] |= bits;
            self.summary[word / BITS] |= 1 << (word % BITS);
        }
        if let (Some(first), Some(last)) = (masks.first(), masks.last()) {
            self.lo = self.lo.min(first.0 as usize / BITS);
            self.hi = self.hi.max(last.0 as usize / BITS + 1);
        }
    }

    /// ORs the pending mask into the bitmap.
    #[inline]
    fn flush(&mut self) {
        if self.mask != 0 {
            self.words[self.word] |= self.mask;
            let s = self.word / BITS;
            self.summary[s] |= 1 << (self.word % BITS);
            self.lo = self.lo.min(s);
            self.hi = self.hi.max(s + 1);
            self.mask = 0;
        }
    }

    /// Emits `(col, sum)` for every occupied column in ascending order and
    /// returns the bitmap and the value slots to their between-rows state.
    pub fn drain(mut self, mut emit: impl FnMut(Index, f64)) {
        self.flush();
        for s in self.lo..self.hi {
            let mut occupied_words = std::mem::take(&mut self.summary[s]);
            while occupied_words != 0 {
                let word = s * BITS + occupied_words.trailing_zeros() as usize;
                occupied_words &= occupied_words - 1;
                let mut bits = std::mem::take(&mut self.words[word]);
                while bits != 0 {
                    let j = word * BITS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    emit(j as Index, std::mem::replace(&mut self.values[j], -0.0));
                }
            }
        }
    }
}

/// Appends to `out` the occupancy of the ascending columns `cols` as
/// `(word, bits)` pairs, one per 64-column word they touch, and returns
/// `true` — if `cols` holds at least `density` columns per word touched.
/// Otherwise appends nothing and returns `false`: marking by masks then
/// saves too little per-product bit work to pay for the masks' memory.
pub(crate) fn word_masks(cols: &[Index], density: usize, out: &mut Vec<(Index, u64)>) -> bool {
    let word = |j: Index| j / BITS as Index;
    let touched = usize::from(!cols.is_empty())
        + cols.windows(2).filter(|w| word(w[0]) != word(w[1])).count();
    if touched == 0 || cols.len() < density * touched {
        return false;
    }
    let at = out.len();
    for &j in cols {
        let bit = 1 << (j as usize % BITS);
        match out[at..].last_mut() {
            Some(last) if last.0 == word(j) => last.1 |= bit,
            _ => out.push((word(j), bit)),
        }
    }
    true
}

#[cfg(test)]
impl Spa {
    /// Whether the accumulator is in its between-rows state: every value
    /// slot holds the bits of `-0.0`, and no bitmap word and no short-row
    /// item is left behind.
    pub(crate) fn is_clean(&self) -> bool {
        let neg_zero = (-0.0f64).to_bits();
        self.values.iter().all(|v| v.to_bits() == neg_zero)
            && self.words.iter().all(|&w| w == 0)
            && self.summary.iter().all(|&s| s == 0)
            && self.short_keys.is_empty()
            && self.short_values.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Products in arrival order: one product, or a group of ascending
    /// columns marked from its word masks, of which `cols[run]` is a
    /// contiguous run added as a slice.
    #[derive(Debug, Clone)]
    enum Op {
        Add(Index, f64),
        Marked {
            cols: Vec<Index>,
            a: f64,
            vb: Vec<f64>,
            run: std::ops::Range<usize>,
        },
    }

    /// `n` contiguous columns from `j0` with `before` and `after` as
    /// outliers on either side.
    fn marked(before: &[Index], j0: Index, n: usize, after: &[Index], a: f64) -> Op {
        let mut cols = before.to_vec();
        cols.extend(j0..j0 + n as Index);
        cols.extend(after);
        let vb = (0..cols.len()).map(|t| value(t + j0 as usize)).collect();
        let run = before.len()..before.len() + n;
        Op::Marked { cols, a, vb, run }
    }

    /// Every product of `ops`, in arrival order.
    fn products(ops: &[Op]) -> Vec<(Index, f64)> {
        let mut out = Vec::new();
        for op in ops {
            match op {
                Op::Add(c, x) => out.push((*c, *x)),
                Op::Marked { cols, a, vb, .. } => {
                    out.extend(cols.iter().zip(vb).map(|(&c, &b)| (c, a * b)));
                }
            }
        }
        out
    }

    /// Per column, the products in arrival order folded from the first —
    /// the order both row classes promise.
    fn oracle(ops: &[Op]) -> Vec<(Index, u64)> {
        let mut sums: BTreeMap<Index, f64> = BTreeMap::new();
        for (c, x) in products(ops) {
            sums.entry(c).and_modify(|s| *s += x).or_insert(x);
        }
        sums.into_iter().map(|(c, s)| (c, s.to_bits())).collect()
    }

    /// Runs `ops` as one wide row and, when it is short enough, as one
    /// short row; both must match the oracle bit for bit and leave the
    /// accumulator clean.
    fn check_row(spa: &mut Spa, ops: &[Op], what: &str) {
        let want = oracle(ops);
        let mut got = Vec::new();
        let mut masks = Vec::new();
        let mut row = spa.wide_row();
        for op in ops {
            match op {
                Op::Add(c, x) => row.add(*c, *x),
                Op::Marked { cols, a, vb, run } => {
                    masks.clear();
                    assert_eq!(word_masks(cols, 1, &mut masks), !cols.is_empty());
                    row.add_marked(cols, *a, vb, run.clone(), &masks);
                }
            }
        }
        row.drain(|c, v| got.push((c, v.to_bits())));
        assert_eq!(got, want, "{what}: wide row");
        assert!(spa.is_clean(), "{what}: accumulator left dirty");

        let products = products(ops);
        if products.len() <= SHORT_ROW {
            got.clear();
            let mut row = spa.short_row();
            for (c, x) in products {
                row.add(c, x);
            }
            row.drain(|c, v| got.push((c, v.to_bits())));
            assert_eq!(got, want, "{what}: short row");
            assert!(spa.is_clean(), "{what}: accumulator left dirty");
        }
    }

    /// A value whose sums with its neighbours round, so addition order
    /// shows in the bits.
    fn value(n: usize) -> f64 {
        match n % 4 {
            0 => 1e16,
            1 => -1e16 + 1.0,
            2 => 0.1 * (n as f64 + 1.0),
            _ => -0.3 / (n as f64 + 1.0),
        }
    }

    #[test]
    fn columns_at_word_and_summary_edges() {
        let mut spa = Spa::default();
        for width in [4098, 4100, 5000, 8193, 12_345] {
            spa.grow(width);
            let edges = [0, 63, 64, 4095, 4096, 4097, width as Index - 1];
            // Descending, then ascending, then a middle column again: the
            // pending word changes on almost every product.
            let mut ops: Vec<Op> = Vec::new();
            for (n, &c) in edges.iter().rev().chain(&edges).enumerate() {
                ops.push(Op::Add(c, value(n)));
            }
            ops.push(Op::Add(4096, value(99)));
            check_row(&mut spa, &ops, &format!("width {width}"));
            // The same columns marked as one group.
            let group = marked(&edges[..3], 4095, 3, &edges[6..], 0.5);
            check_row(&mut spa, &[group], &format!("width {width}, marked"));
        }
    }

    #[test]
    fn runs_cross_word_and_summary_boundaries() {
        let mut spa = Spa::default();
        spa.grow(9000);
        let run = |j0: Index, n: usize, a: f64| marked(&[], j0, n, &[], a);
        let cases: Vec<(&str, Vec<Op>)> = vec![
            ("one whole word", vec![run(64, 64, 1.5)]),
            ("inside one word", vec![run(70, 9, 1.5)]),
            ("across a word edge", vec![run(60, 9, 1.5)]),
            ("across a summary edge", vec![run(4090, 12, 0.5)]),
            ("many words and two summaries", vec![run(5, 8000, -2.0)]),
            ("empty", vec![run(100, 0, 1.0)]),
            (
                "outliers either side, in other words and summaries",
                vec![marked(&[3, 59], 60, 16, &[4095, 4096, 8999], 1.5)],
            ),
            (
                "outliers and no run",
                vec![marked(&[1, 2], 9, 0, &[700], 1.5)],
            ),
            (
                "overlapping groups and single products",
                vec![
                    Op::Add(4100, value(1)),
                    run(4090, 20, 0.5),
                    Op::Add(4095, value(2)),
                    marked(&[0], 60, 9, &[4094], 1.5),
                    run(4094, 3, -1.0),
                    Op::Add(61, value(3)),
                    Op::Add(8999, value(4)),
                ],
            ),
        ];
        for (what, ops) in cases {
            check_row(&mut spa, &ops, what);
        }
    }

    #[test]
    fn word_masks_are_built_only_for_dense_column_sets() {
        let mut masks = vec![(7, 7)];
        // 4 columns in one word and 2 in another: 3 per word touched.
        let cols = [0, 1, 2, 63, 64, 127];
        assert!(!word_masks(&cols, 4, &mut masks));
        assert!(!word_masks(&[], 1, &mut masks));
        assert_eq!(masks, [(7, 7)], "a refusal appends nothing");
        assert!(word_masks(&cols, 3, &mut masks));
        let low = 0b111 | 1 << 63;
        assert_eq!(masks, [(7, 7), (0, low), (1, 1 | 1 << 63)]);
        masks.clear();
        assert!(word_masks(&[4095, 4096, 70_000], 1, &mut masks));
        assert_eq!(masks, [(63, 1 << 63), (64, 1), (1093, 1 << 48)]);
    }

    #[test]
    fn unordered_products_fold_in_arrival_order() {
        let mut spa = Spa::default();
        spa.grow(300);
        // Every product into word 1 is interrupted by one into another
        // word, so each pending mask is flushed mid-row.
        let cols = [100, 5, 100, 70, 5, 299, 100, 70, 200, 5, 64, 127];
        let ops: Vec<Op> = cols
            .iter()
            .enumerate()
            .map(|(n, &c)| Op::Add(c, value(n)))
            .collect();
        check_row(&mut spa, &ops, "unordered");
        // The same columns as a long row, repeated past `SHORT_ROW`.
        let long: Vec<Op> = (0..5).flat_map(|_| ops.iter().cloned()).collect();
        check_row(&mut spa, &long, "unordered, long");
    }

    #[test]
    fn signed_zeros_keep_their_bits() {
        let mut spa = Spa::default();
        spa.grow(200);
        // A lone -0.0 stays -0.0, a lone +0.0 stays +0.0, -0 + -0 = -0,
        // -0 + +0 = +0, and a marked group keeps each slot's sign.
        let ops = vec![
            Op::Add(3, -0.0),
            Op::Add(4, 0.0),
            Op::Add(5, -0.0),
            Op::Add(5, -0.0),
            Op::Add(6, -0.0),
            Op::Add(6, 0.0),
            Op::Marked {
                cols: vec![130, 131, 132, 190],
                a: -1.0,
                vb: vec![0.0, -0.0, 0.0, -0.0],
                run: 0..3,
            },
        ];
        check_row(&mut spa, &ops, "signed zeros");
        let neg = (-0.0f64).to_bits();
        let want = [
            (3, neg),
            (4, 0),
            (5, neg),
            (6, 0),
            (130, neg),
            (131, 0),
            (132, neg),
            (190, 0),
        ];
        assert_eq!(oracle(&ops), want);
    }

    #[test]
    fn one_accumulator_serves_rows_of_every_width() {
        let mut spa = Spa::default();
        assert!(spa.grow(10));
        assert!(!spa.grow(10), "a second grow to the same width is warm");
        check_row(&mut spa, &[Op::Add(9, 1.0), Op::Add(0, 2.0)], "narrow");
        assert!(spa.grow(70_000));
        assert_eq!((spa.words.len(), spa.summary.len()), (1094, 18));
        let wide: Vec<Op> = (0..40)
            .map(|n| Op::Add((n * 1747 % 70_000) as Index, value(n)))
            .collect();
        check_row(&mut spa, &wide, "wide");
        // Back to a smaller width: nothing shrinks and nothing is stale.
        assert!(!spa.grow(100));
        let small: Vec<Op> = (0..40)
            .map(|n| Op::Add((n % 7) as Index, value(n)))
            .collect();
        check_row(&mut spa, &small, "small after wide");
        assert_eq!(spa.values.len(), 70_000);
    }

    #[test]
    fn random_rows_match_the_oracle() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |bound: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % bound as u64) as usize
        };
        let mut spa = Spa::default();
        for round in 0..200 {
            let width = 1 + next(10_000);
            spa.grow(width);
            let ops: Vec<Op> = (0..1 + next(60))
                .map(|n| {
                    let j0 = next(width);
                    if next(4) != 0 {
                        return Op::Add(j0 as Index, value(n + round));
                    }
                    let len = next(width - j0 + 1).min(300);
                    let mut below: Vec<Index> =
                        (0..next(4)).map(|_| next(j0.max(1)) as Index).collect();
                    below.retain(|&c| (c as usize) < j0);
                    below.sort_unstable();
                    below.dedup();
                    let after = j0 + len;
                    let mut above: Vec<Index> = (0..next(4))
                        .filter(|_| after < width)
                        .map(|_| (after + next(width - after)) as Index)
                        .collect();
                    above.sort_unstable();
                    above.dedup();
                    marked(&below, j0 as Index, len, &above, value(n))
                })
                .collect();
            check_row(&mut spa, &ops, &format!("round {round}"));
        }
    }
}
