//! The row-wise k-way fold: one merge of sorted sparse streams into one,
//! adding the values of equal coordinates.
//!
//! It is the software form of the paper's comparator-array merge tree,
//! and it has two users: the simulator's merge rounds
//! (`sparch_core::pipeline`), whose sources are fresh left-matrix columns
//! multiplied on the fly and earlier rounds' outputs, and the product's
//! merge rounds (`sparch_stream::merge`), whose sources are leaf panel
//! pairs multiplied row by row, resident partials read in place and
//! spilled partials decoded a row group at a time. Both see their sources
//! through [`RowSources`] and run [`fold_rows`].
//!
//! The fold visits output rows in ascending order. A run of rows that
//! one source alone holds is copied straight through. A row that two or
//! more sources share folds their segments, in source order and each in
//! stream order, through the shared accumulator [`Spa`]: as a short row
//! when every segment is buffered whole and they hold at most
//! [`SHORT_ROW`] entries together, as a wide row otherwise. Either way a
//! coordinate's values are added in `(source, position)` order from the
//! first one — the order a left-to-right merge tree, or a heap
//! tie-broken by source then position, folds duplicates in — so the
//! output is that merge's, bit for bit.

use super::spa::{ShortRow, Spa, WideRow, SHORT_ROW};
use crate::Index;

/// Winner-tree key of a source that has nothing left.
const EXHAUSTED: u64 = u64::MAX;

/// The sources of one fold, addressed by position `0..count()`. Each is a
/// stream of `(key, value)` entries in ascending key order, keyed
/// `(row << 32) | col`, with rows below `Index::MAX`.
pub trait RowSources {
    /// What feeding a source can fail with.
    type Error;

    /// The number of sources.
    fn count(&self) -> usize;

    /// The entries of source `k`'s head row it holds buffered now, and
    /// whether they are the whole row.
    fn buffered(&self, k: usize) -> (usize, bool);

    /// Feeds every entry of source `k` in rows below `limit` to `f`, in
    /// stream order, refilling its buffer as needed, and returns the row
    /// of its new head entry, or `None` once it is exhausted. A limit of
    /// 0 feeds nothing and only reports the head.
    fn feed(
        &mut self,
        k: usize,
        limit: u64,
        f: impl FnMut(u64, f64),
    ) -> Result<Option<u64>, Self::Error>;

    /// Like [`RowSources::feed`], for a run of rows no other source holds,
    /// so the entries go straight to the output: a source that may repeat
    /// a coordinate must add its values from the first and feed it once.
    fn copy(
        &mut self,
        k: usize,
        limit: u64,
        f: impl FnMut(u64, f64),
    ) -> Result<Option<u64>, Self::Error> {
        self.feed(k, limit, f)
    }
}

/// Reusable state of [`fold_rows`]: the accumulator, a winner tree over
/// the sources' keys `(head row << 32) | source` (leaves at `[cap, 2 cap)`,
/// the minimum at index 1) and the current row's sources. After one fold
/// at a given fan-in and width, further folds allocate nothing.
#[derive(Debug, Default)]
pub struct FoldScratch {
    spa: Spa,
    tree: Vec<u64>,
    shared: Vec<usize>,
}

impl FoldScratch {
    /// Grows every buffer a fold of `sources` sources over columns
    /// `0..width` reaches, so the fold itself allocates nothing.
    pub fn grow(&mut self, sources: usize, width: usize) {
        self.spa.grow(width);
        self.tree.clear();
        self.tree.reserve(2 * sources.next_power_of_two());
        self.shared.clear();
        self.shared.reserve(sources);
    }
}

/// Sets leaf `k` of the winner tree with `cap` leaves to the key of head
/// row `head` and replays its path to the root.
fn set(tree: &mut [u64], cap: usize, k: usize, head: Option<u64>) {
    let mut i = cap + k;
    tree[i] = head.map_or(EXHAUSTED, |row| (row << 32) | k as u64);
    while i > 1 {
        i /= 2;
        tree[i] = tree[2 * i].min(tree[2 * i + 1]);
    }
}

/// The least key of the winner tree with `cap` leaves but leaf `k`'s: the
/// least key beside `k`'s path.
fn runner_up(tree: &[u64], cap: usize, k: usize) -> u64 {
    let (mut i, mut least) = (cap + k, EXHAUSTED);
    while i > 1 {
        least = least.min(tree[i ^ 1]);
        i /= 2;
    }
    least
}

/// A row in flight in the shared accumulator, short or wide.
trait Accumulate {
    fn add(&mut self, col: Index, x: f64);
}

impl Accumulate for ShortRow<'_> {
    #[inline]
    fn add(&mut self, col: Index, x: f64) {
        self.add(col, x);
    }
}

impl Accumulate for WideRow<'_> {
    #[inline]
    fn add(&mut self, col: Index, x: f64) {
        self.add(col, x);
    }
}

/// Feeds row `row` of each of the `shared` sources, in order, into `acc`,
/// and moves each in the winner tree from row `row + 1`, where it was put
/// back, to its new head if that is elsewhere. The accumulator is taken
/// by reference, not through a closure over it: handed down through
/// `feed` as a reference to such a closure, it made the simulator's
/// Band(8000, 64)² rounds 1.35× slower on a 2-core Xeon host.
fn feed_row<S: RowSources>(
    sources: &mut S,
    (tree, cap): (&mut [u64], usize),
    shared: &[usize],
    row: u64,
    acc: &mut impl Accumulate,
) -> Result<(), S::Error> {
    for &k in shared {
        let head = sources.feed(k, row + 1, |key, v| acc.add(key as Index, v))?;
        if head != Some(row + 1) {
            set(tree, cap, k, head);
        }
    }
    Ok(())
}

/// Folds `sources` into one stream of `emit(row, col, value)` calls in
/// ascending `(row, col)` order, one per coordinate present, with every
/// column below `width` (see the module docs). On an error the row in
/// flight is still drained, so `scratch` is left ready for the next fold.
///
/// Sources are picked by a winner tree keyed `(head row, source)`. The
/// least key beside the winner's path is the runner-up: when its row is
/// later than the winner's, the winner alone holds the rows up to it and
/// copies them through, and is put back once at its new head. Otherwise
/// the row's sources are taken off the root one after another, each put
/// back at the next row — where a source dense in rows goes next, so it
/// is not moved again after its segment is fed. Either way a source costs
/// `O(log k)` per row or run it takes part in. A linear scan of the heads
/// with the same copy-through runs does no more work than a row-by-row
/// tree at most fan-ins, but not at every one. Selection steps over the
/// simulator's rounds at 64 ways:
///
/// | operand (condensing)  | linear scan, runs | tree, row by row | products |
/// |-----------------------|-------------------|------------------|----------|
/// | R-MAT(8192) (on)      | 0.29 M            | 0.35 M           | 6.2 M    |
/// | Uniform(40 000) (on)  | 0.84 M            | 1.60 M           | 2.6 M    |
/// | Uniform(40 000) (off) | 34.8 M            | 5.0 M            | 2.56 M   |
///
/// Without condensing a round folds 64 fresh single-column leaves, and
/// scanning all their heads for every row costs 13 × the products.
pub fn fold_rows<S: RowSources>(
    sources: &mut S,
    width: usize,
    scratch: &mut FoldScratch,
    mut emit: impl FnMut(Index, Index, f64),
) -> Result<(), S::Error> {
    let n = sources.count();
    scratch.grow(n, width);
    let FoldScratch { spa, tree, shared } = scratch;
    let cap = n.next_power_of_two();
    tree.resize(2 * cap, EXHAUSTED);
    for k in 0..n {
        let head = sources.feed(k, 0, |_, _| {})?;
        set(tree, cap, k, head);
    }
    while tree[1] != EXHAUSTED {
        let (first, k) = (tree[1] >> 32, tree[1] as u32 as usize);
        let next = runner_up(tree, cap, k) >> 32;
        if next > first {
            // Source `k` alone holds rows `first..next`: copy them.
            let copy = |key, v| emit((key >> 32) as Index, key as Index, v);
            let head = sources.copy(k, next, copy)?;
            set(tree, cap, k, head);
            continue;
        }
        // Every source whose head is row `first`, in source order: each is
        // put back at row `first + 1`, where most go next, so the root
        // shows the one after it.
        shared.clear();
        while tree[1] >> 32 == first {
            let k = tree[1] as u32 as usize;
            shared.push(k);
            set(tree, cap, k, Some(first + 1));
        }
        // The short row needs every segment buffered whole and at most
        // `SHORT_ROW` entries in all. Every segment is counted, so each
        // source's head is at hand before any is fed.
        let rows = shared.iter().map(|&k| sources.buffered(k));
        let (items, whole) = rows.fold((0, true), |(n, all), (m, w)| (n + m, all && w));
        let mut out = |c, v| emit(first as Index, c, v);
        let fed = if whole && items <= SHORT_ROW {
            let mut acc = spa.short_row();
            let fed = feed_row(sources, (tree, cap), shared, first, &mut acc);
            acc.drain(&mut out);
            fed
        } else {
            let mut acc = spa.wide_row();
            let fed = feed_row(sources, (tree, cap), shared, first, &mut acc);
            acc.drain(&mut out);
            fed
        };
        fed?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// Sources over fixed entry lists, each buffered `chunk` entries at a
    /// time like a spilled partial's row groups, and each failing when it
    /// reaches the entry at its `fail` position, if any.
    struct Chunked {
        entries: Vec<Vec<(u64, f64)>>,
        chunk: usize,
        /// Per source: next entry and end of the buffered window.
        pos: Vec<usize>,
        end: Vec<usize>,
        fail: Vec<Option<usize>>,
    }

    impl Chunked {
        fn new(entries: &[Vec<(u64, f64)>], chunk: usize) -> Self {
            let end = entries.iter().map(|e| e.len().min(chunk)).collect();
            Chunked {
                entries: entries.to_vec(),
                chunk,
                pos: vec![0; entries.len()],
                end,
                fail: vec![None; entries.len()],
            }
        }
    }

    impl RowSources for Chunked {
        type Error = (usize, usize);

        fn count(&self) -> usize {
            self.entries.len()
        }

        fn buffered(&self, k: usize) -> (usize, bool) {
            let window = &self.entries[k][self.pos[k]..self.end[k]];
            let row = window[0].0 >> 32;
            let n = window.iter().take_while(|e| e.0 >> 32 == row).count();
            (n, n < window.len())
        }

        fn feed(
            &mut self,
            k: usize,
            limit: u64,
            mut f: impl FnMut(u64, f64),
        ) -> Result<Option<u64>, (usize, usize)> {
            loop {
                while self.pos[k] < self.end[k] && self.entries[k][self.pos[k]].0 >> 32 < limit {
                    if self.fail[k] == Some(self.pos[k]) {
                        return Err((k, self.pos[k]));
                    }
                    let (key, v) = self.entries[k][self.pos[k]];
                    f(key, v);
                    self.pos[k] += 1;
                }
                if self.pos[k] < self.end[k] || self.end[k] == self.entries[k].len() {
                    let head = self.entries[k][self.pos[k]..self.end[k]].first();
                    return Ok(head.map(|&(key, _)| key >> 32));
                }
                self.end[k] = (self.end[k] + self.chunk).min(self.entries[k].len());
            }
        }
    }

    /// A fold's output as `(row, col, value bits)`.
    type Bits = Vec<(Index, Index, u64)>;

    /// Per-triple heap oracle: entries keyed `(key, source, position)`,
    /// each coordinate folded from its first value.
    fn heap_fold(entries: &[Vec<(u64, f64)>]) -> Bits {
        let mut heap: BinaryHeap<_> = entries
            .iter()
            .enumerate()
            .flat_map(|(k, s)| s.iter().enumerate().map(move |(p, e)| Reverse((e.0, k, p))))
            .collect();
        let mut out: Vec<(u64, f64)> = Vec::new();
        while let Some(Reverse((key, k, p))) = heap.pop() {
            let v = entries[k][p].1;
            match out.last_mut() {
                Some(last) if last.0 == key => last.1 += v,
                _ => out.push((key, v)),
            }
        }
        let split = |(key, v): (u64, f64)| ((key >> 32) as Index, key as Index, v.to_bits());
        out.into_iter().map(split).collect()
    }

    fn fold(
        sources: &mut Chunked,
        scratch: &mut FoldScratch,
    ) -> (Bits, Result<(), (usize, usize)>) {
        let mut got = Vec::new();
        let done = fold_rows(sources, 64, scratch, |r, c, v| {
            got.push((r, c, v.to_bits()))
        });
        (got, done)
    }

    /// Folds `entries` at every chunk size in `chunks` through one scratch
    /// and checks each against the heap bit for bit and the accumulator
    /// clean after it.
    fn check(entries: &[Vec<(u64, f64)>], chunks: &[usize], what: &str) {
        let want = heap_fold(entries);
        let mut scratch = FoldScratch::default();
        for &chunk in chunks {
            let (got, done) = fold(&mut Chunked::new(entries, chunk), &mut scratch);
            assert_eq!(done, Ok(()), "{what}, chunk {chunk}");
            assert_eq!(got, want, "{what}, chunk {chunk}");
            assert!(
                scratch.spa.is_clean(),
                "{what}, chunk {chunk}: accumulator left dirty"
            );
        }
    }

    /// A value whose sums with its neighbours round, so addition order
    /// shows in the bits.
    fn value(n: usize) -> f64 {
        match n % 5 {
            0 => 1e16,
            1 => -1e16 + 1.0,
            2 => -0.0,
            3 => 0.1 * (n as f64 + 1.0),
            _ => -0.3 / (n as f64 + 1.0),
        }
    }

    /// A source holding `cols` columns, strided by `step` from `start`, in
    /// every row of `rows`.
    fn source(
        rows: std::ops::Range<u64>,
        cols: u64,
        start: u64,
        step: u64,
        seed: usize,
    ) -> Vec<(u64, f64)> {
        rows.flat_map(|r| (0..cols).map(move |i| (r, start + i * step)))
            .enumerate()
            .map(|(n, (r, c))| ((r << 32) | c, value(seed + n)))
            .collect()
    }

    #[test]
    fn a_run_that_crosses_refills_is_copied_through() {
        // Source 0 alone holds rows 0..6, five entries each, before both
        // share rows 6..8; at chunk 4 its run crosses seven refills, and
        // shared row 7 (10 + 40 entries) is wide.
        let entries = vec![
            source(0..8, 5, 0, 3, 0),
            source(6..7, 4, 1, 2, 7)
                .into_iter()
                .chain(source(7..8, 40, 0, 1, 9))
                .collect(),
        ];
        check(&entries, &[1, 2, 4, 5, 7, 64, 1000], "copy across refills");
    }

    #[test]
    fn a_source_exhausting_mid_run_hands_the_rest_to_the_others() {
        // Source 1 runs out inside source 0's rows, then source 2 alone
        // holds the tail: the last run's bound is the end of the input.
        let entries = vec![
            source(0..12, 3, 0, 5, 0),
            source(3..5, 6, 2, 7, 11),
            source(4..20, 2, 1, 9, 23),
            Vec::new(),
        ];
        check(&entries, &[1, 3, 6, 100], "exhausted mid-run");
    }

    #[test]
    fn a_source_failing_mid_row_leaves_the_accumulator_clean() {
        // Row 2 is shared by every source: short at 3 × 4 entries, wide at
        // 3 × 20. Source 1 fails on its third entry of the row.
        let mut scratch = FoldScratch::default();
        for cols in [4, 20] {
            let entries: Vec<_> = (0..3)
                .map(|k| source(0..4, cols, k, 3, 5 * k as usize))
                .collect();
            let mut sources = Chunked::new(&entries, 1000);
            let at = 2 * cols as usize + 2;
            sources.fail[1] = Some(at);
            let (got, done) = fold(&mut sources, &mut scratch);
            assert_eq!(done, Err((1, at)), "{cols} columns");
            assert!(
                scratch.spa.is_clean(),
                "{cols} columns: accumulator left dirty"
            );
            assert!(
                got.iter().all(|&(r, ..)| r <= 2),
                "{cols} columns: rows past the failure"
            );
            let (got, done) = fold(&mut Chunked::new(&entries, 1000), &mut scratch);
            assert_eq!(
                (got, done),
                (heap_fold(&entries), Ok(())),
                "{cols} columns, after"
            );
        }
    }

    #[test]
    fn random_sources_fold_like_the_heap() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for round in 0..300 {
            let entries: Vec<Vec<(u64, f64)>> = (0..1 + next(9))
                .map(|_| {
                    let mut keys: Vec<u64> =
                        (0..next(80)).map(|_| (next(12) << 32) | next(64)).collect();
                    keys.sort_unstable();
                    keys.dedup();
                    keys.into_iter()
                        .map(|key| (key, value(round + key as usize)))
                        .collect()
                })
                .collect();
            check(
                &entries,
                &[1 + next(5) as usize, 1024],
                &format!("round {round}"),
            );
        }
    }
}
