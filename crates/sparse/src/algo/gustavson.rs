//! Gustavson's row-wise SpGEMM (the algorithm behind Intel MKL's
//! `mkl_sparse_spmm`, used as the paper's CPU baseline).
//!
//! For each row `i` of `A`, accumulate `Σ_k a_ik * B[k, :]` into a sparse
//! accumulator (SPA) and emit the row's occupied columns in ascending
//! order, giving O(flops) time with good constant factors on CPUs.
//!
//! There is one per-row body, one production kernel and one oracle:
//!
//! * `fold_row` — the row of one product, folded short or wide by its
//!   flops. Everything below runs it, so their bits cannot drift apart.
//! * `multiply_on_rows` — behind [`gustavson`] (fresh scratch, every
//!   row), [`gustavson_scratch`] (caller-owned [`MultiplyScratch`], live
//!   rows found by one sweep) and [`gustavson_scratch_on_rows`] (live
//!   rows supplied — the condensed-matrix idea of the paper's §II-B
//!   applied to narrow column panels where most rows are empty).
//! * [`RowProduct`] — the same product one row at a time, on demand
//!   ([`RowProduct::feed_row`]): the streaming pipeline's merge rounds
//!   read their leaf panel pairs through it as sources of
//!   [`super::fold_rows`], so a leaf's partial is folded as it is produced
//!   and never built whole (the paper's §II-A pipelining of multiply and
//!   merge).
//! * [`gustavson_reference`] — the seed kernel, kept verbatim as the
//!   differential oracle and bench baseline.
//!
//! Both add the products of one output slot in the same `(i, k)` order,
//! so they agree in structure and in the bits of every value. The
//! production kernel accumulates through [`super::Spa`], the accumulator
//! the simulator's merge fold also uses, and picks its row class from the
//! row's flop count alone:
//!
//! * **Short rows** (at most [`super::SHORT_ROW`] products) are expanded,
//!   sorted by `(column, arrival)` and folded, never touching the dense
//!   arrays: a handful of products spread over a wide output span sorts
//!   faster than it walks an occupancy bitmap.
//! * **Every other row** adds into the SPA's `-0.0`-filled value array,
//!   records occupancy in its two-level bitmap, and is emitted by walking
//!   the bitmap in ascending column order — no column list and no sort.
//!   A *word-dense* `B` row (at least four entries per 64-column word it
//!   touches: band, block and hub rows) is marked occupied from word masks
//!   built once per `B` operand, one OR per word, and its longest
//!   column-contiguous run is added as a slice,
//!   `values[j0..j0 + n] += a * vb[..]`, which the compiler vectorises.
//!   A sparser `B` row sets its bits product by product, once per word.
//!   Multiply and add stay separate operations and every slot still
//!   receives its products in `k` order, starting from `-0.0`, the
//!   additive identity, so rounding is unchanged.
//!
//! A row with one `A` entry needs no accumulator at all: it is that entry
//! times one `B` row, whose columns ascend and never repeat, and
//! `-0.0 + x` has the bits of `x`, so [`RowProduct::feed_row`] emits its
//! products as they are.

use super::spa::{word_masks, Spa, WideRow, SHORT_ROW};
use crate::{Csr, CsrBuilder, Index};
use std::ops::Range;

/// Flop count and output span `[lo, hi)` of one `A` row with column
/// indices `ka`; `b_row(k)` gives `(nnz, first column, last column)` of
/// `B`'s row `k`, or `None` when it is empty. `(0, 0, 0)` for a row that
/// multiplies nothing.
fn row_extent(
    ka: &[Index],
    b_row: impl Fn(usize) -> Option<(usize, Index, Index)>,
) -> (usize, usize, usize) {
    let (mut flops, mut lo, mut hi) = (0usize, usize::MAX, 0usize);
    for &k in ka {
        if let Some((nnz, first, last)) = b_row(k as usize) {
            flops += nnz;
            lo = lo.min(first as usize);
            hi = hi.max(last as usize + 1);
        }
    }
    (flops, lo.min(hi), hi)
}

/// `(nnz, first column, last column)` of `b`'s row `k`, read from the
/// row itself; `None` when it is empty.
fn row_ends(b: &Csr, k: usize) -> Option<(usize, Index, Index)> {
    let (jb, _) = b.row(k);
    Some((jb.len(), *jb.first()?, *jb.last()?))
}

/// Upper bound on the number of non-zeros in `A * B`: for each `A` row,
/// the smaller of its flop count `Σ_{k ∈ A_i} nnz(B_k)` and the width of
/// its output span (from the first column to the last column of the `B`
/// rows it touches), summed over rows. Unlike a symbolic pass
/// ([`super::product_nnz`]) this needs no marker array — one sweep over
/// `A`'s indices, no allocation — yet is a true upper bound, which
/// `a.nnz().max(b.nnz())` (the seed's estimate) never was.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn output_nnz_bound(a: &Csr, b: &Csr) -> usize {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    (0..a.rows())
        .map(|i| {
            let (flops, lo, hi) = row_extent(a.row(i).0, |k| row_ends(b, k));
            flops.min(hi - lo)
        })
        .sum()
}

/// Multiplies `a * b` with Gustavson's row-wise algorithm: the production
/// kernel over every row, with a scratch of its own.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson(a: &Csr, b: &Csr) -> Csr {
    gustavson_scratch(a, b, &mut MultiplyScratch::new())
}

/// The seed Gustavson kernel, kept verbatim: fresh SPA vectors per call,
/// a full `0..a.rows()` scan, and the historical
/// `a.nnz().max(b.nnz())` capacity guess. It is the differential oracle
/// for [`gustavson_scratch`] — do not optimize it.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson_reference(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = CsrBuilder::with_capacity(a.rows(), b.cols(), a.nnz().max(b.nnz()));
    let mut values = vec![0.0f64; b.cols()];
    let mut marker = vec![usize::MAX; b.cols()];
    let mut occupied: Vec<Index> = Vec::new();

    for i in 0..a.rows() {
        occupied.clear();
        let (ka, va) = a.row(i);
        for (&k, &av) in ka.iter().zip(va) {
            let (jb, vb) = b.row(k as usize);
            for (&j, &bv) in jb.iter().zip(vb) {
                let ju = j as usize;
                if marker[ju] != i {
                    marker[ju] = i;
                    values[ju] = av * bv;
                    occupied.push(j);
                } else {
                    values[ju] += av * bv;
                }
            }
        }
        occupied.sort_unstable();
        for &j in &occupied {
            out.push(i as Index, j, values[j as usize]);
        }
    }
    out.finish()
}

/// A `B` row's longest column-contiguous run is added as a slice only
/// when it has at least this many entries; below that the slice set-up
/// costs more than the scatter it replaces.
const MIN_RUN: usize = 8;

/// A `B` row is *word-dense* when it has at least this many entries per
/// 64-column word it touches. A wide row marks a word-dense `B` row's
/// columns occupied from the row's precomputed word masks, one OR per
/// word, instead of product by product — the row is read once per call to
/// build them and then serves every `A` row that touches it.
const DENSE_WORDS: usize = 4;

/// What the kernel needs to know about one `B` row beyond its entries.
#[derive(Debug, Clone, Copy)]
struct BRow {
    /// First occupied column; `Index::MAX` for an empty row.
    first: Index,
    /// Last occupied column; `0` for an empty row.
    last: Index,
    /// Offset within the row of its longest column-contiguous run.
    run_at: Index,
    /// Length of that run, or `0` when it is shorter than [`MIN_RUN`] or
    /// the row is not word-dense.
    run_len: Index,
    /// The row's word masks are `masks[masks_at..][..masks_len]` in the
    /// scratch's mask table.
    masks_at: Index,
    /// `0` unless the row is word-dense.
    masks_len: Index,
}

impl BRow {
    /// The entry of the `B` row with columns `jb`; appends the row's word
    /// masks to `masks` when it is word-dense.
    fn of(jb: &[Index], masks: &mut Vec<(Index, u64)>) -> BRow {
        let (Some(&first), Some(&last)) = (jb.first(), jb.last()) else {
            return BRow {
                first: Index::MAX,
                last: 0,
                run_at: 0,
                run_len: 0,
                masks_at: 0,
                masks_len: 0,
            };
        };
        let mut row = BRow {
            first,
            last,
            run_at: 0,
            run_len: 0,
            masks_at: 0,
            masks_len: 0,
        };
        // Rows past what an `Index` offset can reach in the mask table
        // stay unmarked: they take the product-by-product path.
        let Ok(masks_at) = Index::try_from(masks.len()) else {
            return row;
        };
        if !word_masks(jb, DENSE_WORDS, masks) {
            return row;
        }
        row.masks_at = masks_at;
        row.masks_len = (masks.len() - masks_at as usize) as Index;
        let (mut run_at, mut run_len) = (0, 0);
        if (last - first) as usize + 1 == jb.len() {
            // Strictly increasing columns filling their span: one run.
            run_len = jb.len();
        } else {
            let mut at = 0;
            for end in 1..=jb.len() {
                if end == jb.len() || jb[end] != jb[end - 1] + 1 {
                    if end - at > run_len {
                        (run_at, run_len) = (at, end - at);
                    }
                    at = end;
                }
            }
        }
        if run_len >= MIN_RUN {
            row.run_at = run_at as Index;
            row.run_len = run_len as Index;
        }
        row
    }
}

/// What the kernel reads off `B` beyond its entries: one [`BRow`] per
/// row and the word masks of its word-dense rows, rebuilt per `B` in
/// O(nnz(B)).
#[derive(Debug, Default)]
struct BTable {
    rows: Vec<BRow>,
    /// The word masks of the word-dense rows, indexed by `rows`.
    masks: Vec<(Index, u64)>,
}

impl BTable {
    /// Rebuilds the table for `b`. Returns `true` if a buffer grew.
    fn build(&mut self, b: &Csr) -> bool {
        let caps = (self.rows.capacity(), self.masks.capacity());
        self.rows.clear();
        self.masks.clear();
        let masks = &mut self.masks;
        self.rows
            .extend((0..b.rows()).map(|k| BRow::of(b.row(k).0, masks)));
        caps != (self.rows.capacity(), self.masks.capacity())
    }

    /// `min(flops, hi − lo)` of row `i` of `a · b`: a true upper bound on
    /// its entries.
    fn bound(&self, a: &Csr, b: &Csr, i: usize) -> usize {
        let (flops, lo, hi) = row_extent(a.row(i).0, |k| {
            let shape = self.rows[k];
            (shape.first <= shape.last).then(|| (b.row_nnz(k), shape.first, shape.last))
        });
        flops.min(hi - lo)
    }

    /// The rows `live` of `a · b` as one matrix, pre-sized from
    /// `Σ_i min(flops_i, hi_i − lo_i)` over them — a true upper bound — so
    /// the push loop never climbs a realloc ladder.
    #[inline]
    fn multiply(&self, a: &Csr, b: &Csr, live: &[Index], spa: &mut Spa) -> Csr {
        let bound = live.iter().map(|&i| self.bound(a, b, i as usize)).sum();
        let mut out = CsrBuilder::with_capacity(a.rows(), b.cols(), bound);
        for &i in live {
            let part = Part::of(a, i as usize, b, self);
            fold_row(part, spa, |j, v| out.push_trusted(i, j, v));
        }
        out.finish()
    }
}

/// One term of an output row: the `A`-row segment `(ka, va)` times `b`,
/// whose table is `table`.
#[derive(Debug, Clone, Copy)]
struct Part<'a> {
    ka: &'a [Index],
    va: &'a [f64],
    b: &'a Csr,
    table: &'a BTable,
}

impl<'a> Part<'a> {
    /// Row `i` of `a` times `b`.
    #[inline(always)]
    fn of(a: &'a Csr, i: usize, b: &'a Csr, table: &'a BTable) -> Self {
        let (ka, va) = a.row(i);
        Part { ka, va, b, table }
    }

    /// The products the part adds.
    #[inline(always)]
    fn flops(&self) -> usize {
        self.ka.iter().map(|&k| self.b.row_nnz(k as usize)).sum()
    }

    /// Adds the part's products into a wide row, `k` by `k`.
    #[inline(always)]
    fn add_wide(&self, row: &mut WideRow<'_>) {
        let (b_rows, masks) = (&self.table.rows[..], &self.table.masks[..]);
        for (&k, &av) in self.ka.iter().zip(self.va) {
            let (jb, vb) = self.b.row(k as usize);
            let shape = b_rows[k as usize];
            if shape.masks_len == 0 {
                for (&j, &bv) in jb.iter().zip(vb) {
                    row.add(j, av * bv);
                }
            } else {
                let run = shape.run_at as usize..(shape.run_at + shape.run_len) as usize;
                let marks = &masks[shape.masks_at as usize..][..shape.masks_len as usize];
                row.add_marked(jb, av, vb, run, marks);
            }
        }
    }
}

/// The one per-row body: the row of one product `part`, folded through
/// `spa` as a short or a wide row by its flop count (see the module docs)
/// and emitted as `(col, value)` in ascending column order.
// Inlined into each caller's row loop, so that loop optimizes as one
// function.
#[inline(always)]
fn fold_row(part: Part<'_>, spa: &mut Spa, emit: impl FnMut(Index, f64)) {
    if part.flops() <= SHORT_ROW {
        let mut row = spa.short_row();
        for (&k, &av) in part.ka.iter().zip(part.va) {
            let (jb, vb) = part.b.row(k as usize);
            for (&j, &bv) in jb.iter().zip(vb) {
                row.add(j, av * bv);
            }
        }
        row.drain(emit);
    } else {
        let mut row = spa.wide_row();
        part.add_wide(&mut row);
        row.drain(emit);
    }
}

/// Reusable working state for [`gustavson_scratch`] and
/// [`RowProduct::feed_row`].
///
/// A caller constructs one scratch and feeds every job through it. The
/// accumulator grows monotonically to the widest `b.cols()` seen and is
/// never shrunk or wiped: every row the kernel folds leaves it in its
/// between-rows state (value slots `-0.0`, occupancy bitmap zero), so
/// there is no O(cols) wipe between jobs and no per-job allocation once
/// warm.
#[derive(Debug, Default)]
pub struct MultiplyScratch {
    /// The sparse accumulator every row folds through.
    spa: Spa,
    /// Occupied-row index computed by [`gustavson_scratch`] when the
    /// caller does not supply one.
    live_rows: Vec<Index>,
    /// The `B` table of the call in flight.
    table: BTable,
    /// Calls served entirely from already-sized buffers.
    reuses: u64,
}

impl MultiplyScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        MultiplyScratch::default()
    }

    /// Number of kernel calls and [`grow`](Self::grow) calls that
    /// completed without growing any scratch buffer — the warm-path
    /// counter surfaced by the streaming pipeline's
    /// `StageReport::multiply_scratch_reuses`.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Makes room in the accumulator for rows over columns `0..cols`, as
    /// [`RowProduct::feed_row`] needs; a call that grows nothing counts as
    /// one of the scratch's reuses.
    pub fn grow(&mut self, cols: usize) {
        if !self.spa.grow(cols) {
            self.reuses += 1;
        }
    }
}

/// Multiplies `a * b` reusing `scratch` across calls, visiting only
/// occupied `A` rows.
///
/// Builds the occupied-row index itself with one O(a.rows()) sweep of the
/// row pointers (kept inside the scratch, so it costs no allocation when
/// warm); callers that already know the live rows — e.g. the streaming
/// pipeline, which records them while slicing panels — should use
/// [`gustavson_scratch_on_rows`] and skip the sweep.
///
/// Bit-identical to [`gustavson_reference`]: same per-`(i, k)`
/// accumulation order, same ascending columns per row.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson_scratch(a: &Csr, b: &Csr, scratch: &mut MultiplyScratch) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut live = std::mem::take(&mut scratch.live_rows);
    let live_cap = live.capacity();
    live.clear();
    let row_ptr = a.row_ptr();
    live.extend(
        (0..a.rows())
            .filter(|&r| row_ptr[r + 1] > row_ptr[r])
            .map(|r| r as Index),
    );
    let grew_live = live.capacity() != live_cap;
    let out = multiply_on_rows(a, b, &live, scratch, grew_live);
    scratch.live_rows = live;
    out
}

/// Multiplies `a * b` over a caller-provided occupied-row index `live`.
///
/// `live` must list row indices of `a` in strictly increasing order; rows
/// not listed are emitted empty, so the list must cover every non-empty
/// row for a correct product (listing an empty row is harmless). The
/// streaming pipeline records this index for free while slicing `A` into
/// column panels ([`Csr::col_panel_condensed`]).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`, or if `live` is not strictly
/// increasing or names a row at or past `a.rows()`.
pub fn gustavson_scratch_on_rows(
    a: &Csr,
    b: &Csr,
    live: &[Index],
    scratch: &mut MultiplyScratch,
) -> Csr {
    check_live_rows(a, b, live);
    multiply_on_rows(a, b, live, scratch, false)
}

/// The shape contract of [`gustavson_scratch_on_rows`] and
/// [`RowProduct::new`]: rows are appended without a check, so a list out
/// of order would build an invalid matrix.
fn check_live_rows(a: &Csr, b: &Csr, live: &[Index]) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    assert!(
        live.windows(2).all(|w| w[0] < w[1])
            && live.last().is_none_or(|&r| (r as usize) < a.rows()),
        "live rows must be strictly increasing and below a.rows()"
    );
}

/// The production kernel: rebuilds the scratch's `B` table, grows its
/// accumulator to `b`'s width and multiplies the rows `live`.
fn multiply_on_rows(
    a: &Csr,
    b: &Csr,
    live: &[Index],
    scratch: &mut MultiplyScratch,
    grew_live: bool,
) -> Csr {
    let grew = scratch.table.build(b) | scratch.spa.grow(b.cols());
    let out = scratch.table.multiply(a, b, live, &mut scratch.spa);
    if !grew && !grew_live {
        scratch.reuses += 1;
    }
    out
}

/// One product `A · B` that is computed one live row at a time, on
/// demand — how a streaming merge round reads a leaf panel pair without
/// the leaf's partial ever existing as a whole matrix. Its `B` table and
/// its per-row output bounds are built once, at construction; every row
/// then runs the kernel's one per-row body, so the rows are those of
/// [`gustavson_scratch_on_rows`] over the same `live` rows, bit for bit.
#[derive(Debug)]
pub struct RowProduct {
    a: Csr,
    b: Csr,
    live: Vec<Index>,
    table: BTable,
    /// `bounds[t]`: the summed output bound of live rows `..t`.
    bounds: Vec<usize>,
}

impl RowProduct {
    /// The product of `a` and `b` over the occupied-row index `live`.
    ///
    /// # Panics
    ///
    /// As [`gustavson_scratch_on_rows`].
    pub fn new(a: Csr, b: Csr, live: Vec<Index>) -> Self {
        check_live_rows(&a, &b, &live);
        let mut table = BTable::default();
        table.build(&b);
        let mut bounds = vec![0];
        for &i in &live {
            bounds.push(bounds[bounds.len() - 1] + table.bound(&a, &b, i as usize));
        }
        RowProduct {
            a,
            b,
            live,
            table,
            bounds,
        }
    }

    /// `(rows, cols)` of the product.
    pub fn shape(&self) -> (usize, usize) {
        (self.a.rows(), self.b.cols())
    }

    /// The rows the product visits, strictly increasing.
    pub fn live(&self) -> &[Index] {
        &self.live
    }

    /// A true upper bound on the entries of the live rows at positions
    /// `span` of [`live`](Self::live): each row's `min(flops, hi − lo)`.
    pub fn bound(&self, span: Range<usize>) -> usize {
        self.bounds[span.end] - self.bounds[span.start]
    }

    /// Emits the live row at position `at` of [`live`](Self::live) into
    /// `emit` as `(col, value)` in ascending column order and returns the
    /// entries emitted: that row of the product's partial, bit for bit. A
    /// row with one `A` entry is that entry times its `B` row, emitted as
    /// it is (see the module docs); any other row is folded through
    /// `scratch`'s accumulator first, which must have room for the
    /// product's columns ([`MultiplyScratch::grow`]).
    #[inline]
    pub fn feed_row(
        &self,
        at: usize,
        scratch: &mut MultiplyScratch,
        mut emit: impl FnMut(Index, f64),
    ) -> usize {
        let part = Part::of(&self.a, self.live[at] as usize, &self.b, &self.table);
        let [k] = *part.ka else {
            let mut n = 0;
            fold_row(part, &mut scratch.spa, |j, v| {
                emit(j, v);
                n += 1;
            });
            return n;
        };
        let (jb, vb) = self.b.row(k as usize);
        for (&j, &bv) in jb.iter().zip(vb) {
            emit(j, part.va[0] * bv);
        }
        jb.len()
    }

    /// The whole product as one matrix.
    pub fn multiply(&self, scratch: &mut MultiplyScratch) -> Csr {
        scratch.spa.grow(self.b.cols());
        self.table
            .multiply(&self.a, &self.b, &self.live, &mut scratch.spa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::{fold_rows, FoldScratch, RowSources};
    use crate::{gen, linalg, Dense};

    /// Structure equal and every value bit equal — stricter than
    /// `PartialEq` on `f64`, which lets `-0.0` alias `0.0`.
    fn assert_bit_identical(got: &Csr, want: &Csr, what: &str) {
        assert_eq!(
            (got.rows(), got.cols()),
            (want.rows(), want.cols()),
            "{what}"
        );
        assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
        assert_eq!(got.col_indices(), want.col_indices(), "{what}: col_idx");
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(got), bits(want), "{what}: value bits");
    }

    /// Every entry point against the oracle through one reused scratch,
    /// and the accumulator's between-rows state after each call.
    fn assert_kernel_matches_oracle(a: &Csr, b: &Csr, scratch: &mut MultiplyScratch, what: &str) {
        let clean = |scratch: &MultiplyScratch| {
            assert!(scratch.spa.is_clean(), "{what}: accumulator left dirty");
        };
        let want = gustavson_reference(a, b);
        assert_bit_identical(&gustavson(a, b), &want, what);
        assert_bit_identical(&gustavson_scratch(a, b, scratch), &want, what);
        clean(scratch);
        let live = a.occupied_rows();
        assert_bit_identical(
            &gustavson_scratch_on_rows(a, b, &live, scratch),
            &want,
            what,
        );
        clean(scratch);
        // Row by row through the same scratch, each row within its bound.
        let product = RowProduct::new(a.clone(), b.clone(), live.clone());
        assert_bit_identical(&product.multiply(scratch), &want, what);
        assert!(product.bound(0..live.len()) >= want.nnz(), "{what}: bound");
        scratch.grow(b.cols());
        let mut out = CsrBuilder::new(a.rows(), b.cols());
        for (at, &i) in live.iter().enumerate() {
            let before = out.nnz();
            let n = product.feed_row(at, scratch, |j, v| out.push(i, j, v));
            assert_eq!(n, out.nnz() - before, "{what}: row {i}'s count");
            assert!(n <= product.bound(at..at + 1), "{what}: row {i} overran");
        }
        assert_bit_identical(&out.finish(), &want, &format!("{what}, row by row"));
        clean(scratch);
    }

    /// A matrix from per-row column lists, with values that are not
    /// exactly representable sums (so accumulation order shows in the
    /// bits) and a stored `+0.0` and `-0.0` every so often.
    fn from_columns(cols: usize, rows: &[Vec<Index>]) -> Csr {
        let mut out = CsrBuilder::new(rows.len(), cols);
        let mut n = 0u32;
        for (r, row) in rows.iter().enumerate() {
            for &c in row {
                n += 1;
                let v = match n % 11 {
                    0 => 0.0,
                    5 => -0.0,
                    m => (f64::from(m) - 5.5) * 0.1 + f64::from(n) * 1e-3,
                };
                out.push(r as Index, c, v);
            }
        }
        out.finish()
    }

    /// Flop count of `A`'s row `i` — what the class rule compares with
    /// `SHORT_ROW`.
    fn flops(a: &Csr, b: &Csr, i: usize) -> usize {
        row_extent(a.row(i).0, |k| row_ends(b, k)).0
    }

    #[test]
    fn small_known_product() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).to_csr();
        let b = Dense::from_rows(&[&[0.0, 4.0], &[5.0, 0.0]]).to_csr();
        let c = gustavson(&a, &b);
        assert_eq!(
            c.to_dense(),
            Dense::from_rows(&[&[10.0, 4.0], &[15.0, 0.0]])
        );
    }

    #[test]
    fn matches_oracle_on_random() {
        let pairs = gen::arb::spgemm_pair(24, 90, gen::arb::ValueClass::Float);
        for seed in 0..5 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let c = gustavson(&a, &b);
            assert!(
                c.to_dense()
                    .max_abs_diff(&a.to_dense().matmul(&b.to_dense()))
                    < 1e-10,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn accumulates_duplicates_within_row() {
        // Both k-contributions hit column 0: [1 1] * [[2],[3]] = [5]
        let a = Dense::from_rows(&[&[1.0, 1.0]]).to_csr();
        let b = Dense::from_rows(&[&[2.0], &[3.0]]).to_csr();
        let c = gustavson(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Csr::zero(2, 3);
        let b = Csr::zero(2, 2);
        let _ = gustavson(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn scratch_shape_mismatch_panics() {
        let a = Csr::zero(2, 3);
        let b = Csr::zero(2, 2);
        let _ = gustavson_scratch(&a, &b, &mut MultiplyScratch::new());
    }

    #[test]
    fn output_bound_is_a_true_upper_bound_and_tighter_than_seed_guess() {
        let pairs = gen::arb::spgemm_pair(28, 140, gen::arb::ValueClass::Float);
        for seed in 0..30 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let bound = output_nnz_bound(&a, &b);
            let actual = gustavson(&a, &b).nnz();
            assert!(
                bound >= actual,
                "seed {seed}: bound {bound} < actual {actual}"
            );
            // The flop bound also dominates the symbolic count.
            assert!(bound as u64 >= super::super::product_nnz(&a, &b));
        }
        // The seed guess was not an upper bound: a dense-ish outer shape
        // blows past `a.nnz().max(b.nnz())` while the flop bound holds.
        let a = Dense::from_rows(&[&[1.0], &[1.0], &[1.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0, 1.0]]).to_csr();
        let seed_guess = a.nnz().max(b.nnz());
        let actual = gustavson(&a, &b).nnz();
        assert!(actual > seed_guess, "{actual} <= {seed_guess}");
        assert!(output_nnz_bound(&a, &b) >= actual);
    }

    #[test]
    fn scratch_kernel_is_bit_identical_across_reuse() {
        let pairs = gen::arb::spgemm_pair(24, 90, gen::arb::ValueClass::Float);
        let mut scratch = MultiplyScratch::new();
        for seed in 0..10 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let reference = gustavson_reference(&a, &b);
            let what = format!("seed {seed}");
            assert_bit_identical(&gustavson(&a, &b), &reference, &what);
            let scratched = gustavson_scratch(&a, &b, &mut scratch);
            assert_bit_identical(&scratched, &reference, &what);
        }
        assert!(
            scratch.reuses() > 0,
            "scratch never warmed across 10 varied jobs"
        );
    }

    #[test]
    fn scratch_on_rows_honors_partial_live_lists() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[2.0, 3.0], &[0.0, 4.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0], &[0.0, 5.0]]).to_csr();
        let mut scratch = MultiplyScratch::new();
        // Full live list matches the plain kernel.
        let full = gustavson_scratch_on_rows(&a, &b, &[0, 1, 2], &mut scratch);
        assert_eq!(full, gustavson(&a, &b));
        // Omitted rows come out empty — the condensed contract.
        let partial = gustavson_scratch_on_rows(&a, &b, &[1], &mut scratch);
        assert_eq!(partial.row_nnz(0), 0);
        assert_eq!(partial.row_nnz(2), 0);
        assert_eq!(partial.row(1), full.row(1));
        // Listing an empty row is harmless.
        let a_gap = Dense::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 4.0]]).to_csr();
        let with_gap = gustavson_scratch_on_rows(&a_gap, &b, &[0, 1, 2], &mut scratch);
        assert_eq!(with_gap, gustavson(&a_gap, &b));
    }

    #[test]
    fn scratch_reuse_counter_tracks_warm_calls() {
        let a = gen::uniform_random(40, 40, 200, 7);
        let b = gen::uniform_random(40, 40, 200, 8);
        let mut scratch = MultiplyScratch::new();
        let cold = gustavson_scratch(&a, &b, &mut scratch);
        let after_cold = scratch.reuses();
        let warm = gustavson_scratch(&a, &b, &mut scratch);
        assert_eq!(cold, warm);
        assert_eq!(
            scratch.reuses(),
            after_cold + 1,
            "second call should be warm"
        );
        // A wider B forces SPA growth: not a reuse.
        let wide = gen::uniform_random(40, 400, 200, 9);
        let _ = gustavson_scratch(&a, &wide, &mut scratch);
        assert_eq!(scratch.reuses(), after_cold + 1);
        let _ = gustavson_scratch(&a, &wide, &mut scratch);
        assert_eq!(scratch.reuses(), after_cold + 2);
    }

    #[test]
    fn output_bound_follows_the_row_span() {
        // Every row of a pure band squared fills its span: the bound is
        // the product's size, where capping at `cols` reserved 30x that.
        let band = gen::banded(300, 4, 0, 3);
        let product = gustavson(&band, &band);
        assert_eq!(output_nnz_bound(&band, &band), product.nnz());
        // Empty B rows widen nothing and rows that multiply nothing
        // count nothing.
        let a = from_columns(3, &[vec![0, 1, 2], vec![1], vec![]]);
        let b = from_columns(50, &[vec![10, 12], vec![], vec![11, 40]]);
        assert_eq!(output_nnz_bound(&a, &b), 4);
    }

    #[test]
    fn b_row_table_finds_the_longest_run() {
        let masks_of = |cols: &[Index]| {
            let mut masks = Vec::new();
            let s = BRow::of(cols, &mut masks);
            assert_eq!((s.masks_at, s.masks_len as usize), (0, masks.len()));
            (s, masks)
        };
        let shape = |cols: &[Index]| {
            let s = masks_of(cols).0;
            (s.first, s.last, s.run_at as usize, s.run_len as usize)
        };
        let run = |r: std::ops::Range<Index>| r.collect::<Vec<_>>();
        assert_eq!(shape(&[]), (Index::MAX, 0, 0, 0));
        assert_eq!(shape(&[7]), (7, 7, 0, 0));
        // A whole-row run, at the threshold and one short of it.
        assert_eq!(
            shape(&run(3..3 + MIN_RUN as Index)),
            (3, 2 + MIN_RUN as Index, 0, MIN_RUN)
        );
        assert_eq!(shape(&run(3..2 + MIN_RUN as Index)).3, 0);
        // Outliers before and after.
        let mut cols = vec![0, 2];
        cols.extend(10..22);
        cols.extend([30, 33]);
        assert_eq!(shape(&cols), (0, 33, 2, 12));
        // Two runs: the longer wins wherever it sits; a tie goes to the first.
        let two = |a: std::ops::Range<Index>, b: std::ops::Range<Index>| {
            shape(&a.chain(b).collect::<Vec<_>>())
        };
        assert_eq!(two(0..9, 20..32), (0, 31, 9, 12));
        assert_eq!(two(0..12, 20..29), (0, 28, 0, 12));
        assert_eq!(two(0..10, 20..30), (0, 29, 0, 10));
        // No run at all, up to the last representable column.
        assert_eq!(shape(&(1..40).step_by(2).collect::<Vec<_>>()).3, 0);
        assert_eq!(
            shape(&[0, Index::MAX - 1, Index::MAX]),
            (0, Index::MAX, 0, 0)
        );
        // A run inside a row that is not word-dense (38 columns over 31
        // words) is not a slice: the row goes product by product.
        let sparse: Vec<Index> = (0..8).chain((1..31).map(|w| 64 * w)).collect();
        assert_eq!(shape(&sparse), (0, 64 * 30, 0, 0));
        assert!(masks_of(&sparse).1.is_empty());
        // A word-dense row's masks cover exactly its columns.
        let blocks: Vec<Index> = [0, 4, 60, 64, 200].iter().flat_map(|&c| c..c + 4).collect();
        assert_eq!(shape(&blocks), (0, 203, 0, 8));
        let bits = |r: std::ops::Range<u32>| r.fold(0u64, |m, b| m | 1 << b);
        let want = [
            (0, bits(0..8) | bits(60..64)),
            (1, bits(0..4)),
            (3, bits(8..12)),
        ];
        assert_eq!(masks_of(&blocks).1, want);
    }

    #[test]
    fn rows_at_the_class_boundary_match_the_oracle() {
        let mut scratch = MultiplyScratch::new();
        // One A row over a 12-column B row and an `n`-column B row that
        // overlaps it, so the row's 12 + n flops straddle `SHORT_ROW`
        // (31, 32: short; 33, 34: wide). The first B row is a run added
        // as a slice, or the same count of columns with no run; the second
        // is word-dense (stride 5) or marked product by product (stride 70).
        let with_run: Vec<Index> = (0..12).collect();
        let without_run: Vec<Index> = (0..12).map(|c| 2 * c).collect();
        for first in [with_run, without_run] {
            for stride in [5, 70] {
                for n in SHORT_ROW - 13..=SHORT_ROW - 10 {
                    let a = from_columns(2, &[vec![0, 1]]);
                    let spread = (0..n as Index).map(|c| stride * c).collect();
                    let b = from_columns(1500, &[first.clone(), spread]);
                    assert_eq!(flops(&a, &b, 0), 12 + n);
                    let what = format!("{} flops, stride {stride}", 12 + n);
                    assert_kernel_matches_oracle(&a, &b, &mut scratch, &what);
                }
            }
        }
    }

    #[test]
    fn wide_rows_add_runs_and_outliers_in_oracle_order() {
        let mut outliers_and_run: Vec<Index> = vec![0, 2];
        outliers_and_run.extend(10..22);
        outliers_and_run.extend([30, 33]);
        let b = from_columns(
            40,
            &[
                (5..20).collect(),              // one run
                outliers_and_run,               // run + outliers either side
                (1..40).step_by(2).collect(),   // no run
                vec![],                         // empty, inside spans
                (0..40).collect(),              // the whole width
                vec![39],                       // a lone last column
                (0..9).chain(20..32).collect(), // two runs
            ],
        );
        let a = from_columns(
            7,
            &[
                vec![0, 1, 2, 3, 4, 5, 6],
                vec![],
                vec![1, 3],
                vec![3], // multiplies nothing: an empty output row
                vec![2, 5],
                vec![0],
                vec![4, 6],
                vec![0, 1, 6],
                vec![2, 3, 4],
            ],
        );
        // The grid means to exercise both row classes: check that it does.
        let row_flops: Vec<usize> = (0..a.rows()).map(|i| flops(&a, &b, i)).collect();
        let wide_rows = row_flops.iter().filter(|&&f| f > SHORT_ROW).count();
        let short_rows = row_flops
            .iter()
            .filter(|&&f| (1..=SHORT_ROW).contains(&f))
            .count();
        assert!(wide_rows >= 4 && short_rows >= 3, "{row_flops:?}");
        let mut scratch = MultiplyScratch::new();
        assert_kernel_matches_oracle(&a, &b, &mut scratch, "run grid");
        // Listing rows that multiply nothing, and leaving rows out.
        let want = gustavson_reference(&a, &b);
        let all: Vec<Index> = (0..a.rows() as Index).collect();
        assert_bit_identical(
            &gustavson_scratch_on_rows(&a, &b, &all, &mut scratch),
            &want,
            "all rows listed",
        );
        let some = gustavson_scratch_on_rows(&a, &b, &[0, 4, 7], &mut scratch);
        for i in 0..a.rows() {
            if [0, 4, 7].contains(&i) {
                assert_eq!(some.row(i), want.row(i), "row {i}");
            } else {
                assert_eq!(some.row_nnz(i), 0, "row {i} was not listed");
            }
        }
    }

    #[test]
    #[should_panic(expected = "live rows must be strictly increasing")]
    fn live_rows_out_of_order_panic() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 4.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0], &[0.0, 5.0]]).to_csr();
        let _ = gustavson_scratch_on_rows(&a, &b, &[2, 0], &mut MultiplyScratch::new());
    }

    #[test]
    #[should_panic(expected = "below a.rows()")]
    fn live_rows_out_of_bounds_panic() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[0.0, 4.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0], &[0.0, 5.0]]).to_csr();
        let _ = gustavson_scratch_on_rows(&a, &b, &[0, 2], &mut MultiplyScratch::new());
    }

    #[test]
    fn signed_zero_products_keep_their_sign_bits() {
        // Column by column: -1·0 = -0; -0 + -0 = -0; -0 + +0 = +0;
        // 1·(-0) alone = -0; a stored zero in A; an ordinary sum.
        let mut a = CsrBuilder::new(1, 4);
        for (k, v) in [(0, -1.0), (1, 1.0), (2, 0.0), (3, 1.0)] {
            a.push(0, k, v);
        }
        let a = a.finish();
        let mut scratch = MultiplyScratch::new();
        // `stride` packs the columns into one word or spreads them over
        // several; `pad` adds a 40-column run to `A`'s row, which makes
        // it a wide row.
        for (stride, pad) in [(1, false), (100, false), (1, true), (100, true)] {
            let mut b = CsrBuilder::new(4, 600);
            for (c, v) in [(0, 0.0), (1, 0.0), (2, 0.0), (5, 2.5)] {
                b.push(0, c * stride, v);
            }
            for (c, v) in [(1, -0.0), (2, 0.0), (3, -0.0), (5, 0.75)] {
                b.push(1, c * stride, v);
            }
            for (c, v) in [(4, 7.0), (5, -3.0)] {
                b.push(2, c * stride, v);
            }
            if pad {
                for c in 550..590 {
                    b.push(3, c, f64::from(c));
                }
            }
            let b = b.finish();
            assert_eq!(flops(&a, &b, 0) > SHORT_ROW, pad);
            let what = format!("stride {stride}, pad {pad}");
            assert_kernel_matches_oracle(&a, &b, &mut scratch, &what);
            let bits: Vec<u64> = gustavson(&a, &b)
                .values()
                .iter()
                .map(|v| v.to_bits())
                .collect();
            let want = [-0.0, -0.0, 0.0, -0.0, 0.0, -1.75f64].map(f64::to_bits);
            assert_eq!(bits[..6], want, "{what}");
        }
    }

    /// The products `A[:, r] · B[r, :]` over the panels `ranges` of `a`'s
    /// inner dimension, each over its panel's occupied rows.
    fn panel_products(a: &Csr, b: &Csr, ranges: &[Range<usize>]) -> Vec<RowProduct> {
        let product = |r: &Range<usize>| {
            let (a_panel, live) = a.col_panel_condensed(r.clone());
            RowProduct::new(a_panel, b.row_panel(r.clone()), live)
        };
        ranges.iter().map(product).collect()
    }

    /// The fold of `partials` in order: per slot, their values added from
    /// the first — what a merge tie-broken by position folds.
    fn fold_in_order(partials: &[Csr]) -> Csr {
        let (rows, cols) = (partials[0].rows(), partials[0].cols());
        let mut out = CsrBuilder::new(rows, cols);
        for i in 0..rows {
            let mut sums = std::collections::BTreeMap::new();
            for m in partials {
                let (cs, vs) = m.row(i);
                for (&c, &v) in cs.iter().zip(vs) {
                    sums.entry(c).and_modify(|s| *s += v).or_insert(v);
                }
            }
            for (c, v) in sums {
                out.push(i as Index, c, v);
            }
        }
        out.finish()
    }

    /// Panel products as the sources of [`fold_rows`]: product `p` feeds
    /// its live rows at positions `at[p]..end[p]`, each through
    /// [`RowProduct::feed_row`], and counts the entries it fed in
    /// `counts[p]`.
    struct Products<'a> {
        products: &'a [RowProduct],
        at: Vec<usize>,
        end: Vec<usize>,
        counts: &'a mut [usize],
        scratch: &'a mut MultiplyScratch,
    }

    impl RowSources for Products<'_> {
        type Error = std::convert::Infallible;

        fn count(&self) -> usize {
            self.products.len()
        }

        fn buffered(&self, p: usize) -> (usize, bool) {
            (self.products[p].bound(self.at[p]..self.at[p] + 1), true)
        }

        fn feed(
            &mut self,
            p: usize,
            limit: u64,
            mut f: impl FnMut(u64, f64),
        ) -> Result<Option<u64>, Self::Error> {
            let (product, at) = (&self.products[p], &mut self.at[p]);
            let live = &product.live()[..self.end[p]];
            while live.get(*at).is_some_and(|&i| u64::from(i) < limit) {
                let row = u64::from(live[*at]) << 32;
                let fed = product.feed_row(*at, self.scratch, |j, v| f(row | u64::from(j), v));
                self.counts[p] += fed;
                *at += 1;
            }
            Ok(live.get(*at).map(|&i| u64::from(i)))
        }
    }

    /// Folding panel products fed row by row folds their rows in the order
    /// given, bit for bit, with the rows cut anywhere: over one panel that
    /// is the kernel; over several, in any order, the fold of the panels'
    /// partials. Each product's count is its own product's entries, and
    /// the multiply accumulator is left clean.
    fn assert_panel_sums_fold_their_rows(a: &Csr, b: &Csr, scratch: &mut MultiplyScratch) {
        let five = crate::panel_ranges(a.cols(), 5);
        let reversed: Vec<_> = five.iter().rev().cloned().collect();
        let every_other: Vec<_> = five.iter().step_by(2).cloned().collect();
        let one = crate::panel_ranges(a.cols(), 1);
        let mut fold = FoldScratch::default();
        for (what, ranges) in [
            ("one panel", &one),
            ("five panels", &five),
            ("five panels reversed", &reversed),
            ("every other panel", &every_other),
        ] {
            let products = panel_products(a, b, ranges);
            let own: Vec<Csr> = products.iter().map(|p| p.multiply(scratch)).collect();
            let want = fold_in_order(&own);
            if ranges.len() == 1 {
                assert_bit_identical(&want, &gustavson_reference(a, b), what);
            }
            scratch.grow(b.cols());
            for cut in [0, a.rows() / 3, a.rows()] {
                let mut out = CsrBuilder::new(a.rows(), b.cols());
                let mut counts = vec![0; products.len()];
                for rows in [0..cut, cut..a.rows()] {
                    let position = |row: usize| {
                        let at = |p: &RowProduct| p.live().partition_point(|&i| (i as usize) < row);
                        products.iter().map(at).collect()
                    };
                    let mut sources = Products {
                        products: &products,
                        at: position(rows.start),
                        end: position(rows.end),
                        counts: &mut counts,
                        scratch,
                    };
                    let push = |i, j, v| out.push(i, j, v);
                    let Ok(()) = fold_rows(&mut sources, b.cols(), &mut fold, push);
                    assert!(scratch.spa.is_clean(), "{what}: accumulator left dirty");
                }
                let how = format!("{what}, rows cut at {cut}");
                assert_bit_identical(&out.finish(), &want, &how);
                let nnz: Vec<usize> = own.iter().map(Csr::nnz).collect();
                assert_eq!(counts, nnz, "{how}: per-product entries");
            }
        }
    }

    #[test]
    fn summed_panel_products_fold_their_rows() {
        // Values of both signs and stored zeros of both signs, so
        // `-0.0` products and the order of every sum show in the bits.
        let dress = |m: &Csr| {
            linalg::map_values(m, |v| match (v * 64.0) as i64 % 7 {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => -v - 1e-3,
                _ => v + 1e16 * f64::from(u8::from(v > 0.9)),
            })
        };
        let mut scratch = MultiplyScratch::new();
        // Short and wide rows, word-dense runs and sparse scatter, rows a
        // single panel holds and rows every panel does, and empty rows.
        let band = dress(&gen::banded(90, 9, 12, 1));
        let blocks = dress(&gen::block_sparse(64, 64, 4, 0.2, 2));
        let rmat = dress(&gen::rmat_graph500(128, 6, 3));
        let wide = dress(&gen::uniform_random(128, 900, 500, 4));
        let sparse = dress(&gen::uniform_random(64, 64, 100, 5));
        for (a, b) in [
            (&band, &band),
            (&blocks, &blocks),
            (&rmat, &rmat),
            (&rmat, &wide),
            (&sparse, &sparse),
        ] {
            assert_panel_sums_fold_their_rows(a, b, &mut scratch);
        }
        // The grid reaches rows of several panels, one of which has more
        // than one `A` entry (its row is folded before it is fed), in both
        // row classes.
        let (mut short_row, mut wide_row) = (false, false);
        for (a, b) in [(&rmat, &wide), (&sparse, &sparse), (&band, &band)] {
            let ranges = crate::panel_ranges(a.cols(), 5);
            for i in 0..a.rows() {
                let per_panel = |r: &Range<usize>| {
                    let ka = a.row(i).0;
                    ka.iter().filter(|&&k| r.contains(&(k as usize))).count()
                };
                let entries: Vec<usize> = ranges.iter().map(per_panel).collect();
                let panels = entries.iter().filter(|&&n| n > 0).count();
                if panels >= 2 && entries.iter().any(|&n| n >= 2) {
                    short_row |= flops(a, b, i) <= SHORT_ROW;
                    wide_row |= flops(a, b, i) > SHORT_ROW;
                }
            }
        }
        assert!(short_row && wide_row, "short {short_row}, wide {wide_row}");
    }

    #[test]
    fn one_scratch_serves_operands_of_every_width_and_class() {
        // Negative values, stored zeros of both signs.
        let dress = |m: &Csr| {
            linalg::map_values(m, |v| match (v * 64.0) as i64 % 7 {
                0 => 0.0,
                1 => -0.0,
                2 | 3 => -v,
                _ => v,
            })
        };
        let band = dress(&gen::banded(70, 9, 12, 1));
        let blocks = dress(&gen::block_sparse(64, 64, 4, 0.2, 2));
        let wide = dress(&gen::uniform_random(70, 900, 400, 3));
        let narrow = dress(&gen::uniform_random(64, 5, 120, 4));
        let tall = dress(&gen::uniform_random(900, 70, 500, 5));
        let mut scratch = MultiplyScratch::new();
        for round in 0..2 {
            for (what, a, b) in [
                ("band x band", &band, &band),
                ("band x wide", &band, &wide),
                ("blocks x blocks", &blocks, &blocks),
                ("blocks x narrow", &blocks, &narrow),
                ("tall x band", &tall, &band),
                ("wide x tall", &wide, &tall),
            ] {
                assert_kernel_matches_oracle(a, b, &mut scratch, &format!("{what} #{round}"));
            }
        }
        assert!(scratch.reuses() > 0, "the second round must run warm");
    }
}
