//! Streaming k-way merge of partial matrices.
//!
//! Each merge round consumes up to `ways` inputs — leaf panel pairs,
//! resident CSRs or spilled-partial readers — as sorted `(row, col)`
//! streams and folds them into one partial, summing duplicate
//! coordinates. This is the software analogue of the paper's
//! comparator-array merge tree: the
//! inputs are sorted COO streams, the output is a sorted COO stream, and
//! entries that fold to zero are **kept** (zero elimination is a
//! separate, explicit stage everywhere in this repository).
//!
//! The kernel is built for throughput, mirroring how the paper's merger
//! is a wide comparator array rather than a one-comparator heap:
//!
//! * **Row-wise sources.** Every source hands the fold its rows in
//!   order, each from its own storage, and each row's entries as
//!   `(col, value)`: no source packs a `(row, col)` key. A resident
//!   partial is read in place, row by row, from its CSR arrays, stepping
//!   over its empty rows. A spilled partial decodes up to
//!   `GROUP_ENTRIES` (1024) entries at a time into a [`RowGroup`] it
//!   owns — the row-grouped partial the simulator's rounds store too —
//!   through the branch-free LEB128 reader in `spill.rs`; a row longer
//!   than a group is handed over in parts.
//! * **Leaves multiplied in the fold.** A [`Leaf`] source is a panel pair
//!   `A[:, p]`, `B[p, :]`, not a partial, so a round folds a leaf's rows
//!   as they are produced — SpArch's pipelined multiply and merge
//!   (§II-A), as the simulator's leaves feed its fold. The leaf's partial
//!   is never built, stored or spilled, and its row bounds let a round cut
//!   it into bands at any row. The fold asks a leaf for its head row,
//!   which [`RowProduct::feed_row`] computes on the spot — a row with one
//!   `A` entry as its products, any other folded first through the
//!   band's [`MultiplyScratch`] — and the leaf counts the entries it fed,
//!   for its footprint.
//! * **One row-wise fold.** The sources are the sources of
//!   [`sparch_sparse::algo::fold_rows`], the fold the simulator's merge
//!   rounds run too, in every round: leaves alone, stored partials alone
//!   or a mix. It visits output rows in ascending order, picking them
//!   with a winner tree over the sources' head rows. When one source
//!   alone holds every row below the next source's head row, that run is
//!   copied straight through, across row groups — a one-source round is
//!   a single such run. A row two or more sources share gathers its
//!   segments in source order into the shared accumulator, each fed from
//!   its source's storage: a short row (at most `SHORT_ROW` items, each
//!   segment whole — a resident row always, a spilled one unless it may
//!   go on in the next group, a leaf's counted at its row's bound) is
//!   sorted by `(col, arrival)`, any other row goes through the dense
//!   value array and its occupancy bitmap. The choice is made by the
//!   row's own shape, never by the fan-in.
//! * **Pre-sized output.** A round pre-sizes its two output arrays from
//!   the summed source nnz — a leaf's counted at its rows'
//!   `min(flops, span)` bounds — an upper bound, so the output never
//!   reallocates mid-merge. The pipeline shrinks the root's arrays to the
//!   entries they hold before it hands the product back.
//! * **Row bands.** Because every output row folds on its own,
//!   [`merge_bands`] can cut a round into row bands at the quantiles of
//!   the input weight and fold each band on its own scoped thread, with
//!   its own accumulator from the [`MergeScratch`]. The weight
//!   is read off resident sources' row pointers, leaves' row bounds and
//!   spilled sources' row indexes ([`SpillFile`]'s marks, every
//!   `⌈rows / 1024⌉` rows), so a round without a spilled source can be
//!   cut at any row and a round with one at the marks; each band opens
//!   its own reader on every spilled source, which costs a 64 KiB read
//!   buffer and a row group per band and way.
//!   Each band writes into a disjoint slice of the one output, pre-sized
//!   at the summed source nnz; once the bands join, the later bands
//!   shift down and their row pointers are rebased.
//!
//! Determinism: for one set of sources the fold order is fixed — key
//! order by `(row, col)` with ties broken by source position, and source
//! positions come from the Huffman plan. The accumulator adds each
//! coordinate's values in arrival order from the first one (its slots
//! hold `-0.0`, the additive identity), which is that order, so the
//! merged values are bit-identical regardless of which sources happened
//! to spill, how many threads produced them and how many bands folded
//! them (a band folds whole rows, each exactly as one band would), and
//! whether a leaf's rows were fed as they were computed or its partial
//! was built and folded: a leaf's row is its partial's row, bit for bit.
//! The seed heap kernel is kept, over the sources drained to CSRs, as
//! [`merge_sources_reference`], and a differential suite pins the two to
//! byte-equal outputs.

use crate::spill::{mark_stride, SpillFile, SpillReader, GROUP_ENTRIES};
use crate::StreamError;
use sparch_sparse::algo::{
    fold_rows, FoldScratch, MultiplyScratch, RowGroup, RowProduct, RowSources,
};
use sparch_sparse::{Csr, CsrBuilder, Index, Triple};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Input entries per band below which a round is not cut. On a 2-core
/// host, two bands fold four R-MAT panel partials in 0.95–1.04× one
/// band's time at 2^14 entries per band, 0.71–0.78× at 2^15.6 and
/// 0.60–0.69× from 2^16.5 to 2^18.6. The cutoff sits 8× above that
/// break-even, so a band's fold (milliseconds) dwarfs its thread spawn
/// and its share of the compaction copy.
pub const BAND_MIN_ENTRIES: usize = 1 << 17;

/// The row bands for a round of `triples` input entries that would
/// otherwise run alone on `threads` threads: as many of them as the
/// round fills with at least [`BAND_MIN_ENTRIES`] entries each, and at
/// least one.
pub fn lone_round_bands(triples: usize, threads: usize) -> usize {
    (triples / BAND_MIN_ENTRIES).clamp(1, threads.max(1))
}

/// A leaf of the plan: the panel pair `A[:, p]`, `B[p, :]` whose product
/// the round that folds it computes row by row ([`PartialSource::from_leaf`]).
/// The bands of a round share it, each computing its own rows, and it
/// counts the entries they produced.
#[derive(Debug)]
pub struct Leaf {
    product: RowProduct,
    entries: AtomicUsize,
}

impl Leaf {
    /// The leaf `a · b` over `a`'s occupied rows `live`; builds the
    /// product's `B` table and row bounds.
    ///
    /// # Panics
    ///
    /// As [`RowProduct::new`].
    pub fn new(a: Csr, b: Csr, live: Vec<Index>) -> Self {
        Leaf {
            product: RowProduct::new(a, b, live),
            entries: AtomicUsize::new(0),
        }
    }

    /// The entries its rows have produced so far, summed over the bands
    /// that computed them.
    pub fn entries(&self) -> usize {
        self.entries.load(Relaxed)
    }

    /// [`Csr::estimated_bytes`] of the leaf's partial, had it been built
    /// from the entries produced so far.
    pub fn estimated_bytes(&self) -> u64 {
        Csr::estimated_bytes_of(self.product.shape().0, self.entries())
    }

    /// The position in the live rows of the first one at or past `row`.
    fn position(&self, row: usize) -> usize {
        self.product.live().partition_point(|&i| (i as usize) < row)
    }
}

/// One sorted input stream of a merge round.
#[derive(Debug)]
pub struct PartialSource(Inner);

#[derive(Debug)]
enum Inner {
    /// A resident partial, read in place over rows `row..end`; once the
    /// fold has asked for its head, `row` is that head, a non-empty row.
    /// Bands share one partial and view disjoint row ranges of it.
    Mem {
        csr: Arc<Csr>,
        row: usize,
        end: usize,
    },
    /// A spilled partial, decoded through a bounded buffer into its row
    /// group, read from group row `at`, with the writer's record of the
    /// whole file — whose row index lets a band open a reader at its own
    /// rows — or `None` for a band's reader.
    Disk {
        reader: SpillReader,
        group: Box<RowGroup>,
        at: usize,
        file: Option<Box<SpillFile>>,
    },
    /// A leaf multiplied as it is read: its live rows at positions
    /// `at..end` are still to come, and those before `at` fed `fed`
    /// entries.
    Leaf {
        leaf: Arc<Leaf>,
        at: usize,
        end: usize,
        fed: usize,
    },
}

impl PartialSource {
    /// A source over a resident CSR.
    pub fn from_csr(csr: Csr) -> Self {
        let end = csr.rows();
        PartialSource(Inner::Mem {
            csr: Arc::new(csr),
            row: 0,
            end,
        })
    }

    /// A source streaming a spilled partial back from disk: the file is
    /// opened and its header held to the shape written, with an error
    /// that names the file.
    pub fn from_spill(file: SpillFile) -> Result<Self, StreamError> {
        let reader = SpillReader::open(&file.path)?;
        reader.expect_shape(file.shape.0, file.shape.1)?;
        Ok(PartialSource::from_reader(reader, Some(Box::new(file))))
    }

    /// A source over `reader`, its row group sized to what one decode can
    /// fill — [`GROUP_ENTRIES`], or fewer when the reader holds fewer — so
    /// that a band thread's fold never grows it.
    fn from_reader(reader: SpillReader, file: Option<Box<SpillFile>>) -> Self {
        let entries = usize::try_from(reader.remaining()).unwrap_or(usize::MAX);
        let group = Box::new(RowGroup::with_capacity(entries.min(GROUP_ENTRIES)));
        PartialSource(Inner::Disk {
            reader,
            group,
            at: 0,
            file,
        })
    }

    /// A source multiplying `leaf`'s rows as the fold reads them.
    pub fn from_leaf(leaf: Arc<Leaf>) -> Self {
        let end = leaf.position(usize::MAX);
        PartialSource(Inner::Leaf {
            leaf,
            at: 0,
            end,
            fed: 0,
        })
    }

    /// Drains a fresh source into a CSR: a resident one as it is, a
    /// spilled one through [`SpillReader::read_all`], a leaf multiplied
    /// whole.
    pub(crate) fn into_csr(self) -> Result<Csr, StreamError> {
        match self.0 {
            Inner::Mem { csr, row, end } => {
                debug_assert!(row == 0 && end == csr.rows(), "not a fresh source");
                Ok(Arc::unwrap_or_clone(csr))
            }
            Inner::Disk { reader, .. } => reader.read_all(),
            Inner::Leaf { leaf, .. } => Ok(leaf.product.multiply(&mut MultiplyScratch::new())),
        }
    }

    /// Whether the source has produced nothing yet, so that
    /// [`merge_bands`] can cut its rows into bands (a band's own reader
    /// of a spilled partial cannot be cut again).
    fn fresh(&self) -> bool {
        match &self.0 {
            Inner::Mem { csr, row, end } => csr.row_ptr()[*row] == 0 && *end == csr.rows(),
            Inner::Disk { reader, file, .. } => file
                .as_ref()
                .is_some_and(|f| reader.remaining() == f.index.entries() as u64),
            Inner::Leaf { leaf, at, end, .. } => *at == 0 && *end == leaf.position(usize::MAX),
        }
    }

    /// Input entries of a fresh source before row `row`, cut point `k` of
    /// a spilled one's row index (a leaf's counted at its row bounds).
    fn before(&self, row: usize, k: usize) -> usize {
        match &self.0 {
            Inner::Mem { csr, .. } => csr.row_ptr()[row],
            Inner::Disk { file, .. } => file.as_ref().map_or(0, |f| f.index.entries_before(k)),
            Inner::Leaf { leaf, .. } => leaf.product.bound(0..leaf.position(row)),
        }
    }

    /// A source over rows `rows` — cut points `points` — of a fresh one.
    fn band(&self, rows: Range<usize>, points: Range<usize>) -> Result<Self, StreamError> {
        Ok(match &self.0 {
            Inner::Mem { csr, .. } => PartialSource(Inner::Mem {
                csr: Arc::clone(csr),
                row: rows.start,
                end: rows.end,
            }),
            Inner::Disk { file, .. } => {
                let file = file.as_deref().expect("a fresh spilled source");
                PartialSource::from_reader(SpillReader::open_band(file, points)?, None)
            }
            Inner::Leaf { leaf, .. } => PartialSource(Inner::Leaf {
                leaf: Arc::clone(leaf),
                at: leaf.position(rows.start),
                end: leaf.position(rows.end),
                fed: 0,
            }),
        })
    }

    /// Errors unless the source declares the shape `rows × cols`: a
    /// resident CSR its own, a spilled partial its header (an error that
    /// names the file).
    pub fn expect_shape(&self, rows: usize, cols: usize) -> Result<(), StreamError> {
        let (r, c) = match &self.0 {
            Inner::Mem { csr, .. } => (csr.rows(), csr.cols()),
            Inner::Disk { reader, .. } => return reader.expect_shape(rows, cols),
            Inner::Leaf { leaf, .. } => leaf.product.shape(),
        };
        if (r, c) == (rows, cols) {
            return Ok(());
        }
        let msg = format!("resident partial or leaf is {r}x{c}, expected {rows}x{cols}");
        Err(StreamError::Shape(msg))
    }

    /// Entries a fresh source will produce — the exact nnz of a partial,
    /// an upper bound for a leaf (its rows' `min(flops, span)`) — used to
    /// pre-size merge outputs.
    pub fn remaining_nnz(&self) -> usize {
        match &self.0 {
            Inner::Mem { csr, row, end } => csr.row_ptr()[*end] - csr.row_ptr()[*row],
            Inner::Disk { reader, .. } => reader.remaining() as usize,
            Inner::Leaf { leaf, at, end, .. } => leaf.product.bound(*at..*end),
        }
    }

    /// The entries of the head row at hand, and whether they are the
    /// whole row: a resident row always is, and a leaf's row is computed
    /// whole when it is fed, within its bound; a spilled row at the end
    /// of its row group may go on in the next.
    fn buffered(&self) -> (usize, bool) {
        match &self.0 {
            Inner::Mem { csr, row, .. } => (csr.row_ptr()[*row + 1] - csr.row_ptr()[*row], true),
            Inner::Disk { group, at, .. } => (group.row_len(*at), *at + 1 < group.row_count()),
            Inner::Leaf { leaf, at, .. } => (leaf.product.bound(*at..*at + 1), true),
        }
    }

    /// The row of the head, or `None` once the source is exhausted: a
    /// resident partial steps over its empty rows, a spilled one decodes
    /// its next row group once it has read the last.
    fn head(&mut self) -> Result<Option<Index>, StreamError> {
        Ok(match &mut self.0 {
            Inner::Mem { csr, row, end } => {
                let rp = csr.row_ptr();
                while *row < *end && rp[*row] == rp[*row + 1] {
                    *row += 1;
                }
                (*row < *end).then_some(*row as Index)
            }
            Inner::Disk {
                reader, group, at, ..
            } => {
                if *at == group.row_count() {
                    reader.next_rows(GROUP_ENTRIES, group)?;
                    *at = 0;
                }
                group.head(*at)
            }
            Inner::Leaf { leaf, at, end, .. } => leaf.product.live()[..*end].get(*at).copied(),
        })
    }

    /// Feeds every entry of the head row to `f` as `(col, value)` — a
    /// leaf's row multiplied through `scratch`, a spilled partial's read
    /// on into its next row group if it goes on there — and returns the
    /// row of the new head.
    #[inline(always)]
    fn feed(
        &mut self,
        scratch: &mut MultiplyScratch,
        mut f: impl FnMut(Index, f64),
    ) -> Result<Option<Index>, StreamError> {
        match &mut self.0 {
            Inner::Mem { csr, row, .. } => {
                let (cols, vals) = csr.row(*row);
                for (&c, &v) in cols.iter().zip(vals) {
                    f(c, v);
                }
                *row += 1;
            }
            Inner::Disk {
                reader, group, at, ..
            } => {
                let row = group.head(*at);
                group.feed(at, &mut f);
                while *at == group.row_count() {
                    reader.next_rows(GROUP_ENTRIES, group)?;
                    *at = 0;
                    if group.head(0) != row {
                        break;
                    }
                    group.feed(at, &mut f);
                }
            }
            Inner::Leaf { leaf, at, fed, .. } => {
                *fed += leaf.product.feed_row(*at, scratch, f);
                *at += 1;
            }
        }
        self.head()
    }
}

/// What one band's fold runs on: the shared fold's scratch and the
/// accumulator its leaves' rows are multiplied through.
#[derive(Debug, Default)]
struct BandScratch {
    fold: FoldScratch,
    product: MultiplyScratch,
}

impl BandScratch {
    /// Grows every buffer a fold of `sources` over `cols` columns can
    /// reach, so a band thread folds without allocating — its allocations
    /// would otherwise open a fresh allocator arena. Each band fold with a
    /// leaf whose accumulator was already grown counts as one of its
    /// reuses.
    fn grow(&mut self, sources: &[PartialSource], cols: usize) {
        self.fold.grow(sources.len(), cols);
        if sources.iter().any(|s| matches!(s.0, Inner::Leaf { .. })) {
            self.product.grow(cols);
        }
    }
}

/// One band's slices of the output, filled in row-major order: entries
/// into `col_idx`/`values` from their start, and the end of each of the
/// band's rows, counted from its first entry, into `row_ends`.
struct BandOut<'a> {
    band: Range<usize>,
    /// The first row whose end is not yet written.
    row: usize,
    /// Entries written.
    n: usize,
    row_ends: &'a mut [usize],
    col_idx: &'a mut [Index],
    values: &'a mut [f64],
}

impl BandOut<'_> {
    #[inline]
    fn push(&mut self, r: Index, c: Index, v: f64) {
        while self.row < r as usize {
            self.row_ends[self.row - self.band.start] = self.n;
            self.row += 1;
        }
        self.col_idx[self.n] = c;
        self.values[self.n] = v;
        self.n += 1;
    }

    /// Ends the band's last rows and returns the entries written.
    fn finish(self) -> usize {
        self.row_ends[self.row - self.band.start..].fill(self.n);
        self.n
    }
}

/// Reusable per-worker scratch for [`merge_bands`]: one band scratch
/// per band (the first serves one-band rounds), kept allocated across
/// rounds so steady-state merging never touches the allocator for
/// scratch.
#[derive(Debug, Default)]
pub struct MergeScratch {
    bands: Vec<BandScratch>,
}

impl MergeScratch {
    /// An empty scratch; its accumulators grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        MergeScratch::default()
    }

    /// Band folds with a leaf whose multiply accumulator was already
    /// warm, over every band ([`MultiplyScratch::reuses`]).
    pub fn multiply_reuses(&self) -> u64 {
        self.bands.iter().map(|band| band.product.reuses()).sum()
    }

    /// The first `bands` band scratches, created on first use.
    fn bands(&mut self, bands: usize) -> &mut [BandScratch] {
        if self.bands.len() < bands {
            self.bands.resize_with(bands, BandScratch::default);
        }
        &mut self.bands[..bands]
    }
}

/// A band's sources as the shared fold's sources, each fed from its own
/// storage.
struct BandSources<'a> {
    sources: &'a mut [PartialSource],
    product: &'a mut MultiplyScratch,
}

impl RowSources for BandSources<'_> {
    type Error = StreamError;

    fn count(&self) -> usize {
        self.sources.len()
    }

    fn head(&mut self, k: usize) -> Result<Option<Index>, StreamError> {
        self.sources[k].head()
    }

    fn buffered(&self, k: usize) -> (usize, bool) {
        self.sources[k].buffered()
    }

    /// Inlined into the fold, so that the accumulator a shared row is fed
    /// into stays a local of [`fold_rows`]: called through, with a leaf's
    /// row emitted into it entry by entry, it made a one-thread 16-panel
    /// 4-way Uniform(60 000, 8)² multiply 1.04–1.10× slower on a 2-core
    /// host.
    #[inline(always)]
    fn feed(&mut self, k: usize, f: impl FnMut(Index, f64)) -> Result<Option<Index>, StreamError> {
        self.sources[k].feed(self.product, f)
    }
}

/// Merges sorted partial streams into one `rows × cols` partial, folding
/// duplicate coordinates by addition (explicit zeros kept) — one band of
/// [`merge_bands`].
pub fn merge_sources(
    rows: usize,
    cols: usize,
    sources: Vec<PartialSource>,
    scratch: &mut MergeScratch,
) -> Result<Csr, StreamError> {
    merge_bands(rows, cols, sources, scratch, 1).map(|(csr, _)| csr)
}

/// Merges sorted partial streams into one `rows × cols` partial, folding
/// duplicate coordinates by addition (explicit zeros kept), with the
/// output rows cut into up to `bands` bands, each folded on its own
/// thread (the first on the caller's). Returns the partial and the number
/// of bands that folded it. The output is pre-sized from the summed
/// source nnz, an exact upper bound, so it never reallocates mid-merge,
/// and it is bit-identical at every band count.
///
/// The cuts are read off the sources' row pointers and, for spilled
/// sources, their row indexes: a round can be cut at any row when every
/// source is resident and at the spill files' marks otherwise, and each
/// band opens its own reader on every spilled source. A round that has
/// already produced entries folds as one band, and a round never gets
/// more bands than it has cut points or input entries.
///
/// Every source must declare the merge's own shape
/// ([`PartialSource::expect_shape`]): entries are checked against their
/// source's shape as they are decoded, and the output trusts them to fit.
pub fn merge_bands(
    rows: usize,
    cols: usize,
    sources: Vec<PartialSource>,
    scratch: &mut MergeScratch,
    bands: usize,
) -> Result<(Csr, usize), StreamError> {
    for src in &sources {
        src.expect_shape(rows, cols)?;
    }
    let total: usize = sources.iter().map(PartialSource::remaining_nnz).sum();
    // Cut point `k` is row `k · grain`: every row when no source is
    // spilled, every mark of the spill files' row indexes otherwise.
    let spilled = sources.iter().any(|s| matches!(s.0, Inner::Disk { .. }));
    let grain = if spilled { mark_stride(rows) } else { 1 };
    let points = rows.div_ceil(grain);
    let bands = bands.min(points).min(total);
    // Band `b` folds rows `cuts[b]..cuts[b + 1]` into the output from
    // `offsets[b]`: the input entries below its first row bound the
    // output entries before it.
    let (cuts, offsets, inputs) = if bands < 2 || !sources.iter().all(PartialSource::fresh) {
        (vec![0, rows], vec![0, total], vec![sources])
    } else {
        let row = |k: usize| (k * grain).min(rows);
        // Input entries before cut point `k`, over all sources.
        let below = |k: usize| -> usize { sources.iter().map(|s| s.before(row(k), k)).sum() };
        // Each cut is the first point with at least its quantile of
        // the input before it.
        let mut at = vec![0];
        for b in 1..bands {
            let goal = (total as u128 * b as u128 / bands as u128) as usize;
            let (mut lo, mut hi) = (at[b - 1], points);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if below(mid) < goal {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            at.push(lo);
        }
        at.push(points);
        let band = |span: &[usize]| {
            let rows = row(span[0])..row(span[1]);
            let view = |s: &PartialSource| s.band(rows.clone(), span[0]..span[1]);
            sources.iter().map(view).collect::<Result<Vec<_>, _>>()
        };
        let inputs = at.windows(2).map(band).collect::<Result<_, _>>()?;
        let offsets = at.iter().map(|&k| below(k)).collect();
        let cuts = at.iter().map(|&k| row(k)).collect();
        // The band views hold the inputs now, and drop them as their
        // folds end — before the compaction touches the output's gaps.
        drop(sources);
        (cuts, offsets, inputs)
    };
    let bands = inputs.len();

    let mut row_ptr = vec![0; rows + 1];
    let mut col_idx: Vec<Index> = vec![0; total];
    let mut values = vec![0.0; total];
    let filled: Vec<Result<usize, StreamError>> = std::thread::scope(|scope| {
        let mut row_ends = &mut row_ptr[1..];
        let (mut col_rest, mut val_rest) = (&mut col_idx[..], &mut values[..]);
        let mut jobs = Vec::with_capacity(bands);
        let folds = scratch.bands(bands).iter_mut().zip(inputs);
        for (b, (fold, sources)) in folds.enumerate() {
            let band = cuts[b]..cuts[b + 1];
            let len = offsets[b + 1] - offsets[b];
            let ends;
            (ends, row_ends) = std::mem::take(&mut row_ends).split_at_mut(band.len());
            let out;
            (out, col_rest) = std::mem::take(&mut col_rest).split_at_mut(len);
            let vals;
            (vals, val_rest) = std::mem::take(&mut val_rest).split_at_mut(len);
            let out = BandOut {
                row: band.start,
                band,
                n: 0,
                row_ends: ends,
                col_idx: out,
                values: vals,
            };
            fold.grow(&sources, cols);
            jobs.push(move || fold_band(sources, fold, cols, out));
        }
        let mut jobs = jobs.into_iter();
        let first = jobs.next().expect("at least one band");
        let rest: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
        let mut filled = vec![first()];
        for band in rest {
            filled.push(band.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        filled
    });
    let mut nnz = 0;
    for (b, filled) in filled.into_iter().enumerate() {
        let n = filled?;
        let from = offsets[b];
        if from != nnz {
            col_idx.copy_within(from..from + n, nnz);
            values.copy_within(from..from + n, nnz);
        }
        for end in &mut row_ptr[cuts[b] + 1..=cuts[b + 1]] {
            *end += nnz;
        }
        nnz += n;
    }
    col_idx.truncate(nnz);
    values.truncate(nnz);
    let merged = Csr::from_parts_trusted(rows, cols, row_ptr, col_idx, values);
    Ok((merged, bands))
}

/// Folds one band of `sources` into its slices of the output `out` and
/// returns the entries written; each leaf among them counts the entries
/// it fed. `scratch` must have grown to the sources
/// ([`BandScratch::grow`]).
fn fold_band(
    mut sources: Vec<PartialSource>,
    scratch: &mut BandScratch,
    cols: usize,
    mut out: BandOut<'_>,
) -> Result<usize, StreamError> {
    let BandScratch { fold, product } = scratch;
    // Every source yields strictly increasing in-shape keys — resident
    // CSRs by invariant, spilled ones because `SpillReader` checks each
    // entry it decodes, leaves by the kernel — and rows leave in
    // ascending order, so entries go straight into the output.
    let folded = fold_rows(
        &mut BandSources {
            sources: &mut sources,
            product,
        },
        cols,
        fold,
        |r, c, v| out.push(r, c, v),
    );
    for src in &sources {
        if let Inner::Leaf { leaf, fed, .. } = &src.0 {
            leaf.entries.fetch_add(*fed, Relaxed);
        }
    }
    folded?;
    Ok(out.finish())
}

/// The seed kernel — `BinaryHeap` over source heads with an `Option`
/// accumulator — kept verbatim as the differential oracle, over the
/// sources drained to CSRs first ([`PartialSource::into_csr`]: a leaf
/// multiplied whole, a spilled partial read back whole). Output is
/// byte-identical to [`merge_sources`] on every input. Only tests call it.
#[doc(hidden)]
pub fn merge_sources_reference(
    rows: usize,
    cols: usize,
    sources: Vec<PartialSource>,
) -> Result<Csr, StreamError> {
    for src in &sources {
        src.expect_shape(rows, cols)?;
    }
    let parts = sources
        .into_iter()
        .map(PartialSource::into_csr)
        .collect::<Result<Vec<_>, _>>()?;
    let mut sources: Vec<_> = parts.iter().map(Csr::iter).collect();
    let mut out = CsrBuilder::new(rows, cols);
    // Heap keys are (row, col, source-index): coordinate order first, and
    // within one coordinate the plan's child order — a fixed, documented
    // fold order.
    let mut heap: BinaryHeap<Reverse<(u32, u32, usize)>> = BinaryHeap::with_capacity(sources.len());
    let mut heads: Vec<Option<Triple>> = Vec::with_capacity(sources.len());
    for (s, src) in sources.iter_mut().enumerate() {
        let head = src.next();
        if let Some((r, c, _)) = head {
            heap.push(Reverse((r, c, s)));
        }
        heads.push(head);
    }

    let mut acc: Option<Triple> = None;
    while let Some(Reverse((r, c, s))) = heap.pop() {
        let (_, _, v) = heads[s].take().expect("head present for heap entry");
        acc = match acc {
            Some((ar, ac, av)) if (ar, ac) == (r, c) => Some((ar, ac, av + v)),
            Some((ar, ac, av)) => {
                out.push(ar, ac, av);
                Some((r, c, v))
            }
            None => Some((r, c, v)),
        };
        let next = sources[s].next();
        if let Some((nr, nc, _)) = next {
            heap.push(Reverse((nr, nc, s)));
        }
        heads[s] = next;
    }
    if let Some((r, c, v)) = acc {
        out.push(r, c, v);
    }
    Ok(out.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::write_partial;
    use crate::tempdir::TempDir;
    use crate::SpillCodec;
    use sparch_sparse::algo::SHORT_ROW;
    use sparch_sparse::{algo, gen, linalg};

    fn mem(csr: Csr) -> PartialSource {
        PartialSource::from_csr(csr)
    }

    fn merge(rows: usize, cols: usize, sources: Vec<PartialSource>) -> Csr {
        merge_sources(rows, cols, sources, &mut MergeScratch::new()).unwrap()
    }

    /// Element-wise sum oracle via repeated linalg addition on dense.
    fn sum_oracle(parts: &[Csr]) -> Csr {
        let mut acc = parts[0].clone();
        for p in &parts[1..] {
            acc = linalg::add(&acc, p);
        }
        acc
    }

    #[test]
    fn merges_mem_sources_like_matrix_addition() {
        let parts: Vec<Csr> = (0..3)
            .map(|s| gen::uniform_random(12, 14, 40, s as u64))
            .collect();
        let merged = merge(12, 14, parts.iter().cloned().map(mem).collect());
        assert_eq!(merged, sum_oracle(&parts));
    }

    #[test]
    fn disk_and_mem_sources_merge_identically() {
        let dir = TempDir::new("merge_mixed");
        let parts: Vec<Csr> = (0..4)
            .map(|s| gen::uniform_random(10, 10, 30, 50 + s as u64))
            .collect();
        let all_mem = merge(10, 10, parts.iter().cloned().map(mem).collect());
        // Spill sources 1 and 3 to disk.
        let mut mixed = Vec::new();
        for (s, p) in parts.iter().enumerate() {
            if s % 2 == 1 {
                let path = dir.file(&format!("mixed{s}.bin"));
                let file = write_partial(&path, p, SpillCodec::Varint).unwrap();
                mixed.push(PartialSource::from_spill(file).unwrap());
            } else {
                mixed.push(mem(p.clone()));
            }
        }
        let merged = merge(10, 10, mixed);
        assert_eq!(merged, all_mem);
    }

    /// A spill file damaged on disk must stop a merge of each fan-in in
    /// `fan_ins` with an error naming it — wherever it sits among spilled
    /// and resident neighbours, with or without a leaf ahead of them,
    /// whether the damage is in its first row group or strikes mid-merge, at
    /// one to four bands — instead of feeding `push_trusted` rows past the
    /// shape. With the leaf, the error lands while its row sits in the
    /// shared accumulator. The scratch that saw the failure then merges
    /// clean sources exactly.
    fn assert_damaged_spill_stops_the_merge(tag: &str, fan_ins: &[usize]) {
        let dir = TempDir::new(tag);
        // All-ones values and < 64 columns: every varint entry is exactly
        // 5 bytes, so body byte `5 * e` is the row delta of entry `e`.
        let ones = |seed| linalg::map_values(&gen::uniform_random(64, 64, 2000, seed), |_| 1.0);
        let clean = write_partial(&dir.file("clean.bin"), &ones(2), SpillCodec::Varint).unwrap();
        let spilled = |file: &SpillFile| PartialSource::from_spill(file.clone()).unwrap();
        let leaf = || {
            let a = ones(7);
            let live = a.occupied_rows();
            PartialSource::from_leaf(Arc::new(Leaf::new(a, ones(8), live)))
        };
        for entry in [120, GROUP_ENTRIES + 76] {
            let damaged = dir.file("damaged.bin");
            let file = write_partial(&damaged, &ones(1), SpillCodec::Varint).unwrap();
            assert!(ones(1).nnz() > entry);
            assert_eq!(file.bytes, 28 + 5 * ones(1).nnz() as u64);
            let mut bytes = std::fs::read(&damaged).unwrap();
            bytes[28 + 5 * entry] = 0x7f;
            std::fs::write(&damaged, bytes).unwrap();
            for (&ways, with_leaf, bands) in fan_ins
                .iter()
                .flat_map(|w| [(w, false), (w, true)])
                .flat_map(|(w, l)| (1..=4).map(move |bands| (w, l, bands)))
            {
                let mut scratch = MergeScratch::new();
                for at in 0..ways {
                    let sources = (with_leaf.then(leaf).into_iter())
                        .chain((0..ways).map(|s| match s {
                            _ if s == at => spilled(&file),
                            _ if s % 2 == 0 => spilled(&clean),
                            _ => mem(ones(2 + s as u64)),
                        }))
                        .collect();
                    let what = format!(
                        "{ways}-way, leaf {with_leaf}, {bands} bands, entry {entry} damaged at {at}"
                    );
                    match merge_bands(64, 64, sources, &mut scratch, bands) {
                        Err(StreamError::Io(msg)) => assert!(
                            msg.contains("damaged.bin") && msg.contains("outside declared shape"),
                            "{what}: {msg}"
                        ),
                        other => panic!("{what}: got {other:?}"),
                    }
                    let parts: Vec<Csr> = (0..ways).map(|s| ones(2 + s as u64)).collect();
                    let merged = merge_bands(
                        64,
                        64,
                        parts.iter().cloned().map(mem).collect(),
                        &mut scratch,
                        bands,
                    );
                    assert_eq!(
                        merged.unwrap().0,
                        sum_oracle(&parts),
                        "{what}: scratch after the error"
                    );
                }
            }
        }
    }

    #[test]
    fn a_damaged_spill_file_stops_the_two_way_merge() {
        assert_damaged_spill_stops_the_merge("merge_damaged_two", &[2]);
    }

    #[test]
    fn a_damaged_spill_file_stops_the_k_way_merge_and_the_single_source_copy() {
        assert_damaged_spill_stops_the_merge("merge_damaged_k", &[1, 3, 4]);
    }

    /// A spill file removed or truncated after its source was opened, in
    /// a round beside a leaf and a resident partial. At one band the
    /// reader opened with the source reads on, so a removed file still
    /// merges exactly; at more bands each band opens the file again
    /// ([`SpillReader::open_band`]), so a removed file is an error naming
    /// it. A truncated file, longer than the reader's 64 KiB buffer, fails
    /// at every band count. The scratch then merges clean sources exactly.
    #[test]
    fn a_spill_file_gone_or_short_under_a_banded_round_fails_or_merges_exactly() {
        let dir = TempDir::new("merge_spill_gone");
        let n = 600;
        let a = gen::uniform_random(n, 40, 3000, 11);
        let b = gen::uniform_random(40, n, 3000, 12);
        let stored = gen::uniform_random(n, n, 25_000, 13);
        let resident = gen::uniform_random(n, n, 2000, 14);
        let leaf = || {
            let live = a.occupied_rows();
            PartialSource::from_leaf(Arc::new(Leaf::new(a.clone(), b.clone(), live)))
        };
        let round = |spilled| vec![leaf(), spilled, mem(resident.clone())];
        let want = merge_sources_reference(n, n, round(mem(stored.clone()))).unwrap();
        let path = dir.file("gone.bin");
        let mut scratch = MergeScratch::new();
        for bands in 1..=4 {
            for damage in ["removed", "truncated"] {
                let file = write_partial(&path, &stored, SpillCodec::Raw).unwrap();
                assert!(
                    file.bytes > 4 * 64 * 1024,
                    "the file outgrows the read buffer"
                );
                let spilled = PartialSource::from_spill(file.clone()).unwrap();
                if damage == "removed" {
                    std::fs::remove_file(&path).unwrap();
                } else {
                    let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
                    f.set_len(file.bytes / 2).unwrap();
                }
                let what = format!("{damage}, {bands} bands asked");
                match merge_bands(n, n, round(spilled), &mut scratch, bands) {
                    Ok((got, ran)) if damage == "removed" && bands == 1 => {
                        assert_eq!(ran, 1, "{what}");
                        assert_eq!(got, want, "{what}");
                        assert_eq!(bits(&got), bits(&want), "{what}");
                    }
                    Err(StreamError::Io(msg)) if damage == "truncated" || bands > 1 => {
                        assert!(msg.contains("gone.bin"), "{what}: {msg}");
                    }
                    other => panic!("{what}: got {other:?}"),
                }
                let (got, ran) =
                    merge_bands(n, n, round(mem(stored.clone())), &mut scratch, bands).unwrap();
                assert_eq!(ran, bands, "{what}: clean merge after");
                assert_eq!(bits(&got), bits(&want), "{what}: clean merge after");
                let _ = std::fs::remove_file(&path);
            }
        }
    }

    /// A source that declares a shape other than the merge's is refused
    /// before a single entry is merged: spilled ones with their path,
    /// resident ones as a shape error — by both kernels.
    #[test]
    fn sources_must_declare_the_merge_shape() {
        let dir = TempDir::new("merge_shape");
        let part = gen::uniform_random(10, 12, 30, 4);
        let file = write_partial(&dir.file("wide.bin"), &part, SpillCodec::Varint).unwrap();
        for kernel in ["merge_sources", "merge_sources_reference"] {
            let run = |sources: Vec<PartialSource>| match kernel {
                "merge_sources" => merge_sources(10, 8, sources, &mut MergeScratch::new()),
                _ => merge_sources_reference(10, 8, sources),
            };
            let spilled = PartialSource::from_spill(file.clone()).unwrap();
            match run(vec![mem(Csr::zero(10, 8)), spilled]) {
                Err(StreamError::Io(msg)) => assert!(
                    msg.contains("wide.bin") && msg.contains("declares shape 10x12"),
                    "{kernel}: {msg}"
                ),
                other => panic!("{kernel}: expected an Io error, got {other:?}"),
            }
            assert!(
                matches!(run(vec![mem(part.clone())]), Err(StreamError::Shape(_))),
                "{kernel}"
            );
        }
    }

    #[test]
    fn folded_zeros_are_kept() {
        let a = Csr::try_new(1, 2, vec![0, 2], vec![0, 1], vec![2.0, 1.0]).unwrap();
        let b = Csr::try_new(1, 2, vec![0, 1], vec![0], vec![-2.0]).unwrap();
        let merged = merge(1, 2, vec![mem(a), mem(b)]);
        assert_eq!(merged.nnz(), 2, "cancelled entry must stay structural");
        assert_eq!(merged.get(0, 0), Some(0.0));
        assert_eq!(merged.get(0, 1), Some(1.0));
    }

    #[test]
    fn single_and_empty_sources() {
        let m = gen::uniform_random(6, 6, 12, 3);
        assert_eq!(merge(6, 6, vec![mem(m.clone())]), m);
        let empty = merge(6, 6, vec![]);
        assert_eq!(empty.nnz(), 0);
        assert_eq!((empty.rows(), empty.cols()), (6, 6));
        let with_zero = merge(6, 6, vec![mem(m.clone()), mem(Csr::zero(6, 6))]);
        assert_eq!(with_zero, m);
    }

    #[test]
    fn panel_partials_reassemble_the_product() {
        // The real use: partials of A[:, p] · B[p, :] merge to A · B.
        let a = gen::rmat_graph500(40, 4, 2);
        let b = gen::uniform_random(40, 32, 200, 3);
        let parts: Vec<Csr> = sparch_sparse::panel_ranges(a.cols(), 5)
            .into_iter()
            .map(|r| algo::gustavson(&a.col_panel(r.clone()), &b.row_panel(r)))
            .filter(|p| p.nnz() > 0)
            .collect();
        let merged = merge(40, 32, parts.into_iter().map(mem).collect());
        assert_eq!(merged, algo::gustavson(&a, &b));
    }

    /// The row fold must be byte-identical to the seed `BinaryHeap`
    /// kernel at every fan-in, over heavily overlapping sources (duplicate
    /// coordinates in most merge steps) and over disk/mem mixes under
    /// both codecs.
    #[test]
    fn chunked_kernel_matches_reference_heap() {
        let dir = TempDir::new("merge_differential");
        for ways in [2usize, 3, 4, 5, 7, 8, 9] {
            // Same shape for all sources → dense coordinate collisions;
            // float values so fold order differences would show in bits.
            let parts: Vec<Csr> = (0..ways)
                .map(|s| gen::uniform_random(30, 26, 220, 400 + s as u64))
                .collect();
            for codec in [SpillCodec::Raw, SpillCodec::Varint] {
                let make = |spill_mask: usize| -> Vec<PartialSource> {
                    parts
                        .iter()
                        .enumerate()
                        .map(|(s, p)| {
                            if spill_mask >> (s % 8) & 1 == 1 {
                                let path = dir.file(&format!("d{ways}_{codec}_{spill_mask}_{s}"));
                                PartialSource::from_spill(write_partial(&path, p, codec).unwrap())
                                    .unwrap()
                            } else {
                                mem(p.clone())
                            }
                        })
                        .collect()
                };
                // All-mem, all-disk, and an alternating mix.
                for mask in [0usize, 0xff, 0b0101_0101] {
                    let fast = merge(30, 26, make(mask));
                    let slow = merge_sources_reference(30, 26, make(mask)).unwrap();
                    assert_eq!(fast, slow, "ways {ways} {codec} mask {mask:#x}");
                    for (a, b) in fast.values().iter().zip(slow.values()) {
                        assert_eq!(a.to_bits(), b.to_bits(), "ways {ways} {codec}");
                    }
                }
            }
        }
    }

    /// A value whose sums with its neighbours round, so fold order shows
    /// in the bits.
    fn value(n: usize) -> f64 {
        match n % 4 {
            0 => 1e16,
            1 => -1e16 + 1.0,
            2 => 0.1 * (n as f64 + 1.0),
            _ => -0.3 / (n as f64 + 1.0),
        }
    }

    /// A `rows × cols` partial holding `entries`, given in any order.
    fn partial(rows: usize, cols: usize, entries: impl IntoIterator<Item = Triple>) -> Csr {
        let mut coo = sparch_sparse::Coo::new(rows, cols);
        for (r, c, v) in entries {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    /// Merges `parts` asked for four bands with every other source
    /// spilled, and then every source, under each codec — a spilled
    /// round is cut at its files' marks — then resident at every band
    /// count from one to eight (more bands than rows included), all
    /// through one scratch, and checks each result against the reference
    /// heap bit for bit and each band count against what the round
    /// allows.
    fn assert_matches_reference_bits(
        dir: &TempDir,
        parts: &[Csr],
        shape: (usize, usize),
        what: &str,
    ) {
        let (rows, cols) = shape;
        let want = merge_sources_reference(rows, cols, parts.iter().cloned().map(mem).collect());
        let want = want.unwrap();
        let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let check = |got: Csr, how: &str| {
            assert_eq!(got, want, "{what}, {how}");
            assert_eq!(bits(&got), bits(&want), "{what}, {how}");
        };
        let total: usize = parts.iter().map(Csr::nnz).sum();
        // The tests' shapes are under 1024 rows: every row is a mark.
        assert_eq!(mark_stride(rows), 1);
        let most = |bands: usize| bands.min(rows).min(total).max(1);
        let mut scratch = MergeScratch::new();
        for codec in [SpillCodec::Raw, SpillCodec::Varint] {
            for every in [2, 1] {
                let sources = parts
                    .iter()
                    .enumerate()
                    .map(|(s, p)| match s % every {
                        0 => {
                            let path = dir.file(&format!("{s}.bin"));
                            PartialSource::from_spill(write_partial(&path, p, codec).unwrap())
                                .unwrap()
                        }
                        _ => mem(p.clone()),
                    })
                    .collect();
                let (got, ran) = merge_bands(rows, cols, sources, &mut scratch, 4).unwrap();
                let how = format!("every {every} spilled as {codec}, 4 bands asked, {ran} ran");
                assert_eq!(ran, most(4), "{what}: {how}");
                check(got, &how);
            }
        }
        for bands in 1..=8 {
            let sources = parts.iter().cloned().map(mem).collect();
            let (got, ran) = merge_bands(rows, cols, sources, &mut scratch, bands).unwrap();
            assert_eq!(ran, most(bands), "{what}: {bands} bands asked, {ran} ran");
            check(got, &format!("resident in {bands} bands"));
        }
    }

    /// Degenerate fan-ins agree with the reference too: empty sources,
    /// singletons, full cancellation, every source identical, all the
    /// weight in one row, a one-row matrix, and a partial whose rows lie
    /// far apart, alone and beside a denser one. So do
    /// the row shapes the fold tells apart, at every fan-in: rows of
    /// exactly `SHORT_ROW` and `SHORT_ROW + 1` items, and `+0.0` / `-0.0`
    /// collisions in short and wide rows (a column of `-0.0`s sums to
    /// `-0.0`, one `+0.0` among them makes it `+0.0`).
    #[test]
    fn kernel_edge_cases_match_reference() {
        let dir = TempDir::new("merge_edge_cases");
        let m = gen::uniform_random(9, 9, 25, 77);
        let neg = linalg::map_values(&m, |v| -v);
        let cases: Vec<Vec<Csr>> = vec![
            vec![],
            vec![Csr::zero(9, 9)],
            vec![m.clone()],
            vec![m.clone(), neg.clone()],
            vec![m.clone(), neg.clone(), m.clone()],
            vec![Csr::zero(9, 9); 5],
            vec![m.clone(); 4],
            vec![m.clone(), Csr::zero(9, 9), m.clone(), Csr::zero(9, 9), neg],
        ];
        for (i, parts) in cases.into_iter().enumerate() {
            assert_matches_reference_bits(&dir, &parts, (9, 9), &format!("case {i}"));
        }
        // All the weight in one row (every other band is empty), and a
        // one-row matrix (every band count exceeds the rows).
        for (rows, row) in [(9, 4), (1, 0)] {
            let parts: Vec<Csr> = (0..3)
                .map(|s| {
                    let entries = (0..20).map(|k| (row, (s + 2 * k) as Index, value(5 * s + k)));
                    partial(rows, 48, entries)
                })
                .collect();
            let what = format!("one heavy row of {rows}");
            assert_matches_reference_bits(&dir, &parts, (rows, 48), &what);
        }
        // A resident partial whose occupied rows lie far apart — rows 0,
        // 500 and 999 of 1000 — alone and beside a denser one: its head
        // steps over hundreds of empty rows at a time.
        let far = partial(
            1000,
            64,
            [0u32, 500, 999].into_iter().flat_map(|r| {
                (0..6).map(move |k| (r, 5 * k + r % 7, value(r as usize + k as usize)))
            }),
        );
        let dense = gen::uniform_random(1000, 64, 3000, 78);
        assert!([0, 500, 999].iter().all(|&r| !dense.row(r).0.is_empty()));
        for parts in [
            vec![far.clone()],
            vec![far.clone(), dense.clone()],
            vec![dense, far],
        ] {
            assert_matches_reference_bits(&dir, &parts, (1000, 64), "far-apart rows");
        }

        for ways in 1..=9 {
            let parts: Vec<Csr> = (0..ways)
                .map(|s| {
                    // Each source's window starts one column after the
                    // previous one's, so neighbouring windows overlap.
                    let mut entries = Vec::new();
                    for (row, items) in [(0, SHORT_ROW), (1, SHORT_ROW + 1)] {
                        let n = items / ways + usize::from(s < items % ways);
                        entries.extend((0..n).map(|k| (row, (s + k) as Index, value(7 * s + k))));
                    }
                    for (row, n, mixed) in
                        [(2, 3, true), (3, 40, true), (4, 3, false), (5, 40, false)]
                    {
                        let zero = |k: usize| {
                            if mixed && (s + k).is_multiple_of(3) {
                                0.0
                            } else {
                                -0.0
                            }
                        };
                        entries.extend((0..n).map(|k| (row, k as Index, zero(k))));
                    }
                    partial(6, 48, entries)
                })
                .collect();
            assert_matches_reference_bits(
                &dir,
                &parts,
                (6, 48),
                &format!("row shapes, {ways}-way"),
            );
        }
    }

    /// Row-group boundaries are invisible: a merge whose sources span
    /// many row groups (nnz ≫ GROUP_ENTRIES), resident or spilled, still
    /// matches the oracle. So, at every fan-in and with the sources
    /// spilled as [`assert_matches_reference_bits`] spills them, does a
    /// row longer than a group in every source, a source whose lone run,
    /// and then whose last shared row, ends exactly at a group end, and a
    /// shared row with few items before a group end and many after it.
    #[test]
    fn multi_chunk_sources_merge_correctly() {
        let dir = TempDir::new("merge_chunk_edges");
        let parts: Vec<Csr> = (0..3)
            .map(|s| gen::uniform_random(120, 110, 4 * GROUP_ENTRIES, 900 + s as u64))
            .collect();
        let spilled = |(s, p): (usize, &Csr)| {
            let file = write_partial(&dir.file(&format!("many{s}.bin")), p, SpillCodec::Varint);
            PartialSource::from_spill(file.unwrap()).unwrap()
        };
        for n in [3, 2] {
            let want = sum_oracle(&parts[..n]);
            let merged = merge(120, 110, parts[..n].iter().cloned().map(mem).collect());
            assert_eq!(merged, want, "{n} resident");
            let merged = merge(
                120,
                110,
                parts[..n].iter().enumerate().map(spilled).collect(),
            );
            assert_eq!(merged, want, "{n} spilled");
        }

        let long = GROUP_ENTRIES + GROUP_ENTRIES / 2;
        // Source 0 fills rows 0..25 with 128 entries each (125 in row
        // 23), so rows 0..8 (its lone run) and 8..16 (shared) are exactly
        // one group each, and its third group ends 3 entries into shared
        // row 24. The others hold 10 entries in each of rows 8..26, so
        // row 24's first group holds few enough items for a short row.
        let aligned = |s: usize| {
            let rows = if s == 0 { 0..25 } else { 8..26 };
            let entries = rows.flat_map(move |r| {
                let per_row = match (s, r) {
                    (0, 23) => 125,
                    (0, _) => 128,
                    _ => 10,
                };
                (0..per_row).map(move |k| (r, ((s + 11 * k) % 128) as Index, value(r as usize + k)))
            });
            partial(26, 128, entries)
        };
        for ways in 1..=9 {
            let parts: Vec<Csr> = (0..ways)
                .map(|s| {
                    let row = (0..long).map(|k| (3, (64 * s + k) as Index, value(31 * s + k)));
                    let few = [0, 1, 2, 4, 5].into_iter().flat_map(|r| {
                        (0..5).map(move |k| (r, (s + 3 * k) as Index, value(r as usize + k)))
                    });
                    partial(6, 64 * 9 + long, row.chain(few))
                })
                .collect();
            let shape = (6, 64 * 9 + long);
            assert_matches_reference_bits(&dir, &parts, shape, &format!("long row, {ways}-way"));
            let parts: Vec<Csr> = (0..ways).map(aligned).collect();
            let starts = [8, 16, 24].map(|r| parts[0].row_ptr()[r]);
            let group = GROUP_ENTRIES;
            assert_eq!(starts, [group, 2 * group, 3 * group - 3]);
            let what = format!("group-aligned runs, {ways}-way");
            assert_matches_reference_bits(&dir, &parts, (26, 128), &what);
        }
    }

    /// A round's operands with every row shape a leaf can give: `A`
    /// (70 × 15) and `B` (15 × 96), cut into the five panels `PANELS`.
    /// `B`'s inner rows 0..3 are wide (40 columns each), 3..6 short with
    /// signed zeros, 6..9 mixed, 9..12 empty, 12..15 never reached; rows
    /// of panels 0, 1 and 2 all hold column 14, so a row's three leaves
    /// add into one slot, in an order the bits show. `A`'s
    /// rows 0..6 touch only panel 0 (one leaf alone owns them), rows 6..60
    /// every panel, rows 60..70 panels 1 and 2 with -1.0 (so
    /// -1 · 0.0 = -0.0). Leaf 3's rows multiply only empty `B` rows and
    /// leaf 4 has no live row.
    fn leaf_operands() -> (Csr, Csr) {
        let (rows, inner, cols) = (70, 15, 96);
        let mut b = Vec::new();
        for k in 0..3u32 {
            b.extend((0..40).map(|c| (k, 2 * c + k, value(c as usize + 3 * k as usize))));
        }
        for k in 3..6u32 {
            b.extend([
                (k, k, 0.0),
                (k, k + 1, -0.0),
                (k, 14, value(k as usize + 1)),
                (k, 50 + k, value(k as usize)),
            ]);
        }
        for k in 6..9u32 {
            b.extend((0..(5 + 9 * (k - 6))).map(|c| (k, 7 * c % 96, value(c as usize))));
        }
        let b = partial(inner, cols, b);
        let mut a = Vec::new();
        for r in 0..rows as u32 {
            let cols: Vec<u32> = match r {
                0..6 => vec![r % 3],
                6..60 => (0..12).filter(|k| (r + k) % 3 != 0).collect(),
                _ => vec![3 + r % 3, 4, 6 + r % 3],
            };
            let v = |k: u32| {
                if r >= 60 {
                    -1.0
                } else {
                    value((r * 12 + k) as usize)
                }
            };
            a.extend(cols.into_iter().map(|k| (r, k, v(k))));
        }
        (partial(rows, inner, a), b)
    }

    const PANELS: [Range<usize>; 5] = [0..3, 3..6, 6..9, 9..12, 12..15];

    /// The leaf of panel `p` of [`leaf_operands`].
    fn leaf(a: &Csr, b: &Csr, p: usize) -> Arc<Leaf> {
        let r = PANELS[p].clone();
        let (a_p, live) = a.col_panel_condensed(r.clone());
        Arc::new(Leaf::new(a_p, b.row_panel(r), live))
    }

    /// Each panel's partial as the kernel builds it.
    fn leaf_partials(a: &Csr, b: &Csr) -> Vec<Csr> {
        let mut scratch = algo::MultiplyScratch::new();
        let partial = |r: &Range<usize>| {
            let (a_p, live) = a.col_panel_condensed(r.clone());
            algo::gustavson_scratch_on_rows(&a_p, &b.row_panel(r.clone()), &live, &mut scratch)
        };
        PANELS.iter().map(partial).collect()
    }

    fn bits(m: &Csr) -> Vec<u64> {
        m.values().iter().map(|v| v.to_bits()).collect()
    }

    /// A round over leaf sources folds exactly what the same round folds
    /// over the leaves' partials as the kernel builds them
    /// (`gustavson_scratch_on_rows`), bit for bit: at every band count,
    /// so bands are cut inside leaves; over leaves alone — in ascending
    /// panel order and in others, all five or a few — and mixed with a
    /// resident and a spilled partial; over short
    /// and wide rows, leaves with one and with several `A` entries in a
    /// row, `-0.0` products, a leaf that alone owns a run of rows, a leaf
    /// larger than two row groups, a leaf whose rows all multiply empty
    /// `B` rows and a leaf with no live row. Each leaf's entry count then
    /// matches its partial.
    #[test]
    fn leaf_sources_fold_like_their_materialized_partials() {
        let dir = TempDir::new("merge_leaves");
        let (a, b) = leaf_operands();
        let (rows, cols) = (a.rows(), b.cols());
        let parts = leaf_partials(&a, &b);
        assert!(parts[0].nnz() > 2 * GROUP_ENTRIES, "leaf 0 spans groups");
        assert!(parts[1]
            .values()
            .iter()
            .any(|v| v.to_bits() == (-0.0f64).to_bits()));
        assert_eq!((parts[3].nnz(), parts[4].nnz()), (0, 0));
        assert_eq!(
            a.col_panel(PANELS[4].clone()).nnz(),
            0,
            "leaf 4 has no live row"
        );
        let leaf = |p: usize| leaf(&a, &b, p);
        let spilled = write_partial(&dir.file("p2.bin"), &parts[2], SpillCodec::Varint).unwrap();
        let mut merge_scratch = MergeScratch::new();
        let all = vec![0, 1, 2, 3, 4];
        let rounds = [
            ("leaves", all.clone()),
            ("leaves", vec![3, 0, 4, 2, 1]),
            ("leaves", vec![2, 0]),
            ("leaves", vec![1]),
            ("mixed", all),
        ];
        for bands in 1..=5 {
            for (mix, order) in &rounds {
                let partials = order.iter().map(|&p| mem(parts[p].clone())).collect();
                let want = merge_sources_reference(rows, cols, partials).unwrap();
                let leaves: Vec<Arc<Leaf>> = order.iter().map(|&p| leaf(p)).collect();
                let sources = (leaves.iter().zip(order))
                    .map(|(leaf, &p)| match (*mix, p) {
                        ("mixed", 1) => mem(parts[1].clone()),
                        ("mixed", 2) => PartialSource::from_spill(spilled.clone()).unwrap(),
                        _ => PartialSource::from_leaf(Arc::clone(leaf)),
                    })
                    .collect();
                let (got, ran) =
                    merge_bands(rows, cols, sources, &mut merge_scratch, bands).unwrap();
                let what = format!("{mix} {order:?}, {bands} bands asked, {ran} ran");
                assert_eq!(ran, bands, "{what}");
                assert_eq!(got, want, "{what}");
                assert_eq!(bits(&got), bits(&want), "{what}");
                for (leaf, &p) in leaves.iter().zip(order) {
                    if *mix == "mixed" && (p == 1 || p == 2) {
                        assert_eq!(leaf.entries(), 0, "{what}: leaf {p} was not read");
                        continue;
                    }
                    assert_eq!(leaf.entries(), parts[p].nnz(), "{what}: leaf {p}");
                    assert_eq!(leaf.estimated_bytes(), parts[p].estimated_bytes(), "{what}");
                }
            }
        }
        // The reference multiplies leaves whole first.
        let want = merge_sources_reference(rows, cols, parts.iter().cloned().map(mem).collect());
        let sources = (0..5).map(|p| PartialSource::from_leaf(leaf(p))).collect();
        let reference = merge_sources_reference(rows, cols, sources).unwrap();
        assert_eq!(bits(&reference), bits(&want.unwrap()));
        assert!(
            merge_scratch.multiply_reuses() > 0,
            "leaf folds never ran warm"
        );
    }
}
