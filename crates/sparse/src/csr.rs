use crate::{Coo, Csc, Dense, Index, SparseError, Value};
use serde::{Deserialize, Serialize};

/// A sparse matrix in Compressed Sparse Row (CSR) format.
///
/// CSR is the storage format SpArch uses for both operands: "We store the
/// left matrix in CSR format. The elements in CSR directly map to those in
/// condensed format" and "the right matrix B is stored in CSR format in
/// HBM" (§II-B, §II-E). The condensed representation of the left matrix is
/// *a different view of the same CSR data* — see `sparch-core`'s
/// `condense` module.
///
/// # Invariants
///
/// * `row_ptr.len() == rows + 1`, `row_ptr[0] == 0`, monotone non-decreasing,
///   `row_ptr[rows] == col_idx.len() == values.len()`.
/// * Column indices within each row are strictly increasing.
///
/// Constructors enforce these invariants ([`Csr::try_new`]) or establish
/// them ([`Coo::to_csr`], [`CsrBuilder`]).
///
/// # Example
///
/// ```
/// use sparch_sparse::Csr;
///
/// // 2x3 matrix [[1, 0, 2], [0, 3, 0]]
/// let m = Csr::try_new(2, 3, vec![0, 2, 3], vec![0, 2, 1], vec![1.0, 2.0, 3.0])?;
/// assert_eq!(m.nnz(), 3);
/// assert_eq!(m.row(0), (&[0u32, 2][..], &[1.0, 2.0][..]));
/// assert_eq!(m.get(1, 1), Some(3.0));
/// assert_eq!(m.get(1, 0), None);
/// # Ok::<(), sparch_sparse::SparseError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Csr {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<Value>,
}

impl Csr {
    /// Creates an empty `rows x cols` matrix with no stored entries.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Csr {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Creates an identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        Csr {
            rows: n,
            cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as Index).collect(),
            values: vec![1.0; n],
        }
    }

    /// Creates a CSR matrix from raw parts, validating all invariants.
    ///
    /// # Errors
    ///
    /// * [`SparseError::MalformedPointers`] if the pointer array has the
    ///   wrong length, does not start at zero, decreases, or disagrees with
    ///   the index/value array lengths.
    /// * [`SparseError::UnsortedIndices`] if a row's column indices are not
    ///   strictly increasing.
    /// * [`SparseError::IndexOutOfBounds`] if a column index `>= cols`.
    pub fn try_new(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<Value>,
    ) -> Result<Self, SparseError> {
        check_parts(rows, cols, &row_ptr, &col_idx, &values)?;
        Ok(Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// Assembles a matrix from raw parts the caller guarantees satisfy
    /// every invariant [`Csr::try_new`] checks — the trusted twin for
    /// kernels that build the parts in order by construction (e.g. a
    /// merge that writes row bands in parallel). The invariants are
    /// checked in debug builds only.
    pub fn from_parts_trusted(
        rows: usize,
        cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<Index>,
        values: Vec<Value>,
    ) -> Self {
        if cfg!(debug_assertions) {
            if let Err(e) = check_parts(rows, cols, &row_ptr, &col_idx, &values) {
                panic!("from_parts_trusted given invalid parts: {e}");
            }
        }
        Csr {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Builds from a COO matrix whose entries are already sorted by
    /// `(row, col)` with no duplicate coordinates.
    ///
    /// Most callers should use [`Coo::to_csr`], which canonicalizes first.
    pub(crate) fn from_sorted_coo(coo: &Coo) -> Self {
        let rows = coo.rows();
        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in coo.entries() {
            row_ptr[r as usize + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = coo.entries().iter().map(|e| e.1).collect();
        let values = coo.entries().iter().map(|e| e.2).collect();
        Csr {
            rows,
            cols: coo.cols(),
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored non-zeros.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of cells that are stored: `nnz / (rows * cols)`.
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            0.0
        } else {
            self.nnz() as f64 / (self.rows as f64 * self.cols as f64)
        }
    }

    /// The row pointer array (`rows + 1` entries).
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (one entry per non-zero).
    pub fn col_indices(&self) -> &[Index] {
        &self.col_idx
    }

    /// The value array (one entry per non-zero).
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Number of non-zeros stored in row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row_nnz(&self, r: usize) -> usize {
        self.row_ptr[r + 1] - self.row_ptr[r]
    }

    /// The column indices and values of row `r` as parallel slices.
    ///
    /// # Panics
    ///
    /// Panics if `r >= rows`.
    pub fn row(&self, r: usize) -> (&[Index], &[Value]) {
        let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// The value at `(r, c)` if stored, else `None`.
    pub fn get(&self, r: usize, c: usize) -> Option<Value> {
        if r >= self.rows {
            return None;
        }
        let (cols, vals) = self.row(r);
        cols.binary_search(&(c as Index)).ok().map(|k| vals[k])
    }

    /// Length of the longest row — after matrix condensing this is exactly
    /// the number of condensed columns ("the length of the longest row in
    /// the original matrix", §II-B).
    pub fn max_row_nnz(&self) -> usize {
        (0..self.rows).map(|r| self.row_nnz(r)).max().unwrap_or(0)
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (Index, Index, Value)> + '_ {
        (0..self.rows).flat_map(move |r| {
            let (cols, vals) = self.row(r);
            cols.iter()
                .zip(vals.iter())
                .map(move |(&c, &v)| (r as Index, c, v))
        })
    }

    /// Converts to COO (entries come out sorted by `(row, col)`).
    pub fn to_coo(&self) -> Coo {
        Coo::from_entries(self.rows, self.cols, self.iter().collect())
    }

    /// Converts to CSC.
    pub fn to_csc(&self) -> Csc {
        Csc::from_csr(self)
    }

    /// Converts to a dense matrix (test oracle; use only for small shapes).
    pub fn to_dense(&self) -> Dense {
        let mut d = Dense::zero(self.rows, self.cols);
        for (r, c, v) in self.iter() {
            *d.get_mut(r as usize, c as usize) += v;
        }
        d
    }

    /// Returns the transpose as a new CSR matrix.
    pub fn transpose(&self) -> Csr {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for i in 0..self.cols {
            row_ptr[i + 1] += row_ptr[i];
        }
        let mut col_idx = vec![0 as Index; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = row_ptr.clone();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize];
                col_idx[slot] = r as Index;
                values[slot] = v;
                next[c as usize] += 1;
            }
        }
        Csr {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Bytes this matrix occupies in the accelerator's DRAM layout:
    /// 12 bytes per element (4-byte index + 8-byte value, the paper's
    /// "12 bytes per element" prefetch-buffer sizing) plus the row-pointer
    /// array at 8 bytes per row.
    pub fn dram_bytes(&self) -> u64 {
        self.nnz() as u64 * 12 + (self.rows as u64 + 1) * 8
    }

    /// Estimated in-memory heap footprint of this matrix in bytes: the
    /// column-index array (4 bytes per non-zero), the value array (8 bytes
    /// per non-zero) and the row-pointer array (8 bytes per row + 1).
    ///
    /// This is the quantity the streaming pipeline's `MemoryBudget`
    /// accounting and the serving layer's footprint-based dispatch reason
    /// about. (Numerically it coincides with [`Csr::dram_bytes`] because
    /// the accelerator's DRAM layout also spends 12 bytes per element and
    /// 8 per row pointer — but the two model different memories.)
    pub fn estimated_bytes(&self) -> u64 {
        Csr::estimated_bytes_of(self.rows, self.nnz())
    }

    /// Releases the index and value arrays' spare capacity, so the heap
    /// the matrix holds is its [`Csr::estimated_bytes`] — e.g. for a
    /// merge output pre-sized to its inputs' entries.
    pub fn shrink_to_fit(&mut self) {
        self.col_idx.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// [`Csr::estimated_bytes`] of a `rows`-row matrix holding `nnz`
    /// entries, before it exists.
    pub fn estimated_bytes_of(rows: usize, nnz: usize) -> u64 {
        nnz as u64 * 12 + (rows as u64 + 1) * 8
    }

    /// Non-zeros per column — the weight vector the nnz-balanced panel
    /// partitioner ([`panel_ranges_by_nnz`]) splits on. `O(nnz)` single
    /// pass over the column indices.
    pub fn col_nnz(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.cols];
        for &c in &self.col_idx {
            counts[c as usize] += 1;
        }
        counts
    }

    /// Extracts the column panel `A[:, lo..hi]` as a new `rows × (hi-lo)`
    /// matrix with **localized** column indices (`col - lo`).
    ///
    /// This is the left-operand half of the outer-product panel split the
    /// streaming pipeline uses: `A · B = Σ_p A[:, p] · B[p, :]` over
    /// matching column/row panels `p`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > cols`.
    pub fn col_panel(&self, range: std::ops::Range<usize>) -> Csr {
        self.col_panel_condensed(range).0
    }

    /// Like [`Csr::col_panel`], but also returns the panel's occupied-row
    /// index: the rows (in increasing order) that keep at least one entry
    /// inside the panel. This is the condensed-matrix view of the paper's
    /// §II-B applied at panel granularity — the multiply kernel
    /// ([`crate::algo::gustavson_scratch_on_rows`]) then visits only these
    /// rows instead of scanning all `rows()`, and the index costs nothing
    /// extra because slicing walks every row anyway.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > cols`.
    pub fn col_panel_condensed(&self, range: std::ops::Range<usize>) -> (Csr, Vec<Index>) {
        assert!(
            range.start <= range.end && range.end <= self.cols,
            "column panel {range:?} outside 0..{}",
            self.cols
        );
        let (lo, hi) = (range.start as Index, range.end as Index);
        let mut row_ptr = Vec::with_capacity(self.rows + 1);
        row_ptr.push(0usize);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        let mut live = Vec::new();
        for r in 0..self.rows {
            let (cols, vals) = self.row(r);
            // Columns are strictly increasing, so the panel's entries are
            // one contiguous slice of the row.
            let a = cols.partition_point(|&c| c < lo);
            let b = cols.partition_point(|&c| c < hi);
            if b > a {
                live.push(r as Index);
            }
            col_idx.extend(cols[a..b].iter().map(|&c| c - lo));
            values.extend_from_slice(&vals[a..b]);
            row_ptr.push(col_idx.len());
        }
        (
            Csr {
                rows: self.rows,
                cols: range.len(),
                row_ptr,
                col_idx,
                values,
            },
            live,
        )
    }

    /// The rows holding at least one stored entry, in increasing order —
    /// the occupied-row index [`crate::algo::gustavson_scratch_on_rows`]
    /// consumes when the matrix arrives pre-sliced (so no
    /// [`Csr::col_panel_condensed`] pass saw it). One O(rows) sweep of the
    /// row pointers.
    pub fn occupied_rows(&self) -> Vec<Index> {
        (0..self.rows)
            .filter(|&r| self.row_ptr[r + 1] > self.row_ptr[r])
            .map(|r| r as Index)
            .collect()
    }

    /// Extracts the row panel `A[lo..hi, :]` as a new `(hi-lo) × cols`
    /// matrix — the right-operand half of the streaming pipeline's panel
    /// split (see [`Csr::col_panel`]).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > rows`.
    pub fn row_panel(&self, range: std::ops::Range<usize>) -> Csr {
        assert!(
            range.start <= range.end && range.end <= self.rows,
            "row panel {range:?} outside 0..{}",
            self.rows
        );
        let (lo, hi) = (self.row_ptr[range.start], self.row_ptr[range.end]);
        let row_ptr = self.row_ptr[range.start..=range.end]
            .iter()
            .map(|&p| p - self.row_ptr[range.start])
            .collect();
        Csr {
            rows: range.len(),
            cols: self.cols,
            row_ptr,
            col_idx: self.col_idx[lo..hi].to_vec(),
            values: self.values[lo..hi].to_vec(),
        }
    }

    /// A 64-bit structural+value fingerprint of this matrix (FNV-1a over
    /// the shape, row pointers, column indices and value bit patterns).
    ///
    /// Two matrices with equal fingerprints are, for serving purposes, the
    /// same operand: the `sparch-serve` operand cache keys its stored
    /// CSC/statistics conversions on this value so repeated operands reuse
    /// their conversions across requests. Equal matrices always produce
    /// equal fingerprints; collisions between different matrices are
    /// possible in principle but need ~2^32 distinct operands to expect.
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |word: u64| {
            for byte in word.to_le_bytes() {
                h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
            }
        };
        eat(self.rows as u64);
        eat(self.cols as u64);
        for &p in &self.row_ptr {
            eat(p as u64);
        }
        for &c in &self.col_idx {
            eat(c as u64);
        }
        for &v in &self.values {
            eat(v.to_bits());
        }
        h
    }

    /// Strict equality of structure plus value agreement within `tol`
    /// (absolute). Useful for comparing results of different SpGEMM
    /// algorithms whose floating-point summation orders differ. The
    /// tolerance applies to finite values; otherwise two NaNs (whatever
    /// their payloads) or equal values agree, so a matrix always equals
    /// itself and an infinity matches only itself.
    pub fn approx_eq(&self, other: &Csr, tol: f64) -> bool {
        let close = |a: f64, b: f64| {
            let d = a - b;
            d.abs() <= tol * a.abs().max(b.abs()).max(1.0) && d.is_finite()
        };
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(&a, &b)| close(a, b) || a == b || (a.is_nan() && b.is_nan()))
    }
}

/// The invariants every [`Csr`] holds, checked over raw parts (see
/// [`Csr::try_new`] for the errors).
fn check_parts(
    rows: usize,
    cols: usize,
    row_ptr: &[usize],
    col_idx: &[Index],
    values: &[Value],
) -> Result<(), SparseError> {
    if row_ptr.len() != rows + 1 {
        return Err(SparseError::MalformedPointers(format!(
            "row_ptr length {} != rows + 1 = {}",
            row_ptr.len(),
            rows + 1
        )));
    }
    if row_ptr.first() != Some(&0) {
        return Err(SparseError::MalformedPointers("row_ptr[0] != 0".into()));
    }
    if col_idx.len() != values.len() {
        return Err(SparseError::MalformedPointers(format!(
            "col_idx length {} != values length {}",
            col_idx.len(),
            values.len()
        )));
    }
    if row_ptr[rows] != col_idx.len() {
        return Err(SparseError::MalformedPointers(format!(
            "row_ptr[rows] = {} != nnz = {}",
            row_ptr[rows],
            col_idx.len()
        )));
    }
    for r in 0..rows {
        let (lo, hi) = (row_ptr[r], row_ptr[r + 1]);
        if lo > hi {
            return Err(SparseError::MalformedPointers(format!(
                "row_ptr decreases at row {r}"
            )));
        }
        for k in lo..hi {
            if col_idx[k] as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r as Index,
                    col: col_idx[k],
                    rows,
                    cols,
                });
            }
            if k > lo && col_idx[k] <= col_idx[k - 1] {
                return Err(SparseError::UnsortedIndices { major: r });
            }
        }
    }
    Ok(())
}

/// Splits `0..total` into up to `panels` contiguous, balanced, non-empty
/// ranges — the panel partitioner shared by [`Csr::col_panel`] /
/// [`Csr::row_panel`] callers, `mm`'s chunked panel reader and the
/// `sparch-stream` executor.
///
/// The first `total % panels` ranges are one element longer, so widths
/// differ by at most one. Degenerate inputs behave sensibly: `panels` is
/// clamped to at least 1, `total == 0` yields no ranges, and `panels >
/// total` yields `total` single-element ranges (empty ranges are never
/// returned).
///
/// # Example
///
/// ```
/// use sparch_sparse::panel_ranges;
///
/// assert_eq!(panel_ranges(10, 3), vec![0..4, 4..7, 7..10]);
/// assert_eq!(panel_ranges(2, 5).len(), 2);
/// assert!(panel_ranges(0, 4).is_empty());
/// ```
pub fn panel_ranges(total: usize, panels: usize) -> Vec<std::ops::Range<usize>> {
    let panels = panels.max(1).min(total.max(1));
    let base = total / panels;
    let extra = total % panels;
    let mut ranges = Vec::with_capacity(panels);
    let mut lo = 0usize;
    for p in 0..panels {
        let width = base + usize::from(p < extra);
        if width == 0 {
            break;
        }
        ranges.push(lo..lo + width);
        lo += width;
    }
    ranges
}

/// Splits `0..weights.len()` into up to `panels` contiguous, non-empty
/// ranges of approximately equal **total weight** — the nnz-balanced
/// variant of [`panel_ranges`], used by the streaming pipeline to split
/// `A`'s inner dimension so every panel carries a similar number of
/// `A`-column non-zeros (and therefore a similar partial-product size,
/// which tightens the Huffman merge plan's weight estimates).
///
/// Boundaries sit at the weight quantiles: panel `p` ends at the first
/// index whose prefix weight reaches `p/panels` of the total, clamped so
/// every range keeps at least one element. The same degenerate contract
/// as [`panel_ranges`] holds: `panels` is clamped to at least 1, an empty
/// weight vector yields no ranges, `panels > len` yields `len` singleton
/// ranges, and an all-zero weight vector falls back to the uniform split.
/// Every range's weight is at most `total/panels + max(weights)` (one
/// column can never be split).
///
/// # Example
///
/// ```
/// use sparch_sparse::panel_ranges_by_nnz;
///
/// // Weight mass is concentrated on the left: the balanced split gives
/// // the heavy columns their own narrow panel.
/// assert_eq!(panel_ranges_by_nnz(&[10, 1, 1, 1, 1, 1], 2), vec![0..1, 1..6]);
/// assert!(panel_ranges_by_nnz(&[], 4).is_empty());
/// ```
pub fn panel_ranges_by_nnz(weights: &[usize], panels: usize) -> Vec<std::ops::Range<usize>> {
    let total = weights.len();
    let panels = panels.max(1).min(total.max(1));
    let total_weight: u64 = weights.iter().map(|&w| w as u64).sum();
    if total == 0 || panels >= total || total_weight == 0 {
        return panel_ranges(total, panels);
    }
    let mut prefix = Vec::with_capacity(total + 1);
    let mut acc = 0u64;
    prefix.push(0u64);
    for &w in weights {
        acc += w as u64;
        prefix.push(acc);
    }
    let mut bounds = Vec::with_capacity(panels + 1);
    bounds.push(0usize);
    for p in 1..panels {
        let target = total_weight * p as u64 / panels as u64;
        let cut = prefix.partition_point(|&w| w < target);
        let prev = *bounds.last().expect("bounds starts non-empty");
        // Keep at least one element in this range and one per remaining
        // panel.
        bounds.push(cut.clamp(prev + 1, total - (panels - p)));
    }
    bounds.push(total);
    bounds.windows(2).map(|w| w[0]..w[1]).collect()
}

/// Incremental row-by-row CSR constructor.
///
/// Rows must be appended in order; within a row, columns must be pushed in
/// strictly increasing order. This is the natural order in which the
/// streaming hardware models emit results.
///
/// # Example
///
/// ```
/// use sparch_sparse::CsrBuilder;
///
/// let mut b = CsrBuilder::new(3, 3);
/// b.push(0, 1, 1.0);
/// b.push(2, 0, 5.0); // row 1 implicitly empty
/// let m = b.finish();
/// assert_eq!(m.row_nnz(1), 0);
/// assert_eq!(m.get(2, 0), Some(5.0));
/// ```
#[derive(Debug, Clone)]
pub struct CsrBuilder {
    rows: usize,
    cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<Index>,
    values: Vec<Value>,
    current_row: usize,
}

impl CsrBuilder {
    /// Starts building a `rows x cols` matrix.
    pub fn new(rows: usize, cols: usize) -> Self {
        CsrBuilder {
            rows,
            cols,
            row_ptr: vec![0],
            col_idx: Vec::new(),
            values: Vec::new(),
            current_row: 0,
        }
    }

    /// Starts building with capacity for `nnz` non-zeros. The row-pointer
    /// array is reserved in full (`rows + 1` slots), so a builder fed a
    /// true nnz upper bound performs exactly three allocations total.
    pub fn with_capacity(rows: usize, cols: usize, nnz: usize) -> Self {
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0);
        CsrBuilder {
            rows,
            cols,
            row_ptr,
            col_idx: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            current_row: 0,
        }
    }

    /// Appends one entry.
    ///
    /// # Panics
    ///
    /// Panics if `row` is behind the current row, if `col` is not strictly
    /// greater than the previous column in this row, or if either index is
    /// out of bounds.
    pub fn push(&mut self, row: Index, col: Index, value: Value) {
        let row = row as usize;
        assert!(
            row < self.rows,
            "row {row} out of bounds ({} rows)",
            self.rows
        );
        assert!(
            (col as usize) < self.cols,
            "col {col} out of bounds ({} cols)",
            self.cols
        );
        assert!(row >= self.current_row, "rows must be appended in order");
        while self.current_row < row {
            self.row_ptr.push(self.col_idx.len());
            self.current_row += 1;
        }
        if let Some(&last) = self.col_idx.last() {
            if *self.row_ptr.last().unwrap() < self.col_idx.len() {
                assert!(col > last, "columns within a row must strictly increase");
            }
        }
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Appends one entry whose `(row, col)` the caller guarantees to be
    /// strictly greater than the previous entry's and in bounds — the
    /// hot-path twin of [`CsrBuilder::push`] used by kernels that emit
    /// coordinates in sorted order *by construction* (e.g. a k-way merge
    /// of sorted streams). The contract is checked in debug builds only.
    pub fn push_trusted(&mut self, row: Index, col: Index, value: Value) {
        let row = row as usize;
        debug_assert!(row < self.rows && (col as usize) < self.cols);
        debug_assert!(row >= self.current_row);
        while self.current_row < row {
            self.row_ptr.push(self.col_idx.len());
            self.current_row += 1;
        }
        debug_assert!(
            *self.row_ptr.last().unwrap() == self.col_idx.len()
                || col > *self.col_idx.last().unwrap(),
            "push_trusted coordinates must strictly increase"
        );
        self.col_idx.push(col);
        self.values.push(value);
    }

    /// Number of entries pushed so far.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Finalizes the matrix, closing any trailing empty rows.
    pub fn finish(mut self) -> Csr {
        while self.current_row < self.rows {
            self.row_ptr.push(self.col_idx.len());
            self.current_row += 1;
        }
        Csr {
            rows: self.rows,
            cols: self.cols,
            row_ptr: self.row_ptr,
            col_idx: self.col_idx,
            values: self.values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        // [[1, 0, 2], [0, 0, 0], [0, 3, 4]]
        Csr::try_new(
            3,
            3,
            vec![0, 2, 2, 4],
            vec![0, 2, 1, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let m = sample();
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row_nnz(1), 0);
        assert_eq!(m.row(2), (&[1u32, 2][..], &[3.0, 4.0][..]));
        assert_eq!(m.get(0, 2), Some(2.0));
        assert_eq!(m.get(1, 1), None);
        assert_eq!(m.max_row_nnz(), 2);
        assert!((m.density() - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_identity() {
        let z = Csr::zero(2, 5);
        assert_eq!(z.nnz(), 0);
        assert_eq!(z.rows(), 2);
        let i = Csr::identity(3);
        assert_eq!(i.nnz(), 3);
        assert_eq!(i.get(2, 2), Some(1.0));
        assert_eq!(i.get(0, 1), None);
    }

    #[test]
    fn validation_rejects_bad_pointers() {
        let err = Csr::try_new(2, 2, vec![0, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedPointers(_)));
        let err = Csr::try_new(2, 2, vec![1, 1, 1], vec![0], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedPointers(_)));
        let err = Csr::try_new(2, 2, vec![0, 2, 1], vec![0, 1, 0], vec![1.0; 3]).unwrap_err();
        assert!(matches!(err, SparseError::MalformedPointers(_)));
    }

    #[test]
    fn validation_rejects_unsorted_and_oob() {
        let err = Csr::try_new(1, 3, vec![0, 2], vec![2, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::UnsortedIndices { major: 0 }));
        let err = Csr::try_new(1, 2, vec![0, 1], vec![5], vec![1.0]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { .. }));
        // duplicate column also rejected (strictly increasing)
        let err = Csr::try_new(1, 3, vec![0, 2], vec![1, 1], vec![1.0, 2.0]).unwrap_err();
        assert!(matches!(err, SparseError::UnsortedIndices { .. }));
    }

    #[test]
    fn coo_round_trip() {
        let m = sample();
        let back = m.to_coo().to_csr();
        assert_eq!(m, back);
    }

    #[test]
    fn transpose_involution() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.get(2, 0), Some(2.0));
        assert_eq!(t.get(1, 2), Some(3.0));
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn transpose_rectangular() {
        let mut b = CsrBuilder::new(2, 4);
        b.push(0, 3, 1.0);
        b.push(1, 0, 2.0);
        let m = b.finish();
        let t = m.transpose();
        assert_eq!(t.rows(), 4);
        assert_eq!(t.cols(), 2);
        assert_eq!(t.get(3, 0), Some(1.0));
        assert_eq!(t.get(0, 1), Some(2.0));
    }

    #[test]
    fn builder_handles_empty_rows_and_tail() {
        let mut b = CsrBuilder::new(5, 5);
        b.push(1, 2, 1.0);
        b.push(1, 4, 2.0);
        b.push(3, 0, 3.0);
        let m = b.finish();
        assert_eq!(m.row_nnz(0), 0);
        assert_eq!(m.row_nnz(1), 2);
        assert_eq!(m.row_nnz(2), 0);
        assert_eq!(m.row_nnz(3), 1);
        assert_eq!(m.row_nnz(4), 0);
        assert_eq!(m.nnz(), 3);
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn builder_rejects_duplicate_column() {
        let mut b = CsrBuilder::new(2, 2);
        b.push(0, 1, 1.0);
        b.push(0, 1, 2.0);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn builder_rejects_backwards_row() {
        let mut b = CsrBuilder::new(3, 3);
        b.push(2, 0, 1.0);
        b.push(1, 0, 2.0);
    }

    #[test]
    fn dram_bytes_matches_layout() {
        let m = sample();
        assert_eq!(m.dram_bytes(), 4 * 12 + 4 * 8);
    }

    #[test]
    fn approx_eq_tolerates_rounding() {
        let a = sample();
        let mut b = sample();
        assert!(a.approx_eq(&b, 1e-12));
        b.values[0] += 1e-13;
        assert!(a.approx_eq(&b, 1e-12));
        b.values[0] += 1.0;
        assert!(!a.approx_eq(&b, 1e-12));
    }

    #[test]
    fn approx_eq_is_reflexive_over_edge_values() {
        use crate::gen::arb::{self, ValueClass};
        let edge = arb::csr_with(16, 16, 120, ValueClass::Edge);
        let m = (0..50)
            .map(|seed| arb::sample(&edge, seed))
            .find(|m| m.values().iter().any(|v| v.is_nan()))
            .expect("some seed draws a NaN");
        assert!(m.values().iter().any(|v| v.is_infinite()));
        assert!(m.approx_eq(&m, 0.0));
        let mut flipped = m.clone();
        let k = flipped.values.iter().position(|v| v.is_infinite()).unwrap();
        flipped.values[k] = -flipped.values[k];
        assert!(!m.approx_eq(&flipped, 1e-12));
    }

    #[test]
    fn fingerprint_distinguishes_and_is_stable() {
        let m = sample();
        assert_eq!(m.fingerprint(), sample().fingerprint());
        // Value change, structure change, and shape change all move it.
        let mut v = sample();
        v.values[0] += 1.0;
        assert_ne!(m.fingerprint(), v.fingerprint());
        assert_ne!(m.fingerprint(), m.transpose().fingerprint());
        assert_ne!(Csr::zero(2, 3).fingerprint(), Csr::zero(3, 2).fingerprint());
        // An explicit zero is a different operand from a missing entry.
        let with_zero = Csr::try_new(1, 2, vec![0, 1], vec![0], vec![0.0]).unwrap();
        let without = Csr::zero(1, 2);
        assert_ne!(with_zero.fingerprint(), without.fingerprint());
    }

    #[test]
    fn estimated_bytes_counts_arrays() {
        let m = sample();
        // 4 nnz * (4 + 8) bytes + 4 row pointers * 8 bytes.
        assert_eq!(m.estimated_bytes(), 4 * 12 + 4 * 8);
        assert_eq!(Csr::zero(0, 0).estimated_bytes(), 8);
    }

    #[test]
    fn panel_ranges_are_balanced_and_cover() {
        for (total, panels) in [(10, 3), (7, 7), (7, 2), (1, 4), (64, 5), (3, 1)] {
            let ranges = panel_ranges(total, panels);
            assert_eq!(ranges.len(), panels.min(total));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(total));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "ranges must be contiguous");
                assert!(w[0].len().abs_diff(w[1].len()) <= 1, "unbalanced: {w:?}");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
        }
        assert!(panel_ranges(0, 3).is_empty());
        assert_eq!(panel_ranges(5, 0), vec![0..5], "panels clamps to 1");
    }

    #[test]
    fn panel_ranges_degenerate_cases_are_well_formed() {
        // k == 0: no ranges, whatever the panel count (incl. 0).
        for panels in [0, 1, 7] {
            assert!(panel_ranges(0, panels).is_empty(), "panels {panels}");
        }
        // panels > k: exactly k singleton ranges, never an empty range.
        for (total, panels) in [(1, 2), (2, 5), (3, 100), (1, usize::MAX)] {
            let ranges = panel_ranges(total, panels);
            assert_eq!(ranges.len(), total, "total {total} panels {panels}");
            assert!(ranges.iter().all(|r| r.len() == 1));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(total));
        }
        // panels == 0 clamps to a single full range.
        assert_eq!(panel_ranges(4, 0), vec![0..4]);
    }

    #[test]
    fn panel_ranges_by_nnz_degenerate_cases_match_uniform() {
        // Empty weight vector (k == 0): no ranges for any panel count.
        for panels in [0, 1, 5] {
            assert!(panel_ranges_by_nnz(&[], panels).is_empty());
        }
        // panels > k: singletons, exactly like the uniform splitter.
        assert_eq!(panel_ranges_by_nnz(&[3, 9], 5), vec![0..1, 1..2]);
        // All-zero weights fall back to the uniform split.
        assert_eq!(panel_ranges_by_nnz(&[0; 10], 3), panel_ranges(10, 3));
        // panels == 0 clamps to one full range.
        assert_eq!(panel_ranges_by_nnz(&[1, 2, 3], 0), vec![0..3]);
    }

    #[test]
    fn panel_ranges_by_nnz_balances_weight_not_width() {
        // 100-weight head, long light tail: the balanced split isolates
        // the head while uniform would drown panel 0 in the tail.
        let mut weights = vec![100usize];
        weights.extend(std::iter::repeat_n(1, 99));
        let ranges = panel_ranges_by_nnz(&weights, 2);
        assert_eq!(ranges, vec![0..1, 1..100]);

        // Structural invariants + the weight bound on random-ish weights.
        let weights: Vec<usize> = (0..57).map(|i| (i * 13 + 5) % 23).collect();
        let total_weight: usize = weights.iter().sum();
        let wmax = *weights.iter().max().unwrap();
        for panels in [1, 2, 5, 9, 57, 80] {
            let ranges = panel_ranges_by_nnz(&weights, panels);
            assert!(ranges.len() <= panels.max(1));
            assert_eq!(ranges.first().map(|r| r.start), Some(0));
            assert_eq!(ranges.last().map(|r| r.end), Some(57));
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
            }
            assert!(ranges.iter().all(|r| !r.is_empty()));
            for r in &ranges {
                let weight: usize = weights[r.clone()].iter().sum();
                assert!(
                    weight <= total_weight / ranges.len() + wmax + 1,
                    "panel {r:?} weight {weight} too heavy for {panels} panels"
                );
            }
        }
    }

    #[test]
    fn col_nnz_histograms_columns() {
        let m = sample(); // [[1, 0, 2], [0, 0, 0], [0, 3, 4]]
        assert_eq!(m.col_nnz(), vec![1, 1, 2]);
        assert_eq!(Csr::zero(3, 4).col_nnz(), vec![0; 4]);
        let total: usize = m.col_nnz().iter().sum();
        assert_eq!(total, m.nnz());
    }

    #[test]
    fn col_panel_localizes_indices() {
        let m = sample(); // [[1, 0, 2], [0, 0, 0], [0, 3, 4]]
        let p = m.col_panel(1..3); // [[0, 2], [0, 0], [3, 4]]
        assert_eq!((p.rows(), p.cols()), (3, 2));
        assert_eq!(p.get(0, 1), Some(2.0));
        assert_eq!(p.get(2, 0), Some(3.0));
        assert_eq!(p.get(2, 1), Some(4.0));
        assert_eq!(p.nnz(), 3);
        // Empty and full panels.
        assert_eq!(m.col_panel(0..0).nnz(), 0);
        assert_eq!(m.col_panel(0..3), m);
    }

    #[test]
    fn col_panel_condensed_matches_and_indexes_live_rows() {
        let m = sample(); // [[1, 0, 2], [0, 0, 0], [0, 3, 4]]
        let (p, live) = m.col_panel_condensed(1..3);
        assert_eq!(p, m.col_panel(1..3));
        assert_eq!(live, vec![0, 2], "row 1 is empty, rows 0 and 2 survive");
        // A panel that only row 2 touches.
        let (p, live) = m.col_panel_condensed(1..2);
        assert_eq!(p, m.col_panel(1..2));
        assert_eq!(live, vec![2]);
        // Empty panel: nothing lives.
        let (p, live) = m.col_panel_condensed(0..0);
        assert_eq!(p.nnz(), 0);
        assert!(live.is_empty());
    }

    #[test]
    fn occupied_rows_skips_empty_rows() {
        let m = sample();
        assert_eq!(m.occupied_rows(), vec![0, 2]);
        assert!(Csr::zero(4, 4).occupied_rows().is_empty());
        assert_eq!(Csr::identity(3).occupied_rows(), vec![0, 1, 2]);
        // Agrees with the condensed slicer over the full width.
        let (_, live) = m.col_panel_condensed(0..m.cols());
        assert_eq!(m.occupied_rows(), live);
    }

    #[test]
    fn row_panel_slices_rows() {
        let m = sample();
        let p = m.row_panel(1..3); // [[0, 0, 0], [0, 3, 4]]
        assert_eq!((p.rows(), p.cols()), (2, 3));
        assert_eq!(p.row_nnz(0), 0);
        assert_eq!(p.get(1, 1), Some(3.0));
        assert_eq!(m.row_panel(0..3), m);
        assert_eq!(m.row_panel(2..2).nnz(), 0);
    }

    #[test]
    fn panels_reassemble_the_product() {
        // Σ_p A[:, p] · B[p, :] must cover every entry of A exactly once.
        let m = sample();
        let mut total = 0;
        for r in panel_ranges(m.cols(), 2) {
            total += m.col_panel(r).nnz();
        }
        assert_eq!(total, m.nnz());
    }

    #[test]
    #[should_panic(expected = "column panel")]
    fn col_panel_out_of_range_panics() {
        let _ = sample().col_panel(1..4);
    }

    #[test]
    fn iter_yields_row_major() {
        let m = sample();
        let triples: Vec<_> = m.iter().collect();
        assert_eq!(
            triples,
            vec![(0, 0, 1.0), (0, 2, 2.0), (2, 1, 3.0), (2, 2, 4.0)]
        );
    }
}
