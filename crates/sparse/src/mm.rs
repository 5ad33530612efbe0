//! Matrix Market (`.mtx`) reader and writer.
//!
//! The paper evaluates on matrices from the SuiteSparse collection and SNAP,
//! which are distributed in the Matrix Market exchange format. This module
//! implements the `coordinate` variant (the one used for sparse matrices)
//! with `real`, `integer` and `pattern` fields and `general` / `symmetric` /
//! `skew-symmetric` symmetry.
//!
//! # Cost model
//!
//! Parsing text is the expensive part of ingest, so every consumer reads
//! its source **once**, through one validating scanner that reuses a
//! single line buffer (no allocation per line): [`read`] and
//! [`scan_col_nnz`] are one text scan each, and so is a panel reader
//! ([`PanelReader`], [`RowPanelReader`]) at *any* panel count — its scan
//! routes each entry to a per-panel bucket, and buckets that outgrow a
//! small fixed buffer go through one self-deleting staging run in
//! [`std::env::temp_dir`] (see [`AxisPanelReader`] for the layout and the
//! memory bound).
//!
//! # Example
//!
//! ```
//! use sparch_sparse::{mm, Coo};
//!
//! let text = "%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1.5\n3 2 -2.0\n";
//! let m = mm::read_str(text)?;
//! assert_eq!(m.nnz(), 2);
//! assert_eq!(mm::read_str(&mm::write_string(&m))?, m);
//! # Ok::<(), sparch_sparse::SparseError>(())
//! ```

use crate::staging::{Staging, STAGING_ENTRIES};
use crate::{panel_ranges, Coo, Index, SparseError};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, Read, Write};
use std::ops::Range;
use std::path::Path;

/// Symmetry declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Symmetry {
    General,
    Symmetric,
    SkewSymmetric,
}

/// Field type declared in a Matrix Market header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Field {
    Real,
    Integer,
    Pattern,
}

/// Reads a Matrix Market coordinate stream into a [`Coo`] matrix.
///
/// Symmetric and skew-symmetric inputs are expanded to their full general
/// form (mirrored entries materialized), matching how SpGEMM consumes them.
/// Pattern matrices get the value `1.0` for every stored entry.
///
/// # Errors
///
/// Returns [`SparseError::Parse`] on malformed headers, size lines
/// (including a shape beyond the 32-bit [`Index`] range) or entries, and
/// [`SparseError::IndexOutOfBounds`] if an entry exceeds the declared
/// shape.
pub fn read<R: Read>(reader: R) -> Result<Coo, SparseError> {
    let scanner = Scanner::open(BufReader::new(reader))?;
    let mut coo = Coo::new(scanner.preamble.rows, scanner.preamble.cols);
    scanner.entries(|r0, c0, v| {
        coo.push(r0, c0, v);
        Ok(())
    })?;
    Ok(coo)
}

/// Everything the header and size line declare about a coordinate stream.
#[derive(Debug, Clone, Copy)]
struct Preamble {
    field: Field,
    symmetry: Symmetry,
    rows: usize,
    cols: usize,
    declared_nnz: usize,
}

/// A coordinate stream positioned just after its size line — the one
/// validating parser behind [`read`], [`scan_col_nnz`] and the panel
/// readers, so they accept the same grammar and fail with the same
/// errors. `line` is reused for every line: a scan allocates nothing per
/// entry.
#[derive(Debug)]
struct Scanner<R> {
    source: R,
    line: String,
    preamble: Preamble,
}

/// Reads the next line into `line` without its terminator (`\n` or
/// `\r\n`, exactly what [`BufRead::lines`] strips); `false` at end of
/// stream.
fn next_line<R: BufRead>(source: &mut R, line: &mut String) -> Result<bool, SparseError> {
    line.clear();
    if source.read_line(line)? == 0 {
        return Ok(false);
    }
    if line.ends_with('\n') {
        line.pop();
        if line.ends_with('\r') {
            line.pop();
        }
    }
    Ok(true)
}

impl<R: BufRead> Scanner<R> {
    /// Parses the banner line, skips comments, and parses the size line.
    /// A shape beyond the [`Index`] range is rejected here, so every
    /// in-bounds entry index converts to `Index` losslessly; nothing is
    /// ever sized from the (untrusted) declared entry count.
    fn open(mut source: R) -> Result<Self, SparseError> {
        let mut line = String::new();
        if !next_line(&mut source, &mut line)? {
            return Err(SparseError::Parse("empty stream".into()));
        }
        let (field, symmetry) = parse_header(&line)?;

        // Skip comments, find the size line.
        loop {
            if !next_line(&mut source, &mut line)? {
                return Err(SparseError::Parse("missing size line".into()));
            }
            let trimmed = line.trim();
            if !(trimmed.is_empty() || trimmed.starts_with('%')) {
                break;
            }
        }
        let dims: Vec<&str> = line.split_whitespace().collect();
        if dims.len() != 3 {
            return Err(SparseError::Parse(format!("bad size line: {line:?}")));
        }
        let preamble = Preamble {
            field,
            symmetry,
            rows: dims[0].parse().map_err(|_| bad_num(dims[0]))?,
            cols: dims[1].parse().map_err(|_| bad_num(dims[1]))?,
            declared_nnz: dims[2].parse().map_err(|_| bad_num(dims[2]))?,
        };
        if preamble.rows.max(preamble.cols) > Index::MAX as usize {
            return Err(SparseError::Parse(format!(
                "shape {}x{} exceeds the {}-bit index range",
                preamble.rows,
                preamble.cols,
                Index::BITS
            )));
        }
        Ok(Scanner {
            source,
            line,
            preamble,
        })
    }

    /// Walks every entry line to the end of the stream, fully validating
    /// each, expanding symmetry, and handing each **stored** entry —
    /// primary, plus the mirrored one for (skew-)symmetric inputs — to
    /// `f` in file order. Enforces the declared entry count at the end.
    fn entries<F>(mut self, mut f: F) -> Result<(), SparseError>
    where
        F: FnMut(Index, Index, f64) -> Result<(), SparseError>,
    {
        let p = self.preamble;
        let mut seen = 0usize;
        while next_line(&mut self.source, &mut self.line)? {
            let trimmed = self.line.trim();
            if trimmed.is_empty() || trimmed.starts_with('%') {
                continue;
            }
            let mut parts = trimmed.split_whitespace();
            let r: usize = parts
                .next()
                .ok_or_else(|| SparseError::Parse("missing row".into()))?
                .parse()
                .map_err(|_| bad_num(trimmed))?;
            let c: usize = parts
                .next()
                .ok_or_else(|| SparseError::Parse("missing col".into()))?
                .parse()
                .map_err(|_| bad_num(trimmed))?;
            let v: f64 = match p.field {
                Field::Pattern => 1.0,
                Field::Real | Field::Integer => parts
                    .next()
                    .ok_or_else(|| SparseError::Parse("missing value".into()))?
                    .parse()
                    .map_err(|_| bad_num(trimmed))?,
            };
            if r == 0 || c == 0 || r > p.rows || c > p.cols {
                let reported =
                    |i: usize| Index::try_from(i.saturating_sub(1)).unwrap_or(Index::MAX);
                return Err(SparseError::IndexOutOfBounds {
                    row: reported(r),
                    col: reported(c),
                    rows: p.rows,
                    cols: p.cols,
                });
            }
            // Lossless: `r ≤ rows ≤ Index::MAX`, and likewise `c`.
            let (r0, c0) = ((r - 1) as Index, (c - 1) as Index);
            f(r0, c0, v)?;
            match p.symmetry {
                Symmetry::General => {}
                Symmetry::Symmetric if r0 != c0 => f(c0, r0, v)?,
                Symmetry::SkewSymmetric if r0 != c0 => f(c0, r0, -v)?,
                _ => {}
            }
            seen += 1;
        }
        if seen != p.declared_nnz {
            return Err(SparseError::Parse(format!(
                "declared {} entries but found {seen}",
                p.declared_nnz
            )));
        }
        Ok(())
    }
}

/// Streams a `.mtx` file into panel COO chunks along one axis without
/// ever materializing the full matrix — the ingestion half of the
/// out-of-core streaming pipeline, and the one implementation behind
/// [`PanelReader`] (`BY_ROW = false`: column panels `A[:, p]`) and
/// [`RowPanelReader`] (`BY_ROW = true`: row panels `B[p, :]`).
///
/// The text is scanned **once**, by the first call to
/// [`next_panel`](Self::next_panel), however many panels there are: each
/// entry (after symmetry expansion) is routed by its panel-axis index to
/// that panel's bucket, and later calls only hand buckets back. Buckets
/// are small fixed buffers (256 KiB per reader in total) backed by one
/// staging run in [`std::env::temp_dir`] — fixed 16-byte records
/// appended chunk by chunk in file order, a per-panel chunk index in
/// memory, unlinked the moment it is created so nothing outlives the
/// reader on any exit path. Resident memory is therefore one panel
/// (`O(nnz / panels)`) plus the buffers and the chunk index, never the
/// whole matrix, and entries inside a panel keep their file order, so
/// duplicate coordinates sum in the same order as under [`read`].
///
/// The scan runs the *same* validation as [`read`], so malformed input
/// surfaces the same [`SparseError::Parse`] /
/// [`SparseError::IndexOutOfBounds`] taxonomy — at
/// [`open`](Self::open) for header and size-line errors, on the first
/// panel for entry errors (which end the iteration). A staging failure
/// (temp dir missing, disk full) is [`SparseError::Io`] naming the run.
#[derive(Debug)]
pub struct AxisPanelReader<const BY_ROW: bool, R = BufReader<File>> {
    /// The text, until the first `next_panel` scans it to the end.
    scanner: Option<Scanner<R>>,
    preamble: Preamble,
    ranges: Vec<Range<usize>>,
    /// The yield order: indices into `ranges`, range order unless
    /// [`in_order`](Self::in_order) sets another.
    order: Vec<usize>,
    next: usize,
    staging: Staging,
}

/// Streams a `.mtx` file into **column-panel** COO chunks: panel `p` is
/// `A[:, p]`, shape `rows × range.len()`, with **localized** column
/// indices (`col - range.start`). See [`AxisPanelReader`] for the cost
/// model (one text scan at any panel count) and the error contract.
///
/// # Example
///
/// ```no_run
/// use sparch_sparse::mm;
///
/// let mut reader = mm::read_panels("matrix.mtx", 4)?;
/// while let Some(panel) = reader.next_panel() {
///     let (cols, coo) = panel?;
///     println!("panel {:?}: {} entries", cols, coo.nnz());
/// }
/// # Ok::<(), sparch_sparse::SparseError>(())
/// ```
pub type PanelReader = AxisPanelReader<false>;

/// Streams a `.mtx` file into **row-panel** COO chunks — the right
/// operand's counterpart to [`PanelReader`]: panel `p` is `B[p, :]`,
/// shape `range.len() × cols`, with **localized** row indices
/// (`row - range.start`), so both operands of the streaming pipeline's
/// outer-product split `A · B = Σ_p A[:, p] · B[p, :]` can come straight
/// from disk. See [`AxisPanelReader`] for the cost model and the error
/// contract.
pub type RowPanelReader = AxisPanelReader<true>;

impl<const BY_ROW: bool> AxisPanelReader<BY_ROW> {
    /// Opens the file and parses its header and size line, splitting the
    /// panel axis into up to `panels` balanced ranges
    /// ([`crate::panel_ranges`]).
    ///
    /// # Errors
    ///
    /// [`SparseError::Io`] if the file cannot be opened, otherwise the
    /// same preamble errors as [`read`].
    pub fn open<P: AsRef<Path>>(path: P, panels: usize) -> Result<Self, SparseError> {
        let source = BufReader::new(File::open(path)?);
        Self::from_source(source, STAGING_ENTRIES, |total| panel_ranges(total, panels))
    }

    /// Opens the file with an explicit partition of the panel axis — for
    /// `A`, the nnz-balanced column split
    /// ([`crate::panel_ranges_by_nnz`] over a [`scan_col_nnz`]
    /// histogram); for `B`, the row split that mirrors `A`'s
    /// ([`ranges`](Self::ranges)), since the pipeline pairs panel `p` of
    /// both operands.
    ///
    /// # Panics
    ///
    /// Panics if the ranges do not tile the axis contiguously left to
    /// right (programmer error, like [`crate::Csr::col_panel`]'s bounds).
    ///
    /// # Errors
    ///
    /// Same as [`open`](Self::open).
    pub fn open_with_ranges<P: AsRef<Path>>(
        path: P,
        ranges: Vec<Range<usize>>,
    ) -> Result<Self, SparseError> {
        let source = BufReader::new(File::open(path)?);
        Self::from_source(source, STAGING_ENTRIES, |total| {
            assert_ranges_tile(&ranges, total, if BY_ROW { "row" } else { "column" });
            ranges
        })
    }
}

impl<const BY_ROW: bool, R: BufRead> AxisPanelReader<BY_ROW, R> {
    /// The reader over any text source: `split` maps the panel axis's
    /// length to its ranges, `buffered` is the entry count shared by the
    /// panels' buffers (tests shrink it to force the staging run).
    pub(crate) fn from_source(
        source: R,
        buffered: usize,
        split: impl FnOnce(usize) -> Vec<Range<usize>>,
    ) -> Result<Self, SparseError> {
        let scanner = Scanner::open(source)?;
        let preamble = scanner.preamble;
        let ranges = split(if BY_ROW { preamble.rows } else { preamble.cols });
        Ok(AxisPanelReader {
            staging: Staging::new(ranges.len(), buffered / ranges.len().max(1)),
            scanner: Some(scanner),
            preamble,
            order: (0..ranges.len()).collect(),
            ranges,
            next: 0,
        })
    }

    /// Yields the panels in `order` — indices into
    /// [`ranges`](Self::ranges) — instead of range order. The one text
    /// scan fills every bucket before the first panel is handed back, and
    /// a bucket is read back by its index, so any order costs the same.
    ///
    /// # Panics
    ///
    /// Panics unless `order` is a permutation of `0..panels()`.
    pub fn in_order(mut self, order: Vec<usize>) -> Self {
        let mut seen = vec![false; self.ranges.len()];
        let fresh = |&p: &usize| p < seen.len() && !std::mem::replace(&mut seen[p], true);
        assert!(
            order.len() == self.ranges.len() && order.iter().all(fresh),
            "panel order {order:?} is not a permutation of 0..{}",
            self.ranges.len()
        );
        self.order = order;
        self
    }

    /// Declared number of rows.
    pub fn rows(&self) -> usize {
        self.preamble.rows
    }

    /// Declared number of columns.
    pub fn cols(&self) -> usize {
        self.preamble.cols
    }

    /// Declared entry count (before symmetry expansion).
    pub fn declared_nnz(&self) -> usize {
        self.preamble.declared_nnz
    }

    /// Number of panels this reader will yield (≤ the requested count:
    /// empty panels are never produced, so a 3-column file asked for 8
    /// column panels yields 3).
    pub fn panels(&self) -> usize {
        self.ranges.len()
    }

    /// The panel-axis ranges this reader will yield, in range order
    /// (whatever order [`in_order`](Self::in_order) yields them in) —
    /// hand a [`PanelReader`]'s to [`RowPanelReader::open_with_ranges`] to
    /// split the right operand identically.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Yields the next panel in the reader's order: its range on the
    /// panel axis and the entries (after symmetry expansion) that fall in
    /// it, in file order, with the panel-axis index localized. The first call scans the whole
    /// text; later calls only read a bucket back.
    ///
    /// Returns `None` once every panel has been yielded, or after an
    /// error.
    #[allow(clippy::type_complexity)]
    pub fn next_panel(&mut self) -> Option<Result<(Range<usize>, Coo), SparseError>> {
        let p = *self.order.get(self.next)?;
        let range = self.ranges[p].clone();
        let (rows, cols) = if BY_ROW {
            (range.len(), self.preamble.cols)
        } else {
            (self.preamble.rows, range.len())
        };
        let panel = self.stage().and_then(|()| self.staging.take(p, rows, cols));
        self.next = match panel {
            Ok(_) => self.next + 1,
            Err(_) => self.order.len(),
        };
        Some(panel.map(|coo| (range, coo)))
    }

    /// Scans the text (first call only), routing every entry to the
    /// bucket of the panel whose range holds its panel-axis index.
    fn stage(&mut self) -> Result<(), SparseError> {
        let Some(scanner) = self.scanner.take() else {
            return Ok(());
        };
        let (ranges, staging) = (&self.ranges, &mut self.staging);
        scanner.entries(|r0, c0, v| {
            let key = if BY_ROW { r0 } else { c0 } as usize;
            // The ranges tile the axis and `key` is in bounds, so exactly
            // one range holds it: the first that ends beyond it.
            let p = ranges.partition_point(|range| range.end <= key);
            let lo = ranges[p].start as Index;
            let local = if BY_ROW {
                (r0 - lo, c0, v)
            } else {
                (r0, c0 - lo, v)
            };
            staging.push(p, local)
        })
    }
}

impl<const BY_ROW: bool, R: BufRead> Iterator for AxisPanelReader<BY_ROW, R> {
    type Item = Result<(Range<usize>, Coo), SparseError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_panel()
    }
}

/// Panics unless `ranges` tiles `0..total` contiguously left to right.
fn assert_ranges_tile(ranges: &[Range<usize>], total: usize, axis: &str) {
    let mut covered = 0usize;
    for r in ranges {
        assert!(
            r.start == covered && r.end >= r.start,
            "{axis} panel {r:?} does not tile 0..{total} (covered 0..{covered})"
        );
        covered = r.end;
    }
    assert!(
        covered == total,
        "{axis} panels cover only 0..{covered} of 0..{total}"
    );
}

/// One validated pass over a `.mtx` file producing the per-column
/// non-zero histogram (after symmetry expansion) — the weight vector for
/// an nnz-balanced panel split ([`crate::panel_ranges_by_nnz`]) when the
/// left operand streams from disk. Runs the same entry validation as
/// [`read`], so it surfaces the identical error taxonomy.
///
/// # Errors
///
/// [`SparseError::Io`] if the file cannot be opened, otherwise as
/// [`read`]; [`SparseError::Parse`] too when the declared column count
/// is more than this host can allocate a histogram for.
pub fn scan_col_nnz<P: AsRef<Path>>(path: P) -> Result<Vec<usize>, SparseError> {
    let scanner = Scanner::open(BufReader::new(File::open(path)?))?;
    let cols = scanner.preamble.cols;
    let mut counts = Vec::new();
    counts
        .try_reserve_exact(cols)
        .map_err(|e| SparseError::Parse(format!("no memory for a {cols}-column histogram: {e}")))?;
    counts.resize(cols, 0usize);
    scanner.entries(|_, c0, _| {
        counts[c0 as usize] += 1;
        Ok(())
    })?;
    Ok(counts)
}

/// Opens a chunked column-panel reader over a `.mtx` file — shorthand
/// for [`PanelReader::open`].
///
/// # Errors
///
/// Same as [`PanelReader::open`].
pub fn read_panels<P: AsRef<Path>>(path: P, panels: usize) -> Result<PanelReader, SparseError> {
    PanelReader::open(path, panels)
}

/// Opens a chunked row-panel reader over a `.mtx` file — shorthand for
/// [`RowPanelReader::open`].
///
/// # Errors
///
/// Same as [`RowPanelReader::open`].
pub fn read_row_panels<P: AsRef<Path>>(
    path: P,
    panels: usize,
) -> Result<RowPanelReader, SparseError> {
    RowPanelReader::open(path, panels)
}

/// Reads a Matrix Market string. Convenience wrapper over [`read`].
///
/// # Errors
///
/// Same as [`read`].
pub fn read_str(text: &str) -> Result<Coo, SparseError> {
    read(text.as_bytes())
}

/// Reads a `.mtx` file from disk.
///
/// # Errors
///
/// [`SparseError::Io`] if the file cannot be opened, otherwise as [`read`].
pub fn read_file<P: AsRef<Path>>(path: P) -> Result<Coo, SparseError> {
    read(std::fs::File::open(path)?)
}

/// Writes a COO matrix as `coordinate real general` Matrix Market.
///
/// # Errors
///
/// Propagates I/O failures as [`SparseError::Io`].
pub fn write<W: Write>(mut writer: W, m: &Coo) -> Result<(), SparseError> {
    writer.write_all(write_string(m).as_bytes())?;
    Ok(())
}

/// Renders a COO matrix to a Matrix Market string.
pub fn write_string(m: &Coo) -> String {
    let mut s = String::new();
    s.push_str("%%MatrixMarket matrix coordinate real general\n");
    s.push_str("% written by sparch-sparse\n");
    let _ = writeln!(s, "{} {} {}", m.rows(), m.cols(), m.nnz());
    for &(r, c, v) in m.entries() {
        let _ = writeln!(s, "{} {} {}", r + 1, c + 1, v);
    }
    s
}

/// Writes a `.mtx` file to disk.
///
/// # Errors
///
/// [`SparseError::Io`] if the file cannot be created or written.
pub fn write_file<P: AsRef<Path>>(path: P, m: &Coo) -> Result<(), SparseError> {
    write(std::fs::File::create(path)?, m)
}

fn parse_header(line: &str) -> Result<(Field, Symmetry), SparseError> {
    let lower = line.to_ascii_lowercase();
    let tokens: Vec<&str> = lower.split_whitespace().collect();
    if tokens.len() != 5 || tokens[0] != "%%matrixmarket" || tokens[1] != "matrix" {
        return Err(SparseError::Parse(format!("bad header: {line:?}")));
    }
    if tokens[2] != "coordinate" {
        return Err(SparseError::Parse(format!(
            "only coordinate format is supported, got {:?}",
            tokens[2]
        )));
    }
    let field = match tokens[3] {
        "real" => Field::Real,
        "integer" => Field::Integer,
        "pattern" => Field::Pattern,
        other => return Err(SparseError::Parse(format!("unsupported field {other:?}"))),
    };
    let symmetry = match tokens[4] {
        "general" => Symmetry::General,
        "symmetric" => Symmetry::Symmetric,
        "skew-symmetric" => Symmetry::SkewSymmetric,
        other => {
            return Err(SparseError::Parse(format!(
                "unsupported symmetry {other:?}"
            )))
        }
    };
    Ok((field, symmetry))
}

fn bad_num(tok: &str) -> SparseError {
    SparseError::Parse(format!("bad number in {tok:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_general_real() {
        let text =
            "%%MatrixMarket matrix coordinate real general\n% a comment\n2 3 2\n1 1 1.5\n2 3 -2\n";
        let m = read_str(text).unwrap();
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.entries(), &[(0, 0, 1.5), (1, 2, -2.0)]);
    }

    #[test]
    fn parse_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 5\n3 3 7\n";
        let mut m = read_str(text).unwrap();
        m.sort_dedup();
        assert_eq!(m.entries(), &[(0, 1, 5.0), (1, 0, 5.0), (2, 2, 7.0)]);
    }

    #[test]
    fn parse_skew_symmetric_negates() {
        let text = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 3\n";
        let mut m = read_str(text).unwrap();
        m.sort_dedup();
        assert_eq!(m.entries(), &[(0, 1, -3.0), (1, 0, 3.0)]);
    }

    #[test]
    fn parse_pattern_gets_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 2\n2 1\n";
        let m = read_str(text).unwrap();
        assert!(m.entries().iter().all(|e| e.2 == 1.0));
    }

    #[test]
    fn rejects_bad_header_and_counts() {
        assert!(read_str("hello\n1 1 0\n").is_err());
        assert!(read_str("%%MatrixMarket matrix array real general\n1 1 0\n").is_err());
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n";
        assert!(matches!(read_str(text), Err(SparseError::Parse(_))));
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n";
        assert!(matches!(
            read_str(text),
            Err(SparseError::IndexOutOfBounds { .. })
        ));
    }

    #[test]
    fn one_based_indexing_round_trip() {
        let mut m = Coo::new(3, 4);
        m.push(0, 0, 1.0);
        m.push(2, 3, 4.0);
        let text = write_string(&m);
        assert!(text.contains("3 4 2"));
        assert!(text.contains("1 1 1"));
        assert!(text.contains("3 4 4"));
        let back = read_str(&text).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn parse_integer_field() {
        let text = "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 1 3\n2 2 -7\n";
        let m = read_str(text).unwrap();
        assert_eq!(m.entries(), &[(0, 0, 3.0), (1, 1, -7.0)]);
    }

    #[test]
    fn parse_pattern_symmetric_expands_with_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\n3 3\n";
        let mut m = read_str(text).unwrap();
        m.sort_dedup();
        assert_eq!(m.entries(), &[(0, 1, 1.0), (1, 0, 1.0), (2, 2, 1.0)]);
    }

    #[test]
    fn symmetric_diagonal_entries_are_not_mirrored() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 2 9\n";
        let m = read_str(text).unwrap();
        assert_eq!(m.entries(), &[(1, 1, 9.0)]);
    }

    #[test]
    fn malformed_headers_are_errors_not_panics() {
        let cases = [
            "",                                                                // empty stream
            "%%MatrixMarket\n1 1 0\n",                                         // too few tokens
            "%%MatrixMarket vector coordinate real general\n1 1 0\n",          // not a matrix
            "%%MatrixMarket matrix array real general\n1 1 0\n",               // dense format
            "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",       // unsupported field
            "%%MatrixMarket matrix coordinate real hermitian\n1 1 0\n", // unsupported symmetry
            "%%MatrixMarket matrix coordinate real general\n",          // missing size line
            "%%MatrixMarket matrix coordinate real general\n2 2\n",     // short size line
            "%%MatrixMarket matrix coordinate real general\nx 2 0\n",   // non-numeric size
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n", // missing col
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n", // missing value
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n", // bad value
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n-1 1 1\n", // negative index
        ];
        for text in cases {
            assert!(
                matches!(read_str(text), Err(SparseError::Parse(_))),
                "expected Parse error for {text:?}"
            );
        }
    }

    #[test]
    fn out_of_range_indices_are_errors_not_panics() {
        // One-based format: index 0 is out of range, as is anything past
        // the declared shape.
        let cases = [
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 0 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 9 1\n",
            "%%MatrixMarket matrix coordinate pattern symmetric\n2 2 1\n1 3\n",
        ];
        for text in cases {
            assert!(
                matches!(read_str(text), Err(SparseError::IndexOutOfBounds { .. })),
                "expected IndexOutOfBounds for {text:?}"
            );
        }
    }

    #[test]
    fn declared_count_must_match_even_with_comments() {
        let text = "%%MatrixMarket matrix coordinate real general\n% c\n2 2 2\n1 1 1\n% mid\n";
        assert!(matches!(read_str(text), Err(SparseError::Parse(_))));
    }

    mod roundtrip {
        use super::*;
        use crate::gen::arb;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // write → read is lossless for arbitrary matrices, including
            // explicit zeros and degenerate 1×N / N×1 shapes.
            #[test]
            fn write_read_round_trip(
                m in arb::csr_with(24, 24, 80, arb::ValueClass::SmallIntWithZeros)
            ) {
                let text = write_string(&m.to_coo());
                let back = read_str(&text).unwrap();
                prop_assert_eq!(back.to_csr(), m);
            }

            #[test]
            fn float_values_survive_the_text_format(
                m in arb::csr_with(16, 16, 60, arb::ValueClass::Float)
            ) {
                let back = read_str(&write_string(&m.to_coo())).unwrap().to_csr();
                // Display/parse of f64 is exact (shortest round-trip repr).
                prop_assert_eq!(back, m);
            }
        }
    }

    mod panels {
        use super::*;
        use crate::gen;

        /// Writes `text` to a unique temp file and returns its path.
        fn temp_mtx(tag: &str, text: &str) -> std::path::PathBuf {
            let path = std::env::temp_dir()
                .join(format!("sparch_mm_panels_{tag}_{}.mtx", std::process::id()));
            std::fs::write(&path, text).unwrap();
            path
        }

        /// Re-assembles the panels into one full-shape COO.
        fn reassemble(reader: PanelReader) -> Coo {
            let (rows, cols) = (reader.rows(), reader.cols());
            let mut full = Coo::new(rows, cols);
            for panel in reader {
                let (range, coo) = panel.unwrap();
                for &(r, c, v) in coo.entries() {
                    full.push(r, c + range.start as Index, v);
                }
            }
            full
        }

        #[test]
        fn panels_reassemble_to_the_full_read() {
            let m = gen::uniform_random(17, 23, 90, 7).to_coo();
            let path = temp_mtx("reassemble", &write_string(&m));
            for panels in [1, 2, 3, 23, 40] {
                let reader = read_panels(&path, panels).unwrap();
                assert_eq!(reader.panels(), panels.min(23), "panels {panels}");
                assert_eq!(reader.declared_nnz(), m.nnz());
                assert_eq!(
                    reassemble(reader).to_csr(),
                    read_file(&path).unwrap().to_csr(),
                    "panels {panels}"
                );
            }
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn panel_chunks_are_local_and_disjoint() {
            let m = gen::uniform_random(12, 20, 60, 3).to_coo();
            let path = temp_mtx("local", &write_string(&m));
            let reader = read_panels(&path, 4).unwrap();
            let mut total = 0usize;
            let mut prev_end = 0usize;
            for panel in reader {
                let (range, coo) = panel.unwrap();
                assert_eq!(range.start, prev_end, "contiguous column coverage");
                prev_end = range.end;
                assert_eq!(coo.rows(), 12);
                assert_eq!(coo.cols(), range.len());
                assert!(coo.entries().iter().all(|e| (e.1 as usize) < range.len()));
                total += coo.nnz();
            }
            assert_eq!(prev_end, 20);
            assert_eq!(total, m.nnz());
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn symmetric_mirrors_land_in_their_own_panels() {
            // Entry (4, 1) of a symmetric matrix mirrors to (1, 4): with
            // two panels over 6 columns, the primary lands in panel 0 and
            // the mirror in panel 1.
            let text = "%%MatrixMarket matrix coordinate real symmetric\n6 6 2\n5 2 3.5\n6 6 1\n";
            let path = temp_mtx("symmetric", text);
            let mut reader = read_panels(&path, 2).unwrap();
            let (r0, p0) = reader.next_panel().unwrap().unwrap();
            assert_eq!(r0, 0..3);
            assert_eq!(p0.entries(), &[(4, 1, 3.5)]);
            let (r1, p1) = reader.next_panel().unwrap().unwrap();
            assert_eq!(r1, 3..6);
            let mut p1 = p1;
            p1.sort_dedup();
            assert_eq!(p1.entries(), &[(1, 1, 3.5), (5, 2, 1.0)]);
            assert!(reader.next_panel().is_none());
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn pattern_and_skew_fields_match_read() {
            for (tag, text) in [
                (
                    "pattern",
                    "%%MatrixMarket matrix coordinate pattern general\n3 4 3\n1 1\n2 4\n3 2\n",
                ),
                (
                    "skew",
                    "%%MatrixMarket matrix coordinate real skew-symmetric\n4 4 2\n3 1 2\n4 2 -1\n",
                ),
            ] {
                let path = temp_mtx(tag, text);
                let reader = read_panels(&path, 3).unwrap();
                assert_eq!(
                    reassemble(reader).to_csr(),
                    read_str(text).unwrap().to_csr(),
                    "{tag}"
                );
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn malformed_inputs_error_like_read() {
            // Preamble failures surface at open; entry failures surface on
            // the first panel — with exactly the same error as `read`
            // (shared parser).
            let preamble_cases = [
                ("%%MatrixMarket matrix array real general\n1 1 0\n", "dense"),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2\n",
                    "short size",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\nx 2 0\n",
                    "bad size",
                ),
            ];
            for (text, tag) in preamble_cases {
                let path = temp_mtx(&format!("bad_{}", tag.replace(' ', "_")), text);
                let open_err = PanelReader::open(&path, 2).unwrap_err();
                let read_err = read_str(text).unwrap_err();
                assert_eq!(open_err, read_err, "{tag}");
                let _ = std::fs::remove_file(&path);
            }
            let entry_cases = [
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
                    "missing value",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
                    "bad value",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
                    "short count",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
                    "out of range",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
                    "zero index",
                ),
            ];
            for (text, tag) in entry_cases {
                let path = temp_mtx(&format!("bad_{}", tag.replace(' ', "_")), text);
                let mut reader = read_panels(&path, 2).unwrap();
                let panel_err = reader.next_panel().unwrap().unwrap_err();
                assert_eq!(panel_err, read_str(text).unwrap_err(), "{tag}");
                assert!(reader.next_panel().is_none(), "{tag}: an error ends it");
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn missing_file_is_io_error() {
            assert!(matches!(
                read_panels("/nonexistent/sparch-panels.mtx", 2),
                Err(SparseError::Io(_))
            ));
            assert!(matches!(
                read_row_panels("/nonexistent/sparch-panels.mtx", 2),
                Err(SparseError::Io(_))
            ));
        }
    }

    mod row_panels {
        use super::*;
        use crate::{gen, panel_ranges_by_nnz};

        fn temp_mtx(tag: &str, text: &str) -> std::path::PathBuf {
            let path = std::env::temp_dir().join(format!(
                "sparch_mm_row_panels_{tag}_{}.mtx",
                std::process::id()
            ));
            std::fs::write(&path, text).unwrap();
            path
        }

        /// Removes its file when dropped, so a test that panics on
        /// purpose still leaves nothing behind.
        struct Removed(std::path::PathBuf);

        impl Drop for Removed {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        /// Re-assembles row panels into one full-shape COO.
        fn reassemble(reader: RowPanelReader) -> Coo {
            let (rows, cols) = (reader.rows(), reader.cols());
            let mut full = Coo::new(rows, cols);
            for panel in reader {
                let (range, coo) = panel.unwrap();
                assert_eq!(coo.rows(), range.len());
                assert_eq!(coo.cols(), cols);
                for &(r, c, v) in coo.entries() {
                    full.push(r + range.start as Index, c, v);
                }
            }
            full
        }

        #[test]
        fn row_panels_reassemble_to_the_full_read() {
            // `read` vs panel-reassembly must agree bit-for-bit (CSR
            // equality compares value bit patterns via ==; the text
            // round-trip itself is exact).
            let m = gen::uniform_random(23, 17, 90, 11).to_coo();
            let path = temp_mtx("reassemble", &write_string(&m));
            for panels in [1, 2, 3, 23, 40] {
                let reader = read_row_panels(&path, panels).unwrap();
                assert_eq!(reader.panels(), panels.min(23), "panels {panels}");
                assert_eq!(reader.declared_nnz(), m.nnz());
                assert_eq!(
                    reassemble(reader).to_csr(),
                    read_file(&path).unwrap().to_csr(),
                    "panels {panels}"
                );
            }
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn row_panel_chunks_are_local_contiguous_and_disjoint() {
            let m = gen::uniform_random(20, 12, 60, 3).to_coo();
            let path = temp_mtx("local", &write_string(&m));
            let reader = read_row_panels(&path, 4).unwrap();
            let mut total = 0usize;
            let mut prev_end = 0usize;
            for panel in reader {
                let (range, coo) = panel.unwrap();
                assert_eq!(range.start, prev_end, "contiguous row coverage");
                prev_end = range.end;
                assert_eq!(coo.rows(), range.len());
                assert_eq!(coo.cols(), 12);
                assert!(coo.entries().iter().all(|e| (e.0 as usize) < range.len()));
                total += coo.nnz();
            }
            assert_eq!(prev_end, 20);
            assert_eq!(total, m.nnz());
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn symmetric_mirrors_land_in_their_own_row_panels() {
            // Entry (5, 2) of a symmetric matrix mirrors to (2, 5): with
            // two panels over 6 rows, the primary lands in row panel 1
            // (rows 3..6) and the mirror in row panel 0 (rows 0..3) —
            // the transpose of the column-panel case.
            let text = "%%MatrixMarket matrix coordinate real symmetric\n6 6 2\n5 2 3.5\n6 6 1\n";
            let path = temp_mtx("symmetric", text);
            let mut reader = read_row_panels(&path, 2).unwrap();
            let (r0, p0) = reader.next_panel().unwrap().unwrap();
            assert_eq!(r0, 0..3);
            assert_eq!(p0.entries(), &[(1, 4, 3.5)], "mirror, localized row");
            let (r1, p1) = reader.next_panel().unwrap().unwrap();
            assert_eq!(r1, 3..6);
            let mut p1 = p1;
            p1.sort_dedup();
            assert_eq!(p1.entries(), &[(1, 1, 3.5), (2, 5, 1.0)]);
            assert!(reader.next_panel().is_none());
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        fn skew_and_pattern_fields_match_read() {
            for (tag, text) in [
                (
                    "pattern",
                    "%%MatrixMarket matrix coordinate pattern general\n4 3 3\n1 1\n2 3\n4 2\n",
                ),
                (
                    "skew",
                    "%%MatrixMarket matrix coordinate real skew-symmetric\n4 4 2\n3 1 2\n4 2 -1\n",
                ),
            ] {
                let path = temp_mtx(tag, text);
                let reader = read_row_panels(&path, 3).unwrap();
                assert_eq!(
                    reassemble(reader).to_csr(),
                    read_str(text).unwrap().to_csr(),
                    "{tag}"
                );
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn malformed_inputs_error_like_read() {
            // The row-panel reader shares its parser with `read`, so the
            // errors are identical by construction — pinned here case by
            // case anyway.
            let preamble_cases = [
                ("%%MatrixMarket matrix array real general\n1 1 0\n", "dense"),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2\n",
                    "short size",
                ),
                (
                    "%%MatrixMarket matrix coordinate complex general\n1 1 0\n",
                    "bad field",
                ),
            ];
            for (text, tag) in preamble_cases {
                let path = temp_mtx(&format!("bad_{}", tag.replace(' ', "_")), text);
                let open_err = RowPanelReader::open(&path, 2).unwrap_err();
                let read_err = read_str(text).unwrap_err();
                assert_eq!(open_err, read_err, "{tag}");
                let _ = std::fs::remove_file(&path);
            }
            let entry_cases = [
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
                    "missing value",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n",
                    "bad value",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n",
                    "short count",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1\n",
                    "row out of range",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 9 1\n",
                    "col out of range",
                ),
                (
                    "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
                    "zero index",
                ),
            ];
            for (text, tag) in entry_cases {
                let path = temp_mtx(&format!("bad_{}", tag.replace(' ', "_")), text);
                let mut reader = read_row_panels(&path, 2).unwrap();
                let panel_err = reader.next_panel().unwrap().unwrap_err();
                assert_eq!(panel_err, read_str(text).unwrap_err(), "{tag}");
                assert!(reader.next_panel().is_none(), "{tag}: an error ends it");
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn explicit_ranges_mirror_a_balanced_column_split() {
            // The pipeline's pairing: B's row panels must follow A's
            // nnz-balanced column split exactly.
            let m = gen::uniform_random(16, 16, 120, 5).to_coo();
            let path = temp_mtx("explicit", &write_string(&m));
            let weights = scan_col_nnz(&path).unwrap();
            assert_eq!(weights.iter().sum::<usize>(), m.nnz());
            let ranges = panel_ranges_by_nnz(&weights, 4);
            let reader = RowPanelReader::open_with_ranges(&path, ranges.clone()).unwrap();
            let yielded: Vec<_> = reader.map(|p| p.unwrap().0).collect();
            assert_eq!(yielded, ranges);
            let reader = RowPanelReader::open_with_ranges(&path, ranges).unwrap();
            assert_eq!(
                reassemble(reader).to_csr(),
                read_file(&path).unwrap().to_csr()
            );
            let _ = std::fs::remove_file(&path);
        }

        #[test]
        #[should_panic(expected = "does not tile")]
        fn gapped_explicit_ranges_panic() {
            let m = gen::uniform_random(8, 8, 20, 1).to_coo();
            let file = Removed(temp_mtx("gapped", &write_string(&m)));
            let _ = RowPanelReader::open_with_ranges(&file.0, vec![0..3, 5..8]);
        }

        #[test]
        #[should_panic(expected = "cover only")]
        fn short_explicit_ranges_panic() {
            let m = gen::uniform_random(8, 8, 20, 2).to_coo();
            let file = Removed(temp_mtx("short", &write_string(&m)));
            let _ = PanelReader::open_with_ranges(&file.0, std::iter::once(0..5).collect());
        }

        #[test]
        fn scan_col_nnz_counts_expanded_entries() {
            // Symmetric expansion: (5, 2) mirrors to (2, 5), so columns
            // 1 and 4 (0-based) each gain one count.
            let text = "%%MatrixMarket matrix coordinate real symmetric\n6 6 2\n5 2 3.5\n6 6 1\n";
            let path = temp_mtx("colnnz", text);
            assert_eq!(scan_col_nnz(&path).unwrap(), vec![0, 1, 0, 0, 1, 1]);
            let _ = std::fs::remove_file(&path);
            // Error taxonomy flows through unchanged.
            let bad = temp_mtx(
                "colnnz_bad",
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 9 1\n",
            );
            assert!(matches!(
                scan_col_nnz(&bad),
                Err(SparseError::IndexOutOfBounds { .. })
            ));
            let _ = std::fs::remove_file(&bad);
        }
    }

    /// The single-scan ingest itself: bytes pulled from the source, the
    /// staging run's round trip, and the hostile-header guards.
    mod ingest {
        use super::*;
        use crate::gen;
        use crate::staging::STAGING_ENTRIES;
        use proptest::prelude::*;
        use std::cell::Cell;
        use std::rc::Rc;

        /// Counts every byte the reader pulls out of `inner`.
        struct Counting<'a> {
            inner: &'a [u8],
            pulled: Rc<Cell<usize>>,
        }

        impl Read for Counting<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.inner.read(buf)?;
                self.pulled.set(self.pulled.get() + n);
                Ok(n)
            }
        }

        /// Drains a reader over `text` and returns (bytes pulled from the
        /// source, entries yielded).
        fn drain<const BY_ROW: bool>(text: &str, panels: usize, buffered: usize) -> (usize, usize) {
            let pulled = Rc::new(Cell::new(0));
            let source = BufReader::new(Counting {
                inner: text.as_bytes(),
                pulled: Rc::clone(&pulled),
            });
            let reader = AxisPanelReader::<BY_ROW, _>::from_source(source, buffered, |total| {
                panel_ranges(total, panels)
            })
            .unwrap();
            let entries = reader.map(|panel| panel.unwrap().1.nnz()).sum();
            (pulled.get(), entries)
        }

        #[test]
        fn each_reader_pulls_every_byte_exactly_once() {
            let m = gen::uniform_random(96, 80, 3000, 21).to_coo();
            let text = write_string(&m);
            for panels in [1, 4, 16, 64] {
                // Default buffers (no staging run) and 4-entry buffers
                // (nearly everything round-trips through the run).
                for buffered in [STAGING_ENTRIES, 4 * panels] {
                    let want = (text.len(), m.nnz());
                    assert_eq!(drain::<false>(&text, panels, buffered), want, "{panels}");
                    assert_eq!(drain::<true>(&text, panels, buffered), want, "{panels}");
                }
            }
        }

        const HEADERS: [&str; 4] = [
            "real general",
            "real symmetric",
            "real skew-symmetric",
            "pattern general",
        ];

        /// What the per-panel re-scan used to yield: the entries of the
        /// whole read, in file order, whose panel-axis index lies in
        /// `range`, with that index localized.
        fn filtered<const BY_ROW: bool>(full: &Coo, range: &Range<usize>) -> Vec<(u32, u32, u64)> {
            let lo = range.start as Index;
            full.entries()
                .iter()
                .filter(|e| range.contains(&(if BY_ROW { e.0 } else { e.1 } as usize)))
                .map(|&(r, c, v)| {
                    if BY_ROW {
                        (r - lo, c, v.to_bits())
                    } else {
                        (r, c - lo, v.to_bits())
                    }
                })
                .collect()
        }

        fn check_against_read<const BY_ROW: bool>(text: &str, panels: usize, cap: usize) {
            let full = read_str(text).unwrap();
            let reader =
                AxisPanelReader::<BY_ROW, _>::from_source(text.as_bytes(), cap * panels, |total| {
                    panel_ranges(total, panels)
                })
                .unwrap();
            let mut total = 0;
            for panel in reader {
                let (range, coo) = panel.unwrap();
                let got: Vec<_> = coo
                    .entries()
                    .iter()
                    .map(|&(r, c, v)| (r, c, v.to_bits()))
                    .collect();
                assert_eq!(got, filtered::<BY_ROW>(&full, &range), "panel {range:?}");
                total += got.len();
            }
            // Every entry sits in exactly one panel, so the panels
            // reassemble to the whole read.
            assert_eq!(total, full.nnz());
        }

        /// One panel: its range and its entries as `(row, col, value bits)`.
        type RangeBits = (Range<usize>, Vec<(u32, u32, u64)>);

        /// Every panel of both axes, keyed by range, read in `order` (range
        /// order when `None`) through 3-entry buffers, so most entries
        /// round-trip through the staging run.
        fn panels_in<const BY_ROW: bool>(
            text: &str,
            panels: usize,
            order: Option<Vec<usize>>,
        ) -> Vec<RangeBits> {
            let reader =
                AxisPanelReader::<BY_ROW, _>::from_source(text.as_bytes(), 3 * panels, |n| {
                    panel_ranges(n, panels)
                })
                .unwrap();
            let ranges = reader.ranges().to_vec();
            let reader = match order {
                Some(order) => reader.in_order(order),
                None => reader,
            };
            let mut got: Vec<_> = reader
                .map(|panel| {
                    let (range, coo) = panel.unwrap();
                    let bits = coo.entries().iter().map(|&(r, c, v)| (r, c, v.to_bits()));
                    (range, bits.collect())
                })
                .collect();
            assert_eq!(got.len(), ranges.len());
            got.sort_by_key(|(range, _)| range.start);
            got
        }

        #[test]
        fn any_panel_order_reads_back_the_panels_of_range_order() {
            let m = gen::uniform_random(40, 36, 700, 23).to_coo();
            let text = write_string(&m);
            let panels = 7;
            let want = (
                panels_in::<false>(&text, panels, None),
                panels_in::<true>(&text, panels, None),
            );
            let orders = [
                vec![6, 5, 4, 3, 2, 1, 0],
                vec![3, 0, 6, 1, 5, 2, 4],
                vec![2, 3, 4, 5, 6, 0, 1],
            ];
            for order in orders {
                let got = (
                    panels_in::<false>(&text, panels, Some(order.clone())),
                    panels_in::<true>(&text, panels, Some(order.clone())),
                );
                assert!(got == want, "order {order:?}");
            }
            // The order a reader was given is the order it yields.
            let reader = AxisPanelReader::<false, _>::from_source(text.as_bytes(), 64, |n| {
                panel_ranges(n, panels)
            })
            .unwrap();
            let ranges = reader.ranges().to_vec();
            let yielded: Vec<_> = reader
                .in_order(vec![4, 1, 6, 0, 2, 5, 3])
                .map(|p| p.unwrap().0)
                .collect();
            let expect: Vec<_> = [4, 1, 6, 0, 2, 5, 3].map(|p| ranges[p].clone()).to_vec();
            assert_eq!(yielded, expect);
        }

        #[test]
        #[should_panic(expected = "not a permutation")]
        fn a_panel_order_with_a_repeat_panics() {
            let text = write_string(&gen::uniform_random(8, 8, 20, 1).to_coo());
            let reader = AxisPanelReader::<true, _>::from_source(text.as_bytes(), 64, |n| {
                panel_ranges(n, 3)
            })
            .unwrap();
            let _ = reader.in_order(vec![0, 1, 1]);
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            // Arbitrary entry order and duplicates, every header kind,
            // buffers of one to three entries so chunks of every panel
            // interleave in the run: each panel is exactly the old
            // per-panel filter of the whole read, order and bits included.
            #[test]
            fn bucketed_panels_equal_the_filtered_read(
                n in 1usize..14,
                raw in vec((0usize..14, 0usize..14, -8i32..9), 0..90),
                kind in 0usize..4,
                panels in 1usize..7,
                cap in 1usize..4,
            ) {
                let mut text = format!(
                    "%%MatrixMarket matrix coordinate {}\n{n} {n} {}\n",
                    HEADERS[kind],
                    raw.len()
                );
                for (r, c, v) in raw {
                    let _ = match kind {
                        3 => writeln!(text, "{} {}", r % n + 1, c % n + 1),
                        _ => writeln!(text, "{} {} {}", r % n + 1, c % n + 1, f64::from(v) / 4.0),
                    };
                }
                check_against_read::<false>(&text, panels, cap);
                check_against_read::<true>(&text, panels, cap);
            }
        }

        #[test]
        fn shapes_beyond_the_index_range_are_rejected_before_any_allocation() {
            // 2^32 rows or columns cannot be addressed by `Index`; the
            // old parser accepted the header and truncated entry indices.
            for size in ["4294967296 3 1", "3 4294967296 1", "99999999999999 3 1"] {
                let text =
                    format!("%%MatrixMarket matrix coordinate real general\n{size}\n3 3 1\n");
                let path = std::env::temp_dir().join(format!(
                    "sparch_mm_hostile_{}_{}.mtx",
                    size.replace(' ', "_"),
                    std::process::id()
                ));
                std::fs::write(&path, &text).unwrap();
                let want = read_str(&text).unwrap_err();
                assert!(
                    matches!(&want, SparseError::Parse(msg) if msg.contains("index range")),
                    "{size}: {want}"
                );
                assert_eq!(scan_col_nnz(&path).unwrap_err(), want, "{size}");
                assert_eq!(read_panels(&path, 4).unwrap_err(), want, "{size}");
                assert_eq!(read_row_panels(&path, 4).unwrap_err(), want, "{size}");
                let _ = std::fs::remove_file(&path);
            }
        }

        #[test]
        fn the_largest_addressable_shape_keeps_its_indices() {
            // `Index::MAX` rows and columns is the edge that still fits:
            // the far-corner entry must land on exactly that row and
            // column, whole or panelled, with nothing sized by the shape.
            let edge = Index::MAX;
            let text = format!(
                "%%MatrixMarket matrix coordinate real general\n{edge} {edge} 2\n\
                 {edge} {edge} 2.5\n1 {edge} -1\n"
            );
            let full = read_str(&text).unwrap();
            assert_eq!(
                full.entries(),
                &[(edge - 1, edge - 1, 2.5), (0, edge - 1, -1.0)]
            );
            check_against_read::<false>(&text, 3, 1);
            check_against_read::<true>(&text, 3, 1);
        }

        #[test]
        fn a_hostile_entry_count_allocates_nothing() {
            let text = format!(
                "%%MatrixMarket matrix coordinate real general\n2 2 {}\n1 1 1\n",
                usize::MAX
            );
            let want = SparseError::Parse(format!("declared {} entries but found 1", usize::MAX));
            assert_eq!(read_str(&text).unwrap_err(), want);
            let mut reader = AxisPanelReader::<false, _>::from_source(text.as_bytes(), 8, |n| {
                panel_ranges(n, 2)
            })
            .unwrap();
            assert_eq!(reader.next_panel().unwrap().unwrap_err(), want);
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir();
        let path = dir.join("sparch_mm_test.mtx");
        let mut m = Coo::new(5, 5);
        m.push(1, 2, -0.5);
        write_file(&path, &m).unwrap();
        let back = read_file(&path).unwrap();
        assert_eq!(back, m);
        let _ = std::fs::remove_file(&path);
    }
}
