//! The row-grouped partial: the one form a merge round's stored inputs
//! take on their way into [`fold_rows`](super::fold_rows).
//!
//! A [`RowGroup`] holds occupied rows in ascending order, each with the
//! start of its entries, and the entries' columns and values in two
//! arrays — 12 bytes per entry. The fold wants only rows in ascending
//! order, so no entry carries its row. The simulator stores its round
//! outputs as whole partials of this form, and the product's merge
//! rounds decode a spilled partial into one a bounded group of entries
//! at a time, whose last row may go on in the next group.
//!
//! A reader holds its own cursor: the group row it reads next, from 0 to
//! [`RowGroup::row_count`]. [`RowGroup::head`] names that row and
//! [`RowGroup::feed`] hands its entries over and steps past it.

use crate::Index;

/// Occupied rows with their `(col, value)` entries, in ascending
/// `(row, col)` order and each coordinate at most once; see the module
/// docs. Group row `g` is `rows[g] = (row, start)`, and its entries run
/// from `start` to the next row's start, or to the end.
#[derive(Debug, Clone, Default)]
pub struct RowGroup {
    rows: Vec<(Index, usize)>,
    cols: Vec<Index>,
    values: Vec<f64>,
}

impl RowGroup {
    /// An empty group with room for `entries` entries in as many rows.
    pub fn with_capacity(entries: usize) -> Self {
        RowGroup {
            rows: Vec::with_capacity(entries),
            cols: Vec::with_capacity(entries),
            values: Vec::with_capacity(entries),
        }
    }

    /// The entries it has room for without growing.
    pub fn capacity(&self) -> usize {
        self.cols.capacity().min(self.values.capacity())
    }

    /// Empties the group, keeping its allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.values.clear();
    }

    /// The entries it holds.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether it holds no entry.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// The occupied rows it holds.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Appends entry `(row, col, value)`, which must come after every
    /// entry held in `(row, col)` order.
    #[inline]
    pub fn push(&mut self, row: Index, col: Index, value: f64) {
        let last = self.rows.last().map(|r| r.0);
        debug_assert!(
            last.zip(self.cols.last()) < Some((row, &col)),
            "entry out of order"
        );
        if last != Some(row) {
            self.rows.push((row, self.cols.len()));
        }
        self.cols.push(col);
        self.values.push(value);
    }

    /// The entries of group row `g`.
    fn span(&self, g: usize) -> std::ops::Range<usize> {
        let end = self.rows.get(g + 1).map_or(self.cols.len(), |r| r.1);
        self.rows[g].1..end
    }

    /// The row of group row `at`, or `None` past the last.
    #[inline]
    pub fn head(&self, at: usize) -> Option<Index> {
        self.rows.get(at).map(|r| r.0)
    }

    /// The entries of group row `at`.
    pub fn row_len(&self, at: usize) -> usize {
        self.span(at).len()
    }

    /// Hands the entries of group row `*at` to `f` as `(col, value)`, in
    /// column order, and steps `*at` past it.
    #[inline(always)]
    pub fn feed(&self, at: &mut usize, mut f: impl FnMut(Index, f64)) {
        let span = self.span(*at);
        for (&c, &v) in self.cols[span.clone()].iter().zip(&self.values[span]) {
            f(c, v);
        }
        *at += 1;
    }
}
