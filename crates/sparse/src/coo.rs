use crate::{Csr, Index, SparseError, Triple, Value};
use serde::{Deserialize, Serialize};

/// A sparse matrix in coordinate (COO) format: an explicit list of
/// `(row, col, value)` triples plus a shape.
///
/// COO is the interchange format of this workspace: generators emit it,
/// the Matrix Market parser produces it, and the hardware models exchange
/// partial matrices in (sorted) COO just like the paper's merge tree
/// ("The partial matrix is represented in COO format ... sorted by row
/// index then column index", §II-A).
///
/// Invariants are deliberately loose — entries may be unsorted and contain
/// duplicates — because that is how raw data arrives. Use
/// [`Coo::sort_dedup`] or conversion to [`Csr`] to canonicalize.
///
/// # Example
///
/// ```
/// use sparch_sparse::Coo;
///
/// let mut m = Coo::new(2, 2);
/// m.push(0, 1, 2.0);
/// m.push(1, 0, 3.0);
/// m.push(0, 1, 1.0); // duplicate coordinate: folded by sort_dedup
/// m.sort_dedup();
/// assert_eq!(m.nnz(), 2);
/// assert_eq!(m.entries()[0], (0, 1, 3.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Coo {
    rows: usize,
    cols: usize,
    entries: Vec<Triple>,
}

impl Coo {
    /// Creates an empty COO matrix with the given shape.
    pub fn new(rows: usize, cols: usize) -> Self {
        Coo {
            rows,
            cols,
            entries: Vec::new(),
        }
    }

    /// Creates a COO matrix from parts without validation.
    ///
    /// Prefer [`Coo::try_from_entries`] when the triples come from an
    /// untrusted source.
    pub fn from_entries(rows: usize, cols: usize, entries: Vec<Triple>) -> Self {
        Coo {
            rows,
            cols,
            entries,
        }
    }

    /// Creates a COO matrix from parts, validating that every index is in
    /// bounds.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::IndexOutOfBounds`] for the first offending
    /// entry.
    pub fn try_from_entries(
        rows: usize,
        cols: usize,
        entries: Vec<Triple>,
    ) -> Result<Self, SparseError> {
        for &(r, c, _) in &entries {
            if r as usize >= rows || c as usize >= cols {
                return Err(SparseError::IndexOutOfBounds {
                    row: r,
                    col: c,
                    rows,
                    cols,
                });
            }
        }
        Ok(Coo {
            rows,
            cols,
            entries,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries (may include duplicates until
    /// [`Coo::sort_dedup`] is called).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Borrow the raw triples.
    pub fn entries(&self) -> &[Triple] {
        &self.entries
    }

    /// Consumes the matrix and returns the raw triples.
    pub fn into_entries(self) -> Vec<Triple> {
        self.entries
    }

    /// Appends one entry. Panics in debug builds if out of bounds.
    pub fn push(&mut self, row: Index, col: Index, value: Value) {
        debug_assert!(
            (row as usize) < self.rows && (col as usize) < self.cols,
            "entry ({row}, {col}) outside {}x{}",
            self.rows,
            self.cols
        );
        self.entries.push((row, col, value));
    }

    /// Sorts entries by `(row, col)` and folds duplicate coordinates by
    /// summing their values. Entries whose folded value is exactly `0.0`
    /// are kept (explicit zeros are meaningful to the hardware models;
    /// use [`Coo::prune_zeros`] to drop them).
    /// Works in place: no second copy of the entry list is made.
    pub fn sort_dedup(&mut self) {
        self.entries.sort_unstable_by_key(|&(r, c, _)| (r, c));
        self.entries.dedup_by(|next, kept| {
            let same = (next.0, next.1) == (kept.0, kept.1);
            if same {
                kept.2 += next.2;
            }
            same
        });
    }

    /// Removes entries whose value is exactly zero.
    pub fn prune_zeros(&mut self) {
        self.entries.retain(|&(_, _, v)| v != 0.0);
    }

    /// Converts to CSR (sorts and folds duplicates in the process),
    /// leaving `self` untouched — which costs a copy of the entry list;
    /// use [`Coo::into_csr`] when the COO is not needed afterwards.
    pub fn to_csr(&self) -> Csr {
        self.clone().into_csr()
    }

    /// Converts to CSR, consuming the matrix: the entry list is sorted
    /// and folded in place, so an owned COO (a panel fresh from the
    /// reader, say) is never held twice.
    pub fn into_csr(mut self) -> Csr {
        self.sort_dedup();
        Csr::from_sorted_coo(&self)
    }

    /// Flattened key `row * cols + col`, the total order the merge hardware
    /// uses ("sorted by row index then column index").
    pub fn linear_key(&self, row: Index, col: Index) -> u64 {
        row as u64 * self.cols as u64 + col as u64
    }
}

impl FromIterator<Triple> for Coo {
    /// Builds a COO whose shape is the tight bounding box of the entries.
    fn from_iter<I: IntoIterator<Item = Triple>>(iter: I) -> Self {
        let entries: Vec<Triple> = iter.into_iter().collect();
        let rows = entries.iter().map(|e| e.0 as usize + 1).max().unwrap_or(0);
        let cols = entries.iter().map(|e| e.1 as usize + 1).max().unwrap_or(0);
        Coo {
            rows,
            cols,
            entries,
        }
    }
}

impl Extend<Triple> for Coo {
    fn extend<I: IntoIterator<Item = Triple>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let m = Coo::new(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.nnz(), 0);
        assert!(m.is_empty());
    }

    #[test]
    fn push_and_sort_dedup_folds_duplicates() {
        let mut m = Coo::new(4, 4);
        m.push(2, 1, 1.0);
        m.push(0, 3, 2.0);
        m.push(2, 1, 4.0);
        m.sort_dedup();
        assert_eq!(m.entries(), &[(0, 3, 2.0), (2, 1, 5.0)]);
    }

    #[test]
    fn sort_dedup_keeps_explicit_zero_and_prune_removes_it() {
        let mut m = Coo::new(2, 2);
        m.push(0, 0, 1.0);
        m.push(0, 0, -1.0);
        m.sort_dedup();
        assert_eq!(m.nnz(), 1);
        m.prune_zeros();
        assert_eq!(m.nnz(), 0);
    }

    #[test]
    fn into_csr_equals_to_csr() {
        let mut m = Coo::new(3, 3);
        m.extend(vec![(2, 0, 1.5), (0, 1, 2.0), (2, 0, -0.25), (0, 1, 0.125)]);
        let by_ref = m.to_csr();
        assert_eq!(by_ref.nnz(), 2);
        assert_eq!(m.into_csr(), by_ref);
    }

    #[test]
    fn try_from_entries_validates() {
        let err = Coo::try_from_entries(2, 2, vec![(2, 0, 1.0)]).unwrap_err();
        assert!(matches!(err, SparseError::IndexOutOfBounds { row: 2, .. }));
        let ok = Coo::try_from_entries(2, 2, vec![(1, 1, 1.0)]).unwrap();
        assert_eq!(ok.nnz(), 1);
    }

    #[test]
    fn from_iterator_infers_shape() {
        let m: Coo = vec![(0, 5, 1.0), (3, 2, 2.0)].into_iter().collect();
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 6);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn extend_appends() {
        let mut m = Coo::new(4, 4);
        m.extend(vec![(1, 1, 1.0), (2, 2, 2.0)]);
        assert_eq!(m.nnz(), 2);
    }

    #[test]
    fn linear_key_orders_row_major() {
        let m = Coo::new(10, 10);
        assert!(m.linear_key(0, 9) < m.linear_key(1, 0));
        assert!(m.linear_key(3, 4) < m.linear_key(3, 5));
    }

    #[test]
    fn serde_round_trip() {
        let mut m = Coo::new(2, 2);
        m.push(0, 1, 3.5);
        let json = serde_json::to_string(&m).unwrap();
        let back: Coo = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
