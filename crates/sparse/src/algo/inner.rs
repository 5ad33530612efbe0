//! Inner-product SpGEMM — the "vanilla" dataflow of Figure 1(top):
//! every output cell `c_ij` is the dot product of row `i` of `A` with
//! column `j` of `B`.
//!
//! Its defect, which the paper's intro leads with, is *poor input reuse*:
//! the operands are re-fetched for every candidate `(i, j)` pair and most
//! index comparisons find no matching nonzero pair ("redundant input
//! fetches for mismatched nonzero operands"). [`inner_product_stats`]
//! exposes the mismatch ratio so benchmarks can quantify the redundancy.

use crate::{Csc, Csr, CsrBuilder, Index};

/// Multiplies `a * b` with the inner-product dataflow (`B` is internally
/// converted to CSC so its columns are addressable).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn inner_product(a: &Csr, b: &Csr) -> Csr {
    inner_product_impl(a, b).0
}

/// Statistics from an inner-product run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InnerStats {
    /// Index comparisons performed by the merge-style dot products.
    pub comparisons: u64,
    /// Comparisons that matched and produced a multiply.
    pub matches: u64,
    /// Candidate `(i, j)` pairs examined (non-empty row × non-empty col).
    pub pairs: u64,
}

/// Runs [`inner_product`] and also returns its access statistics.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn inner_product_stats(a: &Csr, b: &Csr) -> (Csr, InnerStats) {
    inner_product_impl(a, b)
}

fn inner_product_impl(a: &Csr, b: &Csr) -> (Csr, InnerStats) {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let bt = Csc::from_csr(b);
    let mut out = CsrBuilder::new(a.rows(), b.cols());
    let mut stats = InnerStats::default();
    let nonempty_cols: Vec<usize> = (0..b.cols()).filter(|&c| bt.col_nnz(c) > 0).collect();
    for i in 0..a.rows() {
        let (ka, va) = a.row(i);
        if ka.is_empty() {
            continue;
        }
        for &j in &nonempty_cols {
            stats.pairs += 1;
            let (kb, vb) = bt.col(j);
            // Two-pointer merge over the sorted index lists.
            let (mut p, mut q) = (0usize, 0usize);
            // `-0.0` is the additive identity (see `algo::spa`): an
            // output whose every product is `-0.0` keeps its sign.
            let mut acc = -0.0f64;
            let mut hit = false;
            while p < ka.len() && q < kb.len() {
                stats.comparisons += 1;
                match ka[p].cmp(&kb[q]) {
                    std::cmp::Ordering::Less => p += 1,
                    std::cmp::Ordering::Greater => q += 1,
                    std::cmp::Ordering::Equal => {
                        stats.matches += 1;
                        acc += va[p] * vb[q];
                        hit = true;
                        p += 1;
                        q += 1;
                    }
                }
            }
            if hit {
                out.push(i as Index, j as Index, acc);
            }
        }
    }
    (out.finish(), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{algo::gustavson, gen, Dense};

    #[test]
    fn matches_gustavson_on_random() {
        let pairs = gen::arb::spgemm_pair(18, 60, gen::arb::ValueClass::Float);
        for seed in 0..4 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            assert!(
                inner_product(&a, &b).approx_eq(&gustavson(&a, &b), 1e-9),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn known_dot_products() {
        let a = Dense::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 0.0, 3.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 0.0], &[1.0, 0.0], &[0.0, 1.0]]).to_csr();
        let c = inner_product(&a, &b);
        assert_eq!(c.to_dense(), Dense::from_rows(&[&[3.0, 0.0], &[0.0, 3.0]]));
    }

    #[test]
    fn mismatch_ratio_reflects_poor_reuse() {
        // Disjoint index structure: lots of comparisons, zero matches.
        let mut ab = crate::CsrBuilder::new(1, 8);
        for k in [0u32, 2, 4, 6] {
            ab.push(0, k, 1.0);
        }
        let a = ab.finish();
        let mut bb = crate::CsrBuilder::new(8, 1);
        for k in [1u32, 3, 5, 7] {
            bb.push(k, 0, 1.0);
        }
        let b = bb.finish();
        let (c, stats) = inner_product_stats(&a, &b);
        assert_eq!(c.nnz(), 0);
        assert_eq!(stats.matches, 0);
        assert!(stats.comparisons >= 4, "work was done despite empty output");
    }
}
