//! Software SpGEMM reference algorithms.
//!
//! The paper compares SpArch against four software platforms, each of which
//! is characterized by its *insertion method* into the output matrix
//! (§IV, "Related Work"):
//!
//! * Intel MKL — Gustavson's row-wise algorithm → [`gustavson`],
//! * cuSPARSE — row-parallel with a **hash table** → [`hash_spgemm`],
//! * CUSP — expansion/**sorting**/compression (ESC) → [`sort_merge`],
//! * HeapSpGEMM — row-wise k-way merge with a **heap** → [`heap_spgemm`],
//!
//! plus the two textbook dataflows whose data-reuse trade-off motivates the
//! whole paper:
//!
//! * [`inner_product`] — perfect output reuse, poor input reuse,
//! * [`outer_product`] — perfect input reuse, poor output reuse (the
//!   OuterSPACE dataflow; SpArch's starting point).
//!
//! All functions compute `C = A * B`, require `a.cols() == b.rows()`, and
//! produce identical results up to floating-point summation order. The
//! [`multiply_flops`] helper counts the scalar multiplications any of them
//! performs, which is the paper's FLOP definition (`2*mults` counting adds).

mod fold;
mod gustavson;
mod hash;
mod heap;
mod inner;
mod outer;
mod row_group;
mod sort_merge;
mod spa;

pub use fold::{fold_rows, FoldScratch, RowSources};
pub use gustavson::{
    gustavson, gustavson_reference, gustavson_scratch, gustavson_scratch_on_rows, output_nnz_bound,
    MultiplyScratch, RowProduct,
};
pub use hash::hash_spgemm;
pub use heap::heap_spgemm;
pub use inner::{inner_product, inner_product_stats, InnerStats};
pub use outer::{outer_product, outer_product_partials};
pub use row_group::RowGroup;
pub use sort_merge::{expansion_size, sort_merge};
pub use spa::SHORT_ROW;

use crate::Csr;

/// Number of scalar multiplications in `A * B` (the paper's `M`).
///
/// Each nonzero `a_ik` multiplies every nonzero of row `k` of `B`, so
/// `M = Σ_{(i,k) ∈ A} nnz(B_k)`.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn multiply_flops(a: &Csr, b: &Csr) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut flops = 0u64;
    for r in 0..a.rows() {
        let (cols, _) = a.row(r);
        for &k in cols {
            flops += b.row_nnz(k as usize) as u64;
        }
    }
    flops
}

/// Number of non-zeros in the product `A * B` (symbolic phase only).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn product_nnz(a: &Csr, b: &Csr) -> u64 {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut marker = vec![usize::MAX; b.cols()];
    let mut total = 0u64;
    for i in 0..a.rows() {
        let (ka, _) = a.row(i);
        for &k in ka {
            let (jb, _) = b.row(k as usize);
            for &j in jb {
                if marker[j as usize] != i {
                    marker[j as usize] = i;
                    total += 1;
                }
            }
        }
    }
    total
}

/// Compression factor of the task: multiplications per output non-zero.
/// The paper's datasets average "0.5M final results" per `M`
/// multiplications, i.e. a factor near 2.
pub fn compression_factor(a: &Csr, b: &Csr) -> f64 {
    let flops = multiply_flops(a, b);
    let nnz = product_nnz(a, b);
    if nnz == 0 {
        0.0
    } else {
        flops as f64 / nnz as f64
    }
}

/// Shared differential harness for the per-row-accumulator kernels
/// ([`hash_spgemm`], [`heap_spgemm`], …): every kernel is pinned against
/// [`gustavson`] on the same deterministic `gen::arb` sample grid instead
/// of each test re-rolling its own copy of the loop.
#[cfg(test)]
pub(crate) mod test_support {
    use super::gustavson;
    use crate::{gen, Csr};

    pub(crate) fn assert_matches_gustavson(
        kernel: fn(&Csr, &Csr) -> Csr,
        max_dim: usize,
        max_nnz: usize,
        seeds: u64,
    ) {
        let pairs = gen::arb::spgemm_pair(max_dim, max_nnz, gen::arb::ValueClass::Float);
        for seed in 0..seeds {
            let (a, b) = gen::arb::sample(&pairs, seed);
            assert!(
                kernel(&a, &b).approx_eq(&gustavson(&a, &b), 1e-9),
                "kernel disagrees with gustavson on seed {seed}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// All algorithms agree with the dense oracle and each other.
    #[test]
    fn all_algorithms_agree_with_oracle() {
        let a = gen::uniform_random(24, 30, 120, 10);
        let b = gen::uniform_random(30, 18, 110, 11);
        let oracle = a.to_dense().matmul(&b.to_dense());
        let algos: Vec<(&str, Csr)> = vec![
            ("gustavson", gustavson(&a, &b)),
            ("hash", hash_spgemm(&a, &b)),
            ("heap", heap_spgemm(&a, &b)),
            ("sort_merge", sort_merge(&a, &b)),
            ("inner", inner_product(&a, &b)),
            ("outer", outer_product(&a, &b)),
        ];
        for (name, c) in &algos {
            assert_eq!(c.rows(), 24, "{name}");
            assert_eq!(c.cols(), 18, "{name}");
            assert!(
                c.to_dense().max_abs_diff(&oracle) < 1e-9,
                "{name} disagrees with the dense oracle"
            );
        }
        for w in algos.windows(2) {
            assert!(
                w[0].1.approx_eq(&w[1].1, 1e-9),
                "{} and {} disagree structurally",
                w[0].0,
                w[1].0
            );
        }
    }

    #[test]
    fn empty_operands() {
        let a = Csr::zero(5, 4);
        let b = Csr::zero(4, 3);
        for c in [
            gustavson(&a, &b),
            hash_spgemm(&a, &b),
            heap_spgemm(&a, &b),
            sort_merge(&a, &b),
            inner_product(&a, &b),
            outer_product(&a, &b),
        ] {
            assert_eq!(c.nnz(), 0);
            assert_eq!((c.rows(), c.cols()), (5, 3));
        }
    }

    #[test]
    fn identity_is_neutral() {
        let a = gen::uniform_random(20, 20, 60, 3);
        let i = Csr::identity(20);
        assert!(gustavson(&a, &i).approx_eq(&a, 1e-12));
        assert!(gustavson(&i, &a).approx_eq(&a, 1e-12));
    }

    #[test]
    fn flop_count_matches_definition() {
        // A = [[1,1],[0,1]], B = [[1,0],[1,1]]
        let a = crate::Dense::from_rows(&[&[1.0, 1.0], &[0.0, 1.0]]).to_csr();
        let b = crate::Dense::from_rows(&[&[1.0, 0.0], &[1.0, 1.0]]).to_csr();
        // a(0,0)*row0(1) + a(0,1)*row1(2) + a(1,1)*row1(2) = 5
        assert_eq!(multiply_flops(&a, &b), 5);
        assert_eq!(product_nnz(&a, &b), 4);
        assert!((compression_factor(&a, &b) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn product_nnz_matches_actual() {
        let a = gen::rmat_graph500(128, 4, 21);
        let b = gen::rmat_graph500(128, 4, 22);
        let c = gustavson(&a, &b);
        assert_eq!(product_nnz(&a, &b), c.nnz() as u64);
    }
}
