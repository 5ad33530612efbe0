//! Deterministic synthetic matrix generators.
//!
//! The paper evaluates on 20 SuiteSparse/SNAP matrices plus synthesized
//! R-MAT graphs. We cannot ship the proprietary collections, so the
//! benchmark suite substitutes structure-matched synthetic matrices (see
//! the `sparch_bench::suite` module docs): R-MAT for power-law graphs,
//! stencils for FEM/PDE matrices, banded-plus-random for circuit-like
//! matrices. All generators take an explicit `seed` and are fully
//! deterministic.

#[cfg(any(test, feature = "arb"))]
pub mod arb;
mod rmat;
mod structured;

pub use rmat::{rmat, rmat_graph500, RmatConfig};
pub use structured::{
    banded, block_sparse, diagonal_noise, kron, poisson3d, powerlaw_rows, uniform_random,
};

use crate::Csr;

/// Named generator recipe, serializable so benchmark suites can describe
/// their workloads declaratively.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum Recipe {
    /// Erdős–Rényi uniform random: `rows x cols` with `nnz` non-zeros.
    Uniform {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Target number of non-zeros.
        nnz: usize,
    },
    /// R-MAT power-law graph adjacency matrix: `n x n`, about
    /// `n * avg_degree` edges.
    Rmat {
        /// Number of vertices (matrix order).
        n: usize,
        /// Average out-degree (nnz per row).
        avg_degree: usize,
    },
    /// 7-point Poisson stencil on an `nx x ny x nz` grid
    /// (order = `nx*ny*nz`).
    Poisson3d {
        /// Grid points per dimension.
        nx: usize,
        /// Grid points per dimension.
        ny: usize,
        /// Grid points per dimension.
        nz: usize,
    },
    /// Banded matrix with additional random fill (circuit-like).
    Banded {
        /// Matrix order.
        n: usize,
        /// Half bandwidth (entries per side of the diagonal).
        half_bandwidth: usize,
        /// Extra uniformly random non-zeros sprinkled outside the band.
        extra_nnz: usize,
    },
    /// Rows with power-law lengths (web-crawl-like).
    PowerlawRows {
        /// Matrix order.
        n: usize,
        /// Target total nnz.
        nnz: usize,
        /// Power-law exponent (larger = more skewed).
        alpha: f64,
    },
    /// Block-sparse matrix (pruned-DNN-weight-like).
    BlockSparse {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
        /// Edge length of the square blocks.
        block: usize,
        /// Fraction of blocks that are populated, in `(0, 1]`.
        block_density: f64,
    },
}

impl Recipe {
    /// Materializes the recipe with the given seed.
    pub fn build(&self, seed: u64) -> Csr {
        match *self {
            Recipe::Uniform { rows, cols, nnz } => uniform_random(rows, cols, nnz, seed),
            Recipe::Rmat { n, avg_degree } => rmat_graph500(n, avg_degree, seed),
            Recipe::Poisson3d { nx, ny, nz } => poisson3d(nx, ny, nz),
            Recipe::Banded {
                n,
                half_bandwidth,
                extra_nnz,
            } => banded(n, half_bandwidth, extra_nnz, seed),
            Recipe::PowerlawRows { n, nnz, alpha } => powerlaw_rows(n, nnz, alpha, seed),
            Recipe::BlockSparse {
                rows,
                cols,
                block,
                block_density,
            } => block_sparse(rows, cols, block, block_density, seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recipes_build_deterministically() {
        let recipes = [
            Recipe::Uniform {
                rows: 50,
                cols: 40,
                nnz: 200,
            },
            Recipe::Rmat {
                n: 64,
                avg_degree: 4,
            },
            Recipe::Poisson3d {
                nx: 4,
                ny: 4,
                nz: 4,
            },
            Recipe::Banded {
                n: 50,
                half_bandwidth: 2,
                extra_nnz: 20,
            },
            Recipe::PowerlawRows {
                n: 60,
                nnz: 300,
                alpha: 1.8,
            },
            Recipe::BlockSparse {
                rows: 32,
                cols: 32,
                block: 4,
                block_density: 0.25,
            },
        ];
        for recipe in &recipes {
            let a = recipe.build(42);
            let b = recipe.build(42);
            assert_eq!(a, b, "{recipe:?} not deterministic");
            assert!(a.nnz() > 0, "{recipe:?} generated an empty matrix");
        }
    }

    #[test]
    fn recipe_serde_round_trip() {
        let r = Recipe::Rmat {
            n: 128,
            avg_degree: 8,
        };
        let json = serde_json::to_string(&r).unwrap();
        let back: Recipe = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }
}
