//! Sparse-matrix substrate for the SpArch reproduction.
//!
//! SpArch (HPCA 2020) is an accelerator for generalized sparse matrix–matrix
//! multiplication (SpGEMM). This crate provides everything the accelerator
//! model and its baselines need from the "software world":
//!
//! * storage formats — [`Coo`], [`Csr`], [`Csc`] and a [`Dense`] oracle,
//! * a Matrix Market reader/writer ([`mm`]) for SuiteSparse interchange,
//! * deterministic workload generators ([`gen`]) — R-MAT power-law graphs,
//!   Erdős–Rényi, banded, 3-D Poisson stencils, block-sparse DNN layers,
//! * reference software SpGEMM algorithms ([`algo`]) — Gustavson row-wise,
//!   hash-based, heap-based, sort-merge (ESC), inner- and outer-product,
//! * element-wise kernels used by the example applications ([`linalg`]),
//! * structural statistics ([`stats`]) — the quantities SpArch's performance
//!   depends on (nnz/row distribution, condensed-column count, flop counts).
//!
//! # Quick example
//!
//! ```
//! use sparch_sparse::{gen, algo};
//!
//! let a = gen::uniform_random(100, 100, 500, 7);
//! let b = gen::uniform_random(100, 100, 500, 8);
//! let c = algo::gustavson(&a, &b);
//! assert_eq!(c.rows(), 100);
//! assert_eq!(c.cols(), 100);
//! ```

pub mod algo;
mod coo;
mod csc;
mod csr;
mod dense;
mod error;
pub mod gen;
pub mod linalg;
pub mod mm;
mod staging;
pub mod stats;

pub use coo::Coo;
pub use csc::Csc;
pub use csr::{panel_ranges, panel_ranges_by_nnz, Csr, CsrBuilder};
pub use dense::Dense;
pub use error::SparseError;

/// Row/column index type used across the workspace.
///
/// The paper's hardware uses 32-bit row and 32-bit column indices
/// (Table I: "64-bit index (32 bits for row and 32 bits for column)").
pub type Index = u32;

/// Value type. All evaluation in the paper uses IEEE double precision.
pub type Value = f64;

/// One non-zero element in coordinate form: `(row, col, value)`.
pub type Triple = (Index, Index, Value);
