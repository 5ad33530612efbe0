//! The SpArch paper's evaluation (§III), reproduced by one sweep.
//!
//! `cargo run --release -p sparch-bench` runs [`sweep::run`] over the
//! 20-benchmark suite and prints every figure and table from the one
//! record it returns. The pieces:
//!
//! * [`suite`] — the 20-benchmark catalog (SuiteSparse/SNAP surrogates)
//!   and why synthetic surrogates stand in for the originals,
//! * [`sweep`] — builds each operand once and runs each distinct
//!   `(operand, SpArchConfig)` pair once into one [`Sweep`] record,
//! * [`figures`] — one renderer per figure or table of the paper, a pure
//!   function from the record to the tables it prints,
//! * [`runner`] — the command line, geometric means, table printing and
//!   the JSON dump.
//!
//! The driver honors `--threads N` (or the `SPARCH_THREADS` environment
//! variable), and every model-driven number is bit-identical at any
//! thread count. The software-baseline columns of Figures 11, 12 and 14
//! wall-clock the host, so they are measurement-noisy, and contended on
//! several threads; prefer `--threads 1` when those columns matter.
//!
//! The criterion micro-benches under `benches/` time the merger, the
//! schedulers, the prefetcher and the pipeline.

pub mod figures;
pub mod runner;
pub mod suite;
pub mod sweep;

pub use runner::{geomean, parse_args, parse_args_from, print_table, Args, ArgsOutcome, USAGE};
pub use suite::{catalog, MatrixClass, SuiteEntry};
pub use sweep::Sweep;
