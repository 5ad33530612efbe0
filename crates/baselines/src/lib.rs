//! Baselines for the SpArch reproduction.
//!
//! The paper compares against five systems (§III-A):
//!
//! * **OuterSPACE** (Pal et al., HPCA'18) — the prior-state-of-the-art
//!   outer-product ASIC; modelled analytically in [`outerspace`] from its
//!   published dataflow and bandwidth utilization,
//! * **Intel MKL** (desktop CPU), **cuSPARSE** and **CUSP** (GPU), and
//!   **ARM Armadillo** (mobile CPU) — software libraries whose *algorithm
//!   classes* we implement in `sparch-sparse::algo` and time on the host
//!   in [`software`], with platform calibration constants documented in
//!   [`calibrate`].
//!
//! The substitution rationale (the operands' is in the
//! `sparch_bench::suite` module docs): speedup *shapes* across matrices
//! track the algorithms (hash tables degrade on power-law rows, ESC
//! sorting drowns in intermediate products, naive inner product
//! collapses); the calibration constant only scales the axis to the
//! paper's platform classes.

pub mod calibrate;
pub mod outerspace;
pub mod software;

pub use calibrate::Platform;
pub use outerspace::{OuterSpaceModel, OuterSpaceReport};
pub use software::{run_software, SoftwareResult};
