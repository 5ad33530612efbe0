//! Request-serving layer for the SpArch reproduction.
//!
//! A [`SpgemmService`] accepts batches of typed requests (single,
//! chained and masked multiplies, matrix powers with re-sparsification);
//! an [`AdaptiveDispatcher`] measures each multiply step's
//! [`TaskFeatures`], sends steps whose footprint exceeds the configured
//! thresholds to the streaming pipeline or the shard fleet and runs
//! everything else on Gustavson (the other five `sparch_sparse::algo`
//! kernels stay reachable as `fixed:<backend>` baselines), prices the
//! step with the work model × [`Calibration`] for the report; and an
//! [`OperandCache`] keyed by [`Csr::fingerprint`](sparch_sparse::Csr::fingerprint)
//! reuses each operand's CSC/statistics conversions across requests — the
//! paper's condensed-MatA idea lifted to the serving layer.
//!
//! Requests fan out through `sparch_exec::ShardPool::scoped_map`; every
//! model-driven number in the resulting [`BatchReport`] (backend choices,
//! model costs, output shapes, cache telemetry) is bit-identical at any
//! worker count.
//!
//! # Example
//!
//! ```
//! use sparch_serve::prelude::*;
//! use sparch_sparse::gen::Recipe;
//!
//! let batch = Batch {
//!     operands: vec![OperandDef {
//!         name: "g".into(),
//!         spec: OperandSpec::Gen {
//!             recipe: Recipe::Rmat { n: 64, avg_degree: 4 },
//!             seed: 42,
//!         },
//!     }],
//!     requests: vec![
//!         Request::Single { a: "g".into(), b: "g".into() },
//!         Request::Masked { a: "g".into(), b: "g".into(), mask: "g".into() },
//!     ],
//! };
//! let mut service = SpgemmService::new(ServiceConfig {
//!     policy: DispatchPolicy::Adaptive,
//!     calibration: Some(Calibration::reference()),
//!     threads: Some(2),
//!     ..ServiceConfig::default()
//! });
//! let report = service.serve(&batch).unwrap();
//! assert_eq!(report.total_requests, 2);
//! println!("{}", serde_json::to_string_pretty(&report).unwrap());
//! ```

mod backend;
pub mod cache;
pub mod dispatch;
pub mod request;
pub mod service;

pub use backend::Backend;
pub use cache::{OperandCache, PreparedOperand};
pub use dispatch::{model_cost, AdaptiveDispatcher, Calibration, DispatchPolicy, TaskFeatures};
pub use request::{Batch, OperandDef, OperandSpec, Request};
pub use service::{BackendSteps, BatchReport, RequestReport, ServiceConfig, SpgemmService};

use std::fmt;

/// Errors from batch parsing, operand resolution, or shape validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The batch JSON could not be parsed.
    Parse(String),
    /// An operand failed to build or resolve (unknown name, duplicate
    /// name, unreadable file).
    Operand(String),
    /// Request shapes are incompatible.
    Shape(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Parse(msg) => write!(f, "batch parse error: {msg}"),
            ServeError::Operand(msg) => write!(f, "operand error: {msg}"),
            ServeError::Shape(msg) => write!(f, "shape error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Everything a serving client usually imports.
pub mod prelude {
    pub use crate::request::{Batch, OperandDef, OperandSpec, Request};
    pub use crate::{
        AdaptiveDispatcher, Backend, BatchReport, Calibration, DispatchPolicy, OperandCache,
        ServeError, ServiceConfig, SpgemmService, TaskFeatures,
    };
}
