//! Typed serving requests and the batch container.
//!
//! A [`Batch`] is the unit of work a client hands to
//! [`SpgemmService`](crate::SpgemmService): a set of named operands (each
//! a deterministic generator [`Recipe`] or a Matrix Market file) plus a
//! list of [`Request`]s referencing them by name. Naming operands is what
//! makes the operand cache effective — a thousand requests over eight
//! operands pay for eight preparations.
//!
//! The JSON wire format is the externally-tagged serde layout:
//!
//! ```json
//! {
//!   "operands": [
//!     {"name": "g", "spec": {"Gen": {"recipe": {"Rmat": {"n": 64, "avg_degree": 4}}, "seed": 1}}}
//!   ],
//!   "requests": [
//!     {"Single": {"a": "g", "b": "g"}},
//!     {"Chain": {"operands": ["g", "g", "g"]}},
//!     {"Power": {"a": "g", "k": 3, "threshold": 0.0}},
//!     {"Masked": {"a": "g", "b": "g", "mask": "g"}}
//!   ]
//! }
//! ```

use crate::ServeError;
use serde::{Deserialize, Serialize};
use sparch_sparse::gen::Recipe;
use sparch_sparse::{mm, Csr};

/// Where an operand's matrix comes from.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum OperandSpec {
    /// A deterministic synthetic generator recipe.
    Gen {
        /// The generator recipe.
        recipe: Recipe,
        /// Generator seed.
        seed: u64,
    },
    /// A Matrix Market file on disk.
    Mtx {
        /// Path to the `.mtx` file.
        path: String,
    },
}

impl OperandSpec {
    /// Materializes the operand.
    ///
    /// # Errors
    ///
    /// Propagates I/O and parse failures for [`OperandSpec::Mtx`]
    /// operands; generator recipes cannot fail.
    pub fn build(&self) -> Result<Csr, ServeError> {
        match self {
            OperandSpec::Gen { recipe, seed } => Ok(recipe.build(*seed)),
            OperandSpec::Mtx { path } => mm::read_file(path)
                .map(|coo| coo.to_csr())
                .map_err(|e| ServeError::Operand(format!("reading {path}: {e}"))),
        }
    }
}

/// A named operand in a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperandDef {
    /// The name requests use to reference this operand.
    pub name: String,
    /// Where the matrix comes from.
    pub spec: OperandSpec,
}

/// One serving request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// `C = A * B`.
    Single {
        /// Left operand name.
        a: String,
        /// Right operand name.
        b: String,
    },
    /// Left-to-right chained multiply `C = M_0 * M_1 * … * M_n`
    /// (at least two operands).
    Chain {
        /// Operand names, in multiplication order.
        operands: Vec<String>,
    },
    /// Matrix power `C = A^k` with optional re-sparsification: after each
    /// multiply, entries with `|v| < threshold` are pruned (the MCL-style
    /// densification guard). `threshold = 0` keeps everything.
    Power {
        /// The (square) operand name.
        a: String,
        /// The exponent (≥ 1).
        k: u32,
        /// Re-sparsification threshold (0 disables pruning).
        threshold: f64,
    },
    /// Masked multiply `C = (A * B) ∘ M`: the product filtered and scaled
    /// by the mask's stored entries (the triangle-counting kernel).
    Masked {
        /// Left operand name.
        a: String,
        /// Right operand name.
        b: String,
        /// Mask operand name (shape `A.rows × B.cols`).
        mask: String,
    },
}

impl Request {
    /// The request kind as a short label for telemetry.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Single { .. } => "single",
            Request::Chain { .. } => "chain",
            Request::Power { .. } => "power",
            Request::Masked { .. } => "masked",
        }
    }

    /// Every operand name this request references, in access order.
    pub fn operand_names(&self) -> Vec<&str> {
        match self {
            Request::Single { a, b } => vec![a, b],
            Request::Chain { operands } => operands.iter().map(String::as_str).collect(),
            Request::Power { a, .. } => vec![a],
            Request::Masked { a, b, mask } => vec![a, b, mask],
        }
    }
}

/// A batch of requests over a shared operand set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Batch {
    /// The named operands.
    pub operands: Vec<OperandDef>,
    /// The requests, in submission order.
    pub requests: Vec<Request>,
}

impl Batch {
    /// Parses a batch from its JSON wire format.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Parse`] on malformed JSON or schema
    /// mismatches.
    pub fn from_json(text: &str) -> Result<Self, ServeError> {
        serde_json::from_str(text).map_err(|e| ServeError::Parse(e.to_string()))
    }

    /// Renders the batch as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("batches always serialize")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_batch() -> Batch {
        Batch {
            operands: vec![
                OperandDef {
                    name: "g".into(),
                    spec: OperandSpec::Gen {
                        recipe: Recipe::Rmat {
                            n: 64,
                            avg_degree: 4,
                        },
                        seed: 1,
                    },
                },
                OperandDef {
                    name: "u".into(),
                    spec: OperandSpec::Gen {
                        recipe: Recipe::Uniform {
                            rows: 64,
                            cols: 64,
                            nnz: 256,
                        },
                        seed: 2,
                    },
                },
            ],
            requests: vec![
                Request::Single {
                    a: "g".into(),
                    b: "u".into(),
                },
                Request::Chain {
                    operands: vec!["g".into(), "u".into(), "g".into()],
                },
                Request::Power {
                    a: "g".into(),
                    k: 3,
                    threshold: 1e-3,
                },
                Request::Masked {
                    a: "g".into(),
                    b: "g".into(),
                    mask: "u".into(),
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let batch = sample_batch();
        let back = Batch::from_json(&batch.to_json()).unwrap();
        assert_eq!(batch, back);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(Batch::from_json("{").is_err());
        assert!(Batch::from_json("{\"operands\": []}").is_err());
        assert!(Batch::from_json("{\"operands\": [], \"requests\": [{\"Warp\": {}}]}").is_err());
    }

    /// Hostile batches: each is refused with a typed error — at parse
    /// time or before anything executes — never a panic or an abort.
    #[test]
    fn hostile_requests_are_typed_errors() {
        use crate::{ServiceConfig, SpgemmService};
        let operands = r#"[
            {"name": "sq", "spec": {"Gen": {"recipe": {"Uniform": {"rows": 8, "cols": 8, "nnz": 20}}, "seed": 1}}},
            {"name": "wide", "spec": {"Gen": {"recipe": {"Uniform": {"rows": 4, "cols": 12, "nnz": 20}}, "seed": 2}}}
        ]"#;
        let batch =
            |requests: &str| format!(r#"{{"operands": {operands}, "requests": [{requests}]}}"#);
        let deep = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        type Expected = fn(&ServeError) -> bool;
        let table: [(&str, String, Expected); 6] = [
            (
                "deep nesting",
                batch(&deep),
                |e| matches!(e, ServeError::Parse(m) if m.contains("recursion limit")),
            ),
            ("unknown variant", batch(r#"{"Warp": {"a": "sq"}}"#), |e| {
                matches!(e, ServeError::Parse(_))
            }),
            (
                "unknown operand",
                batch(r#"{"Single": {"a": "sq", "b": "ghost"}}"#),
                |e| matches!(e, ServeError::Operand(m) if m.contains("ghost")),
            ),
            (
                "one-operand chain",
                batch(r#"{"Chain": {"operands": ["sq"]}}"#),
                |e| matches!(e, ServeError::Shape(_)),
            ),
            (
                "zeroth power",
                batch(r#"{"Power": {"a": "sq", "k": 0, "threshold": 0.0}}"#),
                |e| matches!(e, ServeError::Shape(m) if m.contains("k >= 1")),
            ),
            (
                "mismatched shapes",
                batch(r#"{"Single": {"a": "sq", "b": "wide"}}"#),
                |e| matches!(e, ServeError::Shape(_)),
            ),
        ];
        for (what, text, expected) in table {
            let outcome = Batch::from_json(&text).and_then(|batch| {
                SpgemmService::new(ServiceConfig {
                    threads: Some(1),
                    ..ServiceConfig::default()
                })
                .serve(&batch)
            });
            match outcome {
                Err(e) => assert!(expected(&e), "{what}: unexpected error {e:?}"),
                Ok(report) => panic!("{what}: served {} request(s)", report.total_requests),
            }
        }
    }

    #[test]
    fn operand_names_follow_access_order() {
        let batch = sample_batch();
        assert_eq!(batch.requests[0].operand_names(), vec!["g", "u"]);
        assert_eq!(batch.requests[1].operand_names(), vec!["g", "u", "g"]);
        assert_eq!(batch.requests[2].operand_names(), vec!["g"]);
        assert_eq!(batch.requests[3].operand_names(), vec!["g", "g", "u"]);
        assert_eq!(batch.requests[3].kind(), "masked");
    }

    #[test]
    fn gen_spec_builds_deterministically() {
        let spec = OperandSpec::Gen {
            recipe: Recipe::Uniform {
                rows: 32,
                cols: 32,
                nnz: 100,
            },
            seed: 7,
        };
        assert_eq!(spec.build().unwrap(), spec.build().unwrap());
    }

    #[test]
    fn missing_mtx_file_is_an_error() {
        let spec = OperandSpec::Mtx {
            path: "/nonexistent/sparch-test.mtx".into(),
        };
        assert!(matches!(spec.build(), Err(ServeError::Operand(_))));
    }
}
