//! Acceptance tests for the serving layer.
//!
//! A 1000-request mixed batch (single / chained / masked / power over
//! 10 distinct operands) completes through `SpgemmService` with a
//! serializable report showing per-request backend choices and a
//! positive operand-cache hit rate, deterministic across worker counts
//! 1/2/8; under the adaptive policy its model-driven report equals the
//! `fixed:gustavson` one apart from the `policy` string. On a small
//! mixed batch, `auto_tune` re-plans streaming knobs per step without
//! changing a single output bit relative to the in-memory baseline, and
//! the mispredict rate is a well-formed fraction.

use sparch_serve::prelude::*;
use sparch_sparse::gen::Recipe;

fn operand(name: &str, recipe: Recipe, seed: u64) -> OperandDef {
    OperandDef {
        name: name.into(),
        spec: OperandSpec::Gen { recipe, seed },
    }
}

/// Ten distinct operands: eight square 64×64 with different structures
/// and seeds, plus two rectangular ones for the single-multiply mix.
fn operands() -> Vec<OperandDef> {
    vec![
        operand(
            "rmat_a",
            Recipe::Rmat {
                n: 64,
                avg_degree: 4,
            },
            11,
        ),
        operand(
            "rmat_b",
            Recipe::Rmat {
                n: 64,
                avg_degree: 6,
            },
            12,
        ),
        operand(
            "uni_a",
            Recipe::Uniform {
                rows: 64,
                cols: 64,
                nnz: 320,
            },
            13,
        ),
        operand(
            "uni_b",
            Recipe::Uniform {
                rows: 64,
                cols: 64,
                nnz: 512,
            },
            14,
        ),
        operand(
            "poisson",
            Recipe::Poisson3d {
                nx: 4,
                ny: 4,
                nz: 4,
            },
            15,
        ),
        operand(
            "banded",
            Recipe::Banded {
                n: 64,
                half_bandwidth: 2,
                extra_nnz: 64,
            },
            16,
        ),
        operand(
            "powerlaw",
            Recipe::PowerlawRows {
                n: 64,
                nnz: 400,
                alpha: 1.8,
            },
            17,
        ),
        operand(
            "blocks",
            Recipe::BlockSparse {
                rows: 64,
                cols: 64,
                block: 4,
                block_density: 0.2,
            },
            18,
        ),
        operand(
            "rect_l",
            Recipe::Uniform {
                rows: 48,
                cols: 64,
                nnz: 300,
            },
            19,
        ),
        operand(
            "rect_r",
            Recipe::Uniform {
                rows: 64,
                cols: 32,
                nnz: 250,
            },
            20,
        ),
    ]
}

/// 1000 requests cycling through all four kinds over the square
/// operands, with the rectangular pair mixed into the singles.
fn thousand_requests() -> Vec<Request> {
    let square = [
        "rmat_a", "rmat_b", "uni_a", "uni_b", "poisson", "banded", "powerlaw", "blocks",
    ];
    let sq = |i: usize| square[i % square.len()].to_string();
    (0..1000)
        .map(|i| match i % 4 {
            0 => {
                if i % 12 == 0 {
                    Request::Single {
                        a: "rect_l".into(),
                        b: sq(i),
                    }
                } else if i % 12 == 4 {
                    Request::Single {
                        a: sq(i),
                        b: "rect_r".into(),
                    }
                } else {
                    Request::Single {
                        a: sq(i),
                        b: sq(i + 1),
                    }
                }
            }
            1 => Request::Chain {
                operands: vec![sq(i), sq(i + 2), sq(i + 3)],
            },
            2 => Request::Power {
                a: sq(i),
                k: 2 + (i as u32 % 2),
                threshold: if i % 8 == 2 { 0.5 } else { 0.0 },
            },
            _ => Request::Masked {
                a: sq(i),
                b: sq(i + 1),
                mask: sq(i + 2),
            },
        })
        .collect()
}

fn batch() -> Batch {
    Batch {
        operands: operands(),
        requests: thousand_requests(),
    }
}

fn run(policy: DispatchPolicy, threads: usize) -> BatchReport {
    let mut service = SpgemmService::new(ServiceConfig {
        policy,
        threads: Some(threads),
        cache_capacity: 64,
        calibration: Some(Calibration::reference()),
        ..ServiceConfig::default()
    });
    service.serve(&batch()).expect("batch must serve")
}

#[test]
fn thousand_request_batch_is_deterministic_across_thread_counts() {
    let baseline = run(DispatchPolicy::Fixed(Backend::Gustavson), 1);
    assert_eq!(baseline.total_requests, 1000);
    assert_eq!(baseline.threads, 1);
    // Every request records its backend choice, and the operand cache
    // pays off: 10 misses for ~2250 references.
    assert!(baseline
        .requests
        .iter()
        .all(|r| r.steps == 0 || !r.backends.is_empty()));
    assert!(baseline.cache_hit_rate > 0.9, "{}", baseline.cache_hit_rate);
    assert_eq!(baseline.cache_misses, 10);

    // The report is serializable and round-trips.
    let json = serde_json::to_string(&baseline).unwrap();
    let back: BatchReport = serde_json::from_str(&json).unwrap();
    assert_eq!(baseline, back);

    // Model-driven content is bit-identical at 2 and 8 workers.
    let view = baseline.without_timing();
    for threads in [2, 8] {
        let mut other = run(DispatchPolicy::Fixed(Backend::Gustavson), threads);
        assert_eq!(other.threads, threads);
        other.threads = view.threads; // the only legitimately varying model field
        assert_eq!(
            other.without_timing(),
            view,
            "fixed-policy report diverged at {threads} threads"
        );
    }
}

#[test]
fn adaptive_report_equals_fixed_gustavson_apart_from_policy() {
    let mut adaptive = run(DispatchPolicy::Adaptive, 2).without_timing();
    assert_eq!(adaptive.total_requests, 1000);
    assert_eq!(adaptive.policy, "adaptive");
    let fixed = run(DispatchPolicy::Fixed(Backend::Gustavson), 2).without_timing();
    assert_eq!(fixed.policy, "fixed:gustavson");
    adaptive.policy.clone_from(&fixed.policy);
    assert_eq!(adaptive, fixed);
}

/// A small mixed batch: two operand structures, all four request kinds.
fn small_batch() -> Batch {
    Batch {
        operands: vec![
            operand(
                "g",
                Recipe::Rmat {
                    n: 64,
                    avg_degree: 4,
                },
                1,
            ),
            operand(
                "u",
                Recipe::Uniform {
                    rows: 64,
                    cols: 64,
                    nnz: 400,
                },
                2,
            ),
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
                threshold: 0.0,
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
fn auto_tuned_streaming_matches_the_in_memory_baseline() {
    // Budget of one byte: every step routes to streaming, and auto_tune
    // re-plans its knobs per task.
    let mut tuned = SpgemmService::new(ServiceConfig {
        policy: DispatchPolicy::Adaptive,
        threads: Some(2),
        calibration: Some(Calibration::reference()),
        memory_budget: Some(1),
        auto_tune: true,
        ..ServiceConfig::default()
    });
    let report = tuned.serve(&small_batch()).expect("auto-tuned batch");
    assert!(report.total_steps > 0);
    assert!(report
        .requests
        .iter()
        .flat_map(|r| &r.backends)
        .all(|b| b == "streaming"));

    let mut baseline = SpgemmService::new(ServiceConfig {
        policy: DispatchPolicy::Fixed(Backend::Gustavson),
        threads: Some(2),
        calibration: Some(Calibration::reference()),
        ..ServiceConfig::default()
    });
    let expected = baseline.serve(&small_batch()).expect("baseline batch");
    for (r, e) in report.requests.iter().zip(&expected.requests) {
        assert_eq!(r.output_nnz, e.output_nnz, "request {}", r.index);
        assert_eq!(r.output_rows, e.output_rows, "request {}", r.index);
        assert_eq!(r.output_cols, e.output_cols, "request {}", r.index);
    }

    // The planner is deterministic, so the model-driven view stays
    // bit-identical across worker counts even with auto_tune on.
    let view = report.without_timing();
    let mut other = SpgemmService::new(ServiceConfig {
        policy: DispatchPolicy::Adaptive,
        threads: Some(1),
        calibration: Some(Calibration::reference()),
        memory_budget: Some(1),
        auto_tune: true,
        ..ServiceConfig::default()
    });
    let mut single = other.serve(&small_batch()).expect("single-thread batch");
    single.threads = view.threads; // the only legitimately varying model field
    assert_eq!(single.without_timing(), view);
}

#[test]
fn mispredict_rate_is_a_well_formed_fraction() {
    let mut service = SpgemmService::new(ServiceConfig {
        policy: DispatchPolicy::Adaptive,
        threads: Some(2),
        calibration: Some(Calibration::reference()),
        ..ServiceConfig::default()
    });
    let report = service.serve(&small_batch()).expect("batch");
    let rate = report.mispredict_rate();
    assert!((0.0..=1.0).contains(&rate), "rate {rate}");
    // Every step carries a (model, actual) pair for the rate to rank.
    let steps: usize = report
        .requests
        .iter()
        .map(|r| r.step_model_seconds.len())
        .sum();
    assert_eq!(steps, report.total_steps);
    assert!(report
        .requests
        .iter()
        .all(|r| r.step_model_seconds.len() == r.step_actual_seconds.len()));

    // An empty batch scores 0 by definition.
    let empty = service
        .serve(&Batch {
            operands: vec![],
            requests: vec![],
        })
        .expect("empty batch");
    assert_eq!(empty.mispredict_rate(), 0.0);
}
