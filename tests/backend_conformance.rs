//! Differential conformance harness for the eight software SpGEMM
//! backends — the six in-memory kernels, the out-of-core streaming
//! pipeline, and the distributed shard fleet (which degrades to
//! streaming, bit-identically, when no worker binary is around).
//!
//! Every backend is run over a grid of generator classes — R-MAT,
//! structured (Poisson / banded / block-sparse / power-law), rectangular,
//! explicit stored zeros and duplicate-coordinate COO inputs — and each
//! result is checked against the dense reference (value-exact to 1e-9)
//! and against `gustavson` (structure-exact). Empty rows and columns,
//! the degenerate `1×N` / `N×1` / inner-dimension-1 shapes and a `1×1`
//! scalar product are the differential oracle's (`tests/oracle.rs`).
//! On failure the harness reports the first diverging `(backend, class,
//! seed)` triple, which is exactly the reproducer a fix needs.
//!
//! The streaming backend additionally gets a budget sweep
//! ([`streaming_backend_under_every_budget_regime`]): the grid's hard
//! classes re-run through explicit spill-everything / spill-some /
//! in-core configurations, since `Backend::Streaming` itself pins one
//! default configuration.
//!
//! This suite is the serving layer's safety net: `sparch-serve` may
//! route any request to any backend (`fixed:<backend>`, or the footprint
//! routes), so "all backends agree everywhere" is a correctness
//! precondition for dispatch. The adaptive `SpgemmService`, the
//! non-finite value classes and the fleet are checked by the
//! differential oracle (`tests/oracle.rs`).

use sparch::serve::Backend;
use sparch::sparse::gen::arb::{self, ValueClass};
use sparch::sparse::{algo, gen, Csr};

/// One grid point: a labeled, seeded operand pair.
struct GridPoint {
    class: &'static str,
    seed: u64,
    a: Csr,
    b: Csr,
}

fn point(class: &'static str, seed: u64, a: Csr, b: Csr) -> GridPoint {
    assert_eq!(
        a.cols(),
        b.rows(),
        "grid point {class}/{seed} built an incompatible pair"
    );
    GridPoint { class, seed, a, b }
}

/// Checks every backend on one grid point. Returns the first divergence
/// as `(backend, what)` instead of asserting, so the caller can attach
/// the class and seed.
fn check_point(p: &GridPoint) -> Result<(), (String, String)> {
    let oracle = p.a.to_dense().matmul(&p.b.to_dense());
    let reference = algo::gustavson(&p.a, &p.b);
    // Backend::ALL is the serving layer's dispatch universe: a backend
    // added there automatically inherits every grid class here.
    for backend in Backend::ALL {
        let name = backend.name();
        let c = backend.run(&p.a, &p.b);
        if (c.rows(), c.cols()) != (p.a.rows(), p.b.cols()) {
            return Err((
                name.into(),
                format!(
                    "output shape {}x{} != {}x{}",
                    c.rows(),
                    c.cols(),
                    p.a.rows(),
                    p.b.cols()
                ),
            ));
        }
        let diff = c.to_dense().max_abs_diff(&oracle);
        if diff >= 1e-9 {
            return Err((
                name.into(),
                format!("dense-reference mismatch, max abs diff {diff:e}"),
            ));
        }
        if !c.approx_eq(&reference, 1e-9) {
            return Err((
                name.into(),
                format!(
                    "structural divergence from gustavson ({} vs {} nnz)",
                    c.nnz(),
                    reference.nnz()
                ),
            ));
        }
    }
    Ok(())
}

fn run_grid(points: Vec<GridPoint>) {
    assert!(!points.is_empty());
    for p in &points {
        if let Err((backend, what)) = check_point(p) {
            panic!(
                "conformance failure: backend {backend:?} diverged on class \
                 {:?} seed {}: {what}\n  A: {}x{} ({} nnz), B: {}x{} ({} nnz)",
                p.class,
                p.seed,
                p.a.rows(),
                p.a.cols(),
                p.a.nnz(),
                p.b.rows(),
                p.b.cols(),
                p.b.nnz()
            );
        }
    }
}

#[test]
fn rmat_power_law_graphs() {
    let points = (0..4)
        .map(|seed| {
            point(
                "rmat",
                seed,
                gen::rmat_graph500(48, 4, seed),
                gen::rmat_graph500(48, 6, seed + 100),
            )
        })
        .collect();
    run_grid(points);
}

#[test]
fn structured_matrices() {
    let mut points = Vec::new();
    let mesh = gen::poisson3d(3, 3, 3); // order 27
    points.push(point("poisson^2", 0, mesh.clone(), mesh));
    for seed in 0..3 {
        points.push(point(
            "banded*banded",
            seed,
            gen::banded(40, 2, 30, seed),
            gen::banded(40, 3, 20, seed + 10),
        ));
        points.push(point(
            "blocks*powerlaw",
            seed,
            gen::block_sparse(32, 32, 4, 0.3, seed),
            gen::powerlaw_rows(32, 200, 1.8, seed + 20),
        ));
    }
    run_grid(points);
}

#[test]
fn rectangular_shapes() {
    let points = (0..6)
        .map(|seed| {
            let (r, k, c) = (
                [5usize, 40, 7][seed as usize % 3],
                24,
                [33usize, 3][seed as usize % 2],
            );
            point(
                "rectangular",
                seed,
                gen::uniform_random(r, k, (r * 3).min(r * k / 2).max(1), seed),
                gen::uniform_random(k, c, (k * 2).min(k * c / 2).max(1), seed + 40),
            )
        })
        .collect();
    run_grid(points);
}

#[test]
fn explicit_zeros_are_propagated_consistently() {
    // Stored zeros in the inputs (ValueClass::SmallIntWithZeros keeps
    // them) must neither crash a backend nor change the agreed structure.
    let pairs = arb::spgemm_pair(20, 70, ValueClass::SmallIntWithZeros);
    let points = (0..12)
        .map(|seed| {
            let (a, b) = arb::sample(&pairs, seed);
            point("explicit-zeros", seed, a, b)
        })
        .collect();
    run_grid(points);
}

#[test]
fn duplicate_coordinate_coo_inputs() {
    // COO inputs with duplicate coordinates: canonicalization folds them
    // (possibly cancelling to explicit zero) before the multiply; every
    // backend must agree on the folded operand.
    let points = (0..8)
        .map(|seed| {
            let base_a = gen::uniform_random(18, 14, 60, seed);
            let base_b = gen::uniform_random(14, 16, 50, seed + 30);
            let mut a = base_a.to_coo();
            let mut b = base_b.to_coo();
            // Push every third entry again (doubling it) and an exact
            // cancellation for every fifth.
            for (i, e) in base_a.iter().enumerate() {
                if i % 3 == 0 {
                    a.push(e.0, e.1, e.2);
                }
                if i % 5 == 0 {
                    a.push(e.0, e.1, -2.0 * e.2); // folds to -e.2... then +e.2 may cancel
                }
            }
            for (i, e) in base_b.iter().enumerate() {
                if i % 4 == 0 {
                    b.push(e.0, e.1, -e.2); // cancels to an explicit stored zero
                }
            }
            point("dup-coo", seed, a.to_csr(), b.to_csr())
        })
        .collect();
    run_grid(points);
}

/// The streaming pipeline across budget regimes on the grid's hard
/// classes: explicit stored zeros, duplicate-coordinate folds and
/// power-law structure, at budgets forcing everything / some / nothing
/// to spill and several panel counts. Structure must match `gustavson`
/// exactly; values to 1e-9 (the panel split regroups float summation).
#[test]
fn streaming_backend_under_every_budget_regime() {
    use sparch::stream::{MemoryBudget, StreamConfig, StreamingExecutor};
    let zero_pairs = arb::spgemm_pair(20, 70, ValueClass::SmallIntWithZeros);
    let mut points = vec![
        point(
            "rmat",
            0,
            gen::rmat_graph500(48, 4, 0),
            gen::rmat_graph500(48, 6, 100),
        ),
        point(
            "rect",
            1,
            gen::uniform_random(9, 24, 60, 1),
            gen::uniform_random(24, 33, 70, 2),
        ),
        point(
            "scalar",
            2,
            gen::uniform_random(1, 1, 1, 1),
            gen::uniform_random(1, 1, 1, 2),
        ),
    ];
    for seed in 0..4 {
        let (a, b) = arb::sample(&zero_pairs, seed);
        points.push(point("explicit-zeros", seed, a, b));
    }
    for p in &points {
        let reference = algo::gustavson(&p.a, &p.b);
        for budget in [0u64, 4 << 10, u64::MAX] {
            for panels in [1usize, 3, 7] {
                let exec = StreamingExecutor::new(StreamConfig {
                    budget: MemoryBudget::from_bytes(budget),
                    panels,
                    merge_ways: 3,
                    threads: Some(2),
                    ..StreamConfig::default()
                });
                let (c, report) = exec.multiply(&p.a, &p.b).expect("streaming multiply");
                assert!(
                    c.approx_eq(&reference, 1e-9),
                    "streaming diverged on class {:?} seed {} at budget {budget}, \
                     panels {panels} ({} vs {} nnz)",
                    p.class,
                    p.seed,
                    c.nnz(),
                    reference.nnz()
                );
                assert!(
                    report.peak_live_bytes <= budget,
                    "class {:?}: peak {} over budget {budget}",
                    p.class,
                    report.peak_live_bytes
                );
            }
        }
    }
}

/// The full grid in one sweep, so a future eighth backend only needs to
/// be added to `sparch::serve::Backend` to inherit every class.
#[test]
fn arb_randomized_sweep() {
    let float_pairs = arb::spgemm_pair(24, 90, ValueClass::Float);
    let int_pairs = arb::spgemm_pair(24, 90, ValueClass::SmallInt);
    let unit_pairs = arb::spgemm_pair(24, 90, ValueClass::Unit);
    let mut points = Vec::new();
    for seed in 0..16 {
        let (a, b) = arb::sample(&float_pairs, seed);
        points.push(point("arb-float", seed, a, b));
        let (a, b) = arb::sample(&int_pairs, seed);
        points.push(point("arb-int", seed, a, b));
        let (a, b) = arb::sample(&unit_pairs, seed);
        points.push(point("arb-unit", seed, a, b));
    }
    run_grid(points);
}
