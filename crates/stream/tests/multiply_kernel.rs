//! The panel multiply kernel's conformance contract.
//!
//! `gustavson_scratch` must be **bit-identical** to `gustavson_reference`
//! (the seed kernel, kept verbatim) on every input the shared `gen::arb`
//! grid can produce — small integers, explicit stored zeros, unit
//! patterns, continuous floats, rectangular shapes, empty rows and
//! columns — whether the scratch is cold or reused across jobs — and on
//! a grid of structured operands that puts each of the kernel's row
//! classes next to the others under one reused scratch. The streaming
//! pipeline that runs the kernel inside its merge rounds is checked at
//! every drawn thread and panel count by the differential oracle
//! (`tests/oracle.rs`).

use proptest::prelude::*;
use sparch_sparse::gen::arb::{self, ValueClass};
use sparch_sparse::{algo, Csr, CsrBuilder};

/// Structure equal and every value bit equal — stricter than `PartialEq`
/// on `f64` (which would let `-0.0` alias `0.0`).
fn assert_bit_identical(got: &Csr, want: &Csr, what: &str) {
    assert_eq!(got.rows(), want.rows(), "{what}: rows");
    assert_eq!(got.cols(), want.cols(), "{what}: cols");
    assert_eq!(got.row_ptr(), want.row_ptr(), "{what}: row_ptr");
    assert_eq!(got.col_indices(), want.col_indices(), "{what}: col_idx");
    let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(got), bits(want), "{what}: value bits");
}

/// Cold scratch, warm scratch and the caller-supplied live-row variant
/// all reproduce the reference bit for bit.
fn assert_kernels_agree(a: &Csr, b: &Csr, what: &str) {
    let reference = algo::gustavson_reference(a, b);
    assert_bit_identical(&algo::gustavson(a, b), &reference, what);
    let mut scratch = algo::MultiplyScratch::new();
    let cold = algo::gustavson_scratch(a, b, &mut scratch);
    assert_bit_identical(&cold, &reference, what);
    // The same scratch again — the warm path a pipeline worker lives on.
    let warm = algo::gustavson_scratch(a, b, &mut scratch);
    assert_bit_identical(&warm, &reference, what);
    let on_rows = algo::gustavson_scratch_on_rows(a, b, &a.occupied_rows(), &mut scratch);
    assert_bit_identical(&on_rows, &reference, what);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn small_int_pairs(pair in arb::spgemm_pair(24, 90, ValueClass::SmallInt)) {
        let (a, b) = pair;
        assert_kernels_agree(&a, &b, "small-int");
    }

    #[test]
    fn explicit_zero_pairs(pair in arb::spgemm_pair(20, 70, ValueClass::SmallIntWithZeros)) {
        // Stored zeros are entries like any other: the condensed row
        // index must keep rows whose only entries are explicit zeros.
        let (a, b) = pair;
        assert_kernels_agree(&a, &b, "explicit-zero");
    }

    #[test]
    fn unit_pattern_pairs(pair in arb::spgemm_pair(26, 100, ValueClass::Unit)) {
        let (a, b) = pair;
        assert_kernels_agree(&a, &b, "unit");
    }

    #[test]
    fn float_pairs(pair in arb::spgemm_pair(24, 90, ValueClass::Float)) {
        // Bit-identity for floats is exactly where accumulation order
        // shows: any reordering of the non-associative sums would fail.
        let (a, b) = pair;
        assert_kernels_agree(&a, &b, "float");
    }
}

/// The arb grid keeps shapes squarish; pin the edges explicitly — wide,
/// tall, 1×N and N×1 panels, fully empty operands, and a matrix whose
/// occupied rows are sparse (most rows empty, the condensed win case).
#[test]
fn rectangular_and_degenerate_shapes() {
    // 1×N times N×1 and back: single-row / single-column panels.
    let mut row = CsrBuilder::new(1, 6);
    for c in [0u32, 2, 5] {
        row.push(0, c, 1.5 + c as f64);
    }
    let row = row.finish();
    let mut col = CsrBuilder::new(6, 1);
    for r in [1u32, 2, 4] {
        col.push(r, 0, 0.25 * r as f64);
    }
    let col = col.finish();
    assert_kernels_agree(&row, &col, "1xN * Nx1");
    assert_kernels_agree(&col, &row, "Nx1 * 1xN");

    // Tall-thin times short-wide (the shape panel jobs actually have).
    let a = sparch_sparse::gen::uniform_random(80, 4, 60, 3);
    let b = sparch_sparse::gen::uniform_random(4, 50, 90, 4);
    assert_kernels_agree(&a, &b, "tall * wide");

    // Mostly-empty A: only a handful of rows occupied.
    let mut sparse_rows = CsrBuilder::new(64, 4);
    sparse_rows.push(3, 1, 2.0);
    sparse_rows.push(40, 0, -1.0);
    sparse_rows.push(40, 3, 4.0);
    sparse_rows.push(63, 2, 0.5);
    let sparse_rows = sparse_rows.finish();
    assert_kernels_agree(&sparse_rows, &b, "condensed rows");

    // Empty operands and empty-dimension shapes.
    assert_kernels_agree(&Csr::zero(5, 4), &Csr::zero(4, 3), "all empty");
    assert_kernels_agree(&Csr::zero(0, 4), &Csr::zero(4, 3), "zero rows");
    assert_kernels_agree(&Csr::zero(5, 0), &Csr::zero(0, 3), "zero inner");
}

/// Duplicate-coordinate COO input: canonicalization sums duplicates
/// (possibly to an explicit zero), and the kernels must agree on the
/// canonical matrix — including the summed-to-zero entry's sign bit.
#[test]
fn duplicate_coordinate_coo_inputs() {
    let a = sparch_sparse::Coo::from_entries(
        3,
        3,
        vec![
            (0, 1, 2.0),
            (0, 1, 3.0), // duplicate, sums to 5.0
            (1, 2, 1.0),
            (1, 2, -1.0), // duplicate, sums to +0.0 — stored, not pruned
            (2, 0, 4.0),
        ],
    )
    .to_csr();
    assert_eq!(a.nnz(), 3, "duplicates must canonicalize before SpGEMM");
    let b = sparch_sparse::gen::uniform_random(3, 5, 9, 11);
    assert_kernels_agree(&a, &b, "duplicate COO");
}

/// The kernel picks a path per `A` row — an ordered scan of the row's
/// output span when the span is no wider than the row's flop count, a
/// touched-column list and a sort otherwise — and per `B` row, adding a
/// long column-contiguous run as a slice. Structured operands put rows
/// of every kind side by side (bands with off-band outliers, blocks,
/// stencils, scattered wide rows; values of both signs and stored zeros
/// of both signs), and one scratch serves them all in turn, so a slot a
/// span row left behind would surface in a later list row and vice
/// versa. Run in `--release` too: the slice path only vectorises there.
#[test]
fn row_class_grid_through_one_scratch() {
    use sparch_sparse::gen;
    let dress = |m: Csr| {
        sparch_sparse::linalg::map_values(&m, |v| match (v * 64.0) as i64 % 7 {
            0 => 0.0,
            1 => -0.0,
            2 | 3 => -v,
            _ => v,
        })
    };
    let square = [
        ("band", dress(gen::banded(96, 10, 0, 1))),
        ("band+outliers", dress(gen::banded(96, 10, 40, 2))),
        ("blocks", dress(gen::block_sparse(96, 96, 8, 0.2, 3))),
        ("stencil", dress(gen::poisson3d(4, 4, 6))),
        ("scattered", dress(gen::uniform_random(96, 96, 300, 4))),
    ];
    let wide = dress(gen::uniform_random(96, 1500, 500, 5));
    let tall = dress(gen::uniform_random(1500, 96, 900, 6));
    let mut pairs: Vec<(String, &Csr, &Csr)> = Vec::new();
    for (an, a) in &square {
        for (bn, b) in &square {
            pairs.push((format!("{an} x {bn}"), a, b));
        }
        pairs.push((format!("{an} x wide"), a, &wide));
        pairs.push((format!("tall x {an}"), &tall, a));
    }
    pairs.push(("wide x tall".into(), &wide, &tall));

    let mut scratch = algo::MultiplyScratch::new();
    for (what, a, b) in pairs {
        let reference = algo::gustavson_reference(a, b);
        assert_bit_identical(&algo::gustavson(a, b), &reference, &what);
        let scratched = algo::gustavson_scratch(a, b, &mut scratch);
        assert_bit_identical(&scratched, &reference, &what);
        // A partial live list: listed rows whole, the rest empty.
        let live: Vec<u32> = a.occupied_rows().into_iter().step_by(3).collect();
        let partial = algo::gustavson_scratch_on_rows(a, b, &live, &mut scratch);
        for i in 0..a.rows() {
            if live.contains(&(i as u32)) {
                let bits = |m: &Csr| m.row(i).1.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(partial.row(i).0, reference.row(i).0, "{what}: row {i}");
                assert_eq!(bits(&partial), bits(&reference), "{what}: row {i}");
            } else {
                assert_eq!(partial.row_nnz(i), 0, "{what}: row {i} was not listed");
            }
        }
    }
}
