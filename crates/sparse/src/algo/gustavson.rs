//! Gustavson's row-wise SpGEMM (the algorithm behind Intel MKL's
//! `mkl_sparse_spmm`, used as the paper's CPU baseline).
//!
//! For each row `i` of `A`, accumulate `Σ_k a_ik * B[k, :]` into a sparse
//! accumulator (SPA): a dense value array plus an occupancy list, giving
//! O(flops) time with good constant factors on CPUs.
//!
//! Three entry points share the same accumulation order (and therefore
//! produce bit-identical results):
//!
//! * [`gustavson`] — the plain one-shot kernel; allocates its SPA per call
//!   and pre-sizes the output from the per-row flop bound.
//! * [`gustavson_scratch`] / [`gustavson_scratch_on_rows`] — the *panel
//!   kernel*: reuses a caller-owned [`MultiplyScratch`] across calls (zero
//!   per-job SPA allocations after warm-up) and visits only occupied rows,
//!   the condensed-matrix idea from the paper's §II-B applied to narrow
//!   column panels where most rows are empty.
//! * [`gustavson_reference`] — the seed kernel, kept verbatim as the
//!   differential oracle and bench baseline.

use crate::{Csr, CsrBuilder, Index};

/// Upper bound on `nnz(A * B)` restricted to the given `A` rows: per row,
/// the flop count `Σ_k nnz(B_k)` capped at `b.cols()` (a row can't produce
/// more entries than there are columns). One O(rows-nnz) pass, no
/// allocation — cheap enough to run before every multiply to pre-size the
/// output builder exactly once.
fn output_bound_on_rows(a: &Csr, b: &Csr, rows: impl Iterator<Item = usize>) -> usize {
    let mut bound = 0usize;
    for i in rows {
        let (ka, _) = a.row(i);
        let row_flops: usize = ka.iter().map(|&k| b.row_nnz(k as usize)).sum();
        bound += row_flops.min(b.cols());
    }
    bound
}

/// Upper bound on the number of non-zeros in `A * B`: for each `A` row,
/// the smaller of its flop count `Σ_{k ∈ A_i} nnz(B_k)` and `b.cols()`,
/// summed over rows. Unlike a symbolic pass ([`super::product_nnz`]) this
/// needs no marker array — one sweep over `A`'s indices — yet is a true
/// upper bound, which `a.nnz().max(b.nnz())` (the seed's estimate) never
/// was.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn output_nnz_bound(a: &Csr, b: &Csr) -> usize {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    output_bound_on_rows(a, b, 0..a.rows())
}

/// Multiplies `a * b` with Gustavson's row-wise algorithm.
///
/// The output builder is pre-sized from [`output_nnz_bound`] — a true
/// upper bound — so the push loop never climbs a realloc ladder.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let bound = output_bound_on_rows(a, b, 0..a.rows());
    let mut out = CsrBuilder::with_capacity(a.rows(), b.cols(), bound);
    // Sparse accumulator: dense values + "which row last touched this slot"
    // marker, avoiding an O(cols) clear per row.
    let mut values = vec![0.0f64; b.cols()];
    let mut marker = vec![usize::MAX; b.cols()];
    let mut occupied: Vec<Index> = Vec::new();

    for i in 0..a.rows() {
        occupied.clear();
        let (ka, va) = a.row(i);
        for (&k, &av) in ka.iter().zip(va) {
            let (jb, vb) = b.row(k as usize);
            for (&j, &bv) in jb.iter().zip(vb) {
                let ju = j as usize;
                if marker[ju] != i {
                    marker[ju] = i;
                    values[ju] = av * bv;
                    occupied.push(j);
                } else {
                    values[ju] += av * bv;
                }
            }
        }
        occupied.sort_unstable();
        for &j in &occupied {
            out.push(i as Index, j, values[j as usize]);
        }
    }
    out.finish()
}

/// The seed Gustavson kernel, kept verbatim: fresh SPA vectors per call,
/// a full `0..a.rows()` scan, and the historical
/// `a.nnz().max(b.nnz())` capacity guess. It is the differential oracle
/// for [`gustavson_scratch`] — do not optimize it.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson_reference(a: &Csr, b: &Csr) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut out = CsrBuilder::with_capacity(a.rows(), b.cols(), a.nnz().max(b.nnz()));
    let mut values = vec![0.0f64; b.cols()];
    let mut marker = vec![usize::MAX; b.cols()];
    let mut occupied: Vec<Index> = Vec::new();

    for i in 0..a.rows() {
        occupied.clear();
        let (ka, va) = a.row(i);
        for (&k, &av) in ka.iter().zip(va) {
            let (jb, vb) = b.row(k as usize);
            for (&j, &bv) in jb.iter().zip(vb) {
                let ju = j as usize;
                if marker[ju] != i {
                    marker[ju] = i;
                    values[ju] = av * bv;
                    occupied.push(j);
                } else {
                    values[ju] += av * bv;
                }
            }
        }
        occupied.sort_unstable();
        for &j in &occupied {
            out.push(i as Index, j, values[j as usize]);
        }
    }
    out.finish()
}

/// Reusable working state for [`gustavson_scratch`] — the multiply-stage
/// twin of the merge stage's `MergeScratch`.
///
/// A worker constructs one scratch and feeds every job through it. The SPA
/// arrays (`values` + `marker`) grow monotonically to the widest `b.cols()`
/// seen and are never shrunk or cleared: the marker holds a *generation
/// stamp* that increments per processed row, so slots dirtied by one job
/// can never alias a later job's rows — no O(cols) wipe between jobs, no
/// per-job allocation once warm.
#[derive(Debug, Default)]
pub struct MultiplyScratch {
    /// Dense SPA value array, `>= b.cols()` slots once warmed.
    values: Vec<f64>,
    /// Generation stamp of the row that last touched each slot. Stamp `0`
    /// is reserved as "never touched" so fresh slots are always stale.
    marker: Vec<u64>,
    /// Occupied column slots of the row in flight (unsorted until emit).
    occupied: Vec<Index>,
    /// Occupied-row index computed by [`gustavson_scratch`] when the
    /// caller does not supply one.
    live_rows: Vec<Index>,
    /// Monotone per-row generation counter shared across all jobs.
    stamp: u64,
    /// Calls served entirely from already-sized buffers.
    reuses: u64,
}

impl MultiplyScratch {
    /// Creates an empty scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        MultiplyScratch::default()
    }

    /// Number of kernel calls that completed without growing any scratch
    /// buffer — the warm-path counter surfaced by the streaming
    /// pipeline's `StageReport::multiply_scratch_reuses`.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Grows the SPA arrays to at least `cols` slots. Returns `true` if
    /// anything grew (i.e. this call is cold for the SPA).
    fn ensure_cols(&mut self, cols: usize) -> bool {
        if self.values.len() >= cols {
            return false;
        }
        self.values.resize(cols, 0.0);
        self.marker.resize(cols, 0);
        true
    }
}

/// Multiplies `a * b` reusing `scratch` across calls, visiting only
/// occupied `A` rows.
///
/// Builds the occupied-row index itself with one O(a.rows()) sweep of the
/// row pointers (kept inside the scratch, so it costs no allocation when
/// warm); callers that already know the live rows — e.g. the streaming
/// pipeline, which records them while slicing panels — should use
/// [`gustavson_scratch_on_rows`] and skip the sweep.
///
/// Bit-identical to [`gustavson`] and [`gustavson_reference`]: same
/// per-`(i, k)` accumulation order, same per-row column sort.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn gustavson_scratch(a: &Csr, b: &Csr, scratch: &mut MultiplyScratch) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    let mut live = std::mem::take(&mut scratch.live_rows);
    let live_cap = live.capacity();
    live.clear();
    let row_ptr = a.row_ptr();
    live.extend(
        (0..a.rows())
            .filter(|&r| row_ptr[r + 1] > row_ptr[r])
            .map(|r| r as Index),
    );
    let grew_live = live.capacity() != live_cap;
    let out = multiply_on_rows(a, b, &live, scratch, grew_live);
    scratch.live_rows = live;
    out
}

/// Multiplies `a * b` over a caller-provided occupied-row index `live`.
///
/// `live` must list row indices of `a` in strictly increasing order; rows
/// not listed are emitted empty, so the list must cover every non-empty
/// row for a correct product (listing an empty row is harmless). The
/// streaming pipeline records this index for free while slicing `A` into
/// column panels ([`Csr::col_panel_condensed`]).
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`. Unsorted or out-of-bounds `live`
/// entries panic in debug builds.
pub fn gustavson_scratch_on_rows(
    a: &Csr,
    b: &Csr,
    live: &[Index],
    scratch: &mut MultiplyScratch,
) -> Csr {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    multiply_on_rows(a, b, live, scratch, false)
}

fn multiply_on_rows(
    a: &Csr,
    b: &Csr,
    live: &[Index],
    scratch: &mut MultiplyScratch,
    grew_live: bool,
) -> Csr {
    debug_assert!(
        live.windows(2).all(|w| w[0] < w[1]),
        "live rows must be strictly increasing"
    );
    debug_assert!(live.iter().all(|&r| (r as usize) < a.rows()));
    let grew_spa = scratch.ensure_cols(b.cols());
    let occupied_cap = scratch.occupied.capacity();

    let bound = output_bound_on_rows(a, b, live.iter().map(|&r| r as usize));
    let mut out = CsrBuilder::with_capacity(a.rows(), b.cols(), bound);

    for &i in live {
        scratch.stamp += 1;
        let stamp = scratch.stamp;
        scratch.occupied.clear();
        let (ka, va) = a.row(i as usize);
        for (&k, &av) in ka.iter().zip(va) {
            let (jb, vb) = b.row(k as usize);
            for (&j, &bv) in jb.iter().zip(vb) {
                let ju = j as usize;
                if scratch.marker[ju] != stamp {
                    scratch.marker[ju] = stamp;
                    scratch.values[ju] = av * bv;
                    scratch.occupied.push(j);
                } else {
                    scratch.values[ju] += av * bv;
                }
            }
        }
        scratch.occupied.sort_unstable();
        for &j in &scratch.occupied {
            out.push_trusted(i, j, scratch.values[j as usize]);
        }
    }

    if !grew_spa && !grew_live && scratch.occupied.capacity() == occupied_cap {
        scratch.reuses += 1;
    }
    out.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{gen, Dense};

    #[test]
    fn small_known_product() {
        let a = Dense::from_rows(&[&[1.0, 2.0], &[0.0, 3.0]]).to_csr();
        let b = Dense::from_rows(&[&[0.0, 4.0], &[5.0, 0.0]]).to_csr();
        let c = gustavson(&a, &b);
        assert_eq!(
            c.to_dense(),
            Dense::from_rows(&[&[10.0, 4.0], &[15.0, 0.0]])
        );
    }

    #[test]
    fn matches_oracle_on_random() {
        let pairs = gen::arb::spgemm_pair(24, 90, gen::arb::ValueClass::Float);
        for seed in 0..5 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let c = gustavson(&a, &b);
            assert!(
                c.to_dense()
                    .max_abs_diff(&a.to_dense().matmul(&b.to_dense()))
                    < 1e-10,
                "seed {seed}"
            );
        }
    }

    #[test]
    fn accumulates_duplicates_within_row() {
        // Both k-contributions hit column 0: [1 1] * [[2],[3]] = [5]
        let a = Dense::from_rows(&[&[1.0, 1.0]]).to_csr();
        let b = Dense::from_rows(&[&[2.0], &[3.0]]).to_csr();
        let c = gustavson(&a, &b);
        assert_eq!(c.nnz(), 1);
        assert_eq!(c.get(0, 0), Some(5.0));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = Csr::zero(2, 3);
        let b = Csr::zero(2, 2);
        let _ = gustavson(&a, &b);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn scratch_shape_mismatch_panics() {
        let a = Csr::zero(2, 3);
        let b = Csr::zero(2, 2);
        let _ = gustavson_scratch(&a, &b, &mut MultiplyScratch::new());
    }

    #[test]
    fn output_bound_is_a_true_upper_bound_and_tighter_than_seed_guess() {
        let pairs = gen::arb::spgemm_pair(28, 140, gen::arb::ValueClass::Float);
        for seed in 0..30 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let bound = output_nnz_bound(&a, &b);
            let actual = gustavson(&a, &b).nnz();
            assert!(
                bound >= actual,
                "seed {seed}: bound {bound} < actual {actual}"
            );
            // The flop bound also dominates the symbolic count.
            assert!(bound as u64 >= super::super::product_nnz(&a, &b));
        }
        // The seed guess was not an upper bound: a dense-ish outer shape
        // blows past `a.nnz().max(b.nnz())` while the flop bound holds.
        let a = Dense::from_rows(&[&[1.0], &[1.0], &[1.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0, 1.0]]).to_csr();
        let seed_guess = a.nnz().max(b.nnz());
        let actual = gustavson(&a, &b).nnz();
        assert!(actual > seed_guess, "{actual} <= {seed_guess}");
        assert!(output_nnz_bound(&a, &b) >= actual);
    }

    #[test]
    fn scratch_kernel_is_bit_identical_across_reuse() {
        let pairs = gen::arb::spgemm_pair(24, 90, gen::arb::ValueClass::Float);
        let mut scratch = MultiplyScratch::new();
        for seed in 0..10 {
            let (a, b) = gen::arb::sample(&pairs, seed);
            let reference = gustavson_reference(&a, &b);
            let fixed = gustavson(&a, &b);
            let scratched = gustavson_scratch(&a, &b, &mut scratch);
            assert_eq!(fixed, reference, "seed {seed}: pre-sizing changed results");
            assert_eq!(scratched.rows(), reference.rows(), "seed {seed}");
            assert_eq!(scratched.cols(), reference.cols(), "seed {seed}");
            assert_eq!(
                scratched.row_ptr(),
                reference.row_ptr(),
                "seed {seed}: structure"
            );
            assert_eq!(
                scratched.col_indices(),
                reference.col_indices(),
                "seed {seed}: structure"
            );
            let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&scratched), bits(&reference), "seed {seed}: values");
        }
        assert!(
            scratch.reuses() > 0,
            "scratch never warmed across 10 varied jobs"
        );
    }

    #[test]
    fn scratch_on_rows_honors_partial_live_lists() {
        let a = Dense::from_rows(&[&[1.0, 0.0], &[2.0, 3.0], &[0.0, 4.0]]).to_csr();
        let b = Dense::from_rows(&[&[1.0, 1.0], &[0.0, 5.0]]).to_csr();
        let mut scratch = MultiplyScratch::new();
        // Full live list matches the plain kernel.
        let full = gustavson_scratch_on_rows(&a, &b, &[0, 1, 2], &mut scratch);
        assert_eq!(full, gustavson(&a, &b));
        // Omitted rows come out empty — the condensed contract.
        let partial = gustavson_scratch_on_rows(&a, &b, &[1], &mut scratch);
        assert_eq!(partial.row_nnz(0), 0);
        assert_eq!(partial.row_nnz(2), 0);
        assert_eq!(partial.row(1), full.row(1));
        // Listing an empty row is harmless.
        let a_gap = Dense::from_rows(&[&[1.0, 0.0], &[0.0, 0.0], &[0.0, 4.0]]).to_csr();
        let with_gap = gustavson_scratch_on_rows(&a_gap, &b, &[0, 1, 2], &mut scratch);
        assert_eq!(with_gap, gustavson(&a_gap, &b));
    }

    #[test]
    fn scratch_reuse_counter_tracks_warm_calls() {
        let a = gen::uniform_random(40, 40, 200, 7);
        let b = gen::uniform_random(40, 40, 200, 8);
        let mut scratch = MultiplyScratch::new();
        let cold = gustavson_scratch(&a, &b, &mut scratch);
        let after_cold = scratch.reuses();
        let warm = gustavson_scratch(&a, &b, &mut scratch);
        assert_eq!(cold, warm);
        assert_eq!(
            scratch.reuses(),
            after_cold + 1,
            "second call should be warm"
        );
        // A wider B forces SPA growth: not a reuse.
        let wide = gen::uniform_random(40, 400, 200, 9);
        let _ = gustavson_scratch(&a, &wide, &mut scratch);
        assert_eq!(scratch.reuses(), after_cold + 1);
        let _ = gustavson_scratch(&a, &wide, &mut scratch);
        assert_eq!(scratch.reuses(), after_cold + 2);
    }
}
