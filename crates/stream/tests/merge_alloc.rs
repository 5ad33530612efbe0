//! Allocator-audited pre-sizing guarantee for the merge kernel.
//!
//! [`merge_sources`] pre-sizes its output arrays from the summed source
//! nnz — an exact upper bound — so the merge loop itself never touches
//! the allocator: the only large allocations are the two up-front
//! arrays (column indices at 4 B/entry, values at 8 B/entry).
//! A counting global allocator pins that down: the pre-sized kernel makes
//! **exactly two** allocations ≥ 64 KiB on a workload whose index/value
//! arrays are each far above that threshold, while the seed
//! `merge_sources_reference` (a doubling `CsrBuilder::new`) makes
//! strictly more — the doubling ladder this kernel exists to avoid. Peak
//! heap growth of the pre-sized merge is bounded by the reserve itself
//! (12 B per input entry) plus fixed scratch slack, and both kernels
//! produce bit-identical output. So does [`merge_bands`] cutting the
//! same round into 2 and 4 row bands: each band writes a disjoint slice
//! of the same two pre-sized arrays, so banding adds no large
//! allocation.
//!
//! This file holds exactly one test so no neighbouring test's
//! allocations can race the counters (same discipline as
//! `budget_alloc.rs`).

use sparch_stream::merge::{
    merge_bands, merge_sources, merge_sources_reference, MergeScratch, PartialSource,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at or above this size count as "large" — chosen well
/// above every fixed-size scratch buffer in the merge path (a spilled
/// source's row group is at most 16 KiB per array, `row_ptr` for 400
/// rows is ~3 KiB) and well below the
/// workload's index/value reserves (~470 KiB and ~940 KiB).
const BIG: usize = 64 << 10;

struct TrackingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    if size >= BIG {
        BIG_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
    let live = LIVE.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn on_dealloc(size: usize) {
    LIVE.fetch_sub(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc(new_size);
        on_dealloc(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Runs `f` and returns (its output, large-allocation count, peak heap
/// growth over the live baseline at call time).
fn audited<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let big_before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let big = BIG_ALLOCS.load(Ordering::Relaxed) - big_before;
    let peak_growth = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    (out, big, peak_growth)
}

#[test]
fn presized_merge_allocates_once_per_output_array() {
    let parts: Vec<sparch_sparse::Csr> = (0..3)
        .map(|s| sparch_sparse::gen::uniform_random(400, 400, 40_000, 40 + s))
        .collect();
    let total: usize = parts.iter().map(sparch_sparse::Csr::nnz).sum();
    // The audit is only meaningful when each reserve clears the
    // threshold on its own.
    assert!(
        total * 4 >= 2 * BIG,
        "workload too small for the large-allocation audit: {total} nnz"
    );

    let sources =
        || -> Vec<PartialSource> { parts.iter().cloned().map(PartialSource::from_csr).collect() };

    // The seed kernel: a doubling builder, so the index/value arrays
    // each climb a realloc ladder through the large sizes. Sources are
    // built *outside* each audited window — cloning the operands is
    // itself a large allocation.
    let srcs = sources();
    let (reference, reference_bigs, _) = audited(move || merge_sources_reference(400, 400, srcs));
    let reference = reference.expect("reference merge failed");

    // The pre-sized kernel, with the scratch pre-warmed the way a
    // merge worker reuses it across rounds: exactly one reserve per
    // output array, nothing else at large size.
    let mut scratch = MergeScratch::new();
    let warm = merge_sources(400, 400, sources(), &mut scratch).expect("warm-up merge failed");
    let srcs = sources();
    let (merged, presized_bigs, peak_growth) =
        audited(|| merge_sources(400, 400, srcs, &mut scratch));
    let merged = merged.expect("pre-sized merge failed");

    assert_eq!(merged, reference, "kernels disagree");
    assert_eq!(merged, warm, "pre-sized merge is not run-to-run stable");
    assert_eq!(
        presized_bigs, 2,
        "pre-sized merge should make exactly two large allocations \
         (col_idx + values reserves), saw {presized_bigs}"
    );
    assert!(
        reference_bigs > presized_bigs,
        "doubling reference made only {reference_bigs} large allocations — \
         the pre-sizing audit lost its contrast"
    );

    // Peak growth: the two reserves (12 B per input entry) plus row_ptr,
    // the winner tree and the accumulator under a fixed slack.
    let slack = 256 << 10;
    let bound = 12 * total as u64 + slack;
    assert!(
        peak_growth <= bound,
        "pre-sized merge peak growth {peak_growth} exceeds bound {bound} ({total} nnz)"
    );

    // Row bands, with each band's accumulator warmed first:
    // still exactly the two output arrays, and the same bits.
    let bits = |m: &sparch_sparse::Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    for bands in [2, 4] {
        merge_bands(400, 400, sources(), &mut scratch, bands).expect("warm-up banded merge failed");
        let srcs = sources();
        let (banded, banded_bigs, _) = audited(|| merge_bands(400, 400, srcs, &mut scratch, bands));
        let (banded, ran) = banded.expect("banded merge failed");
        assert_eq!(ran, bands, "a resident round asked for {bands} bands");
        assert_eq!(
            banded, reference,
            "{bands} bands disagree with the reference"
        );
        assert_eq!(
            bits(&banded),
            bits(&reference),
            "{bands} bands change the bits"
        );
        assert_eq!(
            banded_bigs, 2,
            "a merge in {bands} bands should make exactly two large allocations \
             (col_idx + values), saw {banded_bigs}"
        );
    }
}
