//! Allocator-audited scratch-reuse guarantee for the panel multiply
//! kernel.
//!
//! A multiply worker owns one `MultiplyScratch` for its lifetime; after
//! one warm-up job the SPA (values, occupancy bitmap and short-row
//! buffer) and the live-row index are all sized, so a warm job touches
//! the allocator
//! only for its *output*: the pre-sized `CsrBuilder`'s three reserves
//! (row pointers, column indices, values), of which the two per-entry
//! arrays are the only large ones. A counting global allocator pins
//! that down exactly: the warm kernel call makes **three allocations
//! total, two of them ≥ 64 KiB**, on a workload whose SPA value array
//! (~234 KiB) would dominate the audit if it were re-allocated
//! per job — which is precisely what the seed `gustavson_reference`
//! does, and what its strictly larger audit count shows.
//!
//! This file holds exactly one test so no neighbouring test's
//! allocations can race the counters (same discipline as
//! `merge_alloc.rs` / `budget_alloc.rs`).

use sparch_sparse::{algo, gen, Csr};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations at or above this size count as "large" — well above the
/// builder's row-pointer reserve (~16 KiB for 2000 rows) and the
/// occupancy bitmap (~4 KiB), well below the SPA value array (~234 KiB)
/// and the output's per-entry reserves.
const BIG: usize = 64 << 10;

struct TrackingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static BIG_ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
    ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
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

/// Runs `f` and returns (its output, total allocation count, large
/// allocation count).
fn audited<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let all_before = ALL_ALLOCS.load(Ordering::Relaxed);
    let big_before = BIG_ALLOCS.load(Ordering::Relaxed);
    let out = f();
    let all = ALL_ALLOCS.load(Ordering::Relaxed) - all_before;
    let big = BIG_ALLOCS.load(Ordering::Relaxed) - big_before;
    (out, all, big)
}

#[test]
fn warm_multiply_jobs_make_zero_spa_allocations() {
    // Panel-job shape: tall-thin A (2000×64), B fanning out to 30_000
    // columns so the SPA value array is 30_000 slots — 234 KiB — far
    // above the audit threshold.
    const B_COLS: usize = 30_000;
    let jobs: Vec<(Csr, Csr)> = (0..3)
        .map(|s| {
            (
                gen::uniform_random(2000, 64, 6000, 90 + s),
                gen::uniform_random(64, B_COLS, 6400, 190 + s),
            )
        })
        .collect();
    let (a0, b0) = &jobs[0];

    // The seed kernel pays the SPA per call: its audit must show more
    // than the output's two large reserves.
    let (reference, _, reference_bigs) = audited(|| algo::gustavson_reference(a0, b0));
    assert!(
        reference_bigs > 2,
        "reference should re-allocate its SPA per call at large size, saw {reference_bigs}"
    );

    // Warm-up: the first job sizes every scratch buffer.
    let mut scratch = algo::MultiplyScratch::new();
    let warm_up = algo::gustavson_scratch(a0, b0, &mut scratch);
    assert_eq!(warm_up, reference, "kernels disagree");

    // The same job warm: exactly the output builder's three reserves
    // (row_ptr ~16 KiB, col_idx and values above the threshold) and
    // nothing else — zero SPA allocations.
    let reuses_before = scratch.reuses();
    let (warm, warm_all, warm_bigs) = audited(|| algo::gustavson_scratch(a0, b0, &mut scratch));
    assert_eq!(warm, reference, "warm rerun changed the result");
    assert_eq!(
        warm_all, 3,
        "a warm job must allocate exactly its three output arrays, saw {warm_all}"
    );
    assert_eq!(
        warm_bigs, 2,
        "a warm job's only large allocations are the col_idx + values reserves, saw {warm_bigs}"
    );
    assert_eq!(
        scratch.reuses(),
        reuses_before + 1,
        "the warm job must be counted as a scratch reuse"
    );

    // Different jobs of the same panel shape stay SPA-free too: no
    // large allocation beyond the output ever recurs.
    for (i, (a, b)) in jobs.iter().enumerate().skip(1) {
        let (got, _, bigs) = audited(|| algo::gustavson_scratch(a, b, &mut scratch));
        assert_eq!(got, algo::gustavson_reference(a, b), "job {i} disagrees");
        assert_eq!(
            bigs, 2,
            "job {i}: large allocations beyond the output reserves, saw {bigs}"
        );
    }
}
