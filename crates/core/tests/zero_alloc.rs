//! Pins the zero-allocation guarantee of the round-execute hot path.
//!
//! A counting global allocator wraps the system allocator; after a
//! warm-up run with the same task, `SpArchSim::execute_stage` must not
//! allocate at all — every stream buffer, the fold's accumulator and
//! the per-round accounting live in the reused [`SimScratch`].
//!
//! This file holds exactly one test so no neighbouring test's
//! allocations can race the counter.

use sparch_core::{SimScratch, SpArchConfig, SpArchSim};
use sparch_sparse::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn execute_stage_stops_allocating_after_warmup() {
    // A multi-round schedule (2 tree layers = 4-way merge) exercises
    // leaf streams, partial spills and re-reads — the whole hot path.
    let a = gen::rmat_graph500(256, 8, 42);
    let sim = SpArchSim::new(SpArchConfig::default().with_tree_layers(2));
    let mut scratch = SimScratch::new();

    let warm = sim.run_with_scratch(&a, &a, &mut scratch);
    assert!(warm.perf.rounds > 1, "need a multi-round schedule");
    sim.run_with_scratch(&a, &a, &mut scratch);

    // Plan and prefetch may allocate (schedulers, prefetch bookkeeping);
    // the round-execute stage must not.
    let plan = sim.plan_stage(&a, &a);
    let prefetch = sim.prefetch_stage(&plan, &a, &mut scratch);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let totals = sim.execute_stage(&plan, &a, &mut scratch);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(
        allocations, 0,
        "execute stage performed {allocations} allocations after warm-up"
    );

    // The measured run still produces the exact result.
    let report = sim.writeback_stage(&a, &a, &plan, prefetch, totals, &scratch);
    assert_eq!(report.result(), warm.result());
    assert_eq!(report.perf, warm.perf);
}
