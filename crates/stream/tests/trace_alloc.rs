//! Allocator audit: with tracing **off**, the instrumented pipeline's
//! warm-run allocation count is exactly that of an identical run — the
//! disabled recorder adds zero heap allocations to the hot path.
//!
//! The default `StreamingExecutor` carries a disabled recorder, so two
//! identical single-threaded in-memory runs must allocate the same
//! number of times: every span begin/end, counter update and lane
//! creation compiles down to no-ops (the per-operation proof lives in
//! `crates/obs/tests/obs_alloc.rs`; this test pins the composition into
//! the real pipeline audited by the PR 6/PR 7 allocation tests).
//!
//! Only the thread that calls `multiply` is audited: a thread-local tag
//! is set around the call and the allocator hooks count tagged threads
//! only. That thread runs the pipeline — it reads the pairs, and its span
//! lane, the spill counters, the plan, every merge decision and every
//! round small enough to fold in place are made on it — and its
//! allocation count is a pure function of the run. Helper threads a call
//! spawns are left out on purpose: whether one of them blocks on a
//! channel (and so allocates a wait context) depends on how the host
//! schedules them, which made a process-wide count differ between
//! identical runs on a busy machine, and libtest's own threads allocate
//! when they please.
//!
//! This file holds exactly one test (same discipline as
//! `crates/core/tests/zero_alloc.rs`).

use sparch_sparse::gen;
use sparch_stream::{MemoryBudget, StreamConfig, StreamingExecutor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct TrackingAlloc;

static ALL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Set on a thread for the duration of an audited call. Const-
    /// initialised and without a destructor, so reading it from inside
    /// the allocator never allocates and is valid for a thread's whole
    /// life.
    static AUDITED: Cell<bool> = const { Cell::new(false) };
}

fn on_alloc() {
    if AUDITED.with(Cell::get) {
        ALL_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        on_alloc();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: TrackingAlloc = TrackingAlloc;

/// Runs `f` and returns (its output, allocations made during the call).
fn audited<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALL_ALLOCS.load(Ordering::Relaxed);
    AUDITED.with(|tag| tag.set(true));
    let out = f();
    AUDITED.with(|tag| tag.set(false));
    (out, ALL_ALLOCS.load(Ordering::Relaxed) - before)
}

#[test]
fn disabled_tracing_adds_zero_allocations_to_warm_runs() {
    let a = sparch_sparse::linalg::map_values(&gen::uniform_random(96, 96, 700, 19), |v| {
        (v * 4.0).round()
    });
    let config = StreamConfig {
        budget: MemoryBudget::unbounded(), // in-memory: no spill I/O jitter
        panels: 6,
        merge_ways: 3,
        threads: Some(1), // at most one merge worker keeps the schedule fixed
        ..StreamConfig::default()
    };
    let executor = StreamingExecutor::new(config.clone());

    // Warm-up: thread-local scratch, channel blocks, the result shape.
    let ((expected, _), _) = audited(|| executor.multiply(&a, &a).unwrap());

    // With tracing disabled every recorder call must be free, so
    // identical warm runs can only differ if the recorder — the sole
    // conditional code on this path — allocates.
    let warm_runs = |exec: &StreamingExecutor| -> Vec<u64> {
        (0..5)
            .map(|_| {
                let ((c, _), allocs) = audited(|| exec.multiply(&a, &a).unwrap());
                assert_eq!(c, expected);
                allocs
            })
            .collect()
    };
    let disabled = warm_runs(&executor);
    assert!(
        disabled.iter().all(|&n| n == disabled[0]),
        "identical warm runs allocated differently ({disabled:?}): \
         the disabled recorder must be allocation-free"
    );

    // Positive control: the same workload with tracing *on* must sit
    // visibly above the disabled count (span storage, lane labels, the
    // sink) — proof this audit can see recorder allocations at all.
    let traced = StreamingExecutor::new(config).with_recorder(sparch_obs::Recorder::enabled());
    let enabled = warm_runs(&traced);
    drop(traced.recorder().drain("audit"));
    assert!(
        enabled.iter().all(|&n| n > disabled[0]),
        "enabled tracing allocated no more than disabled ({enabled:?} vs {}): \
         the audit has lost its sensitivity",
        disabled[0]
    );
}
