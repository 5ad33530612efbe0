//! Allocator-audited memory-budget guarantee for the staged pipeline,
//! covering **both** operands.
//!
//! A byte-tracking global allocator (current live bytes + high-water
//! mark) wraps the system allocator. The test builds a task whose full
//! set of partials is several times larger than the budget, probes it
//! unbounded in memory, then runs it through the *pipelined* path with
//! `A` streamed panel-by-panel from a `.mtx` file and `B` sliced into
//! row panels from a matrix that lives in the allocator baseline — so
//! any whole-operand copy made by the pipeline would appear as heap
//! *growth*. It checks that
//!
//! 1. the store-reported `peak_live_bytes` respects the budget exactly,
//!    with the spill path genuinely exercised, and the result is
//!    bit-identical to `gustavson`,
//! 2. the *allocator-observed* peak heap growth of the budgeted
//!    pipelined run is bounded by the budget plus the pipeline's
//!    documented transients — a handful of panel pairs in the bounded
//!    channels, one un-inserted partial per worker, the merge output
//!    under construction, and I/O buffers under a fixed slack,
//! 3. that transient allowance is itself **smaller than either whole
//!    operand**, so the bound could not hold if the pipeline ever
//!    materialized `A` or `B` whole on top of an otherwise saturated
//!    run — this is what makes the bound evidence of streaming, and
//! 4. the budgeted run's peak heap growth is well below the unbounded
//!    in-memory run's — the budget is real, not bookkeeping, and
//! 5. the result comes back at its own size: the heap the call still
//!    holds once it returns is the result's arrays within a small fixed
//!    slack, not the root round's output pre-sized to its inputs.
//!
//! This file holds exactly one test so no neighbouring test's
//! allocations can race the counters (same discipline as
//! `crates/core/tests/zero_alloc.rs`).

use sparch_sparse::{algo, gen, mm, panel_ranges};
use sparch_stream::{ExecPlan, MemoryBudget, PanelBalance, StreamConfig, StreamingExecutor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct TrackingAlloc;

static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn on_alloc(size: usize) {
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

const PANELS: usize = 64;
const WAYS: usize = 3;

/// Output side length; the inner dimension is `2 * N` (half real, half
/// zero-flop padding — see the workload construction below).
const N: usize = 512;

fn round4(v: f64) -> f64 {
    (v * 4.0).round()
}

/// Builds the audited operand pair. The trick: claim (3) needs the
/// pipeline's transient allowance to be *smaller than either whole
/// operand*, so the operands carry extra structural weight that costs
/// **zero flops** — `A` gets non-zeros in inner columns `N..3N/2` where
/// `B`'s rows are empty, `B` gets non-zeros in inner rows `3N/2..2N`
/// where `A`'s columns are empty. A whole-operand copy would show up in
/// the heap audit at full (padded) size, while partials, the result and
/// the runtime stay those of the real `N×N·N×N` product.
fn operands() -> (sparch_sparse::Csr, sparch_sparse::Csr) {
    use sparch_sparse::Coo;
    let real_a = gen::uniform_random(N, N, N * 96, 42);
    let pad_a = gen::uniform_random(N, N / 2, N * 64, 44);
    let mut a = Coo::new(N, 2 * N);
    for (r, c, v) in real_a.iter() {
        a.push(r, c, round4(v));
    }
    for (r, c, v) in pad_a.iter() {
        a.push(r, c + N as u32, round4(v));
    }
    let real_b = gen::uniform_random(N, N, N * 96, 43);
    let pad_b = gen::uniform_random(N / 2, N, N * 64, 45);
    let mut b = Coo::new(2 * N, N);
    for (r, c, v) in real_b.iter() {
        b.push(r, c, round4(v));
    }
    for (r, c, v) in pad_b.iter() {
        b.push(r + (3 * N / 2) as u32, c, round4(v));
    }
    (a.to_csr(), b.to_csr())
}

fn config(budget: MemoryBudget) -> StreamConfig {
    StreamConfig {
        budget,
        panels: PANELS,
        merge_ways: WAYS,
        threads: Some(1), // one un-inserted partial, the documented transient
        ..StreamConfig::default()
    }
}

/// Runs `f` and returns (its output, allocator peak growth over the live
/// baseline at call time).
fn audited<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let baseline = LIVE.load(Ordering::Relaxed);
    PEAK.store(baseline, Ordering::Relaxed);
    let out = f();
    let peak_growth = PEAK.load(Ordering::Relaxed).saturating_sub(baseline);
    (out, peak_growth)
}

#[test]
fn peak_live_bytes_respect_the_budget_with_both_operands_streamed() {
    // Integer-valued so the budgeted, pipelined result is bit-identical
    // to the in-memory reference — correctness and memory are checked
    // together.
    let (a, b) = operands();
    let (inner, n) = (a.cols(), N);
    let expected = algo::gustavson(&a, &b);
    let a_path = std::env::temp_dir().join(format!("sparch_alloc_a_{}.mtx", std::process::id()));
    mm::write_file(&a_path, &a.to_coo()).unwrap();

    // Unbounded probe, fully in memory: learn the partial footprint and
    // the allocator peak the budget is supposed to beat.
    let exec = StreamingExecutor::new(config(MemoryBudget::unbounded()));
    let (probe, unbounded_peak) = audited(|| exec.multiply(&a, &b).expect("probe failed").1);
    assert_eq!(probe.spill_writes, 0);
    assert!(
        probe.partial_bytes_total > 0 && probe.partials >= PANELS / 2,
        "workload too small to be meaningful: {probe:?}"
    );

    // Budget: a quarter of the footprint — impossible without spilling.
    let budget = probe.partial_bytes_total / 4;
    let exec = StreamingExecutor::new(config(MemoryBudget::from_bytes(budget)));

    // The pipelined run: A panels stream from disk, B row panels are
    // sliced per panel from the baseline-resident operand. The plan's
    // uniform split mirrors what `mm::read_panels(path, PANELS)` uses.
    let ranges = panel_ranges(inner, PANELS);
    let plan = ExecPlan::for_operand(&a.col_nnz(), PANELS, PanelBalance::Uniform, WAYS);
    let pair_max: u64 = ranges
        .iter()
        .map(|r| {
            a.col_panel(r.clone()).estimated_bytes() + b.row_panel(r.clone()).estimated_bytes()
        })
        .max()
        .unwrap();
    let order = plan.panel_order();
    let before = LIVE.load(Ordering::Relaxed);
    let ((c, report), streamed_peak) = audited(|| {
        let a_stream = mm::read_panels(&a_path, PANELS)
            .expect("open A")
            .in_order(order.clone())
            .map(|item| {
                item.map(|(range, coo)| (range, coo.into_csr()))
                    .map_err(sparch_stream::StreamError::from)
            });
        let b_stream = order
            .into_iter()
            .map(|p| Ok((ranges[p].clone(), b.row_panel(ranges[p].clone()))));
        exec.multiply_streams(n, n, plan, a_stream, b_stream)
            .expect("pipelined multiply failed")
    });
    let held = LIVE.load(Ordering::Relaxed).saturating_sub(before);

    // (1) The store's accounting honours the budget, really spilled, and
    // the answer is exactly right.
    assert!(
        report.peak_live_bytes <= budget,
        "peak {} exceeds budget {budget}",
        report.peak_live_bytes
    );
    assert!(report.spill_writes > 0 && report.spill_reads > 0);
    assert!(report.spill_bytes_written > 0);
    assert_eq!(c, expected);

    // (2) Allocator-observed growth ≤ budget + documented transients:
    // up to 4 panel pairs alive in the pipeline (bounded job channel of
    // threads + 1, one in the worker's hands, one being read), plus one
    // pair's worth of COO-to-CSR conversion headroom in the mm reader;
    // up to 8 partial-sized buffers outside the store's accounting — on
    // the multiply side one under construction in the worker (2× at the
    // instant of a Vec-doubling realloc), one published into the event
    // queue awaiting consumption (the `Permits` gate caps these at
    // `threads`), one just consumed mid-insert; on the spill-writer side
    // one queued in the hand-off channel, one being encoded, plus the
    // writer's encode buffer at raw-equivalent size (≤ 2× a partial's
    // in-memory footprint); and the merge output under construction —
    // its coordinate set is a subset of the final result's and the
    // builder is pre-sized to the round's summed input non-zeros, at
    // most `merge_ways` (3 here) times the result's footprint; spill
    // I/O buffers, merge scratch lanes, the plan and heap bookkeeping
    // under the fixed slack.
    let result_bytes = expected.estimated_bytes();
    let slack = 512 << 10;
    let transients = 8 * pair_max + slack;
    let bound = budget + 8 * report.largest_partial_bytes + 3 * result_bytes + transients;
    assert!(
        streamed_peak <= bound,
        "allocator peak {streamed_peak} exceeds bound {bound} \
         (budget {budget}, largest partial {}, result {result_bytes}, pair_max {pair_max})",
        report.largest_partial_bytes
    );

    // (3) The transient allowance is smaller than either whole operand,
    // so bound (2) is incompatible with materializing A or B whole on
    // top of a saturated run — the pipelined path must be streaming
    // both. (If this precondition ever fails, the workload is too small
    // to prove anything: enlarge the operands, don't loosen the bound.)
    let (a_bytes, b_bytes) = (a.estimated_bytes(), b.estimated_bytes());
    assert!(
        transients < a_bytes && transients < b_bytes,
        "transient allowance {transients} not below operands ({a_bytes}, {b_bytes}); \
         workload too small for the streaming claim"
    );

    // (4) The budget visibly shrinks real heap usage versus unbounded.
    assert!(
        streamed_peak < unbounded_peak,
        "budgeted peak {streamed_peak} not below unbounded peak {unbounded_peak}"
    );

    // (5) What the call leaves on the heap, over everything held before
    // it (the operands among it), is the result at its own size.
    let held_slack = 64 << 10;
    assert!(
        held.abs_diff(c.estimated_bytes()) <= held_slack,
        "the call holds {held} bytes once it returns, the result's arrays are {}",
        c.estimated_bytes()
    );

    let _ = std::fs::remove_file(&a_path);
}
