//! The parallel merge stage's determinism contract.
//!
//! The Huffman plan fixes every round's children before any round runs,
//! so however rounds interleave across merge workers, each one folds the
//! same inputs in the same order — results must be **bit-identical** to
//! the serial (one thread — one merge worker —, in-core, raw codec)
//! reference at every thread count, budget (zero budget = every round
//! reads all-spilled children) and spill codec.
//! Float values make this the strongest possible check: one reordered
//! fold would shift ulps and fail `assert_eq!`.

use proptest::prelude::*;
use sparch_sparse::gen::arb::{self, ValueClass};
use sparch_sparse::{algo, gen, linalg, Csr};
use sparch_stream::{MemoryBudget, PanelBalance, SpillCodec, StreamConfig, StreamingExecutor};

const WAYS: [usize; 3] = [2, 4, 8];
const WORKERS: [usize; 3] = [1, 2, 8];

#[allow(clippy::too_many_arguments)]
fn exec(
    budget: u64,
    panels: usize,
    threads: usize,
    ways: usize,
    codec: SpillCodec,
    balance: PanelBalance,
) -> StreamingExecutor {
    StreamingExecutor::new(StreamConfig {
        budget: MemoryBudget::from_bytes(budget),
        panels,
        balance,
        merge_ways: ways,
        spill_codec: codec,
        threads: Some(threads),
        spill_dir: None,
    })
}

/// The serial reference at the same (panels, balance, ways) — the only
/// knobs the fold order may depend on.
fn serial_reference(a: &Csr, b: &Csr, panels: usize, ways: usize, balance: PanelBalance) -> Csr {
    exec(u64::MAX, panels, 1, ways, SpillCodec::Raw, balance)
        .multiply(a, b)
        .expect("serial reference multiply failed")
        .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn parallel_merge_is_bit_identical_to_serial(
        pair in arb::spgemm_pair(22, 80, ValueClass::Float),
        ways in prop_oneof![Just(WAYS[0]), Just(WAYS[1]), Just(WAYS[2])],
        workers in prop_oneof![Just(WORKERS[0]), Just(WORKERS[1]), Just(WORKERS[2])],
        budget in prop_oneof![Just(0u64), Just(u64::MAX)],
        codec in prop_oneof![Just(SpillCodec::Raw), Just(SpillCodec::Varint)],
        balance in prop_oneof![Just(PanelBalance::Uniform), Just(PanelBalance::Nnz)],
    ) {
        let (a, b) = pair;
        let reference = serial_reference(&a, &b, 5, ways, balance);
        let (c, report) = exec(budget, 5, workers, ways, codec, balance)
            .multiply(&a, &b)
            .expect("parallel multiply failed");
        prop_assert_eq!(c, reference, "ways {} workers {} budget {} {} {}", ways, workers, budget, codec, balance);
        prop_assert!(report.peak_live_bytes <= budget);
    }
}

/// The deterministic tour of the same grid, every combination by name,
/// including 8 threads (more workers than panels) and telemetry sanity.
#[test]
fn merge_worker_grid_sweep() {
    let pairs = arb::spgemm_pair(24, 90, ValueClass::Float);
    for seed in 0..3 {
        let (a, b) = arb::sample(&pairs, seed);
        for ways in WAYS {
            let reference = serial_reference(&a, &b, 6, ways, PanelBalance::Nnz);
            for workers in WORKERS {
                for budget in [0, u64::MAX] {
                    let (c, report) = exec(
                        budget,
                        6,
                        workers,
                        ways,
                        SpillCodec::Varint,
                        PanelBalance::Nnz,
                    )
                    .multiply(&a, &b)
                    .expect("multiply failed");
                    assert_eq!(
                        c, reference,
                        "seed {seed} ways {ways} workers {workers} budget {budget}"
                    );
                    let stages = &report.stages;
                    assert!(stages.rounds_merged_concurrently <= report.merge_rounds as u64);
                    assert!(stages.merge_kernel_seconds <= stages.merge_busy_seconds);
                    if report.merge_rounds > 0 {
                        // Every round consumes at least its output's
                        // worth of triples.
                        assert!(stages.merge_triples >= report.output_nnz as u64);
                    }
                    if budget == 0 {
                        // Every round output but the root's spills;
                        // leaves never enter the store.
                        let stored = report.merge_rounds.saturating_sub(1) as u64;
                        assert_eq!(report.spill_writes, stored);
                    }
                }
            }
        }
    }
}

/// On a workload whose rounds reach the merge workers — every two-way
/// round of this Uniform(1024, 32 per row)² at 8 panels folds about
/// 2.6 × 10⁵ input entries, above `BAND_MIN_ENTRIES` — the scheduler
/// overlaps rounds with other in-flight work, and the orchestrator keeps
/// reading while worker rounds are outstanding (rounds below that size
/// fold on the reading thread and overlap nothing). Scheduling noise on a
/// loaded machine can serialize one run, so this asserts each counter
/// over a handful of attempts — any single success proves the concurrent
/// path is wired.
#[test]
fn parallel_rounds_actually_overlap() {
    let a = linalg::map_values(&gen::uniform_random(1024, 1024, 1024 * 32, 5), |v| {
        (v * 4.0).round()
    });
    let expected = algo::gustavson(&a, &a);
    let (mut best_rounds, mut best_reads) = (0u64, 0u64);
    for _attempt in 0..5 {
        let (c, report) = exec(u64::MAX, 8, 2, 2, SpillCodec::Raw, PanelBalance::Nnz)
            .multiply(&a, &a)
            .expect("multiply failed");
        assert_eq!(c, expected);
        best_rounds = best_rounds.max(report.stages.rounds_merged_concurrently);
        best_reads = best_reads.max(report.stages.reads_overlapping_multiply);
        if best_rounds > 0 && best_reads > 0 {
            break;
        }
    }
    assert!(
        best_rounds >= 1,
        "no merge round ever overlapped other in-flight work across 5 runs"
    );
    assert!(
        best_reads >= 1,
        "no panel read ever completed with a multiply in flight across 5 runs"
    );
}
