//! The streaming pipeline's conformance contract, pinned across the
//! shared `gen::arb` grid at several budgets, panel counts, spill
//! codecs and balance modes.
//!
//! For integer-valued inputs (products and sums exact in f64) the
//! streamed result must be **bit-identical** to `gustavson` — same
//! `row_ptr`, `col_idx` and value bits — whatever the budget (including
//! a zero budget, where every partial spills to disk and streams back),
//! panel count, thread count, spill codec or balance mode. For
//! continuous floats the structure is still exact; values may drift by
//! ulps because the panel split regroups the non-associative summation,
//! so they are compared to 1e-12.

use proptest::prelude::*;
use sparch_sparse::gen::arb::{self, ValueClass};
use sparch_sparse::{algo, Csr};
use sparch_stream::{MemoryBudget, PanelBalance, SpillCodec, StreamConfig, StreamingExecutor};

fn exec_with(
    budget: u64,
    panels: usize,
    threads: usize,
    codec: SpillCodec,
    balance: PanelBalance,
) -> StreamingExecutor {
    StreamingExecutor::new(StreamConfig {
        budget: MemoryBudget::from_bytes(budget),
        panels,
        balance,
        merge_ways: 3, // small fan-in → multi-round merges even on tiny grids
        spill_codec: codec,
        threads: Some(threads),
        spill_dir: None,
    })
}

fn exec(budget: u64, panels: usize, threads: usize) -> StreamingExecutor {
    exec_with(
        budget,
        panels,
        threads,
        SpillCodec::Varint,
        PanelBalance::Nnz,
    )
}

/// Budgets swept by every check: spill-everything, spill-some, in-core.
const BUDGETS: [u64; 3] = [0, 2 << 10, u64::MAX];

const CODECS: [SpillCodec; 2] = [SpillCodec::Raw, SpillCodec::Varint];
const BALANCES: [PanelBalance; 2] = [PanelBalance::Uniform, PanelBalance::Nnz];

fn assert_streams_exactly(
    a: &Csr,
    b: &Csr,
    budget: u64,
    panels: usize,
    codec: SpillCodec,
    balance: PanelBalance,
) {
    let expected = algo::gustavson(a, b);
    let (c, report) = exec_with(budget, panels, 2, codec, balance)
        .multiply(a, b)
        .expect("streaming multiply failed");
    assert_eq!(
        c, expected,
        "budget {budget} panels {panels} {codec} {balance}"
    );
    assert!(report.peak_live_bytes <= budget);
    if budget == 0 {
        // Every non-final round output spills; leaves never enter the
        // store, the rounds multiply them as they fold them.
        let stored = report.merge_rounds.saturating_sub(1) as u64;
        assert_eq!(report.spill_writes, stored);
        assert_eq!(report.peak_live_bytes, 0);
    }
    // The codec never loses to raw, whatever spilled.
    assert!(report.spill_bytes_written <= report.spill_bytes_raw_equivalent);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn small_int_inputs_are_bit_identical(
        pair in arb::spgemm_pair(20, 70, ValueClass::SmallInt),
        budget in prop_oneof![Just(BUDGETS[0]), Just(BUDGETS[1]), Just(BUDGETS[2])],
        panels in 1usize..6,
        codec in prop_oneof![Just(CODECS[0]), Just(CODECS[1])],
        balance in prop_oneof![Just(BALANCES[0]), Just(BALANCES[1])],
    ) {
        let (a, b) = pair;
        assert_streams_exactly(&a, &b, budget, panels, codec, balance);
    }

    #[test]
    fn explicit_zero_inputs_are_bit_identical(
        pair in arb::spgemm_pair(18, 60, ValueClass::SmallIntWithZeros),
        budget in prop_oneof![Just(BUDGETS[0]), Just(BUDGETS[2])],
        panels in 1usize..5,
        codec in prop_oneof![Just(CODECS[0]), Just(CODECS[1])],
    ) {
        // Stored zeros must survive both spill formats and the merge fold.
        let (a, b) = pair;
        assert_streams_exactly(&a, &b, budget, panels, codec, PanelBalance::Nnz);
    }

    #[test]
    fn unit_pattern_inputs_are_bit_identical(
        pair in arb::spgemm_pair(22, 80, ValueClass::Unit),
        panels in 1usize..6,
        balance in prop_oneof![Just(BALANCES[0]), Just(BALANCES[1])],
    ) {
        let (a, b) = pair;
        assert_streams_exactly(&a, &b, 0, panels, SpillCodec::Varint, balance);
    }

    #[test]
    fn float_inputs_match_structurally_to_tolerance(
        pair in arb::spgemm_pair(20, 70, ValueClass::Float),
        budget in prop_oneof![Just(BUDGETS[0]), Just(BUDGETS[2])],
        panels in 1usize..6,
        codec in prop_oneof![Just(CODECS[0]), Just(CODECS[1])],
    ) {
        let (a, b) = pair;
        let expected = algo::gustavson(&a, &b);
        let (c, _) = exec_with(budget, panels, 2, codec, PanelBalance::Nnz)
            .multiply(&a, &b)
            .expect("multiply");
        // approx_eq demands exact row_ptr/col_idx equality plus values
        // within tolerance — the structural half is the hard guarantee.
        prop_assert!(c.approx_eq(&expected, 1e-12), "budget {} panels {} {}", budget, panels, codec);
    }
}

/// The deterministic tour of the grid the property tests sample: every
/// seed × budget × panel × thread × codec × balance combination, so
/// failures name their reproducer.
#[test]
fn deterministic_grid_sweep() {
    let pairs = arb::spgemm_pair(24, 90, ValueClass::SmallInt);
    for seed in 0..6 {
        let (a, b) = arb::sample(&pairs, seed);
        let expected = algo::gustavson(&a, &b);
        for budget in BUDGETS {
            for panels in [1, 2, 5] {
                for threads in [1, 2] {
                    for codec in CODECS {
                        for balance in BALANCES {
                            let (c, report) = exec_with(budget, panels, threads, codec, balance)
                                .multiply(&a, &b)
                                .expect("streaming multiply failed");
                            assert_eq!(
                                c, expected,
                                "seed {seed} budget {budget} panels {panels} \
                                 threads {threads} {codec} {balance}"
                            );
                            assert!(report.peak_live_bytes <= budget);
                        }
                    }
                }
            }
        }
    }
}

/// Float fold order is pinned by (panels, balance) alone: at a fixed
/// split, results are bit-identical across budgets, threads and codecs
/// even for non-associative float arithmetic — stage timing never
/// reaches the merge plan.
#[test]
fn float_fold_order_is_timing_invariant() {
    let pairs = arb::spgemm_pair(24, 90, ValueClass::Float);
    for seed in 0..3 {
        let (a, b) = arb::sample(&pairs, seed);
        for balance in BALANCES {
            let reference = exec_with(u64::MAX, 4, 1, SpillCodec::Raw, balance)
                .multiply(&a, &b)
                .unwrap()
                .0;
            for budget in [0, u64::MAX] {
                for threads in [1, 3] {
                    for codec in CODECS {
                        let (c, _) = exec_with(budget, 4, threads, codec, balance)
                            .multiply(&a, &b)
                            .unwrap();
                        assert_eq!(
                            c, reference,
                            "seed {seed} budget {budget} threads {threads} {codec} {balance}"
                        );
                    }
                }
            }
        }
    }
}

/// A budget so small every stored partial spills still reproduces
/// gustavson on a workload big enough for multi-round, multi-level merges.
#[test]
fn everything_spills_on_a_multi_round_merge() {
    use sparch_sparse::{gen, linalg};
    let a = linalg::map_values(&gen::uniform_random(120, 120, 1400, 9), |v| {
        (v * 4.0).round()
    });
    let (c, report) = exec(0, 11, 2).multiply(&a, &a).unwrap();
    assert_eq!(c, algo::gustavson(&a, &a));
    assert!(report.merge_rounds >= 4, "want a deep plan, got {report:?}");
    assert_eq!(report.spill_writes, report.merge_rounds as u64 - 1);
    assert_eq!(report.peak_live_bytes, 0);
    assert!(report.spill_reads >= report.spill_writes);
    // Integer-valued partials must compress at least 2× under varint.
    assert!(
        report.spill_bytes_written * 2 <= report.spill_bytes_raw_equivalent,
        "varint saved too little: {} of {} raw",
        report.spill_bytes_written,
        report.spill_bytes_raw_equivalent
    );
}
