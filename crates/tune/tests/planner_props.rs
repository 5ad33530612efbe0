//! The planner's contract, pinned over the shared `gen::arb` grid:
//!
//! 1. **Budget invariant** — the chosen config always has `panels ≥ 1`
//!    and `merge_ways ≥ 2`, carries the planner's budget verbatim, and
//!    whenever the plan claims `budget_satisfied` the largest projected
//!    partial fits `budget / merge_ways`. When it does not claim it, the
//!    formula was genuinely unachievable: even the finest split leaves a
//!    single column over `budget / 2`.
//! 2. **Bit-identity** — a run under the planned config is bit-identical
//!    to `gustavson` (knobs change timing, never bits), at any budget or
//!    thread count the planner was pointed at.

use proptest::prelude::*;
use sparch_sparse::gen::arb::{self, ValueClass};
use sparch_sparse::{algo, Csr};
use sparch_stream::{MemoryBudget, StreamingExecutor};
use sparch_tune::{row_nnz_histogram, BRows, KnobPlanner, OperandStats, Plan};

/// Budgets swept: fits-nothing, tight, roomy, in-core.
const BUDGETS: [u64; 4] = [0, 4 << 10, 64 << 10, u64::MAX];

fn check_plan(plan: &Plan, budget: MemoryBudget, a: &Csr, b: &Csr) {
    let config = &plan.config;
    assert!(config.panels >= 1);
    assert!(config.merge_ways >= 2);
    assert_eq!(config.budget, budget);
    assert_eq!(
        plan.projected_largest_partial_bytes,
        plan.projected_partial_bytes
            .iter()
            .copied()
            .max()
            .unwrap_or((a.rows() as u64 + 1) * 8)
    );
    assert_eq!(
        plan.projected_total_partial_bytes,
        plan.projected_partial_bytes.iter().sum::<u64>()
    );

    if plan.budget_satisfied {
        assert!(
            plan.projected_largest_partial_bytes
                .saturating_mul(config.merge_ways as u64)
                <= budget.bytes(),
            "satisfied plan violates largest ({} B) * ways ({}) <= budget ({} B)",
            plan.projected_largest_partial_bytes,
            config.merge_ways,
            budget.bytes()
        );
    } else {
        // The formula must really be unachievable: even a lone column —
        // the finest possible split — overflows budget / 2.
        let row_ptr_bytes = (a.rows() as u64 + 1) * 8;
        let b_rows = row_nnz_histogram(b);
        let finest_largest = a
            .col_nnz()
            .iter()
            .zip(&b_rows)
            .map(|(&ac, &br)| ac as u64 * br as u64 * 12 + row_ptr_bytes)
            .max()
            .unwrap_or(row_ptr_bytes);
        assert!(
            finest_largest.saturating_mul(2) > budget.bytes(),
            "planner gave up although a split with largest {} B fits budget {} B",
            finest_largest,
            budget.bytes()
        );
    }
}

fn assert_planned_run_is_bit_identical(a: &Csr, b: &Csr, plan: &Plan) {
    let expected = algo::gustavson(a, b);
    let (c, report) = StreamingExecutor::new(plan.config.clone())
        .multiply(a, b)
        .expect("planned streaming run failed");
    assert_eq!(
        c, expected,
        "planned config {:?} changed result bits",
        plan.config
    );
    assert!(report.panels >= 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn planned_configs_satisfy_the_budget_invariant_and_bits(
        pair in arb::spgemm_pair(20, 70, ValueClass::SmallInt),
        budget in prop_oneof![
            Just(BUDGETS[0]), Just(BUDGETS[1]), Just(BUDGETS[2]), Just(BUDGETS[3])
        ],
        threads in 1usize..3,
    ) {
        let (a, b) = pair;
        let budget = MemoryBudget::from_bytes(budget);
        let stats = OperandStats::from_csr(&a);
        let b_rows = row_nnz_histogram(&b);
        let plan = KnobPlanner::new(budget)
            .with_threads(threads)
            .plan(&stats, &BRows::Histogram(&b_rows));
        check_plan(&plan, budget, &a, &b);
        assert_planned_run_is_bit_identical(&a, &b, &plan);
    }
}

/// The deterministic tour the property test samples: seeds × budgets ×
/// threads, so failures name their reproducer. Also pins that the
/// average-fill projection (the disk path, where `B`'s row histogram is
/// unknown) obeys the same invariants.
#[test]
fn deterministic_grid_sweep() {
    let pairs = arb::spgemm_pair(24, 90, ValueClass::SmallInt);
    for seed in 0..6u64 {
        let (a, b) = arb::sample(&pairs, seed);
        let stats = OperandStats::from_csr(&a);
        let b_rows = row_nnz_histogram(&b);
        for bytes in BUDGETS {
            for threads in [1usize, 2] {
                let budget = MemoryBudget::from_bytes(bytes);
                let planner = KnobPlanner::new(budget).with_threads(threads);
                for b_view in [
                    BRows::Histogram(&b_rows),
                    BRows::Average {
                        nnz: b.nnz() as u64,
                    },
                ] {
                    let plan = planner.plan(&stats, &b_view);
                    assert!(plan.config.panels >= 1 && plan.config.merge_ways >= 2);
                    assert_eq!(plan.config.budget, budget);
                    if plan.budget_satisfied {
                        assert!(
                            plan.projected_largest_partial_bytes
                                .saturating_mul(plan.config.merge_ways as u64)
                                <= bytes,
                            "seed {seed} budget {bytes} threads {threads}"
                        );
                    }
                }
                let plan = planner.plan(&stats, &BRows::Histogram(&b_rows));
                check_plan(&plan, budget, &a, &b);
                assert_planned_run_is_bit_identical(&a, &b, &plan);
            }
        }
    }
}

/// The decisions themselves, pinned: the full [`Plan`] (chosen knobs and
/// every projection they were chosen from) for three generated operands
/// under two budgets each. Restructuring how candidates are priced must
/// not move a single field.
#[test]
fn plans_match_the_pinned_decisions() {
    use sparch_sparse::gen;
    let operands = [
        (gen::rmat_graph500(192, 6, 3), [(128u64, 1usize), (256, 4)]),
        (gen::block_sparse(96, 96, 8, 0.2, 5), [(8, 2), (256, 1)]),
        (gen::banded(128, 3, 40, 1), [(16, 1), (512, 4)]),
    ];
    let mut pinned = PINNED_PLANS.iter();
    for (a, cases) in &operands {
        let stats = OperandStats::from_csr(a);
        let rows = row_nnz_histogram(a);
        for &(budget_kb, threads) in cases {
            let plan = KnobPlanner::new(MemoryBudget::from_kb(budget_kb))
                .with_threads(threads)
                .plan(&stats, &BRows::Histogram(&rows));
            let want: Plan = serde_json::from_str(pinned.next().expect("six pinned plans"))
                .expect("pinned plan parses");
            assert_eq!(plan, want, "budget {budget_kb} KiB, {threads} thread(s)");
        }
    }
}

/// `serde_json::to_string(&plan)` of each case above, in order.
const PINNED_PLANS: [&str; 6] = [
    r#"{"config":{"budget":{"bytes":131072},"panels":48,"balance":"Uniform","merge_ways":2,"spill_codec":"Varint","threads":1,"spill_dir":null},"projected_partial_bytes":[60812,14744,12452,3512,13952,2504,2648,1796,14636,3656,3308,1748,2672,1616,1724,1580,11024,2180,3752,1808,3560,1700,1832,1556,2840,1676,1616,1544,1964,1544,1580,1556,13028,3908,2876,1760,2060,1856,1616,1568,4292,1796,1736,1556,1856,1544,1544,1556],"projected_largest_partial_bytes":60812,"projected_total_partial_bytes":229644,"projected_merge_weight":44194,"projected_spill_bytes":473368,"col_skew":13.134328358208956,"budget_satisfied":true}"#,
    r#"{"config":{"budget":{"bytes":262144},"panels":7,"balance":"Nnz","merge_ways":4,"spill_codec":"Raw","threads":4,"spill_dir":null},"projected_partial_bytes":[60044,27824,26552,10376,16184,17180,8180],"projected_largest_partial_bytes":60044,"projected_total_partial_bytes":166340,"projected_merge_weight":16773,"projected_spill_bytes":0,"col_skew":13.134328358208956,"budget_satisfied":true}"#,
    r#"{"config":{"budget":{"bytes":8192},"panels":2,"balance":"Nnz","merge_ways":2,"spill_codec":"Varint","threads":2,"spill_dir":null},"projected_partial_bytes":[369416,215816],"projected_largest_partial_bytes":369416,"projected_total_partial_bytes":585232,"projected_merge_weight":48640,"projected_spill_bytes":577040,"col_skew":2.4,"budget_satisfied":false}"#,
    r#"{"config":{"budget":{"bytes":262144},"panels":44,"balance":"Uniform","merge_ways":4,"spill_codec":"Varint","threads":1,"spill_dir":null},"projected_partial_bytes":[5384,5384,6920,9992,9992,3848,776,776,65288,65288,65288,65288,5384,5384,5384,5384,19208,19208,19208,19208,19208,19208,19208,19208,3848,3848,3848,3848,9992,9992,9992,9992,6920,6920,6920,6920,9992,9992,9992,9992,3848,3848,3848,3848],"projected_largest_partial_bytes":65288,"projected_total_partial_bytes":617824,"projected_merge_weight":118272,"projected_spill_bytes":1191264,"col_skew":2.4,"budget_satisfied":true}"#,
    r#"{"config":{"budget":{"bytes":16384},"panels":32,"balance":"Uniform","merge_ways":4,"spill_codec":"Varint","threads":1,"spill_dir":null},"projected_partial_bytes":[2616,3552,3552,3564,3552,3384,3720,3816,3468,3552,3468,3720,3816,3720,3552,3552,3636,3648,3384,3468,3552,3468,3552,3636,3732,3564,3732,3732,3636,3552,3384,2760],"projected_largest_partial_bytes":3816,"projected_total_partial_bytes":113040,"projected_merge_weight":17758,"projected_spill_bytes":229736,"col_skew":1.2494577006507592,"budget_satisfied":true}"#,
    r#"{"config":{"budget":{"bytes":524288},"panels":4,"balance":"Uniform","merge_ways":4,"spill_codec":"Raw","threads":4,"spill_dir":null},"projected_partial_bytes":[20532,21624,21120,20868],"projected_largest_partial_bytes":21624,"projected_total_partial_bytes":84144,"projected_merge_weight":6668,"projected_spill_bytes":0,"col_skew":1.2494577006507592,"budget_satisfied":true}"#,
];
