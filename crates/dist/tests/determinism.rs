//! Bit-identity of the distributed backend against the single-node
//! streaming pipeline — the property the whole design exists to keep.
//!
//! The coordinator ships the very `ExecPlan` [`StreamingExecutor::multiply`]
//! executes, and the workers run the same kernels in the plan's fold
//! order, so the two reports count the same decomposition (by
//! construction — asserted per grid cell) and the result must match the
//! single-node run *bit for bit* — not to tolerance — at every shard
//! count, panel count, merge-worker count and memory budget, and even
//! when a straggler forces a duplicate dispatch.

mod common;

use common::{assert_bits_equal, dist_config};
use sparch_dist::{DistConfig, DistCoordinator};
use sparch_sparse::{algo, gen, Csr};
use sparch_stream::{MemoryBudget, StreamConfig, StreamingExecutor};
use std::time::Duration;

/// Float-valued operands: panel regrouping would drift through a naive
/// reduction, so bit-equality here certifies the shared fold order.
fn float_pair() -> (Csr, Csr) {
    (
        gen::uniform_random(48, 40, 500, 71),
        gen::uniform_random(40, 44, 450, 72),
    )
}

#[test]
fn grid_of_shards_panels_workers_and_budgets_is_bit_identical() {
    let (a, b) = float_pair();
    for budget in [MemoryBudget::from_bytes(0), MemoryBudget::unbounded()] {
        for panels in 1..=6 {
            let base = StreamConfig {
                budget,
                panels,
                ..StreamConfig::pinned()
            };
            let tag = format!("budget={:?} panels={panels}", budget.bytes());
            let (reference, stream_report) = StreamingExecutor::new(StreamConfig {
                merge_workers: Some(1),
                ..base.clone()
            })
            .multiply(&a, &b)
            .expect("single-node reference run");
            let (two_merge_workers, _) = StreamingExecutor::new(StreamConfig {
                merge_workers: Some(2),
                ..base.clone()
            })
            .multiply(&a, &b)
            .expect("two-merge-worker run");
            assert_bits_equal(&reference, &two_merge_workers, &format!("{tag} mw=2"));

            for shards in [1usize, 2, 4, 8] {
                let cfg = DistConfig {
                    stream: base.clone(),
                    ..dist_config(shards)
                };
                let (c, report) = DistCoordinator::new(cfg)
                    .multiply(&a, &b)
                    .unwrap_or_else(|e| panic!("{tag} shards={shards}: {e}"));
                assert_bits_equal(&c, &reference, &format!("{tag} shards={shards}"));
                assert_eq!(report.output_nnz as usize, reference.nnz());
                assert_eq!(
                    (
                        report.panels,
                        report.partials,
                        report.merge_rounds as usize,
                        report.merge_ways
                    ),
                    (
                        stream_report.panels,
                        stream_report.partials,
                        stream_report.merge_rounds,
                        stream_report.merge_ways
                    ),
                    "{tag} shards={shards}: one plan, one set of counters"
                );
                assert_eq!(report.retries, 0, "{tag}: clean runs never retry");
                assert_eq!(report.respawns, 0, "{tag}: clean runs never respawn");
            }
        }
    }
}

#[test]
fn integer_operands_match_gustavson_exactly_through_the_fleet() {
    // Integer-valued entries make every fold order exact, so the
    // distributed result must equal the dense-reference product — and
    // the single-node pipeline — with zero tolerance.
    let strategy = gen::arb::spgemm_pair(40, 400, gen::arb::ValueClass::SmallInt);
    for seed in [5u64, 17, 23] {
        let (a, b) = gen::arb::sample(&strategy, seed);
        let (c, _) = DistCoordinator::new(dist_config(3))
            .multiply(&a, &b)
            .expect("distributed run");
        let (single, _) = StreamingExecutor::new(StreamConfig::pinned())
            .multiply(&a, &b)
            .expect("single-node run");
        assert_bits_equal(&c, &single, &format!("seed {seed} dist vs single-node"));
        assert_eq!(c, algo::gustavson(&a, &b), "seed {seed} dist vs gustavson");
    }
}

#[test]
fn empty_and_degenerate_shapes_short_circuit() {
    // An all-empty A prunes every panel: no fleet is spawned, and the
    // result is the empty product, same as the single-node executor.
    let a = Csr::zero(9, 7);
    let b = gen::uniform_random(7, 5, 20, 3);
    let (c, report) = DistCoordinator::new(dist_config(4))
        .multiply(&a, &b)
        .expect("empty product");
    assert_eq!(c, Csr::zero(9, 5));
    assert_eq!(report.partials, 0);
    assert_eq!(report.dispatches, 0);
}

#[test]
fn injected_straggler_changes_timing_but_not_bits() {
    let (a, b) = float_pair();
    let base = StreamConfig {
        panels: 4,
        ..StreamConfig::pinned()
    };
    let (reference, _) = StreamingExecutor::new(base.clone())
        .multiply(&a, &b)
        .expect("single-node reference run");
    // Worker 0 sleeps 400 ms before every job while heartbeating
    // normally; the coordinator must route around it by duplicating the
    // overdue job onto an idle worker — never by killing it.
    let cfg = DistConfig {
        stream: base,
        straggler_after: Some(Duration::from_millis(50)),
        fault: Some("0:stall:400".into()),
        ..dist_config(2)
    };
    let (c, report) = DistCoordinator::new(cfg)
        .multiply(&a, &b)
        .expect("straggler run");
    assert_bits_equal(&c, &reference, "straggler run");
    assert!(
        report.straggler_redispatches >= 1,
        "expected at least one straggler duplicate, report: {report:?}"
    );
    assert_eq!(
        report.heartbeat_timeouts, 0,
        "a heartbeating straggler must not be declared dead"
    );
}
