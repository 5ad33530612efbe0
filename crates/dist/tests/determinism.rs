//! Bit-identity of the distributed backend against the single-node
//! streaming pipeline — the property the whole design exists to keep.
//!
//! The coordinator cuts the very `ExecPlan` [`StreamingExecutor::multiply`]
//! executes into subtrees, the workers run them through the same
//! pipeline and the rounds above the cut fold here with the same kernel,
//! every round with its children in the plan's fold order — so the two
//! reports count the same decomposition (by construction — asserted per
//! grid cell) and the result must match the single-node run *bit for
//! bit* — not to tolerance — at every shard count, panel count and
//! memory budget, and even when a straggler forces a duplicate dispatch.
//! Every cut of every drawn plan shape (fan-in, balance, threads, shards)
//! is the differential oracle's `fleet` test (`tests/oracle.rs`).

mod common;

use common::{assert_bits_equal, dist_config, plan_of};
use sparch_dist::{DistConfig, DistCoordinator};
use sparch_obs::{Recorder, Span};
use sparch_sparse::{algo, gen, Coo, Csr};
use sparch_stream::merge::{lone_round_bands, BAND_MIN_ENTRIES};
use sparch_stream::{
    spill, MemoryBudget, PanelBalance, SpillCodec, StreamConfig, StreamingExecutor,
};
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
                threads: Some(1),
                ..base.clone()
            })
            .multiply(&a, &b)
            .expect("single-node reference run");
            let (two_threads, _) = StreamingExecutor::new(StreamConfig {
                threads: Some(2),
                ..base.clone()
            })
            .multiply(&a, &b)
            .expect("two-thread run");
            assert_bits_equal(&reference, &two_threads, &format!("{tag} threads=2"));

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
fn inputs_cross_the_wire_once_and_nothing_else_goes_out() {
    // The benchmark's shape: 2 shards, 16 panels, 4-way. The cut is the
    // root's four children, so each leaf pair rides in exactly one job
    // frame and only the root round folds here. Sent bytes count job
    // frames and the shutdowns — heartbeats flow the other way — so the
    // bound is free of timing noise.
    let a = gen::uniform_random(240, 240, 240 * 8, 95);
    let stream = StreamConfig {
        panels: 16,
        merge_ways: 4,
        spill_codec: SpillCodec::Varint,
        ..StreamConfig::pinned()
    };
    let plan = plan_of(&a, &stream);
    let encoded_inputs: usize = plan
        .leaf_ranges()
        .map(|r| {
            spill::encode_partial(&a.col_panel(r.clone()), stream.spill_codec).len()
                + spill::encode_partial(&a.row_panel(r.clone()), stream.spill_codec).len()
        })
        .sum();
    let (reference, _) = StreamingExecutor::new(stream.clone())
        .multiply(&a, &a)
        .expect("single-node reference run");
    let cfg = DistConfig {
        stream,
        ..dist_config(2)
    };
    let (c, report) = DistCoordinator::new(cfg)
        .multiply(&a, &a)
        .expect("fleet run");
    assert_bits_equal(&c, &reference, "traffic pin");
    assert_eq!((report.partials, report.merge_rounds), (16, 5));
    assert_eq!((report.jobs, report.coordinator_rounds), (4, 1));
    assert_eq!(
        report.dispatches, 4,
        "each job — so each leaf pair — sent once"
    );
    let sent = report.wire_bytes_sent as usize;
    assert!(
        sent >= encoded_inputs && sent * 10 <= encoded_inputs * 11,
        "sent {sent} bytes for {encoded_inputs} bytes of encoded inputs"
    );
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
    assert_eq!((report.jobs, report.dispatches), (0, 0));

    // One live panel out of four: the lone leaf is the root, the one job
    // and the whole run — no round anywhere, on any fleet size.
    let entries = (0..9u32).map(|r| (r, r % 2, 0.5 + f64::from(r))).collect();
    let a = Coo::from_entries(9, 7, entries).to_csr();
    for shards in [1, 4] {
        let cfg = DistConfig {
            stream: StreamConfig {
                balance: PanelBalance::Uniform,
                ..StreamConfig::pinned()
            },
            ..dist_config(shards)
        };
        let (single, _) = StreamingExecutor::new(cfg.stream.clone())
            .multiply(&a, &b)
            .expect("single-node run");
        let (c, report) = DistCoordinator::new(cfg)
            .multiply(&a, &b)
            .expect("one-leaf product");
        assert_bits_equal(&c, &single, "one-leaf plan");
        assert_eq!(
            (report.panels, report.partials, report.merge_rounds),
            (4, 1, 0)
        );
        assert_eq!(
            (report.jobs, report.coordinator_rounds, report.dispatches),
            (1, 0, 1)
        );
    }
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

/// The root fold, once every job is done, has the host to itself: on
/// R-MAT(2048, 8)² it holds enough entries for two row bands, so on any
/// host with two or more threads its `coordinator-merge` span shows it
/// cut into bands — and the fleet product stays bit-identical to the
/// one-thread single-node run.
#[test]
fn a_lone_root_fold_bands_over_the_host_threads_bit_identically() {
    let r = gen::rmat_graph500(2048, 8, 7);
    let values = (0..r.nnz())
        .map(|k| 1.0 + (k as f64 * 0.61).sin())
        .collect();
    let (rp, ci) = (r.row_ptr().to_vec(), r.col_indices().to_vec());
    let a = Csr::try_new(r.rows(), r.cols(), rp, ci, values).unwrap();
    let stream = StreamConfig {
        budget: MemoryBudget::unbounded(),
        panels: 16,
        merge_ways: 4,
        ..StreamConfig::pinned()
    };
    let (reference, _) = StreamingExecutor::new(StreamConfig {
        threads: Some(1),
        ..stream.clone()
    })
    .multiply(&a, &a)
    .expect("single-node reference run");
    let coordinator = DistCoordinator::new(DistConfig {
        stream,
        ..dist_config(2)
    })
    .with_recorder(Recorder::enabled());
    let (c, report) = coordinator.multiply(&a, &a).expect("fleet run");
    assert_bits_equal(&c, &reference, "banded root fold");

    let trace = coordinator.recorder().drain("dist");
    let arg = |span: &Span, key: &str| {
        let found = span.args.iter().find(|x| x.key == key);
        found
            .unwrap_or_else(|| panic!("coordinator-merge without {key}"))
            .value
    };
    let folds = trace.spans.iter().filter(|s| s.name == "coordinator-merge");
    let root = folds
        .max_by_key(|s| arg(s, "round"))
        .expect("a coordinator fold");
    assert_eq!(arg(root, "round") + 1, report.merge_rounds);
    let triples = arg(root, "triples") as usize;
    assert!(
        triples >= 2 * BAND_MIN_ENTRIES,
        "root fold of {triples} triples"
    );
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let bands = arg(root, "bands") as usize;
    assert_eq!(bands, lone_round_bands(triples, threads));
    assert!(
        threads == 1 || bands >= 2,
        "{threads} threads, {bands} band(s)"
    );
}
