//! The determinism guard: the sweep's record is bit-identical no matter
//! how many worker threads run it.
//!
//! Every model-driven field is compared (simulated cycles, GFLOPS,
//! traffic, energy and area of every simulation; the OuterSPACE model;
//! the operands' statistics and densities). The software baselines
//! wall-clock the host and are inherently noisy, so they are left out.

use sparch_bench::{catalog, sweep, SuiteEntry, Sweep};
use sparch_exec::ShardPool;

/// A small, fast suite subset (the smallest published shapes).
fn subset() -> Vec<SuiteEntry> {
    let names = ["facebook", "wiki-Vote", "p2p-Gnutella31", "ca-CondMat"];
    let picked: Vec<SuiteEntry> = catalog()
        .into_iter()
        .filter(|e| names.contains(&e.name))
        .collect();
    assert_eq!(picked.len(), names.len());
    picked
}

/// Every model-driven field of `s`, as JSON.
fn model_json(s: &Sweep) -> String {
    let suite: Vec<_> = s
        .suite
        .iter()
        .map(|r| (&r.entry, &r.matrix, &r.task, &r.outerspace, &r.sim))
        .collect();
    let rmat: Vec<_> = s
        .rmat
        .iter()
        .map(|r| (&r.name, r.density, &r.sim))
        .collect();
    serde_json::to_string_pretty(&(s.scale, suite, rmat, &s.ladders)).expect("serialize record")
}

#[test]
fn sweep_is_bit_identical_across_thread_counts() {
    let entries = subset();
    let run = |threads| sweep::run(&entries, 0.002, ShardPool::new(threads));
    let t1 = run(1);
    let json = model_json(&t1);
    assert_eq!(json, model_json(&run(2)), "1 vs 2 threads");
    assert_eq!(json, model_json(&run(8)), "1 vs 8 threads");

    // The records come back in submission order and carry signal.
    let names: Vec<&str> = t1.suite.iter().map(|r| r.entry.name).collect();
    let expected: Vec<&str> = entries.iter().map(|e| e.name).collect();
    assert_eq!(names, expected);
    assert_eq!(t1.rmat.len(), sweep::RMAT.len());
    assert!(t1.suite.iter().all(|r| r.sim.perf.cycles > 0));
    assert!(t1
        .ladders
        .iter()
        .all(|r| r.sims.len() == 4usize.div_ceil(r.step)));
}
