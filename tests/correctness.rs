//! Cross-crate correctness: the simulated accelerator must produce
//! bit-meaningful results identical (up to float summation order) to every
//! software SpGEMM algorithm, across matrix families and shapes, and its
//! reports must be deterministic. Every simulator configuration the
//! differential oracle draws is checked there (`tests/oracle.rs`).

use sparch::core::{SpArchConfig, SpArchSim};
use sparch::engine::{item, MergeTree, MergeTreeConfig};
use sparch::sparse::{algo, gen, Csr};

fn families(seed: u64) -> Vec<(&'static str, Csr)> {
    vec![
        ("uniform", gen::uniform_random(150, 150, 900, seed)),
        ("rmat", gen::rmat_graph500(192, 6, seed)),
        ("poisson", gen::poisson3d(6, 6, 5)),
        ("banded", gen::banded(120, 2, 60, seed)),
        ("powerlaw", gen::powerlaw_rows(160, 1300, 1.6, seed)),
        ("blocks", gen::block_sparse(128, 128, 8, 0.15, seed)),
    ]
}

#[test]
fn simulator_matches_all_software_algorithms() {
    let sim = SpArchSim::new(SpArchConfig::default());
    for (name, a) in families(3) {
        let report = sim.run(&a, &a);
        let refs: Vec<(&str, Csr)> = vec![
            ("gustavson", algo::gustavson(&a, &a)),
            ("hash", algo::hash_spgemm(&a, &a)),
            ("heap", algo::heap_spgemm(&a, &a)),
            ("sort_merge", algo::sort_merge(&a, &a)),
            ("outer", algo::outer_product(&a, &a)),
        ];
        for (algo_name, reference) in refs {
            assert!(
                report.result().approx_eq(&reference, 1e-9),
                "{name}: simulator disagrees with {algo_name}"
            );
        }
    }
}

#[test]
fn simulator_exact_on_rectangular_chains() {
    // W1 (40x64) x A (64x32), then W2 (24x40) x that result.
    let w1 = gen::uniform_random(40, 64, 320, 5);
    let a = gen::uniform_random(64, 32, 256, 6);
    let sim = SpArchSim::new(SpArchConfig::default());
    let first = sim.run(&w1, &a);
    assert!(first.result().approx_eq(&algo::gustavson(&w1, &a), 1e-9));
    let w2 = gen::uniform_random(24, 40, 200, 7);
    let second = sim.run(&w2, first.result());
    assert!(second
        .result()
        .approx_eq(&algo::gustavson(&w2, first.result()), 1e-9));
}

#[test]
fn engine_merge_tree_agrees_with_outer_product_partials() {
    // Feed the cycle-level merge tree the real partial matrices of an
    // outer product and compare with the software product.
    let a = gen::uniform_random(48, 30, 260, 8);
    let b = gen::uniform_random(30, 52, 260, 9);
    let partials = algo::outer_product_partials(&a, &b);
    assert!(partials.len() <= 64, "fits one tree round");
    let inputs: Vec<Vec<sparch::engine::MergeItem>> =
        partials.iter().map(|p| item::stream_of(p)).collect();
    let tree = MergeTree::new(MergeTreeConfig::default());
    let (merged, stats) = tree.merge(inputs);
    assert!(item::is_sorted_unique(&merged));
    assert_eq!(stats.output_elements as usize, merged.len());

    let mut builder = sparch::sparse::CsrBuilder::new(a.rows(), b.cols());
    for m in &merged {
        builder.push(m.row(), m.col(), m.value);
    }
    let from_tree = builder.finish();
    assert!(
        from_tree.approx_eq(&algo::gustavson(&a, &b), 1e-9),
        "cycle-level tree result differs from software product"
    );
}

#[test]
fn deterministic_reports() {
    let a = gen::rmat_graph500(128, 4, 13);
    let sim = SpArchSim::new(SpArchConfig::default());
    let r1 = sim.run(&a, &a);
    let r2 = sim.run(&a, &a);
    assert_eq!(r1.perf, r2.perf);
    assert_eq!(r1.traffic, r2.traffic);
    assert_eq!(r1.result(), r2.result());
}
