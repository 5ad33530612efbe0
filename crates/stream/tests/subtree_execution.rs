//! Executing a plan it is handed, one subtree at a time.
//!
//! The root subtree is the whole multiply, and a handed-in plan that
//! disagrees with the panels the reader sees is a typed
//! [`StreamError::Shape`], never a panic. That every cut of the plan is
//! bit-identical to the whole-plan run is checked by the facade's
//! differential oracle (`tests/oracle.rs`).

use sparch_sparse::{gen, Csr};
use sparch_stream::{
    ExecPlan, MemoryBudget, PanelBalance, StreamConfig, StreamError, StreamingExecutor,
};

fn config(panels: usize, ways: usize, balance: PanelBalance, budget: u64) -> StreamConfig {
    StreamConfig {
        budget: MemoryBudget::from_bytes(budget),
        panels,
        balance,
        merge_ways: ways,
        threads: Some(2),
        ..StreamConfig::default()
    }
}

fn plan_for(a: &Csr, cfg: &StreamConfig) -> ExecPlan {
    ExecPlan::for_operand(&a.col_nnz(), cfg.panels, cfg.balance, cfg.merge_ways)
}

/// The `(A column panel, B row panel)` of each leaf under `node`.
fn pairs_under(plan: &ExecPlan, node: usize, a: &Csr, b: &Csr) -> Vec<(Csr, Csr)> {
    plan.subtree(node)
        .leaves
        .iter()
        .map(|&leaf| {
            let r = plan.leaf_range(leaf).clone();
            (a.col_panel(r.clone()), b.row_panel(r))
        })
        .collect()
}

fn assert_bits_equal(x: &Csr, y: &Csr, what: &str) {
    assert_eq!(x, y, "{what}");
    for (i, (p, q)) in x.values().iter().zip(y.values()).enumerate() {
        assert_eq!(p.to_bits(), q.to_bits(), "{what}: value {i}");
    }
}

#[test]
fn the_root_subtree_is_the_whole_multiply_and_empty_plans_have_none() {
    let a = gen::uniform_random(40, 48, 300, 3);
    let b = gen::uniform_random(48, 36, 280, 4);
    let exec = StreamingExecutor::new(config(6, 4, PanelBalance::Nnz, 0));
    let (reference, whole) = exec.multiply(&a, &b).unwrap();
    let plan = plan_for(&a, exec.config());
    let root = plan.root().unwrap();
    let pairs = pairs_under(&plan, root, &a, &b);
    let (c, report) = exec
        .multiply_subtree(a.rows(), b.cols(), plan, root, pairs)
        .unwrap();
    assert_bits_equal(&c, &reference, "root subtree");
    assert_eq!(report.without_timing(), whole.without_timing());

    // An all-pruned plan has no node to ask for.
    let empty = plan_for(&Csr::zero(5, 8), exec.config());
    assert!(matches!(
        exec.multiply_subtree(5, 3, empty, 0, Vec::new()),
        Err(StreamError::Shape(_))
    ));
}

#[test]
fn panels_that_disagree_with_the_handed_plan_are_a_shape_error() {
    let a = gen::uniform_random(30, 40, 260, 5);
    let b = gen::uniform_random(40, 24, 200, 6);
    let exec = StreamingExecutor::new(config(5, 2, PanelBalance::Uniform, u64::MAX));
    let plan = plan_for(&a, exec.config());
    let root = plan.root().unwrap();
    let good = pairs_under(&plan, root, &a, &b);
    let run = |node: usize, pairs: Vec<(Csr, Csr)>| {
        exec.multiply_subtree(a.rows(), b.cols(), plan.clone(), node, pairs)
    };
    let shape_error =
        |what: &str, outcome: Result<(Csr, _), StreamError>, needle: &str| match outcome {
            Err(StreamError::Shape(msg)) => assert!(msg.contains(needle), "{what}: {msg}"),
            other => panic!("{what}: expected a shape error, got {other:?}"),
        };

    shape_error(
        "a node past the plan",
        run(plan.num_nodes(), good.clone()),
        "not one of the plan's",
    );
    shape_error(
        "one panel short",
        run(root, good[..good.len() - 1].to_vec()),
        "short of the plan",
    );
    let mut surplus = good.clone();
    surplus.push(good[0].clone());
    shape_error(
        "one panel too many",
        run(root, surplus),
        "after the plan's last leaf",
    );
    // The right shapes and count, but a different matrix's panels: the
    // non-zero counts the plan was built from give it away.
    let other = gen::uniform_random(30, 40, 150, 7);
    let wrong_nnz = pairs_under(&plan, root, &other, &b);
    shape_error(
        "another operand's panels",
        run(root, wrong_nnz),
        "where the plan's leaf",
    );
    // Panels out of leaf order.
    let mut swapped = good.clone();
    swapped.swap(0, 1);
    shape_error(
        "panels out of order",
        run(root, swapped),
        "where the plan's leaf",
    );
    // A leaf's own panel, but the wrong B width.
    let leaf = plan.subtree(root).leaves[0];
    let (a0, _) = good[0].clone();
    let narrow_b = Csr::zero(plan.leaf_range(leaf).len(), 7);
    shape_error(
        "B of the wrong width",
        run(leaf, vec![(a0, narrow_b)]),
        "B panel",
    );
    // And the same entry point still works afterwards.
    assert!(run(root, good).is_ok());
}
