//! The calling thread runs the streaming pipeline.
//!
//! It pulls the panel pairs itself, folds every round of fewer than
//! `BAND_MIN_ENTRIES` input entries in place, and starts the merge
//! workers only for a larger round and the spill writer only under a
//! bounded budget. The first test reads that rule off the lanes an
//! enabled recorder declares, at 1, 2 and 8 threads, with the same bits
//! at each. The others drive the single loop's failures — a stream that
//! fails, ends short or runs long, a spill volume that cannot be
//! written — on an operand whose rounds all fold in place and on one
//! whose rounds all reach the merge workers: each must end the run with
//! its typed error within a minute, pull no pair after the failure and
//! leave no spill directory behind.

use sparch_obs::Recorder;
use sparch_sparse::{gen, Csr};
use sparch_stream::merge::BAND_MIN_ENTRIES;
use sparch_stream::tempdir::TempDir;
use sparch_stream::{
    ExecPlan, MemoryBudget, PanelBalance, StreamConfig, StreamError, StreamingExecutor,
};
use std::cell::Cell;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

/// An operand and the plan knobs it is squared under.
#[derive(Clone)]
struct Case {
    name: &'static str,
    a: Csr,
    panels: usize,
    ways: usize,
}

/// Every round folds a few hundred entries, on the calling thread.
fn small() -> Case {
    Case {
        name: "small",
        a: gen::uniform_random(96, 96, 700, 11),
        panels: 8,
        ways: 2,
    }
}

/// Uniform(1024, 32 per row): each leaf's rows are bounded at about
/// 1.3 × 10⁵ entries at 8 panels, so every two-way round reaches the
/// merge workers.
fn workers() -> Case {
    Case {
        name: "workers",
        a: gen::uniform_random(1024, 1024, 1024 * 32, 12),
        panels: 8,
        ways: 2,
    }
}

/// Uniform(1024, 16 per row) at 16 panels and 4 ways: each round of four
/// leaves folds about 6.5 × 10⁴ input entries, in place, and the root
/// about 2.5 × 10⁵, on the merge workers.
fn mixed() -> Case {
    Case {
        name: "mixed",
        a: gen::uniform_random(1024, 1024, 1024 * 16, 13),
        panels: 16,
        ways: 4,
    }
}

fn executor(
    case: &Case,
    budget: MemoryBudget,
    threads: usize,
    spill_dir: PathBuf,
) -> StreamingExecutor {
    StreamingExecutor::new(StreamConfig {
        budget,
        panels: case.panels,
        balance: PanelBalance::Nnz,
        merge_ways: case.ways,
        threads: Some(threads),
        spill_dir: Some(spill_dir),
        ..StreamConfig::default()
    })
}

fn bits(m: &Csr) -> Vec<u64> {
    m.values().iter().map(|v| v.to_bits()).collect()
}

/// Squares `case` unbounded at `threads` under an enabled recorder.
/// Returns the product, the labels of the lanes the run declared, and
/// each `merge-round` span's lane label and `triples`.
fn traced(case: &Case, threads: usize) -> (Csr, Vec<String>, Vec<(String, u64)>) {
    let dir = TempDir::new("orchestrator_lanes");
    let exec = executor(case, MemoryBudget::unbounded(), threads, dir.path().into())
        .with_recorder(Recorder::enabled());
    let (c, _) = exec.multiply(&case.a, &case.a).unwrap();
    let trace = exec.recorder().drain("stream");
    let label = |tid: u64| {
        let lane = trace.threads.iter().find(|t| t.tid == tid);
        lane.expect("every span's lane is declared").label.clone()
    };
    let rounds = trace.spans.iter().filter(|s| s.name == "merge-round");
    let rounds = rounds
        .map(|s| {
            let triples = s.args.iter().find(|x| x.key == "triples");
            (label(s.tid), triples.expect("merge-round triples").value)
        })
        .collect();
    let lanes = trace.threads.iter().map(|t| t.label.clone()).collect();
    (c, lanes, rounds)
}

/// A small unbounded call declares the orchestrator's lane alone, with
/// every `merge-round` span on it: no merge worker and no spill writer
/// ran. A call with a round of at least `BAND_MIN_ENTRIES` entries folds
/// it on a merge lane — one per thread, spawned for it — while its
/// smaller rounds stay on the orchestrator's. Both products carry the
/// same bits at 1, 2 and 8 threads.
#[test]
fn small_rounds_fold_in_place_and_large_ones_on_merge_workers() {
    let (small, mixed) = (small(), mixed());
    let (want_small, want_mixed) = (traced(&small, 1).0, traced(&mixed, 1).0);
    let large = BAND_MIN_ENTRIES as u64;
    for threads in [1, 2, 8] {
        let (c, lanes, rounds) = traced(&small, threads);
        assert_eq!(bits(&c), bits(&want_small), "small, {threads} thread(s)");
        assert_eq!(c, want_small);
        assert!(
            lanes.len() == 1 && lanes[0].starts_with("orchestrator"),
            "small, {threads} thread(s): lanes {lanes:?}"
        );
        assert_eq!(rounds.len(), small.panels - 1);
        assert!(rounds.iter().all(|(lane, _)| *lane == lanes[0]));

        let (c, lanes, rounds) = traced(&mixed, threads);
        assert_eq!(bits(&c), bits(&want_mixed), "mixed, {threads} thread(s)");
        assert_eq!(c, want_mixed);
        let merge_lanes = lanes.iter().filter(|l| l.starts_with("merge")).count();
        assert_eq!(merge_lanes, threads, "mixed: lanes {lanes:?}");
        assert!(!lanes.iter().any(|l| l.starts_with("spill-writer")));
        for (lane, triples) in &rounds {
            assert!(
                *triples < large || lane.starts_with("merge"),
                "a round of {triples} entries folded on {lane}"
            );
        }
        let on = |prefix: &str| rounds.iter().filter(|(l, _)| l.starts_with(prefix)).count();
        assert!(
            rounds.iter().any(|&(_, triples)| triples >= large),
            "mixed: no round reached {large} entries: {rounds:?}"
        );
        assert!(
            on("orchestrator") > 0,
            "mixed: no round folded in place: {rounds:?}"
        );
    }
}

/// Runs `f` on its own thread and fails the test if it takes more than
/// a minute: a wedged pipeline must fail the suite, not hang it.
fn promptly<T: Send + 'static>(what: String, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(Duration::from_secs(60)) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("{what}: the run hung"),
        Err(RecvTimeoutError::Disconnected) => panic!("{what}: the run panicked"),
    }
}

/// `items`, counting every pull in `pulls` — a pull after the stream
/// failed or ended counts too. `Rc` keeps the stream on one thread: the
/// pipeline pulls it on the caller's.
fn counting<I: Iterator>(items: I, pulls: &Rc<Cell<usize>>) -> impl Iterator<Item = I::Item> {
    let (mut items, pulls) = (items, Rc::clone(pulls));
    std::iter::from_fn(move || {
        pulls.set(pulls.get() + 1);
        items.next()
    })
}

/// The plan `case` is squared under and its leaves' panel pairs in
/// production order.
fn leaf_pairs(case: &Case) -> (ExecPlan, Vec<(Csr, Csr)>) {
    let a = &case.a;
    let plan = ExecPlan::for_operand(&a.col_nnz(), case.panels, PanelBalance::Nnz, case.ways);
    let pairs = plan.production_order().into_iter().map(|leaf| {
        let r = plan.leaf_range(leaf).clone();
        (a.col_panel(r.clone()), a.row_panel(r))
    });
    let pairs = pairs.collect();
    (plan, pairs)
}

/// How a scenario feeds its run; each yields the run's outcome and the
/// pulls it made.
#[derive(Clone, Copy, Debug)]
enum Feed {
    /// Both operand streams of `multiply_streams`, the A stream failing
    /// at its fifth panel.
    FailingAtFive,
    /// The subtree's pairs but the last.
    Short,
    /// The subtree's pairs and one more.
    Surplus,
    /// Every pair, with the spill directory under a regular file.
    Blocked,
}

const FAIL_AT: usize = 5;

fn run(
    case: &Case,
    feed: Feed,
    threads: usize,
    spill_dir: PathBuf,
) -> (Result<(), StreamError>, usize) {
    let exec = executor(case, MemoryBudget::from_bytes(0), threads, spill_dir);
    let pulls = Rc::new(Cell::new(0));
    let (plan, pairs) = leaf_pairs(case);
    let (rows, cols) = (case.a.rows(), case.a.cols());
    let outcome = match feed {
        Feed::FailingAtFive => {
            let a = &case.a;
            let ranges: Vec<_> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
            let order: Vec<_> = plan
                .panel_order()
                .into_iter()
                .map(|p| ranges[p].clone())
                .collect();
            let a_panels = order.clone().into_iter().enumerate().map(|(i, r)| match i {
                FAIL_AT => Err(StreamError::Io("injected read failure".into())),
                _ => Ok((r.clone(), a.col_panel(r))),
            });
            let b_panels = order.into_iter().map(|r| Ok((r.clone(), a.row_panel(r))));
            let a_panels = counting(a_panels, &pulls);
            exec.multiply_streams(rows, cols, plan, a_panels, b_panels)
        }
        Feed::Short | Feed::Surplus | Feed::Blocked => {
            let root = plan.root().expect("a multi-leaf plan");
            let mut pairs = pairs;
            match feed {
                Feed::Short => drop(pairs.pop()),
                Feed::Surplus => pairs.push(pairs[0].clone()),
                _ => {}
            }
            exec.multiply_subtree(rows, cols, plan, root, counting(pairs.into_iter(), &pulls))
        }
    };
    (outcome.map(drop), pulls.get())
}

#[test]
fn a_failed_stream_or_spill_ends_the_run_promptly_and_cleanly() {
    for case in [small(), workers()] {
        let leaves = leaf_pairs(&case).1.len();
        assert_eq!(leaves, case.panels, "{}: a panel was pruned", case.name);
        for feed in [
            Feed::FailingAtFive,
            Feed::Short,
            Feed::Surplus,
            Feed::Blocked,
        ] {
            for threads in [1, 2] {
                let what = format!("{} {feed:?} at {threads} thread(s)", case.name);
                let base = TempDir::new("orchestrator_errors");
                let spill_dir = match feed {
                    Feed::Blocked => {
                        let blocker = base.file("blocker");
                        std::fs::write(&blocker, b"a file, not a directory").unwrap();
                        blocker.join("spills")
                    }
                    _ => base.path().to_path_buf(),
                };
                let (outcome, pulls) = {
                    let (case, spill_dir) = (case.clone(), spill_dir.clone());
                    promptly(what.clone(), move || run(&case, feed, threads, spill_dir))
                };
                let err = outcome.expect_err(&what);
                let msg = err.to_string();
                match (feed, &err) {
                    (Feed::FailingAtFive, StreamError::Io(m)) => {
                        assert_eq!(m, "injected read failure", "{what}");
                        assert_eq!(pulls, FAIL_AT + 1, "{what}: pulled past the failure");
                    }
                    (Feed::Short, StreamError::Shape(m)) => {
                        assert!(m.contains("1 leaf panels short"), "{what}: {m}");
                        assert_eq!(pulls, leaves, "{what}: pulled past the end");
                    }
                    (Feed::Surplus, StreamError::Shape(m)) => {
                        assert!(m.contains("after the plan's last leaf"), "{what}: {m}");
                        assert_eq!(pulls, leaves + 1, "{what}: pulled past the surplus");
                    }
                    (Feed::Blocked, StreamError::Io(m)) => {
                        let blocker = spill_dir.parent().unwrap().to_string_lossy();
                        assert!(m.contains(&*blocker), "{what}: {m}");
                        // The first round's output is the first spill. In
                        // place, it fails as soon as that round's pairs are
                        // in; on the workers, once its result is handled,
                        // which the read window and the dispatch cap put
                        // at most `threads + 1` rounds' pairs in.
                        match case.name {
                            "small" => assert_eq!(pulls, case.ways, "{what}"),
                            _ => assert!(pulls <= (threads + 1) * case.ways, "{what}: {pulls}"),
                        }
                    }
                    _ => panic!("{what}: wrong error {msg}"),
                }
                let left: Vec<_> = std::fs::read_dir(base.path()).unwrap().flatten().collect();
                let left = left.iter().filter(|e| e.file_name() != "blocker").count();
                assert_eq!(left, 0, "{what}: a spill directory was left behind");
            }
        }
    }
}
