//! One differential oracle for every executor.
//!
//! Condensing, Huffman scheduling and prefetching reorder the work of one
//! sum but must return the same product. Every executor in the workspace
//! makes that promise: the in-process backends, the streaming pipeline
//! (fed from memory, from `.mtx` files, or cut into subtrees), the shard
//! fleet, the serving layer and the simulator. This file checks it with
//! one seeded draw, one comparator and one minimizer.
//!
//! **The draw** ([`draw`]) picks an operand pair from one of
//! [`FAMILIES`] families — every `gen` family plus the edge shapes (empty
//! rows and columns, one dense row, `1×n`, `n×1`, inner dimension 1, an
//! all-empty `A`, duplicate-coordinate COO, explicit zeros) — revalues
//! it in one [`ValueClass`] and draws the executor [`Knobs`], the
//! simulator's configuration among them ([`SIM_CONFIGS`]). Draw `s`
//! takes family `s % FAMILIES` and class `(s + s / FAMILIES) % 5`, so any
//! `5 × FAMILIES` consecutive seeds cover every (family, class) pair.
//!
//! **The comparator** has three levels against the anchor,
//! `gustavson_reference` (the seed kernel, which shares no accumulator
//! with the kernels under test):
//!
//! 1. structure (shape, `row_ptr`, `col_idx`) is always equal; on small
//!    finite draws values are also within 1e-9 of the dense `matmul`;
//! 2. every entry's value class (finite, NaN, +∞, −∞) is equal — the
//!    draw asserts that no finite sum can overflow, so the class of a
//!    sum does not depend on its order;
//! 3. bits: runs that share a plan are bit-identical, NaN payloads
//!    included ([`same_bits`]); the integer classes are bit-identical to
//!    the anchor, signed zeros included; finite `Float` agrees to 1e-12.
//!
//! **The minimizer** ([`minimize`]): on a failure, rows, inner indices,
//! columns and entries are dropped greedily, in halving chunks, while
//! the failure holds. The panic names the executor, seed, family, class
//! and knobs, and the minimized operands are written to
//! `temp_dir()/sparch-oracle-<seed>/{a,b}.mtx`, which is left in place.
//!
//! One `#[test]` per executor runs the quick [`corpus`]: the seeded
//! draws plus hand-picked cases. `long_mode` (ignored; run it with
//! `-- --ignored`) runs every executor over many more, larger draws.

use proptest::prelude::Strategy;
use proptest::TestRng;
use sparch::core::{SchedulerKind, SpArchConfig, SpArchSim};
use sparch::dist::{DistConfig, DistCoordinator};
use sparch::serve::{Backend, Batch, DispatchPolicy, OperandDef, OperandSpec, RequestReport};
use sparch::serve::{ServiceConfig, SpgemmService};
use sparch::sparse::gen::arb::ValueClass::{Edge, Float, SmallInt, SmallIntWithZeros, Unit};
use sparch::sparse::gen::arb::{self, ValueClass};
use sparch::sparse::gen::{self, banded, block_sparse, diagonal_noise, powerlaw_rows};
use sparch::sparse::gen::{poisson3d, rmat_graph500 as rmat};
use sparch::sparse::{algo, mm, Coo, Csr, Dense, Index};
use sparch::stream::merge::{merge_sources, MergeScratch, PartialSource};
use sparch::stream::tempdir::TempDir;
use sparch::stream::{ExecPlan, MemoryBudget, PanelBalance, SpillCodec, StreamConfig};
use sparch::stream::{StreamReport, StreamingExecutor};
use std::collections::HashSet;
use std::error::Error;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

/// Operand families a draw picks from (see [`operands`]).
const FAMILIES: u64 = 15;
/// Seeded draws in the quick corpus: every (family, class) pair once.
const QUICK: u64 = 5 * FAMILIES;
/// The largest dimension of a quick draw; the long mode goes larger.
const QUICK_DIM: usize = 40;
/// Operands with more stored entries than this are *big*: only the
/// executors whose merge rounds can band run them.
const BIG_NNZ: usize = 8192;
/// The minimizer stops after this many candidate runs.
const MAX_TRIES: usize = 400;

const CLASSES: [ValueClass; 5] = [SmallInt, SmallIntWithZeros, Unit, Float, Edge];

/// A named simulator configuration, built from the default.
type SimConfig = (&'static str, fn(SpArchConfig) -> SpArchConfig);

/// The simulator configurations a draw picks from: the default and one
/// step from it along each axis the paper varies.
const SIM_CONFIGS: [SimConfig; 8] = [
    ("default", |c| c),
    ("tiny tree", |c| c.with_tree_layers(1)),
    ("narrow merger", |c| c.with_merger_width(2)),
    ("no prefetch", |c| c.without_prefetcher()),
    ("no condensing", |c| c.without_condensing()),
    ("sequential sched", |c| {
        c.with_scheduler(SchedulerKind::Sequential)
    }),
    ("random sched", |c| {
        c.with_scheduler(SchedulerKind::Random(99))
    }),
    ("tiny buffer", |mut c| {
        c.prefetch.lines = 4;
        c.prefetch.line_elems = 8;
        c.prefetch.lookahead = 16;
        c
    }),
];

type Run<T> = Result<T, Box<dyn Error>>;

/// Returns an error naming the first condition that does not hold, with
/// `context` debug-printed after it.
macro_rules! ensure {
    ($context:expr, $($holds:expr),+ $(,)?) => {
        $(let holds: bool = $holds;
        if !holds {
            let context = $context;
            return Err(format!("`{}` fails: {context:?}", stringify!($holds)).into());
        })+
    };
}

/// The executor knobs a draw picks.
#[derive(Debug, Clone)]
struct Knobs {
    panels: usize,
    ways: usize,
    balance: PanelBalance,
    budget: u64,
    codec: SpillCodec,
    threads: usize,
    shards: usize,
    /// The frontier target the cut executor cuts the plan at.
    target: usize,
    /// The simulator's configuration, one of [`SIM_CONFIGS`].
    sim: &'static str,
}

impl Knobs {
    fn draw(rng: &mut TestRng) -> Knobs {
        let mut pick = |xs: &[usize]| xs[rng.below(xs.len() as u64) as usize];
        Knobs {
            panels: pick(&[1, 2, 3, 4, 5, 7, 16, 33]),
            ways: pick(&[2, 3, 4, 8, 64]),
            balance: [PanelBalance::Uniform, PanelBalance::Nnz][pick(&[0, 1])],
            budget: [0, 2 << 10, u64::MAX][pick(&[0, 1, 2])],
            codec: [SpillCodec::Raw, SpillCodec::Varint][pick(&[0, 1])],
            threads: pick(&[1, 2, 8]),
            shards: pick(&[1, 2, 4]),
            target: pick(&[1, 2, 4, 7, 200]),
            // Drawn last: a new knob must not move any seed's earlier knobs.
            sim: SIM_CONFIGS[pick(&[0, 1, 2, 3, 4, 5, 6, 7])].0,
        }
    }

    fn stream(&self) -> StreamConfig {
        StreamConfig {
            budget: MemoryBudget::from_bytes(self.budget),
            panels: self.panels,
            balance: self.balance,
            merge_ways: self.ways,
            spill_codec: self.codec,
            threads: Some(self.threads),
            spill_dir: None,
        }
    }

    fn plan(&self, a: &Csr) -> ExecPlan {
        ExecPlan::for_operand(&a.col_nnz(), self.panels, self.balance, self.ways)
    }
}

/// One oracle case: where it came from (enough to replay it), its
/// operand pair and its anchor.
struct Case {
    seed: u64,
    family: &'static str,
    class: ValueClass,
    knobs: Knobs,
    a: Csr,
    b: Csr,
    anchor: Csr,
    /// The dense product, on small draws of a finite class.
    dense: Option<Dense>,
}

impl Case {
    fn new(
        seed: u64,
        family: &'static str,
        class: ValueClass,
        knobs: Knobs,
        a: Csr,
        b: Csr,
    ) -> Case {
        let bound = max_finite(&a) * max_finite(&b) * a.cols() as f64;
        assert!(bound < f64::MAX / 2.0, "seed {seed}: a sum could overflow");
        let small = a.rows() * a.cols() + b.rows() * b.cols() <= 4096;
        let dense = (small && class != Edge).then(|| a.to_dense().matmul(&b.to_dense()));
        let anchor = algo::gustavson_reference(&a, &b);
        Case {
            seed,
            family,
            class,
            knobs,
            a,
            b,
            anchor,
            dense,
        }
    }

    /// The same case over other operands.
    fn with(&self, a: Csr, b: Csr) -> Case {
        Case::new(self.seed, self.family, self.class, self.knobs.clone(), a, b)
    }
}

/// The largest finite magnitude `m` stores.
fn max_finite(m: &Csr) -> f64 {
    let finite = m.values().iter().filter(|v| v.is_finite());
    finite.fold(0.0, |x, v| v.abs().max(x))
}

/// `m` with stored value `i` replaced by `f(i, value)`.
fn map(m: &Csr, mut f: impl FnMut(usize, f64) -> f64) -> Csr {
    let values = m.values().iter().enumerate().map(|(i, &v)| f(i, v));
    let (rp, ci) = (m.row_ptr().to_vec(), m.col_indices().to_vec());
    Csr::try_new(m.rows(), m.cols(), rp, ci, values.collect()).expect("the same structure")
}

/// `m` with every stored value redrawn from `class`.
fn revalue(m: &Csr, class: ValueClass, rng: &mut TestRng) -> Csr {
    let value = arb::value(class);
    map(m, |_, _| value.generate(rng))
}

/// Moves entry `position` at `(row, col)` to the returned coordinates, or
/// drops it on `None`.
type Move<'a> = &'a dyn Fn(Index, Index, usize) -> Option<[Index; 2]>;

/// A `shape` matrix of `m`'s entries, each moved by `to`.
fn remap(m: &Csr, shape: [usize; 2], to: Move) -> Csr {
    let mut coo = Coo::new(shape[0], shape[1]);
    for (k, (r, c, v)) in m.iter().enumerate() {
        if let Some([r, c]) = to(r, c, k) {
            coo.push(r, c, v);
        }
    }
    coo.to_csr()
}

/// Family `f`'s operand pair, valued in `class`, with dimensions up to
/// `dim`.
fn operands(f: u64, rng: &mut TestRng, class: ValueClass, dim: usize) -> (&'static str, Csr, Csr) {
    let mut below = |n: usize| rng.below(n as u64) as usize;
    let [n, k, m] = [(); 3].map(|_| 1 + below(dim));
    let (x, s) = (below(4), below(1 << 20) as u64);
    let uni = |r: usize, c: usize, per_row, s| gen::uniform_random(r, c, r * per_row, s);
    let keep = |m: Csr, f: fn(Index, Index) -> bool| {
        remap(&m, [m.rows(), m.cols()], &|r, c, _| {
            f(r, c).then_some([r, c])
        })
    };
    let (name, a, b) = match f {
        0 => ("uniform", uni(n, k, 3, s), uni(k, m, 3, s + 1)),
        1 => ("rmat", rmat(k, x + 2, s), rmat(k, 6 - x, s + 1)),
        2 => ("banded", banded(k, x, k, s), banded(k, 3 - x, k, s)),
        3 => ("diagonal-noise", diagonal_noise(k, k, s), uni(k, m, 3, s)),
        4 => {
            let p = poisson3d(1 + x, 1 + below(4), 1 + below(3));
            ("poisson", p.clone(), p)
        }
        5 => (
            "power-law",
            powerlaw_rows(k, 4 * k, 2.0, s),
            uni(k, m, 3, s),
        ),
        6 => {
            let blocks = |r, c, s| block_sparse(r, c, 1 + x, 0.3, s);
            ("block-sparse", blocks(n, k, s), blocks(k, m, s + 1))
        }
        7 => {
            let a = keep(uni(n, k, 4, s), |r, _| r % 4 == 0);
            (
                "empty rows, cols",
                a,
                keep(uni(k, m, 4, s), |_, c| c % 3 == 0),
            )
        }
        8 => {
            let (mut a, r) = (uni(n, k, 2, s).to_coo(), below(n) as Index);
            (0..k as Index).for_each(|c| a.push(r, c, 1.0));
            ("one dense row", a.to_csr(), uni(k, m, 3, s))
        }
        9 => ("1 x n", uni(1, k, k / 2 + 1, s), uni(k, m, 3, s)),
        10 => ("inner dim 1", uni(n, 1, 1, s), uni(1, m, m / 2 + 1, s)),
        11 => ("n x 1", uni(n, k, 3, s), uni(k, 1, 1, s)),
        12 => ("all-empty A", Csr::zero(n, k), uni(k, m, 3, s)),
        13 => {
            // Every third entry pushed again and every fifth cancelled:
            // COO canonicalization folds them before any executor runs.
            let value = arb::value(class);
            let [a, b] = [uni(n, k, 4, s), uni(k, m, 3, s)].map(|base| {
                let base = revalue(&base, class, rng);
                let mut coo = base.to_coo();
                for (i, (r, c, v)) in base.iter().enumerate() {
                    (i % 3 == 0).then(|| coo.push(r, c, value.generate(rng)));
                    (i % 5 == 0).then(|| coo.push(r, c, -v));
                }
                coo.into_csr()
            });
            return ("duplicate COO", a, b);
        }
        _ => {
            let [a, b] = [uni(n, k, 4, s), uni(k, m, 4, s)].map(|m| revalue(&m, class, rng));
            let zero = |i, v: f64| if i % 3 > 0 { v } else { 0.0f64.copysign(v) };
            return ("explicit zeros", map(&a, zero), map(&b, zero));
        }
    };
    (name, revalue(&a, class, rng), revalue(&b, class, rng))
}

/// The seeded draw: family, class and knobs from `seed` alone.
fn draw(seed: u64, dim: usize) -> Case {
    let mut rng = TestRng::new(seed);
    let class = CLASSES[((seed + seed / FAMILIES) % 5) as usize];
    let (family, a, b) = operands(seed % FAMILIES, &mut rng, class, dim);
    Case::new(seed, family, class, Knobs::draw(&mut rng), a, b)
}

/// The quick corpus: [`QUICK`] seeded draws plus hand-picked cases — a
/// 120×120 integer all-spill deep plan (panels 11, ways 3, budget 0),
/// R-MAT(96, 6) × uniform at 33 panels and ways 64 or 2,
/// R-MAT(2048, 8)² at 2 threads, big enough that the root round
/// bands, at budgets ∞ and 0, a 1×1 scalar times a 1×1 scalar, and a
/// 7×9 matrix times an all-empty 9×5 one.
fn corpus() -> &'static [Case] {
    static CORPUS: OnceLock<Vec<Case>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        use PanelBalance::{Nnz, Uniform};
        let mut rng = TestRng::new(9000);
        let mut revalued = |m: &Csr, class| revalue(m, class, &mut rng);
        let deep = gen::uniform_random(120, 120, 1400, 9);
        let deep = sparch::sparse::linalg::map_values(&deep, |v| (v * 4.0).round());
        let (skewed, wide) = (rmat(96, 6, 11), gen::uniform_random(96, 80, 700, 12));
        let (fskewed, fwide) = (revalued(&skewed, Float), revalued(&wide, Float));
        let (iwide, big) = (
            revalued(&wide, SmallInt),
            revalued(&rmat(2048, 8, 7), Float),
        );
        let scalars = [1, 2].map(|s| gen::uniform_random(1, 1, 1, s));
        let (dense, empty) = (
            revalued(&gen::uniform_random(7, 9, 30, 2), SmallInt),
            Csr::zero(9, 5),
        );
        let knobs = |panels, ways, balance, budget, threads| Knobs {
            panels,
            ways,
            balance,
            budget,
            codec: SpillCodec::Varint,
            threads,
            shards: 2,
            target: 7,
            sim: "default",
        };
        let hand_picked = [
            (SmallIntWithZeros, knobs(11, 3, Nnz, 0, 8), &deep, &deep),
            (SmallInt, knobs(33, 64, Uniform, 0, 2), &skewed, &iwide),
            (Float, knobs(33, 2, Nnz, u64::MAX, 1), &fskewed, &fwide),
            (Float, knobs(16, 4, Nnz, u64::MAX, 2), &big, &big),
            (Float, knobs(16, 4, Nnz, 0, 2), &big, &big),
            (Float, knobs(1, 2, Nnz, 0, 1), &scalars[0], &scalars[1]),
            (SmallInt, knobs(3, 2, Nnz, 0, 1), &dense, &empty),
        ];
        let mut cases: Vec<Case> = (0..QUICK).map(|seed| draw(seed, QUICK_DIM)).collect();
        for (seed, (class, knobs, a, b)) in (9001..).zip(hand_picked) {
            let (a, b) = (a.clone(), b.clone());
            cases.push(Case::new(seed, "hand-picked", class, knobs, a, b));
        }
        cases
    })
}

/// Level 1's structure: shape, `row_ptr` and `col_idx`.
fn structure(m: &Csr) -> (usize, usize, &[usize], &[Index]) {
    (m.rows(), m.cols(), m.row_ptr(), m.col_indices())
}

/// Levels 1–3 against the anchor (see the module docs).
fn against_anchor(c: &Csr, case: &Case) -> Run<()> {
    let r = &case.anchor;
    ensure!((c.nnz(), r.nnz()), structure(c) == structure(r));
    let diff = case.dense.as_ref().map(|d| c.to_dense().max_abs_diff(d));
    ensure!(diff, diff.unwrap_or(0.0) < 1e-9);
    let kind = |v: f64| [v.is_nan(), v == f64::INFINITY, v == f64::NEG_INFINITY];
    for (i, (&x, &y)) in c.values().iter().zip(r.values()).enumerate() {
        let agree = match case.class {
            Float => (x - y).abs() <= 1e-12 * x.abs().max(y.abs()).max(1.0),
            Edge => kind(x) == kind(y),
            _ => x.to_bits() == y.to_bits(),
        };
        let bits = (x.to_bits(), y.to_bits());
        ensure!(
            format!("value {i}: {x:e}, anchor {y:e}, bits {bits:x?}"),
            agree
        );
    }
    Ok(())
}

/// Level 3 between runs of one plan: equal down to every value's bits.
fn same_bits(x: &Csr, y: &Csr, what: &str) -> Run<()> {
    let bits = |m: &Csr| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    ensure!(what, structure(x) == structure(y), bits(x) == bits(y));
    Ok(())
}

/// The invariants every streaming report keeps. Only round outputs enter
/// the store — the rounds multiply their leaves as they fold them — so at
/// budget 0 exactly the round outputs but the root's are spilled, and a
/// spill, on the writer thread or not, is timed.
fn report_invariants(r: &StreamReport, budget: u64) -> Run<()> {
    let stored = r.merge_rounds.saturating_sub(1) as u64;
    let (s, spilled) = (&r.stages, r.spill_writes == stored);
    ensure!(
        r,
        r.peak_live_bytes <= budget,
        budget > 0 || (r.peak_live_bytes == 0 && spilled),
        r.spill_bytes_written <= r.spill_bytes_raw_equivalent,
        r.spill_reads >= r.spill_writes,
        r.spill_writes == 0 || s.spill_write_seconds > 0.0,
        s.rounds_merged_concurrently <= r.merge_rounds as u64,
        s.merge_kernel_seconds <= s.merge_busy_seconds,
        s.multiply_kernel_seconds <= s.multiply_busy_seconds,
        r.merge_rounds == 0 || s.merge_triples >= r.output_nnz as u64,
    );
    Ok(())
}

fn stream(config: StreamConfig, a: &Csr, b: &Csr) -> Run<(Csr, StreamReport)> {
    Ok(StreamingExecutor::new(config).multiply(a, b)?)
}

/// Writes the operands to `dir/{a,b}.mtx`; the text keeps every value's
/// bits apart from NaN payloads.
fn write_operands(a: &Csr, b: &Csr, dir: &Path) -> [PathBuf; 2] {
    let paths = [dir.join("a.mtx"), dir.join("b.mtx")];
    for (path, m) in paths.iter().zip([a, b]) {
        mm::write_file(path, &m.to_coo()).expect("write an operand");
    }
    paths
}

/// The fleet worker cargo built next to this test executable (which sits
/// in `target/<profile>/deps`).
fn worker() -> PathBuf {
    let exe = std::env::current_exe().expect("the test executable");
    let worker = exe.with_file_name("../sparch-dist-worker");
    assert!(worker.is_file(), "build {worker:?} first");
    worker
}

/// Every in-process backend of `Backend::ALL` (the fleet has its own test).
fn via_backends(case: &Case) -> Run<()> {
    for backend in Backend::ALL {
        if backend != Backend::Distributed {
            let c = backend.run(&case.a, &case.b);
            against_anchor(&c, case).map_err(|e| format!("{}: {e}", backend.name()))?;
        }
    }
    Ok(())
}

/// `StreamingExecutor::multiply` at the drawn knobs, bit-identical to the
/// serial in-core run of the same plan.
fn via_streaming(case: &Case) -> Run<()> {
    let (k, a, b) = (&case.knobs, &case.a, &case.b);
    let (c, report) = stream(k.stream(), a, b)?;
    against_anchor(&c, case)?;
    report_invariants(&report, k.budget)?;
    let serial = StreamConfig {
        budget: MemoryBudget::unbounded(),
        spill_codec: SpillCodec::Raw,
        threads: Some(1),
        ..k.stream()
    };
    same_bits(&c, &stream(serial, a, b)?.0, "the serial run")
}

/// The same plan fed from `.mtx` files through `multiply_streams`:
/// bit-identical, with an equal report, to the in-memory run of what the
/// files hold.
fn via_files(case: &Case) -> Run<()> {
    let k = &case.knobs;
    let dir = TempDir::new("oracle_files");
    let [pa, pb] = write_operands(&case.a, &case.b, dir.path());
    let plan = ExecPlan::for_operand(&mm::scan_col_nnz(&pa)?, k.panels, k.balance, k.ways);
    let ranges: Vec<Range<usize>> = plan.panel_sizes().map(|(r, _)| r.clone()).collect();
    let order = plan.panel_order();
    let csr = |item: Result<(_, Coo), _>| Ok(item.map(|(r, coo)| (r, coo.into_csr()))?);
    let a_panels = mm::PanelReader::open_with_ranges(&pa, ranges.clone())?.in_order(order.clone());
    let b_panels = mm::RowPanelReader::open_with_ranges(&pb, ranges)?.in_order(order);
    let (a_panels, b_panels) = (a_panels.map(csr), b_panels.map(csr));
    let exec = StreamingExecutor::new(k.stream());
    let (rows, cols) = (case.a.rows(), case.b.cols());
    let (c, report) = exec.multiply_streams(rows, cols, plan, a_panels, b_panels)?;
    let [a, b] = [pa, pb].map(|p| mm::read_file(p).expect("read back").to_csr());
    let (in_memory, in_memory_report) = exec.multiply(&a, &b)?;
    same_bits(&c, &in_memory, "the in-memory run")?;
    let reports = (report.without_timing(), in_memory_report.without_timing());
    ensure!(&reports, reports.0 == reports.1);
    against_anchor(&c, case)
}

/// The same plan cut at the drawn target: subtrees below the cut through
/// `multiply_subtree`, the rounds above it folded by `merge_sources` —
/// what the fleet does, without processes.
fn via_cut(case: &Case) -> Run<()> {
    let (k, a, b) = (&case.knobs, &case.a, &case.b);
    let exec = StreamingExecutor::new(k.stream());
    let plan = k.plan(a);
    let mut have: Vec<Option<Csr>> = vec![None; plan.num_nodes()];
    let cut = plan.frontier(k.target);
    for &job in &cut.jobs {
        let tree = plan.subtree(job);
        let panels = |&leaf| {
            let r = plan.leaf_range(leaf).clone();
            (a.col_panel(r.clone()), b.row_panel(r))
        };
        let pairs: Vec<_> = tree.leaves.iter().map(panels).collect();
        let (partial, r) = exec.multiply_subtree(a.rows(), b.cols(), plan.clone(), job, pairs)?;
        let counts = [r.partials, r.merge_rounds, r.panels];
        ensure!(
            counts,
            counts == [tree.leaves.len(), tree.rounds.len(), plan.panels()]
        );
        have[job] = Some(partial);
    }
    let mut scratch = MergeScratch::new();
    for &round in &cut.top_rounds {
        let child = |c: usize| PartialSource::from_csr(have[c].take().expect("a child"));
        let sources = plan.round_children(round).map(child).collect();
        let merged = merge_sources(a.rows(), b.cols(), sources, &mut scratch)?;
        have[plan.round_output(round)] = Some(merged);
    }
    let root = plan.root().and_then(|root| have[root].take());
    let c = root.unwrap_or_else(|| Csr::zero(a.rows(), b.cols()));
    same_bits(&c, &exec.multiply(a, b)?.0, "the whole-plan run")?;
    against_anchor(&c, case)
}

/// The fleet over the drawn shard count: bit-identical to the in-memory
/// run, counting the same plan and cut, with no retry or respawn.
fn via_fleet(case: &Case) -> Run<()> {
    let (k, a, b) = (&case.knobs, &case.a, &case.b);
    let (whole, s) = stream(k.stream(), a, b)?;
    let config = DistConfig {
        shards: k.shards,
        stream: k.stream(),
        worker: Some(worker()),
        ..DistConfig::default()
    };
    let (c, d) = DistCoordinator::new(config).multiply(a, b)?;
    same_bits(&c, &whole, "the in-memory run")?;
    against_anchor(&c, case)?;
    let plan = k.plan(a);
    let cut = plan.frontier(2 * k.shards.min(plan.num_leaves()));
    ensure!(
        (&d, &s),
        (d.panels, d.partials, d.merge_ways) == (s.panels, s.partials, s.merge_ways),
        d.merge_rounds as usize == s.merge_rounds,
        d.jobs == cut.jobs.len(),
        d.coordinator_rounds as usize == cut.top_rounds.len(),
        (d.retries, d.respawns) == (0, 0),
        d.dispatches == d.jobs as u64 && (d.jobs > 0) == (s.partials > 0),
        d.output_nnz as usize == c.nnz(),
    );
    Ok(())
}

/// An adaptive `SpgemmService` batch over the operand files — a single
/// multiply, and a power, chain and masked multiply where the shapes
/// allow: every step runs `gustavson`, every request matches
/// `fixed:gustavson`, and the single product matches the anchor's shape
/// and stored entries.
fn via_service(case: &Case) -> Run<()> {
    let (k, a, b) = (&case.knobs, &case.a, &case.b);
    let dir = TempDir::new("oracle_service");
    let [pa, pb] = write_operands(a, b, dir.path());
    let operand = |name: &str, path: &PathBuf| {
        let spec = OperandSpec::Mtx {
            path: path.display().to_string(),
        };
        OperandDef {
            name: name.into(),
            spec,
        }
    };
    let requests = [
        (true, r#"{"Single": {"a": "a", "b": "b"}}"#),
        (
            a.rows() == a.cols(),
            r#"{"Power": {"a": "a", "k": 2, "threshold": 0.0}}"#,
        ),
        (
            a.rows() == a.cols(),
            r#"{"Chain": {"operands": ["a", "a", "b"]}}"#,
        ),
        (
            b.rows() == b.cols(),
            r#"{"Masked": {"a": "a", "b": "b", "mask": "a"}}"#,
        ),
    ];
    let requests = requests
        .iter()
        .filter(|r| r.0)
        .map(|r| serde_json::from_str(r.1));
    let operands = vec![operand("a", &pa), operand("b", &pb)];
    let batch = Batch {
        operands,
        requests: requests.collect::<Result<_, _>>()?,
    };
    let serve = |policy| {
        let threads = Some(k.threads);
        SpgemmService::new(ServiceConfig {
            policy,
            threads,
            ..ServiceConfig::default()
        })
        .serve(&batch)
    };
    let adaptive = serve(DispatchPolicy::Adaptive)?.requests;
    let fixed = serve(DispatchPolicy::Fixed(Backend::Gustavson))?.requests;
    let shape = |r: &RequestReport| (r.output_rows, r.output_cols, r.output_nnz);
    let anchor = (case.anchor.rows(), case.anchor.cols(), case.anchor.nnz());
    ensure!(&adaptive, shape(&adaptive[0]) == anchor);
    for (x, y) in adaptive.iter().zip(&fixed) {
        let gustavson = x.backends.iter().all(|b| b == "gustavson");
        ensure!(
            (x, y),
            (shape(x), x.steps) == (shape(y), y.steps),
            gustavson
        );
    }
    Ok(())
}

/// `SpArchSim` at the drawn configuration.
fn via_simulator(case: &Case) -> Run<()> {
    let config = SIM_CONFIGS
        .iter()
        .find(|c| c.0 == case.knobs.sim)
        .expect("a name");
    let report = SpArchSim::new(config.1(SpArchConfig::default())).run(&case.a, &case.b);
    against_anchor(report.result(), case)
}

/// One executor: its name, its run, and whether its merge rounds can
/// band (then it runs the big cases too).
type Exec = (&'static str, fn(&Case) -> Run<()>, bool);

const EXECUTORS: [Exec; 7] = [
    ("backends", via_backends, false),
    ("streaming", via_streaming, true),
    ("files", via_files, false),
    ("cut", via_cut, false),
    ("fleet", via_fleet, true),
    ("service", via_service, false),
    ("simulator", via_simulator, false),
];

/// The run's error, a panic counted as one.
fn failure(run: fn(&Case) -> Run<()>, case: &Case) -> Option<String> {
    match catch_unwind(AssertUnwindSafe(|| run(case))) {
        Ok(outcome) => outcome.err().map(|e| e.to_string()),
        Err(panic) => Some(match panic.downcast::<String>() {
            Ok(text) => format!("panicked: {text}"),
            Err(panic) => format!("panicked: {:?}", panic.downcast_ref::<&str>()),
        }),
    }
}

/// Fails, minimized, on the first of `cases` the executor gets wrong.
fn check(name: &str, cases: &[Case]) {
    let &(_, run, bands) = EXECUTORS.iter().find(|e| e.0 == name).expect("an executor");
    if name == "fleet" {
        worker();
    }
    let big = |c: &&Case| c.a.nnz().max(c.b.nnz()) > BIG_NNZ;
    for case in cases.iter().filter(|c| bands || !big(c)) {
        let Some(why) = failure(run, case) else {
            continue;
        };
        let small = minimize(case, |c| failure(run, c).is_some());
        let dir = std::env::temp_dir().join(format!("sparch-oracle-{}", case.seed));
        std::fs::create_dir_all(&dir).expect("a replay directory");
        write_operands(&small.a, &small.b, &dir);
        let shape = |m: &Csr| format!("{}x{} ({} nnz)", m.rows(), m.cols(), m.nnz());
        let (a, b, small_why) = (shape(&small.a), shape(&small.b), failure(run, &small));
        let (seed, family, class, knobs) = (case.seed, case.family, case.class, &case.knobs);
        panic!(
            "{name} failed on seed {seed} ({family}, {class:?}) at {knobs:?}:\n  {why}\n\
             minimized to A {a} * B {b}:\n  {}\noperands in {dir:?}",
            small_why.unwrap_or_default()
        );
    }
}

/// The case's length along `axis`: 0 rows of `A`, 1 the inner dimension,
/// 2 columns of `B`, 3 entries of `A`, 4 entries of `B`.
fn axis_len(case: &Case, axis: usize) -> usize {
    let (a, b) = (&case.a, &case.b);
    [a.rows(), a.cols(), b.cols(), a.nnz(), b.nnz()][axis]
}

/// `case` without the `drop` range of `axis`; `None` where that would
/// leave a dimension empty.
fn without(case: &Case, axis: usize, drop: Range<usize>) -> Option<Case> {
    if axis < 3 && drop.len() >= axis_len(case, axis) {
        return None;
    }
    let (a, b) = (&case.a, &case.b);
    let shift = |i: Index| {
        let i = i as usize;
        let len = if i >= drop.end { drop.len() } else { 0 };
        (!drop.contains(&i)).then_some((i - len) as Index)
    };
    let shrunk = |k| axis_len(case, k) - if k == axis { drop.len() } else { 0 };
    let [rows, inner, cols] = [0, 1, 2].map(shrunk);
    let entries = |m: &Csr| {
        remap(m, [m.rows(), m.cols()], &|r, c, k| {
            (!drop.contains(&k)).then_some([r, c])
        })
    };
    let (a, b) = match axis {
        0 => (
            remap(a, [rows, inner], &|r, c, _| Some([shift(r)?, c])),
            b.clone(),
        ),
        1 => {
            let a = remap(a, [rows, inner], &|r, c, _| Some([r, shift(c)?]));
            (a, remap(b, [inner, cols], &|r, c, _| Some([shift(r)?, c])))
        }
        2 => (
            a.clone(),
            remap(b, [inner, cols], &|r, c, _| Some([r, shift(c)?])),
        ),
        3 => (entries(a), b.clone()),
        _ => (a.clone(), entries(b)),
    };
    Some(case.with(a, b))
}

/// Greedily drops rows, inner indices, columns and entries of `case`, in
/// halving chunks and repeating while anything shrank, for as long as
/// `fails` holds — up to [`MAX_TRIES`] candidate runs.
fn minimize(case: &Case, fails: impl Fn(&Case) -> bool) -> Case {
    let mut best = case.with(case.a.clone(), case.b.clone());
    let mut tries = 0;
    loop {
        let before: Vec<usize> = (0..5).map(|axis| axis_len(&best, axis)).collect();
        for axis in 0..5 {
            let mut chunk = axis_len(&best, axis);
            while chunk > 0 {
                let mut start = 0;
                while start < axis_len(&best, axis) && tries < MAX_TRIES {
                    let drop = start..(start + chunk).min(axis_len(&best, axis));
                    tries += 1;
                    match without(&best, axis, drop).filter(|c| fails(c)) {
                        Some(smaller) => best = smaller,
                        None => start += chunk,
                    }
                }
                chunk /= 2;
            }
        }
        let after: Vec<usize> = (0..5).map(|axis| axis_len(&best, axis)).collect();
        if tries >= MAX_TRIES || after == before {
            return best;
        }
    }
}

/// One `#[test]` per executor, each over the quick corpus.
macro_rules! executor_tests {
    ($($name:ident),+) => {
        $(#[test]
        fn $name() {
            check(stringify!($name), corpus());
        })+
    };
}

executor_tests!(backends, streaming, files, cut, fleet, service, simulator);

/// The quick corpus draws everything the oracle promises to cover.
#[test]
fn the_corpus_covers_every_family_class_and_knob() {
    let pairs: HashSet<_> = corpus().iter().map(|c| (c.family, c.class as u8)).collect();
    assert_eq!(pairs.len() as u64, QUICK + 3, "each (family, class) once");
    let edge = corpus().iter().filter(|c| c.class == Edge);
    let values: Vec<f64> = edge
        .flat_map(|c| [c.a.values(), c.b.values()].concat())
        .collect();
    let bits: HashSet<u64> = values.iter().map(|v| v.to_bits()).collect();
    let specials = [arb::PAYLOAD_NAN, f64::NEG_INFINITY, -0.0];
    assert!(specials.iter().all(|v| bits.contains(&v.to_bits())));
    assert!(values.iter().any(|v| v.is_subnormal()));
    let mixed = |c: &Case| {
        let (plan, k) = (c.knobs.plan(&c.a), &c.knobs);
        let jobs = plan.frontier(2 * k.shards.min(plan.num_leaves())).jobs;
        let bare = jobs.iter().filter(|&&j| j < plan.num_leaves()).count();
        bare > 0 && bare < jobs.len()
    };
    assert!(corpus().iter().any(mixed), "no mixed fleet cut");
    let knobs = |c: &Case| {
        [
            c.knobs.budget.min(1 << 20) as usize,
            c.knobs.threads,
            c.knobs.shards,
        ]
    };
    for i in 0..3 {
        let seen: HashSet<usize> = corpus().iter().map(|c| knobs(c)[i]).collect();
        assert_eq!(seen.len(), 3, "knob {i}: {seen:?}");
    }
    let sims: HashSet<&str> = corpus().iter().map(|c| c.knobs.sim).collect();
    assert_eq!(
        sims.len(),
        SIM_CONFIGS.len(),
        "simulator configurations {sims:?}"
    );
    let deep_spill = |c: &Case| c.knobs.budget == 0 && c.knobs.plan(&c.a).num_rounds() >= 4;
    assert!(
        corpus().iter().any(deep_spill),
        "no all-spill plan of 4+ rounds"
    );
}

/// The long mode: every executor over 40 × [`QUICK`] draws up to three
/// times the quick corpus's dimensions.
#[test]
#[ignore = "long mode: run with `-- --ignored`"]
fn long_mode() {
    let cases: Vec<Case> = (QUICK..41 * QUICK)
        .map(|seed| draw(seed, 3 * QUICK_DIM))
        .collect();
    for (name, _, _) in EXECUTORS {
        check(name, &cases);
    }
}
