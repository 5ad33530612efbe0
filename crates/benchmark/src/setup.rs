//! Set-up: everything a workload needs before the first timed call.
//!
//! Generates the operands from the seed, writes the `.mtx` files the
//! `sparch-cli` subprocess reads, computes every reference product the
//! timed calls are checked against, and learns each streamed operand's
//! partial footprint from one unbounded probe run (the budgeted runs get
//! a quarter of it, so the spill path is always on).

use crate::workloads::{serve_batch, Plan, Seeded};
use sparch_serve::{Batch, Request};
use sparch_sparse::gen::Recipe;
use sparch_sparse::{algo, linalg, mm, Csr};
use sparch_stream::{MemoryBudget, PanelBalance, SpillCodec, StreamConfig, StreamingExecutor};
use std::cell::OnceCell;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

/// Panels the inner dimension is split into, everywhere.
pub const PANELS: usize = 16;
/// Merge fan-in: 16 leaves at 4 ways take 5 Huffman rounds.
pub const MERGE_WAYS: usize = 4;

/// The pinned streaming knobs; only budget and thread count vary.
pub fn stream_config(budget: MemoryBudget, threads: usize) -> StreamConfig {
    StreamConfig {
        budget,
        panels: PANELS,
        merge_ways: MERGE_WAYS,
        balance: PanelBalance::Nnz,
        spill_codec: SpillCodec::Varint,
        threads: Some(threads),
        ..StreamConfig::default()
    }
}

/// What the unbounded probe run learned about one operand.
#[derive(Debug)]
pub struct Probe {
    /// The streamed product — every later streaming or fleet run at the
    /// same panel split must reproduce it bit for bit.
    pub product: Csr,
    pub partial_bytes_total: u64,
}

impl Probe {
    /// A quarter of the partial footprint.
    pub fn budget(&self) -> MemoryBudget {
        MemoryBudget::from_bytes(self.partial_bytes_total / 4)
    }
}

/// One generated operand `A`, with what checking `A · A` needs.
#[derive(Debug)]
pub struct Operand {
    pub a: Csr,
    /// `algo::gustavson_reference(A, A)`.
    pub reference: Csr,
    /// Scalar multiplications in `A · A`.
    pub flops: u64,
    probe: OnceCell<Probe>,
}

impl Operand {
    /// The probe run, made on first use.
    pub fn probe(&self, threads: usize) -> &Probe {
        self.probe.get_or_init(|| {
            let (product, report) =
                StreamingExecutor::new(stream_config(MemoryBudget::unbounded(), threads))
                    .multiply(&self.a, &self.a)
                    .expect("an unbounded in-memory streaming run has nothing that can fail");
            Probe {
                product,
                partial_bytes_total: report.partial_bytes_total,
            }
        })
    }
}

/// An operand on disk for the `sparch-cli stream` subprocess.
#[derive(Debug)]
pub struct FileOperand {
    pub operand: Rc<Operand>,
    pub path: PathBuf,
    pub file_bytes: u64,
    /// The CLI takes its budget in whole MiB: the probe's quarter
    /// footprint rounded down (0 spills every partial).
    pub budget_mb: u64,
}

/// The served batch with the shape every request must come back with.
#[derive(Debug)]
pub struct ServeSetup {
    pub batch: Batch,
    pub operands: Vec<Csr>,
    /// `(rows, cols, nnz)` per request, from a reference evaluation.
    pub expected: Vec<(usize, usize, usize)>,
}

#[derive(Debug)]
pub struct Setup {
    pub main: Vec<Rc<Operand>>,
    pub file: Vec<FileOperand>,
    pub sim: Vec<Rc<Operand>>,
    pub serve: ServeSetup,
    /// Seconds inside the generators.
    pub gen_s: f64,
    /// Seconds writing `.mtx` files.
    pub mm_write_s: f64,
    /// Wall time of the whole set-up.
    pub seconds: f64,
}

#[derive(Default)]
struct Builder {
    cache: Vec<(Seeded, Rc<Operand>)>,
    gen_s: f64,
}

impl Builder {
    fn generate(&mut self, recipe: &Recipe, seed: u64) -> Csr {
        let t0 = Instant::now();
        let a = recipe.build(seed);
        self.gen_s += t0.elapsed().as_secs_f64();
        a
    }

    /// Layers that share a recipe and seed share the operand.
    fn operand(&mut self, recipe: &Recipe, seed: u64) -> Rc<Operand> {
        if let Some((_, hit)) = self
            .cache
            .iter()
            .find(|((r, s), _)| r == recipe && *s == seed)
        {
            return Rc::clone(hit);
        }
        let a = self.generate(recipe, seed);
        let operand = Rc::new(Operand {
            reference: algo::gustavson_reference(&a, &a),
            flops: algo::multiply_flops(&a, &a),
            a,
            probe: OnceCell::new(),
        });
        self.cache
            .push(((recipe.clone(), seed), Rc::clone(&operand)));
        operand
    }

    fn operands(&mut self, list: &[Seeded], seed: u64) -> Vec<Rc<Operand>> {
        list.iter()
            .map(|(recipe, offset)| self.operand(recipe, seed + offset))
            .collect()
    }
}

/// Evaluates one request with the reference kernel, the way the service
/// defines it: chains fold left to right, `Power` with a zero threshold
/// is repeated multiplication, `Masked` is the product Hadamard the mask.
fn reference_shape(request: &Request, operands: &HashMap<&str, &Csr>) -> (usize, usize, usize) {
    let get = |name: &String| operands[name.as_str()];
    let mul = algo::gustavson_reference;
    let out = match request {
        Request::Single { a, b } => mul(get(a), get(b)),
        Request::Chain { operands } => {
            let mut cur = get(&operands[0]).clone();
            for next in &operands[1..] {
                cur = mul(&cur, get(next));
            }
            cur
        }
        Request::Power { a, k, threshold } => {
            assert_eq!(*threshold, 0.0, "the benchmark's batches never prune");
            let mut cur = get(a).clone();
            for _ in 1..*k {
                cur = mul(&cur, get(a));
            }
            cur
        }
        Request::Masked { a, b, mask } => linalg::hadamard(&mul(get(a), get(b)), get(mask)),
    };
    (out.rows(), out.cols(), out.nnz())
}

impl Setup {
    /// Builds everything for `plan` at `seed`. `.mtx` files go under
    /// `scratch`, which the caller owns and removes.
    pub fn build(plan: &Plan, seed: u64, threads: usize, scratch: &Path) -> Setup {
        let t0 = Instant::now();
        let mut b = Builder::default();

        let main = b.operands(&plan.main, seed);
        for operand in &main {
            let probe = operand.probe(threads);
            assert!(
                probe.product.approx_eq(&operand.reference, 1e-12),
                "the streaming probe disagrees with gustavson_reference"
            );
        }

        let mut mm_write_s = 0.0;
        let mut file = Vec::new();
        for (i, operand) in b.operands(&plan.file, seed).into_iter().enumerate() {
            let path = scratch.join(format!("a{i}.mtx"));
            let t = Instant::now();
            mm::write_file(&path, &operand.a.to_coo()).expect("write the .mtx operand");
            mm_write_s += t.elapsed().as_secs_f64();
            file.push(FileOperand {
                file_bytes: std::fs::metadata(&path)
                    .expect("stat the .mtx operand")
                    .len(),
                budget_mb: operand.probe(threads).budget().bytes() >> 20,
                operand,
                path,
            });
        }

        let sim = b.operands(&plan.sim, seed);

        let batch = serve_batch(&plan.serve, seed, plan.serve_requests);
        let operands: Vec<Csr> = plan
            .serve
            .iter()
            .map(|(recipe, offset)| b.generate(recipe, seed + offset))
            .collect();
        let by_name: HashMap<&str, &Csr> = batch
            .operands
            .iter()
            .map(|def| def.name.as_str())
            .zip(&operands)
            .collect();
        let mut memo: HashMap<String, (usize, usize, usize)> = HashMap::new();
        let expected = batch
            .requests
            .iter()
            .map(|request| {
                *memo
                    .entry(format!("{request:?}"))
                    .or_insert_with(|| reference_shape(request, &by_name))
            })
            .collect();

        Setup {
            main,
            file,
            sim,
            serve: ServeSetup {
                batch,
                operands,
                expected,
            },
            gen_s: b.gen_s,
            mm_write_s,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    #[test]
    fn check_plans_set_up_consistently() {
        let dir = sparch_stream::tempdir::TempDir::new("benchmark_setup");
        for w in Workload::ALL {
            let plan = w.plan(true);
            let s = Setup::build(&plan, 3, 1, dir.path());
            assert_eq!(s.main.len(), plan.main.len());
            assert_eq!(s.serve.expected.len(), plan.serve_requests);
            // The check plans reuse one recipe for main, file and sim.
            assert!(Rc::ptr_eq(&s.main[0], &s.file[0].operand));
            assert!(Rc::ptr_eq(&s.main[0], &s.sim[0]));
            assert!(s.file.iter().all(|f| f.file_bytes > 0));
            let order = s.serve.operands[0].rows();
            assert!(
                s.serve
                    .operands
                    .iter()
                    .all(|m| (m.rows(), m.cols()) == (order, order)),
                "{}: serve operands must share one order",
                w.name()
            );
            assert!(s.seconds >= s.gen_s + s.mm_write_s);
        }
    }

    #[test]
    fn full_plans_keep_serve_operands_square_and_equal() {
        fn order(recipe: &Recipe) -> (usize, usize) {
            match *recipe {
                Recipe::Uniform { rows, cols, .. } | Recipe::BlockSparse { rows, cols, .. } => {
                    (rows, cols)
                }
                Recipe::Rmat { n, .. }
                | Recipe::Banded { n, .. }
                | Recipe::PowerlawRows { n, .. } => (n, n),
                Recipe::Poisson3d { nx, ny, nz } => (nx * ny * nz, nx * ny * nz),
            }
        }
        for w in Workload::ALL {
            let plan = w.plan(false);
            let first = order(&plan.serve[0].0);
            assert_eq!(first.0, first.1);
            assert!(
                plan.serve.iter().all(|(r, _)| order(r) == first),
                "{}",
                w.name()
            );
        }
    }
}
