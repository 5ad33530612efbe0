//! The four workloads: which matrices each one feeds to which layer, and
//! how many back-to-back calls make one timed unit.
//!
//! Every operand is a `gen::Recipe` built from the run's `--seed`, so the
//! program under test only ever sees generated inputs. Orders are fixed
//! constants: they were sized on a 2-core host so that one pass over all
//! seven timed layers takes about 3 s and no timed unit is shorter than
//! 0.3 s (see the README's sizing table).

use sparch_serve::{Batch, OperandDef, OperandSpec, Request};
use sparch_sparse::gen::Recipe;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    RmatMerge,
    BandedMult,
    UniformSpill,
    SmallMany,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::RmatMerge,
        Workload::BandedMult,
        Workload::UniformSpill,
        Workload::SmallMany,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::RmatMerge => "rmat_merge",
            Workload::BandedMult => "banded_mult",
            Workload::UniformSpill => "uniform_spill",
            Workload::SmallMany => "small_many",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Back-to-back calls per timed unit, per layer. A unit is the whole
/// operand list squared `n` times; the reported time is per pass over the
/// list (unit time / `n`).
#[derive(Debug, Clone, Copy)]
pub struct Repeats {
    pub inmem: usize,
    pub nospill: usize,
    pub stream: usize,
    pub file: usize,
    pub dist: usize,
    pub serve: usize,
    pub sim: usize,
}

impl Repeats {
    const ONCE: Repeats = Repeats {
        inmem: 1,
        nospill: 1,
        stream: 1,
        file: 1,
        dist: 1,
        serve: 1,
        sim: 1,
    };
}

/// One operand: a recipe and the offset added to the run seed.
pub type Seeded = (Recipe, u64);

/// Everything a workload feeds the layers.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Squared by `algo::gustavson`, both streaming runs and the fleet.
    pub main: Vec<Seeded>,
    /// Written to `.mtx` and squared by the `sparch-cli stream` subprocess.
    pub file: Vec<Seeded>,
    /// Squared by the cycle-level simulator.
    pub sim: Vec<Seeded>,
    /// Operands of the served batch.
    pub serve: Vec<Seeded>,
    /// Requests in the served batch, cycling Single/Chain/Power/Masked.
    pub serve_requests: usize,
    pub repeats: Repeats,
}

fn rmat(n: usize, avg_degree: usize) -> Recipe {
    Recipe::Rmat { n, avg_degree }
}

fn banded(n: usize, half_bandwidth: usize) -> Recipe {
    Recipe::Banded {
        n,
        half_bandwidth,
        extra_nnz: n / 8,
    }
}

fn uniform(n: usize, per_row: usize) -> Recipe {
    Recipe::Uniform {
        rows: n,
        cols: n,
        nnz: n * per_row,
    }
}

/// The eight structurally distinct recipes of the old `serve_snapshot`,
/// at order `n`.
fn eight(n: usize) -> Vec<Seeded> {
    let side = (n as f64).cbrt().round().max(2.0) as usize;
    [
        rmat(n, 4),
        rmat(n, 8),
        uniform(n, 5),
        Recipe::Poisson3d {
            nx: side,
            ny: side,
            nz: side,
        },
        Recipe::Banded {
            n,
            half_bandwidth: 3,
            extra_nnz: n,
        },
        Recipe::PowerlawRows {
            n,
            nnz: n * 6,
            alpha: 1.8,
        },
        Recipe::BlockSparse {
            rows: n,
            cols: n,
            block: 4,
            block_density: 0.15,
        },
        uniform(n, 10),
    ]
    .into_iter()
    .zip(0..)
    .collect()
}

/// Four seed-variants of one recipe, for the big workloads' serve batch.
fn variants(recipe: Recipe) -> Vec<Seeded> {
    (0..4).map(|i| (recipe.clone(), i)).collect()
}

impl Workload {
    /// The full-size plan, or the `--check` plan: the same layers and
    /// shapes at tiny orders, one call per unit.
    pub fn plan(self, check: bool) -> Plan {
        if check {
            return self.check_plan();
        }
        match self {
            Workload::RmatMerge => Plan {
                main: vec![(rmat(8192, 8), 0)],
                file: vec![(rmat(8192, 8), 0)],
                sim: vec![(rmat(8192, 8), 0)],
                serve: variants(rmat(1024, 8)),
                serve_requests: 48,
                repeats: Repeats {
                    inmem: 4,
                    nospill: 2,
                    ..Repeats::ONCE
                },
            },
            Workload::BandedMult => Plan {
                main: vec![(banded(8000, 64), 0)],
                file: vec![(banded(1000, 64), 0)],
                sim: vec![(banded(500, 64), 0)],
                serve: variants(banded(500, 64)),
                serve_requests: 48,
                repeats: Repeats {
                    inmem: 2,
                    nospill: 2,
                    stream: 2,
                    ..Repeats::ONCE
                },
            },
            Workload::UniformSpill => Plan {
                main: vec![(uniform(60_000, 8), 0)],
                file: vec![(uniform(12_000, 8), 0)],
                sim: vec![(uniform(40_000, 8), 0)],
                serve: variants(uniform(2000, 8)),
                serve_requests: 48,
                repeats: Repeats {
                    inmem: 3,
                    nospill: 2,
                    ..Repeats::ONCE
                },
            },
            Workload::SmallMany => Plan {
                main: eight(256),
                file: eight(256),
                sim: eight(256),
                serve: eight(512),
                serve_requests: 240,
                repeats: Repeats {
                    inmem: 150,
                    nospill: 24,
                    stream: 10,
                    file: 3,
                    dist: 3,
                    serve: 1,
                    sim: 10,
                },
            },
        }
    }

    fn check_plan(self) -> Plan {
        let (one, serve, serve_requests) = match self {
            Workload::RmatMerge => (vec![(rmat(256, 6), 0)], variants(rmat(96, 4)), 8),
            Workload::BandedMult => (vec![(banded(256, 8), 0)], variants(banded(96, 4)), 8),
            Workload::UniformSpill => (vec![(uniform(512, 4), 0)], variants(uniform(96, 4)), 8),
            Workload::SmallMany => (eight(96), eight(64), 16),
        };
        Plan {
            main: one.clone(),
            file: one.clone(),
            sim: one,
            serve,
            serve_requests,
            repeats: Repeats::ONCE,
        }
    }
}

/// Name of the `i`-th serve operand inside a batch.
pub fn serve_name(i: usize) -> String {
    format!("m{i}")
}

/// The served batch: `count` requests cycling the four request kinds,
/// with operands rotating so that every (kind, operand) pairing occurs.
/// All serve operands of one workload share an order, so every chain and
/// mask is shape-compatible.
pub fn serve_batch(operands: &[Seeded], seed: u64, count: usize) -> Batch {
    let names = operands.len();
    let pick = |i: usize| serve_name(i % names);
    let requests = (0..count)
        .map(|i| {
            let base = i / 4;
            match i % 4 {
                0 => Request::Single {
                    a: pick(base),
                    b: pick(base + 1),
                },
                1 => Request::Chain {
                    operands: vec![pick(base), pick(base + 2), pick(base + 3)],
                },
                2 => Request::Power {
                    a: pick(base),
                    k: 2,
                    threshold: 0.0,
                },
                _ => Request::Masked {
                    a: pick(base),
                    b: pick(base + 1),
                    mask: pick(base + 2),
                },
            }
        })
        .collect();
    Batch {
        operands: operands
            .iter()
            .enumerate()
            .map(|(i, (recipe, offset))| OperandDef {
                name: serve_name(i),
                spec: OperandSpec::Gen {
                    recipe: recipe.clone(),
                    seed: seed + offset,
                },
            })
            .collect(),
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_spec() {
        for (w, name) in Workload::ALL.into_iter().zip(crate::spec::workload_names()) {
            assert_eq!(w.name(), name);
            assert_eq!(Workload::parse(name), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn serve_batch_cycles_kinds_over_all_operands() {
        let plan = Workload::SmallMany.plan(true);
        let batch = serve_batch(&plan.serve, 5, plan.serve_requests);
        assert_eq!(batch.requests.len(), 16);
        assert_eq!(batch.operands.len(), 8);
        let kinds: Vec<&str> = batch.requests.iter().take(4).map(Request::kind).collect();
        assert_eq!(kinds, ["single", "chain", "power", "masked"]);
        assert!(matches!(
            &batch.operands[2].spec,
            OperandSpec::Gen { seed: 7, .. }
        ));
    }
}
