//! The reproduction sweep: one pass that measures everything the paper's
//! evaluation section (§III) reports, into one [`Sweep`] record.
//!
//! Two phases, both sharded over one [`ShardPool`]:
//!
//! 1. **Build.** Each suite surrogate and each of Figure 14's R-MAT
//!    operands is built once.
//! 2. **Run.** One flat list of jobs runs, results in submission order:
//!    simulations, software baselines, and the analytic models (the
//!    OuterSPACE model plus the operand's structural statistics). Each
//!    distinct `(operand, SpArchConfig)` pair is one simulation job, so a
//!    ladder rung equal to the default configuration is a lookup into the
//!    default configuration's runs, not a re-run. Each software baseline
//!    is timed once and read by both Figure 11 and Figure 12.
//!
//! The renderers in [`crate::figures`] read only the record. Every
//! model-driven field is bit-identical at any thread count; the software
//! baselines wall-clock the host, so they are not.

use crate::suite::SuiteEntry;
use serde::Serialize;
use sparch_baselines::{run_software, OuterSpaceModel, OuterSpaceReport, Platform, SoftwareResult};
use sparch_core::{PerfSummary, ReplacementPolicy, SpArchConfig, SpArchSim};
use sparch_exec::ShardPool;
use sparch_mem::{AreaBreakdown, EnergyBreakdown};
use sparch_sparse::stats::{MatrixStats, TaskStats};
use sparch_sparse::{gen, Csr};

/// Figure 14's 19 R-MAT `(rows, average degree)` pairs (the paper's
/// 5k–80k × 4–32 grid without 80k-x32), densest first.
pub const RMAT: [(usize, usize); 19] = [
    (5_000, 32),
    (5_000, 16),
    (10_000, 32),
    (5_000, 8),
    (10_000, 16),
    (20_000, 32),
    (5_000, 4),
    (10_000, 8),
    (20_000, 16),
    (40_000, 32),
    (10_000, 4),
    (20_000, 8),
    (40_000, 16),
    (20_000, 4),
    (40_000, 8),
    (80_000, 16),
    (40_000, 4),
    (80_000, 8),
    (80_000, 4),
];

/// The model-driven scalars of one simulation; never its result matrix.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SimRecord {
    /// Cycles, GFLOPS, FLOPs, seconds and bandwidth utilization.
    pub perf: PerfSummary,
    /// Total DRAM traffic in MB.
    pub dram_mb: f64,
    /// Energy per FLOP in nJ.
    pub nj_per_flop: f64,
    /// Average power over the task in W.
    pub avg_power_w: f64,
    /// Energy per component in J.
    pub energy: EnergyBreakdown,
    /// Component areas of the simulated configuration in mm².
    pub area: AreaBreakdown,
}

/// Everything measured on one suite surrogate.
#[derive(Debug, Clone, Serialize)]
pub struct SuiteRun {
    /// The published matrix the surrogate stands in for.
    pub entry: SuiteEntry,
    /// The surrogate's structure.
    pub matrix: MatrixStats,
    /// The work of `A × A` on the surrogate.
    pub task: TaskStats,
    /// The OuterSPACE model on `A × A`.
    pub outerspace: OuterSpaceReport,
    /// One timed host run per platform, in [`Platform::ALL`] order.
    pub software: Vec<SoftwareResult>,
    /// The default configuration on `A × A`.
    pub sim: SimRecord,
}

/// One of Figure 14's R-MAT operands.
#[derive(Debug, Clone, Serialize)]
pub struct RmatRun {
    /// `rmat-<rows>k-x<degree>` at the paper's size.
    pub name: String,
    /// Density of the operand as built.
    pub density: f64,
    /// The MKL-class kernel timed on the host.
    pub mkl: SoftwareResult,
    /// The default configuration on `A × A`.
    pub sim: SimRecord,
}

/// One rung of a configuration ladder: Figure 16's ablation, one of
/// Figure 17's design-space sweeps, or Figure 18's tree sizes.
#[derive(Debug, Clone, Serialize)]
pub struct Rung {
    /// `ablation`, `tree`, or the Figure 17 sweep (`line`, `lines`,
    /// `merger`, `policy`, `lookahead`).
    pub family: &'static str,
    /// The rung's label.
    pub setting: String,
    /// The simulated configuration.
    pub config: SpArchConfig,
    /// The rung covers every `step`-th suite entry.
    pub step: usize,
    /// One simulation per covered entry, in suite order.
    pub sims: Vec<SimRecord>,
}

/// The one record every figure and table is rendered from.
#[derive(Debug, Clone, Serialize)]
pub struct Sweep {
    /// The surrogate scale the sweep ran at.
    pub scale: f64,
    /// One run per suite entry, in catalog order.
    pub suite: Vec<SuiteRun>,
    /// One run per [`RMAT`] operand, in that order.
    pub rmat: Vec<RmatRun>,
    /// Every ladder rung, family by family.
    pub ladders: Vec<Rung>,
}

/// Every ladder rung, with no simulations yet. The ablation and tree
/// ladders cover every second suite entry, the design points every
/// third: the subsets the paper's ladders are affordable on.
fn ladders() -> Vec<Rung> {
    let rung = |family, setting: String, config, step| Rung {
        family,
        setting,
        config,
        step,
        sims: Vec::new(),
    };
    let with = |f: &dyn Fn(&mut SpArchConfig)| {
        let mut c = SpArchConfig::default();
        f(&mut c);
        c
    };
    let mut rungs: Vec<Rung> = SpArchConfig::ablation_ladder()
        .into_iter()
        .map(|(name, config)| rung("ablation", name.into(), config, 2))
        .collect();
    for layers in 2..=7 {
        let config = SpArchConfig::default().with_tree_layers(layers);
        rungs.push(rung("tree", layers.to_string(), config, 2));
    }
    for line in [24, 36, 48, 60, 72, 84, 96] {
        let config = with(&|c| c.prefetch.line_elems = line);
        rungs.push(rung("line", format!("1024x{line}"), config, 3));
    }
    for (lines, elems) in [(2048, 24), (1024, 48), (512, 96), (256, 192)] {
        let config = with(&|c| {
            c.prefetch.lines = lines;
            c.prefetch.line_elems = elems;
        });
        rungs.push(rung("lines", format!("{lines}x{elems}"), config, 3));
    }
    for n in [1, 2, 4, 8, 16] {
        let config = SpArchConfig::default().with_merger_width(n);
        rungs.push(rung("merger", format!("{n}x{n}"), config, 3));
    }
    for (name, policy) in [
        ("belady (paper)", ReplacementPolicy::Belady),
        ("lru", ReplacementPolicy::Lru),
    ] {
        let config = with(&|c| c.prefetch.policy = policy);
        rungs.push(rung("policy", name.into(), config, 3));
    }
    for size in [1024, 2048, 4096, 8192, 16384] {
        let config = with(&|c| c.prefetch.lookahead = size);
        rungs.push(rung("lookahead", size.to_string(), config, 3));
    }
    rungs
}

/// One unit of the run phase. Operands index the built list: the suite
/// entries first, then the [`RMAT`] operands.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Job {
    /// `A × A` simulated under `Plan::configs[config]`.
    Sim { operand: usize, config: usize },
    /// `A × A` timed on the host as `platform`'s algorithm class.
    Software { operand: usize, platform: Platform },
    /// The OuterSPACE model and the structural statistics of `A × A`.
    Analytic(usize),
}

enum Outcome {
    Sim(SimRecord),
    Software(SoftwareResult),
    Analytic(OuterSpaceReport, MatrixStats, TaskStats),
}

impl Job {
    fn run(self, operands: &[Csr], configs: &[SpArchConfig]) -> Outcome {
        match self {
            Job::Sim { operand, config } => {
                let a = &operands[operand];
                let r = SpArchSim::new(configs[config].clone()).run(a, a);
                Outcome::Sim(SimRecord {
                    perf: r.perf,
                    dram_mb: r.dram_mb(),
                    nj_per_flop: r.nj_per_flop(),
                    avg_power_w: r.avg_power_w(),
                    energy: r.energy,
                    area: r.area,
                })
            }
            Job::Software { operand, platform } => {
                let a = &operands[operand];
                Outcome::Software(run_software(platform, a, a))
            }
            Job::Analytic(operand) => {
                let a = &operands[operand];
                Outcome::Analytic(
                    OuterSpaceModel::default().run(a, a),
                    MatrixStats::of(a),
                    TaskStats::of(a, a),
                )
            }
        }
    }
}

/// The run phase's job list: each distinct job once, in the order it is
/// first asked for.
#[derive(Default)]
struct Plan {
    configs: Vec<SpArchConfig>,
    jobs: Vec<Job>,
}

impl Plan {
    /// The jobs for `suite` suite entries, the [`RMAT`] operands and
    /// `ladders`. The slow ladder simulations go first so that the pool's
    /// last claims are short ones.
    fn new(suite: usize, ladders: &[Rung]) -> Plan {
        let mut plan = Plan::default();
        let default = SpArchConfig::default();
        for rung in ladders {
            for operand in (0..suite).step_by(rung.step) {
                plan.sim(operand, &rung.config);
            }
        }
        for operand in 0..suite {
            plan.sim(operand, &default);
            for platform in Platform::ALL {
                plan.add(Job::Software { operand, platform });
            }
            plan.add(Job::Analytic(operand));
        }
        for operand in suite..suite + RMAT.len() {
            plan.sim(operand, &default);
            let platform = Platform::Mkl;
            plan.add(Job::Software { operand, platform });
        }
        plan
    }

    fn sim(&mut self, operand: usize, config: &SpArchConfig) {
        let config = match self.configs.iter().position(|c| c == config) {
            Some(i) => i,
            None => {
                self.configs.push(config.clone());
                self.configs.len() - 1
            }
        };
        self.add(Job::Sim { operand, config });
    }

    fn add(&mut self, job: Job) {
        if !self.jobs.contains(&job) {
            self.jobs.push(job);
        }
    }
}

/// Builds operand `i`: suite entry `i`, or R-MAT operand `i - suite.len()`.
fn build(suite: &[SuiteEntry], i: usize, scale: f64) -> Csr {
    match suite.get(i) {
        Some(entry) => entry.build(scale),
        None => {
            let (n, degree) = RMAT[i - suite.len()];
            let rows = ((n as f64 * scale * 10.0) as usize).clamp(1024, n);
            gen::rmat_graph500(rows, degree, 1234 + degree as u64)
        }
    }
}

/// Runs the sweep over `suite` (the full [`crate::catalog`] in the
/// driver; tests pass a small subset) at `scale` on `pool`.
///
/// # Panics
///
/// Panics if `scale` is not in `(0, 1]`.
pub fn run(suite: &[SuiteEntry], scale: f64, pool: ShardPool) -> Sweep {
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    let indices: Vec<usize> = (0..suite.len() + RMAT.len()).collect();
    let operands = pool.scoped_map(&indices, |_, &i| build(suite, i, scale));
    let mut ladders = ladders();
    let plan = Plan::new(suite.len(), &ladders);
    let outcomes = pool.scoped_map(&plan.jobs, |_, job| job.run(&operands, &plan.configs));

    let outcome = |job: Job| {
        let i = plan.jobs.iter().position(|j| *j == job);
        &outcomes[i.expect("every job read was planned")]
    };
    let sim = |operand: usize, config: &SpArchConfig| {
        let config = plan.configs.iter().position(|c| c == config);
        let config = config.expect("every configuration read was planned");
        match outcome(Job::Sim { operand, config }) {
            Outcome::Sim(record) => *record,
            _ => unreachable!("a simulation job yields a simulation"),
        }
    };
    let software =
        |operand: usize, platform: Platform| match outcome(Job::Software { operand, platform }) {
            Outcome::Software(result) => result.clone(),
            _ => unreachable!("a software job yields a software result"),
        };
    let default = SpArchConfig::default();

    let suite_runs = suite
        .iter()
        .enumerate()
        .map(|(i, &entry)| match outcome(Job::Analytic(i)) {
            Outcome::Analytic(outerspace, matrix, task) => SuiteRun {
                entry,
                matrix: matrix.clone(),
                task: task.clone(),
                outerspace: outerspace.clone(),
                software: Platform::ALL.iter().map(|&p| software(i, p)).collect(),
                sim: sim(i, &default),
            },
            _ => unreachable!("an analytic job yields the analytic models"),
        })
        .collect();
    let rmat = RMAT
        .iter()
        .enumerate()
        .map(|(k, &(n, degree))| {
            let i = suite.len() + k;
            RmatRun {
                name: format!("rmat-{}k-x{degree}", n / 1000),
                density: operands[i].density(),
                mkl: software(i, Platform::Mkl),
                sim: sim(i, &default),
            }
        })
        .collect();
    for rung in &mut ladders {
        let covered = (0..suite.len()).step_by(rung.step);
        rung.sims = covered.map(|i| sim(i, &rung.config)).collect();
    }
    Sweep {
        scale,
        suite: suite_runs,
        rmat,
        ladders,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::catalog;

    #[test]
    fn each_distinct_operand_config_pair_is_simulated_once() {
        let suite = catalog().len();
        let ladders = ladders();
        let plan = Plan::new(suite, &ladders);

        // Every (operand, config) pair a figure reads, repeats included.
        let default = SpArchConfig::default();
        let mut wanted: Vec<(usize, &SpArchConfig)> = (0..suite + RMAT.len())
            .map(|operand| (operand, &default))
            .collect();
        for rung in &ladders {
            wanted.extend((0..suite).step_by(rung.step).map(|i| (i, &rung.config)));
        }
        let distinct = (0..wanted.len())
            .filter(|&i| !wanted[..i].contains(&wanted[i]))
            .count();

        let sims: Vec<(usize, &SpArchConfig)> = plan
            .jobs
            .iter()
            .filter_map(|job| match *job {
                Job::Sim { operand, config } => Some((operand, &plan.configs[config])),
                _ => None,
            })
            .collect();
        assert_eq!(sims.len(), distinct);
        for (i, pair) in sims.iter().enumerate() {
            assert!(!sims[..i].contains(pair), "{pair:?} simulated twice");
            assert!(wanted.contains(pair), "{pair:?} is read by no figure");
        }
        // 39 default runs, 3 ablation and 5 tree rungs over 10 entries,
        // 18 non-default design points over 7 entries. The 13 separate
        // figure binaries ran 366 simulations for the same figures.
        assert_eq!(distinct, 39 + 80 + 126);
        assert!(sims.len() < 366);
    }

    #[test]
    fn every_job_is_planned_once() {
        let plan = Plan::new(catalog().len(), &ladders());
        for (i, job) in plan.jobs.iter().enumerate() {
            assert!(!plan.jobs[..i].contains(job), "{job:?} planned twice");
        }
        let software = plan
            .jobs
            .iter()
            .filter(|j| matches!(j, Job::Software { .. }))
            .count();
        assert_eq!(software, 20 * Platform::ALL.len() + RMAT.len());
    }
}
