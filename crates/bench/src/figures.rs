//! The paper's figures and tables, each a pure function from one
//! [`Sweep`] record to the tables it prints. Every table puts the
//! paper's published value beside the reproduced one.
//!
//! The software-baseline columns of Figures 11, 12 and 14 divide by a
//! host wall-clock time, so they are noisy, and contended when the sweep
//! runs on several threads; every other number is model-driven.

use crate::runner::{geomean, print_table};
use crate::sweep::{Rung, SimRecord, SuiteRun, Sweep};
use sparch_core::{MergePlan, Roofline, SchedulerKind, SpArchConfig};
use sparch_mem::EnergyModel;

/// One printed table: a title, aligned rows, and lines after it.
#[derive(Debug, Clone)]
pub struct Table {
    /// Printed above the table.
    pub title: String,
    /// Column headers.
    pub headers: Vec<&'static str>,
    /// One cell per header in each row.
    pub rows: Vec<Vec<String>>,
    /// Printed below the table.
    pub notes: Vec<String>,
}

impl Table {
    fn new(title: impl Into<String>, headers: &[&'static str], rows: Vec<Vec<String>>) -> Table {
        Table {
            title: title.into(),
            headers: headers.to_vec(),
            rows,
            notes: Vec::new(),
        }
    }

    fn note(mut self, line: impl Into<String>) -> Table {
        self.notes.push(line.into());
        self
    }

    /// Prints the title, the table and the notes, then a blank line.
    pub fn print(&self) {
        println!("{}\n", self.title);
        print_table(&self.headers, &self.rows);
        for line in &self.notes {
            println!("{line}");
        }
        println!();
    }
}

/// A renderer: the tables of one figure or table of the paper.
pub type Renderer = fn(&Sweep) -> Vec<Table>;

/// Every renderer, in print order, by name.
pub const ALL: [(&str, Renderer); 13] = [
    ("table1", table1),
    ("fig8", fig8),
    ("suite_stats", suite_stats),
    ("fig11", fig11),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("table2", table2),
    ("table3", table3),
];

/// Formats `values` with one precision per column after a name cell.
fn cells(name: &str, values: &[f64], precision: &[usize]) -> Vec<String> {
    let formatted = values
        .iter()
        .zip(precision)
        .map(|(v, &p)| format!("{v:.p$}"));
    std::iter::once(name.to_string()).chain(formatted).collect()
}

/// Each column's geometric mean over `rows`, in row order.
fn geomean_columns(rows: &[Vec<f64>]) -> Vec<f64> {
    let width = rows.first().map_or(0, Vec::len);
    (0..width)
        .map(|c| geomean(&rows.iter().map(|r| r[c]).collect::<Vec<_>>()))
        .collect()
}

/// The geometric means of a rung's GFLOPS and DRAM MB.
fn rung_means(sims: &[SimRecord]) -> (f64, f64) {
    let gflops: Vec<f64> = sims.iter().map(|s| s.perf.gflops).collect();
    let mbs: Vec<f64> = sims.iter().map(|s| s.dram_mb).collect();
    (geomean(&gflops), geomean(&mbs))
}

/// The rungs of one ladder family, in sweep order.
fn family<'a>(s: &'a Sweep, name: &'a str) -> impl Iterator<Item = &'a Rung> {
    s.ladders.iter().filter(move |r| r.family == name)
}

/// Table I: the architectural setup, from the default configuration.
fn table1(_: &Sweep) -> Vec<Table> {
    let c = SpArchConfig::default();
    let rows = [
        (
            "Array Merger",
            format!(
                "{0}x{0} hierarchical merger ({1}x{1} top + {1}x{1} low), 64-bit index, 1 GHz",
                c.merger_width, c.merger_chunk
            ),
        ),
        (
            "Merge Tree",
            format!(
                "{} layers of array merger, merging up to {} arrays",
                c.tree_layers,
                c.merge_ways()
            ),
        ),
        (
            "Multiplier",
            format!(
                "2 groups x {} double-precision multipliers",
                c.multipliers / 2
            ),
        ),
        (
            "MatA Column Fetcher",
            format!(
                "look-ahead buffer of {} elements, 64 column fetchers",
                c.prefetch.lookahead
            ),
        ),
        (
            "MatB Row Prefetcher",
            format!(
                "{} lines x {} elements x 12 B buffer, {} DRAM-channel fetchers",
                c.prefetch.lines, c.prefetch.line_elems, c.prefetch.fetchers
            ),
        ),
        (
            "Partial Matrix Writer",
            format!("FIFO of {} elements before DRAM", c.writer_fifo),
        ),
        (
            "Main Memory",
            format!(
                "{} x 64-bit HBM channels, {:.0} GB/s each ({:.0} GB/s aggregate)",
                c.hbm.channels,
                c.hbm.bytes_per_cycle_per_channel,
                c.hbm.bandwidth_gbs()
            ),
        ),
        ("Peak compute", format!("{:.0} GFLOP/s", c.peak_gflops())),
    ];
    let rows = rows.into_iter().map(|(u, s)| vec![u.into(), s]).collect();
    vec![Table::new(
        "Table I — architectural setup of SpArch",
        &["unit", "setting"],
        rows,
    )]
}

/// Figure 8: the Huffman scheduler's worked example, whose totals the
/// schedulers must reproduce exactly.
fn fig8(_: &Sweep) -> Vec<Table> {
    let weights: [u64; 12] = [15, 15, 13, 12, 9, 7, 3, 2, 2, 2, 2, 2];
    let cases = [
        (
            "2-way sequential (Fig. 8a)",
            SchedulerKind::Sequential,
            2,
            365,
        ),
        ("2-way Huffman (Fig. 8b)", SchedulerKind::Huffman, 2, 354),
        ("4-way Huffman (Fig. 8c)", SchedulerKind::Huffman, 4, 228),
    ];
    let rows = cases
        .iter()
        .map(|&(name, kind, ways, paper)| {
            let plan = MergePlan::build(kind, &weights, ways);
            plan.validate();
            let measured = plan.estimated_total_weight();
            let verdict = if measured == paper {
                "exact"
            } else {
                "MISMATCH"
            };
            vec![
                name.to_string(),
                paper.to_string(),
                measured.to_string(),
                verdict.into(),
                plan.rounds.len().to_string(),
            ]
        })
        .collect();
    let title = format!(
        "Figure 8 — Huffman tree scheduler worked example\nleaf weights: {weights:?} (sum = {})",
        weights.iter().sum::<u64>()
    );
    let headers = [
        "scheduler",
        "paper total",
        "measured total",
        "match",
        "rounds",
    ];
    vec![Table::new(title, &headers, rows)]
}

/// The suite surrogates' structure and work next to the originals'
/// published shapes.
fn suite_stats(s: &Sweep) -> Vec<Table> {
    let rows = s
        .suite
        .iter()
        .map(|r| {
            let (m, t, e) = (&r.matrix, &r.task, &r.entry);
            vec![
                e.name.to_string(),
                format!("{} ({})", m.rows, e.rows),
                format!("{} ({})", m.nnz, e.nnz),
                format!("{:.1} ({:.1})", m.avg_row_nnz, e.avg_degree()),
                format!("{:.2}", m.row_cv),
                t.condensed_cols.to_string(),
                t.occupied_cols.to_string(),
                format!("{:.2}", t.compression_factor),
                format!("{:.3}", t.operational_intensity),
                t.multiplies.to_string(),
                t.output_nnz.to_string(),
            ]
        })
        .collect();
    let headers = [
        "matrix",
        "rows",
        "nnz",
        "deg",
        "row CV",
        "cond cols",
        "occ cols",
        "compress",
        "OI",
        "multiplies",
        "out nnz",
    ];
    let title = format!(
        "Suite surrogate characterization at scale {} (original shapes in parentheses)",
        s.scale
    );
    vec![Table::new(title, &headers, rows).note(
        "cond cols = partial matrices after condensing (paper: 100-1000); \
         occ cols = partial matrices without condensing; \
         OI = theoretical operational intensity (paper suite mean: 0.19); \
         multiplies and out nnz = the work of A x A",
    )]
}

/// Figures 11 and 12: per suite entry, SpArch's own figure and then its
/// ratio over OuterSPACE and each software platform; a geometric-mean
/// row; and the paper's geometric means.
fn versus(
    s: &Sweep,
    title: &str,
    first: &'static str,
    precision: [usize; 6],
    paper: [&str; 6],
    row: impl Fn(&SuiteRun) -> Vec<f64>,
) -> Vec<Table> {
    let mut values: Vec<Vec<f64>> = s.suite.iter().map(row).collect();
    values.push(geomean_columns(&values));
    let names = s.suite.iter().map(|r| r.entry.name).chain(["GeoMean"]);
    let mut rows: Vec<Vec<String>> = names
        .zip(&values)
        .map(|(name, v)| cells(name, v, &precision))
        .collect();
    rows.push(
        std::iter::once("paper GeoMean")
            .chain(paper)
            .map(String::from)
            .collect(),
    );
    let headers = [
        "matrix",
        first,
        "vs OuterSPACE",
        "vs MKL",
        "vs cuSPARSE",
        "vs CUSP",
        "vs Armadillo",
    ];
    vec![Table::new(
        format!("{title} (scale {})", s.scale),
        &headers,
        rows,
    )]
}

/// Figure 11: speedup of SpArch over OuterSPACE and the four software
/// platforms on the suite.
fn fig11(s: &Sweep) -> Vec<Table> {
    let paper = ["-", "4.2", "18.7", "17.6", "16.6", "1285"];
    let title = "Figure 11 — speedup of SpArch over baselines";
    versus(s, title, "SpArch GFLOPS", [2, 2, 1, 1, 1, 0], paper, |r| {
        let g = r.sim.perf.gflops;
        let software = r.software.iter().map(|sw| g / sw.calibrated_gflops);
        [g, g / r.outerspace.gflops]
            .into_iter()
            .chain(software)
            .collect()
    })
}

/// Figure 12: energy saving of SpArch over the same baselines.
fn fig12(s: &Sweep) -> Vec<Table> {
    let paper = ["-", "6.1", "164", "435", "307", "62"];
    let title = "Figure 12 — energy saving of SpArch over baselines";
    versus(s, title, "SpArch nJ/FLOP", [3, 2, 0, 0, 0, 0], paper, |r| {
        let joules = r.sim.energy.total();
        let software = r.software.iter().map(|sw| sw.energy_j / joules);
        let own = [r.sim.nj_per_flop, r.outerspace.energy_j / joules];
        own.into_iter().chain(software).collect()
    })
}

/// Figure 13: area (a) and power (b) per component. Power is the
/// simulated per-component energy over the first six suite entries
/// divided by their simulated time.
fn fig13(s: &Sweep) -> Vec<Table> {
    let sims: Vec<&SimRecord> = s.suite.iter().take(6).map(|r| &r.sim).collect();
    let mut component_j = [0.0f64; 6];
    let mut seconds = 0.0f64;
    for sim in &sims {
        let e = &sim.energy;
        let joules = [
            e.column_fetcher,
            e.row_prefetcher,
            e.multiplier_array,
            e.merge_tree,
            e.partial_writer,
            e.hbm,
        ];
        for (acc, j) in component_j.iter_mut().zip(joules) {
            *acc += j;
        }
        seconds += sim.perf.seconds;
    }
    // Area depends only on the configuration: every run agrees.
    let area = &sims.first().expect("at least one suite entry").area;
    let total_area = area.total();
    let area_rows = [
        ("Column Fetcher", area.column_fetcher, 2.64),
        ("Row Prefetcher", area.row_prefetcher, 5.8),
        ("Multiplier Array", area.multiplier_array, 0.45),
        ("Merge Tree", area.merge_tree, 17.27),
        ("Partial Mat Writer", area.partial_writer, 2.34),
    ]
    .iter()
    .map(|(n, v, p)| {
        vec![
            n.to_string(),
            format!("{v:.2}"),
            format!("{:.1}%", v / total_area * 100.0),
            format!("{p:.2}"),
        ]
    })
    .collect();

    let paper_mw = EnergyModel::paper_power_breakdown_mw();
    let names = [
        "Column Fetcher",
        "Row Prefetcher",
        "Multiplier Array",
        "Merge Tree",
        "Partial Mat Writer",
        "HBM",
    ];
    let total_w: f64 = component_j.iter().sum::<f64>() / seconds;
    let power_rows = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let mw = component_j[i] / seconds * 1e3;
            vec![
                n.to_string(),
                format!("{mw:.1}"),
                format!("{:.1}%", mw / (total_w * 1e3) * 100.0),
                format!("{:.1}", paper_mw[i].1),
            ]
        })
        .collect();
    vec![
        Table::new(
            "Figure 13(a) — area breakdown (mm2)",
            &["component", "mm2", "share", "paper mm2"],
            area_rows,
        )
        .note(format!("total: {total_area:.2} mm2 (paper: 28.49)")),
        Table::new(
            format!(
                "Figure 13(b) — power breakdown (mW) over {} suite matrices",
                sims.len()
            ),
            &["component", "mW (measured)", "share", "paper mW"],
            power_rows,
        )
        .note(format!(
            "total: {total_w:.2} W (paper: 9.26 W incl. static)"
        )),
    ]
}

/// Figure 14: FLOPS on the R-MAT ladder against the MKL-class kernel.
/// The reproduction target is the stability gap as density falls.
fn fig14(s: &Sweep) -> Vec<Table> {
    // (density, MKL FLOPS, SpArch FLOPS) per operand, densest first.
    let mut values: Vec<Vec<f64>> = s
        .rmat
        .iter()
        .map(|r| {
            vec![
                r.density,
                r.mkl.calibrated_gflops * 1e9,
                r.sim.perf.gflops * 1e9,
            ]
        })
        .collect();
    let degradation = |c: usize| match (values.first(), values.last()) {
        (Some(first), Some(last)) => first[c] / last[c],
        _ => f64::NAN,
    };
    let (sparch_deg, mkl_deg) = (degradation(2), degradation(1));
    values.push(geomean_columns(&values));
    let names = s.rmat.iter().map(|r| r.name.as_str()).chain(["GeoMean"]);
    let mut rows: Vec<Vec<String>> = names
        .zip(&values)
        .map(|(name, v)| {
            vec![
                name.to_string(),
                format!("{:.1e}", v[0]),
                format!("{:.3e}", v[1]),
                format!("{:.3e}", v[2]),
                format!("{:.1}x", v[2] / v[1]),
            ]
        })
        .collect();
    rows.push(
        ["paper GeoMean", "-", "5.7e8", "7.5e9", "13.2x"]
            .map(String::from)
            .into(),
    );
    let title = format!("Figure 14 — FLOPS on rMAT benchmarks (scale {})", s.scale);
    let headers = ["config", "density", "MKL FLOPS", "SpArch FLOPS", "ratio"];
    vec![Table::new(title, &headers, rows).note(format!(
        "\ndensest→sparsest degradation: SpArch {sparch_deg:.1}x (paper 2.7x), MKL {mkl_deg:.1}x (paper 5.9x)"
    ))]
}

/// Figure 15: the roofline at the suite's geometric-mean intensity.
fn fig15(s: &Sweep) -> Vec<Table> {
    let model = Roofline::paper_default();
    let gm = |f: fn(&SuiteRun) -> f64| geomean(&s.suite.iter().map(f).collect::<Vec<_>>());
    let oi = gm(|r| r.task.operational_intensity);
    let ours = gm(|r| r.sim.perf.gflops);
    let outer = gm(|r| r.outerspace.gflops);
    let point = model.place(oi, ours);
    let rows = [
        ("operational intensity (FLOP/B)", format!("{oi:.3}"), "0.19"),
        (
            "compute roof (GFLOP/s)",
            format!("{:.1}", model.compute_roof_gflops),
            "32.0",
        ),
        (
            "bandwidth roof @ OI (GFLOP/s)",
            format!("{:.1}", point.roof_gflops),
            "23.9",
        ),
        ("SpArch attained (GFLOP/s)", format!("{ours:.1}"), "10.4"),
        (
            "OuterSPACE attained (GFLOP/s)",
            format!("{outer:.1}"),
            "2.5",
        ),
        (
            "roof / SpArch",
            format!("{:.1}x", point.roof_gflops / ours),
            "2.3x",
        ),
        (
            "SpArch / OuterSPACE",
            format!("{:.1}x", ours / outer),
            "4.2x",
        ),
    ]
    .into_iter()
    .map(|(q, m, p)| vec![q.to_string(), m, p.to_string()])
    .collect();
    vec![Table::new(
        format!("Figure 15 — roofline (scale {})", s.scale),
        &["quantity", "measured", "paper"],
        rows,
    )]
}

/// Figure 16: the ablation ladder from OuterSPACE to full SpArch.
fn fig16(s: &Sweep) -> Vec<Table> {
    let rungs: Vec<&Rung> = family(s, "ablation").collect();
    let step = rungs.first().map_or(1, |r| r.step);
    let covered: Vec<_> = s.suite.iter().step_by(step).collect();
    let os_gflops = geomean(
        &covered
            .iter()
            .map(|r| r.outerspace.gflops)
            .collect::<Vec<_>>(),
    );
    let os_mb = geomean(
        &covered
            .iter()
            .map(|r| r.outerspace.traffic.total_mb())
            .collect::<Vec<_>>(),
    );
    // The paper's factor per rung: over OuterSPACE, then over the rung before.
    let paper = [
        ("0.17x", "0.17x"),
        ("-", "8.8x"),
        ("-", "1.5x"),
        ("4.2x", "1.8x"),
    ];
    let mut rows = vec![vec![
        "OuterSPACE baseline".to_string(),
        format!("{os_gflops:.2}"),
        format!("{os_mb:.1}"),
        "1.00x".into(),
        "1.00x".into(),
        "1.00x".into(),
        "1.00x".into(),
    ]];
    let mut prev = os_gflops;
    for (rung, (paper_os, paper_step)) in rungs.iter().zip(paper) {
        let (g, mb) = rung_means(&rung.sims);
        rows.push(vec![
            rung.setting.clone(),
            format!("{g:.2}"),
            format!("{mb:.1}"),
            format!("{:.2}x", g / os_gflops),
            paper_os.into(),
            format!("{:.2}x", g / prev),
            paper_step.into(),
        ]);
        prev = g;
    }
    let title = format!(
        "Figure 16 — stepwise gains (scale {}, {} matrices)",
        s.scale,
        covered.len()
    );
    let headers = [
        "configuration",
        "GFLOPS",
        "DRAM MB",
        "vs OuterSPACE",
        "paper",
        "step speedup",
        "paper step",
    ];
    vec![Table::new(title, &headers, rows)]
}

/// Figure 17: design-space sweeps around the default configuration,
/// which is the paper's pick on every axis.
fn fig17(s: &Sweep) -> Vec<Table> {
    let sweeps = [
        (
            "line",
            "Figure 17(a) — prefetch buffer line size (1024 lines)",
        ),
        (
            "lines",
            "Figure 17(b) — line count at fixed 49152-element capacity",
        ),
        ("merger", "Figure 17(c) — comparator array size"),
        (
            "policy",
            "Extension — replacement policy ablation (Bélády vs LRU)",
        ),
        ("lookahead", "Figure 17(d) — look-ahead FIFO size"),
    ];
    let default = SpArchConfig::default();
    sweeps
        .iter()
        .map(|&(name, title)| {
            let rows = family(s, name)
                .map(|rung| {
                    let (g, mb) = rung_means(&rung.sims);
                    let pick = if rung.config == default { "pick" } else { "-" };
                    vec![
                        rung.setting.clone(),
                        format!("{g:.2}"),
                        format!("{mb:.1}"),
                        pick.into(),
                    ]
                })
                .collect();
            Table::new(title, &["setting", "GFLOPS", "DRAM MB", "paper"], rows)
        })
        .collect()
}

/// Figure 18: merge-tree size. The paper saturates at 6 layers.
fn fig18(s: &Sweep) -> Vec<Table> {
    let rows = family(s, "tree")
        .map(|rung| {
            let (g, mb) = rung_means(&rung.sims);
            let layers = rung.config.tree_layers;
            let paper = if layers == 6 { "10.45" } else { "-" };
            vec![
                layers.to_string(),
                rung.config.merge_ways().to_string(),
                format!("{g:.2}"),
                format!("{mb:.1}"),
                paper.into(),
            ]
        })
        .collect();
    let title = format!("Figure 18 — merge tree size (scale {})", s.scale);
    let headers = ["layers", "ways", "GFLOPS", "DRAM MB", "paper GFLOPS"];
    vec![Table::new(title, &headers, rows)]
}

/// Every second suite entry's default-configuration run: the slice
/// Tables II and III average over.
fn half(s: &Sweep) -> Vec<&SimRecord> {
    s.suite.iter().step_by(2).map(|r| &r.sim).collect()
}

/// Table II: area, power and bandwidth utilization against OuterSPACE's
/// published figures.
fn table2(s: &Sweep) -> Vec<Table> {
    let os = sparch_baselines::OuterSpaceModel::default();
    let sims = half(s);
    let avg = |f: fn(&SimRecord) -> f64| sims.iter().map(|r| f(r)).sum::<f64>() / sims.len() as f64;
    let area = sims.first().expect("at least one suite entry").area.total();
    let rows = [
        ["technology", "40 nm (modelled)", "40 nm", "32 nm"].map(String::from),
        [
            "area (mm2)".into(),
            format!("{area:.2}"),
            "28.49".into(),
            format!("{:.0}", os.area_mm2),
        ],
        [
            "power (W)".into(),
            format!("{:.2}", avg(|r| r.avg_power_w)),
            "9.26".into(),
            format!("{:.2}", os.power_w),
        ],
        ["DRAM", "HBM @ 128 GB/s", "HBM @ 128 GB/s", "HBM @ 128 GB/s"].map(String::from),
        [
            "bandwidth utilization".into(),
            format!("{:.1}%", avg(|r| r.perf.bandwidth_utilization) * 100.0),
            "68.6%".into(),
            format!("{:.1}%", os.utilization * 100.0),
        ],
    ]
    .map(Vec::from)
    .into();
    let headers = [
        "quantity",
        "SpArch (measured)",
        "SpArch (paper)",
        "OuterSPACE (published)",
    ];
    let title = format!("Table II — comparison with OuterSPACE (scale {})", s.scale);
    vec![Table::new(title, &headers, rows)]
}

/// Table III: energy per FLOP by category, and the two largest areas.
fn table3(s: &Sweep) -> Vec<Table> {
    let sims = half(s);
    let (mut comp, mut sram, mut dram, mut flops) = (0.0, 0.0, 0.0, 0u64);
    for r in &sims {
        let (c, m, d) = r.energy.by_category();
        comp += c;
        sram += m;
        dram += d;
        flops += r.perf.flops;
    }
    let nj = |j: f64| format!("{:.3}", j * 1e9 / flops as f64);
    let (pc, ps, pd, pt) = EnergyModel::paper_nj_per_flop();
    let rows = [
        [
            "computation".into(),
            nj(comp),
            pc.to_string(),
            "3.19".into(),
        ],
        ["SRAM".into(), nj(sram), ps.to_string(), "0.35".into()],
        ["DRAM".into(), nj(dram), pd.to_string(), "1.20".into()],
        ["crossbar", "n/a", "n/a", "0.21"].map(String::from),
        [
            "overall".into(),
            nj(comp + sram + dram),
            pt.to_string(),
            "4.95".into(),
        ],
    ]
    .map(Vec::from)
    .into();
    let area = &sims.first().expect("at least one suite entry").area;
    let headers = [
        "category",
        "SpArch measured",
        "SpArch paper",
        "OuterSPACE published",
    ];
    let title = format!("Table III — energy breakdown, nJ/FLOP (scale {})", s.scale);
    vec![Table::new(title, &headers, rows).note(format!(
        "\narea: merge tree {:.2} mm2 (paper 17.27) + row prefetcher {:.2} mm2 (paper 5.8) dominate \
         (paper Table III: 24.4 mm2 SRAM, 4.1 mm2 compute)",
        area.merge_tree, area.row_prefetcher
    ))]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{catalog, sweep};
    use sparch_exec::ShardPool;

    #[test]
    fn every_renderer_renders_a_tiny_record() {
        let facebook = catalog().into_iter().find(|e| e.name == "facebook");
        let record = sweep::run(
            &[facebook.expect("in the catalog")],
            0.001,
            ShardPool::new(2),
        );
        for (name, render) in ALL {
            let tables = render(&record);
            assert!(!tables.is_empty(), "{name}");
            for t in &tables {
                assert!(!t.rows.is_empty(), "{name}: {}", t.title);
                let widths_match = t.rows.iter().all(|r| r.len() == t.headers.len());
                assert!(widths_match, "{name}: {}", t.title);
            }
        }
        let fig8 = &fig8(&record)[0];
        assert_eq!(fig8.rows.len(), 3);
        assert!(fig8.rows.iter().all(|r| r[3] == "exact"), "{fig8:?}");
    }
}
