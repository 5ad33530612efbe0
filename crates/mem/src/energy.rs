//! Energy model.
//!
//! The paper's methodology (§III-A) is *constants × activity counts*:
//! Design Compiler + SAIF toggle rates for the merger logic, Galal &
//! Horowitz for the floating-point units, CACTI for SRAM/FIFOs, and the
//! published HBM2 figure of 42.6 GB/s/W for DRAM. We keep that structure:
//! the simulator produces [`ActivityCounts`], and [`EnergyModel`] applies
//! per-event constants calibrated to reproduce the paper's Table III and
//! Figure 13(b) breakdowns at the default configuration.

use serde::{Deserialize, Serialize};

/// Event counts produced by a simulation run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ActivityCounts {
    /// Double-precision multiplications in the multiplier array.
    pub multiplies: u64,
    /// Double-precision additions (the adder stage after each merger).
    pub adds: u64,
    /// 64-bit comparator evaluations inside the comparator arrays.
    pub comparator_ops: u64,
    /// Elements moved through merge-tree FIFOs (one push + one pop each).
    pub merge_tree_elements: u64,
    /// Bytes read or written in the prefetch row buffer.
    pub buffer_bytes: u64,
    /// Elements through the MatA column fetcher (look-ahead FIFO).
    pub fetcher_elements: u64,
    /// Elements through the partial-matrix writer FIFO.
    pub writer_elements: u64,
    /// Bytes read from DRAM.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM.
    pub dram_write_bytes: u64,
}

impl ActivityCounts {
    /// Sums two activity profiles.
    pub fn merge(&mut self, other: &ActivityCounts) {
        self.multiplies += other.multiplies;
        self.adds += other.adds;
        self.comparator_ops += other.comparator_ops;
        self.merge_tree_elements += other.merge_tree_elements;
        self.buffer_bytes += other.buffer_bytes;
        self.fetcher_elements += other.fetcher_elements;
        self.writer_elements += other.writer_elements;
        self.dram_read_bytes += other.dram_read_bytes;
        self.dram_write_bytes += other.dram_write_bytes;
    }
}

/// Per-event energy constants in picojoules.
///
/// Defaults are calibrated for TSMC 40 nm as in the paper: floating-point
/// constants follow Galal & Horowitz \[30\]; SRAM/FIFO constants are
/// CACTI-class numbers for the small (KB-range) buffers in Table I; DRAM
/// uses the paper's 42.6 GB/s/W (≈ 23.5 pJ/B).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// pJ per double-precision multiply.
    pub pj_per_multiply: f64,
    /// pJ per double-precision add.
    pub pj_per_add: f64,
    /// pJ per 64-bit comparator evaluation (including the mux/output path).
    pub pj_per_comparator_op: f64,
    /// pJ per element pushed+popped through a merge-tree FIFO
    /// (16-byte stream element, read + write).
    pub pj_per_merge_element: f64,
    /// pJ per byte accessed in the prefetch row buffer.
    pub pj_per_buffer_byte: f64,
    /// pJ per element through the column fetcher's look-ahead FIFO.
    pub pj_per_fetcher_element: f64,
    /// pJ per element through the partial-matrix writer FIFO.
    pub pj_per_writer_element: f64,
    /// pJ per DRAM byte (read or write).
    pub pj_per_dram_byte: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // Calibrated so a suite-average run reproduces the component
        // proportions of Figure 13(b) (merge tree ~55 %, HBM ~26 %,
        // prefetcher ~14 %) and Table III's 0.89 nJ/FLOP overall. The
        // merge-element and buffer constants are *effective* values: they
        // amortize tag lookups, next-use reduction trees and partially
        // used line fills over the useful bytes the simulator counts.
        EnergyModel {
            pj_per_multiply: 12.0,
            pj_per_add: 13.0,
            pj_per_comparator_op: 2.5,
            pj_per_merge_element: 55.0,
            pj_per_buffer_byte: 6.0,
            pj_per_fetcher_element: 400.0,
            pj_per_writer_element: 30.0,
            pj_per_dram_byte: 1e12 / 42.6e9, // 42.6 GB/s/W
        }
    }
}

/// Energy attributed to each architectural component, in joules, following
/// the paper's Figure 13(b) component list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// MatA column fetcher.
    pub column_fetcher: f64,
    /// MatB row prefetcher (buffer accesses).
    pub row_prefetcher: f64,
    /// Multiplier array.
    pub multiplier_array: f64,
    /// Merge tree (comparators + adders + FIFOs) — the dominant consumer.
    pub merge_tree: f64,
    /// Partial-matrix writer.
    pub partial_writer: f64,
    /// HBM dynamic energy.
    pub hbm: f64,
}

impl EnergyBreakdown {
    /// Total energy in joules.
    pub fn total(&self) -> f64 {
        self.column_fetcher
            + self.row_prefetcher
            + self.multiplier_array
            + self.merge_tree
            + self.partial_writer
            + self.hbm
    }

    /// Table III style aggregation: (computation, SRAM, DRAM) in joules.
    /// Computation = multipliers + merge-tree logic; SRAM = fetcher,
    /// prefetcher and writer buffers.
    pub fn by_category(&self) -> (f64, f64, f64) {
        (
            self.multiplier_array + self.merge_tree,
            self.column_fetcher + self.row_prefetcher + self.partial_writer,
            self.hbm,
        )
    }
}

impl EnergyModel {
    /// Applies the constants to an activity profile.
    pub fn estimate(&self, a: &ActivityCounts) -> EnergyBreakdown {
        let pj = EnergyBreakdown {
            column_fetcher: a.fetcher_elements as f64 * self.pj_per_fetcher_element,
            row_prefetcher: a.buffer_bytes as f64 * self.pj_per_buffer_byte,
            multiplier_array: a.multiplies as f64 * self.pj_per_multiply,
            merge_tree: a.comparator_ops as f64 * self.pj_per_comparator_op
                + a.adds as f64 * self.pj_per_add
                + a.merge_tree_elements as f64 * self.pj_per_merge_element,
            partial_writer: a.writer_elements as f64 * self.pj_per_writer_element,
            hbm: (a.dram_read_bytes + a.dram_write_bytes) as f64 * self.pj_per_dram_byte,
        };
        // pJ → J
        EnergyBreakdown {
            column_fetcher: pj.column_fetcher * 1e-12,
            row_prefetcher: pj.row_prefetcher * 1e-12,
            multiplier_array: pj.multiplier_array * 1e-12,
            merge_tree: pj.merge_tree * 1e-12,
            partial_writer: pj.partial_writer * 1e-12,
            hbm: pj.hbm * 1e-12,
        }
    }

    /// Energy per FLOP in nanojoules given total flops (the paper counts
    /// one multiply + one add per intermediate product, Table III).
    pub fn nj_per_flop(&self, a: &ActivityCounts, flops: u64) -> f64 {
        if flops == 0 {
            0.0
        } else {
            self.estimate(a).total() * 1e9 / flops as f64
        }
    }

    /// The paper's published per-component *power* breakdown in milliwatts
    /// (Figure 13(b)), for report comparison columns.
    pub fn paper_power_breakdown_mw() -> [(&'static str, f64); 6] {
        [
            ("column_fetcher", 101.39),
            ("row_prefetcher", 1155.72),
            ("multiplier_array", 73.10),
            ("merge_tree", 4738.47),
            ("partial_writer", 243.04),
            ("hbm", 2240.4),
        ]
    }

    /// The paper's published Table III per-FLOP energies in nJ for SpArch:
    /// (computation, SRAM, DRAM, overall).
    pub fn paper_nj_per_flop() -> (f64, f64, f64, f64) {
        (0.26, 0.34, 0.29, 0.89)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_activity() -> ActivityCounts {
        ActivityCounts {
            multiplies: 1000,
            adds: 500,
            comparator_ops: 250_000,
            merge_tree_elements: 12_000,
            buffer_bytes: 120_000,
            fetcher_elements: 1000,
            writer_elements: 1500,
            dram_read_bytes: 1_000_000,
            dram_write_bytes: 500_000,
        }
    }

    #[test]
    fn breakdown_total_is_sum_of_parts() {
        let model = EnergyModel::default();
        let b = model.estimate(&sample_activity());
        let sum = b.column_fetcher
            + b.row_prefetcher
            + b.multiplier_array
            + b.merge_tree
            + b.partial_writer
            + b.hbm;
        assert!((b.total() - sum).abs() < 1e-18);
        assert!(b.total() > 0.0);
    }

    #[test]
    fn dram_constant_matches_42_6_gbs_per_watt() {
        let model = EnergyModel::default();
        // 42.6 GB moved should cost ~1 J.
        let a = ActivityCounts {
            dram_read_bytes: 42_600_000_000,
            ..Default::default()
        };
        let e = model.estimate(&a);
        assert!((e.hbm - 1.0).abs() < 1e-6, "got {}", e.hbm);
    }

    #[test]
    fn category_split_is_partition() {
        let model = EnergyModel::default();
        let b = model.estimate(&sample_activity());
        let (comp, sram, dram) = b.by_category();
        assert!((comp + sram + dram - b.total()).abs() < 1e-18);
    }

    #[test]
    fn energy_scales_linearly_with_activity() {
        let model = EnergyModel::default();
        let a = sample_activity();
        let mut doubled = a;
        doubled.merge(&a);
        let e1 = model.estimate(&a).total();
        let e2 = model.estimate(&doubled).total();
        assert!((e2 - 2.0 * e1).abs() < 1e-15);
    }

    #[test]
    fn nj_per_flop_is_in_paper_ballpark() {
        // An activity mix resembling the evaluation average: per multiply,
        // roughly one add, a few hundred comparator ops (16x16 array over
        // 6 layers), ~12 merge elements, a couple of DRAM bytes/flop.
        let m = 1_000_000u64;
        let a = ActivityCounts {
            multiplies: m,
            adds: m / 2,
            comparator_ops: 160 * m,
            merge_tree_elements: 9 * m,
            buffer_bytes: 12 * m,
            fetcher_elements: m / 50,
            writer_elements: 2 * m,
            dram_read_bytes: 7 * m,
            dram_write_bytes: 5 * m,
        };
        let flops = 2 * m;
        let nj = EnergyModel::default().nj_per_flop(&a, flops);
        let (_, _, _, paper) = EnergyModel::paper_nj_per_flop();
        assert!(
            nj > paper * 0.3 && nj < paper * 3.0,
            "nj/flop {nj:.3} too far from paper {paper}"
        );
    }

    #[test]
    fn zero_flops_is_zero_intensity() {
        assert_eq!(
            EnergyModel::default().nj_per_flop(&ActivityCounts::default(), 0),
            0.0
        );
    }

    #[test]
    fn paper_tables_are_consistent() {
        let (c, s, d, total) = EnergyModel::paper_nj_per_flop();
        assert!((c + s + d - total).abs() < 1e-9);
        let mw: f64 = EnergyModel::paper_power_breakdown_mw()
            .iter()
            .map(|&(_, v)| v)
            .sum();
        assert!(mw > 8000.0 && mw < 9300.0, "paper power sums to {mw} mW");
    }
}
