//! The 20-benchmark suite (paper §III-A, Figures 11–12).
//!
//! The paper evaluates on 20 matrices from SuiteSparse (ref. 27) and SNAP
//! (ref. 28).
//! We cannot redistribute them, so each entry records the original's
//! published shape (rows, nnz) and structural class, and builds a
//! structure-matched synthetic surrogate at a configurable scale: R-MAT
//! for power-law graphs, 3-D stencils for FEM/PDE matrices,
//! banded-plus-random for circuits and road networks, uniform for the
//! quasi-regular combinatorial matrices.
//!
//! `scale` shrinks rows and nnz together, preserving the average degree
//! (the statistic SpArch's behaviour keys on); `scale = 1.0` reproduces
//! the original published shape.

use serde::{Deserialize, Serialize};
use sparch_sparse::{gen, Csr};

/// Structural class of a suite matrix, choosing its surrogate generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatrixClass {
    /// Social/web/citation graph with power-law degrees → R-MAT.
    PowerLaw,
    /// FEM / PDE mesh → 3-D 7-point stencil (plus uniform spill to match
    /// the published density).
    Mesh,
    /// Circuit matrix → banded diagonal plus random coupling.
    Circuit,
    /// Road network → very low, near-uniform degree, local structure.
    Road,
    /// Quasi-regular combinatorial matrix → uniform random.
    Uniform,
}

/// One benchmark matrix: published metadata plus its surrogate recipe.
///
/// Serialize-only: the `&'static str` name cannot be deserialized from
/// owned JSON text, and nothing needs to read entries back.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SuiteEntry {
    /// SuiteSparse/SNAP name as in the paper's figures.
    pub name: &'static str,
    /// Published number of rows (square matrices throughout the suite).
    pub rows: usize,
    /// Published number of non-zeros.
    pub nnz: usize,
    /// Structural class → surrogate generator.
    pub class: MatrixClass,
}

impl SuiteEntry {
    /// Average non-zeros per row of the original.
    pub fn avg_degree(&self) -> f64 {
        self.nnz as f64 / self.rows as f64
    }

    /// Builds the surrogate at `scale` (rows and nnz shrink together;
    /// degree is preserved). Deterministic per entry.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn build(&self, scale: f64) -> Csr {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let rows = ((self.rows as f64 * scale) as usize).max(512);
        // Derive nnz from the clamped row count so the average degree —
        // the statistic SpArch's behaviour keys on — survives any scale.
        let nnz = ((rows as f64 * self.avg_degree()) as usize).max(rows);
        let seed = seed_of(self.name);
        match self.class {
            MatrixClass::PowerLaw => {
                let degree = (self.avg_degree().round() as usize).max(2);
                gen::rmat_graph500(rows, degree, seed)
            }
            MatrixClass::Mesh => {
                // Cube grid with the right point count; the 7-point
                // stencil gives the right structure, then uniform spill
                // tops the density up to the published average degree.
                let side = (rows as f64).cbrt().round().max(2.0) as usize;
                let stencil = gen::poisson3d(side, side, side);
                let deficit = nnz.saturating_sub(stencil.nnz() * rows / stencil.rows().max(1));
                if deficit > stencil.nnz() / 4 {
                    // Rebuild at the exact row count with spill.
                    let mut coo = stencil.to_coo();
                    let extra = gen::uniform_random(stencil.rows(), stencil.rows(), deficit, seed);
                    coo.extend(extra.iter());
                    coo.sort_dedup();
                    coo.to_csr()
                } else {
                    stencil
                }
            }
            MatrixClass::Circuit => gen::banded(rows, 1, nnz.saturating_sub(3 * rows), seed),
            MatrixClass::Road => gen::banded(rows, 1, nnz / 10, seed),
            MatrixClass::Uniform => gen::uniform_random(rows, rows, nnz, seed),
        }
    }
}

/// Deterministic seed from the matrix name.
fn seed_of(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x1000_0000_01b3)
    })
}

/// The paper's 20 benchmarks with their published shapes
/// (SuiteSparse/SNAP metadata).
pub fn catalog() -> Vec<SuiteEntry> {
    use MatrixClass::*;
    vec![
        SuiteEntry {
            name: "2cubes_sphere",
            rows: 101_492,
            nnz: 1_647_264,
            class: Mesh,
        },
        SuiteEntry {
            name: "amazon0312",
            rows: 400_727,
            nnz: 3_200_440,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "ca-CondMat",
            rows: 23_133,
            nnz: 186_936,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "cage12",
            rows: 130_228,
            nnz: 2_032_536,
            class: Uniform,
        },
        SuiteEntry {
            name: "cit-Patents",
            rows: 3_774_768,
            nnz: 16_518_948,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "cop20k_A",
            rows: 121_192,
            nnz: 2_624_331,
            class: Mesh,
        },
        SuiteEntry {
            name: "email-Enron",
            rows: 36_692,
            nnz: 367_662,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "facebook",
            rows: 4_039,
            nnz: 88_234,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "filter3D",
            rows: 106_437,
            nnz: 2_707_179,
            class: Mesh,
        },
        SuiteEntry {
            name: "m133-b3",
            rows: 200_200,
            nnz: 800_800,
            class: Uniform,
        },
        SuiteEntry {
            name: "mario002",
            rows: 389_874,
            nnz: 2_101_242,
            class: Mesh,
        },
        SuiteEntry {
            name: "offshore",
            rows: 259_789,
            nnz: 4_242_673,
            class: Mesh,
        },
        SuiteEntry {
            name: "p2p-Gnutella31",
            rows: 62_586,
            nnz: 147_892,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "patents_main",
            rows: 240_547,
            nnz: 560_943,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "poisson3Da",
            rows: 13_514,
            nnz: 352_762,
            class: Mesh,
        },
        SuiteEntry {
            name: "roadNet-CA",
            rows: 1_971_281,
            nnz: 5_533_214,
            class: Road,
        },
        SuiteEntry {
            name: "scircuit",
            rows: 170_998,
            nnz: 958_936,
            class: Circuit,
        },
        SuiteEntry {
            name: "web-Google",
            rows: 916_428,
            nnz: 5_105_039,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "webbase-1M",
            rows: 1_000_005,
            nnz: 3_105_536,
            class: PowerLaw,
        },
        SuiteEntry {
            name: "wiki-Vote",
            rows: 8_297,
            nnz: 103_689,
            class: PowerLaw,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_entries_like_the_paper() {
        assert_eq!(catalog().len(), 20);
        let names: Vec<&str> = catalog().iter().map(|e| e.name).collect();
        assert!(names.contains(&"cit-Patents"));
        assert!(names.contains(&"poisson3Da"));
    }

    #[test]
    fn surrogates_build_at_small_scale() {
        for entry in catalog() {
            let m = entry.build(0.01);
            assert!(m.rows() >= 512, "{}", entry.name);
            assert!(m.nnz() > 0, "{}", entry.name);
            // Average degree within 3x of the original's (structure held).
            let degree = m.nnz() as f64 / m.rows() as f64;
            assert!(
                degree > entry.avg_degree() / 3.0 && degree < entry.avg_degree() * 3.0,
                "{}: surrogate degree {degree:.1} vs original {:.1}",
                entry.name,
                entry.avg_degree()
            );
        }
    }

    #[test]
    fn surrogates_are_deterministic() {
        let e = catalog()[1];
        assert_eq!(e.build(0.02), e.build(0.02));
    }

    #[test]
    fn class_structure_is_visible() {
        let by_name = |n: &str| catalog().into_iter().find(|e| e.name == n).unwrap();
        let social = by_name("wiki-Vote").build(0.5);
        let mesh = by_name("poisson3Da").build(0.5);
        let s_stats = sparch_sparse::stats::MatrixStats::of(&social);
        let m_stats = sparch_sparse::stats::MatrixStats::of(&mesh);
        assert!(
            s_stats.row_cv > m_stats.row_cv,
            "power-law surrogate must be more skewed than the mesh"
        );
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn zero_scale_rejected() {
        let _ = catalog()[0].build(0.0);
    }
}
