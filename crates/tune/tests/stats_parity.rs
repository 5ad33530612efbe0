//! Satellite: one stats API, two operand homes. The planner consumes
//! [`OperandStats`] whether the operand lives in memory
//! ([`OperandStats::from_csr`]) or on disk
//! ([`OperandStats::scan_file`]); this suite pins that both paths
//! report the same shape, entry count, and column histogram — for
//! general, symmetric, skew-symmetric and pattern files — and that the
//! histogram is exactly what `mm::scan_col_nnz` sees.

use sparch_sparse::{gen, mm};
use sparch_tune::OperandStats;
use std::path::PathBuf;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "sparch-tune-parity-{}-{}.mtx",
        std::process::id(),
        tag
    ))
}

#[test]
fn scan_file_matches_from_csr() {
    let matrices = [
        ("rmat", gen::rmat_graph500(96, 5, 3)),
        ("rect", gen::uniform_random(40, 56, 300, 7)),
        ("banded", gen::banded(64, 2, 10, 9)),
    ];
    for (tag, m) in &matrices {
        let path = temp_path(tag);
        mm::write_file(&path, &m.to_coo()).expect("write matrix");

        let disk = OperandStats::scan_file(&path).expect("scan matrix");
        let memory = OperandStats::from_csr(m);
        assert_eq!(disk, memory, "disk vs in-memory stats diverge for {tag}");
        assert_eq!(
            disk.col_nnz,
            mm::scan_col_nnz(&path).expect("scan histogram"),
            "stats histogram diverges from mm::scan_col_nnz for {tag}"
        );
        assert_eq!(disk.nnz, disk.col_nnz.iter().sum::<usize>() as u64);

        std::fs::remove_file(&path).ok();
    }
}

/// Non-general files: the histogram counts mirrored entries, so `nnz`
/// must too — against the matrix the file actually holds.
#[test]
fn scan_file_counts_what_symmetry_and_pattern_files_expand_to() {
    use std::fmt::Write as _;
    let lower = gen::rmat_graph500(64, 6, 11);
    for (tag, header, keep_diagonal, with_value) in [
        ("symmetric", "real symmetric", true, true),
        ("skew", "real skew-symmetric", false, true),
        ("pattern", "pattern general", true, false),
        ("pattern-symmetric", "pattern symmetric", true, false),
    ] {
        // One triangle only, so no coordinate is stored twice and the
        // CSR of the whole read folds nothing.
        let stored: Vec<_> = lower
            .iter()
            .filter(|&(r, c, _)| r > c || (keep_diagonal && r == c))
            .collect();
        let mut text = format!(
            "%%MatrixMarket matrix coordinate {header}\n64 64 {}\n",
            stored.len()
        );
        for (r, c, v) in stored {
            let _ = if with_value {
                writeln!(text, "{} {} {v}", r + 1, c + 1)
            } else {
                writeln!(text, "{} {}", r + 1, c + 1)
            };
        }
        let path = temp_path(tag);
        std::fs::write(&path, text).expect("write matrix");

        let disk = OperandStats::scan_file(&path).expect("scan matrix");
        let held = mm::read_file(&path).expect("read matrix").to_csr();
        assert_eq!(disk, OperandStats::from_csr(&held), "{tag}");

        std::fs::remove_file(&path).ok();
    }
}

#[test]
fn scan_file_reports_io_errors() {
    let missing = temp_path("does-not-exist");
    assert!(OperandStats::scan_file(&missing).is_err());
}
