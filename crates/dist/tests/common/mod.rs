//! Shared helpers for the `sparch-dist` integration suites.

use sparch_dist::DistConfig;
use sparch_sparse::Csr;
use sparch_stream::{ExecPlan, StreamConfig};
use std::path::PathBuf;

/// The worker binary cargo built for this test run — handed to the
/// coordinator explicitly so tests never depend on `$PATH` or the
/// executable-adjacent fallback.
pub fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_sparch-dist-worker"))
}

/// A pinned distributed config wired to the test worker binary.
pub fn dist_config(shards: usize) -> DistConfig {
    DistConfig {
        worker: Some(worker_bin()),
        ..DistConfig::pinned(shards)
    }
}

/// The plan the coordinator and the single-node pipeline both build for
/// left operand `a` under `cfg`.
#[allow(dead_code)]
pub fn plan_of(a: &Csr, cfg: &StreamConfig) -> ExecPlan {
    ExecPlan::for_operand(&a.col_nnz(), cfg.panels, cfg.balance, cfg.merge_ways)
}

/// Asserts two matrices are equal down to the bit pattern of every
/// stored value — stricter than `==` (which would accept `0.0 == -0.0`)
/// and the whole point of the shared-plan design.
pub fn assert_bits_equal(x: &Csr, y: &Csr, what: &str) {
    assert_eq!(x.rows(), y.rows(), "{what}: row count");
    assert_eq!(x.cols(), y.cols(), "{what}: col count");
    assert_eq!(x.nnz(), y.nnz(), "{what}: nnz");
    for r in 0..x.rows() {
        let (xc, xv) = x.row(r);
        let (yc, yv) = y.row(r);
        assert_eq!(xc, yc, "{what}: row {r} column pattern");
        for (i, (a, b)) in xv.iter().zip(yv.iter()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: row {r} entry {i} ({a} vs {b})"
            );
        }
    }
}
