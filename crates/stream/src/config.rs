//! Configuration for the streaming executor: the memory budget and the
//! panel/merge/spill/parallelism knobs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;

/// An explicit cap, in bytes, on the partial matrices the streaming
/// pipeline may hold in memory at once.
///
/// The budget governs the *partial store* — the set of panel products and
/// partially merged results alive between pipeline stages, which is the
/// part of the footprint that grows with the input (there are `panels`
/// partials of roughly `output`-sized structure each). Operands being
/// ingested and the single merge output under construction are transient
/// working state outside the store; the allocator audit in
/// `crates/stream/tests/budget_alloc.rs` pins how tightly total heap
/// usage tracks the budget.
///
/// `MemoryBudget::from_mb(0)` is valid and means "spill everything":
/// every partial goes to disk the moment it is produced and streams back
/// only for its merge round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemoryBudget {
    bytes: u64,
}

impl MemoryBudget {
    /// A budget of exactly `bytes` bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        MemoryBudget { bytes }
    }

    /// A budget of `kb` kibibytes.
    pub const fn from_kb(kb: u64) -> Self {
        MemoryBudget { bytes: kb << 10 }
    }

    /// A budget of `mb` mebibytes.
    pub const fn from_mb(mb: u64) -> Self {
        MemoryBudget { bytes: mb << 20 }
    }

    /// No cap: nothing ever spills (the in-core degenerate case).
    pub const fn unbounded() -> Self {
        MemoryBudget { bytes: u64::MAX }
    }

    /// The cap in bytes.
    pub const fn bytes(&self) -> u64 {
        self.bytes
    }
}

/// How the inner dimension is split into panels.
///
/// The split decides how evenly partial-product sizes come out, which is
/// what the Huffman merge plan's weight estimates are built from — a
/// balanced split tightens the plan. Either way the split depends only
/// on `A`'s structure, never on stage timing, so it is fully
/// deterministic at a fixed configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PanelBalance {
    /// Equal column counts (`panel_ranges`): panel widths differ by at
    /// most one column, but skewed matrices concentrate their non-zeros
    /// in a few panels.
    Uniform,
    /// Equal `A`-column non-zeros per panel (`panel_ranges_by_nnz`):
    /// panel *widths* vary, partial sizes — and therefore merge-plan
    /// weights and spill granularity — even out.
    Nnz,
}

impl fmt::Display for PanelBalance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PanelBalance::Uniform => "uniform",
            PanelBalance::Nnz => "nnz",
        })
    }
}

impl FromStr for PanelBalance {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "uniform" => Ok(PanelBalance::Uniform),
            "nnz" => Ok(PanelBalance::Nnz),
            other => Err(format!(
                "unknown panel balance {other:?} (expected uniform or nnz)"
            )),
        }
    }
}

/// Which on-disk format spilled partials use.
///
/// See the [`spill`](crate::spill) module docs for the exact layouts.
/// The codec never affects results — only spill bytes and encode/decode
/// CPU. Neither codec wins everywhere: Varint writes fewer bytes, Raw
/// takes less wall time on a fast local disk. Twelve alternating
/// budgeted `StreamingExecutor::multiply` calls per codec (16 nnz-balanced
/// panels, 4 ways, 2 threads, budget a quarter of an unbounded run's
/// `partial_bytes_total`, operands built with seed 1, 2-core VM), median
/// seconds per call and spill bytes per call, Raw against Varint:
///
/// | operand          | Raw              | Varint           |
/// |------------------|------------------|------------------|
/// | R-MAT(8192, 8)²  | 0.261 s, 59.0 MB | 0.327 s, 16.5 MB |
/// | Uniform(60 000)² | 0.363 s, 46.2 MB | 0.388 s, 31.9 MB |
/// | Band(8000, 64)²  | 0.163 s, 30.5 MB | 0.188 s, 19.1 MB |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpillCodec {
    /// Sorted COO at 16 bytes per entry — no encode/decode cost.
    Raw,
    /// Delta-encoded coordinates + LEB128 varints (byte-swapped value
    /// bits): 2-4× smaller on integer-valued partials, never larger than
    /// raw (the writer falls back per file).
    Varint,
}

impl fmt::Display for SpillCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SpillCodec::Raw => "raw",
            SpillCodec::Varint => "varint",
        })
    }
}

impl FromStr for SpillCodec {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "raw" => Ok(SpillCodec::Raw),
            "varint" | "delta" => Ok(SpillCodec::Varint),
            other => Err(format!(
                "unknown spill codec {other:?} (expected raw or varint)"
            )),
        }
    }
}

/// Configuration of a [`StreamingExecutor`](crate::StreamingExecutor).
///
/// Serializable so the distributed coordinator can hand a shard worker
/// process its exact pipeline configuration on the command line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Cap on resident partial bytes; see [`MemoryBudget`].
    pub budget: MemoryBudget,
    /// How many column panels to split `A` (and row panels to split `B`)
    /// into. More panels mean smaller leaves and more independent rounds
    /// to run in parallel, but more merge work. Clamped to the inner
    /// dimension.
    pub panels: usize,
    /// How panel boundaries are chosen; see [`PanelBalance`]. Applies to
    /// the in-memory entry point — pre-split panel streams carry their
    /// own ranges.
    pub balance: PanelBalance,
    /// Fan-in of each merge round (the merge tree's "ways"; the paper's
    /// hardware uses 64). At least 2.
    pub merge_ways: usize,
    /// On-disk format for spilled partials; see [`SpillCodec`].
    pub spill_codec: SpillCodec,
    /// Worker threads: `Some(n)` pins `n`, `None` falls back to
    /// `SPARCH_THREADS`, then all cores. It sizes the merge workers a
    /// run spawns once a round reaches `merge::BAND_MIN_ENTRIES` input
    /// entries (smaller rounds fold on the calling thread). Independent
    /// rounds of the Huffman plan dispatch onto these workers
    /// concurrently, and a round that would run alone is cut into row
    /// bands across them; the plan's fold order keeps results
    /// bit-identical at any worker count.
    pub threads: Option<usize>,
    /// Where spilled partials go. `None` uses the system temp directory.
    /// Each run creates (and removes) its own unique subdirectory.
    /// Serialized as a string path (lossy for non-UTF-8 paths).
    pub spill_dir: Option<PathBuf>,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            budget: MemoryBudget::from_mb(256),
            panels: 4,
            balance: PanelBalance::Nnz,
            merge_ways: 8,
            spill_codec: SpillCodec::Varint,
            threads: None,
            spill_dir: None,
        }
    }
}

impl StreamConfig {
    /// The pinned configuration the serving layer's `Backend::Streaming`
    /// runs with when no explicit budget is routed: deterministic,
    /// single-threaded rounds (the serving layer already parallelizes
    /// across requests), default budget and panel count.
    pub fn pinned() -> Self {
        StreamConfig {
            threads: Some(1),
            ..StreamConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_unit_constructors() {
        assert_eq!(MemoryBudget::from_bytes(123).bytes(), 123);
        assert_eq!(MemoryBudget::from_kb(2).bytes(), 2048);
        assert_eq!(MemoryBudget::from_mb(1).bytes(), 1 << 20);
        assert_eq!(MemoryBudget::unbounded().bytes(), u64::MAX);
        assert!(MemoryBudget::from_mb(0).bytes() == 0);
    }

    #[test]
    fn default_config_is_sane() {
        let c = StreamConfig::default();
        assert!(c.merge_ways >= 2);
        assert!(c.panels >= 1);
        assert!(c.budget.bytes() > 0);
        assert_eq!(c.balance, PanelBalance::Nnz);
        assert_eq!(c.spill_codec, SpillCodec::Varint);
        assert_eq!(StreamConfig::pinned().threads, Some(1));
    }

    #[test]
    fn balance_and_codec_parse_and_display() {
        for b in [PanelBalance::Uniform, PanelBalance::Nnz] {
            assert_eq!(b.to_string().parse::<PanelBalance>().unwrap(), b);
            let json = serde_json::to_string(&b).unwrap();
            assert_eq!(serde_json::from_str::<PanelBalance>(&json).unwrap(), b);
        }
        for c in [SpillCodec::Raw, SpillCodec::Varint] {
            assert_eq!(c.to_string().parse::<SpillCodec>().unwrap(), c);
            let json = serde_json::to_string(&c).unwrap();
            assert_eq!(serde_json::from_str::<SpillCodec>(&json).unwrap(), c);
        }
        assert_eq!("delta".parse::<SpillCodec>().unwrap(), SpillCodec::Varint);
        assert!("zstd".parse::<SpillCodec>().is_err());
        assert!("degree".parse::<PanelBalance>().is_err());
    }

    #[test]
    fn budget_serde_round_trips() {
        let b = MemoryBudget::from_mb(7);
        let json = serde_json::to_string(&b).unwrap();
        let back: MemoryBudget = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
