//! Auto-tuning for the SpArch reproduction's streaming layer.
//!
//! SpArch's headline numbers come from picking the right configuration —
//! merge fan-in, partition granularity, buffer split — per matrix (the
//! paper's fig17 design-space sweep). [`KnobPlanner`] closes that loop in
//! software: from a [`MemoryBudget`](sparch_stream::MemoryBudget), an
//! operand's column-nnz histogram ([`OperandStats`], one API for
//! in-memory and on-disk operands) and a thread count, it
//! deterministically derives a full
//! [`StreamConfig`](sparch_stream::StreamConfig) — panel count from the
//! ROADMAP formula (largest projected partial ≈ budget / merge_ways),
//! fan-in from the Huffman plan's projected round costs, codec from
//! projected spill volume, balance from column skew. Exposed as
//! `--panels auto` / `--tune` on `sparch-cli` and as
//! `ServiceConfig::auto_tune` in `sparch-serve`.
//!
//! Every streaming invariant (bit-identity to `gustavson` at any panel
//! count, budget, fan-in, codec, balance or thread count) holds at any
//! knob setting, so tuning can only ever change *timing*, never results —
//! pinned by `tests/planner_props.rs`.

mod planner;

pub use planner::{row_nnz_histogram, BRows, KnobPlanner, OperandStats, Plan};
