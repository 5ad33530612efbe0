//! Unified tracing and metrics for the SpArch reproduction.
//!
//! Every execution layer (streaming pipeline, distributed coordinator and
//! workers, serving dispatcher) reports time the same way: a [`Recorder`]
//! hands out per-thread [`ThreadRecorder`] lanes whose `begin`/`end` calls
//! *always* return wall-clock durations — the existing report structs are
//! built from those return values — and *additionally* record a
//! [`Span`] when tracing is enabled. Telemetry is therefore defined once:
//! the numbers in `StageReport`/`DistReport`/`BatchReport` and the spans
//! in an exported trace come from the same instrumentation points.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** A disabled recorder performs no
//!    heap allocation anywhere — `begin`/`end` reduce to two
//!    `Instant::now()` calls (which the reports needed anyway), counters
//!    and histograms are no-ops on a `None` handle. This is pinned by a
//!    counting-allocator test (`tests/obs_alloc.rs`).
//! 2. **Lock-light when enabled.** Spans accumulate in a plain `Vec`
//!    owned by the emitting thread; the central sink mutex is taken once
//!    per thread lifetime (on drain), never per span.
//! 3. **Loadable output.** [`chrome_trace_json`] emits Chrome
//!    trace-event JSON that `chrome://tracing` and Perfetto open
//!    directly; [`MetricsSnapshot`] is a flat serializable mirror of the
//!    metrics registry.

mod chrome;
mod metrics;
mod span;

pub use chrome::chrome_trace_json;
pub use metrics::{
    BucketEntry, Counter, CounterEntry, Gauge, GaugeEntry, Histogram, HistogramEntry, Metrics,
    MetricsSnapshot,
};
pub use span::{Recorder, Span, SpanArg, SpanHandle, ThreadLane, ThreadRecorder, Trace, WireSpan};
