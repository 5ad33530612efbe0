//! The span recorder: `Recorder`, `ThreadRecorder`, `Trace`.

use crate::metrics::{Metrics, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One key/value annotation on a span (values are integral; encode
/// fractional quantities in fixed-point micro-units at the call site).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanArg {
    pub key: String,
    pub value: u64,
}

/// A finished (or still-open, `end_ns == 0`) span as stored in the sink.
///
/// `seq` numbers spans per thread in `begin` order; `parent` is the `seq`
/// of the enclosing span on the same thread, or `-1` at top level — this
/// is the parent linkage that survives draining and export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub cat: String,
    pub tid: u64,
    pub seq: u64,
    pub parent: i64,
    pub depth: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub args: Vec<SpanArg>,
}

impl Span {
    /// Duration in seconds (zero for instant events and open spans).
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }

    /// True for zero-duration instant events (`event()` emissions).
    pub fn is_instant(&self) -> bool {
        self.end_ns == self.start_ns
    }
}

/// A thread lane registered in the trace: stable `tid` plus a label.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadLane {
    pub tid: u64,
    pub label: String,
}

/// A compact span representation for shipping across the dist wire:
/// timestamps are relative to the *sender's* anchor and are re-based by
/// the receiver (see `Recorder::import_rebased`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WireSpan {
    pub name: String,
    pub cat: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub depth: u32,
}

/// Everything a recorder collected: spans, lane labels, metrics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Trace {
    pub process: String,
    pub threads: Vec<ThreadLane>,
    pub spans: Vec<Span>,
    pub metrics: MetricsSnapshot,
}

impl Trace {
    /// Sum of durations over spans with this exact name, in seconds.
    pub fn seconds_named(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .sum()
    }

    /// Number of spans with this exact name.
    pub fn count_named(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }
}

struct SinkInner {
    threads: Vec<ThreadLane>,
    spans: Vec<Span>,
}

struct Shared {
    anchor: Instant,
    next_tid: AtomicU64,
    sink: Mutex<SinkInner>,
}

impl Shared {
    fn ns_since_anchor(&self, at: Instant) -> u64 {
        at.duration_since(self.anchor).as_nanos() as u64
    }
}

/// The process-wide tracing handle. Cloning is cheap; all clones feed the
/// same sink. [`Recorder::disabled`] is the hot-path default: every
/// operation on it (and on lanes, counters and histograms derived from
/// it) is allocation-free.
#[derive(Clone)]
pub struct Recorder {
    shared: Option<Arc<Shared>>,
    metrics: Metrics,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::disabled()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Recorder {
    /// A recorder that records nothing and never allocates.
    pub fn disabled() -> Self {
        Recorder {
            shared: None,
            metrics: Metrics::disabled(),
        }
    }

    /// A live recorder with a fresh anchor and empty sink.
    pub fn enabled() -> Self {
        Recorder {
            shared: Some(Arc::new(Shared {
                anchor: Instant::now(),
                next_tid: AtomicU64::new(1),
                sink: Mutex::new(SinkInner {
                    threads: Vec::new(),
                    spans: Vec::new(),
                }),
            })),
            metrics: Metrics::enabled(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// The metrics registry riding with this recorder (no-op when
    /// disabled).
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Shorthand for `metrics().counter(name)`.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.metrics.counter(name)
    }

    /// Opens a new lane. The label is suffixed with the assigned tid so
    /// repeated calls with the same label (e.g. one per pool worker) stay
    /// distinguishable; nothing is allocated when disabled.
    pub fn thread(&self, label: &str) -> ThreadRecorder {
        match &self.shared {
            None => ThreadRecorder::disabled(),
            Some(shared) => {
                let tid = shared.next_tid.fetch_add(1, Ordering::Relaxed);
                ThreadRecorder {
                    shared: Some(Arc::clone(shared)),
                    label: format!("{label}-{tid}"),
                    tid,
                    next_seq: 0,
                    spans: Vec::new(),
                    stack: Vec::new(),
                }
            }
        }
    }

    /// Like [`Recorder::thread`] but the label carries an explicit index
    /// (worker id, shard generation); formatting happens only when
    /// enabled so disabled callers stay allocation-free.
    pub fn thread_for(&self, label: &str, index: u64) -> ThreadRecorder {
        match &self.shared {
            None => ThreadRecorder::disabled(),
            Some(shared) => {
                let tid = shared.next_tid.fetch_add(1, Ordering::Relaxed);
                ThreadRecorder {
                    shared: Some(Arc::clone(shared)),
                    label: format!("{label}-{index}"),
                    tid,
                    next_seq: 0,
                    spans: Vec::new(),
                    stack: Vec::new(),
                }
            }
        }
    }

    /// Drains everything recorded so far into a [`Trace`]. Lanes still
    /// alive keep recording into the (now empty) sink; call this after
    /// the instrumented run has joined its threads.
    pub fn drain(&self, process: &str) -> Trace {
        match &self.shared {
            None => Trace::default(),
            Some(shared) => {
                let mut sink = shared.sink.lock().unwrap();
                let mut spans = std::mem::take(&mut sink.spans);
                let threads = std::mem::take(&mut sink.threads);
                drop(sink);
                spans.sort_by_key(|s| (s.tid, s.seq));
                Trace {
                    process: process.to_string(),
                    threads,
                    spans,
                    metrics: self.metrics.snapshot(),
                }
            }
        }
    }
}

/// A per-thread (more precisely: per-*lane*) span recorder. Not `Sync`;
/// each emitting thread owns its own. Spans drain into the central sink
/// exactly once, when the lane is dropped.
pub struct ThreadRecorder {
    shared: Option<Arc<Shared>>,
    label: String,
    tid: u64,
    next_seq: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

/// Token returned by [`ThreadRecorder::begin`]; pass it back to `end`.
/// Carries the start instant so `end` can return the duration even on a
/// disabled lane.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass this back to ThreadRecorder::end to close the span"]
pub struct SpanHandle {
    start: Instant,
    idx: usize,
}

const DISABLED_IDX: usize = usize::MAX;

impl ThreadRecorder {
    /// A lane that records nothing; `begin`/`end` still time.
    pub fn disabled() -> Self {
        ThreadRecorder {
            shared: None,
            label: String::new(),
            tid: 0,
            next_seq: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// Opens a span. Always cheap; allocates only when enabled.
    pub fn begin(&mut self, cat: &'static str, name: &'static str) -> SpanHandle {
        let start = Instant::now();
        let idx = match &self.shared {
            None => DISABLED_IDX,
            Some(shared) => {
                let parent = self.stack.last().map_or(-1, |&i| self.spans[i].seq as i64);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.spans.push(Span {
                    name: name.to_string(),
                    cat: cat.to_string(),
                    tid: self.tid,
                    seq,
                    parent,
                    depth: self.stack.len() as u32,
                    start_ns: shared.ns_since_anchor(start),
                    end_ns: 0,
                    args: Vec::new(),
                });
                let idx = self.spans.len() - 1;
                self.stack.push(idx);
                idx
            }
        };
        SpanHandle { start, idx }
    }

    /// Closes a span and returns its duration in seconds — the value the
    /// report structs accumulate, so spans and reports measure the same
    /// interval. Spans must close LIFO on a lane.
    pub fn end(&mut self, handle: SpanHandle) -> f64 {
        let now = Instant::now();
        let dt = now.duration_since(handle.start).as_secs_f64();
        if handle.idx != DISABLED_IDX {
            let shared = self.shared.as_ref().expect("enabled handle, enabled lane");
            debug_assert_eq!(self.stack.last(), Some(&handle.idx), "spans must nest");
            self.stack.retain(|&i| i != handle.idx);
            self.spans[handle.idx].end_ns = shared.ns_since_anchor(now);
        }
        dt
    }

    /// `end` plus annotations (recorded only when enabled).
    pub fn end_with(&mut self, handle: SpanHandle, args: &[(&'static str, u64)]) -> f64 {
        let dt = self.end(handle);
        if handle.idx != DISABLED_IDX {
            let span_args = &mut self.spans[handle.idx].args;
            span_args.reserve(args.len());
            for (key, value) in args {
                span_args.push(SpanArg {
                    key: (*key).to_string(),
                    value: *value,
                });
            }
        }
        dt
    }

    /// Emits a zero-duration instant event (heartbeat timeout, retry,
    /// straggler re-dispatch, …).
    pub fn event(&mut self, cat: &'static str, name: &'static str) {
        self.event_with(cat, name, &[]);
    }

    /// [`ThreadRecorder::event`] with annotations.
    pub fn event_with(
        &mut self,
        cat: &'static str,
        name: &'static str,
        args: &[(&'static str, u64)],
    ) {
        let Some(shared) = &self.shared else { return };
        let at = shared.ns_since_anchor(Instant::now());
        let parent = self.stack.last().map_or(-1, |&i| self.spans[i].seq as i64);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.spans.push(Span {
            name: name.to_string(),
            cat: cat.to_string(),
            tid: self.tid,
            seq,
            parent,
            depth: self.stack.len() as u32,
            start_ns: at,
            end_ns: at,
            args: args
                .iter()
                .map(|(key, value)| SpanArg {
                    key: (*key).to_string(),
                    value: *value,
                })
                .collect(),
        });
    }

    /// Inserts spans that were recorded elsewhere (a dist worker) onto
    /// this lane, shifting their sender-relative timestamps by
    /// `base_ns` onto this recorder's timeline. Depth is taken from the
    /// wire span, offset by the current nesting depth of this lane.
    pub fn import_rebased(&mut self, spans: &[WireSpan], base_ns: u64) {
        if self.shared.is_none() {
            return;
        }
        let parent = self.stack.last().map_or(-1, |&i| self.spans[i].seq as i64);
        let base_depth = self.stack.len() as u32;
        for w in spans {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.spans.push(Span {
                name: w.name.clone(),
                cat: w.cat.clone(),
                tid: self.tid,
                seq,
                parent,
                depth: base_depth + w.depth,
                start_ns: base_ns + w.start_ns,
                end_ns: base_ns + w.end_ns,
                args: Vec::new(),
            });
        }
    }

    /// Nanoseconds since the recorder's anchor (0 when disabled) — used
    /// by the dist coordinator to compute re-basing offsets.
    pub fn now_ns(&self) -> u64 {
        self.shared
            .as_ref()
            .map_or(0, |s| s.ns_since_anchor(Instant::now()))
    }

    /// Drains this lane's finished spans into a `Vec` of [`WireSpan`]s
    /// (for shipping across the dist wire) instead of the sink. Open
    /// spans are closed at the current instant.
    pub fn take_wire_spans(&mut self) -> Vec<WireSpan> {
        if self.shared.is_none() {
            return Vec::new();
        }
        self.close_open_spans();
        self.stack.clear();
        self.spans
            .drain(..)
            .map(|s| WireSpan {
                name: s.name,
                cat: s.cat,
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                depth: s.depth,
            })
            .collect()
    }

    fn close_open_spans(&mut self) {
        if let Some(shared) = &self.shared {
            let now = shared.ns_since_anchor(Instant::now());
            for &i in &self.stack {
                if self.spans[i].end_ns == 0 {
                    self.spans[i].end_ns = now;
                }
            }
        }
    }
}

impl Drop for ThreadRecorder {
    fn drop(&mut self) {
        if self.shared.is_none() {
            return;
        }
        self.close_open_spans();
        let shared = self.shared.as_ref().unwrap();
        let mut sink = shared.sink.lock().unwrap();
        sink.threads.push(ThreadLane {
            tid: self.tid,
            label: std::mem::take(&mut self.label),
        });
        sink.spans.append(&mut self.spans);
    }
}

use crate::metrics::Counter;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_yields_empty_trace_but_real_durations() {
        let rec = Recorder::disabled();
        let mut lane = rec.thread("x");
        let h = lane.begin("t", "work");
        std::thread::sleep(std::time::Duration::from_millis(2));
        let dt = lane.end(h);
        assert!(dt >= 0.002, "disabled end must still time: {dt}");
        drop(lane);
        let trace = rec.drain("p");
        assert!(trace.spans.is_empty() && trace.threads.is_empty());
    }

    #[test]
    fn nesting_records_parent_linkage_and_depth() {
        let rec = Recorder::enabled();
        let mut lane = rec.thread("main");
        let outer = lane.begin("t", "outer");
        let inner = lane.begin("t", "inner");
        lane.end(inner);
        let evt_depth_probe = lane.begin("t", "second-inner");
        lane.end(evt_depth_probe);
        lane.end_with(outer, &[("items", 3)]);
        drop(lane);
        let trace = rec.drain("p");
        assert_eq!(trace.spans.len(), 3);
        let outer = trace.spans.iter().find(|s| s.name == "outer").unwrap();
        let inner = trace.spans.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.parent, -1);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.parent, outer.seq as i64);
        assert_eq!(inner.depth, 1);
        assert!(inner.start_ns >= outer.start_ns);
        assert!(inner.end_ns <= outer.end_ns);
        assert_eq!(
            outer.args,
            vec![SpanArg {
                key: "items".into(),
                value: 3
            }]
        );
    }

    #[test]
    fn events_are_instant_and_rebased_imports_shift() {
        let rec = Recorder::enabled();
        let mut lane = rec.thread("w");
        lane.event_with("d", "retry", &[("job", 7)]);
        let wire = vec![WireSpan {
            name: "compute".into(),
            cat: "d".into(),
            start_ns: 10,
            end_ns: 20,
            depth: 0,
        }];
        lane.import_rebased(&wire, 1_000);
        drop(lane);
        let trace = rec.drain("p");
        let evt = trace.spans.iter().find(|s| s.name == "retry").unwrap();
        assert!(evt.is_instant());
        let imported = trace.spans.iter().find(|s| s.name == "compute").unwrap();
        assert_eq!((imported.start_ns, imported.end_ns), (1_010, 1_020));
    }

    #[test]
    fn take_wire_spans_closes_open_spans_and_empties_the_lane() {
        let rec = Recorder::enabled();
        let mut lane = rec.thread("w");
        let _open = lane.begin("d", "compute");
        let wire = lane.take_wire_spans();
        assert_eq!(wire.len(), 1);
        assert!(wire[0].end_ns >= wire[0].start_ns);
        assert!(lane.take_wire_spans().is_empty());
        drop(lane);
        // The drained spans never reach the sink.
        assert!(rec.drain("p").spans.is_empty());
    }

    #[test]
    fn trace_helpers_sum_and_count_by_name() {
        let rec = Recorder::enabled();
        let mut lane = rec.thread("m");
        for _ in 0..3 {
            let h = lane.begin("t", "step");
            lane.end(h);
        }
        drop(lane);
        let trace = rec.drain("p");
        assert_eq!(trace.count_named("step"), 3);
        assert!(trace.seconds_named("step") >= 0.0);
        assert_eq!(trace.count_named("missing"), 0);
    }
}
