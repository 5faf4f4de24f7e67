//! Zero-dependency tracing + metrics for the Explainable-DSE workspace.
//!
//! The paper's thesis is that a DSE loop should be able to *explain* what
//! it did; this crate is the substrate that makes every run explainable
//! and profilable at runtime. It provides spans (wall-clock regions),
//! counters, histograms, structured per-iteration / per-batch records,
//! and leveled logs behind a thread-safe [`Collector`] that fans events
//! out to pluggable [`Sink`]s:
//!
//! - [`MemorySink`] — accumulates events in memory for test assertions;
//! - [`JsonlSink`] — one JSON object per line, the `--trace-out` format
//!   rendered by the `edse-trace` bench binary;
//! - [`StderrSink`] — prints log messages at/above a level, making the
//!   bench binaries' stderr chatter opt-in.
//!
//! # Off by default, cheap when off
//!
//! [`Collector::noop()`] (also [`Collector::default()`]) carries no
//! allocation and no clock reads: every instrumentation call is a branch
//! on a `None`. Instrumented code therefore keeps a `Collector` field
//! unconditionally and never asks "is telemetry on?" — see the `<2 %`
//! overhead criterion checked by the `engine/batch16_traced` micro-bench
//! in `crates/bench`.
//!
//! The crate is deliberately dependency-free (std only): the workspace
//! builds offline, and a telemetry layer that every crate depends on
//! must not drag anything else into the graph. JSON is hand-rolled in
//! [`json`] with round-trip tests.
//!
//! # Example
//!
//! ```
//! use edse_telemetry::{Collector, Event, MemorySink};
//!
//! let sink = MemorySink::new();
//! let collector = Collector::builder().sink(sink.clone()).build();
//! {
//!     let _span = collector.span("dse/run");
//!     collector.counter("point_cache/shard00/miss", 1);
//! }
//! collector.flush();
//! assert_eq!(collector.counter_value("point_cache/shard00/miss"), 1);
//! assert!(matches!(sink.events()[0], Event::SpanEnter { .. }));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod json;
pub mod trace;

mod event;
mod sink;

pub use event::{
    BatchRecord, Event, HistogramSummary, IterationRecord, Level, ProvenanceRecord, TRACE_SCHEMA,
};
pub use sink::{JsonlSink, MemorySink, PrometheusSink, Sink, StderrSink};

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

#[derive(Debug, Clone, Default)]
struct Histo {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Sparse power-of-two buckets: `exp -> count` of observations with
    /// `floor(log2 v) == exp` (see [`event::bucket_exp`]). Feeds the
    /// [`HistogramSummary::quantile`] estimator.
    buckets: BTreeMap<i32, u64>,
}

impl Histo {
    fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(event::bucket_exp(value)).or_insert(0) += 1;
    }

    fn summary(&self, name: &str) -> HistogramSummary {
        HistogramSummary {
            name: name.to_string(),
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self.buckets.iter().map(|(&e, &c)| (e, c)).collect(),
        }
    }
}

thread_local! {
    /// Per-thread stack of open spans, keyed by collector instance so two
    /// live collectors in one process never cross-parent. Worker threads
    /// start with an empty stack, so spans opened there are roots
    /// (`parent == 0`) — causality across a thread fan-out is carried by
    /// the surrounding [`BatchRecord`], not by span links.
    static SPAN_STACK: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

#[derive(Default)]
struct Metrics {
    /// Cumulative counter values.
    counters: BTreeMap<String, u64>,
    /// Counter values at the previous [`Collector::flush`]; the flush
    /// event carries deltas against this so repeated snapshots in one
    /// trace stay additive.
    flushed: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histo>,
}

struct Inner {
    start: Instant,
    sinks: Vec<Box<dyn Sink>>,
    /// True when at least one sink wants metric traffic; when false the
    /// collector still routes logs but skips all metric bookkeeping.
    metrics_active: bool,
    metrics: Mutex<Metrics>,
    /// Next span id; 0 is reserved as the "no parent" sentinel.
    next_span_id: AtomicU64,
    /// Namespace prepended to every counter, histogram, and span name —
    /// empty for the usual single-tenant collector. A job-scoped
    /// collector in `edse-serve` uses `job<id>/` so merged scrape output
    /// keeps tenants apart.
    prefix: String,
}

impl Inner {
    fn t_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    /// Applies the namespace prefix without allocating when there is none.
    fn scoped<'a>(&self, name: &'a str) -> std::borrow::Cow<'a, str> {
        if self.prefix.is_empty() {
            std::borrow::Cow::Borrowed(name)
        } else {
            std::borrow::Cow::Owned(format!("{}{name}", self.prefix))
        }
    }

    /// Dispatches a metric event to the sinks that opted in.
    fn emit_metric(&self, event: &Event) {
        for sink in &self.sinks {
            if sink.wants_metrics() {
                sink.record(event);
            }
        }
    }
}

/// Thread-safe telemetry hub. Cloning is cheap (an `Arc` bump) and all
/// clones share counters, histograms, and sinks, so an evaluator and the
/// DSE loop driving it can hold the same collector.
#[derive(Clone, Default)]
pub struct Collector {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => f.write_str("Collector(noop)"),
            Some(inner) => f
                .debug_struct("Collector")
                .field("sinks", &inner.sinks.len())
                .field("metrics_active", &inner.metrics_active)
                .finish(),
        }
    }
}

impl Collector {
    /// The inert collector: no sinks, no clock reads, every call a
    /// single branch. This is the default wired through the workspace.
    pub fn noop() -> Collector {
        Collector { inner: None }
    }

    /// Starts building a live collector.
    pub fn builder() -> CollectorBuilder {
        CollectorBuilder {
            sinks: Vec::new(),
            prefix: String::new(),
        }
    }

    /// Whether metric instrumentation is live. Hot paths that would do
    /// extra work *before* calling in (e.g. formatting a shard label)
    /// can gate on this; plain `counter`/`observe` calls don't need to.
    pub fn active(&self) -> bool {
        self.inner
            .as_ref()
            .is_some_and(|inner| inner.metrics_active)
    }

    /// Adds `delta` to the named cumulative counter.
    pub fn counter(&self, name: &str, delta: u64) {
        let Some(inner) = self.metric_inner() else {
            return;
        };
        let name = inner.scoped(name);
        let mut metrics = inner.metrics.lock().expect("collector poisoned");
        match metrics.counters.get_mut(name.as_ref()) {
            Some(value) => *value += delta,
            None => {
                assert!(
                    !metrics.histograms.contains_key(name.as_ref()),
                    "telemetry name collision: {name:?} is already a histogram \
                     and cannot also be a counter"
                );
                metrics.counters.insert(name.into_owned(), delta);
            }
        }
    }

    /// Current cumulative value of a counter (0 if never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.metric_inner().map_or(0, |inner| {
            inner
                .metrics
                .lock()
                .expect("collector poisoned")
                .counters
                .get(inner.scoped(name).as_ref())
                .copied()
                .unwrap_or(0)
        })
    }

    /// Snapshot of all cumulative counters.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        self.metric_inner().map_or_else(BTreeMap::new, |inner| {
            inner
                .metrics
                .lock()
                .expect("collector poisoned")
                .counters
                .clone()
        })
    }

    /// Sum of all counters whose name starts with `prefix` — e.g.
    /// `counter_sum("point_cache/")` across shards, or a
    /// `point_cache/shard07/` drill-down.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.metric_inner().map_or(0, |inner| {
            inner
                .metrics
                .lock()
                .expect("collector poisoned")
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with(prefix))
                .map(|(_, v)| *v)
                .sum()
        })
    }

    /// Records one observation into the named histogram.
    pub fn observe(&self, name: &str, value: f64) {
        let Some(inner) = self.metric_inner() else {
            return;
        };
        let name = inner.scoped(name);
        let mut metrics = inner.metrics.lock().expect("collector poisoned");
        match metrics.histograms.get_mut(name.as_ref()) {
            Some(h) => h.observe(value),
            None => {
                assert!(
                    !metrics.counters.contains_key(name.as_ref()),
                    "telemetry name collision: {name:?} is already a counter \
                     and cannot also be a histogram"
                );
                let mut h = Histo::default();
                h.observe(value);
                metrics.histograms.insert(name.into_owned(), h);
            }
        }
    }

    /// Current summary of a histogram, if it has any observations.
    pub fn histogram(&self, name: &str) -> Option<HistogramSummary> {
        let inner = self.metric_inner()?;
        let name = inner.scoped(name);
        let metrics = inner.metrics.lock().expect("collector poisoned");
        metrics
            .histograms
            .get(name.as_ref())
            .map(|h| h.summary(name.as_ref()))
    }

    /// Snapshot of all histogram summaries, sorted by name.
    pub fn histograms(&self) -> Vec<HistogramSummary> {
        self.metric_inner().map_or_else(Vec::new, |inner| {
            inner
                .metrics
                .lock()
                .expect("collector poisoned")
                .histograms
                .iter()
                .map(|(name, h)| h.summary(name))
                .collect()
        })
    }

    /// Renders the current counters and histograms as a Prometheus
    /// text-format snapshot — the scrape surface `--metrics-out` writes.
    pub fn prometheus_text(&self) -> String {
        export::prometheus_text(&self.counters(), &self.histograms())
    }

    /// Opens a wall-clock span: emits [`Event::SpanEnter`] now and
    /// [`Event::SpanExit`] (with elapsed µs) when the guard drops.
    /// Inert (no clock read) on a no-op collector.
    ///
    /// Spans form a tree: each gets a fresh nonzero id, and its parent is
    /// the innermost span still open *on the same thread* for the same
    /// collector (0 when none). The `trace` module rebuilds the tree and
    /// attributes self-time vs. child-time from these links.
    pub fn span(&self, name: &str) -> Span {
        match self.metric_inner() {
            None => Span {
                inner: None,
                name: String::new(),
                entered: None,
                id: 0,
            },
            Some(inner) => {
                let name = inner.scoped(name);
                let entered = Instant::now();
                let id = inner.next_span_id.fetch_add(1, Ordering::Relaxed);
                let key = Arc::as_ptr(inner) as usize;
                let parent = SPAN_STACK.with(|stack| {
                    let mut stack = stack.borrow_mut();
                    let parent = stack
                        .iter()
                        .rev()
                        .find(|(k, _)| *k == key)
                        .map_or(0, |&(_, open)| open);
                    stack.push((key, id));
                    parent
                });
                inner.emit_metric(&Event::SpanEnter {
                    name: name.to_string(),
                    t_us: inner.t_us(),
                    id,
                    parent,
                });
                Span {
                    inner: Some(Arc::clone(inner)),
                    name: name.to_string(),
                    entered: Some(entered),
                    id,
                }
            }
        }
    }

    /// Starts a histogram-only timer: when the guard drops, the elapsed
    /// µs are observed into the named histogram without emitting any
    /// per-call event. This is the right tool for per-layer / per-point
    /// timings that would flood a JSONL trace.
    pub fn time(&self, name: &str) -> Timer {
        match self.metric_inner() {
            None => Timer {
                inner: None,
                name: String::new(),
                started: None,
            },
            Some(inner) => Timer {
                name: inner.scoped(name).into_owned(),
                inner: Some(Arc::clone(inner)),
                started: Some(Instant::now()),
            },
        }
    }

    /// Emits a leveled log message. Unlike metrics, logs reach *every*
    /// sink (each sink decides what to print/store), so a stderr-only
    /// collector still surfaces warnings without activating metrics.
    pub fn log(&self, level: Level, message: &str) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        let event = Event::Log {
            t_us: inner.t_us(),
            level,
            message: message.to_string(),
        };
        for sink in &inner.sinks {
            sink.record(&event);
        }
    }

    /// Emits one structured DSE iteration record.
    pub fn iteration(&self, record: IterationRecord) {
        if let Some(inner) = self.metric_inner() {
            inner.emit_metric(&Event::Iteration {
                t_us: inner.t_us(),
                record,
            });
        }
    }

    /// Emits one batch fan-out record.
    pub fn batch(&self, record: BatchRecord) {
        if let Some(inner) = self.metric_inner() {
            inner.emit_metric(&Event::Batch {
                t_us: inner.t_us(),
                record,
            });
        }
    }

    /// Appends one entry to the provenance ledger: the causal record of a
    /// single candidate's journey (proposed-by-which-bottleneck, deduped,
    /// evaluated, accepted). The `edse-trace why` query replays these.
    pub fn provenance(&self, record: ProvenanceRecord) {
        if let Some(inner) = self.metric_inner() {
            inner.emit_metric(&Event::Provenance {
                t_us: inner.t_us(),
                record,
            });
        }
    }

    /// Snapshots aggregated metrics into the event stream — one
    /// [`Event::Counters`] with the deltas since the previous flush and
    /// one [`Event::Histograms`] with cumulative summaries — then flushes
    /// every sink. Call at natural boundaries (end of a run).
    pub fn flush(&self) {
        let Some(inner) = self.inner.as_ref() else {
            return;
        };
        if inner.metrics_active {
            let (deltas, summaries) = {
                let mut metrics = inner.metrics.lock().expect("collector poisoned");
                let deltas: Vec<(String, u64)> = metrics
                    .counters
                    .iter()
                    .filter_map(|(name, value)| {
                        let prev = metrics.flushed.get(name).copied().unwrap_or(0);
                        (*value > prev).then(|| (name.clone(), value - prev))
                    })
                    .collect();
                metrics.flushed = metrics.counters.clone();
                let summaries: Vec<HistogramSummary> = metrics
                    .histograms
                    .iter()
                    .map(|(name, h)| h.summary(name))
                    .collect();
                (deltas, summaries)
            };
            let t_us = inner.t_us();
            if !deltas.is_empty() {
                inner.emit_metric(&Event::Counters { t_us, deltas });
            }
            if !summaries.is_empty() {
                inner.emit_metric(&Event::Histograms { t_us, summaries });
            }
        }
        for sink in &inner.sinks {
            sink.flush();
        }
    }

    fn metric_inner(&self) -> Option<&Arc<Inner>> {
        self.inner.as_ref().filter(|inner| inner.metrics_active)
    }
}

/// Configures a live [`Collector`].
pub struct CollectorBuilder {
    sinks: Vec<Box<dyn Sink>>,
    prefix: String,
}

impl CollectorBuilder {
    /// Attaches a sink.
    pub fn sink(mut self, sink: impl Sink + 'static) -> CollectorBuilder {
        self.sinks.push(Box::new(sink));
        self
    }

    /// Namespaces every counter, histogram, and span name under
    /// `prefix` (e.g. `"job3/"`). Scoped collectors from different
    /// tenants can then be merged into one scrape without collisions;
    /// reads (`counter_value`, `histogram`) apply the same prefix, so
    /// callers keep using unscoped names.
    pub fn prefix(mut self, prefix: impl Into<String>) -> CollectorBuilder {
        self.prefix = prefix.into();
        self
    }

    /// Builds the collector. With no sinks this still returns the
    /// inert no-op collector.
    pub fn build(self) -> Collector {
        if self.sinks.is_empty() {
            return Collector::noop();
        }
        let metrics_active = self.sinks.iter().any(|s| s.wants_metrics());
        Collector {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                sinks: self.sinks,
                metrics_active,
                metrics: Mutex::new(Metrics::default()),
                next_span_id: AtomicU64::new(1),
                prefix: self.prefix,
            })),
        }
    }
}

/// RAII guard for a wall-clock span; see [`Collector::span`].
#[must_use = "a span measures the region it is alive for"]
pub struct Span {
    inner: Option<Arc<Inner>>,
    name: String,
    entered: Option<Instant>,
    id: u64,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(inner), Some(entered)) = (self.inner.take(), self.entered) {
            let key = Arc::as_ptr(&inner) as usize;
            SPAN_STACK.with(|stack| {
                let mut stack = stack.borrow_mut();
                if let Some(pos) = stack.iter().rposition(|&(k, id)| k == key && id == self.id) {
                    stack.remove(pos);
                }
            });
            inner.emit_metric(&Event::SpanExit {
                name: std::mem::take(&mut self.name),
                t_us: inner.t_us(),
                id: self.id,
                elapsed_us: entered.elapsed().as_micros() as u64,
            });
        }
    }
}

/// RAII guard for a histogram-only timing; see [`Collector::time`].
#[must_use = "a timer measures the region it is alive for"]
pub struct Timer {
    inner: Option<Arc<Inner>>,
    name: String,
    started: Option<Instant>,
}

impl Drop for Timer {
    fn drop(&mut self) {
        if let (Some(inner), Some(started)) = (self.inner.take(), self.started) {
            let elapsed_us = started.elapsed().as_micros() as f64;
            let mut metrics = inner.metrics.lock().expect("collector poisoned");
            match metrics.histograms.get_mut(&self.name) {
                Some(h) => h.observe(elapsed_us),
                None => {
                    assert!(
                        !metrics.counters.contains_key(&self.name),
                        "telemetry name collision: {:?} is already a counter \
                         and cannot also be a histogram",
                        self.name
                    );
                    let mut h = Histo::default();
                    h.observe(elapsed_us);
                    metrics.histograms.insert(std::mem::take(&mut self.name), h);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_collector_is_inert() {
        let c = Collector::noop();
        assert!(!c.active());
        c.counter("x", 5);
        c.observe("y", 1.0);
        c.log(Level::Error, "nothing listens");
        c.iteration(IterationRecord::default());
        c.batch(BatchRecord::default());
        {
            let _s = c.span("s");
            let _t = c.time("t");
        }
        c.flush();
        assert_eq!(c.counter_value("x"), 0);
        assert!(c.histogram("y").is_none());
        assert!(c.counters().is_empty());
    }

    #[test]
    fn counters_accumulate_and_flush_emits_deltas() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        c.counter("a/hit", 2);
        c.counter("a/hit", 3);
        c.counter("b/miss", 1);
        assert_eq!(c.counter_value("a/hit"), 5);
        assert_eq!(c.counter_sum("a/"), 5);
        assert_eq!(c.counter_sum(""), 6);
        c.flush();
        c.counter("a/hit", 10);
        c.flush();
        let counter_events: Vec<_> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Counters { deltas, .. } => Some(deltas),
                _ => None,
            })
            .collect();
        assert_eq!(
            counter_events[0],
            vec![("a/hit".to_string(), 5), ("b/miss".to_string(), 1)]
        );
        // Second snapshot carries only what changed since the first.
        assert_eq!(counter_events[1], vec![("a/hit".to_string(), 10)]);
        assert_eq!(c.counter_value("a/hit"), 15);
    }

    #[test]
    fn histograms_summarize_and_flush() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        for v in [4.0, 1.0, 7.0] {
            c.observe("stage/mapper_us", v);
        }
        let h = c.histogram("stage/mapper_us").unwrap();
        assert_eq!(h.count, 3);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 7.0);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        c.flush();
        assert!(sink
            .events()
            .iter()
            .any(|e| matches!(e, Event::Histograms { summaries, .. } if summaries.len() == 1)));
    }

    #[test]
    fn spans_emit_enter_and_exit_with_elapsed() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        {
            let _span = c.span("dse/run");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let events = sink.events();
        assert!(matches!(&events[0], Event::SpanEnter { name, .. } if name == "dse/run"));
        match &events[1] {
            Event::SpanExit {
                name, elapsed_us, ..
            } => {
                assert_eq!(name, "dse/run");
                assert!(*elapsed_us >= 1_000, "slept 2ms, saw {elapsed_us}µs");
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn spans_carry_ids_and_same_thread_parents() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        {
            let _outer = c.span("dse/run");
            {
                let _inner = c.span("eval/batch");
            }
            let _sibling = c.span("eval/batch");
        }
        let ids: Vec<(String, u64, u64)> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanEnter {
                    name, id, parent, ..
                } => Some((name, id, parent)),
                _ => None,
            })
            .collect();
        assert_eq!(ids[0], ("dse/run".into(), 1, 0));
        assert_eq!(ids[1], ("eval/batch".into(), 2, 1));
        // The sibling opens after the first child closed: same parent.
        assert_eq!(ids[2], ("eval/batch".into(), 3, 1));
        // Every exit echoes its span's id.
        let exits: Vec<u64> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::SpanExit { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(exits, vec![2, 3, 1]);
    }

    #[test]
    fn spans_on_other_threads_are_roots() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        let _outer = c.span("dse/run");
        std::thread::scope(|scope| {
            let c = c.clone();
            scope.spawn(move || {
                let _worker = c.span("eval/worker");
            });
        });
        let worker_parent = sink.events().into_iter().find_map(|e| match e {
            Event::SpanEnter { name, parent, .. } if name == "eval/worker" => Some(parent),
            _ => None,
        });
        assert_eq!(worker_parent, Some(0));
    }

    #[test]
    fn two_collectors_do_not_cross_parent() {
        let sa = MemorySink::new();
        let sb = MemorySink::new();
        let a = Collector::builder().sink(sa.clone()).build();
        let b = Collector::builder().sink(sb.clone()).build();
        let _outer_a = a.span("a/outer");
        let _inner_b = b.span("b/inner");
        let b_parent = sb.events().into_iter().find_map(|e| match e {
            Event::SpanEnter { parent, .. } => Some(parent),
            _ => None,
        });
        assert_eq!(b_parent, Some(0), "b's span must not parent under a's");
    }

    #[test]
    #[should_panic(expected = "telemetry name collision")]
    fn counter_name_cannot_shadow_a_histogram() {
        let c = Collector::builder().sink(MemorySink::new()).build();
        c.observe("stage/mapper_us", 1.0);
        c.counter("stage/mapper_us", 1);
    }

    #[test]
    #[should_panic(expected = "telemetry name collision")]
    fn histogram_name_cannot_shadow_a_counter() {
        let c = Collector::builder().sink(MemorySink::new()).build();
        c.counter("point_cache/hit", 1);
        c.observe("point_cache/hit", 1.0);
    }

    #[test]
    fn histogram_buckets_survive_flush() {
        let c = Collector::builder().sink(MemorySink::new()).build();
        for v in [1.0, 3.0, 900.0] {
            c.observe("stage/mapper_us", v);
        }
        let h = c.histogram("stage/mapper_us").unwrap();
        assert_eq!(h.buckets.iter().map(|&(_, c)| c).sum::<u64>(), 3);
        let p100 = h.quantile(1.0);
        assert_eq!(p100, 900.0);
    }

    #[test]
    fn provenance_records_reach_sinks() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        c.provenance(ProvenanceRecord {
            technique: "explainable".into(),
            point: vec![1, 2],
            outcome: "evaluated".into(),
            ..ProvenanceRecord::default()
        });
        assert!(matches!(
            &sink.events()[0],
            Event::Provenance { record, .. } if record.point == vec![1, 2]
        ));
    }

    #[test]
    fn timer_feeds_histogram_without_events() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        {
            let _t = c.time("stage/point_eval_us");
        }
        assert_eq!(c.histogram("stage/point_eval_us").unwrap().count, 1);
        assert!(sink.is_empty(), "timers must not stream events");
    }

    #[test]
    fn log_only_collector_keeps_metrics_off() {
        let c = Collector::builder()
            .sink(StderrSink::new(Level::Error))
            .build();
        assert!(!c.active());
        c.counter("x", 1);
        assert_eq!(c.counter_value("x"), 0);
        // Logs still route (nothing visible at Error threshold here).
        c.log(Level::Debug, "hidden");
        c.flush();
    }

    #[test]
    fn logs_reach_metric_sinks_too() {
        let sink = MemorySink::new();
        let c = Collector::builder().sink(sink.clone()).build();
        c.log(Level::Warn, "careful");
        assert!(matches!(
            &sink.events()[0],
            Event::Log { level: Level::Warn, message, .. } if message == "careful"
        ));
    }

    #[test]
    fn clones_share_state() {
        let c = Collector::builder().sink(MemorySink::new()).build();
        let c2 = c.clone();
        c.counter("shared", 1);
        c2.counter("shared", 1);
        assert_eq!(c.counter_value("shared"), 2);
    }

    #[test]
    fn threaded_counting_is_exact() {
        let c = Collector::builder().sink(MemorySink::new()).build();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = c.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        c.counter("races/none", 1);
                    }
                });
            }
        });
        assert_eq!(c.counter_value("races/none"), 4000);
    }
}
