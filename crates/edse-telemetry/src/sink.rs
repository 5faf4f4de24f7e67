//! Pluggable event sinks: in-memory (tests), JSONL (tooling), stderr
//! (logs), Prometheus text snapshots (scrape surface).

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::event::{Event, HistogramSummary, Level, TRACE_SCHEMA};

/// Receives every event the [`crate::Collector`] dispatches.
///
/// Implementations must be cheap and must not panic: sinks run inline on
/// the instrumented hot paths (the collector does not buffer events on a
/// background thread — zero-dependency means no channel machinery beyond
/// std, and the workloads here are compute-bound, not I/O-bound).
pub trait Sink: Send + Sync {
    /// Handles one event.
    fn record(&self, event: &Event);

    /// Whether this sink wants metric traffic (spans, counters,
    /// histograms, iteration/batch records). A pure log sink returns
    /// `false` so its presence alone does not activate the metric hot
    /// paths in the collector.
    fn wants_metrics(&self) -> bool {
        true
    }

    /// Flushes buffered output, if any.
    fn flush(&self) {}
}

/// Collects events into a shared `Vec` for test assertions.
#[derive(Debug, Clone, Default)]
pub struct MemorySink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for MemorySink {
    fn record(&self, event: &Event) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// Streams one JSON object per event to a file — the `--trace-out` format
/// consumed by `edse-trace`.
#[derive(Debug)]
pub struct JsonlSink {
    writer: Mutex<BufWriter<File>>,
}

impl JsonlSink {
    /// Creates (truncating) the trace file and writes the
    /// [`TRACE_SCHEMA`] meta header as its first line.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error when the file cannot be created.
    pub fn create(path: &Path) -> std::io::Result<JsonlSink> {
        let mut writer = BufWriter::new(File::create(path)?);
        let mut header = Event::Meta {
            t_us: 0,
            schema: TRACE_SCHEMA.to_string(),
        }
        .to_json_line();
        header.push('\n');
        writer.write_all(header.as_bytes())?;
        Ok(JsonlSink {
            writer: Mutex::new(writer),
        })
    }
}

impl Sink for JsonlSink {
    fn record(&self, event: &Event) {
        let mut line = event.to_json_line();
        line.push('\n');
        let mut writer = self.writer.lock().expect("jsonl sink poisoned");
        // A full disk mid-trace should not abort the run it observes.
        let _ = writer.write_all(line.as_bytes());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Prints [`Event::Log`] messages at or above a minimum level to stderr
/// and ignores everything else. This is what keeps warnings/errors from
/// the bench binaries visible while making progress chatter opt-in.
#[derive(Debug, Clone, Copy)]
pub struct StderrSink {
    min_level: Level,
}

impl StderrSink {
    /// Creates a sink that prints messages at `min_level` and above.
    pub fn new(min_level: Level) -> StderrSink {
        StderrSink { min_level }
    }
}

impl Sink for StderrSink {
    fn record(&self, event: &Event) {
        if let Event::Log { level, message, .. } = event {
            if *level >= self.min_level {
                eprintln!("[{level}] {message}");
            }
        }
    }

    fn wants_metrics(&self) -> bool {
        false
    }
}

/// Writes a Prometheus text-format metrics snapshot on every
/// [`Sink::flush`] — the `--metrics-out` surface the future `edse-serve`
/// will wrap with an HTTP scrape endpoint.
///
/// The sink reconstructs cumulative counters from the delta-encoded
/// [`Event::Counters`] flush snapshots and keeps the latest
/// [`Event::Histograms`] summaries, so it needs no access to the
/// collector's internals and composes with any other sink.
#[derive(Debug)]
pub struct PrometheusSink {
    path: PathBuf,
    state: Mutex<PromState>,
}

#[derive(Debug, Default)]
struct PromState {
    counters: std::collections::BTreeMap<String, u64>,
    histograms: Vec<HistogramSummary>,
}

impl PrometheusSink {
    /// Creates a sink that writes (atomically replacing) `path` on flush.
    pub fn new(path: impl Into<PathBuf>) -> PrometheusSink {
        PrometheusSink {
            path: path.into(),
            state: Mutex::new(PromState::default()),
        }
    }
}

impl Sink for PrometheusSink {
    fn record(&self, event: &Event) {
        match event {
            Event::Counters { deltas, .. } => {
                let mut state = self.state.lock().expect("prometheus sink poisoned");
                for (name, delta) in deltas {
                    *state.counters.entry(name.clone()).or_insert(0) += delta;
                }
            }
            Event::Histograms { summaries, .. } => {
                let mut state = self.state.lock().expect("prometheus sink poisoned");
                state.histograms = summaries.clone();
            }
            _ => {}
        }
    }

    fn flush(&self) {
        let text = {
            let state = self.state.lock().expect("prometheus sink poisoned");
            crate::export::prometheus_text(&state.counters, &state.histograms)
        };
        // Write-then-rename so a concurrent scraper never reads a
        // half-written snapshot; errors are swallowed for the same
        // reason JsonlSink's are (observation must not kill the run).
        let tmp = self.path.with_extension("prom.tmp");
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_sink_accumulates_in_order() {
        let sink = MemorySink::new();
        assert!(sink.is_empty());
        for t in 0..3 {
            sink.record(&Event::SpanEnter {
                name: "x".into(),
                t_us: t,
                id: t + 1,
                parent: 0,
            });
        }
        let events = sink.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[2].t_us(), 2);
    }

    #[test]
    fn jsonl_sink_writes_schema_header_and_parseable_lines() {
        let path = std::env::temp_dir().join("edse_telemetry_sink_test.jsonl");
        let sink = JsonlSink::create(&path).unwrap();
        sink.record(&Event::Log {
            t_us: 1,
            level: Level::Info,
            message: "hello".into(),
        });
        sink.record(&Event::SpanExit {
            name: "dse/run".into(),
            t_us: 9,
            id: 1,
            elapsed_us: 8,
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        match Event::parse_json_line(lines[0]).unwrap() {
            Event::Meta { schema, .. } => assert_eq!(schema, TRACE_SCHEMA),
            other => panic!("first line must be the meta header, got {other:?}"),
        }
        for line in &lines[1..] {
            Event::parse_json_line(line).expect(line);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stderr_sink_opts_out_of_metrics() {
        assert!(!StderrSink::new(Level::Warn).wants_metrics());
        assert!(MemorySink::new().wants_metrics());
    }

    #[test]
    fn prometheus_sink_accumulates_deltas_and_writes_on_flush() {
        let path = std::env::temp_dir().join("edse_telemetry_prom_test.prom");
        let sink = PrometheusSink::new(&path);
        sink.record(&Event::Counters {
            t_us: 1,
            deltas: vec![("point_cache/hit".into(), 3)],
        });
        sink.record(&Event::Counters {
            t_us: 2,
            deltas: vec![("point_cache/hit".into(), 2)],
        });
        sink.record(&Event::Histograms {
            t_us: 3,
            summaries: vec![HistogramSummary {
                name: "stage/mapper_us".into(),
                count: 2,
                sum: 10.0,
                min: 4.0,
                max: 6.0,
                buckets: vec![(2, 2)],
            }],
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("edse_point_cache_hit 5"), "{text}");
        assert!(text.contains("edse_stage_mapper_us_count 2"), "{text}");
        let _ = std::fs::remove_file(&path);
    }
}
