//! Zero-dependency trace exporters: Chrome trace-event JSON,
//! collapsed-stack flamegraph text, and Prometheus text-format metrics.
//!
//! All three formats are produced from recorded [`Event`] sequences (or
//! live collector snapshots, for Prometheus) with the hand-rolled
//! [`crate::json`] writer — no external crates, matching the rest of the
//! telemetry layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::event::{Event, HistogramSummary};
use crate::json::Json;
use crate::trace::SpanTree;

/// Renders a Chrome trace-event JSON document (`chrome://tracing` /
/// Perfetto's JSON object format) from a recorded event sequence.
///
/// Spans become `"X"` complete events carrying their span/parent ids in
/// `args`; iteration and provenance records become `"i"` instants so the
/// search's decision points line up against the timing track.
pub fn chrome_trace(events: &[Event]) -> String {
    let tree = SpanTree::build(events);
    let mut trace_events = Vec::new();
    for node in &tree.nodes {
        let mut obj = vec![
            ("name".to_string(), Json::Str(node.name.clone())),
            ("cat".to_string(), Json::Str("span".to_string())),
            ("ph".to_string(), Json::Str("X".to_string())),
            ("ts".to_string(), Json::Num(node.start_us as f64)),
            ("dur".to_string(), Json::Num(node.elapsed_us as f64)),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(1.0)),
        ];
        obj.push((
            "args".to_string(),
            Json::Obj(vec![
                ("id".to_string(), Json::Num(node.id as f64)),
                (
                    "parent".to_string(),
                    Json::Num(node.parent.map_or(0, |p| tree.nodes[p].id) as f64),
                ),
            ]),
        ));
        trace_events.push(Json::Obj(obj));
    }
    for event in events {
        let (name, t_us) = match event {
            Event::Iteration { t_us, record } => (format!("iteration {}", record.iteration), *t_us),
            Event::Provenance { t_us, record } => (
                format!("provenance {} {:?}", record.outcome, record.point),
                *t_us,
            ),
            _ => continue,
        };
        trace_events.push(Json::Obj(vec![
            ("name".to_string(), Json::Str(name)),
            ("cat".to_string(), Json::Str("search".to_string())),
            ("ph".to_string(), Json::Str("i".to_string())),
            ("s".to_string(), Json::Str("t".to_string())),
            ("ts".to_string(), Json::Num(t_us as f64)),
            ("pid".to_string(), Json::Num(1.0)),
            ("tid".to_string(), Json::Num(1.0)),
        ]));
    }
    Json::Obj(vec![("traceEvents".to_string(), Json::Arr(trace_events))]).to_line()
}

/// Renders collapsed-stack flamegraph text from a recorded event
/// sequence: one `root;child;leaf self_µs` line per distinct span path,
/// sorted by path, with per-path sums saturating at `u64::MAX`. Feed to
/// `flamegraph.pl` / speedscope / inferno.
pub fn flamegraph(events: &[Event]) -> String {
    let tree = SpanTree::build(events);
    let mut by_path: BTreeMap<String, u64> = BTreeMap::new();
    for idx in 0..tree.nodes.len() {
        let self_us = tree.self_us(idx);
        if self_us > 0 {
            let sum = by_path.entry(tree.path(idx)).or_insert(0);
            *sum = sum.saturating_add(self_us);
        }
    }
    let mut out = String::new();
    for (path, self_us) in by_path {
        let _ = writeln!(out, "{path} {self_us}");
    }
    out
}

/// Renders counters and histogram summaries in the Prometheus text
/// exposition format (the `--metrics-out` snapshot). Counters surface as
/// `counter` metrics; histograms as `summary` metrics with p50/p95/p99
/// quantiles estimated from their power-of-two buckets.
pub fn prometheus_text(
    counters: &BTreeMap<String, u64>,
    histograms: &[HistogramSummary],
) -> String {
    let mut out = String::new();
    for (name, value) in counters {
        let name = metric_name(name);
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for h in histograms {
        let name = metric_name(&h.name);
        let _ = writeln!(out, "# TYPE {name} summary");
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", num(h.quantile(q)));
        }
        let _ = writeln!(out, "{name}_sum {}", num(h.sum));
        let _ = writeln!(out, "{name}_count {}", h.count);
    }
    out
}

/// Prometheus metric-name sanitization: `edse_` prefix, every character
/// outside `[A-Za-z0-9_]` replaced with `_`.
fn metric_name(raw: &str) -> String {
    let mut name = String::with_capacity(raw.len() + 5);
    name.push_str("edse_");
    for c in raw.chars() {
        name.push(if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '_'
        });
    }
    name
}

/// Prometheus-compatible float formatting (the shared JSON writer is
/// reused for finite values; non-finite values use Prometheus spellings).
fn num(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        Json::Num(v).to_line()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::ProvenanceRecord;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::SpanEnter {
                name: "dse/run".into(),
                t_us: 0,
                id: 1,
                parent: 0,
            },
            Event::SpanEnter {
                name: "eval/batch".into(),
                t_us: 10,
                id: 2,
                parent: 1,
            },
            Event::SpanExit {
                name: "eval/batch".into(),
                t_us: 40,
                id: 2,
                elapsed_us: 30,
            },
            Event::Provenance {
                t_us: 45,
                record: ProvenanceRecord {
                    technique: "explainable".into(),
                    point: vec![1, 2],
                    outcome: "evaluated".into(),
                    ..ProvenanceRecord::default()
                },
            },
            Event::SpanExit {
                name: "dse/run".into(),
                t_us: 100,
                id: 1,
                elapsed_us: 100,
            },
        ]
    }

    #[test]
    fn chrome_trace_parses_back_as_json() {
        let text = chrome_trace(&sample_events());
        let parsed = crate::json::parse(&text).expect("chrome export must be valid JSON");
        let events = parsed
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents array");
        // Two spans + one provenance instant.
        assert_eq!(events.len(), 3);
        assert_eq!(
            events[0].get("ph").and_then(Json::as_str),
            Some("X"),
            "{text}"
        );
        assert_eq!(events[1].get("dur").and_then(Json::as_f64), Some(30.0));
    }

    #[test]
    fn flamegraph_lines_carry_self_time() {
        let text = flamegraph(&sample_events());
        assert_eq!(
            text, "dse/run 70\ndse/run;eval/batch 30\n",
            "collapsed stacks must be path-sorted with self-time values"
        );
    }

    #[test]
    fn prometheus_text_sanitizes_names_and_renders_quantiles() {
        let mut counters = BTreeMap::new();
        counters.insert("point_cache/shard00/hit".to_string(), 7u64);
        let histograms = vec![HistogramSummary {
            name: "stage/mapper_us".into(),
            count: 1,
            sum: 37.0,
            min: 37.0,
            max: 37.0,
            buckets: vec![(5, 1)],
        }];
        let text = prometheus_text(&counters, &histograms);
        assert!(text.contains("# TYPE edse_point_cache_shard00_hit counter"));
        assert!(text.contains("edse_point_cache_shard00_hit 7"));
        assert!(text.contains("edse_stage_mapper_us{quantile=\"0.5\"} 37"));
        assert!(text.contains("edse_stage_mapper_us_sum 37"));
        assert!(text.contains("edse_stage_mapper_us_count 1"));
    }
}
