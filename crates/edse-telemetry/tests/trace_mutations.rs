//! The trace decoder and the analyses over it under damaged input: a
//! recorded `--trace-out` file with flipped bytes, cuts, spliced lines,
//! or span ids and parents rewritten to small numbers (so duplicate ids
//! and self-parents occur). Whatever lines still parse build a span tree
//! without a cycle, and no analysis panics.

use edse_telemetry::{
    export, json, trace, BatchRecord, Collector, Event, IterationRecord, Level, MemorySink,
    ProvenanceRecord, TRACE_SCHEMA,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// A small search-shaped trace written as JSONL, recorded once: nested
/// spans, counters and a histogram, iteration, batch and provenance
/// records, and a log line.
fn recorded_trace() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        {
            let _run = collector.span("dse/run");
            for i in 0..3usize {
                let _attempt = collector.span("dse/attempt");
                {
                    let _batch = collector.span("eval/batch");
                    collector.counter("point_cache/shard00/miss", 1);
                    collector.counter("point_cache/shard01/hit", 2);
                    collector.observe("stage/mapper_us", 10.0 * (i + 1) as f64);
                }
                collector.provenance(ProvenanceRecord {
                    technique: "explainable".into(),
                    iteration: i as u64,
                    point: vec![i, 0],
                    parent: i.checked_sub(1).map(|p| vec![p, 0]),
                    outcome: "evaluated".into(),
                    new_best: true,
                    ..ProvenanceRecord::default()
                });
                collector.iteration(IterationRecord {
                    technique: "explainable".into(),
                    iteration: i as u64,
                    incumbent_objective: 5.0 - i as f64,
                    bottleneck: Some("dram_accesses".into()),
                    scaling: Some(2.0),
                    proposed: 2,
                    evaluated: 1,
                    ..IterationRecord::default()
                });
                collector.batch(BatchRecord {
                    stage: "engine/mapping".into(),
                    items: 3,
                    threads: 2,
                    per_thread: vec![2, 1],
                });
            }
            collector.log(Level::Warn, "one warning");
        }
        collector.flush();
        let meta = Event::Meta {
            t_us: 0,
            schema: TRACE_SCHEMA.to_string(),
        };
        std::iter::once(meta)
            .chain(sink.events())
            .map(|e| e.to_json_line() + "\n")
            .collect::<String>()
            .into_bytes()
    })
}

/// One way of damaging the trace's bytes. Positions are taken modulo the
/// length, so every mutation applies to any file.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` with a non-zero `mask`.
    Flip { at: usize, mask: u8 },
    /// Cut the file at `at`.
    Truncate { at: usize },
    /// Copy `len` bytes starting at `from` in front of `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Rewrite the number after the `nth` `"id":` (or `"parent":`) member
    /// to `value`.
    Rewire {
        nth: usize,
        parent: bool,
        value: u64,
    },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        match *self {
            Mutation::Flip { at, mask } => bytes[at % n] ^= mask,
            Mutation::Truncate { at } => bytes.truncate(at % n),
            Mutation::Splice { from, len, at } => {
                let from = from % n;
                let piece = bytes[from..(from + len).min(n)].to_vec();
                bytes.splice(at % n..at % n, piece);
            }
            Mutation::Rewire { nth, parent, value } => {
                let key: &[u8] = if parent { b"\"parent\":" } else { b"\"id\":" };
                let starts: Vec<usize> = bytes
                    .windows(key.len())
                    .enumerate()
                    .filter(|(_, w)| *w == key)
                    .map(|(i, _)| i + key.len())
                    .collect();
                if starts.is_empty() {
                    return;
                }
                let start = starts[nth % starts.len()];
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                bytes.splice(start..end, value.to_string().into_bytes());
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    let pos = || 0usize..1 << 16;
    prop_oneof![
        (pos(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        (pos(), 1usize..256, pos()).prop_map(|(from, len, at)| Mutation::Splice { from, len, at }),
        (0usize..64, any::<bool>(), 0u64..6).prop_map(|(nth, parent, value)| Mutation::Rewire {
            nth,
            parent,
            value
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every span's parent entered before it, and the aggregate, the
    /// flamegraph, the Chrome export and the provenance chains all
    /// finish on whatever parses.
    #[test]
    fn damaged_traces_build_acyclic_trees_and_analyses_finish(
        mutations in proptest::collection::vec(arb_mutation(), 1..4),
    ) {
        let mut bytes = recorded_trace().to_vec();
        for m in &mutations {
            m.apply(&mut bytes);
        }
        let text = String::from_utf8_lossy(&bytes);
        let events: Vec<Event> = text
            .lines()
            .filter_map(|line| Event::parse_json_line(line).ok())
            .collect();
        let tree = trace::SpanTree::build(&events);
        for (idx, node) in tree.nodes.iter().enumerate() {
            prop_assert!(node.parent.is_none_or(|p| p < idx), "node {idx}: {node:?}");
        }
        tree.aggregate();
        export::flamegraph(&events);
        prop_assert!(json::parse(&export::chrome_trace(&events)).is_ok());
        let records = trace::provenance_records(&events);
        let _ = trace::why_chain(&records, None).map(|chain| trace::render_why(&chain));
        for record in &records {
            prop_assert!(trace::why_chain(&records, Some(&record.point)).is_ok());
        }
    }
}

/// Span durations the decoder accepts (up to 2^53 - 1) sum past `u64` in
/// 2,048 spans; the per-name and per-path totals saturate instead.
#[test]
fn huge_span_durations_saturate_in_aggregates_and_flamegraphs() {
    let max = (1u64 << 53) - 1;
    let mut text = String::new();
    for id in 1..=2_100u64 {
        let enter = Event::SpanEnter {
            name: "a".into(),
            t_us: 0,
            id,
            parent: 0,
        };
        let exit = Event::SpanExit {
            name: "a".into(),
            t_us: max,
            id,
            elapsed_us: max,
        };
        text.push_str(&(enter.to_json_line() + "\n" + &exit.to_json_line() + "\n"));
    }
    let events: Vec<Event> = text
        .lines()
        .map(|line| Event::parse_json_line(line).expect("decodable span line"))
        .collect();
    let stats = trace::SpanTree::build(&events).aggregate();
    assert_eq!(stats.len(), 1);
    assert_eq!(stats[0].count, 2_100);
    assert_eq!(stats[0].total_us, u64::MAX);
    assert_eq!(stats[0].self_us, u64::MAX);
    assert_eq!(export::flamegraph(&events), "a 18446744073709551615\n");
}
