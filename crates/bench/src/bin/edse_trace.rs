//! `edse-trace`: offline forensics over a `--trace-out` JSONL trace.
//!
//! Subcommands:
//!
//! - `summary <trace>` — the human-readable report: per-phase self-time
//!   table (from the causal span tree), one narrative line per search
//!   iteration (incumbent, dominant bottleneck and its scaling, candidate
//!   funnel, decision), the provenance funnel, cache hit rates, the other
//!   counters, batch-engine utilization, stage timings and logs;
//! - `why <trace> [best|i,j,...]` — the provenance chain for a candidate
//!   as the paper's bottleneck narrative: which incumbent it was derived
//!   from, which dominant bottleneck factor and scaling action proposed
//!   it, and whether it became the incumbent. Deterministic: identical
//!   runs render byte-identical output;
//! - `flamegraph <trace>` — collapsed-stack text (`path self_µs` lines)
//!   for flamegraph.pl / speedscope / inferno;
//! - `chrome <trace>` — Chrome trace-event JSON (`chrome://tracing`,
//!   Perfetto), self-validated before printing;
//! - `diff <a> <b>` — side-by-side span self-time and counter totals of
//!   two traces.
//!
//! Exits 2 on usage errors, 1 on unreadable/malformed/empty traces or
//! when the requested analysis is impossible (e.g. `why` on a trace with
//! no provenance ledger).

use edse_telemetry::{export, json, trace, Event, IterationRecord};
use std::collections::{BTreeMap, BTreeSet};

const USAGE: &str = "usage: edse-trace <command> <trace.jsonl> [...]

commands:
  summary    <trace>              spans, search narrative, funnel, counters, timings, logs
  why        <trace> [best|i,j,…] provenance chain for a candidate (default: best)
  flamegraph <trace>              collapsed-stack text for flamegraph tools
  chrome     <trace>              Chrome trace-event JSON (self-validated)
  diff       <a> <b>              compare span self-times and counters of two traces";

fn usage_exit() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2);
}

fn load(path: &str) -> Vec<Event> {
    match bench::load_events(path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    }
}

/// Parses a `why` target: `best` (or nothing) means the final
/// incumbent; otherwise a design point as comma-separated indices,
/// with optional surrounding brackets (`3,1,2` or `[3, 1, 2]`).
fn parse_target(arg: Option<&str>) -> Result<Option<Vec<usize>>, String> {
    let arg = match arg {
        None => return Ok(None),
        Some("best") => return Ok(None),
        Some(a) => a,
    };
    let trimmed = arg.trim().trim_start_matches('[').trim_end_matches(']');
    let point: Result<Vec<usize>, _> = trimmed
        .split(',')
        .map(|s| s.trim().parse::<usize>())
        .collect();
    match point {
        Ok(p) if !p.is_empty() => Ok(Some(p)),
        _ => Err(format!(
            "cannot parse candidate {arg:?}: expected `best` or comma-separated indices like 3,1,2"
        )),
    }
}

fn fmt_ms(us: u64) -> String {
    format!("{:.3}", us as f64 / 1e3)
}

/// An iteration record's objective in milliseconds; an infinite one means
/// no mapping was found.
fn fmt_objective(objective: f64) -> String {
    if objective.is_finite() {
        format!("{objective:.3} ms")
    } else {
        "unmappable".into()
    }
}

/// The caches whose `hit`/`miss`/`inflight_wait` counters fold into one
/// hit rate each, summed over shards.
const CACHES: [&str; 3] = ["point_cache/", "layer_cache/", "disk_cache/"];
const ACCESS_KINDS: [&str; 3] = ["/hit", "/miss", "/inflight_wait"];

/// Whether `name` counts accesses of one of the [`CACHES`].
fn is_cache_access(name: &str) -> bool {
    CACHES.iter().any(|c| name.starts_with(c)) && ACCESS_KINDS.iter().any(|k| name.ends_with(k))
}

/// Every counter's total over the trace (`counters` events carry deltas),
/// saturating at `u64::MAX`: a trace file may carry any decodable delta.
fn counter_totals(events: &[Event]) -> BTreeMap<&str, u64> {
    let mut totals = BTreeMap::new();
    for e in events {
        if let Event::Counters { deltas, .. } = e {
            for (name, v) in deltas {
                let total = totals.entry(name.as_str()).or_insert(0u64);
                *total = total.saturating_add(*v);
            }
        }
    }
    totals
}

/// An iteration record's narrative: one line with the incumbent, the
/// dominant bottleneck and its scaling, the top layers and the candidate
/// funnel, and the update rule's decision on the line below.
fn narrative_lines(rec: &IterationRecord) -> String {
    let mut line = format!(
        "iter {:>3} [{}] incumbent {}",
        rec.iteration,
        rec.technique,
        fmt_objective(rec.incumbent_objective)
    );
    if let Some(best) = rec.best_objective {
        line.push_str(&format!(", best {}", fmt_objective(best)));
    }
    match (&rec.bottleneck, rec.scaling) {
        (Some(b), Some(s)) => line.push_str(&format!(" | bottleneck {b} (needs s={s:.2})")),
        (Some(b), None) => line.push_str(&format!(" | bottleneck {b}")),
        (None, _) => line.push_str(" | no bottleneck analysis (black box)"),
    }
    if !rec.layer_contributions.is_empty() {
        let top: Vec<String> = rec
            .layer_contributions
            .iter()
            .take(3)
            .map(|(name, c)| format!("{name} {:.1}%", c * 100.0))
            .collect();
        line.push_str(&format!(" | top layers: {}", top.join(", ")));
    }
    line.push_str(&format!(
        " | proposed {} -> deduped {} -> evaluated {} (budget left {})\n",
        rec.proposed, rec.deduped, rec.evaluated, rec.budget_remaining
    ));
    line.push_str(&format!("         decision: {}\n", rec.decision));
    line
}

/// The `summary` report, one section per kind of record the trace holds:
/// schema line; per-span-name table sorted by self-time (descending;
/// name-tiebreak keeps it deterministic); the per-iteration search
/// narrative; the candidate funnel from the provenance ledger; cache hit
/// rates; every other counter; batch-engine utilization per stage; stage
/// timings from the last histogram snapshot; and the logs.
fn summary_text(events: &[Event]) -> String {
    let mut out = String::new();
    let schema = events.iter().find_map(|e| match e {
        Event::Meta { schema, .. } => Some(schema.as_str()),
        _ => None,
    });
    out.push_str(&format!(
        "{} events, schema {}\n\n",
        events.len(),
        schema.unwrap_or("unknown (pre-v2 trace)")
    ));

    let tree = trace::SpanTree::build(events);
    let mut stats = tree.aggregate();
    stats.sort_by(|a, b| b.self_us.cmp(&a.self_us).then(a.name.cmp(&b.name)));
    if !stats.is_empty() {
        out.push_str("# Spans (self time, descending)\n");
        out.push_str(&format!(
            "{:<28} {:>6} {:>12} {:>12}\n",
            "name", "count", "total_ms", "self_ms"
        ));
        for s in &stats {
            out.push_str(&format!(
                "{:<28} {:>6} {:>12} {:>12}\n",
                s.name,
                s.count,
                fmt_ms(s.total_us),
                fmt_ms(s.self_us)
            ));
        }
        out.push('\n');
    }

    let iterations: Vec<&IterationRecord> = events
        .iter()
        .filter_map(|e| match e {
            Event::Iteration { record, .. } => Some(record),
            _ => None,
        })
        .collect();
    if !iterations.is_empty() {
        out.push_str(&format!(
            "# Search narrative ({} iterations)\n",
            iterations.len()
        ));
        for rec in iterations {
            out.push_str(&narrative_lines(rec));
        }
        out.push('\n');
    }

    let records = trace::provenance_records(events);
    if !records.is_empty() {
        let count = |outcome: &str| records.iter().filter(|r| r.outcome == outcome).count();
        let new_best = records.iter().filter(|r| r.new_best).count();
        out.push_str("# Candidate funnel\n");
        out.push_str(&format!(
            "{} proposals: {} evaluated, {} deduped, {} skipped (budget), {} failed; \
             {} became the incumbent\n\n",
            records.len(),
            count("evaluated"),
            count("deduped"),
            count("skipped"),
            count("failed"),
            new_best
        ));
    }

    let totals = counter_totals(events);
    let caches: Vec<String> = CACHES
        .iter()
        .filter_map(|cache| {
            let sum = |kind: &str| -> u64 {
                totals
                    .iter()
                    .filter(|(k, _)| k.starts_with(cache) && k.ends_with(kind))
                    .fold(0, |acc, (_, v)| acc.saturating_add(*v))
            };
            let hits = sum("/hit");
            let total = ACCESS_KINDS
                .iter()
                .fold(0u64, |acc, kind| acc.saturating_add(sum(kind)));
            (total > 0).then(|| {
                format!(
                    "{} {:.1}% of {total}",
                    cache.trim_end_matches('/'),
                    100.0 * hits as f64 / total as f64
                )
            })
        })
        .collect();
    if !caches.is_empty() {
        out.push_str("# Cache hit rates\n");
        out.push_str(&caches.join("; "));
        out.push_str("\n\n");
    }
    let others: Vec<_> = totals
        .iter()
        .filter(|(name, _)| !is_cache_access(name))
        .collect();
    if !others.is_empty() {
        out.push_str("# Counters\n");
        for (name, v) in others {
            out.push_str(&format!("{name}: {v}\n"));
        }
        out.push('\n');
    }

    // Per stage: batches, tasks, widest fan-out, utilization sum.
    let mut stages: BTreeMap<&str, (u64, u64, u64, f64)> = BTreeMap::new();
    for e in events {
        if let Event::Batch { record, .. } = e {
            let entry = stages.entry(record.stage.as_str()).or_default();
            entry.0 += 1;
            entry.1 = entry.1.saturating_add(record.items);
            entry.2 = entry.2.max(record.threads);
            entry.3 += record.balance();
        }
    }
    if !stages.is_empty() {
        out.push_str("# Batch engine\n");
        for (stage, (count, items, threads, balance_sum)) in stages {
            out.push_str(&format!(
                "{stage}: {count} batches, {items} tasks, up to {threads} threads, \
                 mean utilization {:.0}%\n",
                100.0 * balance_sum / count as f64
            ));
        }
        out.push('\n');
    }

    // Histograms are cumulative, so the last snapshot wins.
    let last_histograms = events.iter().rev().find_map(|e| match e {
        Event::Histograms { summaries, .. } => Some(summaries),
        _ => None,
    });
    if let Some(summaries) = last_histograms.filter(|s| !s.is_empty()) {
        out.push_str("# Stage timings\n");
        for h in summaries {
            out.push_str(&format!(
                "{}: {} samples, mean {:.0} us (min {:.0}, max {:.0})\n",
                h.name,
                h.count,
                h.mean(),
                h.min,
                h.max
            ));
        }
        out.push('\n');
    }

    let logs: Vec<String> = events
        .iter()
        .filter_map(|e| match e {
            Event::Log { level, message, .. } => Some(format!("[{level}] {message}\n")),
            _ => None,
        })
        .collect();
    if !logs.is_empty() {
        out.push_str(&format!("# Logs ({})\n", logs.len()));
        out.push_str(&logs.concat());
    }
    out
}

/// The `diff` report: union of span names with self-times from both
/// traces, then counter totals that differ.
fn diff_text(a: &[Event], b: &[Event]) -> String {
    let mut out = String::new();
    let agg = |events: &[Event]| -> BTreeMap<String, u64> {
        trace::SpanTree::build(events)
            .aggregate()
            .into_iter()
            .map(|s| (s.name, s.self_us))
            .collect()
    };
    let (sa, sb) = (agg(a), agg(b));
    let names: BTreeSet<&String> = sa.keys().chain(sb.keys()).collect();
    if !names.is_empty() {
        out.push_str("# Span self-time (ms)\n");
        out.push_str(&format!(
            "{:<28} {:>12} {:>12} {:>12}\n",
            "name", "a", "b", "b-a"
        ));
        for name in names {
            let (va, vb) = (
                sa.get(name).copied().unwrap_or(0),
                sb.get(name).copied().unwrap_or(0),
            );
            out.push_str(&format!(
                "{:<28} {:>12} {:>12} {:>12}\n",
                name,
                fmt_ms(va),
                fmt_ms(vb),
                format!("{:+.3}", (vb as f64 - va as f64) / 1e3)
            ));
        }
        out.push('\n');
    }
    let (ca, cb) = (counter_totals(a), counter_totals(b));
    let changed: Vec<String> = ca
        .keys()
        .chain(cb.keys())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .filter_map(|name| {
            let (va, vb) = (
                ca.get(name).copied().unwrap_or(0),
                cb.get(name).copied().unwrap_or(0),
            );
            (va != vb).then(|| format!("{name}: {va} -> {vb}"))
        })
        .collect();
    if !changed.is_empty() {
        out.push_str("# Counters that differ\n");
        for line in changed {
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let command = argv
        .first()
        .map(String::as_str)
        .unwrap_or_else(|| usage_exit());
    match command {
        "summary" => {
            let path = argv.get(1).unwrap_or_else(|| usage_exit());
            print!("{}", summary_text(&load(path)));
        }
        "why" => {
            let path = argv.get(1).unwrap_or_else(|| usage_exit());
            let target = match parse_target(argv.get(2).map(String::as_str)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(2);
                }
            };
            let events = load(path);
            let records = trace::provenance_records(&events);
            match trace::why_chain(&records, target.as_deref()) {
                Ok(chain) => print!("{}", trace::render_why(&chain)),
                Err(e) => {
                    eprintln!("{path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        "flamegraph" => {
            let path = argv.get(1).unwrap_or_else(|| usage_exit());
            print!("{}", export::flamegraph(&load(path)));
        }
        "chrome" => {
            let path = argv.get(1).unwrap_or_else(|| usage_exit());
            let text = export::chrome_trace(&load(path));
            // Self-validate: a malformed export must never reach a
            // viewer (and CI leans on this check).
            if let Err(e) = json::parse(&text) {
                eprintln!(
                    "{path}: internal error: chrome export is not valid JSON: {}",
                    e.message
                );
                std::process::exit(1);
            }
            println!("{text}");
        }
        "diff" => {
            let (a, b) = match (argv.get(1), argv.get(2)) {
                (Some(a), Some(b)) => (a, b),
                _ => usage_exit(),
            };
            print!("{}", diff_text(&load(a), &load(b)));
        }
        _ => usage_exit(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_telemetry::{BatchRecord, HistogramSummary, Level, ProvenanceRecord};

    #[test]
    fn targets_parse_as_best_or_points() {
        assert_eq!(parse_target(None).unwrap(), None);
        assert_eq!(parse_target(Some("best")).unwrap(), None);
        assert_eq!(parse_target(Some("3,1,2")).unwrap(), Some(vec![3, 1, 2]));
        assert_eq!(
            parse_target(Some("[3, 1, 2]")).unwrap(),
            Some(vec![3, 1, 2])
        );
        assert!(parse_target(Some("worst")).is_err());
        assert!(parse_target(Some("")).is_err());
    }

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Meta {
                t_us: 0,
                schema: "edse-trace/v2".into(),
            },
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
                    new_best: true,
                    ..ProvenanceRecord::default()
                },
            },
            Event::Counters {
                t_us: 50,
                deltas: vec![
                    ("point_cache/s0/hit".into(), 3),
                    ("point_cache/s0/miss".into(), 1),
                ],
            },
            Event::SpanExit {
                name: "dse/run".into(),
                t_us: 100,
                id: 1,
                elapsed_us: 100,
            },
        ]
    }

    /// A trace that also holds an iteration record, non-cache and
    /// per-shard cache counters, a batch, a histogram snapshot and a log.
    fn full_events() -> Vec<Event> {
        let mut events = sample_events();
        events.extend([
            Event::Iteration {
                t_us: 60,
                record: IterationRecord {
                    technique: "explainable".into(),
                    iteration: 3,
                    incumbent_objective: 4.5,
                    best_objective: Some(4.5),
                    bottleneck: Some("dram_accesses".into()),
                    scaling: Some(2.0),
                    layer_contributions: vec![("conv1".into(), 0.625)],
                    proposed: 5,
                    deduped: 1,
                    evaluated: 4,
                    budget_remaining: 20,
                    decision: "accepted: lower latency".into(),
                },
            },
            Event::Counters {
                t_us: 70,
                deltas: vec![
                    ("layer_cache/shard07/inflight_wait".into(), 2),
                    ("layer_cache/shard07/miss".into(), 2),
                    ("disk_cache/append".into(), 9),
                ],
            },
            Event::Batch {
                t_us: 80,
                record: BatchRecord {
                    stage: "engine/mapping".into(),
                    items: 4,
                    threads: 2,
                    per_thread: vec![2, 2],
                },
            },
            Event::Histograms {
                t_us: 90,
                summaries: vec![HistogramSummary {
                    name: "stage/mapper_us".into(),
                    count: 2,
                    sum: 30.0,
                    min: 10.0,
                    max: 20.0,
                    ..HistogramSummary::default()
                }],
            },
            Event::Log {
                t_us: 95,
                level: Level::Warn,
                message: "cache dir degraded".into(),
            },
        ]);
        events
    }

    #[test]
    fn summary_reports_spans_funnel_and_caches() {
        let text = summary_text(&sample_events());
        assert!(text.contains("schema edse-trace/v2"), "{text}");
        assert!(text.contains("dse/run"), "{text}");
        assert!(text.contains("1 proposals: 1 evaluated"), "{text}");
        assert!(text.contains("1 became the incumbent"), "{text}");
        assert!(text.contains("point_cache 75.0% of 4"), "{text}");
    }

    #[test]
    fn summary_narrates_iterations_and_lists_the_other_counters() {
        let text = summary_text(&full_events());
        for heading in [
            "# Spans",
            "# Search narrative (1 iterations)",
            "# Candidate funnel",
            "# Cache hit rates",
            "# Counters",
            "# Batch engine",
            "# Stage timings",
            "# Logs (1)",
        ] {
            assert!(text.contains(heading), "missing {heading}:\n{text}");
        }
        assert!(
            text.contains(
                "iter   3 [explainable] incumbent 4.500 ms, best 4.500 ms \
                 | bottleneck dram_accesses (needs s=2.00) | top layers: conv1 62.5% \
                 | proposed 5 -> deduped 1 -> evaluated 4 (budget left 20)\n\
                 \x20        decision: accepted: lower latency\n"
            ),
            "{text}"
        );
        assert!(text.contains("disk_cache/append: 9\n"), "{text}");
        // Per-shard access counters fold into the hit rates (a wait is
        // an access that did not hit) and are not listed again.
        assert!(
            text.contains("point_cache 75.0% of 4; layer_cache 0.0% of 4\n"),
            "{text}"
        );
        assert!(!text.contains("shard07"), "{text}");
        assert!(!text.contains("point_cache/s0"), "{text}");
        assert!(
            text.contains(
                "engine/mapping: 1 batches, 4 tasks, up to 2 threads, mean utilization 100%"
            ),
            "{text}"
        );
        assert!(
            text.contains("stage/mapper_us: 2 samples, mean 15 us (min 10, max 20)"),
            "{text}"
        );
        assert!(text.contains("[warn] cache dir degraded"), "{text}");
    }

    #[test]
    fn diff_shows_span_and_counter_deltas() {
        let a = sample_events();
        let mut b = sample_events();
        if let Event::Counters { deltas, .. } = &mut b[5] {
            deltas[0].1 = 5;
        }
        let text = diff_text(&a, &b);
        assert!(text.contains("point_cache/s0/hit: 3 -> 5"), "{text}");
        assert!(text.contains("dse/run"), "{text}");
        // Identical traces diff to no counter section.
        assert!(!diff_text(&a, &a).contains("Counters that differ"));
    }

    #[test]
    fn counter_totals_saturate_instead_of_overflowing() {
        // The decoder accepts integers up to 2^53 - 1, so 2,048 such
        // deltas already exceed u64.
        let max = (1u64 << 53) - 1;
        let line = Event::Counters {
            t_us: 1,
            deltas: vec![
                ("executor/steals".into(), max),
                ("point_cache/shard00/hit".into(), max),
                ("point_cache/shard01/miss".into(), max),
            ],
        }
        .to_json_line();
        let events: Vec<Event> = (0..2_100)
            .map(|_| Event::parse_json_line(&line).expect("decodable counters line"))
            .collect();
        let text = summary_text(&events);
        assert!(
            text.contains("executor/steals: 18446744073709551615\n"),
            "{text}"
        );
        assert!(
            text.contains("point_cache 100.0% of 18446744073709551615\n"),
            "{text}"
        );
        let diff = diff_text(&events, &events[..1]);
        assert!(
            diff.contains("executor/steals: 18446744073709551615 -> 9007199254740991"),
            "{diff}"
        );
    }
}
