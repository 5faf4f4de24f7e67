//! Offline trace analysis: span-tree reconstruction and provenance
//! ("why") chains.
//!
//! The collector streams flat [`Event`]s; this module turns a recorded
//! event sequence back into the structures the forensics tooling
//! (`edse-trace`, the exporters in [`crate::export`]) reasons about:
//!
//! - [`SpanTree`] — the parent/child causality of every span, with
//!   self-time (span elapsed minus its children's elapsed) so a
//!   per-phase table answers "where did the wall-clock actually go";
//! - [`why_chain`] / [`render_why`] — the paper's bottleneck narrative
//!   for one candidate, reconstructed purely from
//!   [`ProvenanceRecord`]s: which incumbent it was derived from, which
//!   dominant bottleneck factor and scaling action proposed it, and
//!   whether it was accepted.
//!
//! Everything here is deterministic: renderings never include wall-clock
//! timestamps, so two identical runs produce byte-identical `why`
//! output (checked by the conformance suite).

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::event::{Event, ProvenanceRecord};

/// One reconstructed span occurrence.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Span id from the trace (0 for legacy v1 spans).
    pub id: u64,
    /// Index of the parent node in [`SpanTree::nodes`], if any.
    pub parent: Option<usize>,
    /// Span name, e.g. `dse/attempt`.
    pub name: String,
    /// Enter timestamp (µs since collector start).
    pub start_us: u64,
    /// Wall-clock duration; 0 when the trace ended with the span open.
    pub elapsed_us: u64,
    /// Whether a matching exit event was seen.
    pub closed: bool,
    /// Indices of child nodes in [`SpanTree::nodes`].
    pub children: Vec<usize>,
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of occurrences.
    pub count: u64,
    /// Total wall-clock across occurrences (µs).
    pub total_us: u64,
    /// Total self-time (elapsed minus children) across occurrences (µs).
    pub self_us: u64,
}

/// The span forest of one trace (multiple roots: the main `dse/run`
/// span plus any spans opened on worker threads).
#[derive(Debug, Default)]
pub struct SpanTree {
    /// All spans in enter order.
    pub nodes: Vec<SpanNode>,
    /// Indices of parentless spans.
    pub roots: Vec<usize>,
}

impl SpanTree {
    /// Rebuilds the span forest from a recorded event sequence.
    ///
    /// v2 spans are matched and parented by id; legacy v1 spans (id 0)
    /// fall back to positional nesting — an exit closes the innermost
    /// open id-0 span with the same name, and its parent is whichever
    /// id-0 span was open at enter time.
    ///
    /// A parent always enters before its child, so every node's parent
    /// index is below its own and the tree has no cycle, whatever the
    /// trace holds (a reused id resolves to its latest enter).
    pub fn build(events: &[Event]) -> SpanTree {
        let mut nodes: Vec<SpanNode> = Vec::new();
        let mut by_id: HashMap<u64, usize> = HashMap::new();
        let mut open_v1: Vec<usize> = Vec::new();
        for event in events {
            match event {
                Event::SpanEnter {
                    name,
                    t_us,
                    id,
                    parent,
                } => {
                    let idx = nodes.len();
                    let parent_idx = if *id != 0 {
                        // Look the parent up before registering this id: a
                        // span naming itself (or a later span) as parent
                        // must not become its own ancestor.
                        let p = (*parent != 0).then(|| by_id.get(parent).copied()).flatten();
                        by_id.insert(*id, idx);
                        p
                    } else {
                        let p = open_v1.last().copied();
                        open_v1.push(idx);
                        p
                    };
                    nodes.push(SpanNode {
                        id: *id,
                        parent: parent_idx,
                        name: name.clone(),
                        start_us: *t_us,
                        elapsed_us: 0,
                        closed: false,
                        children: Vec::new(),
                    });
                    if let Some(p) = parent_idx {
                        nodes[p].children.push(idx);
                    }
                }
                Event::SpanExit {
                    name,
                    id,
                    elapsed_us,
                    ..
                } => {
                    let idx = if *id != 0 {
                        by_id.get(id).copied()
                    } else {
                        open_v1
                            .iter()
                            .rposition(|&i| nodes[i].name == *name)
                            .map(|pos| open_v1.remove(pos))
                    };
                    if let Some(idx) = idx {
                        nodes[idx].elapsed_us = *elapsed_us;
                        nodes[idx].closed = true;
                    }
                }
                _ => {}
            }
        }
        let roots = (0..nodes.len())
            .filter(|&i| nodes[i].parent.is_none())
            .collect();
        SpanTree { nodes, roots }
    }

    /// Self-time of one node: its elapsed minus its children's elapsed,
    /// clamped at zero (clock skew between parent and child reads can
    /// make the children sum marginally larger). Sums saturate: a trace
    /// file may carry any decodable duration.
    pub fn self_us(&self, idx: usize) -> u64 {
        let node = &self.nodes[idx];
        let children = node
            .children
            .iter()
            .fold(0u64, |sum, &c| sum.saturating_add(self.nodes[c].elapsed_us));
        node.elapsed_us.saturating_sub(children)
    }

    /// Per-name aggregate (count, total, self), sorted by name for
    /// deterministic output. Totals saturate at `u64::MAX`.
    pub fn aggregate(&self) -> Vec<SpanStats> {
        let mut by_name: std::collections::BTreeMap<&str, SpanStats> =
            std::collections::BTreeMap::new();
        for (idx, node) in self.nodes.iter().enumerate() {
            let stats = by_name.entry(&node.name).or_insert_with(|| SpanStats {
                name: node.name.clone(),
                count: 0,
                total_us: 0,
                self_us: 0,
            });
            stats.count += 1;
            stats.total_us = stats.total_us.saturating_add(node.elapsed_us);
            stats.self_us = stats.self_us.saturating_add(self.self_us(idx));
        }
        by_name.into_values().collect()
    }

    /// The `;`-joined name path from the root down to `idx` — the
    /// collapsed-stack identity used by the flamegraph exporter.
    pub fn path(&self, idx: usize) -> String {
        let mut names = Vec::new();
        let mut cur = Some(idx);
        while let Some(i) = cur {
            names.push(self.nodes[i].name.as_str());
            cur = self.nodes[i].parent;
        }
        names.reverse();
        names.join(";")
    }
}

/// Extracts the provenance ledger from an event sequence, in emit order.
pub fn provenance_records(events: &[Event]) -> Vec<&ProvenanceRecord> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Provenance { record, .. } => Some(record),
            _ => None,
        })
        .collect()
}

/// Reconstructs the causal chain for one candidate from the provenance
/// ledger, ordered root (first incumbent) → target.
///
/// `target` is a design point, or `None` for "best" — the last record
/// flagged `new_best`, i.e. the final incumbent of the run. Each hop
/// follows the record's `parent` incumbent back to the latest earlier
/// record for that point; the chain ends at a record with no parent
/// (a phase-start evaluation) or when the parent never appears earlier
/// in the ledger (a truncated trace).
///
/// # Errors
///
/// Returns a message when the ledger is empty, has no accepted
/// incumbent (for `best`), or never mentions the requested point.
pub fn why_chain<'a>(
    records: &[&'a ProvenanceRecord],
    target: Option<&[usize]>,
) -> Result<Vec<&'a ProvenanceRecord>, String> {
    if records.is_empty() {
        return Err("trace contains no provenance records (pre-forensics trace?)".to_string());
    }
    let mut idx = match target {
        None => records
            .iter()
            .rposition(|r| r.new_best)
            .ok_or_else(|| "trace records no accepted incumbent".to_string())?,
        Some(point) => records
            .iter()
            .rposition(|r| r.point == point)
            .ok_or_else(|| format!("point {point:?} never appears in the provenance ledger"))?,
    };
    let mut chain = vec![records[idx]];
    while let Some(parent) = &records[idx].parent {
        let Some(pidx) = records[..idx].iter().rposition(|r| r.point == *parent) else {
            break;
        };
        chain.push(records[pidx]);
        idx = pidx;
    }
    chain.reverse();
    Ok(chain)
}

/// Renders a provenance chain as the paper's bottleneck narrative.
///
/// Deliberately timestamp-free: the output depends only on the search's
/// decisions, so two identical runs render byte-identical text.
pub fn render_why(chain: &[&ProvenanceRecord]) -> String {
    let mut out = String::new();
    for (step, rec) in chain.iter().enumerate() {
        let _ = writeln!(
            out,
            "[{step}] iteration {} ({})",
            rec.iteration, rec.technique
        );
        let _ = writeln!(out, "    point {:?}", rec.point);
        match &rec.parent {
            Some(p) => {
                let _ = writeln!(out, "    derived from incumbent {p:?}");
            }
            None => {
                let _ = writeln!(out, "    phase-start point (no parent incumbent)");
            }
        }
        if let Some(b) = &rec.bottleneck {
            match rec.scaling {
                Some(s) => {
                    let _ = writeln!(out, "    dominant bottleneck: {b} (scaling s = {s})");
                }
                None => {
                    let _ = writeln!(out, "    dominant bottleneck: {b}");
                }
            }
        }
        let _ = writeln!(out, "    action: {}", rec.action);
        let objective = if rec.objective.is_finite() {
            format!("{}", rec.objective)
        } else {
            "inf".to_string()
        };
        let feasible = if rec.feasible {
            "feasible"
        } else {
            "infeasible"
        };
        let mut outcome = format!(
            "    outcome: {} — objective {objective}, {feasible}",
            rec.outcome
        );
        if rec.new_best {
            outcome.push_str(", new incumbent");
        } else if rec.accepted {
            outcome.push_str(", accepted");
        }
        let _ = writeln!(out, "{outcome}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn enter(name: &str, t: u64, id: u64, parent: u64) -> Event {
        Event::SpanEnter {
            name: name.into(),
            t_us: t,
            id,
            parent,
        }
    }

    fn exit(name: &str, t: u64, id: u64, elapsed: u64) -> Event {
        Event::SpanExit {
            name: name.into(),
            t_us: t,
            id,
            elapsed_us: elapsed,
        }
    }

    #[test]
    fn builds_tree_and_attributes_self_time() {
        let events = vec![
            enter("dse/run", 0, 1, 0),
            enter("eval/batch", 10, 2, 1),
            exit("eval/batch", 40, 2, 30),
            enter("eval/batch", 50, 3, 1),
            exit("eval/batch", 70, 3, 20),
            exit("dse/run", 100, 1, 100),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots, vec![0]);
        assert_eq!(tree.nodes[0].children, vec![1, 2]);
        assert_eq!(tree.self_us(0), 50);
        let agg = tree.aggregate();
        assert_eq!(
            agg,
            vec![
                SpanStats {
                    name: "dse/run".into(),
                    count: 1,
                    total_us: 100,
                    self_us: 50,
                },
                SpanStats {
                    name: "eval/batch".into(),
                    count: 2,
                    total_us: 50,
                    self_us: 50,
                },
            ]
        );
        assert_eq!(tree.path(1), "dse/run;eval/batch");
    }

    #[test]
    fn v1_spans_nest_positionally() {
        let events = vec![
            enter("dse/run", 0, 0, 0),
            enter("mapper", 5, 0, 0),
            exit("mapper", 10, 0, 5),
            exit("dse/run", 20, 0, 20),
        ];
        let tree = SpanTree::build(&events);
        assert_eq!(tree.roots, vec![0]);
        assert_eq!(tree.nodes[1].parent, Some(0));
        assert!(tree.nodes[1].closed);
    }

    #[test]
    fn a_span_naming_itself_as_parent_is_a_root() {
        // Once became its own parent, so `path` on its child never ended.
        let events: Vec<Event> = [
            r#"{"ev":"span_enter","t_us":0,"name":"a","id":5,"parent":5}"#,
            r#"{"ev":"span_enter","t_us":1,"name":"b","id":6,"parent":5}"#,
            r#"{"ev":"span_exit","t_us":2,"name":"b","id":6,"elapsed_us":1}"#,
        ]
        .iter()
        .map(|line| Event::parse_json_line(line).unwrap())
        .collect();
        let tree = SpanTree::build(&events);
        for (idx, node) in tree.nodes.iter().enumerate() {
            assert!(node.parent.is_none_or(|p| p < idx), "node {idx}: {node:?}");
        }
        assert_eq!(tree.roots, vec![0]);
        assert_eq!(crate::export::flamegraph(&events), "a;b 1\n");
    }

    #[test]
    fn unclosed_spans_survive_with_zero_elapsed() {
        let events = vec![enter("dse/run", 0, 1, 0), enter("eval/batch", 5, 2, 1)];
        let tree = SpanTree::build(&events);
        assert!(!tree.nodes[0].closed);
        assert_eq!(tree.self_us(0), 0);
    }

    fn rec(
        iteration: u64,
        point: Vec<usize>,
        parent: Option<Vec<usize>>,
        new_best: bool,
    ) -> ProvenanceRecord {
        ProvenanceRecord {
            technique: "explainable".into(),
            iteration,
            point,
            parent,
            action: "move".into(),
            outcome: "evaluated".into(),
            objective: 10.0 - iteration as f64,
            feasible: true,
            accepted: new_best,
            new_best,
            ..ProvenanceRecord::default()
        }
    }

    #[test]
    fn why_chain_walks_parents_to_the_root() {
        let records = [
            rec(0, vec![0, 0], None, true),
            rec(1, vec![1, 0], Some(vec![0, 0]), true),
            rec(1, vec![0, 1], Some(vec![0, 0]), false),
            rec(2, vec![1, 1], Some(vec![1, 0]), true),
        ];
        let refs: Vec<&ProvenanceRecord> = records.iter().collect();
        let chain = why_chain(&refs, None).unwrap();
        let points: Vec<&Vec<usize>> = chain.iter().map(|r| &r.point).collect();
        assert_eq!(points, vec![&vec![0, 0], &vec![1, 0], &vec![1, 1]]);
        // Explicit target resolves the same way.
        let chain2 = why_chain(&refs, Some(&[0, 1])).unwrap();
        assert_eq!(chain2.len(), 2);
        assert!(why_chain(&refs, Some(&[9, 9])).is_err());
        assert!(why_chain(&[], None).is_err());
    }

    #[test]
    fn render_why_is_timestamp_free_and_complete() {
        let records = vec![
            rec(0, vec![0, 0], None, true),
            rec(3, vec![2, 0], Some(vec![0, 0]), true),
        ];
        let mut target = rec(5, vec![2, 1], Some(vec![2, 0]), true);
        target.bottleneck = Some("dram_accesses".into());
        target.scaling = Some(2.0);
        let records = {
            let mut r = records;
            r.push(target);
            r
        };
        let refs: Vec<&ProvenanceRecord> = records.iter().collect();
        let text = render_why(&why_chain(&refs, None).unwrap());
        assert!(text.contains("phase-start point"));
        assert!(text.contains("dominant bottleneck: dram_accesses (scaling s = 2)"));
        assert!(text.contains("new incumbent"));
        assert!(!text.contains("t_us"));
    }
}
