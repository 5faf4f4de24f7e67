//! The telemetry event model and its JSONL encoding.
//!
//! Every event serializes to one single-line JSON object whose `"ev"`
//! member names the variant; [`Event::to_json_line`] and
//! [`Event::parse_json_line`] round-trip exactly, so a JSONL trace written
//! by one process can be replayed by another (see the `edse-trace`
//! binary in `crates/bench`).

use crate::json::{parse, Json};

/// Version tag of the JSONL trace schema, stamped as the first line of
/// every [`crate::JsonlSink`] trace via [`Event::Meta`] (the same
/// versioning discipline as the `edse-snapshot` checkpoint envelope).
/// v1 traces (flat spans, no provenance, no meta line) still parse: the
/// added members default when absent.
pub const TRACE_SCHEMA: &str = "edse-trace/v2";

/// Severity of a [`Event::Log`] message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Developer chatter; hidden by default everywhere.
    Debug,
    /// Progress messages; stderr shows them only when opted in.
    Info,
    /// Suspicious but recoverable conditions; shown by default.
    Warn,
    /// Failures; always shown.
    Error,
}

impl Level {
    fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }

    fn from_str(s: &str) -> Option<Level> {
        Some(match s {
            "debug" => Level::Debug,
            "info" => Level::Info,
            "warn" => Level::Warn,
            "error" => Level::Error,
            _ => return None,
        })
    }
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured record per DSE acquisition iteration — the paper's
/// explainability promise as machine-readable data. The explainable DSE
/// fills every field; baselines fill the black-box subset (no bottleneck)
/// so traces of different techniques stay comparable line for line.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IterationRecord {
    /// Technique name (`"explainable"`, `"random"`, ...).
    pub technique: String,
    /// 0-based iteration (acquisition attempt) index.
    pub iteration: u64,
    /// Incumbent objective after this iteration's update.
    pub incumbent_objective: f64,
    /// Best feasible objective seen so far, if any.
    pub best_objective: Option<f64>,
    /// Dominant bottleneck factor of the analyzed incumbent
    /// (explainable DSE only).
    pub bottleneck: Option<String>,
    /// Required scaling `s` for the dominant factor (explainable only).
    pub scaling: Option<f64>,
    /// Top-K analyzed sub-functions as `(layer, cost fraction)` pairs.
    pub layer_contributions: Vec<(String, f64)>,
    /// Candidates proposed by acquisition before dedup.
    pub proposed: u64,
    /// Candidates dropped because they were already explored.
    pub deduped: u64,
    /// Candidates actually evaluated this iteration.
    pub evaluated: u64,
    /// Unique-evaluation budget remaining after this iteration.
    pub budget_remaining: u64,
    /// The update rule's decision, verbatim.
    pub decision: String,
}

/// One `evaluate_batch` fan-out: how many items each worker thread pulled.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BatchRecord {
    /// Which engine phase this batch belongs to (`"engine/mapping"` for
    /// the deduplicated layer-mapping tasks, `"engine/points"` for the
    /// per-point cost assembly, `"engine/serial"` for a one-thread engine).
    pub stage: String,
    /// Number of work items in the batch.
    pub items: u64,
    /// Worker threads the engine resolved to.
    pub threads: u64,
    /// Items processed per worker, length `min(threads, items)`.
    pub per_thread: Vec<u64>,
}

impl BatchRecord {
    /// Mean per-thread utilization relative to a perfectly balanced
    /// fan-out: 1.0 when every worker processed `items / threads`.
    pub fn balance(&self) -> f64 {
        let max = self.per_thread.iter().copied().max().unwrap_or(0);
        if max == 0 {
            return 1.0;
        }
        let mean = self.items as f64 / self.per_thread.len().max(1) as f64;
        mean / max as f64
    }

    /// Engine workers that contributed nothing to this batch: threads that
    /// pulled zero items plus threads the engine never spawned because the
    /// batch had fewer items than workers. Zero means every resolved
    /// thread did useful work.
    pub fn idle_workers(&self) -> u64 {
        let starved = self.per_thread.iter().filter(|&&n| n == 0).count() as u64;
        let unspawned = self.threads.saturating_sub(self.per_thread.len() as u64);
        starved + unspawned
    }
}

/// One causal record per candidate the explainable DSE touched: which
/// incumbent proposed it, which bottleneck/scaling motivated the move,
/// what the move was, and how the candidate fared — the provenance
/// ledger. The `why` chain of the final design is walked through the
/// `parent` links (see `crate::trace::why_chain`). Every field is
/// deterministic (no wall-clock), so renderings of the ledger are
/// byte-comparable across identical runs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProvenanceRecord {
    /// Technique name (`"explainable"`).
    pub technique: String,
    /// 0-based acquisition-attempt index the candidate belongs to.
    pub iteration: u64,
    /// The candidate design point (one value index per parameter).
    pub point: Vec<usize>,
    /// The incumbent the candidate was derived from; `None` for the very
    /// first point of a search.
    pub parent: Option<Vec<usize>>,
    /// Dominant bottleneck factor that motivated the proposal.
    pub bottleneck: Option<String>,
    /// Required scaling `s` of the dominant factor.
    pub scaling: Option<f64>,
    /// Human-readable description of the move (`"pes: 2 -> 8"`,
    /// `"initial point"`, ...).
    pub action: String,
    /// What happened to the candidate: `"evaluated"`, `"deduped"`,
    /// `"failed"`, or `"skipped"` (budget ran out before evaluation).
    pub outcome: String,
    /// Evaluated objective; infinity when unknown or infeasible.
    pub objective: f64,
    /// Whether the candidate met every constraint.
    pub feasible: bool,
    /// Whether the §4.6 update made this candidate the new incumbent.
    pub accepted: bool,
    /// Whether this candidate became the best feasible design so far.
    pub new_best: bool,
}

/// Aggregated distribution summary for one histogram.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HistogramSummary {
    /// Histogram name (`"stage/mapper_us"`, ...).
    pub name: String,
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Sparse power-of-two buckets as `(exponent, count)` pairs,
    /// exponent-sorted: bucket `e` counts observations in
    /// `[2^e, 2^(e+1))`; exponent -65 collects non-positive values.
    /// Empty for histograms parsed from v1 traces.
    pub buckets: Vec<(i32, u64)>,
}

/// Bucket exponent for one observation (see
/// [`HistogramSummary::buckets`]).
pub(crate) fn bucket_exp(value: f64) -> i32 {
    if value > 0.0 {
        if value.is_infinite() {
            63
        } else {
            (value.log2().floor() as i64).clamp(-64, 63) as i32
        }
    } else {
        // Zero, negative, NaN: below every positive bucket.
        -65
    }
}

impl HistogramSummary {
    /// Mean observation, or 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimated `q`-quantile (`0.0 ..= 1.0`) of the observed
    /// distribution, from the power-of-two buckets: the estimate is the
    /// midpoint of the bucket holding the target rank, clamped to
    /// `[min, max]`, so it is exact for empty (0), single-sample
    /// (the sample), and constant distributions, and within a factor of 2
    /// otherwise. Without buckets (v1 traces) the estimate degrades to
    /// linear interpolation between `min` and `max`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if q <= 0.0 {
            return self.min;
        }
        if q >= 1.0 {
            return self.max;
        }
        if self.buckets.is_empty() {
            return self.min + q * (self.max - self.min);
        }
        // 1-based rank of the target observation.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for &(exp, n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                let mid = if exp <= -65 {
                    0.0
                } else {
                    // Midpoint of [2^exp, 2^(exp+1)).
                    1.5 * (exp as f64).exp2()
                };
                return mid.clamp(self.min, self.max);
            }
        }
        self.max
    }
}

/// A telemetry event. `t_us` fields are microseconds since the collector
/// was created (monotonic), giving every JSONL line a relative timestamp.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Trace header: the schema version of every following line. Written
    /// first by [`crate::JsonlSink`]; absent from v1 traces.
    Meta {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// Schema tag, e.g. [`TRACE_SCHEMA`].
        schema: String,
    },
    /// A span began.
    SpanEnter {
        /// Span name.
        name: String,
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// Process-unique span id (0 in v1 traces).
        id: u64,
        /// Id of the enclosing span on the same thread; 0 for roots.
        parent: u64,
    },
    /// A span ended.
    SpanExit {
        /// Span name.
        name: String,
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// Id matching the span's [`Event::SpanEnter`] (0 in v1 traces).
        id: u64,
        /// Wall-clock duration of the span, µs.
        elapsed_us: u64,
    },
    /// One candidate's causal record in the provenance ledger.
    Provenance {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// The record.
        record: ProvenanceRecord,
    },
    /// Aggregated counter deltas since the previous snapshot.
    Counters {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// `(name, delta)` pairs, name-sorted.
        deltas: Vec<(String, u64)>,
    },
    /// Histogram summaries at snapshot time (cumulative).
    Histograms {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// Summaries, name-sorted.
        summaries: Vec<HistogramSummary>,
    },
    /// One DSE iteration.
    Iteration {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// The record.
        record: IterationRecord,
    },
    /// One batch fan-out.
    Batch {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// The record.
        record: BatchRecord,
    },
    /// A log message.
    Log {
        /// Timestamp, µs since collector creation.
        t_us: u64,
        /// Severity.
        level: Level,
        /// Message text.
        message: String,
    },
}

impl Event {
    /// The event's timestamp (µs since collector creation).
    pub fn t_us(&self) -> u64 {
        match self {
            Event::Meta { t_us, .. }
            | Event::SpanEnter { t_us, .. }
            | Event::SpanExit { t_us, .. }
            | Event::Provenance { t_us, .. }
            | Event::Counters { t_us, .. }
            | Event::Histograms { t_us, .. }
            | Event::Iteration { t_us, .. }
            | Event::Batch { t_us, .. }
            | Event::Log { t_us, .. } => *t_us,
        }
    }

    /// Serializes the event as one line of JSON (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let n = |v: u64| Json::Num(v as f64);
        let f = |v: f64| Json::Num(v);
        let s = |v: &str| Json::Str(v.to_string());
        let opt_f = |v: Option<f64>| v.map(Json::Num).unwrap_or(Json::Null);
        let json = match self {
            Event::Meta { t_us, schema } => Json::obj(vec![
                ("ev", s("meta")),
                ("t_us", n(*t_us)),
                ("schema", s(schema)),
            ]),
            Event::SpanEnter {
                name,
                t_us,
                id,
                parent,
            } => Json::obj(vec![
                ("ev", s("span_enter")),
                ("t_us", n(*t_us)),
                ("name", s(name)),
                ("id", n(*id)),
                ("parent", n(*parent)),
            ]),
            Event::SpanExit {
                name,
                t_us,
                id,
                elapsed_us,
            } => Json::obj(vec![
                ("ev", s("span_exit")),
                ("t_us", n(*t_us)),
                ("name", s(name)),
                ("id", n(*id)),
                ("elapsed_us", n(*elapsed_us)),
            ]),
            Event::Provenance { t_us, record: r } => {
                let point = |p: &[usize]| Json::Arr(p.iter().map(|&i| n(i as u64)).collect());
                Json::obj(vec![
                    ("ev", s("provenance")),
                    ("t_us", n(*t_us)),
                    ("technique", s(&r.technique)),
                    ("iteration", n(r.iteration)),
                    ("point", point(&r.point)),
                    (
                        "parent",
                        r.parent.as_deref().map(point).unwrap_or(Json::Null),
                    ),
                    (
                        "bottleneck",
                        r.bottleneck
                            .as_ref()
                            .map(|b| Json::Str(b.clone()))
                            .unwrap_or(Json::Null),
                    ),
                    ("scaling", opt_f(r.scaling)),
                    ("action", s(&r.action)),
                    ("outcome", s(&r.outcome)),
                    ("objective", f(r.objective)),
                    ("feasible", Json::Bool(r.feasible)),
                    ("accepted", Json::Bool(r.accepted)),
                    ("new_best", Json::Bool(r.new_best)),
                ])
            }
            Event::Counters { t_us, deltas } => Json::obj(vec![
                ("ev", s("counters")),
                ("t_us", n(*t_us)),
                (
                    "deltas",
                    Json::Obj(deltas.iter().map(|(k, v)| (k.clone(), n(*v))).collect()),
                ),
            ]),
            Event::Histograms { t_us, summaries } => Json::obj(vec![
                ("ev", s("histograms")),
                ("t_us", n(*t_us)),
                (
                    "summaries",
                    Json::Arr(
                        summaries
                            .iter()
                            .map(|h| {
                                Json::obj(vec![
                                    ("name", s(&h.name)),
                                    ("count", n(h.count)),
                                    ("sum", f(h.sum)),
                                    ("min", f(h.min)),
                                    ("max", f(h.max)),
                                    (
                                        "buckets",
                                        Json::Arr(
                                            h.buckets
                                                .iter()
                                                .map(|&(exp, c)| {
                                                    Json::Arr(vec![Json::Num(exp as f64), n(c)])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ]),
            Event::Iteration { t_us, record: r } => Json::obj(vec![
                ("ev", s("iteration")),
                ("t_us", n(*t_us)),
                ("technique", s(&r.technique)),
                ("iteration", n(r.iteration)),
                ("incumbent_objective", f(r.incumbent_objective)),
                ("best_objective", opt_f(r.best_objective)),
                (
                    "bottleneck",
                    r.bottleneck
                        .as_ref()
                        .map(|b| Json::Str(b.clone()))
                        .unwrap_or(Json::Null),
                ),
                ("scaling", opt_f(r.scaling)),
                (
                    "layer_contributions",
                    Json::Arr(
                        r.layer_contributions
                            .iter()
                            .map(|(name, c)| Json::Arr(vec![s(name), f(*c)]))
                            .collect(),
                    ),
                ),
                ("proposed", n(r.proposed)),
                ("deduped", n(r.deduped)),
                ("evaluated", n(r.evaluated)),
                ("budget_remaining", n(r.budget_remaining)),
                ("decision", s(&r.decision)),
            ]),
            Event::Batch { t_us, record: r } => Json::obj(vec![
                ("ev", s("batch")),
                ("t_us", n(*t_us)),
                ("stage", s(&r.stage)),
                ("items", n(r.items)),
                ("threads", n(r.threads)),
                (
                    "per_thread",
                    Json::Arr(r.per_thread.iter().map(|v| n(*v)).collect()),
                ),
            ]),
            Event::Log {
                t_us,
                level,
                message,
            } => Json::obj(vec![
                ("ev", s("log")),
                ("t_us", n(*t_us)),
                ("level", s(level.as_str())),
                ("message", s(message)),
            ]),
        };
        json.to_line()
    }

    /// Parses one JSONL line back into an event.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed construct.
    pub fn parse_json_line(line: &str) -> Result<Event, String> {
        let v = parse(line)?;
        let t_us = v
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or("missing `t_us`")?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or(format!("missing string `{key}`"))
        };
        let num_field = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("missing number `{key}`"))
        };
        let opt_num = |key: &str| v.get(key).and_then(Json::as_f64);
        // Span ids/parents default to 0 so v1 traces keep parsing.
        let num_or_zero = |key: &str| v.get(key).and_then(Json::as_u64).unwrap_or(0);
        let point_field = |key: &str| -> Option<Vec<usize>> {
            Some(
                v.get(key)?
                    .as_arr()?
                    .iter()
                    .filter_map(|i| i.as_u64().map(|u| u as usize))
                    .collect(),
            )
        };
        match v.get("ev").and_then(Json::as_str) {
            Some("meta") => Ok(Event::Meta {
                t_us,
                schema: str_field("schema")?,
            }),
            Some("span_enter") => Ok(Event::SpanEnter {
                name: str_field("name")?,
                t_us,
                id: num_or_zero("id"),
                parent: num_or_zero("parent"),
            }),
            Some("span_exit") => Ok(Event::SpanExit {
                name: str_field("name")?,
                t_us,
                id: num_or_zero("id"),
                elapsed_us: num_field("elapsed_us")?,
            }),
            Some("provenance") => Ok(Event::Provenance {
                t_us,
                record: ProvenanceRecord {
                    technique: str_field("technique")?,
                    iteration: num_field("iteration")?,
                    point: point_field("point").ok_or("missing `point` array")?,
                    parent: point_field("parent"),
                    bottleneck: v
                        .get("bottleneck")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    scaling: opt_num("scaling"),
                    action: str_field("action")?,
                    outcome: str_field("outcome")?,
                    objective: opt_num("objective").unwrap_or(f64::INFINITY),
                    feasible: v.get("feasible").and_then(Json::as_bool).unwrap_or(false),
                    accepted: v.get("accepted").and_then(Json::as_bool).unwrap_or(false),
                    new_best: v.get("new_best").and_then(Json::as_bool).unwrap_or(false),
                },
            }),
            Some("counters") => {
                let deltas = match v.get("deltas") {
                    Some(Json::Obj(entries)) => entries
                        .iter()
                        .map(|(k, val)| {
                            val.as_u64()
                                .map(|u| (k.clone(), u))
                                .ok_or(format!("non-numeric counter `{k}`"))
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    _ => return Err("missing `deltas` object".into()),
                };
                Ok(Event::Counters { t_us, deltas })
            }
            Some("histograms") => {
                let summaries = v
                    .get("summaries")
                    .and_then(Json::as_arr)
                    .ok_or("missing `summaries`")?
                    .iter()
                    .map(|h| {
                        Ok(HistogramSummary {
                            name: h
                                .get("name")
                                .and_then(Json::as_str)
                                .ok_or("histogram missing name")?
                                .to_string(),
                            count: h.get("count").and_then(Json::as_u64).unwrap_or(0),
                            sum: h.get("sum").and_then(Json::as_f64).unwrap_or(0.0),
                            min: h.get("min").and_then(Json::as_f64).unwrap_or(0.0),
                            max: h.get("max").and_then(Json::as_f64).unwrap_or(0.0),
                            // Absent in v1 traces; quantiles then degrade
                            // to min/max interpolation.
                            buckets: h
                                .get("buckets")
                                .and_then(Json::as_arr)
                                .unwrap_or(&[])
                                .iter()
                                .filter_map(|pair| {
                                    let items = pair.as_arr()?;
                                    Some((items.first()?.as_f64()? as i32, items.get(1)?.as_u64()?))
                                })
                                .collect(),
                        })
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Event::Histograms { t_us, summaries })
            }
            Some("iteration") => {
                let layer_contributions = v
                    .get("layer_contributions")
                    .and_then(Json::as_arr)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(|pair| {
                        let items = pair.as_arr()?;
                        Some((
                            items.first()?.as_str()?.to_string(),
                            items.get(1)?.as_f64()?,
                        ))
                    })
                    .collect();
                Ok(Event::Iteration {
                    t_us,
                    record: IterationRecord {
                        technique: str_field("technique")?,
                        iteration: num_field("iteration")?,
                        incumbent_objective: opt_num("incumbent_objective")
                            .unwrap_or(f64::INFINITY),
                        best_objective: opt_num("best_objective"),
                        bottleneck: v
                            .get("bottleneck")
                            .and_then(Json::as_str)
                            .map(str::to_string),
                        scaling: opt_num("scaling"),
                        layer_contributions,
                        proposed: num_field("proposed")?,
                        deduped: num_field("deduped")?,
                        evaluated: num_field("evaluated")?,
                        budget_remaining: num_field("budget_remaining")?,
                        decision: str_field("decision")?,
                    },
                })
            }
            Some("batch") => Ok(Event::Batch {
                t_us,
                record: BatchRecord {
                    stage: str_field("stage")?,
                    items: num_field("items")?,
                    threads: num_field("threads")?,
                    per_thread: v
                        .get("per_thread")
                        .and_then(Json::as_arr)
                        .unwrap_or(&[])
                        .iter()
                        .filter_map(Json::as_u64)
                        .collect(),
                },
            }),
            Some("log") => Ok(Event::Log {
                t_us,
                level: Level::from_str(&str_field("level")?).ok_or("unknown log level")?,
                message: str_field("message")?,
            }),
            Some(other) => Err(format!("unknown event kind `{other}`")),
            None => Err("missing `ev` member".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<Event> {
        vec![
            Event::Meta {
                t_us: 0,
                schema: TRACE_SCHEMA.into(),
            },
            Event::SpanEnter {
                name: "dse/run".into(),
                t_us: 12,
                id: 3,
                parent: 1,
            },
            Event::SpanExit {
                name: "dse/run".into(),
                t_us: 90,
                id: 3,
                elapsed_us: 78,
            },
            Event::Provenance {
                t_us: 11,
                record: ProvenanceRecord {
                    technique: "explainable".into(),
                    iteration: 2,
                    point: vec![1, 0, 4],
                    parent: Some(vec![0, 0, 4]),
                    bottleneck: Some("t_dma:wt".into()),
                    scaling: Some(2.5),
                    action: "pes: 2 -> 8".into(),
                    outcome: "evaluated".into(),
                    objective: 12.75,
                    feasible: true,
                    accepted: true,
                    new_best: true,
                },
            },
            Event::Counters {
                t_us: 5,
                deltas: vec![("point_cache/shard03/miss".into(), 7)],
            },
            Event::Histograms {
                t_us: 6,
                summaries: vec![HistogramSummary {
                    name: "stage/mapper_us".into(),
                    count: 3,
                    sum: 12.5,
                    min: 1.0,
                    max: 9.25,
                    buckets: vec![(0, 1), (1, 1), (3, 1)],
                }],
            },
            Event::Iteration {
                t_us: 7,
                record: IterationRecord {
                    technique: "explainable".into(),
                    iteration: 4,
                    incumbent_objective: 12.75,
                    best_objective: Some(12.75),
                    bottleneck: Some("t_dma:wt".into()),
                    scaling: Some(2.5),
                    layer_contributions: vec![("conv1 \"x\"".into(), 0.5)],
                    proposed: 6,
                    deduped: 1,
                    evaluated: 5,
                    budget_remaining: 88,
                    decision: "moved to feasible candidate".into(),
                },
            },
            Event::Batch {
                t_us: 8,
                record: BatchRecord {
                    stage: "engine/points".into(),
                    items: 16,
                    threads: 4,
                    per_thread: vec![4, 4, 5, 3],
                },
            },
            Event::Log {
                t_us: 9,
                level: Level::Warn,
                message: "unknown model x\n(skipped)".into(),
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        for ev in examples() {
            let line = ev.to_json_line();
            assert!(!line.contains('\n'), "one line: {line}");
            let back = Event::parse_json_line(&line).expect(&line);
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn infinite_incumbent_objective_survives_as_infinity() {
        let ev = Event::Iteration {
            t_us: 0,
            record: IterationRecord {
                technique: "grid".into(),
                incumbent_objective: f64::INFINITY,
                decision: "seeded".into(),
                ..IterationRecord::default()
            },
        };
        // JSON cannot carry inf; it becomes null and parses back as inf.
        let back = Event::parse_json_line(&ev.to_json_line()).unwrap();
        match back {
            Event::Iteration { record, .. } => {
                assert!(record.incumbent_objective.is_infinite());
                assert_eq!(record.best_objective, None);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn batch_balance_is_one_when_even() {
        let even = BatchRecord {
            stage: "engine/points".into(),
            items: 8,
            threads: 4,
            per_thread: vec![2, 2, 2, 2],
        };
        assert!((even.balance() - 1.0).abs() < 1e-12);
        assert_eq!(even.idle_workers(), 0);
        let skewed = BatchRecord {
            per_thread: vec![8, 0],
            items: 8,
            threads: 2,
            stage: "engine/points".into(),
        };
        assert!(skewed.balance() < 0.6);
        // One spawned-but-starved worker.
        assert_eq!(skewed.idle_workers(), 1);
        // Two items over four threads: two workers never spawned.
        let small = BatchRecord {
            per_thread: vec![1, 1],
            items: 2,
            threads: 4,
            stage: "engine/mapping".into(),
        };
        assert_eq!(small.idle_workers(), 2);
    }

    #[test]
    fn malformed_lines_error() {
        assert!(Event::parse_json_line("not json").is_err());
        assert!(Event::parse_json_line("{\"ev\":\"nope\",\"t_us\":0}").is_err());
        assert!(Event::parse_json_line("{\"t_us\":0}").is_err());
    }

    #[test]
    fn v1_span_lines_parse_with_zero_ids() {
        // A pre-forensics trace line: no id/parent members.
        let enter = r#"{"ev":"span_enter","t_us":12,"name":"dse/run"}"#;
        match Event::parse_json_line(enter).unwrap() {
            Event::SpanEnter { id, parent, .. } => assert_eq!((id, parent), (0, 0)),
            other => panic!("wrong variant {other:?}"),
        }
        let exit = r#"{"ev":"span_exit","t_us":90,"name":"dse/run","elapsed_us":78}"#;
        match Event::parse_json_line(exit).unwrap() {
            Event::SpanExit { id, .. } => assert_eq!(id, 0),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn root_provenance_record_round_trips_null_parent() {
        let ev = Event::Provenance {
            t_us: 0,
            record: ProvenanceRecord {
                technique: "explainable".into(),
                point: vec![0, 0],
                parent: None,
                action: "initial point".into(),
                outcome: "evaluated".into(),
                objective: f64::INFINITY,
                ..ProvenanceRecord::default()
            },
        };
        let back = Event::parse_json_line(&ev.to_json_line()).unwrap();
        match back {
            Event::Provenance { record, .. } => {
                assert_eq!(record.parent, None);
                assert!(record.objective.is_infinite());
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn quantiles_on_empty_histogram_are_zero() {
        let h = HistogramSummary::default();
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 0.0, "q={q}");
        }
    }

    #[test]
    fn quantiles_on_single_sample_return_the_sample() {
        let h = HistogramSummary {
            name: "x".into(),
            count: 1,
            sum: 37.0,
            min: 37.0,
            max: 37.0,
            buckets: vec![(bucket_exp(37.0), 1)],
        };
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 37.0, "q={q}");
        }
    }

    #[test]
    fn quantiles_on_skewed_distribution_separate_head_and_tail() {
        // 50 fast observations (~1µs) and 50 slow ones (~900µs): the
        // median sits in the fast bucket, p95/p99 in the slow one. The
        // bucket estimate is exact to within its power-of-two width.
        let mut buckets = std::collections::BTreeMap::new();
        for _ in 0..50 {
            *buckets.entry(bucket_exp(1.0)).or_insert(0u64) += 1;
            *buckets.entry(bucket_exp(900.0)).or_insert(0u64) += 1;
        }
        let h = HistogramSummary {
            name: "stage/mapper_us".into(),
            count: 100,
            sum: 50.0 * 1.0 + 50.0 * 900.0,
            min: 1.0,
            max: 900.0,
            buckets: buckets.into_iter().collect(),
        };
        let p50 = h.quantile(0.5);
        assert!((1.0..2.0).contains(&p50), "p50 in the fast bucket: {p50}");
        for q in [0.95, 0.99] {
            let v = h.quantile(q);
            assert!(
                (512.0..=900.0).contains(&v),
                "q={q} must land in the slow bucket, got {v}"
            );
        }
        assert_eq!(h.quantile(1.0), 900.0);
    }

    #[test]
    fn quantiles_without_buckets_interpolate_min_max() {
        // v1 traces carry no buckets; the estimate degrades gracefully
        // instead of panicking or returning 0.
        let h = HistogramSummary {
            name: "x".into(),
            count: 10,
            sum: 100.0,
            min: 0.0,
            max: 20.0,
            buckets: vec![],
        };
        assert_eq!(h.quantile(0.5), 10.0);
        assert_eq!(h.quantile(0.0), 0.0);
        assert_eq!(h.quantile(1.0), 20.0);
    }

    #[test]
    fn bucket_exponents_cover_edge_values() {
        assert_eq!(bucket_exp(0.0), -65);
        assert_eq!(bucket_exp(-3.0), -65);
        assert_eq!(bucket_exp(f64::NAN), -65);
        assert_eq!(bucket_exp(1.0), 0);
        assert_eq!(bucket_exp(1.5), 0);
        assert_eq!(bucket_exp(2.0), 1);
        assert_eq!(bucket_exp(f64::INFINITY), 63);
        assert_eq!(bucket_exp(f64::MIN_POSITIVE), -64);
    }
}
