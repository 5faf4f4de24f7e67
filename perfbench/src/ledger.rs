//! The per-layer ledger of a traced library run: self-times along the
//! blocking path from the recorded spans, cache and pool counters from the
//! library's own accessors, and a replay of the mapper's distinct
//! `(layer, config)` pairs through the public space, sweep and kernel
//! calls, which splits mapper time into its three layers.

use crate::trace::{self, Kind, Span};
use accel_model::TilingBatch;
use edse_core::evaluate::CacheStats;
use edse_telemetry::json::Json;
use energy_area::Tech;
use mapper::sweep::{self, ALL_ORDERINGS};
use mapper::{MappingSpace, SpaceBudget, SweepConf};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;
use workloads::LayerShape;

pub struct Input {
    /// Wall-clock of the traced phase, timed outside the spans: the
    /// coverage base.
    pub wall_s: f64,
    /// Final cache statistics of every evaluator the phase used.
    pub caches: Vec<CacheStats>,
    /// Display names of the workload's layer shapes.
    pub shape_names: HashMap<LayerShape, String>,
    /// Top-N of the linear mapper to replay the recorded pairs with;
    /// `None` for the fixed dataflow, which builds no space.
    pub replay: Option<usize>,
    pub spans_out: Option<PathBuf>,
}

/// The percentiles a tail may be reported at.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// The highest ladder percentile with at least ten samples beyond it
/// (the median when even that has fewer), with its value.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len() as f64;
    let p = LADDER
        .iter()
        .copied()
        .rev()
        .find(|p| n * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0);
    (p, percentile(sorted, p))
}

/// Nearest-rank percentile of ascending samples (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Length of the union of `intervals` (ns), clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(cursor), end.min(hi));
        if end > start {
            total += end - start;
            cursor = end;
        }
    }
    total
}

struct Tree<'a> {
    spans: &'a [Span],
    children: HashMap<u64, Vec<usize>>,
}

impl<'a> Tree<'a> {
    fn new(spans: &'a [Span]) -> Self {
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            children.entry(s.parent).or_default().push(i);
        }
        Tree { spans, children }
    }

    fn of(&self, kind: Kind) -> impl Iterator<Item = &'a Span> + '_ {
        self.spans.iter().filter(move |s| s.kind == kind)
    }

    /// Time of `span` covered by its children of `kind`, in seconds.
    fn child_cover(&self, span: &Span, kind: Kind) -> f64 {
        let intervals = self
            .children
            .get(&span.id)
            .into_iter()
            .flatten()
            .map(|&i| &self.spans[i])
            .filter(|c| c.kind == kind)
            .map(|c| (c.start, c.end))
            .collect();
        covered(intervals, span.start, span.end) as f64 * 1e-9
    }

    /// Sum over spans of `kind` of their time not covered by children of
    /// `child`: the layer's self-time on the blocking path.
    fn self_time(&self, kind: Kind, child: Kind) -> f64 {
        self.of(kind)
            .map(|s| s.secs() - self.child_cover(s, child))
            .sum()
    }

    fn durations(&self, kind: Kind) -> Vec<f64> {
        let mut d: Vec<f64> = self.of(kind).map(Span::secs).collect();
        d.sort_by(f64::total_cmp);
        d
    }
}

struct Metrics {
    values: Vec<(String, Json)>,
    tails: Vec<(String, Json)>,
}

impl Metrics {
    fn put(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), Json::Num(value)));
    }

    /// `<prefix>_p50_s` and `<prefix>_tail_s` of ascending samples, with
    /// the tail's percentile and sample count noted.
    fn latency(&mut self, prefix: &str, sorted: &[f64]) {
        let (p, value) = tail(sorted);
        self.put(&format!("{prefix}_p50_s"), percentile(sorted, 50.0));
        self.put(&format!("{prefix}_tail_s"), value);
        self.tails.push((
            format!("{prefix}_tail_s"),
            Json::obj(vec![
                ("percentile", Json::Num(p)),
                ("samples", Json::Num(sorted.len() as f64)),
            ]),
        ));
    }
}

pub fn library(input: Input) -> Json {
    let spans = trace::spans();
    let memo = mapper::space_cache_stats();
    let pool = edse_executor::Executor::global().counters();
    let tree = Tree::new(&spans);
    let mut m = Metrics {
        values: Vec::new(),
        tails: Vec::new(),
    };

    let sum = |f: &dyn Fn(&CacheStats) -> u64| input.caches.iter().map(f).sum::<u64>() as f64;
    let unique = sum(&|c| c.unique_evaluations as u64);
    let lookups = sum(&|c| c.point.hits + c.point.misses + c.point.inflight_waits);
    m.put("session.steps", tree.of(Kind::Step).count() as f64);
    m.latency("session.step", &tree.durations(Kind::Step));
    m.put("session.lookups_per_eval", lookups / unique.max(1.0));

    // Step self-time is the analysis and acquisition around the batch.
    let dse_self = tree.self_time(Kind::Step, Kind::Evaluate);
    let explainable_s: f64 = tree
        .of(Kind::Search)
        .filter(|s| {
            tree.children
                .get(&s.id)
                .into_iter()
                .flatten()
                .any(|&i| spans[i].kind == Kind::Step)
        })
        .map(Span::secs)
        .sum();
    m.put("dse.self_s", dse_self);
    m.put("dse.share", dse_self / explainable_s.max(f64::MIN_POSITIVE));
    let baselines_self = tree.self_time(Kind::BaselineRun, Kind::Evaluate);
    m.put("baselines.self_s", baselines_self);

    let evaluate_calls = tree.of(Kind::Evaluate).count() as f64;
    let points: f64 = tree.of(Kind::Evaluate).map(|s| s.tag as f64).sum();
    m.put("evaluate.calls", evaluate_calls);
    m.put("evaluate.points", points);
    m.put("evaluate.s", tree.durations(Kind::Evaluate).iter().sum());
    m.latency("evaluate.call", &tree.durations(Kind::Evaluate));
    m.put("evaluate.point_hits", sum(&|c| c.point.hits));
    m.put("evaluate.point_misses", sum(&|c| c.point.misses));
    m.put("evaluate.layer_hits", sum(&|c| c.layer.hits));
    m.put("evaluate.layer_misses", sum(&|c| c.layer.misses));
    m.put(
        "evaluate.layer_inflight_waits",
        sum(&|c| c.layer.inflight_waits),
    );
    m.put("evaluate.useful_ratio", unique / points.max(1.0));
    let evaluate_self = tree.self_time(Kind::Evaluate, Kind::Mapper);
    let mapper_blocking: f64 = tree
        .of(Kind::Evaluate)
        .map(|s| tree.child_cover(s, Kind::Mapper))
        .sum();

    m.put(
        "edse-executor.budget",
        edse_executor::default_parallelism() as f64,
    );
    m.put("edse-executor.tasks", pool.tasks as f64);
    m.put("edse-executor.steals", pool.steals as f64);
    m.put("edse-executor.idle_s", pool.idle_ns as f64 * 1e-9);
    m.put("edse-executor.workers_spawned", pool.workers_spawned as f64);

    let mapper_durations = tree.durations(Kind::Mapper);
    let mapper_s: f64 = mapper_durations.iter().sum();
    let mapper_calls = mapper_durations.len() as f64;
    let feasible = tree.of(Kind::Mapper).filter(|s| s.ok).count() as f64;

    m.put("space.memo_hits", memo.hits as f64);
    m.put("space.memo_misses", memo.misses as f64);
    m.put("space.memo_evictions", memo.evictions as f64);
    let replay = input.replay.map(replay);
    m.put("space.build_s", replay.map_or(0.0, |r| r.build_s));
    m.put("space.tilings", replay.map_or(0.0, |r| r.tilings as f64));

    m.put("mapper.calls", mapper_calls);
    m.put("mapper.s", mapper_s);
    m.latency("mapper.call", &mapper_durations);
    m.put("mapper.feasible_ratio", feasible / mapper_calls.max(1.0));
    m.put("sweep.s", replay.map_or(0.0, |r| r.sweep_s));

    match replay {
        Some(r) => {
            m.put("accel-model.completions", r.completions as f64);
            m.put("accel-model.s", r.kernel_s);
            m.put("accel-model.execute_calls", trace::diagnose_calls() as f64);
        }
        None => {
            // The fixed dataflow's optimize() is one scalar execute (plus a
            // relaxed one per diagnose), so its calls are the kernel calls.
            m.put("accel-model.completions", 0.0);
            m.put("accel-model.s", mapper_s);
            m.put("accel-model.execute_calls", mapper_calls);
        }
    }

    let attributed = dse_self + baselines_self + evaluate_self + mapper_blocking;
    m.put("trace.coverage", attributed / input.wall_s);

    let mut per_shape: HashMap<u64, (f64, u64)> = HashMap::new();
    for s in tree.of(Kind::Mapper) {
        let entry = per_shape.entry(s.tag).or_default();
        entry.0 += s.secs();
        entry.1 += 1;
    }
    let shapes = trace::shapes();
    let mut per_shape: Vec<(u64, f64, u64)> =
        per_shape.into_iter().map(|(k, (t, n))| (k, t, n)).collect();
    per_shape.sort_by(|a, b| b.1.total_cmp(&a.1));
    let per_dnn_layer = Json::Arr(
        per_shape
            .iter()
            .filter_map(|&(tag, secs, calls)| {
                let name = input.shape_names.get(&shapes[tag as usize])?;
                Some(Json::obj(vec![
                    ("layer", Json::Str(name.clone())),
                    ("mapper_s", Json::Num(secs)),
                    ("share", Json::Num(secs / mapper_s.max(f64::MIN_POSITIVE))),
                    ("calls", Json::Num(calls as f64)),
                ]))
            })
            .collect(),
    );

    if let Some(path) = &input.spans_out {
        write_spans(path, &spans);
    }

    Json::obj(vec![
        ("metrics", Json::Obj(m.values)),
        ("tails", Json::Obj(m.tails)),
        (
            "blocking_path_s",
            Json::obj(vec![
                ("dse", Json::Num(dse_self)),
                ("baselines", Json::Num(baselines_self)),
                ("evaluate", Json::Num(evaluate_self)),
                ("mapper", Json::Num(mapper_blocking)),
                ("unattributed", Json::Num(input.wall_s - attributed)),
            ]),
        ),
        ("per_dnn_layer", per_dnn_layer),
    ])
}

#[derive(Clone, Copy)]
struct Replay {
    build_s: f64,
    tilings: usize,
    sweep_s: f64,
    kernel_s: f64,
    completions: usize,
}

/// Replays every distinct `(layer, config)` pair the traced mapper saw,
/// serially: a fresh `MappingSpace::build` (bypassing the shared memo), the
/// linear mapper's `sweep_best`, and the bare `TilingBatch` kernel over the
/// same tilings under all nine orderings.
fn replay(top_n: usize) -> Replay {
    let mut out = Replay {
        build_s: 0.0,
        tilings: 0,
        sweep_s: 0.0,
        kernel_s: 0.0,
        completions: 0,
    };
    let mut batch = TilingBatch::new();
    let tech = Tech::n45();
    for (layer, cfg) in trace::pairs() {
        let started = Instant::now();
        let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(top_n));
        out.build_s += started.elapsed().as_secs_f64();
        out.tilings += space.len();

        let started = Instant::now();
        black_box(sweep::sweep_best(
            &layer,
            &cfg,
            space.tilings(),
            &ALL_ORDERINGS,
            SweepConf::serial(),
        ));
        out.sweep_s += started.elapsed().as_secs_f64();

        let started = Instant::now();
        batch.prepare(&cfg, &layer, space.tilings(), &tech, false);
        for &(spm, dram) in &ALL_ORDERINGS {
            black_box(batch.complete_batch(spm, dram));
        }
        out.kernel_s += started.elapsed().as_secs_f64();
        out.completions += batch.len() * ALL_ORDERINGS.len();
    }
    out
}

fn write_spans(path: &PathBuf, spans: &[Span]) {
    let write = || -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans {
            let name = match s.kind {
                Kind::Search => "search",
                Kind::Step => "session.step",
                Kind::BaselineRun => "baselines.run",
                Kind::Evaluate => "evaluate.call",
                Kind::Mapper => "mapper.call",
            };
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"id\":{},\"parent\":{},\"search\":{},\"start_ns\":{},\"end_ns\":{},\"tag\":{}}}",
                s.id, s.parent, s.search, s.start, s.end, s.tag
            )?;
        }
        out.flush()
    };
    if let Err(e) = write() {
        eprintln!("perfbench: writing spans to {}: {e}", path.display());
    }
}
