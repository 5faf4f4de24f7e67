//! In-memory span recorder and the decorators that time calls into the
//! evaluator and mapper layers from outside.
//!
//! Spans are appended to one process-wide buffer and read back once, after
//! the timed phase. Spans opened on the search thread take the innermost
//! open span of that thread as parent. Mapper calls run on executor
//! workers too, so a mapper span takes the evaluator call in flight as its
//! parent: the library workloads issue evaluator calls from one thread at
//! a time, so at most one is in flight.

use accel_model::{AcceleratorConfig, ExecutionProfile};
use edse_core::cost::Evaluation;
use edse_core::evaluate::{CacheSnapshot, CacheStats, Evaluator};
use edse_core::space::{DesignPoint, DesignSpace};
use edse_core::{Constraint, EvalFault};
use mapper::{MappedLayer, MappingOptimizer};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use workloads::LayerShape;

type Pair = (LayerShape, AcceleratorConfig);

/// Which layer boundary a span sits at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One whole search (the root of its tree).
    Search,
    /// One `SearchDriver::step` call.
    Step,
    /// One `BaselineSession::run` call.
    BaselineRun,
    /// One call into the evaluator.
    Evaluate,
    /// One call into the mapper (`optimize`, `optimize_threaded`, `diagnose`).
    Mapper,
}

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub kind: Kind,
    pub id: u64,
    pub parent: u64,
    pub search: u64,
    pub start: u64,
    pub end: u64,
    /// Kind-specific payload: points requested for `Evaluate`, the distinct
    /// layer-shape index for `Mapper`.
    pub tag: u64,
    /// `Mapper` only: whether the call returned a feasible mapping.
    pub ok: bool,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    next_id: AtomicU64,
    /// The evaluator call in flight, parent of mapper spans (0 = none).
    current_eval: AtomicU64,
    current_search: AtomicU64,
    /// Distinct layer shapes seen by the mapper decorator, by first sight.
    shapes: Mutex<HashMap<LayerShape, u64>>,
    /// Distinct `(layer, config)` pairs the mapper was asked to optimize,
    /// in first-sight order (the replay input).
    pairs: Mutex<(HashSet<Pair>, Vec<Pair>)>,
    diagnose_calls: AtomicU64,
}

fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        next_id: AtomicU64::new(1),
        current_eval: AtomicU64::new(0),
        current_search: AtomicU64::new(0),
        shapes: Mutex::new(HashMap::new()),
        pairs: Mutex::new(Default::default()),
        diagnose_calls: AtomicU64::new(0),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    recorder().epoch.elapsed().as_nanos() as u64
}

/// Runs `f` inside a span of `kind` on the calling thread.
pub fn span<T>(kind: Kind, tag: u64, f: impl FnOnce() -> T) -> T {
    let rec = recorder();
    let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| open.borrow().last().copied().unwrap_or(0));
    if kind == Kind::Search {
        rec.current_search.store(id, Ordering::Relaxed);
    }
    let previous_eval = if kind == Kind::Evaluate {
        rec.current_eval.swap(id, Ordering::Relaxed)
    } else {
        0
    };
    OPEN.with(|open| open.borrow_mut().push(id));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    OPEN.with(|open| open.borrow_mut().pop());
    if kind == Kind::Evaluate {
        rec.current_eval.store(previous_eval, Ordering::Relaxed);
    }
    push(Span {
        kind,
        id,
        parent,
        search: rec.current_search.load(Ordering::Relaxed),
        start,
        end,
        tag,
        ok: true,
    });
    out
}

fn push(span: Span) {
    recorder()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .push(span);
}

/// Every span recorded so far, in closing order.
pub fn spans() -> Vec<Span> {
    recorder()
        .spans
        .lock()
        .expect("span buffer poisoned")
        .clone()
}

/// Distinct layer shapes by the index mapper spans carry in `tag`.
pub fn shapes() -> Vec<LayerShape> {
    let map = recorder().shapes.lock().expect("shape table poisoned");
    let mut out = vec![None; map.len()];
    for (shape, &i) in map.iter() {
        out[i as usize] = Some(*shape);
    }
    out.into_iter().map(|s| s.expect("dense indices")).collect()
}

/// Distinct `(layer, config)` pairs the mapper was asked to optimize.
pub fn pairs() -> Vec<Pair> {
    recorder()
        .pairs
        .lock()
        .expect("pair table poisoned")
        .1
        .clone()
}

/// Calls to [`MappingOptimizer::diagnose`] (one scalar relaxed execute each).
pub fn diagnose_calls() -> u64 {
    recorder().diagnose_calls.load(Ordering::Relaxed)
}

/// Decorates a mapper: every call becomes a `Mapper` span whose parent is
/// the evaluator call in flight.
pub struct TracedMapper<M> {
    inner: M,
    /// Keep the distinct `(layer, config)` pairs for the replay (off for
    /// the fixed dataflow, whose pairs number in the hundreds of thousands
    /// and which builds no space to replay).
    record_pairs: bool,
}

impl<M: MappingOptimizer> TracedMapper<M> {
    pub fn new(inner: M, record_pairs: bool) -> Self {
        TracedMapper {
            inner,
            record_pairs,
        }
    }

    fn timed<T>(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        run: impl FnOnce() -> Option<T>,
    ) -> Option<T> {
        let rec = recorder();
        let tag = {
            let mut shapes = rec.shapes.lock().expect("shape table poisoned");
            let next = shapes.len() as u64;
            *shapes.entry(*layer).or_insert(next)
        };
        if self.record_pairs {
            let mut pairs = rec.pairs.lock().expect("pair table poisoned");
            if pairs.0.insert((*layer, *cfg)) {
                pairs.1.push((*layer, *cfg));
            }
        }
        let id = rec.next_id.fetch_add(1, Ordering::Relaxed);
        let start = now_ns();
        let out = run();
        let end = now_ns();
        push(Span {
            kind: Kind::Mapper,
            id,
            parent: rec.current_eval.load(Ordering::Relaxed),
            search: rec.current_search.load(Ordering::Relaxed),
            start,
            end,
            tag,
            ok: out.is_some(),
        });
        out
    }
}

impl<M: MappingOptimizer> MappingOptimizer for TracedMapper<M> {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.timed(layer, cfg, || self.inner.optimize(layer, cfg))
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        self.timed(layer, cfg, || {
            self.inner.optimize_threaded(layer, cfg, threads)
        })
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        recorder().diagnose_calls.fetch_add(1, Ordering::Relaxed);
        self.timed(layer, cfg, || self.inner.diagnose(layer, cfg))
    }
}

/// Decorates an evaluator: every evaluation call becomes an `Evaluate`
/// span tagged with the number of points requested. Bookkeeping methods
/// are forwarded untimed.
pub struct TracedEvaluator<E>(pub E);

impl<E: Evaluator> Evaluator for TracedEvaluator<E> {
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        span(Kind::Evaluate, 1, || self.0.evaluate(point))
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        span(Kind::Evaluate, points.len() as u64, || {
            self.0.evaluate_batch(points)
        })
    }

    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        span(Kind::Evaluate, 1, || self.0.try_evaluate(point))
    }

    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        span(Kind::Evaluate, points.len() as u64, || {
            self.0.try_evaluate_batch(points)
        })
    }

    fn space(&self) -> &DesignSpace {
        self.0.space()
    }

    fn constraints(&self) -> &[Constraint] {
        self.0.constraints()
    }

    fn unique_evaluations(&self) -> usize {
        self.0.unique_evaluations()
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        self.0.decode(point)
    }

    fn cache_snapshot(&self) -> CacheSnapshot {
        self.0.cache_snapshot()
    }

    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        self.0.restore_caches(snapshot)
    }

    fn cache_stats(&self) -> CacheStats {
        self.0.cache_stats()
    }
}
