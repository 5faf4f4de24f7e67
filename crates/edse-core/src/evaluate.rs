//! Codesign evaluators: turn a design point into costs by decoding the
//! hardware configuration, optimizing (or fixing) the mapping of every
//! unique layer, and applying the technology model.
//!
//! Evaluation is **shared-state free at the API level**: [`Evaluator`]
//! takes `&self`, and [`CodesignEvaluator`] keeps its caches behind
//! interior mutability (sharded mutex maps of [`OnceLock`] slots), so one
//! evaluator can serve an arbitrary number of threads concurrently. The
//! parallel entry point is [`Evaluator::try_evaluate_batch`]; its thread
//! count is controlled by [`EvalEngine`], and results are bit-for-bit
//! identical for every count (`threads = 1` runs the same batch path
//! inline).
//!
//! Evaluation is also **fault-bounded**: each per-layer mapping runs once
//! under a panic guard ([`fault::guard`]), so a misbehaving mapper
//! degrades a candidate into an [`EvalFault`] — surfaced through
//! [`Evaluator::try_evaluate`] / [`Evaluator::try_evaluate_batch`] —
//! instead of tearing down the search. The fault is cached like any other
//! layer result and never retried within a process.

use crate::cost::{Constraint, Evaluation, LayerEval};
use crate::diskcache::{self, DiskCache, DiskCacheStats, LayerOutcome};
use crate::fault::{self, EvalFault};
use crate::space::{decode_edge_point, DesignPoint, DesignSpace};
use accel_model::AcceleratorConfig;
use edse_telemetry::{BatchRecord, Collector, Level};
use energy_area::Tech;
use mapper::MappingOptimizer;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use workloads::{DnnModel, LayerShape};

/// What [`Evaluator::cache_snapshot`] returns: nothing. A checkpoint
/// holds no evaluator state, because a resume reads the layer outcomes of
/// the interrupted run from the disk tier by key (see
/// [`crate::SearchDriver::spec`]). The type and the two trait methods stay
/// only because the benchmark crate's `TracedEvaluator`
/// (`perfbench/src/trace.rs`) forwards them; nothing in the workspace
/// calls or overrides them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheSnapshot;

/// Traffic counters for one in-memory cache tier, as reported by
/// [`Evaluator::cache_stats`]. Counters are cumulative since the
/// evaluator was built: builder methods that invalidate a cache clear its
/// *entries*, never its traffic history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierStats {
    /// Completed entries currently resident.
    pub entries: usize,
    /// Accesses answered by an already-completed entry.
    pub hits: u64,
    /// Accesses that ran the computation.
    pub misses: u64,
    /// Accesses that blocked on another thread computing the same key
    /// (parallel batches only; `hits + inflight_waits` here equals plain
    /// `hits` of the equivalent serial run).
    pub inflight_waits: u64,
}

/// One uniform snapshot of every cache tier an evaluator maintains —
/// the consolidated replacement for reading `unique_evaluations()`,
/// per-shard telemetry counters, and disk-cache state separately.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheStats {
    /// Unique successful point evaluations (== [`Evaluator::unique_evaluations`]).
    pub unique_evaluations: usize,
    /// The point-evaluation memo table.
    pub point: TierStats,
    /// The `(layer, config)` mapping memo table.
    pub layer: TierStats,
    /// The persistent disk tier, when one is attached.
    pub disk: Option<DiskCacheStats>,
    /// Why the disk tier is absent when one was *requested* but could not
    /// be opened (e.g. an unwritable `--cache-dir`). `None` when the disk
    /// tier is attached or was never requested. Surfacing this here (and
    /// in the service's job status) keeps a degraded-to-cacheless run
    /// visible instead of a one-line startup warning.
    pub disk_error: Option<String>,
}

/// Evaluates design points to full [`Evaluation`]s. Implementations cache,
/// so repeated evaluation of a point is free and does not count as a new
/// cost-model invocation.
///
/// All methods take `&self`: an evaluator is safe to share. Implementations
/// with caches use interior mutability (see [`CodesignEvaluator`]).
///
/// [`Self::try_evaluate`] is the one required evaluation method; the
/// other three are provided. The infallible pair maps a fault to the
/// infeasible sentinel [`Evaluation::failed`] here and nowhere else.
pub trait Evaluator {
    /// Evaluates one point (cached): `Err` when a layer mapping failed at
    /// the fault boundary.
    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault>;

    /// Evaluates a batch of points, position-aligned with `points`.
    ///
    /// The default implementation is the serial loop; implementations may
    /// parallelize as long as results (including
    /// [`Self::unique_evaluations`] accounting) are identical to the
    /// serial path.
    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        points.iter().map(|p| self.try_evaluate(p)).collect()
    }

    /// [`Self::try_evaluate`] with a fault mapped to the infeasible
    /// sentinel [`Evaluation::failed`] (infinite objective and constraint
    /// values).
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        self.try_evaluate(point)
            .unwrap_or_else(|_| Evaluation::failed(self.constraints().len()))
    }

    /// [`Self::try_evaluate_batch`] with each fault mapped to the
    /// infeasible sentinel [`Evaluation::failed`].
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        self.try_evaluate_batch(points)
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| Evaluation::failed(self.constraints().len())))
            .collect()
    }

    /// The design space this evaluator understands.
    fn space(&self) -> &DesignSpace;

    /// The constraint list, aligned with `Evaluation::constraint_values`.
    fn constraints(&self) -> &[Constraint];

    /// Number of *unique* points evaluated so far (the iteration count
    /// reported by Fig. 10's triangles). Permanently failed evaluations do
    /// not count: they consumed no successful cost-model invocation.
    fn unique_evaluations(&self) -> usize;

    /// Decodes a point into the hardware configuration it describes.
    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig;

    /// Returns the empty [`CacheSnapshot`]. Kept as a no-op only for the
    /// benchmark crate's forwarding decorator (see [`CacheSnapshot`]);
    /// nothing in the workspace calls or overrides it.
    fn cache_snapshot(&self) -> CacheSnapshot {
        CacheSnapshot
    }

    /// Does nothing. Kept as a no-op only for the benchmark crate's
    /// forwarding decorator (see [`CacheSnapshot`]); nothing in the
    /// workspace calls or overrides it.
    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        let _ = snapshot;
    }

    /// One uniform snapshot of every cache tier this evaluator maintains.
    /// The default (for cacheless or decorator evaluators that have
    /// nothing further to report) carries only the unique-evaluation
    /// count.
    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            unique_evaluations: self.unique_evaluations(),
            ..CacheStats::default()
        }
    }
}

/// What the DSE minimizes (constraints are unaffected: latency ceilings,
/// area and power always apply).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Objective {
    /// Total single-stream latency across the target workloads (ms) — the
    /// paper's evaluation setting.
    #[default]
    Latency,
    /// Total inference energy across the target workloads (mJ) — pair with
    /// [`crate::bottleneck::dnn_energy_model`].
    Energy,
    /// Weighted sum `alpha_ms * latency + beta_mj * energy` — the §4.2
    /// multi-objective extension; pair with
    /// [`crate::bottleneck::dnn_weighted_model`] using the same weights.
    Weighted {
        /// Weight on latency (per millisecond).
        alpha_ms: f64,
        /// Weight on energy (per millijoule).
        beta_mj: f64,
    },
}

impl<T: Evaluator + ?Sized> Evaluator for &T {
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        (**self).evaluate(point)
    }

    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        (**self).evaluate_batch(points)
    }

    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        (**self).try_evaluate(point)
    }

    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        (**self).try_evaluate_batch(points)
    }

    fn space(&self) -> &DesignSpace {
        (**self).space()
    }

    fn constraints(&self) -> &[Constraint] {
        (**self).constraints()
    }

    fn unique_evaluations(&self) -> usize {
        (**self).unique_evaluations()
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        (**self).decode(point)
    }

    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }
}

/// Parallelism for [`Evaluator::try_evaluate_batch`].
///
/// `threads: None` (the default) uses all available hardware parallelism;
/// `Some(1)` runs every batch phase inline on the caller, bit-for-bit
/// identical to any parallel run — batch results never depend on the
/// thread count, only wall-clock time does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalEngine {
    /// Worker threads per batch; `None` = available parallelism.
    pub threads: Option<usize>,
}

impl EvalEngine {
    /// The serial engine (`threads = 1`): every batch runs on the caller.
    pub fn serial() -> Self {
        EvalEngine { threads: Some(1) }
    }

    /// An engine with an explicit worker count (0 is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        EvalEngine {
            threads: Some(threads.max(1)),
        }
    }

    /// The concrete worker count this engine resolves to on this host.
    ///
    /// `threads: None` resolves to the host's available parallelism unless
    /// the `EDSE_TEST_THREADS` environment variable overrides it (read once
    /// and cached for the process). An explicit `threads: Some(n)` always
    /// wins.
    pub fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(default_threads).max(1)
    }
}

/// The worker count `threads: None` resolves to: the `EDSE_TEST_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// host's available parallelism.
///
/// The override exists so serial-vs-parallel differential oracles can
/// exercise the multi-worker code paths on single-CPU CI containers, where
/// available parallelism would resolve to 1 and silently test nothing.
/// Delegates to the executor crate so the same resolution also sizes the
/// shared worker pool — one knob bounds every parallel path.
fn default_threads() -> usize {
    edse_executor::default_parallelism()
}

/// Number of lock shards per cache: enough to make contention negligible at
/// the thread counts `try_evaluate_batch` fans out to, small enough that
/// clearing stays trivial.
const CACHE_SHARDS: usize = 16;

/// What a memo-table entry holds: one [`OnceLock`] slot (the point cache)
/// or a row of them (the layer cache).
trait Slots {
    /// How many of the slots are completed.
    fn filled(&self) -> usize;
}

impl<V> Slots for OnceLock<V> {
    fn filled(&self) -> usize {
        usize::from(self.get().is_some())
    }
}

impl<V> Slots for [OnceLock<V>] {
    fn filled(&self) -> usize {
        self.iter().filter(|slot| slot.get().is_some()).count()
    }
}

/// A sharded concurrent memo table: each key owns an entry of [`OnceLock`]
/// slots, so concurrent requests for the same slot compute it exactly once
/// (the loser blocks on the winner instead of duplicating work) while
/// requests for different slots proceed in parallel. Shard mutexes are
/// only held for the map lookup, never during computation.
struct ShardedCache<K, S: ?Sized> {
    shards: [Mutex<HashMap<K, Arc<S>>>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
}

impl<K: Eq + Hash + Clone, S: Slots + ?Sized> ShardedCache<K, S> {
    fn new() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
        }
    }

    /// The entry for `key`, made by `make` if absent, with the index of
    /// the shard that holds it (also the shard label of the telemetry
    /// counters).
    fn entry(&self, key: &K, make: impl FnOnce() -> Arc<S>) -> (usize, Arc<S>) {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        let shard = h.finish() as usize % CACHE_SHARDS;
        let mut map = self.shards[shard].lock().expect("cache shard poisoned");
        let entry = match map.get(key) {
            Some(entry) => entry.clone(),
            None => map.entry(key.clone()).or_insert_with(make).clone(),
        };
        (shard, entry)
    }

    /// Records one slot access's classification (see
    /// [`CodesignEvaluator::classify`] for the taxonomy). Always on — the
    /// counters back [`Evaluator::cache_stats`], unlike the per-shard
    /// telemetry counters which exist only when a collector is attached.
    fn note(&self, already: bool, computed: bool) {
        let counter = if already {
            &self.hits
        } else if computed {
            &self.misses
        } else {
            &self.inflight_waits
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Completed-slot count plus cumulative traffic counters. Clearing
    /// the cache (builder invalidation) empties `entries` but keeps the
    /// traffic history.
    fn stats(&self) -> TierStats {
        let entries = self
            .shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .expect("cache shard poisoned")
                    .values()
                    .map(|entry| entry.filled())
                    .sum::<usize>()
            })
            .sum();
        TierStats {
            entries,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inflight_waits: self.inflight_waits.load(Ordering::Relaxed),
        }
    }

    fn clear(&mut self) {
        for shard in &mut self.shards {
            shard.get_mut().expect("cache shard poisoned").clear();
        }
    }
}

/// One layer mapping's cached result: the outcome every evaluation shares,
/// or the fault its mapper call raised.
type LayerResult = Result<Arc<LayerOutcome>, EvalFault>;

/// One configuration's layer results, one slot per distinct shape of the
/// evaluator's models (indexed by [`ShapeTable`] id).
type LayerRow = [OnceLock<LayerResult>];

/// A batch's handle on one configuration's row: its shard, the
/// configuration and the row.
type PendingRow = (usize, AcceleratorConfig, Arc<LayerRow>);

/// The layer shapes an evaluator's models use, derived once.
struct ShapeTable {
    /// Every distinct shape across the models, in first-appearance order;
    /// a shape's index here is its slot in every [`LayerRow`].
    shapes: Vec<LayerShape>,
    /// The models, in declaration order.
    models: Vec<ModelShapes>,
}

/// One model's name and its unique shapes in [`DnnModel::unique_shapes`]
/// order, as `(shape id, layer name, count)`.
struct ModelShapes {
    name: Arc<str>,
    uses: Vec<(usize, Arc<str>, u64)>,
}

impl ShapeTable {
    fn new(models: &[DnnModel]) -> Self {
        let mut shapes = Vec::new();
        let mut ids = HashMap::new();
        let models = models
            .iter()
            .map(|model| {
                let uses = model
                    .unique_shapes()
                    .into_iter()
                    .map(|u| {
                        let id = *ids.entry(u.shape).or_insert_with(|| {
                            shapes.push(u.shape);
                            shapes.len() - 1
                        });
                        (id, Arc::from(u.name), u.count)
                    })
                    .collect();
                ModelShapes {
                    name: Arc::from(model.name()),
                    uses,
                }
            })
            .collect();
        ShapeTable { shapes, models }
    }
}

/// The standard DNN codesign evaluator: Table-1 edge space, area and power
/// constraints, and one throughput (latency-ceiling) constraint per target
/// workload. Generic over the mapping optimizer: [`mapper::FixedMapper`]
/// reproduces the fixed-dataflow setting; [`mapper::LinearMapper`] the
/// tightly coupled codesign.
///
/// Thread-safe: all evaluation state (the point/layer memo tables and the
/// unique-evaluation counter) lives behind interior mutability, and
/// [`Evaluator::try_evaluate_batch`] fans work out over [`EvalEngine`]
/// threads.
///
/// The layer cache is config-major. On first evaluation the evaluator
/// derives its models' distinct layer shapes once (a shape two models
/// share is one shape), and each configuration it meets gets a row with
/// one [`OnceLock`] slot per distinct shape. A point costs one row lookup,
/// and a mapping task fills its slot without hashing or locking. A slot
/// holds an `Arc<`[`LayerOutcome`]`>` that every [`LayerEval`] reading
/// it shares, so assembling a point or cloning an evaluation copies no
/// profile.
///
/// Fault-bounded: each layer mapping runs once under [`fault::guard`],
/// and both memo tables cache failures (`Err`) alongside results, so a
/// faulted `(layer, config)` pair fails fast on re-encounter instead of
/// panicking again.
pub struct CodesignEvaluator<M> {
    space: DesignSpace,
    constraints: Vec<Constraint>,
    models: Vec<DnnModel>,
    tech: Tech,
    objective: Objective,
    mapper: M,
    mapper_fingerprint: String,
    engine: EvalEngine,
    telemetry: Collector,
    /// Built on first evaluation, not in [`Self::new`]: over the eleven
    /// zoo models, deriving it in `new` added a third to a fixed-dataflow
    /// run's setup time.
    shapes: OnceLock<ShapeTable>,
    point_cache: ShardedCache<DesignPoint, OnceLock<Result<Evaluation, EvalFault>>>,
    layer_rows: ShardedCache<AcceleratorConfig, LayerRow>,
    disk_cache: Option<Arc<DiskCache>>,
    disk_error: Option<String>,
    unique_evals: AtomicUsize,
}

impl<M: MappingOptimizer> CodesignEvaluator<M> {
    /// Builds an evaluator for one or more target workloads with the
    /// paper's edge constraints (area < 75 mm^2, power < 4 W, per-model
    /// throughput floors).
    ///
    /// # Panics
    ///
    /// Panics if `models` is empty.
    pub fn new(space: DesignSpace, models: Vec<DnnModel>, mapper: M) -> Self {
        assert!(!models.is_empty(), "need at least one target workload");
        let mut constraints = vec![
            Constraint::new("area_mm2", 75.0),
            Constraint::new("power_w", 4.0),
        ];
        for m in &models {
            constraints.push(Constraint::new(
                format!("latency_ms:{}", m.name()),
                m.target().latency_ceiling_ms(),
            ));
        }
        let mapper_fingerprint = mapper.fingerprint();
        Self {
            space,
            constraints,
            models,
            tech: Tech::n45(),
            objective: Objective::Latency,
            mapper,
            mapper_fingerprint,
            engine: EvalEngine::default(),
            telemetry: Collector::noop(),
            shapes: OnceLock::new(),
            point_cache: ShardedCache::new(),
            layer_rows: ShardedCache::new(),
            disk_cache: None,
            disk_error: None,
            unique_evals: AtomicUsize::new(0),
        }
    }

    /// Attaches a persistent disk tier below the in-memory caches: layer
    /// mappings found on disk populate memory without running the mapper,
    /// and freshly computed mappings are appended. Keys are
    /// content-addressed over `(mapper fingerprint, layer, config)` —
    /// sharing one cache directory across runs, techniques, objectives,
    /// and processes is safe because anything that could change a layer
    /// outcome changes the key. Share one [`DiskCache`] handle across
    /// evaluators via [`Arc`].
    ///
    /// Invalidates nothing, and never changes results: a warm run is
    /// bit-identical to a cold one (the disk stores exactly what the
    /// mapper would recompute). Faulted mappings are *not* persisted: a
    /// new process, a resumed one included, maps them again.
    pub fn with_disk_cache(mut self, cache: Arc<DiskCache>) -> Self {
        self.disk_cache = Some(cache);
        self.disk_error = None;
        self
    }

    /// Records that a disk tier was requested but could not be attached
    /// (e.g. the cache directory failed to open). The evaluator runs
    /// cacheless exactly as if no tier were requested, but
    /// [`Evaluator::cache_stats`] then reports the reason in
    /// [`CacheStats::disk_error`] so the degradation stays visible to
    /// operators instead of scrolling away as a startup warning.
    pub fn with_disk_cache_error(mut self, error: impl Into<String>) -> Self {
        if self.disk_cache.is_none() {
            self.disk_error = Some(error.into());
        }
        self
    }

    /// Selects the batch-evaluation engine (default: all available
    /// parallelism). [`EvalEngine::serial`] forces single-threaded
    /// batches.
    ///
    /// Changing the engine never invalidates caches: results are identical
    /// for every thread count by construction.
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a telemetry collector. The evaluator then emits per-shard
    /// cache counters (`point_cache/shardNN/{hit,miss,inflight_wait}` and
    /// the `layer_cache/` equivalents), `stage/mapper_us` and
    /// `stage/point_eval_us` timing histograms, fault-boundary counters
    /// (`fault/layer_failures`, `fault/point_failures`) with one warning
    /// log per failed layer mapping, and one batch-utilization record per
    /// [`Evaluator::try_evaluate_batch`] fan-out phase.
    ///
    /// Invalidates nothing: observation never changes results. The default
    /// is [`Collector::noop`], whose instrumentation cost is one branch
    /// per call site.
    pub fn with_telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Replaces the technology model (default: 45 nm).
    ///
    /// Invalidates the point cache (and resets
    /// [`Evaluator::unique_evaluations`]): area and power are baked into
    /// every cached [`Evaluation`]. The layer-mapping cache is kept — the
    /// mapping optimizers evaluate candidate mappings with the fixed 45 nm
    /// energy model regardless of the evaluator's tech (a pre-existing
    /// modeling simplification of the mapper crate), so layer outcomes do
    /// not depend on this setting.
    pub fn with_tech(mut self, tech: Tech) -> Self {
        self.tech = tech;
        self.point_cache.clear();
        *self.unique_evals.get_mut() = 0;
        self
    }

    /// Replaces the area/power budgets (defaults: the paper's 75 mm^2 and
    /// 4 W edge limits). Use e.g. 400 mm^2 / 250 W with
    /// [`crate::space::datacenter_space`].
    ///
    /// Invalidates nothing: thresholds live in [`Self::constraints`] and
    /// are compared against raw `constraint_values` at feasibility-check
    /// time, never baked into cached evaluations.
    ///
    /// # Errors
    ///
    /// Rejects a non-positive, NaN or infinite limit, naming it.
    pub fn with_limits(mut self, area_mm2: f64, power_w: f64) -> Result<Self, String> {
        for (name, v) in [("area_mm2", area_mm2), ("power_w", power_w)] {
            if !(v.is_finite() && v > 0.0) {
                return Err(format!(
                    "limit {name} must be a positive finite number, got {v}"
                ));
            }
        }
        self.constraints[0] = Constraint::new("area_mm2", area_mm2);
        self.constraints[1] = Constraint::new("power_w", power_w);
        Ok(self)
    }

    /// Selects the minimized objective (default: latency).
    ///
    /// Invalidates the point cache and resets
    /// [`Evaluator::unique_evaluations`] (the objective is baked into every
    /// cached [`Evaluation`], and the counter always equals the number of
    /// live cache entries). The layer-mapping cache is kept: mapping search
    /// minimizes latency regardless of the DSE objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self.point_cache.clear();
        *self.unique_evals.get_mut() = 0;
        self
    }

    /// The target workloads.
    pub fn models(&self) -> &[DnnModel] {
        &self.models
    }

    /// The technology model in use.
    pub fn tech(&self) -> &Tech {
        &self.tech
    }

    /// The batch-evaluation engine in use.
    pub fn engine(&self) -> EvalEngine {
        self.engine
    }

    /// The telemetry collector in use (no-op unless
    /// [`Self::with_telemetry`] was called).
    pub fn telemetry(&self) -> &Collector {
        &self.telemetry
    }

    /// Increments `{cache}/shardNN/{kind}`. Call only when telemetry is
    /// active — the label is formatted on the spot.
    fn cache_counter(&self, cache: &str, shard: usize, kind: &str) {
        self.telemetry
            .counter(&format!("{cache}/shard{shard:02}/{kind}"), 1);
    }

    /// Classifies one memo-table access for telemetry: the slot existed
    /// and was filled before we looked (`hit`), we ran the init closure
    /// ourselves (`miss`), or another thread filled it while we waited on
    /// the [`OnceLock`] (`inflight_wait`). Under the serial engine every
    /// access is a hit or a miss; `serial hits == parallel hits +
    /// inflight_waits` for the same workload.
    fn classify(already: bool, computed: bool) -> &'static str {
        if already {
            "hit"
        } else if computed {
            "miss"
        } else {
            "inflight_wait"
        }
    }

    /// The shape table, derived from the models on first use.
    fn shapes(&self) -> &ShapeTable {
        self.shapes.get_or_init(|| ShapeTable::new(&self.models))
    }

    /// The layer row of `cfg`, made empty if absent, with its shard.
    fn row(&self, cfg: &AcceleratorConfig) -> (usize, Arc<LayerRow>) {
        let distinct = self.shapes().shapes.len();
        self.layer_rows
            .entry(cfg, || (0..distinct).map(|_| OnceLock::new()).collect())
    }

    /// Reads slot `id` of `cfg`'s layer `row` (held in shard `shard`),
    /// mapping the layer through the fault boundary if the slot is empty:
    /// the mapper runs once under [`fault::guard`], and a panic is cached
    /// in the slot as its [`EvalFault`].
    ///
    /// `intra` is the worker budget the mapper may spend *inside* this one
    /// layer's tiling sweep ([`MappingOptimizer::optimize_threaded`]).
    /// Mapper results are bit-identical for every budget, so `intra` is
    /// deliberately absent from both cache keys — a mapping computed with
    /// any budget serves all future requests for this `(shape, cfg)`.
    fn map_layer<'r>(
        &self,
        row: &'r LayerRow,
        id: usize,
        cfg: &AcceleratorConfig,
        shard: usize,
        intra: usize,
    ) -> &'r LayerResult {
        let slot = &row[id];
        let already = slot.get().is_some();
        let mut computed = false;
        let result = slot.get_or_init(|| {
            computed = true;
            let shape = &self.shapes().shapes[id];
            // Disk tier first: a hit fills this slot without running the
            // mapper (and without a `stage/mapper_us` sample — no mapping
            // search happened). Faults never reach disk, so a disk entry
            // is always `Ok`.
            let disk_key = self.disk_cache.as_deref().map(|disk| {
                (
                    disk,
                    diskcache::layer_key(&self.mapper_fingerprint, shape, cfg),
                )
            });
            if let Some((disk, k)) = &disk_key {
                if let Some(stored) = disk.get_outcome(k, shape) {
                    return Ok(Arc::new(stored));
                }
            }
            let result = {
                let _mapper_timer = self.telemetry.time("stage/mapper_us");
                fault::guard(|| match self.mapper.optimize_threaded(shape, cfg, intra) {
                    Some(mapped) => LayerOutcome::Mapped(mapped),
                    None => LayerOutcome::Unmappable(self.mapper.diagnose(shape, cfg)),
                })
                .map(Arc::new)
                .map_err(|error| {
                    self.telemetry.counter("fault/layer_failures", 1);
                    if self.telemetry.active() {
                        self.telemetry.log(
                            Level::Warn,
                            &format!("layer mapping failed ({} PEs): {error}", cfg.pes),
                        );
                    }
                    EvalFault { error }
                })
            };
            if let (Some((disk, k)), Ok(outcome)) = (&disk_key, &result) {
                disk.put_outcome(k, outcome);
            }
            result
        });
        self.layer_rows.note(already, computed);
        if self.telemetry.active() {
            self.cache_counter("layer_cache", shard, Self::classify(already, computed));
        }
        result
    }

    /// Assembles one point's costs; `Err` when any layer mapping failed
    /// at the fault boundary.
    fn try_compute(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        let cfg = decode_edge_point(&self.space, point);
        let area = cfg.area_mm2(&self.tech);
        let power = cfg.max_power_w(&self.tech);

        let table = self.shapes();
        let (shard, row) = self.row(&cfg);
        let mut layers = Vec::with_capacity(table.models.iter().map(|m| m.uses.len()).sum());
        let mut per_model_latency = Vec::with_capacity(self.models.len());
        let mut energy_mj = 0.0;
        let mut mappable = true;
        for model in &table.models {
            let mut model_latency = 0.0f64;
            for (id, name, count) in &model.uses {
                let outcome = self
                    .map_layer(&row, *id, &cfg, shard, 1)
                    .as_ref()
                    .map_err(EvalFault::clone)?;
                let mapped = outcome.mapped();
                mappable &= mapped.is_some();
                // Unmappable layers contribute their diagnostic latency —
                // a finite surrogate that keeps a search gradient toward
                // mappability (the design stays infeasible regardless).
                let latency_ms = outcome
                    .profile()
                    .map(|p| p.latency_ms(cfg.freq_mhz) * *count as f64)
                    .unwrap_or(f64::INFINITY);
                if let Some(m) = mapped {
                    energy_mj += m.profile.energy_mj() * *count as f64;
                }
                model_latency += latency_ms;
                layers.push(LayerEval {
                    name: name.clone(),
                    model: model.name.clone(),
                    count: *count,
                    outcome: outcome.clone(),
                    latency_ms,
                });
            }
            per_model_latency.push(model_latency);
        }

        let total_latency: f64 = per_model_latency.iter().sum();
        let objective = match self.objective {
            Objective::Latency => total_latency,
            Objective::Energy => {
                if mappable {
                    energy_mj
                } else {
                    // Same surrogate logic as latency: unmappable designs
                    // keep a finite gradient but stay infeasible.
                    total_latency
                }
            }
            Objective::Weighted { alpha_ms, beta_mj } => {
                if mappable {
                    alpha_ms * total_latency + beta_mj * energy_mj
                } else {
                    total_latency
                }
            }
        };
        let mut constraint_values = vec![area, power];
        constraint_values.extend(per_model_latency);
        Ok(Evaluation {
            objective,
            mappable,
            constraint_values,
            layers,
            area_mm2: area,
            power_w: power,
            energy_mj,
        })
    }

    /// The layer mappings this batch needs that are not yet cached: each
    /// distinct configuration's row once, as `(shard, config, row)`, and
    /// one `(row index, slot)` pair per empty slot, in first-appearance
    /// order. A row has a slot for every shape of every model, so its
    /// empty slots are exactly the mappings its points lack.
    fn pending_layer_tasks(&self, points: &[DesignPoint]) -> (Vec<PendingRow>, Vec<(u32, u32)>) {
        let mut seen = HashSet::new();
        let mut rows = Vec::new();
        let mut tasks = Vec::new();
        for p in points {
            let cfg = decode_edge_point(&self.space, p);
            if !seen.insert(cfg) {
                continue;
            }
            let (shard, row) = self.row(&cfg);
            for (id, slot) in row.iter().enumerate() {
                if slot.get().is_none() {
                    tasks.push((rows.len() as u32, id as u32));
                }
            }
            rows.push((shard, cfg, row));
        }
        (rows, tasks)
    }
}

/// Fan `work(i)` for `i in 0..n` out over the shared executor pool with a
/// concurrency budget of `threads` (submitter included). Returns how many
/// items each participant slot pulled (length `min(threads, n)`, matching
/// the worker count the old scoped-spawn implementation used) — the raw
/// material for batch-utilization telemetry. No threads are spawned: after
/// pool warm-up every batch is a queue handoff.
fn fan_out<F: Fn(usize) + Sync>(n: usize, threads: usize, work: F) -> Vec<u64> {
    edse_executor::Executor::global()
        .run(n, threads, &work)
        .per_worker
}

impl<M: MappingOptimizer> Evaluator for CodesignEvaluator<M> {
    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        let (shard, slot) = self.point_cache.entry(point, || Arc::new(OnceLock::new()));
        let already = slot.get().is_some();
        let mut computed = false;
        slot.get_or_init(|| {
            computed = true;
            // The timer covers full point assembly, including any layer
            // mappings this point is first to need.
            let _point_timer = self.telemetry.time("stage/point_eval_us");
            let result = self.try_compute(point);
            match &result {
                // Inside the once-guard: a point racing in two threads (or
                // appearing twice in one batch) counts exactly once. Failed
                // points never count — no cost model ran to completion.
                Ok(_) => {
                    self.unique_evals.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => self.telemetry.counter("fault/point_failures", 1),
            }
            result
        });
        self.point_cache.note(already, computed);
        if self.telemetry.active() {
            self.cache_counter("point_cache", shard, Self::classify(already, computed));
        }
        slot.get().expect("initialized above").clone()
    }

    /// Parallel batch evaluation. Two fan-out phases on the shared
    /// executor pool with a budget of [`EvalEngine::resolved_threads`]
    /// participants: first the empty slots of the batch's layer rows (the
    /// expensive part, deduplicated so no two workers ever optimize the
    /// same pair), then the per-point cost assembly. Results are
    /// position-aligned with `points` and bit-for-bit identical for every
    /// budget.
    ///
    /// The fan-out unit is a *layer mapping*, not a point: a batch with a
    /// single candidate but many uncached layers still spreads its mapping
    /// work across all workers, and a batch with one uncached layer hands
    /// that mapping the whole budget for its tiling sweep (intra-layer
    /// parallelism); a phase with at most one item, and every phase of a
    /// one-thread engine, runs inline on the caller.
    ///
    /// Worker panics cannot escape: every mapper call runs under the fault
    /// boundary's panic guard, so a faulted candidate yields `Err` in its
    /// slot while the rest of the batch completes normally.
    ///
    /// With telemetry attached, each phase emits a [`BatchRecord`] with
    /// per-worker pull counts (stages `engine/mapping` and
    /// `engine/points`), plus `engine/layer_jobs` and `engine/point_jobs`
    /// counters totalling the work items the engine distributed.
    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        let _batch_span = self.telemetry.span("eval/batch");
        let threads = self.engine.resolved_threads();
        let (rows, tasks) = self.pending_layer_tasks(points);
        if self.telemetry.active() {
            self.telemetry
                .counter("engine/layer_jobs", tasks.len() as u64);
            self.telemetry
                .counter("engine/point_jobs", points.len() as u64);
        }
        let pool_before = self
            .telemetry
            .active()
            .then(|| edse_executor::Executor::global().counters());
        // Leftover worker budget once every task has a worker goes into
        // the sweeps themselves: 8 workers over 2 tasks → 4-way
        // intra-layer parallelism per mapping.
        let intra = (threads / tasks.len().max(1)).max(1);
        let per_thread = {
            let _mapping_span = self.telemetry.span("eval/mapping");
            fan_out(tasks.len(), threads, |i| {
                let (r, id) = tasks[i];
                let (shard, cfg, row) = &rows[r as usize];
                let _ = self.map_layer(row, id as usize, cfg, *shard, intra);
            })
        };
        if self.telemetry.active() && !tasks.is_empty() {
            self.telemetry.batch(BatchRecord {
                stage: "engine/mapping".to_string(),
                items: tasks.len() as u64,
                threads: threads as u64,
                per_thread,
            });
        }
        let results: Vec<OnceLock<Result<Evaluation, EvalFault>>> =
            points.iter().map(|_| OnceLock::new()).collect();
        let per_thread = {
            let _points_span = self.telemetry.span("eval/points");
            fan_out(points.len(), threads, |i| {
                results[i]
                    .set(self.try_evaluate(&points[i]))
                    .expect("each index visited once");
            })
        };
        if self.telemetry.active() && !points.is_empty() {
            self.telemetry.batch(BatchRecord {
                stage: "engine/points".to_string(),
                items: points.len() as u64,
                threads: threads as u64,
                per_thread,
            });
        }
        if let Some(before) = pool_before {
            // Shared-pool deltas over this batch's window. Under concurrent
            // tenants these include siblings' traffic — which is exactly
            // the sharing the counters exist to expose.
            let after = edse_executor::Executor::global().counters();
            self.telemetry
                .counter("executor/steals", after.steals - before.steals);
            self.telemetry.counter(
                "executor/spawn_avoided",
                after.spawn_avoided - before.spawn_avoided,
            );
            self.telemetry.counter(
                "executor/queue_depth",
                after.queue_depth - before.queue_depth,
            );
            self.telemetry
                .counter("executor/idle_ns", after.idle_ns - before.idle_ns);
        }
        results
            .into_iter()
            .map(|slot| slot.into_inner().expect("all slots filled"))
            .collect()
    }

    fn space(&self) -> &DesignSpace {
        &self.space
    }

    fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    fn unique_evaluations(&self) -> usize {
        self.unique_evals.load(Ordering::Relaxed)
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        decode_edge_point(&self.space, point)
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            unique_evaluations: self.unique_evaluations(),
            point: self.point_cache.stats(),
            layer: self.layer_rows.stats(),
            disk: self.disk_cache.as_ref().map(|d| d.stats()),
            disk_error: self.disk_error.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::space::edge_space;
    use mapper::{FaultInjector, FixedMapper, LinearMapper, MappedLayer};
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    /// Installs (once per process) a panic hook that swallows the expected
    /// `FaultInjector` panics so fault-boundary tests don't spam stderr;
    /// everything else still reaches the default hook.
    pub(crate) fn silence_injected_panics() {
        static HOOK: OnceLock<()> = OnceLock::new();
        HOOK.get_or_init(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let msg = info
                    .payload()
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| info.payload().downcast_ref::<&str>().copied())
                    .unwrap_or("");
                if !msg.contains("injected mapping fault") {
                    prev(info);
                }
            }));
        });
    }

    #[test]
    fn minimum_point_evaluates() {
        let ev = evaluator();
        let p = ev.space().minimum_point();
        let e = ev.evaluate(&p);
        assert!(e.area_mm2 > 0.0 && e.power_w > 0.0);
        assert_eq!(e.constraint_values.len(), 3);
        assert_eq!(e.layers.len(), zoo::resnet18().unique_shape_count());
    }

    #[test]
    fn caching_counts_unique_points_once() {
        let ev = evaluator();
        let p = ev.space().minimum_point();
        let a = ev.evaluate(&p);
        let b = ev.evaluate(&p);
        assert_eq!(a, b);
        assert_eq!(ev.unique_evaluations(), 1);
    }

    #[test]
    fn codesign_mapper_beats_fixed_dataflow() {
        let space = edge_space();
        let p = space.minimum_point().with_index(crate::space::edge::PES, 2);
        let fixed = CodesignEvaluator::new(space.clone(), vec![zoo::resnet18()], FixedMapper);
        let codesign = CodesignEvaluator::new(space, vec![zoo::resnet18()], LinearMapper::new(100));
        let ef = fixed.evaluate(&p);
        let ec = codesign.evaluate(&p);
        if ef.objective.is_finite() {
            assert!(
                ec.objective <= ef.objective * 1.01,
                "codesign {} vs fixed {}",
                ec.objective,
                ef.objective
            );
        } else {
            assert!(ec.objective.is_finite(), "codesign should find a mapping");
        }
    }

    #[test]
    fn datacenter_space_explores_under_relaxed_limits() {
        use crate::space::datacenter_space;
        // A 400 mm^2 / 250 W budget over the TPU-like space: the decode
        // path and constraints compose without edge-specific assumptions.
        let ev = CodesignEvaluator::new(datacenter_space(), vec![zoo::resnet18()], FixedMapper)
            .with_limits(400.0, 250.0)
            .unwrap();
        assert_eq!(ev.constraints()[0].threshold, 400.0);
        let p = ev.space().minimum_point();
        let e = ev.evaluate(&p);
        // 1024 PEs at minimum: well inside the datacenter budget.
        assert!(e.constraint_values[0] < 400.0);
        assert!(e.constraint_values[1] < 250.0);
    }

    #[test]
    fn energy_objective_swaps_the_minimized_cost() {
        let space = edge_space();
        let p = space
            .minimum_point()
            .with_index(crate::space::edge::PES, 2)
            .with_index(crate::space::edge::virt_links(1), 2)
            .with_index(crate::space::edge::virt_links(3), 2)
            .with_index(crate::space::edge::phys_links(1), 31)
            .with_index(crate::space::edge::phys_links(3), 31);
        let lat = CodesignEvaluator::new(space.clone(), vec![zoo::resnet18()], FixedMapper);
        let en = CodesignEvaluator::new(space, vec![zoo::resnet18()], FixedMapper)
            .with_objective(Objective::Energy);
        let el = lat.evaluate(&p);
        let ee = en.evaluate(&p);
        if el.mappable {
            // Same design, same physics; only the reported objective differs.
            assert!((ee.objective - ee.energy_mj).abs() < 1e-9);
            assert!((el.energy_mj - ee.energy_mj).abs() < 1e-9);
            assert_ne!(el.objective, ee.objective);
            // Constraints (incl. latency ceiling) are identical.
            assert_eq!(el.constraint_values, ee.constraint_values);
        }
    }

    #[test]
    fn multi_workload_constraints_grow() {
        let ev = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18(), zoo::bert_base()],
            FixedMapper,
        );
        // area + power + one latency ceiling per model.
        assert_eq!(ev.constraints().len(), 4);
    }

    #[test]
    fn with_limits_validates_inputs() {
        assert!(evaluator().with_limits(75.0, 4.0).is_ok());
        assert!(evaluator().with_limits(0.0, 4.0).is_err());
        assert!(evaluator().with_limits(75.0, -1.0).is_err());
        assert!(evaluator().with_limits(f64::NAN, 4.0).is_err());
        assert!(evaluator().with_limits(f64::INFINITY, 4.0).is_err());
    }

    /// The builder-method cache-invalidation matrix:
    ///
    /// | method           | point cache | layer cache | unique counter |
    /// |------------------|-------------|-------------|----------------|
    /// | `with_limits`    | kept        | kept        | kept           |
    /// | `with_objective` | cleared     | kept        | reset          |
    /// | `with_tech`      | cleared     | kept        | reset           |
    /// | `with_engine`    | kept        | kept        | kept           |
    /// | `with_telemetry` | kept        | kept        | kept           |
    #[test]
    fn builder_cache_invalidation_matrix() {
        // The tally observes the layer cache.
        let calls = Arc::new(AtomicUsize::new(0));
        let ev = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18()],
            TallyMapper(FixedMapper, calls.clone()),
        );
        let p = ev.space().minimum_point();
        let before = ev.evaluate(&p);
        assert_eq!(ev.unique_evaluations(), 1);
        let mapper_calls = calls.load(Ordering::Relaxed);
        assert!(mapper_calls > 0);

        // with_limits: nothing invalidated — the cached evaluation and the
        // unique counter survive, and re-evaluating is a pure cache hit.
        let ev = ev.with_limits(400.0, 250.0).unwrap();
        assert_eq!(ev.unique_evaluations(), 1);
        let after_limits = ev.evaluate(&p);
        assert_eq!(before, after_limits);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), mapper_calls);

        // with_engine: nothing invalidated (results are thread-count
        // independent by construction).
        let ev = ev.with_engine(EvalEngine::serial());
        assert_eq!(ev.unique_evaluations(), 1);

        // with_telemetry: nothing invalidated (observation never changes
        // results).
        let ev = ev.with_telemetry(Collector::noop());
        assert_eq!(ev.unique_evaluations(), 1);

        // with_objective: point cache cleared + counter reset (objective is
        // baked into Evaluation), layer cache kept (no new mapper calls).
        let ev = ev.with_objective(Objective::Energy);
        assert_eq!(ev.unique_evaluations(), 0);
        let after_objective = ev.evaluate(&p);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            mapper_calls,
            "layer cache kept"
        );
        if after_objective.mappable {
            assert_ne!(before.objective, after_objective.objective);
        }

        // with_tech: point cache cleared + counter reset (area/power are
        // baked in), layer cache kept (mapping search is tech-independent).
        let denser = energy_area::Tech {
            mac_area_mm2: energy_area::Tech::n45().mac_area_mm2 * 0.5,
            ..energy_area::Tech::n45()
        };
        let ev = ev.with_tech(denser);
        assert_eq!(ev.unique_evaluations(), 0);
        let after_tech = ev.evaluate(&p);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            mapper_calls,
            "layer cache kept"
        );
        assert_ne!(before.area_mm2, after_tech.area_mm2);
    }

    #[test]
    fn batch_matches_serial_bit_for_bit() {
        let space = edge_space();
        let points: Vec<DesignPoint> = (0..12)
            .map(|i| {
                space
                    .minimum_point()
                    .with_index(crate::space::edge::PES, i % 4)
                    .with_index(2, i % 3)
            })
            .collect();
        let serial = CodesignEvaluator::new(space.clone(), vec![zoo::resnet18()], FixedMapper)
            .with_engine(EvalEngine::serial());
        let parallel = CodesignEvaluator::new(space, vec![zoo::resnet18()], FixedMapper)
            .with_engine(EvalEngine::with_threads(4));
        let a = serial.evaluate_batch(&points);
        let b = parallel.evaluate_batch(&points);
        assert_eq!(a, b);
        assert_eq!(serial.unique_evaluations(), parallel.unique_evaluations());
    }

    #[test]
    fn pooled_batches_spawn_no_threads_after_warm_up() {
        use edse_telemetry::MemorySink;
        let space = edge_space();
        let points: Vec<DesignPoint> = (0..6)
            .map(|i| {
                space
                    .minimum_point()
                    .with_index(crate::space::edge::PES, i % 4)
            })
            .collect();
        // Warm-up: the first pooled batch may lazily spawn the global
        // pool's workers.
        CodesignEvaluator::new(space.clone(), vec![zoo::resnet18()], FixedMapper)
            .with_engine(EvalEngine::with_threads(4))
            .evaluate_batch(&points);
        let warm = edse_executor::Executor::global().counters();

        // Steady state: every later batch reuses the pool — the lifetime
        // spawn count stays flat while each batch's `spawn_avoided` delta
        // records the threads the scoped implementation would have started.
        let collector = Collector::builder().sink(MemorySink::new()).build();
        let ev = CodesignEvaluator::new(space, vec![zoo::resnet18()], FixedMapper)
            .with_engine(EvalEngine::with_threads(4))
            .with_telemetry(collector.clone());
        ev.evaluate_batch(&points);
        let after = edse_executor::Executor::global().counters();
        assert_eq!(
            after.workers_spawned, warm.workers_spawned,
            "a warm pool must not spawn threads per batch"
        );
        let avoided = collector.counter_sum("executor/spawn_avoided");
        assert!(
            avoided >= 4,
            "batch should record the scoped spawns it avoided, got {avoided}"
        );
    }

    #[test]
    fn telemetry_counts_cache_traffic_and_unique_evals() {
        use edse_telemetry::{Event, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let ev = evaluator()
            .with_engine(EvalEngine::with_threads(4))
            .with_telemetry(collector.clone());
        let p = ev.space().minimum_point();
        let q = p.with_index(crate::space::edge::PES, 1);
        let points: Vec<DesignPoint> = (0..8)
            .map(|i| if i % 2 == 0 { p.clone() } else { q.clone() })
            .collect();
        ev.evaluate_batch(&points);

        let sum_kind = |cache: &str, kind: &str| -> u64 {
            collector
                .counters()
                .iter()
                .filter(|(k, _)| k.starts_with(cache) && k.ends_with(kind))
                .map(|(_, v)| *v)
                .sum()
        };
        // The miss counter is incremented exactly once per unique point —
        // the same exact-once guarantee as `unique_evaluations()`.
        assert_eq!(
            sum_kind("point_cache/", "/miss") as usize,
            ev.unique_evaluations()
        );
        assert_eq!(ev.unique_evaluations(), 2);
        // Every access is classified exactly once.
        let total = sum_kind("point_cache/", "/miss")
            + sum_kind("point_cache/", "/hit")
            + sum_kind("point_cache/", "/inflight_wait");
        assert_eq!(total, points.len() as u64);
        // Layer-mapping misses: one per unique (layer, config) pair.
        let expected_tasks = 2 * zoo::resnet18().unique_shape_count() as u64;
        assert_eq!(sum_kind("layer_cache/", "/miss"), expected_tasks);
        // Stage timings observed once per miss.
        assert_eq!(collector.histogram("stage/point_eval_us").unwrap().count, 2);
        assert_eq!(
            collector.histogram("stage/mapper_us").unwrap().count,
            expected_tasks
        );
        // Both fan-out phases reported their per-worker pull counts.
        let stages: Vec<String> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Batch { record, .. } => Some(record.stage),
                _ => None,
            })
            .collect();
        assert_eq!(stages, vec!["engine/mapping", "engine/points"]);
    }

    #[test]
    fn single_point_batch_distributes_layer_mapping_jobs() {
        use edse_telemetry::{Event, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let ev = evaluator()
            .with_engine(EvalEngine::with_threads(4))
            .with_telemetry(collector.clone());
        let p = ev.space().minimum_point();
        // One candidate, many uncached layers: the engine must fan the
        // per-layer mapping jobs out instead of degrading to serial.
        let batch = ev.evaluate_batch(std::slice::from_ref(&p));
        assert_eq!(batch, vec![evaluator().evaluate(&p)]);
        assert_eq!(ev.unique_evaluations(), 1);

        let layers = zoo::resnet18().unique_shape_count() as u64;
        assert_eq!(collector.counter_value("engine/layer_jobs"), layers);
        assert_eq!(collector.counter_value("engine/point_jobs"), 1);
        let records: Vec<BatchRecord> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Batch { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        let stages: Vec<&str> = records.iter().map(|r| r.stage.as_str()).collect();
        assert_eq!(stages, vec!["engine/mapping", "engine/points"]);
        // Every layer job was pulled by exactly one of the 4 workers.
        assert_eq!(records[0].items, layers);
        assert_eq!(records[0].threads, 4);
        assert_eq!(records[0].per_thread.len(), 4.min(layers as usize));
        assert_eq!(records[0].per_thread.iter().sum::<u64>(), layers);
        assert_eq!(records[1].items, 1);

        // A fully cached repeat has no mapping to distribute: one points
        // record and no mapping record.
        ev.evaluate_batch(std::slice::from_ref(&p));
        let repeat_stages: Vec<String> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Batch { record, .. } => Some(record.stage),
                _ => None,
            })
            .skip(records.len())
            .collect();
        assert_eq!(repeat_stages, vec!["engine/points"]);
    }

    #[test]
    fn batch_counts_in_batch_duplicates_once() {
        let ev = evaluator().with_engine(EvalEngine::with_threads(8));
        let p = ev.space().minimum_point();
        let q = p.with_index(crate::space::edge::PES, 1);
        // The same two points, many times, submitted concurrently.
        let points: Vec<DesignPoint> = (0..32)
            .map(|i| if i % 2 == 0 { p.clone() } else { q.clone() })
            .collect();
        let evals = ev.evaluate_batch(&points);
        assert_eq!(evals.len(), 32);
        assert_eq!(ev.unique_evaluations(), 2);
        for (i, e) in evals.iter().enumerate() {
            assert_eq!(e, &evals[i % 2], "duplicates must be identical");
        }
    }

    #[test]
    fn fault_boundary_catches_panics_and_reports_the_fault() {
        silence_injected_panics();
        let space = edge_space();
        // Every (layer, cfg) pair faults: the point must fail with a
        // caught panic message, not tear down the test. The default engine
        // runs the batch below in parallel wherever the host allows.
        let calls = Arc::new(AtomicUsize::new(0));
        let mapper = TallyMapper(FaultInjector::new(FixedMapper, 7, 1.1), calls.clone());
        let dir = temp_cache_dir("faults");
        let ev = CodesignEvaluator::new(space, vec![zoo::resnet18()], mapper)
            .with_disk_cache(Arc::new(DiskCache::open(&dir).unwrap()));
        let p = ev.space().minimum_point();
        let fault = ev.try_evaluate(&p).expect_err("all layers fault");
        assert!(
            fault.error.contains("injected mapping fault"),
            "panic message surfaced: {}",
            fault.error
        );
        assert_eq!(fault.to_string(), fault.error);
        // The first faulty layer ends the point after one mapper call.
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // Failed points consume no budget and are cached as failures.
        assert_eq!(ev.unique_evaluations(), 0);
        assert_eq!(ev.try_evaluate(&p).unwrap_err(), fault);
        assert_eq!(
            calls.load(Ordering::Relaxed),
            1,
            "a cached fault maps nothing"
        );
        // The batch maps the rest of the point's layers; each faulty pair
        // is optimized exactly once over all three calls.
        assert_eq!(
            ev.try_evaluate_batch(std::slice::from_ref(&p)),
            vec![Err(fault)]
        );
        let layers = zoo::resnet18().unique_shape_count();
        assert_eq!(ev.cache_stats().layer.misses as usize, layers);
        assert_eq!(calls.load(Ordering::Relaxed), layers);
        // The provided infallible pair degrades to the infeasible sentinel.
        let failed = Evaluation::failed(ev.constraints().len());
        assert!(!failed.feasible(ev.constraints()));
        assert_eq!(ev.evaluate(&p), failed);
        assert_eq!(
            ev.evaluate_batch(&[p.clone(), p]),
            vec![failed.clone(), failed]
        );
        assert_eq!(calls.load(Ordering::Relaxed), layers);
        // Failures never reach the disk tier, so a new process maps them
        // again.
        assert_eq!(ev.cache_stats().disk.unwrap().appends, 0);
        drop(ev);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("edse-evaltier-{}-{tag}-{n}", std::process::id()))
    }

    /// A mapper that counts the optimize calls of the mapper it wraps (used
    /// to observe whether the disk tier short-circuits the mapping search,
    /// and how often a faulty pair is mapped).
    struct TallyMapper<M>(M, Arc<AtomicUsize>);
    impl<M: MappingOptimizer> MappingOptimizer for TallyMapper<M> {
        fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.optimize(layer, cfg)
        }
        fn name(&self) -> String {
            "tally".into()
        }
    }

    #[test]
    fn disk_tier_warm_starts_a_fresh_evaluator_without_the_mapper() {
        let dir = temp_cache_dir("warm");
        let p = evaluator().space().minimum_point();

        let cold_calls = Arc::new(AtomicUsize::new(0));
        let cold_eval = {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let ev = CodesignEvaluator::new(
                edge_space(),
                vec![zoo::resnet18()],
                TallyMapper(FixedMapper, cold_calls.clone()),
            )
            .with_disk_cache(disk.clone());
            let e = ev.evaluate(&p);
            let stats = ev.cache_stats();
            let disk_stats = stats.disk.expect("disk tier attached");
            assert_eq!(disk_stats.hits, 0);
            assert_eq!(disk_stats.appends as usize, stats.layer.entries);
            e
        };
        assert!(cold_calls.load(Ordering::Relaxed) > 0);

        // A fresh process (fresh evaluator + reopened cache): every layer
        // mapping is a disk hit, the mapper never runs, and the result is
        // bit-identical.
        let warm_calls = Arc::new(AtomicUsize::new(0));
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let ev = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18()],
            TallyMapper(FixedMapper, warm_calls.clone()),
        )
        .with_disk_cache(disk);
        let warm_eval = ev.evaluate(&p);
        assert_eq!(warm_eval, cold_eval);
        assert_eq!(warm_calls.load(Ordering::Relaxed), 0, "all hits from disk");
        let disk_stats = ev.cache_stats().disk.unwrap();
        assert_eq!(
            disk_stats.hits as usize,
            zoo::resnet18().unique_shape_count()
        );
        assert_eq!(disk_stats.misses, 0);
        assert_eq!(disk_stats.hit_rate(), 1.0);

        drop(ev);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_keyed_by_mapper_fingerprint_not_shared_across_mappers() {
        let dir = temp_cache_dir("fingerprint");
        let p = evaluator().space().minimum_point();
        {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let ev = evaluator().with_disk_cache(disk);
            ev.evaluate(&p);
        }
        // A different mapper must not see fixed-os entries.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], LinearMapper::new(10))
            .with_disk_cache(disk);
        ev.evaluate(&p);
        let stats = ev.cache_stats().disk.unwrap();
        assert_eq!(stats.hits, 0, "fixed-os entries are not linear's");
        assert!(stats.appends > 0);
        drop(ev);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_stats_reports_every_tier_uniformly() {
        let ev = evaluator();
        let p = ev.space().minimum_point();
        let baseline = ev.cache_stats();
        assert_eq!(baseline, CacheStats::default());
        ev.evaluate(&p);
        ev.evaluate(&p);
        let stats = ev.cache_stats();
        assert_eq!(stats.unique_evaluations, 1);
        assert_eq!(stats.point.entries, 1);
        assert_eq!(stats.point.misses, 1);
        assert_eq!(stats.point.hits, 1);
        assert_eq!(stats.point.inflight_waits, 0);
        let layers = zoo::resnet18().unique_shape_count();
        assert_eq!(stats.layer.entries, layers);
        assert_eq!(stats.layer.misses as usize, layers);
        assert_eq!(stats.disk, None, "no disk tier attached");
        // The blanket &T forwarding reports the same snapshot.
        assert_eq!(Evaluator::cache_stats(&&ev), stats);
    }

    /// Two models that share a layer shape: the layer cache maps that
    /// shape once per configuration, every engine budget does the same
    /// work, and both models' evaluations hold the one cached outcome.
    #[test]
    fn models_sharing_a_shape_share_one_outcome() {
        use workloads::{Layer, ThroughputTarget};
        let shared = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
        let model = |name: &str, own: LayerShape| {
            DnnModel::new(
                name,
                vec![
                    Layer::new(format!("{name}.own"), own, 1),
                    Layer::new(format!("{name}.shared"), shared, 2),
                ],
                ThroughputTarget::fps(30.0),
            )
        };
        let models = vec![
            model("a", LayerShape::conv(1, 32, 16, 28, 28, 3, 3, 1)),
            model("b", LayerShape::gemm(128, 256, 64)),
        ];
        let space = edge_space();
        // Three distinct configurations, each asked for twice.
        let points: Vec<DesignPoint> = (0..6)
            .map(|i| {
                space
                    .minimum_point()
                    .with_index(crate::space::edge::PES, i % 3)
                    .with_index(crate::space::edge::phys_links(1), 31)
            })
            .collect();
        let build = |engine| {
            CodesignEvaluator::new(space.clone(), models.clone(), FixedMapper).with_engine(engine)
        };
        let serial = build(EvalEngine::serial());
        let parallel = build(EvalEngine::with_threads(3));
        let a = serial.evaluate_batch(&points);
        let b = parallel.evaluate_batch(&points);
        // Debug prints every float exactly, so equal text is equal bits.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let (s, p) = (serial.cache_stats().layer, parallel.cache_stats().layer);
        let (distinct_shapes, distinct_configs) = (3, 3);
        assert_eq!(s.misses, distinct_shapes * distinct_configs);
        assert_eq!(p.misses, s.misses);
        assert_eq!(s.entries as u64, s.misses);
        assert_eq!(s.inflight_waits, 0);
        assert_eq!(s.hits, p.hits + p.inflight_waits);

        let shared_outcomes = |e: &Evaluation| -> (Arc<LayerOutcome>, Arc<LayerOutcome>) {
            let find = |name: &str| {
                let l = e.layers.iter().find(|l| &*l.name == name).expect("layer");
                l.outcome.clone()
            };
            (find("a.shared"), find("b.shared"))
        };
        for e in &a {
            let (x, y) = shared_outcomes(e);
            assert!(Arc::ptr_eq(&x, &y), "one outcome for the shared shape");
        }
        // Re-assembly after the point cache is cleared reads the same
        // outcomes; no layer is mapped again.
        let before = shared_outcomes(&a[0]).0;
        let serial = serial.with_objective(Objective::Energy);
        let again = serial.evaluate(&points[0]);
        let (x, y) = shared_outcomes(&again);
        assert!(Arc::ptr_eq(&x, &y) && Arc::ptr_eq(&x, &before));
        assert_eq!(serial.cache_stats().layer.misses, s.misses);
    }
}
