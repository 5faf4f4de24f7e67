//! Codesign evaluators: turn a design point into costs by decoding the
//! hardware configuration, optimizing (or fixing) the mapping of every
//! unique layer, and applying the technology model.
//!
//! Evaluation is **shared-state free at the API level**: [`Evaluator`]
//! takes `&self`, and [`CodesignEvaluator`] keeps its caches behind
//! interior mutability (sharded mutex maps of [`OnceLock`] slots), so one
//! evaluator can serve an arbitrary number of threads concurrently. The
//! parallel entry point is [`Evaluator::evaluate_batch`]; its thread count
//! is controlled by [`EvalEngine`], and `threads = 1` reproduces the serial
//! path bit-for-bit.
//!
//! Evaluation is also **fault-bounded**: each per-layer mapping runs under
//! a panic guard with bounded retries ([`FaultPolicy`], configured on the
//! engine), so a misbehaving mapper degrades a candidate into an
//! [`EvalFault`] — surfaced through [`Evaluator::try_evaluate`] /
//! [`Evaluator::try_evaluate_batch`] — instead of tearing down the search.

use crate::cost::{Constraint, Evaluation, LayerEval};
use crate::diskcache::{self, DiskCache, DiskCacheStats, LayerEntry, LayerOutcome};
use crate::fault::{self, EvalFault, FaultPolicy};
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

/// A snapshot of an evaluator's memo tables, as captured by
/// [`Evaluator::cache_snapshot`] and restored by
/// [`Evaluator::restore_caches`]. It holds only what neither the disk tier
/// nor a replay can supply: the layer outcomes the attached persistent
/// cache lacks, each tagged with the mapper that produced it. Points and
/// evaluations are not stored; a resumed search repeats its points and
/// the evaluator assembles them from the warmed layer cache, so a restore
/// under other models, space, objective, tech or mapper yields that
/// evaluator's own evaluations. Only *successful* outcomes are captured:
/// failed mappings are re-attempted after a resume (the fault may have
/// been environmental).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CacheSnapshot {
    /// Layer outcomes the attached persistent cache does not hold (all of
    /// them without a disk tier).
    pub layers: Vec<LayerEntry>,
}

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
pub trait Evaluator {
    /// Evaluates one point (cached). A fault-bounded implementation maps
    /// permanent failures to an infeasible sentinel (infinite objective and
    /// constraint values); use [`Self::try_evaluate`] to observe the fault.
    fn evaluate(&self, point: &DesignPoint) -> Evaluation;

    /// Evaluates a batch of points, returning evaluations in input order.
    ///
    /// The default implementation is the serial loop; implementations may
    /// parallelize as long as results (including
    /// [`Self::unique_evaluations`] accounting) are identical to the
    /// serial path.
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        points.iter().map(|p| self.evaluate(p)).collect()
    }

    /// Fault-surfacing [`Self::evaluate`]: `Err` when the evaluation failed
    /// permanently at the fault boundary. The default implementation never
    /// fails.
    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        Ok(self.evaluate(point))
    }

    /// Fault-surfacing [`Self::evaluate_batch`], position-aligned with
    /// `points`. The default delegates to [`Self::evaluate_batch`] (so
    /// implementations that only override the infallible path keep their
    /// behavior) and never fails.
    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        self.evaluate_batch(points).into_iter().map(Ok).collect()
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

    /// Captures the completed layer outcomes a resume could not otherwise
    /// recover, for checkpointing. The default (for cacheless evaluators)
    /// captures nothing.
    fn cache_snapshot(&self) -> CacheSnapshot {
        CacheSnapshot::default()
    }

    /// Warms the evaluator's layer cache from a snapshot (the resume path
    /// — call on a freshly built evaluator). The default is a no-op.
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

    fn cache_snapshot(&self) -> CacheSnapshot {
        (**self).cache_snapshot()
    }

    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        (**self).restore_caches(snapshot)
    }

    fn cache_stats(&self) -> CacheStats {
        (**self).cache_stats()
    }
}

/// Parallelism and fault policy for [`Evaluator::evaluate_batch`].
///
/// `threads: None` (the default) uses all available hardware parallelism;
/// `Some(1)` forces the serial path, which is guaranteed bit-for-bit
/// identical to any parallel run — batch results never depend on the
/// thread count, only wall-clock time does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvalEngine {
    /// Worker threads per batch; `None` = available parallelism.
    pub threads: Option<usize>,
    /// Retry policy of the per-layer-mapping fault boundary.
    pub fault: FaultPolicy,
}

impl EvalEngine {
    /// The serial engine (`threads = 1`): today's single-threaded behavior.
    pub fn serial() -> Self {
        EvalEngine {
            threads: Some(1),
            ..EvalEngine::default()
        }
    }

    /// An engine with an explicit worker count (0 is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        EvalEngine {
            threads: Some(threads.max(1)),
            ..EvalEngine::default()
        }
    }

    /// Replaces the fault boundary's retry policy.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
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
/// the thread counts `evaluate_batch` fans out to, small enough that
/// clearing stays trivial.
const CACHE_SHARDS: usize = 16;

/// A sharded concurrent memo table: each key owns a [`OnceLock`] slot, so
/// concurrent requests for the same key compute it exactly once (the loser
/// blocks on the winner instead of duplicating work) while requests for
/// different keys proceed in parallel. Shard mutexes are only held for the
/// map lookup, never during computation.
struct ShardedCache<K, V> {
    shards: [Mutex<HashMap<K, Arc<OnceLock<V>>>>; CACHE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> ShardedCache<K, V> {
    fn new() -> Self {
        ShardedCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
        }
    }

    /// Which of the [`CACHE_SHARDS`] shards holds `key` — also the shard
    /// label used in telemetry counter names.
    fn shard_index(&self, key: &K) -> usize {
        let mut h = std::hash::DefaultHasher::new();
        key.hash(&mut h);
        h.finish() as usize % CACHE_SHARDS
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Arc<OnceLock<V>>>> {
        &self.shards[self.shard_index(key)]
    }

    /// The slot for `key`, inserting an empty one if absent.
    fn slot(&self, key: &K) -> Arc<OnceLock<V>> {
        let mut map = self.shard(key).lock().expect("cache shard poisoned");
        map.entry(key.clone())
            .or_insert_with(|| Arc::new(OnceLock::new()))
            .clone()
    }

    /// Whether `key` has a *completed* entry (an in-flight computation does
    /// not count).
    fn is_cached(&self, key: &K) -> bool {
        let map = self.shard(key).lock().expect("cache shard poisoned");
        map.get(key).is_some_and(|slot| slot.get().is_some())
    }

    /// Every completed `(key, value)` entry, in unspecified order.
    fn completed(&self) -> Vec<(K, V)> {
        let mut entries = Vec::new();
        for shard in &self.shards {
            let map = shard.lock().expect("cache shard poisoned");
            for (k, slot) in map.iter() {
                if let Some(v) = slot.get() {
                    entries.push((k.clone(), v.clone()));
                }
            }
        }
        entries
    }

    /// Pre-fills `key` with a completed `value` (the snapshot-restore
    /// path) without counting traffic. A no-op when the key already has a
    /// completed entry.
    fn insert(&self, key: K, value: V) {
        let _ = self.slot(&key).set(value);
    }

    /// Records one access's classification (see
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

    /// Completed-entry count plus cumulative traffic counters. Clearing
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
                    .filter(|slot| slot.get().is_some())
                    .count()
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

/// The standard DNN codesign evaluator: Table-1 edge space, area and power
/// constraints, and one throughput (latency-ceiling) constraint per target
/// workload. Generic over the mapping optimizer: [`mapper::FixedMapper`]
/// reproduces the fixed-dataflow setting; [`mapper::LinearMapper`] the
/// tightly coupled codesign.
///
/// Thread-safe: all evaluation state (the point/layer memo tables and the
/// unique-evaluation counter) lives behind interior mutability, and
/// [`Evaluator::evaluate_batch`] fans work out over [`EvalEngine`] threads.
///
/// Fault-bounded: each layer mapping runs under
/// [`EvalEngine::fault`]'s panic guard and retry policy, and both memo
/// tables cache failures (`Err`) alongside results, so a permanently
/// faulted `(layer, config)` pair fails fast on re-encounter instead of
/// re-panicking through its retries.
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
    point_cache: ShardedCache<DesignPoint, Result<Evaluation, EvalFault>>,
    layer_cache: ShardedCache<(LayerShape, AcceleratorConfig), Result<LayerOutcome, EvalFault>>,
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
            point_cache: ShardedCache::new(),
            layer_cache: ShardedCache::new(),
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
    /// mapper would recompute). Permanently faulted mappings are *not*
    /// persisted — like the snapshot path, failures are re-attempted by
    /// later runs.
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
    /// parallelism, default [`FaultPolicy`]). [`EvalEngine::serial`] forces
    /// single-threaded batches.
    ///
    /// Changing the engine never invalidates caches: results are identical
    /// for every thread count by construction. (Changing the *fault policy*
    /// of an engine mid-run does not re-attempt already-cached failures.)
    pub fn with_engine(mut self, engine: EvalEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches a telemetry collector. The evaluator then emits per-shard
    /// cache counters (`point_cache/shardNN/{hit,miss,inflight_wait}` and
    /// the `layer_cache/` equivalents), `stage/mapper_us` and
    /// `stage/point_eval_us` timing histograms, fault-boundary counters
    /// (`fault/retries`, `fault/layer_failures`, `fault/point_failures`)
    /// with one warning log per permanent failure, and one
    /// batch-utilization record per [`Evaluator::evaluate_batch`] fan-out
    /// phase.
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
    /// # Panics
    ///
    /// Panics if either limit is non-positive (see
    /// [`Self::try_with_limits`] for the fallible form).
    pub fn with_limits(self, area_mm2: f64, power_w: f64) -> Self {
        self.try_with_limits(area_mm2, power_w)
            .expect("invalid limits")
    }

    /// Fallible [`Self::with_limits`]: rejects non-positive, NaN, or
    /// infinite budgets instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns a description of the offending limit.
    pub fn try_with_limits(mut self, area_mm2: f64, power_w: f64) -> Result<Self, String> {
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

    /// Maps one layer through the fault boundary: the mapper call runs
    /// under a panic guard and is retried per [`EvalEngine::fault`] with
    /// exponential backoff before the failure is cached as a permanent
    /// [`EvalFault`].
    ///
    /// `intra` is the worker budget the mapper may spend *inside* this one
    /// layer's tiling sweep ([`MappingOptimizer::optimize_threaded`]).
    /// Mapper results are bit-identical for every budget, so `intra` is
    /// deliberately absent from both cache keys — a mapping computed with
    /// any budget serves all future requests for this `(shape, cfg)`.
    fn map_layer(
        &self,
        shape: &LayerShape,
        cfg: &AcceleratorConfig,
        intra: usize,
    ) -> Result<LayerOutcome, EvalFault> {
        let key = (*shape, *cfg);
        let slot = self.layer_cache.slot(&key);
        let already = slot.get().is_some();
        let mut computed = false;
        slot.get_or_init(|| {
            computed = true;
            // Disk tier first: a hit fills this slot without running the
            // mapper (and without a `stage/mapper_us` sample — no mapping
            // search happened). Faults never reach disk, so a disk entry
            // is always `Ok`.
            let disk_key = self.disk_cache.as_deref().and_then(|disk| {
                diskcache::layer_key(&self.mapper_fingerprint, shape, cfg)
                    .ok()
                    .map(|k| (disk, k))
            });
            if let Some((disk, k)) = &disk_key {
                if let Some(stored) = disk.get_outcome(k) {
                    return Ok(stored);
                }
            }
            let result = {
                let _mapper_timer = self.telemetry.time("stage/mapper_us");
                let policy = self.engine.fault;
                let mut retries = 0u32;
                loop {
                    let attempt = fault::guard(|| {
                        let mapped = self.mapper.optimize_threaded(shape, cfg, intra);
                        let diagnostic = if mapped.is_none() {
                            self.mapper.diagnose(shape, cfg)
                        } else {
                            None
                        };
                        LayerOutcome { mapped, diagnostic }
                    });
                    match attempt {
                        Ok(outcome) => break Ok(outcome),
                        Err(_) if retries < policy.max_retries => {
                            self.telemetry.counter("fault/retries", 1);
                            let backoff = policy.backoff_before(retries);
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                            retries += 1;
                        }
                        Err(error) => {
                            self.telemetry.counter("fault/layer_failures", 1);
                            if self.telemetry.active() {
                                self.telemetry.log(
                                    Level::Warn,
                                    &format!(
                                        "layer mapping failed permanently after {retries} retries \
                                         ({} PEs): {error}",
                                        cfg.pes
                                    ),
                                );
                            }
                            break Err(EvalFault { error, retries });
                        }
                    }
                }
            };
            if let (Some((disk, k)), Ok(outcome)) = (&disk_key, &result) {
                disk.put_outcome(k, outcome);
            }
            result
        });
        self.layer_cache.note(already, computed);
        if self.telemetry.active() {
            self.cache_counter(
                "layer_cache",
                self.layer_cache.shard_index(&key),
                Self::classify(already, computed),
            );
        }
        slot.get().expect("initialized above").clone()
    }

    /// Assembles one point's costs; `Err` when any layer mapping failed
    /// permanently at the fault boundary.
    fn try_compute(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        let cfg = decode_edge_point(&self.space, point);
        let area = cfg.area_mm2(&self.tech);
        let power = cfg.max_power_w(&self.tech);

        let mut layers = Vec::new();
        let mut per_model_latency = Vec::with_capacity(self.models.len());
        let mut energy_mj = 0.0;
        let mut mappable = true;
        for model in &self.models {
            let mut model_latency = 0.0f64;
            for u in model.unique_shapes() {
                let outcome = self.map_layer(&u.shape, &cfg, 1)?;
                mappable &= outcome.mapped.is_some();
                // Unmappable layers contribute their diagnostic latency —
                // a finite surrogate that keeps a search gradient toward
                // mappability (the design stays infeasible regardless).
                let profile = outcome.mapped.map(|m| m.profile).or(outcome.diagnostic);
                let latency_ms = profile
                    .map(|p| p.latency_ms(cfg.freq_mhz) * u.count as f64)
                    .unwrap_or(f64::INFINITY);
                if let Some(m) = &outcome.mapped {
                    energy_mj += m.profile.energy_mj() * u.count as f64;
                }
                model_latency += latency_ms;
                layers.push(LayerEval {
                    name: u.name,
                    model: model.name().to_string(),
                    count: u.count,
                    profile,
                    mappable: outcome.mapped.is_some(),
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

    /// The infeasible stand-in [`Evaluator::evaluate`] reports for a
    /// permanently failed point (see [`Evaluation::failed`]).
    fn fault_sentinel(&self) -> Evaluation {
        Evaluation::failed(self.constraints.len())
    }

    /// The unique `(layer, config)` mapping tasks this batch would need
    /// that are not yet in the layer cache, in first-appearance order.
    fn pending_layer_tasks(&self, points: &[DesignPoint]) -> Vec<(LayerShape, AcceleratorConfig)> {
        let mut seen = HashSet::new();
        let mut tasks = Vec::new();
        for p in points {
            let cfg = decode_edge_point(&self.space, p);
            for model in &self.models {
                for u in model.unique_shapes() {
                    let key = (u.shape, cfg);
                    if seen.insert(key) && !self.layer_cache.is_cached(&key) {
                        tasks.push(key);
                    }
                }
            }
        }
        tasks
    }

    /// The serial batch path: points evaluated in order on the calling
    /// thread, reported as one `engine/serial` batch record.
    fn serial_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        let evals: Vec<Result<Evaluation, EvalFault>> =
            points.iter().map(|p| self.try_evaluate(p)).collect();
        if self.telemetry.active() && !points.is_empty() {
            self.telemetry.batch(BatchRecord {
                stage: "engine/serial".to_string(),
                items: points.len() as u64,
                threads: 1,
                per_thread: vec![points.len() as u64],
            });
        }
        evals
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
    fn evaluate(&self, point: &DesignPoint) -> Evaluation {
        self.try_evaluate(point)
            .unwrap_or_else(|_| self.fault_sentinel())
    }

    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        let slot = self.point_cache.slot(point);
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
            self.cache_counter(
                "point_cache",
                self.point_cache.shard_index(point),
                Self::classify(already, computed),
            );
        }
        slot.get().expect("initialized above").clone()
    }

    /// Parallel batch evaluation; faults are mapped to the infeasible
    /// sentinel (see [`Self::try_evaluate_batch`] for the fault-surfacing
    /// form, which this method delegates to).
    fn evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Evaluation> {
        self.try_evaluate_batch(points)
            .into_iter()
            .map(|r| r.unwrap_or_else(|_| self.fault_sentinel()))
            .collect()
    }

    /// Parallel batch evaluation. Two fan-out phases on the shared
    /// executor pool with a budget of [`EvalEngine::resolved_threads`]
    /// participants: first the unique uncached `(layer, config)` mapping
    /// tasks (the expensive part, deduplicated so no two workers ever
    /// optimize the same pair), then the per-point cost assembly. Results
    /// are position-aligned with `points` and bit-for-bit identical to the
    /// serial path.
    ///
    /// The fan-out unit is a *layer mapping*, not a point: a batch with a
    /// single candidate but many uncached layers still spreads its mapping
    /// work across all workers, and a batch with one uncached layer hands
    /// that mapping the whole budget for its tiling sweep (intra-layer
    /// parallelism); a phase with at most one item runs inline on the
    /// caller. The serial path is taken only by a one-thread engine.
    ///
    /// Worker panics cannot escape: every mapper call runs under the fault
    /// boundary's panic guard, so a faulted candidate yields `Err` in its
    /// slot while the rest of the batch completes normally.
    ///
    /// With telemetry attached, each phase emits a [`BatchRecord`] with
    /// per-worker pull counts (stages `engine/mapping` and
    /// `engine/points`; a one-thread engine emits `engine/serial`),
    /// plus `engine/layer_jobs` and `engine/point_jobs` counters totalling
    /// the work items the engine distributed.
    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        let _batch_span = self.telemetry.span("eval/batch");
        let threads = self.engine.resolved_threads();
        if threads <= 1 {
            // Kept on purpose: at one thread the two-phase path below does
            // the same evaluations plus work this path skips: a
            // `pending_layer_tasks` pass (every model's unique shapes
            // re-derived per point), a second layer-cache access per layer
            // and two executor scopes. Sending one-thread batches through
            // it measured `fixdf_zoo` cpu_s 1.22-1.29 s -> 1.71-1.78 s and
            // peak RSS 398 -> 417 MiB (perfbench, `EDSE_TEST_THREADS=1`,
            // three alternating pairs, 2-vCPU host).
            return self.serial_batch(points);
        }
        let tasks = self.pending_layer_tasks(points);
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
                let (shape, cfg) = &tasks[i];
                let _ = self.map_layer(shape, cfg, intra);
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

    /// Captures the successful layer outcomes the attached disk tier does
    /// not hold (all of them without one); a resume's `map_layer` finds
    /// the others on disk by key.
    fn cache_snapshot(&self) -> CacheSnapshot {
        let mut layers = Vec::new();
        for ((shape, cfg), v) in self.layer_cache.completed() {
            let Ok(outcome) = v else { continue };
            let on_disk = self.disk_cache.as_ref().is_some_and(|disk| {
                diskcache::layer_key(&self.mapper_fingerprint, &shape, &cfg)
                    .is_ok_and(|key| disk.contains(&key))
            });
            if !on_disk {
                layers.push(LayerEntry {
                    mapper: self.mapper_fingerprint.clone(),
                    shape,
                    cfg,
                    outcome,
                });
            }
        }
        CacheSnapshot { layers }
    }

    /// Inserts the snapshot's outcomes of this evaluator's own mapper into
    /// the layer cache, without calling the mapper or counting traffic;
    /// other mappers' outcomes are ignored. Nothing else is restored: a
    /// resumed search repeats its points, and each is assembled on demand
    /// from the warmed layer cache, so what a restored evaluator returns
    /// never depends on the snapshot's writer.
    fn restore_caches(&self, snapshot: &CacheSnapshot) {
        for e in &snapshot.layers {
            if e.mapper == self.mapper_fingerprint {
                self.layer_cache.insert((e.shape, e.cfg), Ok(e.outcome));
            }
        }
    }

    fn cache_stats(&self) -> CacheStats {
        CacheStats {
            unique_evaluations: self.unique_evaluations(),
            point: self.point_cache.stats(),
            layer: self.layer_cache.stats(),
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
            .with_limits(400.0, 250.0);
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
        assert!(evaluator().try_with_limits(75.0, 4.0).is_ok());
        assert!(evaluator().try_with_limits(0.0, 4.0).is_err());
        assert!(evaluator().try_with_limits(75.0, -1.0).is_err());
        assert!(evaluator().try_with_limits(f64::NAN, 4.0).is_err());
        assert!(evaluator().try_with_limits(f64::INFINITY, 4.0).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid limits")]
    fn with_limits_panics_on_non_positive_budget() {
        let _ = evaluator().with_limits(-5.0, 4.0);
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
        use std::sync::atomic::{AtomicUsize, Ordering};

        /// A mapper that counts optimize calls, to observe the layer cache.
        struct CountingMapper(AtomicUsize);
        impl MappingOptimizer for CountingMapper {
            fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
                self.0.fetch_add(1, Ordering::Relaxed);
                FixedMapper.optimize(layer, cfg)
            }
            fn name(&self) -> String {
                "counting".into()
            }
        }

        let ev = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18()],
            CountingMapper(AtomicUsize::new(0)),
        );
        let p = ev.space().minimum_point();
        let before = ev.evaluate(&p);
        assert_eq!(ev.unique_evaluations(), 1);
        let mapper_calls = ev.mapper.0.load(Ordering::Relaxed);
        assert!(mapper_calls > 0);

        // with_limits: nothing invalidated — the cached evaluation and the
        // unique counter survive, and re-evaluating is a pure cache hit.
        let ev = ev.with_limits(400.0, 250.0);
        assert_eq!(ev.unique_evaluations(), 1);
        let after_limits = ev.evaluate(&p);
        assert_eq!(before, after_limits);
        assert_eq!(ev.unique_evaluations(), 1);
        assert_eq!(ev.mapper.0.load(Ordering::Relaxed), mapper_calls);

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
            ev.mapper.0.load(Ordering::Relaxed),
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
            ev.mapper.0.load(Ordering::Relaxed),
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
        // Every (layer, cfg) pair faults permanently: the point must fail
        // with a caught panic message, not tear down the test.
        let mapper = FaultInjector::new(FixedMapper, 7, 1.1);
        let ev = CodesignEvaluator::new(space, vec![zoo::resnet18()], mapper).with_engine(
            EvalEngine::with_threads(4).with_fault(FaultPolicy {
                max_retries: 1,
                backoff: std::time::Duration::ZERO,
            }),
        );
        let p = ev.space().minimum_point();
        let fault = ev.try_evaluate(&p).expect_err("all layers fault");
        assert!(
            fault.error.contains("injected mapping fault"),
            "panic message surfaced: {}",
            fault.error
        );
        assert_eq!(fault.retries, 1);
        // Failed points consume no budget and are cached as failures.
        assert_eq!(ev.unique_evaluations(), 0);
        assert_eq!(ev.try_evaluate(&p).unwrap_err(), fault);
        // The infallible path degrades to the infeasible sentinel.
        let e = ev.evaluate(&p);
        assert!(!e.mappable);
        assert_eq!(e.objective, f64::INFINITY);
        assert!(!e.feasible(ev.constraints()));
        // Failures are excluded from cache snapshots.
        assert!(ev.cache_snapshot().layers.is_empty());
    }

    #[test]
    fn fault_boundary_retries_recover_transient_faults() {
        use edse_telemetry::MemorySink;
        silence_injected_panics();
        let collector = Collector::builder().sink(MemorySink::new()).build();
        // Every pair faults on its first 2 optimize calls, then succeeds:
        // with 2 retries the evaluation must come out identical to the
        // fault-free one.
        let mapper = FaultInjector::new(FixedMapper, 7, 1.1).recovering_after(2);
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], mapper)
            .with_engine(EvalEngine::serial().with_fault(FaultPolicy {
                max_retries: 2,
                backoff: std::time::Duration::ZERO,
            }))
            .with_telemetry(collector.clone());
        let p = ev.space().minimum_point();
        let healthy = evaluator().evaluate(&p);
        assert_eq!(ev.try_evaluate(&p).expect("recovers on retry"), healthy);
        assert_eq!(ev.unique_evaluations(), 1);
        let layers = zoo::resnet18().unique_shape_count() as u64;
        assert_eq!(collector.counter_value("fault/retries"), 2 * layers);
        assert_eq!(collector.counter_value("fault/layer_failures"), 0);
    }

    fn temp_cache_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("edse-evaltier-{}-{tag}-{n}", std::process::id()))
    }

    /// A mapper that counts optimize calls (used to observe whether the
    /// disk tier short-circuits the mapping search).
    struct TallyMapper(Arc<AtomicUsize>);
    impl MappingOptimizer for TallyMapper {
        fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
            self.0.fetch_add(1, Ordering::Relaxed);
            FixedMapper.optimize(layer, cfg)
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
                TallyMapper(cold_calls.clone()),
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
            TallyMapper(warm_calls.clone()),
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

    #[test]
    fn snapshot_leaves_out_the_outcomes_the_disk_tier_holds() {
        let dir = temp_cache_dir("snapdisk");
        let p = evaluator().space().minimum_point();
        let q = p.with_index(crate::space::edge::PES, 1);
        let layers = zoo::resnet18().unique_shape_count();
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let tally = |calls: &Arc<AtomicUsize>| {
            CodesignEvaluator::new(
                edge_space(),
                vec![zoo::resnet18()],
                TallyMapper(calls.clone()),
            )
            .with_disk_cache(disk.clone())
        };
        let cold_calls = Arc::new(AtomicUsize::new(0));
        let cold = tally(&cold_calls);
        let before = cold.evaluate(&p);
        assert_eq!(cold_calls.load(Ordering::Relaxed), layers);
        let snap = cold.cache_snapshot();
        assert!(snap.layers.is_empty(), "all layer outcomes live on disk");

        // A fresh evaluator on the same disk restores nothing from the
        // snapshot and still maps nothing: every layer is found on disk
        // by key.
        let warm_calls = Arc::new(AtomicUsize::new(0));
        let warm = tally(&warm_calls);
        warm.restore_caches(&snap);
        assert_eq!(warm.evaluate(&p), before);
        assert_eq!(warm_calls.load(Ordering::Relaxed), 0);
        assert_eq!(warm.cache_stats().disk.unwrap().hits as usize, layers);

        // Outcomes computed before a disk tier was attached are not on
        // disk, so the snapshot keeps exactly those.
        let ev = evaluator();
        ev.evaluate(&p);
        let ev = ev.with_disk_cache(disk);
        ev.evaluate(&q);
        let snap = ev.cache_snapshot();
        assert_eq!(snap.layers.len(), layers);
        let cfg = ev.decode(&p);
        assert!(snap.layers.iter().all(|e| e.cfg == cfg));
        drop((cold, warm, ev));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn restored_caches_reproduce_evaluations_without_the_mapper() {
        let ev = evaluator();
        let p = ev.space().minimum_point();
        let q = p.with_index(crate::space::edge::PES, 1);
        let a = ev.evaluate(&p);
        let b = ev.evaluate(&q);
        let snap = ev.cache_snapshot();
        let layers = zoo::resnet18().unique_shape_count();
        assert_eq!(snap.layers.len(), 2 * layers);

        /// A mapper that panics when called, posing as the fixed-dataflow
        /// mapper so the snapshot's outcomes are its own: neither the
        /// restore nor evaluating the saved points may re-map.
        struct NeverMapper;
        impl MappingOptimizer for NeverMapper {
            fn optimize(&self, _: &LayerShape, _: &AcceleratorConfig) -> Option<MappedLayer> {
                panic!("restored caches must not re-map");
            }
            fn name(&self) -> String {
                "never".into()
            }
            fn fingerprint(&self) -> String {
                FixedMapper.fingerprint()
            }
        }

        let fresh = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], NeverMapper);
        fresh.restore_caches(&snap);
        // The restore fills the layer cache only: points are assembled
        // when they are asked for, each once.
        assert_eq!(fresh.unique_evaluations(), 0);
        assert_eq!(fresh.cache_stats().layer.entries, 2 * layers);
        assert_eq!(fresh.evaluate(&p), a);
        assert_eq!(fresh.evaluate(&q), b);
        assert_eq!(fresh.unique_evaluations(), 2);
        let stats = fresh.cache_stats();
        assert_eq!((stats.point.misses, stats.point.hits), (2, 0));
        assert_eq!(
            (stats.layer.misses, stats.layer.hits),
            (0, 2 * layers as u64)
        );

        // Another mapper's outcomes are ignored.
        let other = CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18()],
            TallyMapper(Arc::new(AtomicUsize::new(0))),
        );
        other.restore_caches(&snap);
        assert_eq!(other.cache_stats().layer.entries, 0);
    }
}
