//! Pruned mapping-space construction (dMazeRunner/Interstellar style).
//!
//! The space of valid tilings is constructed stage by stage — spatial
//! factors, register-file factors, scratchpad factors; the DRAM level takes
//! the remainder — with utilization-threshold pruning at every stage.
//! Thresholds are adjusted automatically (paper §4.8) so the resulting
//! space contains between `n_min` and `n_max` tilings whenever the layer
//! admits that many: starting from aggressive thresholds, the builder
//! relaxes them until the space is large enough, mirroring the paper's
//! "top-N mappings by iteratively adjusting pruning thresholds".

use accel_model::{AcceleratorConfig, Level, Mapping, Stationarity, Tiling};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, Mutex};
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// Utilization floors used to prune ineffectual tilings.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Thresholds {
    /// Minimum PE-array utilization.
    pub pe: f64,
    /// Minimum register-file utilization.
    pub rf: f64,
    /// Minimum scratchpad utilization.
    pub spm: f64,
}

impl Thresholds {
    /// The aggressive starting point of the auto-adjustment loop.
    pub fn aggressive() -> Self {
        Self {
            pe: 0.75,
            rf: 0.50,
            spm: 0.25,
        }
    }

    /// Relaxes every threshold by half (one adjustment round).
    pub fn relaxed(self) -> Self {
        Self {
            pe: self.pe * 0.5,
            rf: self.rf * 0.5,
            spm: self.spm * 0.5,
        }
    }
}

/// Size limits for the constructed space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SpaceBudget {
    /// Lower bound on the space size before thresholds are relaxed.
    pub n_min: usize,
    /// Upper bound: the space is truncated to the `n_max` highest-scoring
    /// tilings (utilization product).
    pub n_max: usize,
}

impl SpaceBudget {
    /// The paper's default range `[10, 10000]`.
    pub fn paper_default() -> Self {
        Self {
            n_min: 10,
            n_max: 10_000,
        }
    }

    /// A budget capped at `n` tilings (for quick explorations).
    pub fn top(n: usize) -> Self {
        Self {
            n_min: n.min(10),
            n_max: n,
        }
    }
}

impl Default for SpaceBudget {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// A constructed mapping space: pruned valid tilings for one layer on one
/// hardware configuration, plus the loop-order classes to pair them with.
#[derive(Debug, Clone)]
pub struct MappingSpace {
    tilings: Vec<Tiling>,
    thresholds: Thresholds,
}

impl MappingSpace {
    /// Builds the pruned space.
    ///
    /// Always returns at least one tiling when the layer fits the hardware
    /// at all (the all-DRAM tiling with one PE is valid whenever the unit
    /// working set fits the register file).
    ///
    /// The staged DFS enumeration runs at most once per stage input: the
    /// threshold auto-adjustment re-runs only the cheap filter/assembly
    /// over memoized per-stage choice lists (`StagedEnumerator`),
    /// settling on exactly the tilings and thresholds the original
    /// relax-and-re-enumerate loop would (kept in this crate's tests as
    /// the oracle a property test compares against).
    pub fn build(layer: &LayerShape, cfg: &AcceleratorConfig, budget: SpaceBudget) -> Self {
        let hw = SpaceInputs::of(cfg);
        let mut enumerator = StagedEnumerator::new(layer, &hw, budget);
        let mut thresholds = Thresholds::aggressive();
        let mut tilings = enumerator.select(thresholds);
        let mut rounds = 0;
        while tilings.len() < budget.n_min && rounds < 5 {
            thresholds = thresholds.relaxed();
            tilings = enumerator.select(thresholds);
            rounds += 1;
        }
        if tilings.is_empty() {
            // Last resort: serial execution on one PE if it validates.
            let t = fallback_serial(layer, &hw);
            tilings.extend(t);
        }
        Self {
            tilings,
            thresholds,
        }
    }

    /// [`Self::build`] through a process-wide bounded memo.
    ///
    /// Space construction is a pure function of `(layer, inputs, budget)`,
    /// where `inputs` is the part of `cfg` enumeration reads: PE count,
    /// L1/L2 capacity, element width, and each operand's NoC group cap
    /// `phys × virt` clamped to the PE count. Configs that differ only in
    /// anything else (off-chip bandwidth, NoC width, frequency, DMA
    /// overhead, a NoC cap at or above the PE count) therefore share one
    /// space, so one search that varies those parameters builds each
    /// space once. The clamp is exact: the spatial DFS rejects
    /// `pes_used > pes` before it checks NoC groups, and each operand's
    /// group count is a sub-product of `pes_used`, so a cap at or above
    /// `pes` never prunes. The returned `Arc` always holds exactly what a
    /// fresh `build` would produce — callers get bit-identical spaces
    /// whether the memo hit or missed. The memo is the warm process state
    /// that complements the shared executor pool: repeated batches over
    /// the same layers (DSE iterations, `edse-serve` tenants on the same
    /// workload, warm restarts) skip the dominant enumeration cost and go
    /// straight to the sweep. Concurrent requests for the same key
    /// deduplicate in flight (both wait on one build); the memo is bounded
    /// by approximate byte size and evicts whole shards on overflow, which
    /// only costs future rebuilds, never correctness.
    pub fn build_shared(
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        budget: SpaceBudget,
    ) -> Arc<Self> {
        shared_space_cache().get_or_build(layer, cfg, budget)
    }

    /// The pruned tilings, highest utilization score first.
    pub fn tilings(&self) -> &[Tiling] {
        &self.tilings
    }

    /// The thresholds the auto-adjustment settled on.
    pub fn thresholds(&self) -> Thresholds {
        self.thresholds
    }

    /// Number of tilings in the space.
    pub fn len(&self) -> usize {
        self.tilings.len()
    }

    /// Whether the space is empty (no feasible tiling at all).
    pub fn is_empty(&self) -> bool {
        self.tilings.is_empty()
    }

    /// All candidate mappings: each tiling paired with every combination of
    /// the three maximal-reuse loop-order classes at both memory levels.
    pub fn mappings(&self) -> impl Iterator<Item = Mapping> + '_ {
        self.tilings.iter().flat_map(|t| {
            Stationarity::ALL.into_iter().flat_map(move |spm| {
                Stationarity::ALL
                    .into_iter()
                    .map(move |dram| Mapping::new(*t, spm, dram))
            })
        })
    }
}

/// Hit/miss/in-flight-wait totals for the process-wide space memo.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceCacheStats {
    /// Lookups served by an already-built space.
    pub hits: u64,
    /// Lookups that had to build (first request for a key, or post-evict).
    pub misses: u64,
    /// Lookups that found another thread mid-build and waited on its slot.
    pub inflight_waits: u64,
    /// Shard evictions: how many times a full shard was dropped to stay
    /// under the byte bound.
    pub evictions: u64,
}

/// Everything space enumeration reads of an [`AcceleratorConfig`]. The
/// staged enumerator sees only this, so the compiler proves that configs
/// with equal projections get equal spaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct SpaceInputs {
    pes: u64,
    l1_bytes: u64,
    l2_bytes: u64,
    elem_bytes: u64,
    /// Per-operand NoC group cap, `phys × virt` (saturating).
    noc_caps: [u64; 4],
}

impl SpaceInputs {
    /// The projection the memo keys on: NoC caps clamped to `pes`, where
    /// they stop pruning (see [`MappingSpace::build_shared`]).
    fn of(cfg: &AcceleratorConfig) -> Self {
        let raw = Self::unclamped(cfg);
        Self {
            noc_caps: raw.noc_caps.map(|cap| cap.min(raw.pes)),
            ..raw
        }
    }

    /// The raw caps, which [`Self::of`] clamps (the test-only reference
    /// construction prunes on them directly, so it checks the clamp).
    fn unclamped(cfg: &AcceleratorConfig) -> Self {
        Self {
            pes: cfg.pes,
            l1_bytes: cfg.l1_bytes,
            l2_bytes: cfg.l2_bytes,
            elem_bytes: cfg.elem_bytes,
            noc_caps: std::array::from_fn(|op| {
                cfg.noc_phys_links[op].saturating_mul(cfg.noc_virt_links[op])
            }),
        }
    }
}

type SpaceKey = (LayerShape, SpaceInputs, SpaceBudget);
type SpaceSlot = Arc<std::sync::OnceLock<Arc<MappingSpace>>>;

/// Process-wide memo behind [`MappingSpace::build_shared`]: sharded maps of
/// `OnceLock` slots (so concurrent builders of one key deduplicate in
/// flight), bounded by approximate tiling bytes per shard. Eviction drops a
/// whole shard — coarse, but spaces are pure so the only cost is a rebuild.
struct SharedSpaceCache {
    shards: [Mutex<HashMap<SpaceKey, SpaceSlot>>; SPACE_SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    inflight_waits: AtomicU64,
    evictions: AtomicU64,
}

const SPACE_SHARDS: usize = 16;
/// Per-shard bound on memoized tiling payload (~4 MiB of `Tiling`s per
/// shard, 64 MiB worst case process-wide).
const SPACE_SHARD_BYTE_CAP: usize = 4 << 20;

impl SharedSpaceCache {
    fn new() -> Self {
        SharedSpaceCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            inflight_waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &SpaceKey) -> usize {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SPACE_SHARDS
    }

    fn get_or_build(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        budget: SpaceBudget,
    ) -> Arc<MappingSpace> {
        let key: SpaceKey = (*layer, SpaceInputs::of(cfg), budget);
        let slot = {
            let mut shard = self.shards[self.shard_of(&key)].lock().unwrap();
            if let Some(slot) = shard.get(&key) {
                if slot.get().is_some() {
                    self.hits.fetch_add(1, AtomicOrdering::Relaxed);
                } else {
                    self.inflight_waits.fetch_add(1, AtomicOrdering::Relaxed);
                }
                Arc::clone(slot)
            } else {
                let bytes: usize = shard
                    .values()
                    .filter_map(|s| s.get())
                    .map(|space| space.tilings.len() * std::mem::size_of::<Tiling>())
                    .sum();
                if bytes > SPACE_SHARD_BYTE_CAP {
                    shard.clear();
                    self.evictions.fetch_add(1, AtomicOrdering::Relaxed);
                }
                self.misses.fetch_add(1, AtomicOrdering::Relaxed);
                let slot: SpaceSlot = Arc::new(std::sync::OnceLock::new());
                shard.insert(key, Arc::clone(&slot));
                slot
            }
        };
        Arc::clone(slot.get_or_init(|| Arc::new(MappingSpace::build(layer, cfg, budget))))
    }

    fn stats(&self) -> SpaceCacheStats {
        SpaceCacheStats {
            hits: self.hits.load(AtomicOrdering::Relaxed),
            misses: self.misses.load(AtomicOrdering::Relaxed),
            inflight_waits: self.inflight_waits.load(AtomicOrdering::Relaxed),
            evictions: self.evictions.load(AtomicOrdering::Relaxed),
        }
    }
}

fn shared_space_cache() -> &'static SharedSpaceCache {
    static CACHE: std::sync::OnceLock<SharedSpaceCache> = std::sync::OnceLock::new();
    CACHE.get_or_init(SharedSpaceCache::new)
}

/// Cumulative statistics of the process-wide space memo.
pub fn space_cache_stats() -> SpaceCacheStats {
    shared_space_cache().stats()
}

/// Extents chosen so far at one level, indexed by `Dim::index`.
type Extents = [u64; 7];

fn volume(layer: &LayerShape, ext: &Extents, op: Tensor) -> u64 {
    let get = |d: Dim| ext[d.index()];
    match op {
        Tensor::Weight => get(Dim::M) * get(Dim::C) * get(Dim::Fy) * get(Dim::Fx),
        Tensor::Input => {
            let ch = match layer.kind() {
                workloads::OpKind::DepthwiseConv => get(Dim::M),
                _ => get(Dim::C),
            };
            let iy = (get(Dim::Oy) - 1) * layer.stride() + get(Dim::Fy);
            let ix = (get(Dim::Ox) - 1) * layer.stride() + get(Dim::Fx);
            get(Dim::N) * ch * iy * ix
        }
        Tensor::OutputRead | Tensor::OutputWrite => {
            get(Dim::N) * get(Dim::M) * get(Dim::Oy) * get(Dim::Ox)
        }
    }
}

fn working_set_bytes(layer: &LayerShape, ext: &Extents, elem: u64) -> u64 {
    (volume(layer, ext, Tensor::Input)
        + volume(layer, ext, Tensor::Weight)
        + volume(layer, ext, Tensor::OutputWrite))
        * elem
}

fn divisors(n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            out.push(i);
            if i != n / i {
                out.push(n / i);
            }
        }
        i += 1;
    }
    out.sort_unstable();
    out
}

thread_local! {
    /// Per-thread memo for [`divisors`]: the staged DFS requests the same
    /// few quota values (dimension extents and their quotients) at every
    /// tree node, so factoring them once per thread removes the dominant
    /// allocation/sort cost of enumeration. Thread-local keeps space
    /// construction lock-free across engine threads.
    static DIVISORS: RefCell<HashMap<u64, Rc<[u64]>>> = RefCell::new(HashMap::new());
}

/// Memoized [`divisors`].
fn cached_divisors(n: u64) -> Rc<[u64]> {
    DIVISORS.with(|cache| {
        cache
            .borrow_mut()
            .entry(n)
            .or_insert_with(|| divisors(n).into())
            .clone()
    })
}

/// Per-dimension divisor lists, indexed by [`Dim::index`]. A DFS stage's
/// quotas are fixed for the whole run, so the lists are fetched once up
/// front and the recursion itself touches no cache.
type DimDivisors = [Rc<[u64]>; 7];

fn quota_divisors<Q: Fn(Dim) -> u64>(quota: Q) -> DimDivisors {
    // `Dim::ALL[i].index() == i`, so this array is indexed by `Dim::index`.
    Dim::ALL.map(|d| cached_divisors(quota(d)))
}

/// Stage caps keep each stage's fan-out bounded; they scale with the
/// requested space size.
fn stage_caps(budget: SpaceBudget) -> (usize, usize, usize) {
    let n = budget.n_max.max(10);
    let spatial = (n / 16).clamp(8, 128);
    let rf = (n / 64).clamp(4, 32);
    let l2 = (n / 128).clamp(4, 24);
    (spatial, rf, l2)
}

/// Single-pass space enumeration: each DFS stage (spatial, per-spatial
/// register-file, per-(spatial, rf) scratchpad) runs at most once per
/// distinct input and its sorted choice list is memoized, because none of
/// the stages depend on the pruning thresholds — only the filter/assembly
/// over their outputs does. [`StagedEnumerator::select`] re-runs just that
/// cheap selection per threshold level, so the auto-adjustment loop in
/// [`MappingSpace::build`] costs one enumeration instead of up to six.
///
/// `select(th)` reproduces `enumerate(layer, cfg, th, budget)` exactly:
/// identical tilings in identical order, including the keep-the-best-few
/// fallbacks taken when a threshold filters a stage to nothing.
struct StagedEnumerator<'a> {
    layer: &'a LayerShape,
    hw: &'a SpaceInputs,
    budget: SpaceBudget,
    /// Spatial-stage choices, PE utilization, sorted highest first.
    spatial: Vec<(Extents, f64)>,
    /// Per-spatial-choice sorted RF-stage choice lists.
    rf: HashMap<Extents, Vec<(Extents, f64)>>,
    /// Per-(spatial, rf) sorted scratchpad-stage choice lists.
    l2: HashMap<(Extents, Extents), Vec<(Extents, f64)>>,
}

impl<'a> StagedEnumerator<'a> {
    fn new(layer: &'a LayerShape, hw: &'a SpaceInputs, budget: SpaceBudget) -> Self {
        // The spatial stage has a single input; enumerate it eagerly.
        let spatial_dims = [Dim::M, Dim::C, Dim::Oy, Dim::Ox];
        let mut spatial: Vec<(Extents, f64)> = Vec::new();
        let mut sp = [1u64; 7];
        let spatial_divs = quota_divisors(|d| layer.dim(d));
        dfs_spatial(
            layer,
            hw,
            &spatial_dims,
            &spatial_divs,
            0,
            &mut sp,
            1,
            [1; 4],
            &mut spatial,
            4096,
        );
        spatial.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        Self {
            layer,
            hw,
            budget,
            spatial,
            rf: HashMap::new(),
            l2: HashMap::new(),
        }
    }

    /// One threshold level's space: filter each memoized stage list and
    /// assemble tilings, mirroring `enumerate` step for step.
    fn select(&mut self, th: Thresholds) -> Vec<Tiling> {
        let StagedEnumerator {
            layer,
            hw,
            budget,
            spatial,
            rf,
            l2,
        } = self;
        let (layer, hw, budget) = (*layer, *hw, *budget);
        let (spatial_cap, rf_cap, l2_cap) = stage_caps(budget);
        let elem = hw.elem_bytes;

        let mut kept_spatial: Vec<Extents> = spatial
            .iter()
            .filter(|(_, u)| *u >= th.pe)
            .map(|(e, _)| *e)
            .take(spatial_cap)
            .collect();
        if kept_spatial.is_empty() {
            kept_spatial = spatial
                .iter()
                .map(|(e, _)| *e)
                .take(4.min(spatial_cap))
                .collect();
        }

        let mut result: Vec<(Tiling, f64)> = Vec::new();

        for sp in &kept_spatial {
            let rf_choices = rf.entry(*sp).or_insert_with(|| {
                let rf_divs = quota_divisors(|d| layer.dim(d) / sp[d.index()]);
                fill_choices(
                    layer,
                    &[Dim::C, Dim::Fy, Dim::Fx, Dim::Ox],
                    &rf_divs,
                    &[1u64; 7],
                    elem,
                    hw.l1_bytes,
                    1024,
                    rf_cap,
                )
            });
            let mut kept_rf: Vec<Extents> = rf_choices
                .iter()
                .filter(|(_, u)| *u >= th.rf)
                .map(|(e, _)| *e)
                .take(rf_cap)
                .collect();
            if kept_rf.is_empty() {
                kept_rf = rf_choices
                    .iter()
                    .map(|(e, _)| *e)
                    .take(2.min(rf_cap))
                    .collect();
            }

            for rfe in &kept_rf {
                let l2_choices = l2.entry((*sp, *rfe)).or_insert_with(|| {
                    // The SPM tile's extent for dim `i` is `sp * rf * l2`:
                    // the outer stages contribute a fixed per-dim base.
                    let mut base = [1u64; 7];
                    for d in Dim::ALL {
                        let i = d.index();
                        base[i] = rfe[i] * sp[i];
                    }
                    let l2_divs =
                        quota_divisors(|d| layer.dim(d) / (sp[d.index()] * rfe[d.index()]));
                    fill_choices(
                        layer,
                        &Dim::ALL,
                        &l2_divs,
                        &base,
                        elem,
                        hw.l2_bytes,
                        512,
                        l2_cap,
                    )
                });
                let mut kept_l2: Vec<(Extents, f64)> = l2_choices
                    .iter()
                    .filter(|(_, u)| *u >= th.spm)
                    .take(l2_cap)
                    .cloned()
                    .collect();
                if kept_l2.is_empty() {
                    kept_l2 = l2_choices.iter().take(2.min(l2_cap)).cloned().collect();
                }

                let pe_util = sp.iter().product::<u64>() as f64 / hw.pes as f64;
                for (l2e, spm_util) in kept_l2 {
                    let mut factors = [[1u64; 4]; 7];
                    let mut ok = true;
                    for d in Dim::ALL {
                        let i = d.index();
                        let product = rfe[i] * sp[i] * l2e[i];
                        if !layer.dim(d).is_multiple_of(product) {
                            ok = false;
                            break;
                        }
                        factors[i][Level::Rf.index()] = rfe[i];
                        factors[i][Level::Spatial.index()] = sp[i];
                        factors[i][Level::Spm.index()] = l2e[i];
                        factors[i][Level::Dram.index()] = layer.dim(d) / product;
                    }
                    if !ok {
                        continue;
                    }
                    if let Ok(t) = Tiling::from_factors(layer, factors) {
                        result.push((t, pe_util * (1.0 + spm_util)));
                    }
                }
            }
            if result.len() >= budget.n_max * 2 {
                break;
            }
        }

        result.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        result.dedup_by(|a, b| a.0 == b.0);
        result.truncate(budget.n_max);
        result.into_iter().map(|(t, _)| t).collect()
    }
}

/// Fixed per-run parameters of [`dfs_fill_fast`].
struct WsParams {
    stride: u64,
    /// Depthwise layers draw input channels from `M` instead of `C`.
    dw: bool,
    elem: u64,
    cap_bytes: u64,
}

/// Incrementally maintained per-tensor volume products over the *full*
/// extents `e[i] = base[i] * ext[i]` of one [`dfs_fill_fast`] node. Every
/// field is a plain `u64` product of extent factors, so multiplying the
/// changed dimension's factor in at each recursion step yields *exactly*
/// the integer [`working_set_bytes`] would compute from scratch —
/// `u64` multiplication is exact and order-independent, unlike `f64`.
#[derive(Clone, Copy)]
struct WsState {
    /// `e[N] * channels` — the input volume without its `iy * ix` plane.
    nch: u64,
    /// Weight volume `e[M] * e[C] * e[Fy] * e[Fx]`.
    w: u64,
    /// Output volume `e[N] * e[M] * e[Oy] * e[Ox]`.
    o: u64,
    /// Full extents of the four dims the input plane couples non-multiplicatively.
    oy: u64,
    fy: u64,
    ox: u64,
    fx: u64,
}

impl WsState {
    /// State of the DFS root, where every `ext[i]` is still 1 so the full
    /// extents equal `base`.
    fn root(base: &Extents, p: &WsParams) -> Self {
        let get = |d: Dim| base[d.index()];
        let ch = if p.dw { get(Dim::M) } else { get(Dim::C) };
        WsState {
            nch: get(Dim::N) * ch,
            w: get(Dim::M) * get(Dim::C) * get(Dim::Fy) * get(Dim::Fx),
            o: get(Dim::N) * get(Dim::M) * get(Dim::Oy) * get(Dim::Ox),
            oy: get(Dim::Oy),
            fy: get(Dim::Fy),
            ox: get(Dim::Ox),
            fx: get(Dim::Fx),
        }
    }

    /// The working set in bytes: identical to
    /// `working_set_bytes(layer, &e, elem)` over the full extents `e`.
    fn bytes(&self, p: &WsParams) -> u64 {
        let iy = (self.oy - 1) * p.stride + self.fy;
        let ix = (self.ox - 1) * p.stride + self.fx;
        (self.nch * iy * ix + self.w + self.o) * p.elem
    }

    /// The state after growing dim `d`'s extent by factor `f` from its base
    /// value (the parent always holds `ext[d] == 1`, i.e. `e[d] == base[d]`).
    fn scaled(mut self, d: Dim, f: u64, base_d: u64, dw: bool) -> Self {
        match d {
            Dim::N => {
                self.nch *= f;
                self.o *= f;
            }
            Dim::M => {
                self.w *= f;
                self.o *= f;
                if dw {
                    self.nch *= f;
                }
            }
            Dim::C => {
                self.w *= f;
                if !dw {
                    self.nch *= f;
                }
            }
            Dim::Fy => {
                self.w *= f;
                self.fy = base_d * f;
            }
            Dim::Fx => {
                self.w *= f;
                self.fx = base_d * f;
            }
            Dim::Oy => {
                self.o *= f;
                self.oy = base_d * f;
            }
            Dim::Ox => {
                self.o *= f;
                self.ox = base_d * f;
            }
        }
        self
    }
}

/// The dims from `dims` that actually have a choice to make: a dim whose
/// divisor list is just `[1]` pins `ext[d] = 1` at every leaf, so walking
/// it only adds a single-child chain of nodes. Skipping such dims changes
/// neither the leaves nor their order — `ext[d]` stays at its initial 1.
fn active_dims(dims: &[Dim], divs: &DimDivisors) -> Vec<Dim> {
    dims.iter()
        .copied()
        .filter(|d| divs[d.index()].len() > 1)
        .collect()
}

/// The autovectorizer-era rewrite of the reference `dfs_fill` used by the
/// staged enumerator's hot path: same tree, same pruning decisions, same
/// leaves in the same order, but the working set is maintained
/// incrementally in [`WsState`] (a couple of `u64` multiplies per node
/// instead of three from-scratch volume computations) and quota-1 dims are
/// skipped via [`active_dims`]. `base[i]` is the fixed multiplier the
/// outer stages contribute to dim `i`'s full extent (all ones for the
/// register-file stage, `spatial * rf` for the scratchpad stage), replacing
/// the `working_set(spm_ext(ext))` closure composition. A property test
/// pins this path to that closure-based oracle.
#[allow(clippy::too_many_arguments)]
fn dfs_fill_fast(
    dims: &[Dim],
    divs: &DimDivisors,
    base: &Extents,
    i: usize,
    ext: &mut Extents,
    st: WsState,
    p: &WsParams,
    out: &mut Vec<(Extents, f64)>,
    max_leaves: usize,
) {
    if out.len() >= max_leaves {
        return;
    }
    let ws = st.bytes(p);
    if ws > p.cap_bytes {
        return;
    }
    if i == dims.len() {
        out.push((*ext, ws as f64 / p.cap_bytes as f64));
        return;
    }
    let d = dims[i];
    let base_d = base[d.index()];
    for &f in divs[d.index()].iter().rev() {
        ext[d.index()] = f;
        dfs_fill_fast(
            dims,
            divs,
            base,
            i + 1,
            ext,
            st.scaled(d, f, base_d, p.dw),
            p,
            out,
            max_leaves,
        );
    }
    ext[d.index()] = 1;
}

/// Exact top-`k` variant of [`dfs_fill_fast`]: maintains `best` as the
/// descending-sorted top-`k` feasible leaves (DFS order breaking score
/// ties, as a stable sort of the full leaf list would) and prunes any
/// subtree whose working-set *upper bound* — every remaining dim at its
/// largest divisor, clamped to the capacity — cannot beat the current
/// `k`-th score. Pruning on `bound <= k-th` is safe even at equality:
/// everything already in `best` was visited earlier in DFS order, so an
/// equal-scoring later leaf would sort after it and never enter the top-k.
#[allow(clippy::too_many_arguments)]
fn dfs_topk(
    dims: &[Dim],
    divs: &DimDivisors,
    base: &Extents,
    max_div: &[u64],
    i: usize,
    ext: &mut Extents,
    st: WsState,
    p: &WsParams,
    best: &mut Vec<(Extents, f64)>,
    k: usize,
) {
    let ws = st.bytes(p);
    if ws > p.cap_bytes {
        return;
    }
    if i == dims.len() {
        let score = ws as f64 / p.cap_bytes as f64;
        let pos = best.partition_point(|&(_, s)| s >= score);
        if pos < k {
            best.insert(pos, (*ext, score));
            best.truncate(k);
        }
        return;
    }
    if best.len() == k {
        let mut b = st;
        for j in i..dims.len() {
            b = b.scaled(dims[j], max_div[j], base[dims[j].index()], p.dw);
        }
        let bound = b.bytes(p).min(p.cap_bytes) as f64 / p.cap_bytes as f64;
        if bound <= best[k - 1].1 {
            return;
        }
    }
    let d = dims[i];
    let base_d = base[d.index()];
    for &f in divs[d.index()].iter().rev() {
        ext[d.index()] = f;
        dfs_topk(
            dims,
            divs,
            base,
            max_div,
            i + 1,
            ext,
            st.scaled(d, f, base_d, p.dw),
            p,
            best,
            k,
        );
    }
    ext[d.index()] = 1;
}

/// Runs the incremental DFS over `dims` with outer-stage multipliers
/// `base` and returns the choice list sorted highest-utilization-first,
/// truncated to the top `k` — exactly the prefix the closure-based stages
/// of the reference `enumerate` would go on to consume: every use filters
/// to a threshold (which keeps a *prefix* of the descending-sorted list)
/// and then takes at most `k`, so entries past the `k`-th can never be
/// observed, at this or any relaxed threshold.
///
/// When the full leaf count provably fits under `max_leaves` (product of
/// divisor-list lengths over the active dims), the top-k is found with the
/// branch-and-bound [`dfs_topk`]; otherwise the leaf cap could bind, its
/// first-`max_leaves`-in-DFS-order semantics matter, and the full
/// enumeration of [`dfs_fill_fast`] is used so the result stays identical
/// to the oracle.
#[allow(clippy::too_many_arguments)]
fn fill_choices(
    layer: &LayerShape,
    dims: &[Dim],
    divs: &DimDivisors,
    base: &Extents,
    elem: u64,
    cap_bytes: u64,
    max_leaves: usize,
    k: usize,
) -> Vec<(Extents, f64)> {
    let p = WsParams {
        stride: layer.stride(),
        dw: layer.kind() == workloads::OpKind::DepthwiseConv,
        elem,
        cap_bytes,
    };
    let active = active_dims(dims, divs);
    let mut ext = [1u64; 7];
    let possible: usize = active
        .iter()
        .map(|d| divs[d.index()].len())
        .try_fold(1usize, |acc, n| acc.checked_mul(n))
        .unwrap_or(usize::MAX);
    if possible <= max_leaves && k > 0 {
        let max_div: Vec<u64> = active
            .iter()
            .map(|d| *divs[d.index()].last().expect("divisor lists are nonempty"))
            .collect();
        let mut best = Vec::with_capacity(k + 1);
        dfs_topk(
            &active,
            divs,
            base,
            &max_div,
            0,
            &mut ext,
            WsState::root(base, &p),
            &p,
            &mut best,
            k,
        );
        return best;
    }
    let mut choices = Vec::new();
    dfs_fill_fast(
        &active,
        divs,
        base,
        0,
        &mut ext,
        WsState::root(base, &p),
        &p,
        &mut choices,
        max_leaves,
    );
    choices.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    choices.truncate(k);
    choices
}

/// DFS over spatial factor choices with PE-budget and NoC-capacity pruning.
/// Divisors are visited in descending order and enumeration stops at
/// `max_leaves`, so the highest-parallelism choices are collected first.
///
/// `pes_used` and per-operand NoC `groups` are carried down the recursion
/// incrementally (dims at depth ≥ `i` are still 1, so the running products
/// equal the full products the checks need).
#[allow(clippy::too_many_arguments)]
fn dfs_spatial(
    layer: &LayerShape,
    hw: &SpaceInputs,
    dims: &[Dim],
    divs: &DimDivisors,
    i: usize,
    sp: &mut Extents,
    pes_used: u64,
    groups: [u64; 4],
    out: &mut Vec<(Extents, f64)>,
    max_leaves: usize,
) {
    if out.len() >= max_leaves {
        return;
    }
    if pes_used > hw.pes {
        return;
    }
    // NoC capacity: groups per operand only grow with more spatial factors.
    for op in Tensor::ALL {
        if groups[op.index()] > hw.noc_caps[op.index()] {
            return;
        }
    }
    if i == dims.len() {
        out.push((*sp, pes_used as f64 / hw.pes as f64));
        return;
    }
    let d = dims[i];
    for &f in divs[d.index()].iter().rev() {
        sp[d.index()] = f;
        let mut g = groups;
        for op in Tensor::ALL {
            if layer.relevant(op, d) {
                g[op.index()] *= f;
            }
        }
        dfs_spatial(
            layer,
            hw,
            dims,
            divs,
            i + 1,
            sp,
            pes_used * f,
            g,
            out,
            max_leaves,
        );
    }
    sp[d.index()] = 1;
}

/// Serial single-PE execution, valid whenever a unit working set fits L1.
fn fallback_serial(layer: &LayerShape, hw: &SpaceInputs) -> Option<Tiling> {
    let mut factors = [[1u64; 4]; 7];
    for d in Dim::ALL {
        factors[d.index()][Level::Dram.index()] = layer.dim(d);
    }
    let t = Tiling::from_factors(layer, factors).ok()?;
    let unit = working_set_bytes(layer, &[1; 7], hw.elem_bytes);
    (unit <= hw.l1_bytes).then_some(t)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use accel_model::Validity;

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    #[test]
    fn space_is_nonempty_and_valid() {
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&layer(), &cfg, SpaceBudget::top(200));
        assert!(!space.is_empty());
        assert!(space.len() <= 200);
        // Every tiling validates against layer and hardware.
        let l = layer();
        for t in space.tilings() {
            let m = Mapping::new(
                *t,
                Stationarity::OutputStationary,
                Stationarity::OutputStationary,
            );
            Validity::check(&cfg, &l, &m).expect("space must only contain feasible tilings");
        }
    }

    #[test]
    fn mappings_are_nine_per_tiling() {
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&layer(), &cfg, SpaceBudget::top(20));
        assert_eq!(space.mappings().count(), space.len() * 9);
    }

    #[test]
    fn thresholds_relax_for_tiny_hardware() {
        // The minimum config can't reach aggressive utilization for a big
        // layer, so the builder must relax thresholds rather than fail.
        let cfg = AcceleratorConfig::edge_minimum();
        let space = MappingSpace::build(&layer(), &cfg, SpaceBudget::paper_default());
        assert!(!space.is_empty());
        assert!(space.thresholds().pe <= Thresholds::aggressive().pe);
    }

    #[test]
    fn gemm_space_builds() {
        let g = LayerShape::gemm(1000, 1, 512);
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&g, &cfg, SpaceBudget::top(100));
        assert!(!space.is_empty());
    }

    #[test]
    fn depthwise_space_builds() {
        let d = LayerShape::dwconv(1, 96, 56, 56, 3, 3, 1);
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&d, &cfg, SpaceBudget::top(100));
        assert!(!space.is_empty());
    }

    #[test]
    fn larger_budget_yields_no_smaller_space() {
        let cfg = AcceleratorConfig::edge_baseline();
        let small = MappingSpace::build(&layer(), &cfg, SpaceBudget::top(20));
        let large = MappingSpace::build(&layer(), &cfg, SpaceBudget::top(500));
        assert!(large.len() >= small.len());
    }

    #[test]
    fn divisors_helper() {
        assert_eq!(divisors(12), vec![1, 2, 3, 4, 6, 12]);
        assert_eq!(divisors(1), vec![1]);
        assert_eq!(divisors(7), vec![1, 7]);
    }

    #[test]
    fn shared_memo_is_bit_identical_to_a_fresh_build_and_then_hits() {
        let cfg = AcceleratorConfig::edge_baseline();
        let budget = SpaceBudget::top(37);
        let fresh = MappingSpace::build(&layer(), &cfg, budget);
        let shared = MappingSpace::build_shared(&layer(), &cfg, budget);
        assert_eq!(shared.tilings(), fresh.tilings());
        assert_eq!(shared.thresholds(), fresh.thresholds());
        // A second call must be a memo hit handing back the same space.
        let before = space_cache_stats();
        let again = MappingSpace::build_shared(&layer(), &cfg, budget);
        let after = space_cache_stats();
        assert!(Arc::ptr_eq(&shared, &again));
        assert_eq!(after.hits, before.hits + 1);
        assert_eq!(after.misses, before.misses);
    }

    /// A layer and budget no other test uses, so each memo test below
    /// starts from its own keys.
    fn memo_layer() -> LayerShape {
        LayerShape::conv(1, 32, 48, 14, 14, 3, 3, 1)
    }

    #[test]
    fn configs_that_differ_only_outside_the_projection_share_one_space() {
        let base = AcceleratorConfig::edge_baseline();
        // edge_baseline's NoC caps are 16 x 64 = 1024, above its 256 PEs.
        assert!(base.noc_phys_links[0] * base.noc_virt_links[0] > base.pes);
        let budget = SpaceBudget::top(41);
        let shared = MappingSpace::build_shared(&memo_layer(), &base, budget);
        let variants = [
            AcceleratorConfig {
                offchip_bw_mbps: 2 * base.offchip_bw_mbps,
                ..base
            },
            AcceleratorConfig {
                noc_width_bits: 2 * base.noc_width_bits,
                ..base
            },
            AcceleratorConfig {
                freq_mhz: 2 * base.freq_mhz,
                ..base
            },
            AcceleratorConfig {
                dma_burst_overhead_cycles: 2 * base.dma_burst_overhead_cycles,
                ..base
            },
            // A cap moved between two values at or above `pes`.
            AcceleratorConfig {
                noc_phys_links: [16, 4, 16, 16],
                noc_virt_links: [64, 64, 64, u64::MAX],
                ..base
            },
        ];
        for cfg in variants {
            let again = MappingSpace::build_shared(&memo_layer(), &cfg, budget);
            assert!(Arc::ptr_eq(&shared, &again), "{cfg:?} missed the memo");
            let fresh = MappingSpace::build_reference(&memo_layer(), &cfg, budget);
            assert_eq!(again.tilings(), fresh.tilings());
            assert_eq!(again.thresholds(), fresh.thresholds());
        }
    }

    #[test]
    fn configs_that_differ_inside_the_projection_get_their_own_space() {
        let base = AcceleratorConfig::edge_baseline();
        let budget = SpaceBudget::top(43);
        let shared = MappingSpace::build_shared(&memo_layer(), &base, budget);
        let variants = [
            AcceleratorConfig {
                pes: 2 * base.pes,
                ..base
            },
            AcceleratorConfig {
                l1_bytes: 2 * base.l1_bytes,
                ..base
            },
            AcceleratorConfig {
                l2_bytes: 2 * base.l2_bytes,
                ..base
            },
            AcceleratorConfig {
                elem_bytes: 2 * base.elem_bytes,
                ..base
            },
            // The output-write cap drops to 8 x 8 = 64, below the 256 PEs.
            AcceleratorConfig {
                noc_phys_links: [16, 16, 16, 8],
                noc_virt_links: [64, 64, 64, 8],
                ..base
            },
        ];
        for cfg in variants {
            let other = MappingSpace::build_shared(&memo_layer(), &cfg, budget);
            assert!(!Arc::ptr_eq(&shared, &other), "{cfg:?} hit the memo");
            let fresh = MappingSpace::build_reference(&memo_layer(), &cfg, budget);
            assert_eq!(other.tilings(), fresh.tilings());
            assert_eq!(other.thresholds(), fresh.thresholds());
        }
    }
}
