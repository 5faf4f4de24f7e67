//! Mapping optimizers: the dMazeRunner-style linear explorer over the
//! pruned space, and the black-box mappers (random / simulated annealing /
//! genetic) the paper compares in §F and Fig. 15.
//!
//! All optimizers are **shared-state free**: [`MappingOptimizer`] takes
//! `&self` and requires `Send + Sync`, so one optimizer instance can serve
//! many threads of a parallel evaluation engine concurrently. Stochastic
//! mappers keep only an immutable `seed` and derive an independent RNG
//! stream per `(layer, cfg)` call via [`derived_rng`], which makes their
//! results deterministic regardless of call order or thread interleaving —
//! the property the batch evaluator's "parallel equals serial" guarantee
//! rests on.

use crate::space::{MappingSpace, SpaceBudget};
use crate::sweep::{self, SweepConf, ALL_ORDERINGS};
use accel_model::mapping::prime_factors;
use accel_model::{AcceleratorConfig, ExecutionProfile, Mapping, Stationarity, Tiling};
use edse_telemetry::Collector;
use energy_area::Tech;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use workloads::layer::Dim;
use workloads::LayerShape;

/// An optimized mapping with its evaluated execution profile.
///
/// `edse-core`'s disk tier persists it per `(mapper, layer, config)`, so
/// a rerun reads it back without re-running the mapping search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MappedLayer {
    /// The chosen mapping.
    pub mapping: Mapping,
    /// Its execution profile on the target configuration.
    pub profile: ExecutionProfile,
}

/// A mapping optimizer: finds a low-latency mapping of a layer onto a
/// hardware configuration.
///
/// Implementations must be callable from multiple threads at once
/// (`&self` + `Send + Sync`); any per-call randomness must be derived
/// from the call inputs (see [`derived_rng`]) so results do not depend
/// on invocation order.
pub trait MappingOptimizer: Send + Sync {
    /// Optimizes the mapping of `layer` on `cfg`.
    ///
    /// Returns `None` when no feasible mapping was found within the
    /// optimizer's budget.
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer>;

    /// [`Self::optimize`] with a thread-budget hint for *intra-layer*
    /// parallelism: an implementation may split this one call's tiling
    /// sweep across up to `threads` worker threads, but its result MUST be
    /// bit-identical to [`Self::optimize`] for every thread count — the
    /// evaluation engine's "parallel equals serial" guarantee extends
    /// inside a layer. The default ignores the hint.
    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        let _ = threads;
        self.optimize(layer, cfg)
    }

    /// Short name for reports, e.g. `"linear"` or `"random-10000"`.
    fn name(&self) -> String;

    /// A stable identity for *persistent* (cross-process) cache keys: must
    /// capture every knob that can change this optimizer's results,
    /// including seeds and parameters [`Self::name`] omits for display.
    /// Two optimizers with equal fingerprints must produce identical
    /// outcomes for every `(layer, config)` pair.
    ///
    /// The default is [`Self::name`] — correct only for optimizers whose
    /// name already encodes their full configuration (e.g. the
    /// parameterless fixed-dataflow mapper); every stochastic or
    /// multi-knob optimizer must override this.
    fn fingerprint(&self) -> String {
        self.name()
    }

    /// Diagnostic fallback for designs where [`Self::optimize`] finds no
    /// feasible mapping: the greedy fixed-dataflow mapping executed with
    /// the NoC-capacity check relaxed. The profile reflects the time-shared
    /// serialization the design *would* need, letting bottleneck analysis
    /// explain the hardware/dataflow incompatibility and predict the link
    /// counts that would repair it.
    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        let m = Mapping::fixed_output_stationary(layer, cfg);
        cfg.execute_relaxed(layer, &m).ok()
    }
}

impl MappingOptimizer for Box<dyn MappingOptimizer> {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        (**self).optimize(layer, cfg)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        (**self).optimize_threaded(layer, cfg, threads)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn fingerprint(&self) -> String {
        (**self).fingerprint()
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        (**self).diagnose(layer, cfg)
    }
}

impl<M: MappingOptimizer> MappingOptimizer for &M {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        (**self).optimize(layer, cfg)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        (**self).optimize_threaded(layer, cfg, threads)
    }

    fn name(&self) -> String {
        (**self).name()
    }

    fn fingerprint(&self) -> String {
        (**self).fingerprint()
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        (**self).diagnose(layer, cfg)
    }
}

/// Wraps any mapping optimizer with telemetry, leaving results untouched:
/// every [`MappingOptimizer::optimize`] call opens a `mapper/<name>` span
/// (parented under whatever evaluator span is live on the calling
/// thread), increments `mapper/<name>/{feasible,infeasible}` by outcome,
/// and observes its wall-clock duration into the
/// `mapper/<name>/optimize_us` histogram.
///
/// Useful for mapper-focused studies (Fig. 15): attach one collector to
/// several instrumented mappers and compare call counts, failure rates,
/// and per-call cost side by side. With a no-op collector the wrapper
/// forwards directly (one branch of overhead).
pub struct InstrumentedMapper<M> {
    inner: M,
    telemetry: Collector,
    // Metric names are fixed at construction, so the per-call path
    // allocates nothing beyond the span events themselves.
    span_name: String,
    timer_metric: String,
    feasible_metric: String,
    infeasible_metric: String,
}

impl<M: MappingOptimizer> InstrumentedMapper<M> {
    /// Wraps `inner`, labeling all metrics with its [`MappingOptimizer::name`].
    pub fn new(inner: M, telemetry: Collector) -> Self {
        let prefix = format!("mapper/{}", inner.name());
        InstrumentedMapper {
            timer_metric: format!("{prefix}/optimize_us"),
            feasible_metric: format!("{prefix}/feasible"),
            infeasible_metric: format!("{prefix}/infeasible"),
            span_name: prefix,
            inner,
            telemetry,
        }
    }

    /// Unwraps the inner optimizer.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: MappingOptimizer> InstrumentedMapper<M> {
    /// Shared instrumentation for both optimize entry points.
    fn observe(&self, run: impl FnOnce(&M) -> Option<MappedLayer>) -> Option<MappedLayer> {
        if !self.telemetry.active() {
            return run(&self.inner);
        }
        let result = {
            let _span = self.telemetry.span(&self.span_name);
            let _timer = self.telemetry.time(&self.timer_metric);
            run(&self.inner)
        };
        let outcome = if result.is_some() {
            &self.feasible_metric
        } else {
            &self.infeasible_metric
        };
        self.telemetry.counter(outcome, 1);
        result
    }
}

impl<M: MappingOptimizer> MappingOptimizer for InstrumentedMapper<M> {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.observe(|inner| inner.optimize(layer, cfg))
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        self.observe(|inner| inner.optimize_threaded(layer, cfg, threads))
    }

    fn name(&self) -> String {
        self.inner.name()
    }

    fn fingerprint(&self) -> String {
        // Observation never changes results: instrumented and bare
        // mappers share persistent cache entries.
        self.inner.fingerprint()
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        self.inner.diagnose(layer, cfg)
    }
}

/// Deterministically injects mapping faults (panics), for exercising an
/// evaluation fault boundary — panic containment and graceful degradation
/// — in tests and fault drills.
///
/// Whether a `(layer, cfg)` pair is *faulty* is a pure function of the
/// injector's seed and a stable hash of the pair, compared against the
/// configured failure rate — never of call order or thread interleaving,
/// so fault patterns reproduce exactly across runs. A faulty pair panics
/// on every call, as a deterministic mapper that panics on an input does.
pub struct FaultInjector<M> {
    inner: M,
    seed: u64,
    rate: f64,
}

impl<M: MappingOptimizer> FaultInjector<M> {
    /// Wraps `inner`; each `(layer, cfg)` pair is faulty with probability
    /// `rate` (deterministically chosen from `seed`).
    pub fn new(inner: M, seed: u64, rate: f64) -> Self {
        FaultInjector { inner, seed, rate }
    }

    /// Panics when this `(layer, cfg)` pair is faulty — shared by both
    /// optimize entry points so thread-budgeted calls see the identical
    /// fault pattern.
    fn maybe_fault(&self, layer: &LayerShape, cfg: &AcceleratorConfig) {
        let mut h = std::hash::DefaultHasher::new();
        self.seed.hash(&mut h);
        layer.hash(&mut h);
        cfg.hash(&mut h);
        if (h.finish() as f64 / u64::MAX as f64) < self.rate {
            panic!("injected mapping fault for {layer:?} on {} PEs", cfg.pes);
        }
    }
}

impl<M: MappingOptimizer> MappingOptimizer for FaultInjector<M> {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.maybe_fault(layer, cfg);
        self.inner.optimize(layer, cfg)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        self.maybe_fault(layer, cfg);
        self.inner.optimize_threaded(layer, cfg, threads)
    }

    fn name(&self) -> String {
        format!("faulty-{}", self.inner.name())
    }

    fn fingerprint(&self) -> String {
        format!(
            "faulty-{}-seed{}-rate{}",
            self.inner.fingerprint(),
            self.seed,
            self.rate
        )
    }

    fn diagnose(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<ExecutionProfile> {
        self.inner.diagnose(layer, cfg)
    }
}

/// Derives the deterministic per-call RNG a stochastic mapper uses for one
/// `(layer, cfg)` pair: `seed` XOR a stable hash of the inputs.
///
/// Two calls with identical inputs always see the identical stream, so a
/// mapper's result for a layer/config pair is a pure function of
/// `(seed, layer, cfg)` — independent of how many other layers were mapped
/// before it or which thread runs it.
pub fn derived_rng(seed: u64, layer: &LayerShape, cfg: &AcceleratorConfig) -> StdRng {
    // DefaultHasher::new() uses fixed keys, so this hash is stable across
    // processes (unlike RandomState).
    let mut h = std::hash::DefaultHasher::new();
    layer.hash(&mut h);
    cfg.hash(&mut h);
    StdRng::seed_from_u64(seed ^ h.finish())
}

/// Evaluates one tiling under all nine maximal-reuse loop-order
/// combinations and returns the feasible mapping with the lowest latency.
pub fn best_ordering(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tiling: &Tiling,
) -> Option<MappedLayer> {
    // The ordering-invariant work (validity, tile volumes, NoC geometry,
    // available reuse) runs once per tiling; each of the nine orderings is
    // then a cheap completion, bit-identical to a full `cfg.execute`.
    let eval = cfg.prepare_tiling(layer, tiling, &Tech::n45()).ok()?;
    let mut best: Option<MappedLayer> = None;
    for spm in Stationarity::ALL {
        for dram in Stationarity::ALL {
            if let Ok(profile) = eval.complete(spm, dram) {
                if best.is_none_or(|b| profile.latency_cycles < b.profile.latency_cycles) {
                    best = Some(MappedLayer {
                        mapping: Mapping::new(*tiling, spm, dram),
                        profile,
                    });
                }
            }
        }
    }
    best
}

/// The paper's fixed "SOC-MOP" optimized output-stationary dataflow: one
/// deterministic mapping per layer, no search. Returns `None` when that
/// mapping is incompatible with the hardware — precisely the
/// hardware/dataflow incompatibility the paper reports for fixed-dataflow
/// DSEs.
#[derive(Debug, Clone, Copy, Default)]
pub struct FixedMapper;

impl MappingOptimizer for FixedMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        let m = Mapping::fixed_output_stationary(layer, cfg);
        cfg.execute(layer, &m).ok().map(|profile| MappedLayer {
            mapping: m,
            profile,
        })
    }

    fn name(&self) -> String {
        "fixed-os".into()
    }
}

/// Linear exploration of the pruned top-`N` space (dMazeRunner style):
/// the space's tilings are evaluated in order under all nine orderings,
/// through the batched SoA kernel ([`accel_model::TilingBatch`] via
/// [`crate::sweep`]), up to the first chunk whose winner reaches the
/// compute floor; no later tiling can beat that winner.
#[derive(Debug, Clone, Copy)]
pub struct LinearMapper {
    budget: SpaceBudget,
    sweep: SweepConf,
}

impl LinearMapper {
    /// A linear mapper over the top-`n` pruned tilings.
    pub fn new(n: usize) -> Self {
        Self {
            budget: SpaceBudget::top(n),
            sweep: SweepConf::serial(),
        }
    }

    /// Replaces the intra-layer sweep configuration (thread budget + chunk
    /// size). Results are invariant to it, so it is deliberately absent
    /// from [`MappingOptimizer::fingerprint`].
    pub fn with_sweep(mut self, sweep: SweepConf) -> Self {
        self.sweep = sweep;
        self
    }
}

impl MappingOptimizer for LinearMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.optimize_threaded(layer, cfg, self.sweep.threads)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        // The shared memo is safe here because construction is a pure
        // function of the key; a hit returns exactly what `build` would.
        let space = MappingSpace::build_shared(layer, cfg, self.budget);
        sweep::sweep_best(
            layer,
            cfg,
            space.tilings(),
            &ALL_ORDERINGS,
            self.sweep.thread_budget(threads),
        )
    }

    fn name(&self) -> String {
        format!("linear-{}", self.budget.n_max)
    }

    fn fingerprint(&self) -> String {
        format!("linear-{:?}", self.budget)
    }
}

/// Interstellar-style mapper (the paper's Table-6 comparison point):
/// linear exploration of the utilization-pruned tiling space like
/// [`LinearMapper`], but with a single *fixed* loop-order class per memory
/// boundary instead of exploring all maximal-reuse orderings.
#[derive(Debug, Clone, Copy)]
pub struct InterstellarMapper {
    budget: SpaceBudget,
    spm_order: Stationarity,
    dram_order: Stationarity,
    sweep: SweepConf,
}

impl InterstellarMapper {
    /// A fixed-ordering mapper over the top-`n` pruned tilings.
    pub fn new(n: usize, spm_order: Stationarity, dram_order: Stationarity) -> Self {
        Self {
            budget: SpaceBudget::top(n),
            spm_order,
            dram_order,
            sweep: SweepConf::serial(),
        }
    }

    /// Replaces the intra-layer sweep configuration (results-invariant).
    pub fn with_sweep(mut self, sweep: SweepConf) -> Self {
        self.sweep = sweep;
        self
    }
}

impl MappingOptimizer for InterstellarMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.optimize_threaded(layer, cfg, self.sweep.threads)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        let space = MappingSpace::build_shared(layer, cfg, self.budget);
        // The single fixed ordering is just a one-element ordering grid.
        sweep::sweep_best(
            layer,
            cfg,
            space.tilings(),
            &[(self.spm_order, self.dram_order)],
            self.sweep.thread_budget(threads),
        )
    }

    fn name(&self) -> String {
        format!("interstellar-{}", self.budget.n_max)
    }

    fn fingerprint(&self) -> String {
        format!(
            "interstellar-{:?}-spm{:?}-dram{:?}",
            self.budget, self.spm_order, self.dram_order
        )
    }
}

thread_local! {
    /// Per-thread memo for [`prime_factors`]: the stochastic mappers factor
    /// the same few dozen dimension extents and factor products on every
    /// sample/move, so the factorization is worth caching. Thread-local
    /// keeps the optimizers shared-state free (no cross-thread locking).
    static PRIME_FACTORS: RefCell<HashMap<u64, Rc<[u64]>>> = RefCell::new(HashMap::new());
}

/// Memoized [`prime_factors`].
fn cached_prime_factors(n: u64) -> Rc<[u64]> {
    PRIME_FACTORS.with(|cache| {
        cache
            .borrow_mut()
            .entry(n)
            .or_insert_with(|| prime_factors(n).into())
            .clone()
    })
}

/// Samples a uniformly random *valid factorization* tiling: every prime
/// factor of every dimension is assigned to a uniformly random level.
pub fn random_tiling(layer: &LayerShape, rng: &mut StdRng) -> Tiling {
    let mut factors = [[1u64; 4]; 7];
    for d in Dim::ALL {
        for &p in cached_prime_factors(layer.dim(d)).iter() {
            let level = rng.gen_range(0..4usize);
            factors[d.index()][level] *= p;
        }
    }
    Tiling::from_factors(layer, factors).expect("prime distribution preserves products")
}

/// One annealing/mutation move: reassign one prime factor of one dimension
/// to a different tiling level.
fn neighbor_tiling(layer: &LayerShape, t: &Tiling, rng: &mut StdRng) -> Tiling {
    let mut factors = *t.factors();
    // Pick a dimension with a non-trivial extent.
    let dims: Vec<Dim> = Dim::ALL.into_iter().filter(|d| layer.dim(*d) > 1).collect();
    if dims.is_empty() {
        return *t;
    }
    let d = dims[rng.gen_range(0..dims.len())];
    let i = d.index();
    // Move one prime factor from a random non-unit level to another.
    let from_candidates: Vec<usize> = (0..4).filter(|&l| factors[i][l] > 1).collect();
    if from_candidates.is_empty() {
        return *t;
    }
    let from = from_candidates[rng.gen_range(0..from_candidates.len())];
    let primes = cached_prime_factors(factors[i][from]);
    let p = primes[rng.gen_range(0..primes.len())];
    let mut to = rng.gen_range(0..4usize);
    if to == from {
        to = (to + 1) % 4;
    }
    factors[i][from] /= p;
    factors[i][to] *= p;
    Tiling::from_factors(layer, factors).expect("move preserves products")
}

/// Timeloop-style random search: samples `trials` random valid-factorization
/// tilings, which are evaluated in sample order under all nine orderings up
/// to the first chunk whose winner reaches the compute floor (see
/// [`crate::sweep`]).
#[derive(Debug, Clone, Copy)]
pub struct RandomMapper {
    trials: usize,
    seed: u64,
    sweep: SweepConf,
}

impl RandomMapper {
    /// A random mapper with the given trial budget and seed.
    pub fn new(trials: usize, seed: u64) -> Self {
        Self {
            trials,
            seed,
            sweep: SweepConf::serial(),
        }
    }

    /// Replaces the intra-layer sweep configuration (results-invariant).
    pub fn with_sweep(mut self, sweep: SweepConf) -> Self {
        self.sweep = sweep;
        self
    }
}

impl MappingOptimizer for RandomMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.optimize_threaded(layer, cfg, self.sweep.threads)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        // Evaluation consumes no randomness, so sampling every trial up
        // front sees the exact RNG stream the sample-then-evaluate loop
        // did — and the batch sweep preserves the trial-order strict-less
        // incumbent rule, so results are unchanged.
        let mut rng = derived_rng(self.seed, layer, cfg);
        let tilings: Vec<Tiling> = (0..self.trials)
            .map(|_| random_tiling(layer, &mut rng))
            .collect();
        sweep::sweep_best(
            layer,
            cfg,
            &tilings,
            &ALL_ORDERINGS,
            self.sweep.thread_budget(threads),
        )
    }

    fn name(&self) -> String {
        format!("random-{}", self.trials)
    }

    fn fingerprint(&self) -> String {
        format!("random-{}-seed{}", self.trials, self.seed)
    }
}

/// Simulated-annealing mapper (SciPy-style Metropolis schedule): the state
/// is a tiling; a move reassigns one prime factor of one dimension to a
/// different level.
#[derive(Debug, Clone, Copy)]
pub struct AnnealingMapper {
    trials: usize,
    initial_temp: f64,
    seed: u64,
}

impl AnnealingMapper {
    /// An annealing mapper with the given move budget and seed.
    pub fn new(trials: usize, seed: u64) -> Self {
        Self {
            trials,
            initial_temp: 2.0,
            seed,
        }
    }
}

impl MappingOptimizer for AnnealingMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        let mut rng = derived_rng(self.seed, layer, cfg);
        let mut current = random_tiling(layer, &mut rng);
        // One evaluation serves both the cost of the initial state and the
        // incumbent (`best_ordering` consumes no randomness, so this
        // changes nothing downstream).
        let mut best: Option<MappedLayer> = best_ordering(layer, cfg, &current);
        let mut current_cost = best
            .map(|c| c.profile.latency_cycles)
            .unwrap_or(f64::INFINITY);
        for step in 0..self.trials {
            let temp = self.initial_temp * (1.0 - step as f64 / self.trials as f64).max(1e-3);
            let cand = neighbor_tiling(layer, &current, &mut rng);
            let eval = best_ordering(layer, cfg, &cand);
            let cost = eval
                .map(|c| c.profile.latency_cycles)
                .unwrap_or(f64::INFINITY);
            let accept = if cost <= current_cost {
                true
            } else if current_cost.is_finite() {
                let ratio = (current_cost - cost) / (current_cost * temp);
                rng.gen::<f64>() < ratio.exp()
            } else {
                true
            };
            if accept {
                current = cand;
                current_cost = cost;
            }
            if let Some(c) = eval {
                if best.is_none_or(|b| c.profile.latency_cycles < b.profile.latency_cycles) {
                    best = Some(c);
                }
            }
        }
        best
    }

    fn name(&self) -> String {
        format!("annealing-{}", self.trials)
    }

    fn fingerprint(&self) -> String {
        format!(
            "annealing-{}-temp{}-seed{}",
            self.trials, self.initial_temp, self.seed
        )
    }
}

/// Genetic-algorithm mapper (scikit-opt style): tournament selection,
/// per-dimension crossover of factor rows, prime-move mutation.
#[derive(Debug, Clone, Copy)]
pub struct GeneticMapper {
    population: usize,
    generations: usize,
    seed: u64,
    sweep: SweepConf,
}

impl GeneticMapper {
    /// A GA mapper; total evaluations ~ `population * generations`.
    pub fn new(population: usize, generations: usize, seed: u64) -> Self {
        Self {
            population: population.max(4),
            generations,
            seed,
            sweep: SweepConf::serial(),
        }
    }

    /// Replaces the intra-layer sweep configuration (results-invariant).
    pub fn with_sweep(mut self, sweep: SweepConf) -> Self {
        self.sweep = sweep;
        self
    }

    fn crossover(layer: &LayerShape, a: &Tiling, b: &Tiling, rng: &mut StdRng) -> Tiling {
        let mut factors = *a.factors();
        for d in Dim::ALL {
            if rng.gen::<bool>() {
                factors[d.index()] = b.factors()[d.index()];
            }
        }
        Tiling::from_factors(layer, factors).expect("rows are valid per dimension")
    }
}

impl MappingOptimizer for GeneticMapper {
    fn optimize(&self, layer: &LayerShape, cfg: &AcceleratorConfig) -> Option<MappedLayer> {
        self.optimize_threaded(layer, cfg, self.sweep.threads)
    }

    fn optimize_threaded(
        &self,
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        threads: usize,
    ) -> Option<MappedLayer> {
        let mut rng = derived_rng(self.seed, layer, cfg);
        let mut pop: Vec<Tiling> = (0..self.population)
            .map(|_| random_tiling(layer, &mut rng))
            .collect();
        let mut best: Option<MappedLayer> = None;
        for _ in 0..self.generations {
            // One batched sweep scores the generation; per-individual costs
            // and the generation winner reproduce the sequential
            // score-then-update loop exactly (evaluation consumes no
            // randomness, and the sweep preserves the population-order
            // strict-less incumbent rule).
            let (costs, gen_best) =
                sweep::sweep_scores(layer, cfg, &pop, self.sweep.thread_budget(threads));
            if let Some((lat, idx, oi)) = gen_best {
                if best.is_none_or(|b| lat < b.profile.latency_cycles) {
                    if let Some(winner) =
                        sweep::materialize(layer, cfg, &pop[idx], ALL_ORDERINGS[oi])
                    {
                        best = Some(winner);
                    }
                }
            }
            let scored: Vec<(Tiling, f64)> =
                pop.iter().zip(&costs).map(|(t, &c)| (*t, c)).collect();
            // Tournament selection + variation.
            let mut next = Vec::with_capacity(self.population);
            while next.len() < self.population {
                let pick = |rng: &mut StdRng| {
                    let a = rng.gen_range(0..scored.len());
                    let b = rng.gen_range(0..scored.len());
                    if scored[a].1 <= scored[b].1 {
                        scored[a].0
                    } else {
                        scored[b].0
                    }
                };
                let pa = pick(&mut rng);
                let pb = pick(&mut rng);
                let child = Self::crossover(layer, &pa, &pb, &mut rng);
                let child = if rng.gen::<f64>() < 0.3 {
                    neighbor_tiling(layer, &child, &mut rng)
                } else {
                    child
                };
                next.push(child);
            }
            pop = next;
        }
        best
    }

    fn name(&self) -> String {
        format!("genetic-{}x{}", self.population, self.generations)
    }

    fn fingerprint(&self) -> String {
        format!(
            "genetic-{}x{}-seed{}",
            self.population, self.generations, self.seed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    #[test]
    fn linear_beats_or_matches_fixed_dataflow() {
        let cfg = AcceleratorConfig::edge_baseline();
        let fixed = FixedMapper
            .optimize(&layer(), &cfg)
            .expect("fixed feasible");
        let lin = LinearMapper::new(200)
            .optimize(&layer(), &cfg)
            .expect("linear feasible");
        assert!(lin.profile.latency_cycles <= fixed.profile.latency_cycles * 1.001);
    }

    #[test]
    fn random_tiling_is_always_valid() {
        let mut rng = StdRng::seed_from_u64(7);
        let l = layer();
        for _ in 0..100 {
            let t = random_tiling(&l, &mut rng);
            assert!(Tiling::from_factors(&l, *t.factors()).is_ok());
        }
    }

    #[test]
    fn random_mapper_finds_feasible_mapping() {
        let cfg = AcceleratorConfig::edge_baseline();
        let got = RandomMapper::new(300, 42).optimize(&layer(), &cfg);
        assert!(got.is_some());
    }

    #[test]
    fn random_mapper_is_deterministic_per_seed() {
        let cfg = AcceleratorConfig::edge_baseline();
        let a = RandomMapper::new(100, 1).optimize(&layer(), &cfg).unwrap();
        let b = RandomMapper::new(100, 1).optimize(&layer(), &cfg).unwrap();
        assert_eq!(a.mapping, b.mapping);
    }

    #[test]
    fn stochastic_mappers_are_call_order_independent() {
        // The same (seed, layer, cfg) must give the same result no matter
        // what else the mapper was asked to do before — the property the
        // parallel batch evaluator relies on.
        let cfg = AcceleratorConfig::edge_baseline();
        let other = LayerShape::conv(1, 32, 16, 28, 28, 1, 1, 1);
        let m = RandomMapper::new(60, 11);
        let direct = m.optimize(&layer(), &cfg).unwrap();
        let _ = m.optimize(&other, &cfg);
        let after_other_call = m.optimize(&layer(), &cfg).unwrap();
        assert_eq!(direct.mapping, after_other_call.mapping);
        assert_eq!(direct.profile, after_other_call.profile);
    }

    #[test]
    fn annealing_improves_over_first_sample() {
        let cfg = AcceleratorConfig::edge_baseline();
        let first = {
            // The mapper's own starting point: first sample of its
            // derived per-call stream.
            let mut rng = derived_rng(5, &layer(), &cfg);
            let t = random_tiling(&layer(), &mut rng);
            best_ordering(&layer(), &cfg, &t)
        };
        let sa = AnnealingMapper::new(200, 5).optimize(&layer(), &cfg);
        if let (Some(f), Some(s)) = (first, sa) {
            assert!(s.profile.latency_cycles <= f.profile.latency_cycles);
        }
    }

    #[test]
    fn genetic_finds_feasible_mapping() {
        let cfg = AcceleratorConfig::edge_baseline();
        let got = GeneticMapper::new(8, 5, 3).optimize(&layer(), &cfg);
        assert!(got.is_some());
    }

    #[test]
    fn full_ordering_search_never_loses_to_fixed_ordering() {
        let cfg = AcceleratorConfig::edge_baseline();
        let lin = LinearMapper::new(100)
            .optimize(&layer(), &cfg)
            .expect("linear");
        let fixed = InterstellarMapper::new(
            100,
            Stationarity::OutputStationary,
            Stationarity::OutputStationary,
        )
        .optimize(&layer(), &cfg)
        .expect("interstellar");
        assert!(lin.profile.latency_cycles <= fixed.profile.latency_cycles * 1.001);
    }

    #[test]
    fn names_encode_budgets() {
        assert_eq!(LinearMapper::new(100).name(), "linear-100");
        assert_eq!(RandomMapper::new(10, 0).name(), "random-10");
    }

    #[test]
    fn more_random_trials_never_hurt() {
        // Both runs derive the same per-call stream, so the 500-trial run
        // sees the 50-trial run's samples as a prefix.
        let cfg = AcceleratorConfig::edge_baseline();
        let small = RandomMapper::new(50, 9).optimize(&layer(), &cfg).unwrap();
        let large = RandomMapper::new(500, 9).optimize(&layer(), &cfg).unwrap();
        assert!(large.profile.latency_cycles <= small.profile.latency_cycles);
    }

    #[test]
    fn instrumented_mapper_counts_outcomes_without_changing_results() {
        use edse_telemetry::MemorySink;
        let cfg = AcceleratorConfig::edge_baseline();
        let collector = Collector::builder().sink(MemorySink::new()).build();
        let wrapped = InstrumentedMapper::new(LinearMapper::new(50), collector.clone());
        assert_eq!(wrapped.name(), "linear-50");
        let direct = LinearMapper::new(50).optimize(&layer(), &cfg);
        let traced = wrapped.optimize(&layer(), &cfg);
        assert_eq!(direct, traced, "observation must not change the result");
        assert_eq!(collector.counter_value("mapper/linear-50/feasible"), 1);
        assert_eq!(collector.counter_value("mapper/linear-50/infeasible"), 0);
        assert_eq!(
            collector
                .histogram("mapper/linear-50/optimize_us")
                .unwrap()
                .count,
            1
        );
    }
}
