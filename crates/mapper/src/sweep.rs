//! Deterministic intra-layer tiling sweeps over the batched SoA kernel.
//!
//! One layer's mapping search evaluates an `orderings × tilings` grid
//! (~10,000 candidates for a top-1000 space). [`sweep_best`] runs that grid
//! through [`accel_model::TilingBatch`] in fixed-size chunks submitted to
//! the shared [`edse_executor`] pool: with a thread budget above one, a
//! *single* interactive "map this layer now" query uses all cores without
//! spawning threads per sweep; with a budget of one, every chunk runs
//! inline on the caller.
//!
//! # Determinism
//!
//! The serial reference order is tilings-outer / orderings-inner with
//! strict-less incumbent replacement (first candidate wins ties). Each
//! chunk reproduces that scan locally (per-slot ordering fold, then a
//! slot-order merge), and chunk results are merged in chunk-index order
//! with the same strict-less rule — so the selected `(tiling, ordering)`
//! is the lexicographic argmin of `(latency, tiling index, ordering
//! index)` for **every** thread count and chunk size, bit-identical to the
//! serial scan. Conformance's thread-count × chunk-size matrix pins this.
//!
//! [`sweep_best`] stops early at the *compute floor*. The latency of a
//! candidate is `max(T_comp, T_noc, T_dma)`, and `T_comp = macs / pes_used`
//! depends on the tiling alone, so no candidate is faster than `macs` over
//! the largest `pes_used` among the slice's tilings that fit the PE array
//! (the expression `TilingEval::t_comp` evaluates; dividing by a larger
//! count never gives a larger `f64`, and tilings over `cfg.pes` never reach
//! the kernel). Once a chunk's winner sits on that floor, every later
//! candidate can at best tie, and the strict-less merge keeps the earlier
//! of two ties. That chunk lowers a shared stop index, and chunks above it
//! store an empty result without preparing their tilings. Chunks below the
//! stop always run, whichever participant claims them and in whatever
//! order, so the selected candidate is the full scan's for every thread
//! count, chunk size and claim order. Only feasible candidates can set the
//! stop, so a floor tiling that is infeasible under every ordering scans
//! on. [`sweep_scores`] never stops early: its callers read every cost.
//! [`sweep_stats`] counts the tilings each sweep was offered and prepared.
//! At a thread budget of one the counts repeat exactly; with more
//! participants a worker may prepare a chunk past the stop before the stop
//! is set.
//!
//! # Scratch arena
//!
//! Each participating thread (the submitter and any pool worker) owns one
//! thread-local [`TilingBatch`] plus fold buffers, allocated on its first
//! chunk and reused for every later chunk, relaxation round, and layer
//! mapped on that thread — pool persistence makes the arenas warm across
//! batches, not just within one.

use crate::optimize::MappedLayer;
use accel_model::{AcceleratorConfig, Mapping, Stationarity, Tiling, TilingBatch};
use energy_area::Tech;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use workloads::LayerShape;

/// All nine maximal-reuse loop-order pairs, in the serial scan order
/// (SPM-level class outer, DRAM-level class inner — the order
/// [`crate::optimize::best_ordering`] enumerates).
pub const ALL_ORDERINGS: [(Stationarity, Stationarity); 9] = {
    use Stationarity::{InputStationary as I, OutputStationary as O, WeightStationary as W};
    [
        (I, I),
        (I, W),
        (I, O),
        (W, I),
        (W, W),
        (W, O),
        (O, I),
        (O, W),
        (O, O),
    ]
};

/// Default tilings per chunk: big enough that the SoA pair passes dominate
/// the per-chunk fixed costs, small enough to load-balance a top-100 space
/// across a few workers.
pub const DEFAULT_CHUNK: usize = 64;

/// Sentinel in the per-slot ordering fold: no feasible ordering seen yet.
const NO_ORDERING: u8 = u8::MAX;

/// Thread budget and chunk size for one intra-layer sweep.
///
/// Neither knob may change results — only wall-clock time — so neither
/// appears in any mapper fingerprint and sweeps under different
/// configurations share persistent cache entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepConf {
    /// Worker threads for this sweep (1 = run on the calling thread).
    pub threads: usize,
    /// Tilings per [`TilingBatch`] chunk.
    pub chunk: usize,
}

impl SweepConf {
    /// A single-threaded sweep with the default chunk size.
    pub fn serial() -> Self {
        SweepConf {
            threads: 1,
            chunk: DEFAULT_CHUNK,
        }
    }

    /// A sweep over up to `threads` participants on the shared executor
    /// pool, the calling thread included (0 acts as 1).
    pub fn with_threads(threads: usize) -> Self {
        SweepConf {
            threads: threads.max(1),
            ..SweepConf::serial()
        }
    }

    /// Replaces the chunk size (0 acts as 1).
    pub fn chunked(mut self, chunk: usize) -> Self {
        self.chunk = chunk.max(1);
        self
    }

    /// This configuration with its thread budget replaced — how an
    /// optimizer combines its own chunk-size knob with the evaluation
    /// engine's per-call thread budget.
    pub fn thread_budget(self, threads: usize) -> Self {
        SweepConf {
            threads: threads.max(1),
            ..self
        }
    }
}

impl Default for SweepConf {
    fn default() -> Self {
        SweepConf::serial()
    }
}

/// The winning candidate of a (partial) scan: latency, tiling index into
/// the sweep's input slice, index into the orderings slice.
type Candidate = (f64, usize, u8);

/// One chunk's contribution: its best candidate plus (when requested) the
/// per-tiling minimal cost, `INFINITY` for infeasible tilings, and how many
/// tilings it prepared (none when it sat above the floor stop).
#[derive(Default)]
struct ChunkOut {
    best: Option<Candidate>,
    costs: Option<Vec<f64>>,
    prepared: usize,
}

/// Cumulative work totals of every sweep in this process.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Sweeps run: [`sweep_best`] and [`sweep_scores`] calls.
    pub sweeps: u64,
    /// Sweeps in which a chunk's winner reached the compute floor.
    pub floor_stops: u64,
    /// Tilings the sweeps were given.
    pub tilings: u64,
    /// Tilings the sweeps passed to [`TilingBatch::prepare`].
    pub tilings_prepared: u64,
}

static SWEEPS: AtomicU64 = AtomicU64::new(0);
static FLOOR_STOPS: AtomicU64 = AtomicU64::new(0);
static TILINGS: AtomicU64 = AtomicU64::new(0);
static TILINGS_PREPARED: AtomicU64 = AtomicU64::new(0);

/// Cumulative work totals of every sweep in this process (see the module
/// docs for when they repeat exactly).
pub fn sweep_stats() -> SweepStats {
    SweepStats {
        sweeps: SWEEPS.load(Ordering::Relaxed),
        floor_stops: FLOOR_STOPS.load(Ordering::Relaxed),
        tilings: TILINGS.load(Ordering::Relaxed),
        tilings_prepared: TILINGS_PREPARED.load(Ordering::Relaxed),
    }
}

/// Per-worker scratch: the SoA batch plus the per-slot ordering fold.
#[derive(Default)]
struct Scratch {
    batch: TilingBatch,
    best_lat: Vec<f64>,
    best_ord: Vec<u8>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Strict-less incumbent fold, matching the serial scan: a candidate
/// replaces the incumbent only when strictly better (ties keep the earlier
/// candidate, and NaN latencies never displace an incumbent — nor are they
/// displaced, exactly as in the serial scan).
#[inline]
fn fold_best(best: &mut Option<Candidate>, cand: Candidate) {
    if best.is_none_or(|(lat, _, _)| cand.0 < lat) {
        *best = Some(cand);
    }
}

/// Scans `tilings` (global indices `base..base + tilings.len()`) through
/// the batch kernel and returns the chunk's winner in serial scan order.
fn scan_chunk(
    scratch: &mut Scratch,
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tilings: &[Tiling],
    base: usize,
    orderings: &[(Stationarity, Stationarity)],
    want_costs: bool,
) -> ChunkOut {
    let Scratch {
        batch,
        best_lat,
        best_ord,
    } = scratch;
    batch.prepare(cfg, layer, tilings, &Tech::n45(), false);
    let n = batch.len();
    best_lat.clear();
    best_lat.resize(n, f64::INFINITY);
    best_ord.clear();
    best_ord.resize(n, NO_ORDERING);
    for (oi, &(spm, dram)) in orderings.iter().enumerate() {
        let (lat, ok) = batch.complete_batch(spm, dram);
        for i in 0..n {
            // Same predicate as the serial incumbent update: first feasible
            // ordering seeds the slot, later ones must be strictly better.
            if ok[i] && (best_ord[i] == NO_ORDERING || lat[i] < best_lat[i]) {
                best_lat[i] = lat[i];
                best_ord[i] = oi as u8;
            }
        }
    }
    let mut best: Option<Candidate> = None;
    for slot in 0..n {
        if best_ord[slot] != NO_ORDERING {
            fold_best(
                &mut best,
                (best_lat[slot], base + batch.kept()[slot], best_ord[slot]),
            );
        }
    }
    let costs = want_costs.then(|| {
        let mut costs = vec![f64::INFINITY; tilings.len()];
        for slot in 0..n {
            if best_ord[slot] != NO_ORDERING {
                costs[batch.kept()[slot]] = best_lat[slot];
            }
        }
        costs
    });
    ChunkOut {
        best,
        costs,
        prepared: tilings.len(),
    }
}

/// The lowest latency any tiling of `tilings` can reach on `cfg`: `macs`
/// over the largest PE count among the tilings that fit the array (`None`
/// when none fits). See the module docs.
fn compute_floor(layer: &LayerShape, cfg: &AcceleratorConfig, tilings: &[Tiling]) -> Option<f64> {
    let max_used = tilings
        .iter()
        .map(Tiling::pes_used)
        .filter(|&used| used <= cfg.pes)
        .max()?;
    Some(layer.macs() as f64 / max_used as f64)
}

/// Runs the chunked scan on the shared executor pool and merges chunk
/// results in chunk-index order. Without `want_costs` the scan stops at the
/// compute floor (see the module docs).
fn scan_all(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tilings: &[Tiling],
    orderings: &[(Stationarity, Stationarity)],
    conf: SweepConf,
    want_costs: bool,
) -> (Option<Candidate>, Option<Vec<f64>>) {
    let chunk = conf.chunk.max(1);
    let n_chunks = tilings.len().div_ceil(chunk);
    let floor = if want_costs {
        None
    } else {
        compute_floor(layer, cfg, tilings)
    };
    // The lowest chunk index whose winner sits on the floor. It only ever
    // decreases, and it publishes no data (the merge reads the slots after
    // `run` returns), so relaxed accesses suffice.
    let stop = AtomicUsize::new(usize::MAX);
    // Chunk indices become tasks on the shared executor pool; each
    // participant fills its chunk's dedicated slot, so the merge below
    // sees results in chunk order regardless of which worker computed
    // which chunk — and an idle pool worker finishing another tenant's
    // layer job can steal chunks from this sweep. A budget of one runs
    // every chunk inline on the calling thread.
    let slots: Vec<OnceLock<ChunkOut>> = (0..n_chunks).map(|_| OnceLock::new()).collect();
    edse_executor::Executor::global().run(n_chunks, conf.threads, &|c| {
        let out = if c > stop.load(Ordering::Relaxed) {
            ChunkOut::default()
        } else {
            SCRATCH.with(|sc| {
                let lo = c * chunk;
                let hi = (lo + chunk).min(tilings.len());
                scan_chunk(
                    &mut sc.borrow_mut(),
                    layer,
                    cfg,
                    &tilings[lo..hi],
                    lo,
                    orderings,
                    want_costs,
                )
            })
        };
        if let (Some(floor), Some((lat, _, _))) = (floor, out.best) {
            if lat <= floor {
                stop.fetch_min(c, Ordering::Relaxed);
            }
        }
        slots[c].set(out).ok().expect("each chunk scanned once");
    });

    let mut best: Option<Candidate> = None;
    let mut costs = want_costs.then(|| Vec::with_capacity(tilings.len()));
    let mut prepared = 0;
    for out in slots
        .into_iter()
        .map(|s| s.into_inner().expect("all chunks scanned"))
    {
        if let Some(cand) = out.best {
            fold_best(&mut best, cand);
        }
        if let (Some(all), Some(part)) = (costs.as_mut(), out.costs) {
            all.extend(part);
        }
        prepared += out.prepared;
    }
    SWEEPS.fetch_add(1, Ordering::Relaxed);
    TILINGS.fetch_add(tilings.len() as u64, Ordering::Relaxed);
    TILINGS_PREPARED.fetch_add(prepared as u64, Ordering::Relaxed);
    if stop.into_inner() != usize::MAX {
        FLOOR_STOPS.fetch_add(1, Ordering::Relaxed);
    }
    (best, costs)
}

/// Materializes the full profile for one `(tiling, ordering)` winner —
/// identical to the serial `best_ordering` result for that candidate.
pub(crate) fn materialize(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tiling: &Tiling,
    (spm, dram): (Stationarity, Stationarity),
) -> Option<MappedLayer> {
    let profile = cfg
        .prepare_tiling(layer, tiling, &Tech::n45())
        .ok()?
        .complete(spm, dram)
        .ok()?;
    Some(MappedLayer {
        mapping: Mapping::new(*tiling, spm, dram),
        profile,
    })
}

/// Sweeps `orderings × tilings` and returns the feasible candidate with
/// the lowest latency — bit-identical, for every `conf`, to the serial
/// tilings-outer / orderings-inner strict-less scan (`None` when no
/// candidate is feasible). The sweep stops after the first chunk whose
/// winner reaches the compute floor (see the module docs).
pub fn sweep_best(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tilings: &[Tiling],
    orderings: &[(Stationarity, Stationarity)],
    conf: SweepConf,
) -> Option<MappedLayer> {
    let (best, _) = scan_all(layer, cfg, tilings, orderings, conf, false);
    let (_, idx, oi) = best?;
    materialize(layer, cfg, &tilings[idx], orderings[oi as usize])
}

/// Like [`sweep_best`] over [`ALL_ORDERINGS`], but also returns each
/// tiling's minimal latency across the nine orderings (`INFINITY` when the
/// tiling is infeasible under all of them) — the per-individual cost
/// vector population-based mappers score a generation with. It therefore
/// never stops at the compute floor. The winner is returned un-materialized
/// as `(latency, tiling index, ordering index)`.
pub fn sweep_scores(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tilings: &[Tiling],
    conf: SweepConf,
) -> (Vec<f64>, Option<(f64, usize, usize)>) {
    let (best, costs) = scan_all(layer, cfg, tilings, &ALL_ORDERINGS, conf, true);
    (
        costs.expect("costs requested"),
        best.map(|(lat, idx, oi)| (lat, idx, oi as usize)),
    )
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::optimize::best_ordering;
    use crate::space::{MappingSpace, SpaceBudget};

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    /// The serial reference scan `sweep_best` must reproduce.
    pub(crate) fn reference_scan(
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        tilings: &[Tiling],
    ) -> Option<MappedLayer> {
        let mut best: Option<MappedLayer> = None;
        for t in tilings {
            if let Some(c) = best_ordering(layer, cfg, t) {
                if best.is_none_or(|b| c.profile.latency_cycles < b.profile.latency_cycles) {
                    best = Some(c);
                }
            }
        }
        best
    }

    #[test]
    fn sweep_matches_serial_scan_across_threads_and_chunks() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&l, &cfg, SpaceBudget::top(60));
        let want = reference_scan(&l, &cfg, space.tilings()).expect("feasible");
        for threads in [1, 2, 3] {
            for chunk in [1, 7, 64, 1000] {
                let conf = SweepConf::with_threads(threads).chunked(chunk);
                let got =
                    sweep_best(&l, &cfg, space.tilings(), &ALL_ORDERINGS, conf).expect("feasible");
                assert_eq!(got.mapping, want.mapping, "threads={threads} chunk={chunk}");
                assert_eq!(got.profile, want.profile, "threads={threads} chunk={chunk}");
            }
        }
    }

    #[test]
    fn sweep_scores_match_per_tiling_best_ordering() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&l, &cfg, SpaceBudget::top(40));
        let (costs, winner) = sweep_scores(&l, &cfg, space.tilings(), SweepConf::serial());
        assert_eq!(costs.len(), space.tilings().len());
        for (t, &cost) in space.tilings().iter().zip(&costs) {
            let want = best_ordering(&l, &cfg, t)
                .map(|c| c.profile.latency_cycles)
                .unwrap_or(f64::INFINITY);
            assert_eq!(cost.to_bits(), want.to_bits());
        }
        let (lat, idx, oi) = winner.expect("feasible space");
        let materialized = materialize(&l, &cfg, &space.tilings()[idx], ALL_ORDERINGS[oi]).unwrap();
        assert_eq!(lat.to_bits(), materialized.profile.latency_cycles.to_bits());
        assert_eq!(
            materialized.profile,
            reference_scan(&l, &cfg, space.tilings()).unwrap().profile
        );
    }

    #[test]
    fn empty_and_single_tiling_sweeps() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        assert!(sweep_best(&l, &cfg, &[], &ALL_ORDERINGS, SweepConf::serial()).is_none());
        let one = [Mapping::fixed_output_stationary(&l, &cfg).tiling];
        let got = sweep_best(&l, &cfg, &one, &ALL_ORDERINGS, SweepConf::with_threads(4))
            .expect("feasible");
        let want = best_ordering(&l, &cfg, &one[0]).unwrap();
        assert_eq!(got.mapping, want.mapping);
        assert_eq!(got.profile, want.profile);
    }
}
