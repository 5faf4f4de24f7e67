//! Struct-of-arrays batch evaluation of many tilings of one layer.
//!
//! [`TilingBatch`] is the data-oriented counterpart of the one-at-a-time
//! [`TilingEval`](crate::TilingEval) path: [`TilingBatch::prepare`] runs
//! the ordering-invariant precomputation for a whole slice of tilings and
//! scatters the latency-relevant quantities into plain parallel arrays
//! (tile volumes, steps, reuse tables, NoC cycles-per-delivery, DMA run
//! lengths, per-operand shortfalls); [`TilingBatch::complete_batch`] then
//! finishes one `(spm_order, dram_order)` pair for *every* prepared tiling
//! with flat, branch-light loops the autovectorizer can chew on.
//!
//! The key factoring on top of PR 5's per-tiling `prepare` + 9×`complete`:
//! for an ordering pair `(spm, dram)`, every off-chip/DMA term depends only
//! on the DRAM-level class and every non-psum NoC term only on the
//! SPM-level class. The batch therefore computes three DRAM-side passes and
//! three SPM-side passes lazily (memoized across the nine
//! [`TilingBatch::complete_batch`] calls of a full ordering sweep) and each
//! pair pass only combines them: the psum read-back predicate, NoC
//! admission, the psum-read NoC term, and the final `max` reduction.
//!
//! # Bit-identity contract
//!
//! Every floating-point expression here evaluates in exactly the order of
//! [`TilingEval::complete`](crate::TilingEval::complete), itself pinned to
//! the straight-line reference cost model kept in this crate's tests; the
//! batch only hoists whole sub-expressions. `complete_batch` thus reports,
//! for each prepared tiling, latency and NoC admission bit-identical to
//! the serial path, which property tests enforce against both. Full
//! [`ExecutionProfile`](crate::ExecutionProfile)s (energy, per-operand
//! stats) are *not* materialized in the sweep: the batch keeps only the
//! latency terms, and the winner's profile comes from
//! [`AcceleratorConfig::prepare_tiling`] and `TilingEval::complete`.
//!
//! # Scratch-arena lifetime
//!
//! All internal vectors are retained across [`TilingBatch::prepare`] calls:
//! a long-lived batch (e.g. one per sweep worker thread) allocates on its
//! first chunk and then reuses capacity for every later chunk, relaxation
//! round, and layer. `prepare` resets lengths and the per-pass memo flags;
//! it never shrinks capacity.

use crate::arch::AcceleratorConfig;
use crate::exec::st_index;
use crate::mapping::{Stationarity, Tiling};
use energy_area::Tech;
use workloads::{LayerShape, Tensor};

/// One DRAM-side ordering class's per-slot results (lazily filled).
#[derive(Debug, Default)]
struct DramPass {
    ready: bool,
    /// Un-clamped DRAM output visit count (read-back predicate input).
    raw_visits: Vec<f64>,
    /// Clamped DRAM output visit count.
    visits: Vec<f64>,
    /// Total DMA time for this DRAM ordering.
    t_dma: Vec<f64>,
}

/// One SPM-side ordering class's per-slot results (lazily filled).
#[derive(Debug, Default)]
struct SpmPass {
    ready: bool,
    /// Un-clamped L2 output visit count.
    raw_visits: Vec<f64>,
    /// Clamped L2 output visit count.
    visits: Vec<f64>,
    /// NoC time for the input / weight / output-write operands.
    t_noc_in: Vec<f64>,
    t_noc_wt: Vec<f64>,
    t_noc_ow: Vec<f64>,
    /// Psum-read deliveries before the first-visit discount
    /// (`(l2_steps / reuse) * dram_steps`).
    or_deliveries: Vec<f64>,
}

/// A batch of prepared tilings of one layer, laid out struct-of-arrays.
///
/// See the [module docs](self) for the design; typical use is one
/// long-lived `TilingBatch` per worker thread:
///
/// ```
/// use accel_model::{AcceleratorConfig, Stationarity, TilingBatch};
/// use workloads::LayerShape;
///
/// let cfg = AcceleratorConfig::edge_baseline();
/// let layer = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
/// let tiling = accel_model::Mapping::fixed_output_stationary(&layer, &cfg).tiling;
/// let mut batch = TilingBatch::new();
/// batch.prepare(&cfg, &layer, &[tiling], &energy_area::Tech::n45(), false);
/// let (lat, ok) = batch.complete_batch(
///     Stationarity::OutputStationary,
///     Stationarity::OutputStationary,
/// );
/// assert!(ok[0] && lat[0] > 0.0);
/// ```
#[derive(Debug, Default)]
pub struct TilingBatch {
    /// Input indices of the tilings that survived `prepare` (slot → index).
    kept: Vec<usize>,

    // ---- config scalars of the last `prepare`, shared by every slot.
    /// Element width in bytes.
    elem: f64,
    /// Off-chip bytes per cycle.
    bw_bpc: f64,
    /// Fixed DMA cycles per burst.
    dma_burst_cycles: f64,

    // ---- ordering-invariant SoA scratch, one entry per kept slot.
    t_comp: Vec<f64>,
    dram_steps: Vec<f64>,
    l2_steps: Vec<f64>,
    /// `ops[op].spm_tile`, operand-major.
    spm_tile: [Vec<f64>; 4],
    /// `ops[op].run_bytes` (contiguous DRAM burst length).
    run_bytes: [Vec<f64>; 4],
    /// `ops[op].cycles_per_delivery` (NoC cycles per SPM→PE delivery).
    cycles: [Vec<f64>; 4],
    /// `reuse_dram[op][di]` — `TilingEval::reuse_dram` transposed to
    /// operand-major so each DRAM pass reads four dense arrays.
    reuse_dram: [[Vec<f64>; 3]; 4],
    /// `reuse_spm[op][si]`, likewise operand-major.
    reuse_spm: [[Vec<f64>; 3]; 4],
    /// `ops[OutputWrite].irr_dram` / `irr_l2` (visit-count numerators).
    irr_dram_ow: Vec<f64>,
    irr_l2_ow: Vec<f64>,
    /// Any non-psum-read operand over NoC capacity (infeasible under every
    /// ordering).
    hard_fail: Vec<bool>,
    /// Psum-read operand over capacity (infeasible only when the ordering
    /// evicts and re-reads partial sums).
    or_fail: Vec<bool>,

    // ---- lazily memoized per-ordering-class passes.
    dram_pass: [DramPass; 3],
    spm_pass: [SpmPass; 3],

    // ---- per-call outputs of `complete_batch`.
    lat: Vec<f64>,
    ok: Vec<bool>,
}

impl TilingBatch {
    /// An empty batch; arrays are allocated lazily by [`Self::prepare`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tilings that survived the last [`Self::prepare`].
    pub fn len(&self) -> usize {
        self.kept.len()
    }

    /// Whether no tiling survived the last [`Self::prepare`].
    pub fn is_empty(&self) -> bool {
        self.kept.is_empty()
    }

    /// Input indices of the surviving tilings, in input order: slot `s` of
    /// the batch corresponds to `tilings[self.kept()[s]]` of the `prepare`
    /// input (tilings rejected by the ordering-invariant checks — invalid
    /// factors, PE/RF/SPM overflow — hold no slot).
    pub fn kept(&self) -> &[usize] {
        &self.kept
    }

    /// Runs the ordering-invariant precomputation for every tiling in
    /// `tilings`, compacting the survivors into slots and scattering the
    /// latency-relevant quantities into the batch's parallel arrays.
    /// Retains capacity from previous calls (see the module docs).
    pub fn prepare(
        &mut self,
        cfg: &AcceleratorConfig,
        layer: &LayerShape,
        tilings: &[Tiling],
        tech: &Tech,
        relax_noc: bool,
    ) {
        self.kept.clear();
        // The expressions `prepare_tiling_with` stores per tiling.
        self.elem = cfg.elem_bytes as f64;
        self.bw_bpc = cfg.offchip_bytes_per_cycle();
        self.dma_burst_cycles = cfg.dma_burst_overhead_cycles as f64;
        self.t_comp.clear();
        self.dram_steps.clear();
        self.l2_steps.clear();
        for op in 0..4 {
            self.spm_tile[op].clear();
            self.run_bytes[op].clear();
            self.cycles[op].clear();
            for cls in 0..3 {
                self.reuse_dram[op][cls].clear();
                self.reuse_spm[op][cls].clear();
            }
        }
        self.irr_dram_ow.clear();
        self.irr_l2_ow.clear();
        self.hard_fail.clear();
        self.or_fail.clear();
        for pass in &mut self.dram_pass {
            pass.ready = false;
        }
        for pass in &mut self.spm_pass {
            pass.ready = false;
        }

        let outw = Tensor::OutputWrite.index();
        let outr = Tensor::OutputRead.index();
        for (idx, tiling) in tilings.iter().enumerate() {
            let Ok(eval) = cfg.prepare_tiling_with(layer, tiling, tech, relax_noc) else {
                continue;
            };
            self.kept.push(idx);
            self.t_comp.push(eval.t_comp);
            self.dram_steps.push(eval.dram_steps);
            self.l2_steps.push(eval.l2_steps);
            for op in 0..4 {
                self.spm_tile[op].push(eval.ops[op].spm_tile);
                self.run_bytes[op].push(eval.ops[op].run_bytes);
                self.cycles[op].push(eval.ops[op].cycles_per_delivery);
                for cls in 0..3 {
                    self.reuse_dram[op][cls].push(eval.reuse_dram[cls][op]);
                    self.reuse_spm[op][cls].push(eval.reuse_spm[cls][op]);
                }
            }
            self.irr_dram_ow.push(eval.ops[outw].irr_dram);
            self.irr_l2_ow.push(eval.ops[outw].irr_l2);
            self.hard_fail
                .push((0..4).any(|op| op != outr && eval.noc_fail[op].is_some()));
            self.or_fail.push(eval.noc_fail[outr].is_some());
        }
    }

    /// Fills the DRAM-side pass for ordering class `di` if not yet done:
    /// output visit counts and total DMA time, which depend only on the
    /// DRAM-level loop order.
    fn ensure_dram_pass(&mut self, di: usize) {
        let (cfg_elem, bw_bpc, burst) = (self.elem, self.bw_bpc, self.dma_burst_cycles);
        let pass = &mut self.dram_pass[di];
        if pass.ready {
            return;
        }
        let n = self.kept.len();
        pass.raw_visits.clear();
        pass.raw_visits.resize(n, 0.0);
        pass.visits.clear();
        pass.visits.resize(n, 0.0);
        pass.t_dma.clear();
        pass.t_dma.resize(n, 0.0);
        let outr = Tensor::OutputRead.index();
        for i in 0..n {
            // Transcribed from `TilingEval::complete`: raw visit counts,
            // then per-operand off-chip bytes, then the burst-modelled DMA
            // accumulation in operand-index order with the `<= 0` skip.
            let raw_visits_dram = self.irr_dram_ow[i] / self.reuse_dram[3][di][i];
            let visits_dram = raw_visits_dram.max(1.0);
            let mut t_dma = 0.0;
            for op in 0..4 {
                let base_offchip =
                    self.spm_tile[op][i] * self.dram_steps[i] / self.reuse_dram[op][di][i];
                let bytes = if op == outr {
                    // First visit of each tile needs no partial-sum fetch.
                    base_offchip * cfg_elem * (visits_dram - 1.0) / visits_dram
                } else {
                    base_offchip * cfg_elem
                };
                if bytes <= 0.0 {
                    continue;
                }
                let bursts = (bytes / self.run_bytes[op][i]).ceil();
                t_dma += bytes / bw_bpc + bursts * burst;
            }
            pass.raw_visits[i] = raw_visits_dram;
            pass.visits[i] = visits_dram;
            pass.t_dma[i] = t_dma;
        }
        pass.ready = true;
    }

    /// Fills the SPM-side pass for ordering class `si` if not yet done:
    /// L2 output visit counts and the three psum-independent NoC terms.
    fn ensure_spm_pass(&mut self, si: usize) {
        let pass = &mut self.spm_pass[si];
        if pass.ready {
            return;
        }
        let n = self.kept.len();
        pass.raw_visits.clear();
        pass.raw_visits.resize(n, 0.0);
        pass.visits.clear();
        pass.visits.resize(n, 0.0);
        pass.t_noc_in.clear();
        pass.t_noc_in.resize(n, 0.0);
        pass.t_noc_wt.clear();
        pass.t_noc_wt.resize(n, 0.0);
        pass.t_noc_ow.clear();
        pass.t_noc_ow.resize(n, 0.0);
        pass.or_deliveries.clear();
        pass.or_deliveries.resize(n, 0.0);
        for i in 0..n {
            let raw_visits_l2 = self.irr_l2_ow[i] / self.reuse_spm[3][si][i];
            pass.raw_visits[i] = raw_visits_l2;
            pass.visits[i] = raw_visits_l2.max(1.0);
            // `deliveries_per_step * dram_steps` then `* cycles_per_delivery`,
            // in the serial path's association.
            pass.t_noc_in[i] = self.l2_steps[i] / self.reuse_spm[0][si][i]
                * self.dram_steps[i]
                * self.cycles[0][i];
            pass.t_noc_wt[i] = self.l2_steps[i] / self.reuse_spm[1][si][i]
                * self.dram_steps[i]
                * self.cycles[1][i];
            pass.t_noc_ow[i] = self.l2_steps[i] / self.reuse_spm[3][si][i]
                * self.dram_steps[i]
                * self.cycles[3][i];
            pass.or_deliveries[i] =
                self.l2_steps[i] / self.reuse_spm[2][si][i] * self.dram_steps[i];
        }
        pass.ready = true;
    }

    /// Finishes one `(spm_order, dram_order)` pair for every prepared
    /// tiling: returns per-slot latency (cycles) and NoC admission,
    /// position-aligned with [`Self::kept`]. `ok[slot] == false` exactly
    /// when the serial [`TilingEval::complete`](crate::TilingEval::complete)
    /// would return
    /// [`ExecError::NocInfeasible`](crate::ExecError::NocInfeasible) for
    /// that slot (latency is still the relaxed-model value in that case and
    /// must be ignored); `ok` slots carry latency bit-identical to the
    /// serial path.
    ///
    /// The borrows are valid until the next `&mut self` call; a nine-way
    /// ordering sweep should fold each pair's result into its running
    /// per-slot best before requesting the next pair.
    pub fn complete_batch(
        &mut self,
        spm_order: Stationarity,
        dram_order: Stationarity,
    ) -> (&[f64], &[bool]) {
        let si = st_index(spm_order);
        let di = st_index(dram_order);
        let n = self.kept.len();
        self.ensure_dram_pass(di);
        self.ensure_spm_pass(si);
        self.lat.clear();
        self.lat.resize(n, 0.0);
        self.ok.clear();
        self.ok.resize(n, false);
        let dram = &self.dram_pass[di];
        let spm = &self.spm_pass[si];
        for i in 0..n {
            let reads_back = dram.raw_visits[i] * spm.raw_visits[i] > 1.0;
            let total_out_visits = (dram.visits[i] * spm.visits[i]).max(1.0);
            // Psum-read NoC term: `deliveries *= (total - 1) / total`, then
            // `* cycles_per_delivery` — association as in the serial path.
            let t_noc_or = spm.or_deliveries[i]
                * ((total_out_visits - 1.0) / total_out_visits)
                * self.cycles[2][i];
            let t_noc_max = f64::max(
                f64::max(
                    f64::max(f64::max(0.0, spm.t_noc_in[i]), spm.t_noc_wt[i]),
                    t_noc_or,
                ),
                spm.t_noc_ow[i],
            );
            self.lat[i] = self.t_comp[i].max(t_noc_max).max(dram.t_dma[i]);
            self.ok[i] = !(self.hard_fail[i] || (reads_back && self.or_fail[i]));
        }
        (&self.lat, &self.ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ExecError;
    use crate::mapping::Mapping;
    use workloads::layer::Dim;

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    /// A handful of valid tilings with different level assignments.
    fn sample_tilings(l: &LayerShape, cfg: &AcceleratorConfig) -> Vec<Tiling> {
        let mut out = vec![Mapping::fixed_output_stationary(l, cfg).tiling];
        let mut f = [[1u64; 4]; 7];
        f[Dim::M.index()] = [1, 16, 1, 4];
        f[Dim::C.index()] = [2, 1, 8, 4];
        f[Dim::Oy.index()] = [1, 1, 7, 8];
        f[Dim::Ox.index()] = [1, 8, 7, 1];
        f[Dim::Fy.index()] = [3, 1, 1, 1];
        f[Dim::Fx.index()] = [3, 1, 1, 1];
        out.push(Tiling::from_factors(l, f).unwrap());
        // An oversized tiling the prepare stage must reject (all factors at
        // the RF level blows the register file).
        let mut g = [[1u64; 4]; 7];
        for d in Dim::ALL {
            g[d.index()] = [l.dim(d), 1, 1, 1];
        }
        out.push(Tiling::from_factors(l, g).unwrap());
        out
    }

    #[test]
    fn batch_matches_serial_completions_for_all_orderings() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let tilings = sample_tilings(&l, &cfg);
        let mut batch = TilingBatch::new();
        batch.prepare(&cfg, &l, &tilings, &Tech::n45(), false);
        assert_eq!(batch.kept(), &[0, 1], "RF-overflowing tiling dropped");
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let (lat, ok) = batch.complete_batch(spm, dram);
                let (lat, ok) = (lat.to_vec(), ok.to_vec());
                for slot in 0..batch.len() {
                    let t = &tilings[batch.kept()[slot]];
                    let m = Mapping::new(*t, spm, dram);
                    match cfg.execute_reference(&l, &m) {
                        Ok(p) => {
                            assert!(ok[slot]);
                            assert_eq!(lat[slot].to_bits(), p.latency_cycles.to_bits());
                            let serial = cfg
                                .prepare_tiling(&l, t, &Tech::n45())
                                .and_then(|eval| eval.complete(spm, dram));
                            assert_eq!(serial, Ok(p));
                        }
                        Err(ExecError::NocInfeasible { .. }) => assert!(!ok[slot]),
                        Err(e) => panic!("prepare should have rejected: {e}"),
                    }
                }
            }
        }
    }

    #[test]
    fn batch_admission_matches_reference_on_noc_starved_hardware() {
        let l = layer();
        let cfg = AcceleratorConfig {
            noc_phys_links: [1, 1, 1, 1],
            noc_virt_links: [1, 1, 1, 1],
            ..AcceleratorConfig::edge_baseline()
        };
        let mut f = [[1u64; 4]; 7];
        f[Dim::M.index()] = [1, 64, 1, 1];
        f[Dim::C.index()] = [1, 1, 1, 64];
        f[Dim::Oy.index()] = [1, 1, 1, 56];
        f[Dim::Ox.index()] = [1, 1, 1, 56];
        f[Dim::Fy.index()] = [3, 1, 1, 1];
        f[Dim::Fx.index()] = [3, 1, 1, 1];
        let tilings = vec![Tiling::from_factors(&l, f).unwrap()];
        let mut batch = TilingBatch::new();
        batch.prepare(&cfg, &l, &tilings, &Tech::n45(), false);
        assert_eq!(batch.len(), 1);
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let (lat, ok) = batch.complete_batch(spm, dram);
                let (lat, ok) = (lat[0], ok[0]);
                let m = Mapping::new(tilings[0], spm, dram);
                match cfg.execute_reference(&l, &m) {
                    Ok(p) => {
                        assert!(ok);
                        assert_eq!(lat.to_bits(), p.latency_cycles.to_bits());
                    }
                    Err(ExecError::NocInfeasible { .. }) => assert!(!ok),
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }
    }

    #[test]
    fn relaxed_batch_never_rejects() {
        let l = layer();
        let cfg = AcceleratorConfig {
            noc_phys_links: [1, 1, 1, 1],
            noc_virt_links: [1, 1, 1, 1],
            ..AcceleratorConfig::edge_baseline()
        };
        let tilings = vec![Mapping::fixed_output_stationary(&l, &cfg).tiling];
        let mut batch = TilingBatch::new();
        batch.prepare(&cfg, &l, &tilings, &Tech::n45(), true);
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let (lat, ok) = batch.complete_batch(spm, dram);
                assert!(ok[0]);
                let m = Mapping::new(tilings[0], spm, dram);
                let p = cfg
                    .execute_reference_with(&l, &m, &Tech::n45(), true)
                    .unwrap();
                assert_eq!(lat[0].to_bits(), p.latency_cycles.to_bits());
            }
        }
    }

    #[test]
    fn prepare_resets_state_between_calls() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let tilings = sample_tilings(&l, &cfg);
        let mut batch = TilingBatch::new();
        batch.prepare(&cfg, &l, &tilings, &Tech::n45(), false);
        let first: Vec<u64> = {
            let (lat, _) = batch.complete_batch(
                Stationarity::OutputStationary,
                Stationarity::OutputStationary,
            );
            lat.iter().map(|v| v.to_bits()).collect()
        };
        // Re-preparing with a different tiling list must invalidate the
        // memoized passes, then reproduce the originals when re-prepared
        // with the original list (arena reuse must not leak state).
        let other = vec![tilings[1]];
        batch.prepare(&cfg, &l, &other, &Tech::n45(), false);
        assert_eq!(batch.len(), 1);
        batch.prepare(&cfg, &l, &tilings, &Tech::n45(), false);
        let again: Vec<u64> = {
            let (lat, _) = batch.complete_batch(
                Stationarity::OutputStationary,
                Stationarity::OutputStationary,
            );
            lat.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(first, again);
    }

    #[test]
    fn reprepare_under_another_config_takes_its_scalars() {
        // Off-chip bandwidth and DMA burst overhead are batch-wide scalars
        // set by `prepare`; a re-used arena must not keep the first
        // config's values.
        let l = layer();
        let base = AcceleratorConfig::edge_baseline();
        let other = AcceleratorConfig {
            offchip_bw_mbps: base.offchip_bw_mbps / 4,
            dma_burst_overhead_cycles: base.dma_burst_overhead_cycles * 3 + 7,
            ..base
        };
        let tilings = sample_tilings(&l, &base);
        let mut reused = TilingBatch::new();
        reused.prepare(&base, &l, &tilings, &Tech::n45(), false);
        for (spm, dram) in [
            (
                Stationarity::InputStationary,
                Stationarity::WeightStationary,
            ),
            (
                Stationarity::OutputStationary,
                Stationarity::InputStationary,
            ),
        ] {
            let _ = reused.complete_batch(spm, dram);
        }
        reused.prepare(&other, &l, &tilings, &Tech::n45(), false);
        let mut fresh = TilingBatch::new();
        fresh.prepare(&other, &l, &tilings, &Tech::n45(), false);
        assert_eq!(reused.kept(), fresh.kept());
        let mut moved = false;
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let (lat, ok) = reused.complete_batch(spm, dram);
                let (lat, ok) = (lat.to_vec(), ok.to_vec());
                let (fresh_lat, fresh_ok) = fresh.complete_batch(spm, dram);
                assert_eq!(ok, fresh_ok);
                for slot in 0..reused.len() {
                    assert_eq!(lat[slot].to_bits(), fresh_lat[slot].to_bits());
                    let t = &tilings[reused.kept()[slot]];
                    let serial = other
                        .prepare_tiling(&l, t, &Tech::n45())
                        .and_then(|eval| eval.complete(spm, dram));
                    if let Ok(p) = serial {
                        assert!(ok[slot]);
                        assert_eq!(lat[slot].to_bits(), p.latency_cycles.to_bits());
                        let before = base
                            .prepare_tiling(&l, t, &Tech::n45())
                            .and_then(|eval| eval.complete(spm, dram))
                            .expect("same tiling, same NoC");
                        moved |= before.latency_cycles != p.latency_cycles;
                    }
                }
            }
        }
        assert!(moved, "the second config must change some latency");
    }

    #[test]
    fn empty_batch_is_harmless() {
        let mut batch = TilingBatch::new();
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        batch.prepare(&cfg, &l, &[], &Tech::n45(), false);
        assert!(batch.is_empty());
        let (lat, ok) = batch.complete_batch(
            Stationarity::InputStationary,
            Stationarity::WeightStationary,
        );
        assert!(lat.is_empty() && ok.is_empty());
    }
}
