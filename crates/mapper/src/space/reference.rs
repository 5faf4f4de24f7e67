//! The multi-pass reference space builder, compiled only for tests.
//!
//! [`MappingSpace::build_reference`] is the original relax-and-re-enumerate
//! construction with its closure-based DFS, retained verbatim as the
//! oracle the single-pass [`MappingSpace::build`] (memoized stages,
//! incremental working sets, branch-and-bound top-K) is pinned to. It
//! shares the stage caps, divisor lists, spatial DFS and serial fallback
//! with the production builder.

use super::{
    dfs_spatial, fallback_serial, quota_divisors, stage_caps, working_set_bytes, DimDivisors,
    Extents, MappingSpace, SpaceBudget, SpaceInputs, Thresholds,
};
use accel_model::{AcceleratorConfig, Level, Tiling};
use workloads::layer::Dim;
use workloads::LayerShape;

impl MappingSpace {
    /// The original relax-and-re-enumerate construction, which re-runs the
    /// full staged DFS on every threshold adjustment. Tests assert the
    /// single-pass [`Self::build`] agrees with it exactly (same tilings,
    /// same order, same settled thresholds) on every input. It prunes on
    /// the unclamped NoC caps, so the comparison also checks the clamp
    /// `build` goes through.
    pub(crate) fn build_reference(
        layer: &LayerShape,
        cfg: &AcceleratorConfig,
        budget: SpaceBudget,
    ) -> Self {
        let mut thresholds = Thresholds::aggressive();
        let mut tilings = enumerate(layer, cfg, thresholds, budget);
        let mut rounds = 0;
        while tilings.len() < budget.n_min && rounds < 5 {
            thresholds = thresholds.relaxed();
            tilings = enumerate(layer, cfg, thresholds, budget);
            rounds += 1;
        }
        if tilings.is_empty() {
            let t = fallback_serial(layer, &SpaceInputs::unclamped(cfg));
            tilings.extend(t);
        }
        Self {
            tilings,
            thresholds,
        }
    }
}

fn enumerate(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    th: Thresholds,
    budget: SpaceBudget,
) -> Vec<Tiling> {
    let (spatial_cap, rf_cap, l2_cap) = stage_caps(budget);
    let elem = cfg.elem_bytes;

    // ---------------------------------------------------- spatial stage
    // Candidate spatial dims: channels and output pixels (classic spatial
    // unrolling targets); depthwise layers spatialize M/Oy/Ox.
    let spatial_dims = [Dim::M, Dim::C, Dim::Oy, Dim::Ox];
    let mut spatial_choices: Vec<(Extents, f64)> = Vec::new();
    let mut sp = [1u64; 7];
    let spatial_divs = quota_divisors(|d| layer.dim(d));
    dfs_spatial(
        layer,
        &SpaceInputs::unclamped(cfg),
        &spatial_dims,
        &spatial_divs,
        0,
        &mut sp,
        1,
        [1; 4],
        &mut spatial_choices,
        4096,
    );
    // Highest PE utilization first; keep the cap.
    spatial_choices.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    let min_util = th.pe;
    let mut kept_spatial: Vec<Extents> = spatial_choices
        .iter()
        .filter(|(_, u)| *u >= min_util)
        .map(|(e, _)| *e)
        .take(spatial_cap)
        .collect();
    if kept_spatial.is_empty() {
        // Keep the best few even when the threshold is unreachable.
        kept_spatial = spatial_choices
            .iter()
            .map(|(e, _)| *e)
            .take(4.min(spatial_cap))
            .collect();
    }

    let mut result: Vec<(Tiling, f64)> = Vec::new();

    for sp in &kept_spatial {
        // ------------------------------------------------ register-file stage
        // RF loops draw from reduction dims plus output columns (enough to
        // express the classic stationarities).
        let rf_dims = [Dim::C, Dim::Fy, Dim::Fx, Dim::Ox];
        let mut rf_choices: Vec<(Extents, f64)> = Vec::new();
        let mut rf = [1u64; 7];
        let rf_divs = quota_divisors(|d| layer.dim(d) / sp[d.index()]);
        dfs_fill(
            layer,
            &rf_dims,
            &rf_divs,
            0,
            &mut rf,
            &|ext: &Extents| working_set_bytes(layer, ext, elem),
            cfg.l1_bytes,
            &mut rf_choices,
            1024,
        );
        rf_choices.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
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

        for rf in &kept_rf {
            // ------------------------------------------------ scratchpad stage
            let l2_dims = Dim::ALL;
            let mut l2_choices: Vec<(Extents, f64)> = Vec::new();
            let mut l2 = [1u64; 7];
            // SPM tile extents include RF and spatial factors.
            let spm_ext = |l2e: &Extents| {
                let mut e = [1u64; 7];
                for d in Dim::ALL {
                    let i = d.index();
                    e[i] = rf[i] * sp[i] * l2e[i];
                }
                e
            };
            let l2_divs = quota_divisors(|d| layer.dim(d) / (sp[d.index()] * rf[d.index()]));
            dfs_fill(
                layer,
                &l2_dims,
                &l2_divs,
                0,
                &mut l2,
                &|ext: &Extents| working_set_bytes(layer, &spm_ext(ext), elem),
                cfg.l2_bytes,
                &mut l2_choices,
                512,
            );
            l2_choices.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            let mut kept_l2: Vec<(Extents, f64)> = l2_choices
                .iter()
                .filter(|(_, u)| *u >= th.spm)
                .take(l2_cap)
                .cloned()
                .collect();
            if kept_l2.is_empty() {
                kept_l2 = l2_choices.into_iter().take(2.min(l2_cap)).collect();
            }

            let pe_util = sp.iter().product::<u64>() as f64 / cfg.pes as f64;
            for (l2, spm_util) in kept_l2 {
                let mut factors = [[1u64; 4]; 7];
                let mut ok = true;
                for d in Dim::ALL {
                    let i = d.index();
                    let product = rf[i] * sp[i] * l2[i];
                    if !layer.dim(d).is_multiple_of(product) {
                        ok = false;
                        break;
                    }
                    factors[i][Level::Rf.index()] = rf[i];
                    factors[i][Level::Spatial.index()] = sp[i];
                    factors[i][Level::Spm.index()] = l2[i];
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

/// Generic DFS over per-dimension divisor choices pruned by a monotone
/// working-set capacity: a node is cut when `working_set(ext) > cap_bytes`,
/// and every surviving leaf is recorded with its utilization score
/// `working_set / cap_bytes` — one working-set evaluation per node serves
/// both the feasibility check and the score.
#[allow(clippy::only_used_in_recursion, clippy::too_many_arguments)]
fn dfs_fill<W>(
    layer: &LayerShape,
    dims: &[Dim],
    divs: &DimDivisors,
    i: usize,
    ext: &mut Extents,
    working_set: &W,
    cap_bytes: u64,
    out: &mut Vec<(Extents, f64)>,
    max_leaves: usize,
) where
    W: Fn(&Extents) -> u64,
{
    if out.len() >= max_leaves {
        return;
    }
    let ws = working_set(ext);
    if ws > cap_bytes {
        return;
    }
    if i == dims.len() {
        out.push((*ext, ws as f64 / cap_bytes as f64));
        return;
    }
    let d = dims[i];
    for &f in divs[d.index()].iter().rev() {
        ext[d.index()] = f;
        dfs_fill(
            layer,
            dims,
            divs,
            i + 1,
            ext,
            working_set,
            cap_bytes,
            out,
            max_leaves,
        );
    }
    ext[d.index()] = 1;
}
