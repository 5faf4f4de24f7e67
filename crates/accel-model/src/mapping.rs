//! Mappings: four-level loop tilings plus per-memory-level loop order.
//!
//! A mapping assigns every canonical loop dimension a factor at each of the
//! four processing levels — innermost register-file temporal loops, the
//! spatial level (across PEs), scratchpad-level temporal loops, and
//! DRAM-level temporal loops — such that the per-dimension factor product
//! equals the layer extent (a *valid tiling*). Loop orders at the two
//! memory boundaries are abstracted as the *stationary operand* whose
//! irrelevant loops are innermost, following the unique/maximum-reuse
//! ordering classes that dMazeRunner, Interstellar and ZigZag prune to.

use crate::arch::AcceleratorConfig;
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// Processing levels, innermost first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Temporal loops inside a PE, data in the register file.
    Rf,
    /// Spatial unrolling across the PE array.
    Spatial,
    /// Temporal loops at the shared scratchpad.
    Spm,
    /// Outermost temporal loops, data streamed from DRAM.
    Dram,
}

impl Level {
    /// All levels, innermost first.
    pub const ALL: [Level; 4] = [Level::Rf, Level::Spatial, Level::Spm, Level::Dram];

    /// Index in `0..4`, innermost first.
    pub fn index(self) -> usize {
        match self {
            Level::Rf => 0,
            Level::Spatial => 1,
            Level::Spm => 2,
            Level::Dram => 3,
        }
    }
}

/// Loop-order class at a memory boundary: the operand whose irrelevant
/// loops are innermost and therefore enjoys maximal reuse at that boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stationarity {
    /// Inputs resident; weight/output loops rotate beneath them.
    InputStationary,
    /// Weights resident.
    WeightStationary,
    /// Outputs (partial sums) resident — reductions complete in place.
    OutputStationary,
}

impl Stationarity {
    /// All three ordering classes.
    pub const ALL: [Stationarity; 3] = [
        Stationarity::InputStationary,
        Stationarity::WeightStationary,
        Stationarity::OutputStationary,
    ];

    /// The tensor this ordering keeps resident. Output stationarity is
    /// identified with the written output operand.
    pub fn tensor(self) -> Tensor {
        match self {
            Stationarity::InputStationary => Tensor::Input,
            Stationarity::WeightStationary => Tensor::Weight,
            Stationarity::OutputStationary => Tensor::OutputWrite,
        }
    }
}

/// A valid four-level tiling: `factors[dim][level]`, with the product over
/// levels equal to the layer extent for every dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Tiling {
    factors: [[u64; 4]; 7],
}

impl Tiling {
    /// The trivial tiling for a layer: everything at the DRAM level.
    pub fn all_dram(layer: &LayerShape) -> Self {
        let mut factors = [[1u64; 4]; 7];
        for d in Dim::ALL {
            factors[d.index()][Level::Dram.index()] = layer.dim(d);
        }
        Self { factors }
    }

    /// Builds a tiling from explicit factors `[dim][level]`.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any factor is zero or the per-dimension products do
    /// not multiply to the layer extents.
    pub fn from_factors(layer: &LayerShape, factors: [[u64; 4]; 7]) -> Result<Self, String> {
        for d in Dim::ALL {
            let row = factors[d.index()];
            if row.contains(&0) {
                return Err(format!("zero factor in dimension {}", d.tag()));
            }
            let prod: u64 = row.iter().product();
            if prod != layer.dim(d) {
                return Err(format!(
                    "dimension {}: factors multiply to {prod}, extent is {}",
                    d.tag(),
                    layer.dim(d)
                ));
            }
        }
        Ok(Self { factors })
    }

    /// The factor of `dim` at `level`.
    pub fn factor(&self, dim: Dim, level: Level) -> u64 {
        self.factors[dim.index()][level.index()]
    }

    /// Sets one factor without validation (internal builder use).
    pub(crate) fn set_factor(&mut self, dim: Dim, level: Level, value: u64) {
        self.factors[dim.index()][level.index()] = value;
    }

    /// Raw factor matrix `[dim][level]`.
    pub fn factors(&self) -> &[[u64; 4]; 7] {
        &self.factors
    }

    /// Cumulative tile extent of `dim` covering all levels up to and
    /// including `level` (innermost first).
    pub fn tile_extent(&self, dim: Dim, level: Level) -> u64 {
        Level::ALL[..=level.index()]
            .iter()
            .map(|l| self.factor(dim, *l))
            .product()
    }

    /// Number of PEs used: product of spatial factors over all dims.
    pub fn pes_used(&self) -> u64 {
        Dim::ALL
            .iter()
            .map(|d| self.factor(*d, Level::Spatial))
            .product()
    }

    /// Iterations at one temporal level (product over dims).
    pub fn steps(&self, level: Level) -> u64 {
        Dim::ALL.iter().map(|d| self.factor(*d, level)).product()
    }
}

/// A full mapping: tiling plus the loop-order class at the two memory
/// boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// The four-level tiling.
    pub tiling: Tiling,
    /// Loop-order class of the scratchpad-level loops (controls NoC reuse).
    pub spm_order: Stationarity,
    /// Loop-order class of the DRAM-level loops (controls off-chip reuse).
    pub dram_order: Stationarity,
}

impl Mapping {
    /// Builds a mapping from parts.
    pub fn new(tiling: Tiling, spm_order: Stationarity, dram_order: Stationarity) -> Self {
        Self {
            tiling,
            spm_order,
            dram_order,
        }
    }

    /// A deterministic optimized **output-stationary** mapping (the paper's
    /// fixed "SOC-MOP" dataflow baseline): output pixels and channels are
    /// spatialized across PEs, reduction loops fill the register file, and
    /// scratchpad-level tiles grow greedily within capacity. Partial sums
    /// stay resident at both memory boundaries.
    ///
    /// The returned mapping is always a *valid tiling*; it may still be
    /// infeasible for `cfg` (e.g. too few unicast links for the spatial
    /// spread), which [`AcceleratorConfig::execute`](crate::AcceleratorConfig::execute)
    /// reports — this hardware/dataflow incompatibility is precisely what
    /// the paper observes for fixed-dataflow DSE.
    pub fn fixed_output_stationary(layer: &LayerShape, cfg: &AcceleratorConfig) -> Self {
        let mut t = Tiling::all_dram(layer);

        // 1) Spatialize output dims: M first, then OY, then OX, using the
        // largest divisors that fit the PE budget. The spatial policy is
        // part of the *fixed dataflow*: it fills the array regardless of
        // NoC link counts, so link-starved hardware configurations are
        // incompatible with this dataflow — exactly the
        // hardware/dataflow incompatibility the paper reports for
        // fixed-dataflow DSE.
        let mut pe_budget = cfg.pes;
        for d in [Dim::M, Dim::Oy, Dim::Ox] {
            let remaining = t.factor(d, Level::Dram);
            let mut f = largest_divisor_at_most(remaining, pe_budget);
            // The array's working set must fit the scratchpad.
            while f > 1 {
                let mut trial = t;
                move_factor(&mut trial, d, Level::Dram, Level::Spatial, f);
                if spm_bytes(layer, &trial, cfg.elem_bytes) <= cfg.l2_bytes {
                    break;
                }
                f = largest_divisor_at_most(remaining, f - 1);
            }
            move_factor(&mut t, d, Level::Dram, Level::Spatial, f);
            pe_budget /= f.max(1);
            if pe_budget <= 1 {
                break;
            }
        }

        // 2) Fill the register file with reduction loops (psum-resident
        // output-stationary): grow C, FY, FX at the RF level while the
        // working set fits L1.
        for d in [Dim::Fx, Dim::Fy, Dim::C] {
            grow_while(&mut t, d, Level::Dram, Level::Rf, |t| {
                rf_bytes(layer, t, cfg.elem_bytes) <= cfg.l1_bytes
                    && spm_bytes(layer, t, cfg.elem_bytes) <= cfg.l2_bytes
            });
        }

        // 3) Grow scratchpad-level tiles: reductions first (finish psums
        // on-chip), then output dims for more reuse of inputs/weights.
        for d in [Dim::C, Dim::Fy, Dim::Fx, Dim::Ox, Dim::Oy, Dim::M, Dim::N] {
            grow_while(&mut t, d, Level::Dram, Level::Spm, |t| {
                spm_bytes(layer, t, cfg.elem_bytes) <= cfg.l2_bytes
            });
        }

        Self::new(
            t,
            Stationarity::OutputStationary,
            Stationarity::OutputStationary,
        )
    }
}

/// Bytes an RF tile occupies per PE (all operands; outputs counted once).
pub(crate) fn rf_bytes(layer: &LayerShape, t: &Tiling, elem_bytes: u64) -> u64 {
    let ext = |d: Dim| t.factor(d, Level::Rf);
    tile_volume(layer, ext, Tensor::Input)
        .saturating_add(tile_volume(layer, ext, Tensor::Weight))
        .saturating_add(tile_volume(layer, ext, Tensor::OutputWrite))
        .saturating_mul(elem_bytes)
}

/// Bytes an SPM tile occupies (all operands, across the whole array).
pub(crate) fn spm_bytes(layer: &LayerShape, t: &Tiling, elem_bytes: u64) -> u64 {
    let ext = |d: Dim| t.tile_extent(d, Level::Spm);
    tile_volume(layer, ext, Tensor::Input)
        .saturating_add(tile_volume(layer, ext, Tensor::Weight))
        .saturating_add(tile_volume(layer, ext, Tensor::OutputWrite))
        .saturating_mul(elem_bytes)
}

/// Volume in elements of an operand tile given per-dimension extents.
///
/// Inputs account for the stride/filter halo; depthwise convolutions index
/// the input by the output channel.
pub(crate) fn tile_volume(layer: &LayerShape, ext: impl Fn(Dim) -> u64, t: Tensor) -> u64 {
    match t {
        Tensor::Weight => ext(Dim::M) * ext(Dim::C) * ext(Dim::Fy) * ext(Dim::Fx),
        Tensor::Input => {
            let ch = match layer.kind() {
                workloads::OpKind::DepthwiseConv => ext(Dim::M),
                _ => ext(Dim::C),
            };
            let iy = (ext(Dim::Oy) - 1) * layer.stride() + ext(Dim::Fy);
            let ix = (ext(Dim::Ox) - 1) * layer.stride() + ext(Dim::Fx);
            ext(Dim::N) * ch * iy * ix
        }
        Tensor::OutputRead | Tensor::OutputWrite => {
            ext(Dim::N) * ext(Dim::M) * ext(Dim::Oy) * ext(Dim::Ox)
        }
    }
}

/// Largest divisor of `n` that is `<= cap` (at least 1).
pub fn largest_divisor_at_most(n: u64, cap: u64) -> u64 {
    if cap == 0 {
        return 1;
    }
    let mut best = 1;
    let mut i = 1;
    while i * i <= n {
        if n.is_multiple_of(i) {
            if i <= cap && i > best {
                best = i;
            }
            let j = n / i;
            if j <= cap && j > best {
                best = j;
            }
        }
        i += 1;
    }
    best
}

/// Prime factorization of `n` (ascending, with multiplicity).
pub fn prime_factors(mut n: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut p = 2;
    while p * p <= n {
        while n.is_multiple_of(p) {
            out.push(p);
            n /= p;
        }
        p += 1;
    }
    if n > 1 {
        out.push(n);
    }
    out
}

/// Moves a factor `f` (which must divide the source factor) from one level
/// of a dimension to another, preserving the per-dimension product.
fn move_factor(t: &mut Tiling, d: Dim, from: Level, to: Level, f: u64) {
    debug_assert!(f > 0 && t.factor(d, from).is_multiple_of(f));
    t.set_factor(d, from, t.factor(d, from) / f);
    t.set_factor(d, to, t.factor(d, to) * f);
}

/// Greedily moves prime factors of `d` from `from` to `to` while `ok`
/// remains satisfied after each move.
fn grow_while(t: &mut Tiling, d: Dim, from: Level, to: Level, ok: impl Fn(&Tiling) -> bool) {
    loop {
        let remaining = t.factor(d, from);
        if remaining == 1 {
            return;
        }
        let p = *prime_factors(remaining).first().expect("remaining > 1");
        let mut trial = *t;
        move_factor(&mut trial, d, from, to, p);
        if ok(&trial) {
            *t = trial;
        } else {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> LayerShape {
        LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
    }

    #[test]
    fn all_dram_is_valid() {
        let l = layer();
        let t = Tiling::all_dram(&l);
        for d in Dim::ALL {
            assert_eq!(t.tile_extent(d, Level::Dram), l.dim(d));
        }
        assert_eq!(t.pes_used(), 1);
    }

    #[test]
    fn from_factors_rejects_bad_products() {
        let l = layer();
        let mut f = [[1u64; 4]; 7];
        f[Dim::M.index()] = [2, 2, 2, 2]; // 16 != 64
        assert!(Tiling::from_factors(&l, f).is_err());
    }

    #[test]
    fn from_factors_rejects_zero() {
        let l = layer();
        let mut f = *Tiling::all_dram(&l).factors();
        f[0][0] = 0;
        assert!(Tiling::from_factors(&l, f).is_err());
    }

    #[test]
    fn fixed_mapping_is_valid_and_fits() {
        let l = layer();
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&l, &cfg);
        // Valid tiling.
        assert!(Tiling::from_factors(&l, *m.tiling.factors()).is_ok());
        // Within resources.
        assert!(m.tiling.pes_used() <= cfg.pes);
        assert!(rf_bytes(&l, &m.tiling, cfg.elem_bytes) <= cfg.l1_bytes);
        assert!(spm_bytes(&l, &m.tiling, cfg.elem_bytes) <= cfg.l2_bytes);
        // Output stationary keeps psums put.
        assert_eq!(m.spm_order, Stationarity::OutputStationary);
    }

    #[test]
    fn fixed_mapping_uses_spatial_parallelism() {
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&layer(), &cfg);
        assert!(
            m.tiling.pes_used() > cfg.pes / 4,
            "should fill most of the array"
        );
    }

    #[test]
    fn divisor_helpers() {
        assert_eq!(largest_divisor_at_most(56, 10), 8);
        assert_eq!(largest_divisor_at_most(56, 56), 56);
        assert_eq!(largest_divisor_at_most(7, 6), 1);
        assert_eq!(prime_factors(360), vec![2, 2, 2, 3, 3, 5]);
        assert_eq!(prime_factors(97), vec![97]);
    }

    #[test]
    fn tile_volume_matches_tensor_elems_at_full_extent() {
        let l = layer();
        for t in Tensor::ALL {
            let v = tile_volume(&l, |d| l.dim(d), t);
            assert_eq!(v, l.tensor_elems(t), "{t:?}");
        }
    }

    #[test]
    fn gemm_tilings_keep_unit_dims() {
        let g = LayerShape::gemm(512, 196, 2048);
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&g, &cfg);
        for d in [Dim::N, Dim::Oy, Dim::Fy, Dim::Fx] {
            assert_eq!(m.tiling.tile_extent(d, Level::Dram), 1);
        }
    }
}
