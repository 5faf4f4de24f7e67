//! Mapping-space size analysis, reproducing the paper's Table 7.
//!
//! For one layer the table reports (as orders of magnitude):
//!
//! * **A** — tile sizings with free per-level values (no validity),
//! * **B** — tile sizings restricted to valid factorizations,
//! * **C** — valid tilings that also fit a reference hardware
//!   configuration (estimated by Monte-Carlo sampling of B),
//! * **D** — loop orderings at one memory level,
//! * **E** — orderings with unique / maximum data reuse,
//! * **F = A·D²**, **G = B·D²**, **H = B·E²** — the full, the
//!   factorization-constrained, and the factorization-constrained
//!   reuse-aware mapping-space sizes.

use accel_model::mapping::prime_factors;
use accel_model::{AcceleratorConfig, Level, Tiling};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::layer::Dim;
use workloads::{LayerShape, OpKind};

/// Space sizes for one layer, all counts as `log10`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpaceSize {
    /// Column A: free tile sizings (three free levels per dimension).
    pub log10_free_tilings: f64,
    /// Column B: valid ordered four-level factorizations.
    pub log10_valid_factorizations: f64,
    /// Column C: valid factorizations that fit the reference hardware.
    /// `None` when the Monte-Carlo estimate found no feasible sample (the
    /// true value is then below `log10_valid_factorizations - log10(samples)`).
    pub log10_hw_valid: Option<f64>,
    /// Column D: loop orderings at one memory level (`k!` over non-unit loops).
    pub log10_orderings_per_level: f64,
    /// Column E: orderings with unique data reuse.
    pub unique_reuse_orderings: u64,
    /// Column E (second value): orderings with maximum reuse.
    pub max_reuse_orderings: u64,
    /// Column F: full mapping space `A x D^2`.
    pub log10_full_space: f64,
    /// Column G: factorization-constrained space `B x D^2`.
    pub log10_factorized_space: f64,
    /// Column H: factorization-constrained reuse-aware space `B x E^2`.
    pub log10_reuse_aware_space: f64,
}

/// Number of ordered four-way factorizations of `n`:
/// `prod over prime exponents e of C(e+3, 3)` (stars and bars per prime).
pub fn ordered_factorizations_4(n: u64) -> u64 {
    let mut count = 1u64;
    let mut primes = prime_factors(n);
    primes.dedup();
    for p in primes {
        let mut e = 0u64;
        let mut m = n;
        while m.is_multiple_of(p) {
            e += 1;
            m /= p;
        }
        count *= binomial(e + 3, 3);
    }
    count
}

fn binomial(n: u64, k: u64) -> u64 {
    let k = k.min(n - k);
    let mut num = 1u64;
    let mut den = 1u64;
    for i in 0..k {
        num *= n - i;
        den *= i + 1;
    }
    num / den
}

/// Scratchpad bytes a tiling's array-level working set occupies.
fn spm_tile_bytes(layer: &LayerShape, t: &Tiling, elem: u64) -> u64 {
    use workloads::Tensor;
    let ext = |d: Dim| t.tile_extent(d, Level::Spm);
    let vol = |op: Tensor| -> u64 {
        match op {
            Tensor::Weight => ext(Dim::M) * ext(Dim::C) * ext(Dim::Fy) * ext(Dim::Fx),
            Tensor::Input => {
                let ch = match layer.kind() {
                    OpKind::DepthwiseConv => ext(Dim::M),
                    _ => ext(Dim::C),
                };
                let iy = (ext(Dim::Oy) - 1) * layer.stride() + ext(Dim::Fy);
                let ix = (ext(Dim::Ox) - 1) * layer.stride() + ext(Dim::Fx);
                ext(Dim::N) * ch * iy * ix
            }
            _ => ext(Dim::N) * ext(Dim::M) * ext(Dim::Oy) * ext(Dim::Ox),
        }
    };
    (vol(Tensor::Input) + vol(Tensor::Weight) + vol(Tensor::OutputWrite)) * elem
}

fn log10_factorial(k: u64) -> f64 {
    (2..=k).map(|i| (i as f64).log10()).sum()
}

/// Enumerates all ordered four-level factorizations of `n` (used for
/// uniform Monte-Carlo sampling in the column-C estimate).
fn enumerate_factorizations(n: u64) -> Vec<[u64; 4]> {
    let mut out = Vec::new();
    let mut stack = vec![([1u64; 4], n, 0usize)];
    while let Some((acc, rem, level)) = stack.pop() {
        if level == 3 {
            let mut done = acc;
            done[3] = rem;
            out.push(done);
            continue;
        }
        let mut d = 1;
        while d * d <= rem {
            if rem % d == 0 {
                for f in [d, rem / d] {
                    let mut next = acc;
                    next[level] = f;
                    stack.push((next, rem / f, level + 1));
                    if d == rem / d {
                        break;
                    }
                }
            }
            d += 1;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Computes the Table-7 row for a layer against a reference hardware
/// configuration (the paper evaluates against the smallest Table-1 point).
///
/// Column C is a Monte-Carlo estimate over `samples` uniformly drawn valid
/// factorizations (per-dimension uniform over the enumerated lists).
pub fn layer_space_size(
    layer: &LayerShape,
    reference: &AcceleratorConfig,
    samples: usize,
    seed: u64,
) -> SpaceSize {
    let dims: Vec<u64> = Dim::ALL.iter().map(|d| layer.dim(*d)).collect();

    // A: three levels free in [1, D] each, fourth the remainder.
    let log10_free: f64 = dims
        .iter()
        .filter(|&&d| d > 1)
        .map(|&d| 3.0 * (d as f64).log10())
        .sum();

    // B: valid ordered factorizations.
    let log10_b: f64 = dims
        .iter()
        .filter(|&&d| d > 1)
        .map(|&d| (ordered_factorizations_4(d) as f64).log10())
        .sum();

    // C: Monte-Carlo feasibility fraction against the capacity resources
    // black-box mappers prune on (PE count and scratchpad capacity, §F);
    // register-file and NoC-link compatibility are checked at evaluation
    // time by the optimizers themselves.
    let per_dim: Vec<Vec<[u64; 4]>> = dims.iter().map(|&d| enumerate_factorizations(d)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feasible = 0usize;
    for _ in 0..samples {
        let mut factors = [[1u64; 4]; 7];
        for (i, list) in per_dim.iter().enumerate() {
            factors[i] = list[rng.gen_range(0..list.len())];
        }
        if let Ok(t) = Tiling::from_factors(layer, factors) {
            let spm = spm_tile_bytes(layer, &t, reference.elem_bytes);
            if t.pes_used() <= reference.pes && spm <= reference.l2_bytes {
                feasible += 1;
            }
        }
    }
    let log10_c = (feasible > 0).then(|| log10_b + (feasible as f64 / samples as f64).log10());

    // D: orderings at one memory level over non-unit loops.
    let non_unit = dims.iter().filter(|&&d| d > 1).count() as u64;
    let log10_d = log10_factorial(non_unit);

    // E: unique/maximum-reuse ordering counts (dMazeRunner analysis).
    let (unique, maxr) = match layer.kind() {
        OpKind::Gemm => (3, 3),
        _ => (15, 3),
    };

    SpaceSize {
        log10_free_tilings: log10_free,
        log10_valid_factorizations: log10_b,
        log10_hw_valid: log10_c,
        log10_orderings_per_level: log10_d,
        unique_reuse_orderings: unique,
        max_reuse_orderings: maxr,
        log10_full_space: log10_free + 2.0 * log10_d,
        log10_factorized_space: log10_b + 2.0 * log10_d,
        log10_reuse_aware_space: log10_b + 2.0 * (unique as f64).log10(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factorization_counts() {
        // 8 = 2^3: C(6,3) = 20 ordered 4-factorizations.
        assert_eq!(ordered_factorizations_4(8), 20);
        // 6 = 2*3: 4 * 4 = 16.
        assert_eq!(ordered_factorizations_4(6), 16);
        assert_eq!(ordered_factorizations_4(1), 1);
        // Primes: 4 placements.
        assert_eq!(ordered_factorizations_4(7), 4);
    }

    #[test]
    fn enumeration_matches_closed_form() {
        for n in [1u64, 2, 6, 8, 12, 30, 64] {
            let list = enumerate_factorizations(n);
            assert_eq!(list.len() as u64, ordered_factorizations_4(n), "n={n}");
            assert!(list.iter().all(|f| f.iter().product::<u64>() == n));
        }
    }

    #[test]
    fn binomial_basics() {
        assert_eq!(binomial(6, 3), 20);
        assert_eq!(binomial(4, 3), 4);
    }

    #[test]
    fn vgg_conv1_2_is_order_10_to_the_28() {
        // The paper's Table 7 lists O(10^28) free tilings for VGG CONV1_2.
        let l = LayerShape::conv(1, 64, 64, 224, 224, 3, 3, 1);
        let s = layer_space_size(&l, &AcceleratorConfig::edge_minimum(), 200, 0);
        assert!(
            (25.0..31.0).contains(&s.log10_free_tilings),
            "A = 10^{:.1}",
            s.log10_free_tilings
        );
        // Full space F ~ O(10^36).
        assert!(
            (32.0..40.0).contains(&s.log10_full_space),
            "F = 10^{:.1}",
            s.log10_full_space
        );
        // Pruning shrinks the space at every step: A >= B >= C.
        assert!(s.log10_free_tilings >= s.log10_valid_factorizations);
        if let Some(c) = s.log10_hw_valid {
            assert!(s.log10_valid_factorizations >= c);
        }
    }

    #[test]
    fn gemm_has_three_orderings() {
        let g = LayerShape::gemm(512, 64, 2048);
        let s = layer_space_size(&g, &AcceleratorConfig::edge_minimum(), 100, 0);
        assert_eq!(s.unique_reuse_orderings, 3);
        // 3 non-unit loops => 3! = 6 orderings per level.
        assert!((s.log10_orderings_per_level - (6.0f64).log10()).abs() < 1e-9);
    }
}
