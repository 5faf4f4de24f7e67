//! Edge-case unit tests for `MappingSpace` under the staged enumerator:
//! empty spaces, degenerate single-tiling layers, utilization scores tied
//! exactly at the relaxation boundary, and top-K order stability. Each
//! case also cross-checks against `build_reference`, the retained
//! multi-pass oracle, so the memoized staged path is pinned on exactly
//! the inputs where its pruning shortcuts could diverge.

use crate::space::Thresholds;
use crate::{MappingSpace, SpaceBudget};
use accel_model::{AcceleratorConfig, Level};
use workloads::layer::Dim;
use workloads::LayerShape;

/// Builds both the staged space and the reference space and asserts they
/// agree exactly (size, tiling order, settled thresholds) before handing
/// the staged one back.
fn build_checked(layer: &LayerShape, cfg: &AcceleratorConfig, budget: SpaceBudget) -> MappingSpace {
    let staged = MappingSpace::build(layer, cfg, budget);
    let reference = MappingSpace::build_reference(layer, cfg, budget);
    assert_eq!(staged.len(), reference.len(), "space size diverged");
    for (a, b) in staged.tilings().iter().zip(reference.tilings()) {
        assert_eq!(a.factors(), b.factors(), "tiling order diverged");
    }
    assert_eq!(
        staged.thresholds(),
        reference.thresholds(),
        "settled thresholds diverged"
    );
    staged
}

/// PE-array utilization of a tiling: spatial unroll product over the PE
/// count. This is the score the aggressive `pe: 0.75` threshold prunes on.
fn pe_util(t: &accel_model::Tiling, cfg: &AcceleratorConfig) -> f64 {
    let spatial: u64 = Dim::ALL
        .iter()
        .map(|d| t.factors()[d.index()][Level::Spatial.index()])
        .product();
    spatial as f64 / cfg.pes as f64
}

/// Hardware whose register file cannot hold even a single element: no
/// tiling is feasible, not even the one-PE serial fallback.
#[test]
fn space_is_empty_when_nothing_fits() {
    let cfg = AcceleratorConfig {
        l1_bytes: 1,
        ..AcceleratorConfig::edge_baseline()
    };
    let layer = LayerShape::conv(1, 8, 8, 4, 4, 3, 3, 1);
    let space = build_checked(&layer, &cfg, SpaceBudget::paper_default());
    assert!(space.is_empty());
    assert_eq!(space.len(), 0);
    assert!(space.tilings().is_empty());
    assert_eq!(
        space.mappings().count(),
        0,
        "no mappings from an empty space"
    );
}

/// A 1×1×1 unit layer admits exactly one tiling (everything is a factor
/// of one), so the space must contain it and nothing else.
#[test]
fn unit_layer_yields_single_tiling() {
    let cfg = AcceleratorConfig::edge_baseline();
    let layer = LayerShape::conv(1, 1, 1, 1, 1, 1, 1, 1);
    let space = build_checked(&layer, &cfg, SpaceBudget::paper_default());
    assert_eq!(space.len(), 1);
    let t = space.tilings()[0];
    for d in Dim::ALL {
        for l in Level::ALL {
            assert_eq!(t.factors()[d.index()][l.index()], 1);
        }
    }
    assert_eq!(space.mappings().count(), 9);
}

/// A tiling whose PE utilization sits exactly on the aggressive 0.75
/// threshold must be kept — the prune is `score >= threshold`, not a
/// strict inequality. With 4 PEs and M = 3 as the only non-unit
/// dimension, the best possible spatial unroll is 3/4 = 0.75 exactly; if
/// the boundary were exclusive the builder would be forced into
/// relaxation rounds and `thresholds()` would report a lower floor.
#[test]
fn tie_at_pe_threshold_boundary_is_kept() {
    let cfg = AcceleratorConfig {
        pes: 4,
        ..AcceleratorConfig::edge_baseline()
    };
    let layer = LayerShape::conv(1, 3, 1, 1, 1, 1, 1, 1);
    let space = build_checked(&layer, &cfg, SpaceBudget::top(1));
    assert!(!space.is_empty());
    let th = space.thresholds();
    let best = space
        .tilings()
        .iter()
        .map(|t| pe_util(t, &cfg))
        .fold(0.0f64, f64::max);
    assert_eq!(
        best, 0.75,
        "the 3-of-4-PEs tiling should survive at exactly the threshold"
    );
    assert!(
        best >= th.pe,
        "kept tiling must meet the settled PE floor (tie is inclusive)"
    );
}

/// The spatial stage's threshold filter is all-or-nothing: either every
/// kept tiling meets the settled PE floor, or the threshold was
/// unreachable and the best-few fallback fired — in which case *no* kept
/// tiling meets it. A mixed space would mean the filter leaked
/// sub-threshold choices alongside passing ones.
#[test]
fn kept_tilings_meet_floor_or_are_all_fallback() {
    let big = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
    let cases = [
        (AcceleratorConfig::edge_baseline(), SpaceBudget::top(100)),
        (
            AcceleratorConfig::edge_minimum(),
            SpaceBudget::paper_default(),
        ),
    ];
    for (cfg, budget) in cases {
        let space = build_checked(&big, &cfg, budget);
        assert!(!space.is_empty());
        let th = space.thresholds();
        assert!(th.pe <= Thresholds::aggressive().pe);
        let meets = space
            .tilings()
            .iter()
            .filter(|t| pe_util(t, &cfg) >= th.pe)
            .count();
        assert!(
            meets == space.len() || meets == 0,
            "threshold filter leaked: {meets} of {} tilings meet the settled floor",
            space.len()
        );
    }
}

/// Top-K tie order under the staged enumerator is deterministic at a
/// *binding* truncation: when more candidates exist than the budget
/// admits, the tilings kept at the cut — including any score ties at the
/// boundary — are exactly the ones the multi-pass reference keeps, in
/// the same order, and a rebuild reproduces them bit-for-bit. (Different
/// budgets legitimately enumerate different candidate pools — stage caps
/// and the assembly early-exit scale with `n_max` — so the contract is
/// per-budget determinism, not a cross-budget prefix.)
#[test]
fn top_k_tie_order_is_deterministic_at_binding_truncation() {
    let cfg = AcceleratorConfig::edge_baseline();
    let layer = LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1);
    let small = build_checked(&layer, &cfg, SpaceBudget::top(25));
    assert_eq!(small.len(), 25, "truncation must actually bind");
    let again = MappingSpace::build(&layer, &cfg, SpaceBudget::top(25));
    assert_eq!(small.tilings().len(), again.tilings().len());
    for (a, b) in small.tilings().iter().zip(again.tilings()) {
        assert_eq!(a.factors(), b.factors(), "rebuild not reproducible");
    }
}

/// A symmetric layer (square outputs, unit filters) produces many
/// tilings with identical PE utilization — score ties all through the
/// list. The staged enumerator's memoized top-K choice lists must break
/// those ties exactly like the reference's full-sort-then-truncate (DFS
/// enumeration order, via stable sorts and order-preserving insertion),
/// which `build_checked` pins element by element.
#[test]
fn score_ties_keep_reference_order() {
    let cfg = AcceleratorConfig::edge_baseline();
    let layer = LayerShape::conv(1, 16, 16, 8, 8, 1, 1, 1);
    let space = build_checked(&layer, &cfg, SpaceBudget::top(64));
    assert!(!space.is_empty());
    let utils: Vec<u64> = space
        .tilings()
        .iter()
        .map(|t| pe_util(t, &cfg).to_bits())
        .collect();
    let distinct: std::collections::HashSet<u64> = utils.iter().copied().collect();
    assert!(
        distinct.len() < utils.len(),
        "layer was meant to produce PE-utilization ties ({} tilings, {} distinct scores)",
        utils.len(),
        distinct.len()
    );
}
