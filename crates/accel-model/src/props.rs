//! Property-based tests for the execution model: conservation, bounds and
//! monotonicity invariants that must hold for *every* valid mapping, and
//! the differential tests that pin the factored and batched kernels to the
//! test-only straight-line reference.

use crate::mapping::prime_factors;
use crate::{
    AcceleratorConfig, ExecError, ExecutionProfile, Level, Mapping, Stationarity, Tiling,
    TilingBatch, Validity,
};
use energy_area::Tech;
use proptest::prelude::*;
use workloads::layer::Dim;
use workloads::{LayerShape, Tensor};

/// A modest conv layer with composite extents (rich factorization).
fn arb_layer() -> impl Strategy<Value = LayerShape> {
    (
        prop_oneof![Just(1u64), Just(2)],
        prop_oneof![Just(8u64), Just(16), Just(24), Just(64)],
        prop_oneof![Just(4u64), Just(12), Just(16), Just(64)],
        prop_oneof![Just(4u64), Just(8), Just(14), Just(28)],
        prop_oneof![Just(4u64), Just(8), Just(14), Just(28)],
        prop_oneof![Just(1u64), Just(3)],
        prop_oneof![Just(1u64), Just(3)],
        1u64..=2,
    )
        .prop_map(|(n, m, c, oy, ox, fy, fx, s)| LayerShape::conv(n, m, c, oy, ox, fy, fx, s))
}

/// A random valid tiling: each prime factor of each dimension lands on a
/// uniformly chosen level.
fn arb_tiling(layer: LayerShape) -> impl Strategy<Value = (LayerShape, Tiling)> {
    let total_primes: usize = Dim::ALL
        .iter()
        .map(|d| prime_factors(layer.dim(*d)).len())
        .sum();
    proptest::collection::vec(0usize..4, total_primes.max(1)).prop_map(move |levels| {
        let mut factors = [[1u64; 4]; 7];
        let mut i = 0;
        for d in Dim::ALL {
            for p in prime_factors(layer.dim(d)) {
                factors[d.index()][levels[i % levels.len()]] *= p;
                i += 1;
            }
        }
        (
            layer,
            Tiling::from_factors(&layer, factors).expect("valid by construction"),
        )
    })
}

fn arb_mapping() -> impl Strategy<Value = (LayerShape, Mapping)> {
    (arb_layer().prop_flat_map(arb_tiling), 0usize..3, 0usize..3).prop_map(
        |((layer, tiling), a, b)| {
            (
                layer,
                Mapping::new(tiling, Stationarity::ALL[a], Stationarity::ALL[b]),
            )
        },
    )
}

fn roomy_config() -> AcceleratorConfig {
    AcceleratorConfig {
        pes: 4096,
        l1_bytes: 64 * 1024,
        l2_bytes: 16 * 1024 * 1024,
        noc_phys_links: [4096; 4],
        noc_virt_links: [512; 4],
        ..AcceleratorConfig::edge_baseline()
    }
}

/// A deliberately link-starved config: NoC feasibility (including its
/// ordering-dependent psum-read arm) actually rejects mappings here.
fn starved_config() -> AcceleratorConfig {
    AcceleratorConfig {
        noc_phys_links: [1; 4],
        noc_virt_links: [2; 4],
        ..AcceleratorConfig::edge_baseline()
    }
}

/// Only the psum-read NoC is starved: with uniform links a psum-read
/// shortfall implies an output-write one, so this is the config on which
/// the ordering-dependent read-back admission alone decides feasibility.
fn psum_starved_config() -> AcceleratorConfig {
    AcceleratorConfig {
        noc_phys_links: [16, 16, 1, 16],
        noc_virt_links: [64, 64, 1, 64],
        ..AcceleratorConfig::edge_baseline()
    }
}

/// Latency is the max of its three factors, all non-negative.
fn check_latency_is_max_of_factors(p: &ExecutionProfile) {
    assert!(p.t_comp >= 0.0 && p.t_dma >= 0.0 && p.t_noc_max >= 0.0);
    let expected = p.t_comp.max(p.t_dma).max(p.t_noc_max);
    assert!((p.latency_cycles - expected).abs() < 1e-6);
}

/// Weights are always fetched at least once; the same holds for inputs
/// when the filter covers the stride (with stride > f the dense halo-box
/// formula counts rows the layer never touches, and tiling legitimately
/// skips them). Outputs are written at least once, and partial-sum reads
/// never exceed writes.
fn check_offchip_traffic_bounds(cfg: &AcceleratorConfig, layer: &LayerShape, p: &ExecutionProfile) {
    let wt = (layer.tensor_elems(Tensor::Weight) * cfg.elem_bytes) as f64;
    assert!(p.operand(Tensor::Weight).offchip_bytes >= wt * 0.999);
    let fmin = layer.dim(Dim::Fy).min(layer.dim(Dim::Fx));
    if layer.stride() <= fmin {
        let inp = (layer.tensor_elems(Tensor::Input) * cfg.elem_bytes) as f64;
        assert!(
            p.operand(Tensor::Input).offchip_bytes >= inp * 0.999,
            "input {} < {inp}",
            p.operand(Tensor::Input).offchip_bytes
        );
    }
    let wr = p.operand(Tensor::OutputWrite).offchip_bytes;
    let rd = p.operand(Tensor::OutputRead).offchip_bytes;
    assert!(rd <= wr + 1e-6, "psum reads {rd} exceed writes {wr}");
    let out = (layer.tensor_elems(Tensor::OutputWrite) * cfg.elem_bytes) as f64;
    assert!(wr >= out * 0.999);
}

/// Energy is at least one pJ per MAC.
fn check_energy_bound(p: &ExecutionProfile) {
    assert!(p.energy_pj >= p.macs, "energy below 1 pJ/MAC");
}

/// Execution succeeds exactly when the validity check passes.
fn check_execute_iff_valid(cfg: &AcceleratorConfig, layer: &LayerShape, mapping: &Mapping) {
    let valid = Validity::check(cfg, layer, mapping).is_ok();
    assert_eq!(cfg.execute(layer, mapping).is_ok(), valid);
}

/// The factored fast path (`prepare_tiling` once + `complete` per
/// ordering) and the public entry points equal the straight-line
/// reference, values and errors, for all nine orderings, strict and
/// NoC-relaxed.
fn check_factored_matches_reference(cfg: &AcceleratorConfig, layer: &LayerShape, tiling: &Tiling) {
    for relax in [false, true] {
        let prepared = cfg.prepare_tiling_with(layer, tiling, &Tech::n45(), relax);
        for spm in Stationarity::ALL {
            for dram in Stationarity::ALL {
                let mapping = Mapping::new(*tiling, spm, dram);
                let reference = cfg.execute_reference_with(layer, &mapping, &Tech::n45(), relax);
                let factored = match &prepared {
                    Ok(eval) => eval.complete(spm, dram),
                    Err(e) => Err(e.clone()),
                };
                assert_eq!(&factored, &reference);
                let public = if relax {
                    cfg.execute_relaxed(layer, &mapping)
                } else {
                    cfg.execute(layer, &mapping)
                };
                assert_eq!(&public, &reference);
            }
        }
    }
}

/// A counterexample an earlier property run found: a stride-2 pointwise
/// conv (the filter does not cover the stride) mapped input-stationary at
/// both levels. It runs through every check the `(layer, mapping)`
/// properties make, on the roomy, baseline and link-starved configs.
#[test]
fn stride_two_pointwise_input_stationary_case() {
    let layer = LayerShape::conv(1, 8, 4, 4, 4, 1, 1, 2);
    let factors = [
        [1, 1, 1, 1],
        [8, 1, 1, 1],
        [4, 1, 1, 1],
        [4, 1, 1, 1],
        [2, 1, 1, 2],
        [1, 1, 1, 1],
        [1, 1, 1, 1],
    ];
    let tiling = Tiling::from_factors(&layer, factors).expect("a valid tiling");
    let mapping = Mapping::new(
        tiling,
        Stationarity::InputStationary,
        Stationarity::InputStationary,
    );
    for cfg in [
        roomy_config(),
        AcceleratorConfig::edge_baseline(),
        starved_config(),
    ] {
        check_factored_matches_reference(&cfg, &layer, &tiling);
        check_execute_iff_valid(&cfg, &layer, &mapping);
        if let Ok(p) = cfg.execute(&layer, &mapping) {
            check_latency_is_max_of_factors(&p);
            check_offchip_traffic_bounds(&cfg, &layer, &p);
            check_energy_bound(&p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The latency must always be the max of its three factors, all
    /// non-negative.
    #[test]
    fn latency_is_max_of_nonnegative_factors((layer, mapping) in arb_mapping()) {
        if let Ok(p) = roomy_config().execute(&layer, &mapping) {
            check_latency_is_max_of_factors(&p);
        }
    }

    /// Compute time is exactly MACs over PEs used.
    #[test]
    fn compute_time_is_macs_over_pes((layer, mapping) in arb_mapping()) {
        let cfg = roomy_config();
        if let Ok(p) = cfg.execute(&layer, &mapping) {
            let expected = layer.macs() as f64 / mapping.tiling.pes_used() as f64;
            prop_assert!((p.t_comp - expected).abs() / expected.max(1.0) < 1e-9);
        }
    }

    /// Off-chip traffic per operand is at least the compulsory footprint
    /// (each element fetched/written at least once) for inputs and weights,
    /// and output reads never exceed writes.
    #[test]
    fn offchip_traffic_bounds((layer, mapping) in arb_mapping()) {
        let cfg = roomy_config();
        if let Ok(p) = cfg.execute(&layer, &mapping) {
            check_offchip_traffic_bounds(&cfg, &layer, &p);
        }
    }

    /// Execution succeeds exactly when the validity check passes.
    #[test]
    fn execute_iff_valid((layer, mapping) in arb_mapping()) {
        check_execute_iff_valid(&AcceleratorConfig::edge_baseline(), &layer, &mapping);
    }

    /// More off-chip bandwidth never increases DMA time.
    #[test]
    fn bandwidth_monotonicity((layer, mapping) in arb_mapping()) {
        let slow = roomy_config();
        let fast = AcceleratorConfig { offchip_bw_mbps: slow.offchip_bw_mbps * 4, ..slow };
        if let (Ok(a), Ok(b)) = (slow.execute(&layer, &mapping), fast.execute(&layer, &mapping)) {
            prop_assert!(b.t_dma <= a.t_dma + 1e-6);
            prop_assert!(b.latency_cycles <= a.latency_cycles + 1e-6);
        }
    }

    /// Wider NoCs never increase communication time.
    #[test]
    fn noc_width_monotonicity((layer, mapping) in arb_mapping()) {
        let narrow = roomy_config();
        let wide = AcceleratorConfig { noc_width_bits: 256, ..narrow };
        if let (Ok(a), Ok(b)) =
            (narrow.execute(&layer, &mapping), wide.execute(&layer, &mapping))
        {
            prop_assert!(b.t_noc_max <= a.t_noc_max + 1e-6);
        }
    }

    /// Energy is positive and at least one MAC's worth per MAC.
    #[test]
    fn energy_lower_bound((layer, mapping) in arb_mapping()) {
        if let Ok(p) = roomy_config().execute(&layer, &mapping) {
            check_energy_bound(&p);
        }
    }

    /// Remaining-reuse statistics are always >= 1 (a ratio of revisits).
    #[test]
    fn remaining_reuse_at_least_one((layer, mapping) in arb_mapping()) {
        let cfg = roomy_config();
        if let Ok(p) = cfg.execute(&layer, &mapping) {
            for op in Tensor::ALL {
                prop_assert!(p.operand(op).reuse_remaining_rf >= 1.0);
                prop_assert!(p.operand(op).reuse_remaining_spm >= 1.0);
            }
        }
    }

    /// The fixed output-stationary mapping is always a valid tiling and
    /// respects PE/RF/SPM capacities by construction.
    #[test]
    fn fixed_mapping_respects_capacities(layer in arb_layer()) {
        let cfg = AcceleratorConfig::edge_baseline();
        let m = Mapping::fixed_output_stationary(&layer, &cfg);
        prop_assert!(Tiling::from_factors(&layer, *m.tiling.factors()).is_ok());
        prop_assert!(m.tiling.pes_used() <= cfg.pes);
        match Validity::check(&cfg, &layer, &m) {
            Ok(_) => {}
            // Only NoC-link starvation may reject it; capacities hold.
            Err(ExecError::NocInfeasible { .. }) => {}
            Err(e) => prop_assert!(false, "unexpected: {e}"),
        }
    }

    /// The simulated pipeline latency always sandwiches the busiest
    /// resource's busy time and never beats it (the analytical bound).
    #[test]
    fn simulation_respects_busy_time_bound((layer, mapping) in arb_mapping()) {
        let cfg = roomy_config();
        if let Ok(sim) = crate::simulate(&cfg, &layer, &mapping, 200_000) {
            prop_assert!(sim.cycles >= sim.ideal_bound() * 0.999,
                "sim {} < bound {}", sim.cycles, sim.ideal_bound());
            prop_assert!(sim.cycles.is_finite() && sim.cycles > 0.0);
            // Compute busy time equals the analytical compute time.
            let expected = layer.macs() as f64 / mapping.tiling.pes_used() as f64;
            prop_assert!((sim.compute_busy - expected).abs() < 1e-6);
        }
    }

    /// Tile extents multiply back to the full dimension at the DRAM level.
    #[test]
    fn tile_extent_telescopes((layer, mapping) in arb_mapping()) {
        for d in Dim::ALL {
            prop_assert_eq!(mapping.tiling.tile_extent(d, Level::Dram), layer.dim(d));
        }
    }

    /// The factored fast path (`prepare_tiling` once + `complete` per
    /// ordering) is bit-identical — values AND errors — to the retained
    /// straight-line reference for all nine orderings, on roomy, baseline,
    /// link-starved and psum-read-starved hardware, both strict and
    /// NoC-relaxed.
    #[test]
    fn factored_execute_is_bit_identical_to_reference(
        (layer, tiling) in arb_layer().prop_flat_map(arb_tiling)
    ) {
        for cfg in [
            roomy_config(),
            AcceleratorConfig::edge_baseline(),
            starved_config(),
            psum_starved_config(),
        ] {
            check_factored_matches_reference(&cfg, &layer, &tiling);
        }
    }

    /// `TilingBatch::complete_batch` agrees bit for bit with the
    /// straight-line reference over random tilings plus the fixed-dataflow
    /// tiling, on roomy, baseline, link-starved and psum-read-starved
    /// hardware, both NoC-relaxation modes and all nine orderings:
    /// identical latencies for feasible pairs, identical infeasibility
    /// verdicts for the rest, and tilings the prepare pass drops must fail
    /// the reference outright.
    #[test]
    fn tiling_batch_matches_execute_reference(
        (layer, tiling) in arb_layer().prop_flat_map(arb_tiling)
    ) {
        let tech = Tech::n45();
        for cfg in [
            roomy_config(),
            AcceleratorConfig::edge_baseline(),
            starved_config(),
            psum_starved_config(),
        ] {
            let tilings = [tiling, Mapping::fixed_output_stationary(&layer, &cfg).tiling];
            for relax in [false, true] {
                let mut batch = TilingBatch::new();
                batch.prepare(&cfg, &layer, &tilings, &tech, relax);
                let kept = batch.kept().to_vec();
                for spm in Stationarity::ALL {
                    for dram in Stationarity::ALL {
                        let (lat, ok) = batch.complete_batch(spm, dram);
                        for (idx, t) in tilings.iter().enumerate() {
                            let mapping = Mapping::new(*t, spm, dram);
                            let reference =
                                cfg.execute_reference_with(&layer, &mapping, &tech, relax);
                            match kept.iter().position(|&i| i == idx) {
                                None => prop_assert!(
                                    reference.is_err(),
                                    "tiling {idx} dropped by prepare but the reference executes"
                                ),
                                Some(slot) if ok[slot] => {
                                    let p = reference.expect("batch-feasible pair must execute");
                                    prop_assert_eq!(
                                        lat[slot].to_bits(),
                                        p.latency_cycles.to_bits(),
                                        "latency diverged for tiling {}",
                                        idx
                                    );
                                }
                                Some(_) => prop_assert!(
                                    matches!(reference, Err(ExecError::NocInfeasible { .. })),
                                    "tiling {idx} batch-infeasible but the reference executes"
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}
