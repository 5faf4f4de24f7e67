//! Property-based tests for mapping-space construction and the mapping
//! optimizers.

use accel_model::{AcceleratorConfig, Mapping, Stationarity, TilingBatch, Validity};
use energy_area::Tech;
use mapper::optimize::{best_ordering, random_tiling};
use mapper::size::ordered_factorizations_4;
use mapper::sweep::{self, ALL_ORDERINGS};
use mapper::{LinearMapper, MappingOptimizer, MappingSpace, RandomMapper, SpaceBudget, SweepConf};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::LayerShape;

/// A configuration whose operand NoCs are starved down to a single
/// physical, non-time-shared link each: most spatially-parallel tilings
/// become NoC-infeasible, exercising the infeasibility paths of the
/// batched kernel and the sweep.
fn starved_cfg() -> AcceleratorConfig {
    AcceleratorConfig {
        noc_phys_links: [1; 4],
        noc_virt_links: [1; 4],
        ..AcceleratorConfig::edge_baseline()
    }
}

fn arb_layer() -> impl Strategy<Value = LayerShape> {
    (
        prop_oneof![Just(8u64), Just(16), Just(32), Just(64)],
        prop_oneof![Just(3u64), Just(8), Just(16), Just(64)],
        prop_oneof![Just(4u64), Just(8), Just(14), Just(28)],
        prop_oneof![Just(1u64), Just(3), Just(5)],
        1u64..=2,
    )
        .prop_map(|(m, c, hw, f, s)| LayerShape::conv(1, m, c, hw, hw, f, f, s))
}

/// Hardware that varies what space enumeration reads (PEs, L1, L2,
/// element width, per-operand NoC caps, which land both below and above
/// the PE count) and what it must ignore (bandwidth, NoC width,
/// frequency, DMA overhead).
fn arb_cfg() -> impl Strategy<Value = AcceleratorConfig> {
    let links = |choices: [u64; 4]| {
        collection::vec(
            prop_oneof![
                Just(choices[0]),
                Just(choices[1]),
                Just(choices[2]),
                Just(choices[3])
            ],
            4,
        )
        .prop_map(|v| [v[0], v[1], v[2], v[3]])
    };
    (
        prop_oneof![Just(16u64), Just(64), Just(96), Just(256), Just(1024)],
        prop_oneof![Just(8u64), Just(32), Just(128), Just(512)],
        prop_oneof![
            Just(16u64 << 10),
            Just(64 << 10),
            Just(256 << 10),
            Just(1 << 20)
        ],
        prop_oneof![Just(1u64), Just(2)],
        prop_oneof![Just(1024u64), Just(8192), Just(65536)],
        prop_oneof![Just(16u64), Just(64), Just(256)],
        links([1, 2, 8, 32]),
        links([1, 4, 16, 64]),
        prop_oneof![Just(200u64), Just(500), Just(1000)],
        prop_oneof![Just(0u64), Just(8), Just(32)],
    )
        .prop_map(
            |(pes, l1_bytes, l2_bytes, elem_bytes, bw, width, phys, virt, freq, dma)| {
                AcceleratorConfig {
                    pes,
                    l1_bytes,
                    l2_bytes,
                    offchip_bw_mbps: bw,
                    noc_width_bits: width,
                    noc_phys_links: phys,
                    noc_virt_links: virt,
                    freq_mhz: freq,
                    elem_bytes,
                    dma_burst_overhead_cycles: dma,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every tiling in a constructed space validates against the hardware.
    #[test]
    fn space_contains_only_feasible_tilings(layer in arb_layer()) {
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(64));
        for t in space.tilings() {
            let m = Mapping::new(
                *t,
                Stationarity::OutputStationary,
                Stationarity::OutputStationary,
            );
            prop_assert!(Validity::check(&cfg, &layer, &m).is_ok());
        }
    }

    /// Spaces are deduplicated.
    #[test]
    fn space_has_no_duplicates(layer in arb_layer()) {
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(64));
        let mut seen = std::collections::HashSet::new();
        for t in space.tilings() {
            prop_assert!(seen.insert(*t.factors()), "duplicate tiling in space");
        }
    }

    /// Random tilings always preserve the per-dimension factor products.
    #[test]
    fn random_tilings_valid(layer in arb_layer(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_tiling(&layer, &mut rng);
        let prod: u64 = (0..7)
            .map(|i| t.factors()[i].iter().product::<u64>())
            .product();
        prop_assert_eq!(prod, layer.dims().iter().product::<u64>());
    }

    /// `best_ordering` returns the minimum over the nine combinations.
    #[test]
    fn best_ordering_is_minimum(layer in arb_layer(), seed in 0u64..100) {
        let cfg = AcceleratorConfig {
            noc_phys_links: [64; 4],
            noc_virt_links: [512; 4],
            l1_bytes: 1024,
            l2_bytes: 1024 * 1024,
            ..AcceleratorConfig::edge_baseline()
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let t = random_tiling(&layer, &mut rng);
        if let Some(best) = best_ordering(&layer, &cfg, &t) {
            for spm in Stationarity::ALL {
                for dram in Stationarity::ALL {
                    let m = Mapping::new(t, spm, dram);
                    if let Ok(p) = cfg.execute(&layer, &m) {
                        prop_assert!(
                            best.profile.latency_cycles <= p.latency_cycles + 1e-6
                        );
                    }
                }
            }
        }
    }

    /// The linear mapper never does worse than the first tiling it visits.
    #[test]
    fn linear_mapper_returns_space_optimum(layer in arb_layer()) {
        let cfg = AcceleratorConfig::edge_baseline();
        let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(32));
        let m = LinearMapper::new(32);
        if let Some(best) = m.optimize(&layer, &cfg) {
            for t in space.tilings() {
                if let Some(c) = best_ordering(&layer, &cfg, t) {
                    prop_assert!(
                        best.profile.latency_cycles <= c.profile.latency_cycles + 1e-6
                    );
                }
            }
        }
    }

    /// Random-mapper results are reproducible and within valid hardware.
    #[test]
    fn random_mapper_deterministic(layer in arb_layer(), seed in 0u64..50) {
        let cfg = AcceleratorConfig::edge_baseline();
        let a = RandomMapper::new(40, seed).optimize(&layer, &cfg);
        let b = RandomMapper::new(40, seed).optimize(&layer, &cfg);
        prop_assert_eq!(a.map(|x| x.mapping), b.map(|x| x.mapping));
    }

    /// The single-pass staged enumeration behind `MappingSpace::build`
    /// settles on exactly the spaces the multi-pass reference builds: same
    /// tilings, same order, for every budget/hardware combination. `build`
    /// reads the hardware through the projection the shared memo keys on
    /// (NoC caps clamped to the PE count); the reference reads the full
    /// config, so this also pins the projection as exact.
    #[test]
    fn staged_space_build_matches_reference(layer in arb_layer(), arb in arb_cfg()) {
        for cfg in [arb, AcceleratorConfig::edge_baseline(), AcceleratorConfig::edge_minimum()] {
            for budget in [SpaceBudget::top(32), SpaceBudget::paper_default()] {
                let staged = MappingSpace::build(&layer, &cfg, budget);
                let reference = MappingSpace::build_reference(&layer, &cfg, budget);
                prop_assert_eq!(
                    staged.tilings().len(),
                    reference.tilings().len(),
                    "space size diverged"
                );
                for (a, b) in staged.tilings().iter().zip(reference.tilings()) {
                    prop_assert_eq!(a.factors(), b.factors(), "tiling order diverged");
                }
                prop_assert_eq!(staged.thresholds(), reference.thresholds());
            }
        }
    }

    /// `TilingBatch::complete_batch` agrees bit-for-bit with the
    /// straight-line `execute_reference` oracle over random shapes, both
    /// NoC-relaxation modes, and all nine orderings: identical latencies
    /// for feasible pairs, identical infeasibility verdicts for the rest,
    /// and tilings the prepare pass drops must fail the oracle outright.
    #[test]
    fn tiling_batch_matches_execute_reference(
        layer in arb_layer(),
        seed in 0u64..50,
        relax in any::<bool>(),
    ) {
        let tech = Tech::n45();
        for cfg in [starved_cfg(), AcceleratorConfig::edge_baseline()] {
            let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(8));
            let mut rng = StdRng::seed_from_u64(seed);
            // Space tilings plus raw random ones: the latter may overflow
            // the register file or the NoCs, covering dropped slots and
            // per-ordering infeasibility.
            let mut tilings = space.tilings().to_vec();
            tilings.push(random_tiling(&layer, &mut rng));
            tilings.push(random_tiling(&layer, &mut rng));

            let mut batch = TilingBatch::new();
            batch.prepare(&cfg, &layer, &tilings, &tech, relax);
            let slot_of: std::collections::HashMap<usize, usize> = batch
                .kept()
                .iter()
                .enumerate()
                .map(|(slot, &idx)| (idx, slot))
                .collect();
            for (oi, &(spm, dram)) in ALL_ORDERINGS.iter().enumerate() {
                let (lat, ok) = batch.complete_batch(spm, dram);
                let (lat, ok) = (lat.to_vec(), ok.to_vec());
                for (idx, t) in tilings.iter().enumerate() {
                    let reference = cfg.execute_reference_with(
                        &layer,
                        &Mapping::new(*t, spm, dram),
                        &tech,
                        relax,
                    );
                    match slot_of.get(&idx) {
                        None => prop_assert!(
                            reference.is_err(),
                            "tiling {idx} dropped by prepare but oracle executes (ordering {oi})"
                        ),
                        Some(&slot) if ok[slot] => {
                            let p = reference.expect("batch-feasible pair must execute");
                            prop_assert_eq!(
                                lat[slot].to_bits(),
                                p.latency_cycles.to_bits(),
                                "latency diverged for tiling {} ordering {}",
                                idx,
                                oi
                            );
                        }
                        Some(_) => prop_assert!(
                            reference.is_err(),
                            "tiling {idx} batch-infeasible but oracle executes (ordering {oi})"
                        ),
                    }
                }
            }
        }
    }

    /// The chunked/threaded sweep is bit-identical to the serial scan for
    /// every thread count and chunk size, over random shapes and the
    /// degenerate spaces (single tiling, empty, all-infeasible).
    #[test]
    fn sweep_matches_serial_for_random_shapes(layer in arb_layer(), seed in 0u64..50) {
        let confs = [
            SweepConf::with_threads(2).chunked(3),
            SweepConf::with_threads(3).chunked(1),
            SweepConf::with_threads(2).chunked(1000),
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let randoms: Vec<_> = (0..3).map(|_| random_tiling(&layer, &mut rng)).collect();
        for cfg in [AcceleratorConfig::edge_baseline(), starved_cfg()] {
            let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(16));
            let single = space.tilings().len().min(1);
            let subsets: [&[accel_model::Tiling]; 4] = [
                space.tilings(),
                &space.tilings()[..single],
                &[],
                // Raw random tilings on the starved config are typically
                // infeasible under every ordering.
                &randoms,
            ];
            for subset in subsets {
                let serial =
                    sweep::sweep_best(&layer, &cfg, subset, &ALL_ORDERINGS, SweepConf::serial());
                for conf in confs {
                    let par = sweep::sweep_best(&layer, &cfg, subset, &ALL_ORDERINGS, conf);
                    match (&serial, &par) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            prop_assert_eq!(a.mapping, b.mapping);
                            prop_assert_eq!(
                                a.profile.latency_cycles.to_bits(),
                                b.profile.latency_cycles.to_bits()
                            );
                        }
                        _ => prop_assert!(false, "feasibility diverged from serial"),
                    }
                }
                let (s_costs, s_best) =
                    sweep::sweep_scores(&layer, &cfg, subset, SweepConf::serial());
                for conf in confs {
                    let (costs, best) = sweep::sweep_scores(&layer, &cfg, subset, conf);
                    prop_assert_eq!(costs.len(), s_costs.len());
                    for (a, b) in costs.iter().zip(&s_costs) {
                        prop_assert_eq!(a.to_bits(), b.to_bits());
                    }
                    prop_assert_eq!(
                        best.map(|(l, i, o)| (l.to_bits(), i, o)),
                        s_best.map(|(l, i, o)| (l.to_bits(), i, o))
                    );
                }
            }
        }
    }

    /// The closed-form ordered-factorization count is multiplicative over
    /// coprime arguments.
    #[test]
    fn factorization_count_multiplicative(a in 1u64..64, b in 1u64..64) {
        let g = gcd(a, b);
        if g == 1 {
            prop_assert_eq!(
                ordered_factorizations_4(a * b),
                ordered_factorizations_4(a) * ordered_factorizations_4(b)
            );
        }
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}
