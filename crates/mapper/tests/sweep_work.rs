//! Exact work counts of the bounded sweep, read from `mapper::sweep_stats`.
//!
//! This binary holds one test, so no other sweep runs in its process and
//! the counter deltas are exact. Every sweep runs at a thread budget of one
//! with the natural claim order, where chunks run in index order.

use accel_model::{AcceleratorConfig, Tiling};
use mapper::optimize::best_ordering;
use mapper::sweep::{self, ALL_ORDERINGS, DEFAULT_CHUNK};
use mapper::{sweep_stats, MappedLayer, MappingSpace, SpaceBudget, SweepConf, SweepStats};
use workloads::layer::Dim;
use workloads::LayerShape;

/// The counter totals added by `f`.
fn delta(f: impl FnOnce()) -> SweepStats {
    let before = sweep_stats();
    f();
    let after = sweep_stats();
    SweepStats {
        sweeps: after.sweeps - before.sweeps,
        floor_stops: after.floor_stops - before.floor_stops,
        tilings: after.tilings - before.tilings,
        tilings_prepared: after.tilings_prepared - before.tilings_prepared,
    }
}

/// The largest PE count among the tilings that fit `cfg`.
fn widest(cfg: &AcceleratorConfig, tilings: &[Tiling]) -> u64 {
    tilings
        .iter()
        .map(Tiling::pes_used)
        .filter(|&used| used <= cfg.pes)
        .max()
        .expect("a tiling fits")
}

/// `got` is the full scan's `winner`, the `sweep_scores` argmin.
fn assert_full_scan_winner(
    layer: &LayerShape,
    cfg: &AcceleratorConfig,
    tilings: &[Tiling],
    winner: Option<(f64, usize, usize)>,
    got: Option<MappedLayer>,
) {
    let (lat, idx, _) = winner.expect("a feasible tiling");
    let want = best_ordering(layer, cfg, &tilings[idx]).expect("the winner is feasible");
    let got = got.expect("a feasible tiling");
    assert_eq!(got.mapping, want.mapping);
    assert_eq!(got.profile.latency_cycles.to_bits(), lat.to_bits());
}

#[test]
fn bounded_sweep_prepares_exactly_the_chunks_up_to_the_floor() {
    let serial = SweepConf::serial();
    assert_eq!(serial.chunk, DEFAULT_CHUNK);

    // 1. A ResNet-18 `layer1` conv's top-1000 space, followed by one
    //    tiling over the PE count, which must not lower the floor: the
    //    sweep prepares the chunks up to and including the first one
    //    holding a floor-latency tiling.
    let layer = workloads::zoo::resnet18()
        .layers()
        .iter()
        .find(|l| l.name == "layer1.conv")
        .expect("ResNet-18 has layer1.conv")
        .shape;
    let cfg = AcceleratorConfig::edge_baseline();
    let space = MappingSpace::build(&layer, &cfg, SpaceBudget::top(1000));
    let mut factors = *Tiling::all_dram(&layer).factors();
    for d in [Dim::M, Dim::C] {
        factors[d.index()] = [1, layer.dim(d), 1, 1];
    }
    let over = Tiling::from_factors(&layer, factors).expect("valid factors");
    assert!(over.pes_used() > cfg.pes);
    let offered: Vec<Tiling> = space.tilings().iter().copied().chain([over]).collect();
    let tilings = &offered[..];
    let n = tilings.len() as u64;

    let mut scores = None;
    let scored = delta(|| scores = Some(sweep::sweep_scores(&layer, &cfg, tilings, serial)));
    let (costs, winner) = scores.expect("scored");
    let floor_at = layer.macs() as f64 / widest(&cfg, tilings) as f64;
    let k = costs
        .iter()
        .position(|&c| c <= floor_at)
        .expect("a tiling reaches the compute floor")
        / DEFAULT_CHUNK;
    let expected = (((k + 1) * DEFAULT_CHUNK) as u64).min(n);
    assert!(
        expected < n,
        "the floor must be reached before the last chunk"
    );

    let mut got = None;
    let bounded = delta(|| got = sweep::sweep_best(&layer, &cfg, tilings, &ALL_ORDERINGS, serial));
    assert_eq!(
        bounded,
        SweepStats {
            sweeps: 1,
            floor_stops: 1,
            tilings: n,
            tilings_prepared: expected,
        }
    );
    assert_full_scan_winner(&layer, &cfg, tilings, winner, got);

    // 2. `sweep_scores` prepares every tiling, floor or not.
    assert_eq!(
        scored,
        SweepStats {
            sweeps: 1,
            floor_stops: 0,
            tilings: n,
            tilings_prepared: n,
        }
    );

    // 3. On a config with one link per operand NoC, the widest tilings of
    //    the baseline's space are NoC-infeasible under every ordering: the
    //    floor is unreachable and the sweep prepares every tiling, the
    //    starved config's own space included.
    let starved = AcceleratorConfig {
        noc_phys_links: [1; 4],
        noc_virt_links: [1; 4],
        ..cfg
    };
    let narrow = MappingSpace::build(&layer, &starved, SpaceBudget::top(128));
    let slice: Vec<Tiling> = tilings[..128]
        .iter()
        .chain(narrow.tilings())
        .copied()
        .collect();
    let slice = &slice[..];
    let max_used = widest(&starved, slice);
    for t in slice.iter().filter(|t| t.pes_used() == max_used) {
        assert!(best_ordering(&layer, &starved, t).is_none());
    }
    let (_, oracle) = sweep::sweep_scores(&layer, &starved, slice, serial);
    let mut got = None;
    let blocked =
        delta(|| got = sweep::sweep_best(&layer, &starved, slice, &ALL_ORDERINGS, serial));
    assert_eq!(
        blocked,
        SweepStats {
            sweeps: 1,
            floor_stops: 0,
            tilings: slice.len() as u64,
            tilings_prepared: slice.len() as u64,
        }
    );
    assert_full_scan_winner(&layer, &starved, slice, oracle, got);
}
