//! Criterion micro-benchmarks for the building blocks the experiments
//! lean on: cost-model evaluation, mapping-space construction, mapping
//! optimization, bottleneck analysis, and one full DSE acquisition step.

use accel_model::{AcceleratorConfig, Mapping};
use criterion::{criterion_group, criterion_main, Criterion};
use edse_core::bottleneck::{dnn_latency_model, LayerCtx};
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::space::{edge, edge_space};
use edse_telemetry::{Collector, MemorySink};
use mapper::sweep::{self, ALL_ORDERINGS};
use mapper::{FixedMapper, LinearMapper, MappingOptimizer, MappingSpace, SpaceBudget, SweepConf};
use std::hint::black_box;
use workloads::{zoo, LayerShape};

fn layer() -> LayerShape {
    LayerShape::conv(1, 64, 64, 56, 56, 3, 3, 1)
}

fn bench_cost_model(c: &mut Criterion) {
    let cfg = AcceleratorConfig::edge_baseline();
    let l = layer();
    let m = Mapping::fixed_output_stationary(&l, &cfg);
    c.bench_function("cost_model/execute_layer", |b| {
        b.iter(|| black_box(cfg.execute(black_box(&l), black_box(&m))).unwrap())
    });
}

fn bench_mapping_space(c: &mut Criterion) {
    let cfg = AcceleratorConfig::edge_baseline();
    let l = layer();
    c.bench_function("mapper/space_build_top100", |b| {
        b.iter(|| black_box(MappingSpace::build(&l, &cfg, SpaceBudget::top(100))))
    });
    c.bench_function("mapper/linear_optimize_top50", |b| {
        let m = LinearMapper::new(50);
        b.iter(|| black_box(m.optimize(&l, &cfg)))
    });
    // The evaluation fast path's headline single-thread number: one full
    // linear mapping of one layer (space + 9 orderings per tiling, up to
    // the sweep's compute-floor stop). Warm memo: `optimize` takes its
    // space from the process-wide `MappingSpace::build_shared` memo, so
    // every iteration after the first is a memo hit and this series
    // measures the sweep alone.
    c.bench_function("mapper/linear_layer", |b| {
        let m = LinearMapper::new(100);
        b.iter(|| black_box(m.optimize(&l, &cfg)))
    });
    // The same mapping with a cold memo: the space is built fresh every
    // iteration, as `optimize` does on a memo miss, so this series
    // measures space enumeration plus the sweep.
    c.bench_function("mapper/linear_layer_cold", |b| {
        let budget = SpaceBudget::top(100);
        b.iter(|| {
            let space = MappingSpace::build(&l, &cfg, budget);
            black_box(sweep::sweep_best(
                &l,
                &cfg,
                space.tilings(),
                &ALL_ORDERINGS,
                SweepConf::serial(),
            ))
        })
    });
    // The warm-memo batch-1 query with a 2-way intra-layer worker budget,
    // so recorded speedups stay attributable to a thread count (results
    // are bit-identical to the serial variant; only wall-clock differs).
    c.bench_function("mapper/linear_layer_t2", |b| {
        let m = LinearMapper::new(100);
        b.iter(|| black_box(m.optimize_threaded(&l, &cfg, 2)))
    });
    // Space construction on hardware too small to meet the aggressive
    // thresholds: the auto-adjustment relaxes several rounds, so this
    // series measures the threshold-relaxation cost specifically.
    c.bench_function("mapper/space_build", |b| {
        let tiny = AcceleratorConfig::edge_minimum();
        b.iter(|| black_box(MappingSpace::build(&l, &tiny, SpaceBudget::paper_default())))
    });
}

fn bench_bottleneck(c: &mut Criterion) {
    let cfg = AcceleratorConfig::edge_baseline();
    let l = layer();
    let m = Mapping::fixed_output_stationary(&l, &cfg);
    let profile = cfg.execute(&l, &m).unwrap();
    let model = dnn_latency_model();
    let ctx = LayerCtx { cfg, profile };
    c.bench_function("bottleneck/analyze_layer", |b| {
        b.iter(|| black_box(model.analyze(black_box(&ctx), 2)))
    });
}

fn bench_dse(c: &mut Criterion) {
    c.bench_function("dse/point_evaluation_fixdf", |b| {
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let p = ev.space().minimum_point();
        let mut bump = 0usize;
        b.iter(|| {
            // Vary the point so caching does not trivialize the benchmark.
            bump = (bump + 1) % 7;
            let q = p.with_index(0, bump);
            black_box(ev.evaluate(&q))
        })
    });
    c.bench_function("dse/explainable_20_evals", |b| {
        b.iter(|| {
            let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
            let session = edse_core::SearchSession::new(
                dnn_latency_model(),
                DseConfig {
                    budget: 20,
                    ..DseConfig::default()
                },
            )
            .evaluator(&ev);
            let initial = ev.space().minimum_point();
            black_box(session.run(initial))
        })
    });
}

/// The evaluation engine's headline number: a 16-candidate batch through
/// `evaluate_batch`, serial vs. all-cores. Each iteration uses a fresh
/// evaluator so its point and layer caches start cold and the sweeps are
/// real; the process-wide space memo is warm after the first iteration,
/// so spaces are not rebuilt. The parallel run must produce identical
/// evaluations, just faster (the speedup only shows on multi-core hosts —
/// with one CPU the engine resolves to a single thread and the two series
/// coincide).
fn bench_batch_engine(c: &mut Criterion) {
    let space = edge_space();
    // 16 distinct configs: each point changes a NoC and a memory parameter,
    // so no layer mapping is shared between candidates (spaces may be).
    let points: Vec<_> = (0..16)
        .map(|i| {
            space
                .minimum_point()
                .with_index(edge::phys_links(1), 2 * i)
                .with_index(edge::PES, i % 4)
        })
        .collect();
    let make =
        || CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], LinearMapper::new(24));
    c.bench_function("engine/batch16_serial", |b| {
        b.iter(|| {
            let ev = make().with_engine(EvalEngine::serial());
            black_box(ev.evaluate_batch(&points))
        })
    });
    c.bench_function("engine/batch16_parallel", |b| {
        b.iter(|| {
            let ev = make();
            black_box(ev.evaluate_batch(&points))
        })
    });
    // The work-stealing prong's target shape: ONE candidate, many unique
    // layers. Explainable-DSE proposes a handful of candidates per
    // iteration (often one per predicted parameter value), so per-layer
    // mapping jobs — not per-candidate ones — are what must spread across
    // threads. Serial and threaded runs are bit-identical; the speedup
    // shows only on multi-core hosts (the CI container has 1 CPU).
    c.bench_function("engine/batch1_multilayer", |b| {
        let single = [space.minimum_point().with_index(edge::PES, 2)];
        b.iter(|| {
            let ev = make();
            black_box(ev.evaluate_batch(&single))
        })
    });
    // The same one-candidate batch with an explicit 2-thread engine, so
    // recorded executor speedups stay attributable to a thread count
    // (results are bit-identical to the serial variant; only wall-clock
    // differs — and on the 1-CPU CI container only spawn overhead does).
    c.bench_function("engine/batch1_multilayer_t2", |b| {
        let single = [space.minimum_point().with_index(edge::PES, 2)];
        b.iter(|| {
            let ev = make().with_engine(EvalEngine::with_threads(2));
            black_box(ev.evaluate_batch(&single))
        })
    });
    // Pure per-batch orchestration cost: a fully cached batch under a
    // 2-thread engine does no mapping or point work, so this round-trip
    // isolates what a batch pays just to distribute itself (scoped thread
    // spawns before the shared executor; a pool handoff after).
    c.bench_function("engine/spawn_overhead", |b| {
        let ev = make().with_engine(EvalEngine::with_threads(2));
        let _ = ev.evaluate_batch(&points);
        b.iter(|| black_box(ev.evaluate_batch(&points)))
    });
    // Telemetry overhead check: same batch with a live collector attached
    // (memory sink, metrics on — counters, histograms, and the v2 span
    // tree with id/parent bookkeeping all flow). The serial/parallel
    // series above run with the no-op collector, so comparing against
    // this series bounds the cost of instrumentation; the acceptance bar
    // is <2% regression for the *no-op* path and traced/untraced <= 1.25
    // (measured ≈ 1.05), recorded in results/json/bench_telemetry.json
    // and pinned by the report-crate test.
    c.bench_function("engine/batch16_traced", |b| {
        b.iter(|| {
            let collector = Collector::builder().sink(MemorySink::new()).build();
            let ev = make().with_telemetry(collector);
            black_box(ev.evaluate_batch(&points))
        })
    });
}

fn bench_sim(c: &mut Criterion) {
    let cfg = AcceleratorConfig::edge_baseline();
    let l = LayerShape::conv(1, 64, 32, 14, 14, 3, 3, 1);
    let m = Mapping::fixed_output_stationary(&l, &cfg);
    c.bench_function("sim/tile_pipeline_small_conv", |b| {
        b.iter(|| accel_model::simulate(&cfg, black_box(&l), black_box(&m), 2_000_000).unwrap())
    });
}

fn bench_space_size(c: &mut Criterion) {
    let l = LayerShape::conv(1, 64, 64, 224, 224, 3, 3, 1);
    let reference = AcceleratorConfig::edge_minimum();
    c.bench_function("mapper/table7_space_size", |b| {
        b.iter(|| black_box(mapper::layer_space_size(&l, &reference, 200, 0)))
    });
}

fn bench_workloads(c: &mut Criterion) {
    c.bench_function("workloads/unique_shapes_bert", |b| {
        let m = zoo::bert_base();
        b.iter(|| black_box(m.unique_shapes()))
    });
}

criterion_group!(
    benches,
    bench_cost_model,
    bench_mapping_space,
    bench_bottleneck,
    bench_dse,
    bench_batch_engine,
    bench_sim,
    bench_space_size,
    bench_workloads
);
criterion_main!(benches);
