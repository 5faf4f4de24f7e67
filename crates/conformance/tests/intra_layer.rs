//! Intra-layer parallelism matrix: full DSE runs must be bit-identical
//! across evaluation-engine worker counts (1, 2, and the host default) ×
//! intra-layer sweep chunk sizes × all eight techniques, on the Fig. 4
//! toy setting.
//!
//! This is the end-to-end pin for the mapper-v2 kernel: the engine hands
//! each layer-mapping job an intra-layer worker budget, the mapper splits
//! its ordering×tiling sweep into chunks across those workers, and the
//! deterministic merge must leave *no trace of either knob* in any search
//! outcome — same samples, same best point, same termination, same unique
//! evaluation count. On the 1-CPU CI container `EDSE_TEST_THREADS=2`
//! (exported by `scripts/check.sh`) keeps the host-default column from
//! silently collapsing into the serial one.

use baselines::BaselineSession;
use conformance::scenarios::toy_technique;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::{DseConfig, DseResult};
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::SearchSession;
use mapper::{LinearMapper, SweepConf};

const BUDGET: usize = 16;
const SEED: u64 = 7;

/// The toy-space evaluator with a real (space-sweeping) mapper, so DSE
/// evaluations actually exercise the batched tiling kernel. `chunk` sets
/// the sweep's work-item granularity; the engine supplies the worker
/// budget per layer job at run time.
fn toy_evaluator(engine: EvalEngine, chunk: usize) -> CodesignEvaluator<LinearMapper> {
    let mapper = LinearMapper::new(8).with_sweep(SweepConf::serial().chunked(chunk));
    CodesignEvaluator::new(
        bench::toy::toy_space(),
        vec![bench::toy::single_layer_model()],
        mapper,
    )
    .with_engine(engine)
}

/// The engine column of the matrix: serial, two workers, and the host
/// default (`threads: None`, which `EDSE_TEST_THREADS` overrides on CI).
fn engines() -> [EvalEngine; 3] {
    [
        EvalEngine::serial(),
        EvalEngine::with_threads(2),
        EvalEngine::default(),
    ]
}

/// Sweep chunk sizes: single-item (maximal interleaving), a small odd
/// size that leaves a ragged tail, and one larger than any toy sweep
/// (degenerates to one chunk per worker).
const CHUNKS: [usize; 3] = [1, 3, 1 << 20];

/// Every `DseResult` field except the wall clock.
fn assert_results_identical(a: &DseResult, b: &DseResult, what: &str) {
    assert_eq!(a.trace().samples, b.trace().samples, "{what}: samples");
    assert_eq!(a.attempts(), b.attempts(), "{what}: attempts");
    assert_eq!(a.best(), b.best(), "{what}: best");
    assert_eq!(
        a.converged_after(),
        b.converged_after(),
        "{what}: convergence"
    );
    assert_eq!(a.termination(), b.termination(), "{what}: termination");
}

fn run_explainable(engine: EvalEngine, chunk: usize) -> (DseResult, usize) {
    let ev = toy_evaluator(engine, chunk);
    let config = DseConfig {
        budget: BUDGET,
        seed: SEED,
        ..DseConfig::default()
    };
    let initial = ev.space().minimum_point();
    let result = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&ev)
        .run(initial);
    (result, ev.unique_evaluations())
}

#[test]
fn explainable_search_is_bit_identical_across_threads_and_chunks() {
    let (reference, reference_uniques) = run_explainable(EvalEngine::serial(), 1);
    for engine in engines() {
        for chunk in CHUNKS {
            let (result, uniques) = run_explainable(engine, chunk);
            let what = format!("explainable, {engine:?}, chunk {chunk}");
            assert_results_identical(&result, &reference, &what);
            assert_eq!(uniques, reference_uniques, "{what}: unique evaluations");
        }
    }
}

#[test]
fn baseline_searches_are_bit_identical_across_threads_and_chunks() {
    for kind in bench::TechniqueKind::ALL {
        if kind == bench::TechniqueKind::Explainable {
            continue; // covered by the dedicated test above
        }
        let reference_ev = toy_evaluator(EvalEngine::serial(), 1);
        let mut reference_tech = toy_technique(kind, SEED);
        let reference = BaselineSession::new(reference_tech.as_mut()).run(&reference_ev, BUDGET);
        for engine in engines() {
            for chunk in CHUNKS {
                let ev = toy_evaluator(engine, chunk);
                let mut tech = toy_technique(kind, SEED);
                let outcome = BaselineSession::new(tech.as_mut()).run(&ev, BUDGET);
                assert_eq!(
                    outcome.samples, reference.samples,
                    "{kind:?} diverged ({engine:?}, chunk {chunk})"
                );
                assert_eq!(outcome.technique, reference.technique);
                assert_eq!(
                    ev.unique_evaluations(),
                    reference_ev.unique_evaluations(),
                    "{kind:?} unique evaluations diverged ({engine:?}, chunk {chunk})"
                );
            }
        }
    }
}
