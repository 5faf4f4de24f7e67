//! Executor determinism oracle: full DSE runs on the Fig. 4 toy setting
//! must be bit-identical for every pool budget {1, 2, host default} ×
//! *injected claim-order perturbations* × all eight techniques.
//!
//! The shared executor's contract is that it decides only *who* computes a
//! task, never what the task computes or how results merge. The
//! perturbation hook (`edse_executor::set_claim_perturbation`) remaps the
//! claim counter through a random bijection, simulating the adversarial
//! steal interleavings a loaded multi-tenant pool produces — under the
//! contract, no seed may change a single sample. The hook is process
//! global, which is safe precisely because of that contract: a concurrent
//! test seeing a perturbed claim order is exactly the scenario being
//! pinned.

use baselines::BaselineSession;
use conformance::scenarios::toy_technique;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::SearchSession;
use mapper::{LinearMapper, SweepConf};
use proptest::prelude::*;

const BUDGET: usize = 16;
const SEED: u64 = 7;

fn toy_evaluator(engine: EvalEngine, chunk: usize) -> CodesignEvaluator<LinearMapper> {
    let mapper = LinearMapper::new(8).with_sweep(SweepConf::serial().chunked(chunk));
    CodesignEvaluator::new(
        edse_core::toy::toy_space(),
        vec![edse_core::toy::single_layer_model()],
        mapper,
    )
    .with_engine(engine)
}

/// A canonical serialization of one full run — every sample in order, the
/// unique-evaluation count, and (for explainable) the termination — so two
/// runs can be compared for bit-identity with one string equality.
fn run_digest(kind: bench::TechniqueKind, engine: EvalEngine) -> String {
    let ev = toy_evaluator(engine, 1);
    if kind == bench::TechniqueKind::Explainable {
        let config = DseConfig {
            budget: BUDGET,
            seed: SEED,
            ..DseConfig::default()
        };
        let initial = ev.space().minimum_point();
        let result = SearchSession::new(dnn_latency_model(), config)
            .evaluator(&ev)
            .run(initial);
        format!(
            "{:?}|{:?}|{:?}|{}",
            result.trace().samples,
            result.best(),
            result.termination(),
            ev.unique_evaluations()
        )
    } else {
        let mut tech = toy_technique(kind, SEED);
        let outcome = BaselineSession::new(tech.as_mut()).run(&ev, BUDGET);
        format!("{:?}|{}", outcome.samples, ev.unique_evaluations())
    }
}

fn engine_for(budget_choice: usize) -> EvalEngine {
    match budget_choice {
        0 => EvalEngine::serial(),
        1 => EvalEngine::with_threads(2),
        _ => EvalEngine::default(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_pool_budget_and_claim_order_is_bit_identical(
        kind_index in 0usize..bench::TechniqueKind::ALL.len(),
        budget_choice in 0usize..3,
        perturbation in 1u64..u64::MAX,
    ) {
        let kind = bench::TechniqueKind::ALL[kind_index];
        // Reference: serial engine, natural claim order.
        edse_executor::set_claim_perturbation(0);
        let reference = run_digest(kind, EvalEngine::serial());
        // Candidate: sampled pool budget under an adversarial claim order.
        edse_executor::set_claim_perturbation(perturbation);
        let candidate = run_digest(kind, engine_for(budget_choice));
        edse_executor::set_claim_perturbation(0);
        prop_assert_eq!(
            candidate, reference,
            "{:?} diverged under budget choice {} perturbation {:#x}",
            kind, budget_choice, perturbation
        );
    }
}

/// The executor's spawn-free steady state, pinned end to end: warm the
/// pool with one toy run, then assert a full eight-technique pass spawns
/// zero threads while avoided-spawn accounting keeps climbing.
#[test]
fn full_technique_pass_spawns_no_threads_after_warm_up() {
    edse_executor::set_claim_perturbation(0);
    let _ = run_digest(bench::TechniqueKind::Grid, EvalEngine::with_threads(2));
    let warm = edse_executor::Executor::global().counters();
    for kind in bench::TechniqueKind::ALL {
        let _ = run_digest(kind, EvalEngine::with_threads(2));
    }
    let after = edse_executor::Executor::global().counters();
    assert_eq!(
        after.workers_spawned, warm.workers_spawned,
        "warm pool spawned threads during a full technique pass"
    );
    assert!(
        after.spawn_avoided > warm.spawn_avoided,
        "pooled batches should record avoided spawns"
    );
}
