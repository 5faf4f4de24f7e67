//! End-to-end integration tests: the full pipeline from workload tables
//! through mapping optimization, cost models, bottleneck analysis, and the
//! DSE loops — asserting the paper's qualitative claims.

use explainable_dse::opt::{DseTechnique, RandomSearch};
use explainable_dse::prelude::*;

fn explainable_run(model: DnnModel, budget: usize) -> (DseResult, Vec<Constraint>) {
    let evaluator = CodesignEvaluator::new(edge_space(), vec![model], FixedMapper);
    let session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            ..DseConfig::default()
        },
    )
    .evaluator(&evaluator);
    let initial = evaluator.space().minimum_point();
    let constraints = evaluator.constraints().to_vec();
    (session.run(initial), constraints)
}

#[test]
fn explainable_dse_converges_in_tens_of_evaluations() {
    let (result, _) = explainable_run(zoo::resnet18(), 2500);
    // The paper's headline agility: the first exploration phase converges
    // after ~tens of designs instead of 2500 (later §C restart phases may
    // spend more of the budget refining).
    let first_phase = *result.converged_after().first().expect("phases recorded");
    assert!(
        first_phase < 200,
        "first phase took {first_phase} evaluations"
    );
    assert!(
        result.trace().evaluations() < 1000,
        "restart phases ran away: {}",
        result.trace().evaluations()
    );
    let (_, best) = result.best().expect("finds a feasible codesign");
    assert!(best.objective.is_finite());
    // 40 FPS floor.
    assert!(best.objective <= 25.0, "latency {} ms", best.objective);
}

#[test]
fn explainable_matches_or_beats_random_at_equal_budget() {
    let budget = 150;
    let (result, _) = explainable_run(zoo::resnet18(), budget);
    let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
    let random = RandomSearch::new(11).run(&ev, budget);

    let ours = result
        .best()
        .as_ref()
        .map(|(_, e)| e.objective)
        .unwrap_or(f64::INFINITY);
    let theirs = random
        .best_feasible()
        .map(|s| s.objective)
        .unwrap_or(f64::INFINITY);
    // At worst within 50% of random at the same budget while using fewer
    // evaluations; typically better.
    assert!(
        ours <= theirs * 1.5,
        "explainable {ours} ms vs random {theirs} ms"
    );
    assert!(result.trace().evaluations() <= budget);
}

#[test]
fn feasible_region_is_never_left_once_entered() {
    // §6.3: "Once Explainable-DSE achieved a solution that met all
    // constraints, it always ensured to optimize further with a feasible
    // solution." We verify via the trace: after the first feasible sample
    // selected as incumbent, the best-so-far never regresses.
    let (result, _) = explainable_run(zoo::mobilenet_v2(), 300);
    let curve = result.trace().convergence_curve();
    let mut best = f64::INFINITY;
    for v in curve {
        assert!(v <= best + 1e-9);
        best = v;
    }
}

#[test]
fn every_attempt_records_decision_and_analysis() {
    let (result, _) = explainable_run(zoo::resnet18(), 120);
    assert!(!result.attempts().is_empty());
    for a in result.attempts() {
        assert!(
            !a.decision().is_empty(),
            "attempt {} lacks a decision",
            a.index()
        );
    }
    // Most attempts analyze at least one sub-function.
    let analyzed = result
        .attempts()
        .iter()
        .filter(|a| !a.analyses().is_empty())
        .count();
    assert!(analyzed * 2 >= result.attempts().len());
}

#[test]
fn codesign_beats_fixed_dataflow() {
    // §6.2: including the software space yields better solutions.
    let budget = 150;
    let model = zoo::efficientnet_b0();
    let (fixed, _) = explainable_run(model.clone(), budget);

    let ev = CodesignEvaluator::new(edge_space(), vec![model], LinearMapper::new(100));
    let session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            ..DseConfig::default()
        },
    )
    .evaluator(&ev);
    let initial = ev.space().minimum_point();
    let codesign = session.run(initial);

    let f = fixed
        .best()
        .as_ref()
        .map(|(_, e)| e.objective)
        .unwrap_or(f64::INFINITY);
    let c = codesign
        .best()
        .as_ref()
        .map(|(_, e)| e.objective)
        .unwrap_or(f64::INFINITY);
    assert!(c <= f * 1.05, "codesign {c} ms vs fixed dataflow {f} ms");
}

#[test]
fn best_design_respects_all_constraints() {
    let (result, constraints) = explainable_run(zoo::resnet18(), 200);
    let (_, best) = result.best().expect("feasible");
    assert!(best.feasible(&constraints));
    assert!(best.area_mm2 <= 75.0);
    assert!(best.power_w <= 4.0);
}
