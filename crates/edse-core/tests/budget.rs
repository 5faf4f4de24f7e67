//! The explainable search counts its own budget — the distinct points it
//! has seen evaluate successfully — so what an evaluator cached before the
//! search started cannot change the search's path.

use edse_core::bottleneck::dnn_latency_model;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::{edge_space, DesignPoint, DesignSpace};
use edse_core::{DseConfig, SearchSession};
use mapper::FixedMapper;
use std::collections::HashSet;
use workloads::zoo;

fn evaluator() -> CodesignEvaluator<FixedMapper> {
    CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
}

/// `n` distinct points of `space` outside `avoid`, spread over the space.
fn points_off(space: &DesignSpace, avoid: &HashSet<DesignPoint>, n: usize) -> Vec<DesignPoint> {
    let mut points = Vec::new();
    for i in 1.. {
        let point = DesignPoint::new(
            (0..space.len())
                .map(|p| (i * 7 + p * 3) % space.param(p).len())
                .collect(),
        );
        if !avoid.contains(&point) && !points.contains(&point) {
            points.push(point);
        }
        if points.len() == n {
            return points;
        }
    }
    unreachable!()
}

#[test]
fn prewarmed_evaluator_leaves_the_search_unchanged() {
    let config = DseConfig {
        budget: 40,
        ..DseConfig::default()
    };
    let fresh = evaluator();
    let initial = fresh.space().minimum_point();
    let reference = SearchSession::new(dnn_latency_model(), config.clone())
        .evaluator(&fresh)
        .run(initial.clone());

    // Warm a second evaluator with 14 points the search never visits.
    let visited: HashSet<DesignPoint> = reference
        .trace()
        .samples
        .iter()
        .map(|s| s.point.clone())
        .collect();
    let warm = evaluator();
    warm.evaluate_batch(&points_off(warm.space(), &visited, 14));
    assert_eq!(warm.unique_evaluations(), 14);

    let result = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&warm)
        .run(initial);
    assert_eq!(result.trace().samples, reference.trace().samples);
    assert_eq!(result.attempts(), reference.attempts());
    assert_eq!(result.best(), reference.best());
    assert_eq!(result.converged_after(), reference.converged_after());
    assert_eq!(result.termination(), reference.termination());
    assert_eq!(
        warm.unique_evaluations(),
        14 + fresh.unique_evaluations(),
        "the search spends its whole budget on its own points"
    );
}
