//! Confuciux-style constrained reinforcement learning: a REINFORCE policy
//! with per-parameter categorical distributions and a constraint-aware
//! reward, generalized (as the paper did for its evaluation) to an
//! arbitrary number of parameters, per-parameter domain sizes, and an
//! arbitrary number of constraints.

use crate::{DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The RL baseline.
#[derive(Debug, Clone)]
pub struct ConfuciuxRl {
    rng: StdRng,
    learning_rate: f64,
    /// Per-parameter policy logits; empty until the first proposal.
    logits: Vec<Vec<f64>>,
    /// Running mean reward (the REINFORCE baseline).
    baseline: f64,
    episodes: usize,
}

impl ConfuciuxRl {
    /// An RL run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            learning_rate: 0.2,
            logits: Vec::new(),
            baseline: 0.0,
            episodes: 0,
        }
    }
}

/// Draws one index per parameter from the softmax of its logits.
fn sample(rng: &mut StdRng, logits: &[Vec<f64>]) -> DesignPoint {
    let indices = logits
        .iter()
        .map(|row| {
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|l| (l - max).exp()).collect();
            let total: f64 = exps.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            for (i, e) in exps.iter().enumerate() {
                u -= e;
                if u <= 0.0 {
                    return i;
                }
            }
            exps.len() - 1
        })
        .collect();
    DesignPoint::new(indices)
}

impl DseTechnique for ConfuciuxRl {
    fn name(&self) -> String {
        "rl".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        if self.episodes >= problem.budget {
            return None;
        }
        if self.logits.is_empty() {
            self.logits = problem
                .space
                .params()
                .iter()
                .map(|p| vec![0.0; p.len()])
                .collect();
        }
        Some(vec![sample(&mut self.rng, &self.logits)])
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        let s = &samples[0];
        // Constraint-aware reward shaping (Confuciux penalizes
        // violations; we generalize to the mean over-utilization).
        let reward = if s.feasible && s.objective.is_finite() {
            -s.objective.max(1e-9).ln()
        } else {
            let over = s.constraint_budget(problem.constraints);
            -10.0
                - if over.is_finite() {
                    over.min(100.0)
                } else {
                    100.0
                }
        };

        self.episodes += 1;
        self.baseline += (reward - self.baseline) / self.episodes as f64;
        let advantage = reward - self.baseline;

        // REINFORCE update per parameter.
        for (p, row) in self.logits.iter_mut().enumerate() {
            let chosen = s.point.index(p);
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = row.iter().map(|l| (l - max).exp()).collect();
            let total: f64 = exps.iter().sum();
            for (i, item) in row.iter_mut().enumerate() {
                let prob = exps[i] / total;
                let grad = if i == chosen { 1.0 - prob } else { -prob };
                *item += self.learning_rate * advantage * grad;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::evaluate::{CodesignEvaluator, Evaluator};
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    #[test]
    fn rl_runs_and_samples_within_domains() {
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let trace = ConfuciuxRl::new(11).run(&ev, 12);
        assert_eq!(trace.evaluations(), 12);
        for s in &trace.samples {
            for (i, &idx) in s.point.indices().iter().enumerate() {
                assert!(idx < ev.space().param(i).len());
            }
        }
    }

    #[test]
    fn rl_is_reproducible() {
        let run = |seed| {
            let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
            ConfuciuxRl::new(seed).run(&ev, 8)
        };
        let a = run(4);
        let b = run(4);
        assert_eq!(
            a.samples
                .iter()
                .map(|s| s.point.clone())
                .collect::<Vec<_>>(),
            b.samples
                .iter()
                .map(|s| s.point.clone())
                .collect::<Vec<_>>()
        );
    }
}
