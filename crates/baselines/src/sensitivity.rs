//! A sensitivity-guided gray-box DSE — the §C middle ground between
//! black-box search and designer-written bottleneck models: when no
//! bottleneck model is available, per-parameter cost sensitivities can be
//! *estimated from probes* and used to pick the next parameter to move.
//!
//! The optimizer keeps an exponentially-weighted estimate of each
//! parameter's marginal cost change per index step (from its own history),
//! moves the most promising parameter in its improving direction, and
//! periodically re-probes a random parameter so stale estimates recover.

use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The gray-box sensitivity-guided explorer.
#[derive(Debug, Clone)]
pub struct SensitivityGuided {
    rng: StdRng,
    /// Probability of probing a random parameter instead of the best one.
    explore_prob: f64,
    /// EWMA smoothing factor for sensitivity updates.
    alpha: f64,
    /// The point moves start from and its cost, once the start point is
    /// observed.
    current: Option<(DesignPoint, f64)>,
    /// Per parameter: estimated |improvement| per step, and the direction
    /// to try next.
    gain: Vec<f64>,
    dir: Vec<isize>,
    /// The parameter the pending proposal moves; `None` while the pending
    /// proposal is a (re)start point.
    moving: Option<usize>,
    /// Every direction looked exhausted: the next proposal is a random
    /// restart.
    restart: bool,
    observed: usize,
}

impl SensitivityGuided {
    /// A sensitivity-guided run with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            explore_prob: 0.2,
            alpha: 0.5,
            current: None,
            gain: Vec::new(),
            dir: Vec::new(),
            moving: None,
            restart: false,
            observed: 0,
        }
    }
}

impl DseTechnique for SensitivityGuided {
    fn name(&self) -> String {
        "sensitivity".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let space = problem.space;
        let Some((current, _)) = &self.current else {
            self.gain = vec![f64::INFINITY; space.len()]; // optimistic init
            self.dir = vec![1; space.len()];
            return Some(vec![space.minimum_point()]);
        };
        if self.observed >= problem.budget {
            return None;
        }
        self.moving = None;
        if std::mem::take(&mut self.restart) {
            return Some(vec![random_point(space, &mut self.rng)]);
        }
        if space.params().iter().all(|p| p.len() <= 1) {
            return None; // nothing can move
        }
        loop {
            // Pick the parameter with the highest estimated gain (ties and
            // unprobed parameters first thanks to the optimistic init), or
            // explore randomly.
            let p = if self.rng.gen::<f64>() < self.explore_prob {
                self.rng.gen_range(0..space.len())
            } else {
                (0..space.len())
                    .max_by(|&a, &b| {
                        self.gain[a]
                            .partial_cmp(&self.gain[b])
                            .expect("gains of finite costs are never NaN")
                    })
                    .unwrap_or(0)
            };
            let len = space.param(p).len() as isize;
            if len <= 1 {
                self.gain[p] = 0.0;
                continue;
            }
            let idx = current.index(p) as isize;
            // With two or more values, one of the two directions stays in
            // the domain.
            if !(0..len).contains(&(idx + self.dir[p])) {
                self.dir[p] = -self.dir[p];
            }
            self.moving = Some(p);
            return Some(vec![current.with_index(p, (idx + self.dir[p]) as usize)]);
        }
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        let sample = &samples[0];
        let cost = problem.cost(sample);
        self.observed += 1;
        let (Some(p), Some((current, current_cost))) = (self.moving, &mut self.current) else {
            // A (re)start point: moves continue from here with fresh
            // optimistic estimates.
            self.current = Some((sample.point.clone(), cost));
            self.gain.fill(f64::INFINITY);
            return;
        };

        // Update the sensitivity estimate from the observed delta.
        let improvement = *current_cost - cost;
        let observed = improvement.abs();
        self.gain[p] = if self.gain[p].is_finite() {
            self.alpha * observed + (1.0 - self.alpha) * self.gain[p]
        } else {
            observed
        };
        if improvement > 0.0 {
            *current = sample.point.clone();
            *current_cost = cost;
        } else {
            // Wrong direction: flip and decay the estimate.
            self.dir[p] = -self.dir[p];
            self.gain[p] *= 0.5;
        }
        // Restart next if every direction looks exhausted.
        self.restart = self.gain.iter().all(|g| *g <= 1e-12);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::cost::Evaluation;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::{edge_space, DesignSpace, ParamDef};
    use mapper::FixedMapper;
    use workloads::zoo;

    /// Steps a technique by hand against a flat objective (every point is
    /// feasible with cost 1) over a space with the given domain sizes, and
    /// returns how many samples it took.
    fn flat_run(technique: &mut dyn DseTechnique, sizes: &[usize], budget: usize) -> usize {
        let params = sizes
            .iter()
            .enumerate()
            .map(|(i, &n)| ParamDef::new(format!("p{i}"), (1..=n).map(|v| v as f64).collect()))
            .collect();
        let space = DesignSpace::new(params);
        let problem = Problem {
            space: &space,
            constraints: &[],
            budget,
        };
        let flat = Evaluation {
            objective: 1.0,
            mappable: true,
            constraint_values: Vec::new(),
            layers: Vec::new(),
            area_mm2: 0.0,
            power_w: 0.0,
            energy_mj: 0.0,
        };
        let mut samples = 0;
        while let Some(batch) = technique.propose(&problem) {
            let evaluated: Vec<Sample> = batch
                .into_iter()
                .map(|point| Sample::new(point, &flat, &[]))
                .collect();
            samples += evaluated.len();
            assert!(samples <= 10 * budget, "no termination");
            let results = vec![Ok(flat.clone()); evaluated.len()];
            technique.observe(&problem, &evaluated, results);
        }
        samples
    }

    #[test]
    fn nothing_to_move_ends_after_the_start_point() {
        let mut t = SensitivityGuided::new(1);
        assert_eq!(flat_run(&mut t, &[1, 1], 10), 1);
    }

    #[test]
    fn restart_probe_respects_the_budget() {
        // On a flat objective the first move exhausts the one parameter's
        // estimate, which asks for a restart probe the budget has no room
        // for.
        for budget in 1..6 {
            let mut t = SensitivityGuided::new(1);
            assert_eq!(flat_run(&mut t, &[4], budget), budget);
        }
    }

    #[test]
    fn sensitivity_guided_improves_within_budget() {
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let trace = SensitivityGuided::new(5).run(&ev, 120);
        assert!(trace.evaluations() <= 120);
        // The first sample is the (infeasible) minimum point; the explorer
        // must make progress on the penalized cost.
        let first = trace.samples.first().unwrap().objective;
        let last_best = trace
            .samples
            .iter()
            .map(|s| s.objective)
            .fold(f64::INFINITY, f64::min);
        assert!(last_best <= first);
    }

    #[test]
    fn sensitivity_guided_is_reproducible() {
        let run = |seed| {
            let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
            SensitivityGuided::new(seed).run(&ev, 30)
        };
        let a = run(9);
        let b = run(9);
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
