//! Non-feedback and classic stochastic baselines: grid search, random
//! search, simulated annealing, genetic algorithm.

use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Grid search: strides each parameter so the grid's size roughly matches
/// the budget, then sweeps it (a non-feedback technique, Fig. 1a).
#[derive(Debug, Clone, Default)]
pub struct GridSearch {
    proposed: bool,
}

impl GridSearch {
    /// A grid search.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DseTechnique for GridSearch {
    fn name(&self) -> String {
        "grid".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        if std::mem::replace(&mut self.proposed, true) {
            return None;
        }
        let space = problem.space;
        let budget = problem.budget;

        // Choose per-parameter sample counts so the product ~ budget:
        // repeatedly double the count of the parameter with the largest
        // remaining domain while the grid still fits the budget.
        let mut counts: Vec<usize> = vec![1; space.len()];
        loop {
            let grid: usize = counts.iter().product();
            let candidate = (0..space.len())
                .filter(|&i| counts[i] * 2 <= space.param(i).len())
                .max_by_key(|&i| space.param(i).len() / counts[i]);
            match candidate {
                Some(i) if grid * 2 <= budget => {
                    counts[i] = (counts[i] * 2).min(space.param(i).len())
                }
                _ => break,
            }
        }

        // The sweep has no feedback: enumerate every grid point first, then
        // propose the whole set as one batch.
        let mut points = Vec::new();
        let mut counter = vec![0usize; space.len()];
        'outer: loop {
            if points.len() >= budget {
                break;
            }
            // Map counter to spread indices across each domain.
            let indices: Vec<usize> = counter
                .iter()
                .zip(space.params())
                .zip(&counts)
                .map(|((&c, p), &cnt)| {
                    if cnt <= 1 {
                        0
                    } else {
                        c * (p.len() - 1) / (cnt - 1)
                    }
                })
                .collect();
            points.push(DesignPoint::new(indices));

            // Mixed-radix increment.
            for i in 0..counter.len() {
                counter[i] += 1;
                if counter[i] < counts[i] {
                    continue 'outer;
                }
                counter[i] = 0;
            }
            break;
        }
        Some(points)
    }

    fn observe(&mut self, _: &Problem, _: &[Sample], _: Vec<EvalResult>) {}
}

/// Uniform random search (non-feedback).
#[derive(Debug, Clone)]
pub struct RandomSearch {
    rng: StdRng,
    proposed: bool,
}

impl RandomSearch {
    /// A random search with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            proposed: false,
        }
    }
}

impl DseTechnique for RandomSearch {
    fn name(&self) -> String {
        "random".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        if std::mem::replace(&mut self.proposed, true) {
            return None;
        }
        // No feedback: draw every point up front, as one batch.
        Some(
            (0..problem.budget)
                .map(|_| random_point(problem.space, &mut self.rng))
                .collect(),
        )
    }

    fn observe(&mut self, _: &Problem, _: &[Sample], _: Vec<EvalResult>) {}
}

/// Simulated annealing with a linear temperature schedule and single-index
/// neighborhood moves (the SciPy-style baseline).
#[derive(Debug, Clone)]
pub struct SimulatedAnnealing {
    rng: StdRng,
    initial_temp: f64,
    /// The accepted point and its cost, once the initial point is observed.
    current: Option<(DesignPoint, f64)>,
    observed: usize,
}

impl SimulatedAnnealing {
    /// An annealer with the given seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            initial_temp: 1.0,
            current: None,
            observed: 0,
        }
    }
}

impl DseTechnique for SimulatedAnnealing {
    fn name(&self) -> String {
        "annealing".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let space = problem.space;
        let Some((current, _)) = &self.current else {
            return Some(vec![random_point(space, &mut self.rng)]);
        };
        if self.observed >= problem.budget {
            return None;
        }
        // Neighbor: move one random parameter by +-1 index.
        let p = self.rng.gen_range(0..space.len());
        let len = space.param(p).len();
        let idx = current.index(p);
        let next = if self.rng.gen::<bool>() && idx + 1 < len {
            idx + 1
        } else {
            idx.saturating_sub(1)
        };
        Some(vec![current.with_index(p, next)])
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        let sample = &samples[0];
        let cost = problem.cost(sample);
        let accept = match &self.current {
            None => true,
            Some((_, current_cost)) => {
                let temp = self.initial_temp
                    * (1.0 - self.observed as f64 / problem.budget as f64).max(1e-3);
                cost <= *current_cost || {
                    let ratio = (current_cost - cost) / (current_cost.abs().max(1e-9) * temp);
                    self.rng.gen::<f64>() < ratio.exp()
                }
            }
        };
        if accept {
            self.current = Some((sample.point.clone(), cost));
        }
        self.observed += 1;
    }
}

/// Genetic algorithm with tournament selection, uniform crossover, and
/// per-index mutation (the scikit-opt-style baseline).
#[derive(Debug, Clone)]
pub struct GeneticAlgorithm {
    population: usize,
    rng: StdRng,
    /// Members and their costs; empty until the initial population is
    /// observed.
    pop: Vec<(DesignPoint, f64)>,
    started: bool,
    observed: usize,
}

impl GeneticAlgorithm {
    /// A GA with the given population size and seed.
    pub fn new(population: usize, seed: u64) -> Self {
        Self {
            population: population.max(4),
            rng: StdRng::seed_from_u64(seed),
            pop: Vec::new(),
            started: false,
            observed: 0,
        }
    }
}

impl DseTechnique for GeneticAlgorithm {
    fn name(&self) -> String {
        "genetic".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        let space = problem.space;
        if !std::mem::replace(&mut self.started, true) {
            // Initial population: no feedback between members, one batch.
            return Some(
                (0..self.population.min(problem.budget))
                    .map(|_| random_point(space, &mut self.rng))
                    .collect(),
            );
        }
        if self.observed >= problem.budget {
            return None;
        }
        let pick = |rng: &mut StdRng, pop: &[(DesignPoint, f64)]| {
            let a = rng.gen_range(0..pop.len());
            let b = rng.gen_range(0..pop.len());
            if pop[a].1 <= pop[b].1 {
                pop[a].0.clone()
            } else {
                pop[b].0.clone()
            }
        };
        let pa = pick(&mut self.rng, &self.pop);
        let pb = pick(&mut self.rng, &self.pop);
        // Uniform crossover + mutation.
        let mut child: Vec<usize> = (0..space.len())
            .map(|i| {
                if self.rng.gen::<bool>() {
                    pa.index(i)
                } else {
                    pb.index(i)
                }
            })
            .collect();
        for (i, gene) in child.iter_mut().enumerate() {
            if self.rng.gen::<f64>() < 0.1 {
                *gene = self.rng.gen_range(0..space.param(i).len());
            }
        }
        Some(vec![DesignPoint::new(child)])
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        let costs = samples.iter().map(|s| (s.point.clone(), problem.cost(s)));
        if self.observed == 0 {
            self.pop = costs.collect();
        } else {
            // Replace the worst member if the child is better.
            for (cand, cost) in costs {
                if let Some(worst) = self
                    .pop
                    .iter()
                    .enumerate()
                    .max_by(|a, b| {
                        a.1 .1
                            .partial_cmp(&b.1 .1)
                            .expect("penalized costs are never NaN")
                    })
                    .map(|(i, _)| i)
                {
                    if cost < self.pop[worst].1 {
                        self.pop[worst] = (cand, cost);
                    }
                }
            }
        }
        self.observed += samples.len();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn grid_covers_distinct_points() {
        let ev = evaluator();
        let t = GridSearch::new().run(&ev, 30);
        let mut pts: Vec<_> = t.samples.iter().map(|s| s.point.clone()).collect();
        pts.sort_by_key(|p| p.indices().to_vec());
        pts.dedup();
        assert!(pts.len() > 1, "grid should visit distinct points");
    }

    #[test]
    fn random_search_is_reproducible() {
        let a = RandomSearch::new(5).run(&evaluator(), 10);
        let b = RandomSearch::new(5).run(&evaluator(), 10);
        let pa: Vec<_> = a.samples.iter().map(|s| s.point.clone()).collect();
        let pb: Vec<_> = b.samples.iter().map(|s| s.point.clone()).collect();
        assert_eq!(pa, pb);
    }

    #[test]
    fn annealing_neighbors_differ_by_one_index() {
        let ev = evaluator();
        let t = SimulatedAnnealing::new(3).run(&ev, 12);
        assert_eq!(t.evaluations(), 12);
    }

    #[test]
    fn ga_population_larger_than_budget_is_clipped() {
        let ev = evaluator();
        let t = GeneticAlgorithm::new(64, 2).run(&ev, 10);
        assert_eq!(t.evaluations(), 10);
    }
}
