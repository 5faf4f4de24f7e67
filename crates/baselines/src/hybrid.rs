//! Hybrid optimization methodologies (paper §B): Explainable-DSE's
//! quickly-found efficient solutions serve as high-quality initial points
//! for further black-box refinement, and black-box techniques can be
//! chained with each other.
//!
//! [`WarmStartHybrid`] over the registry's explainable technique
//! (`by_name("explainable", seed)`) is the §B hybrid: Explainable-DSE for
//! the warm-up share of the budget, then a [`Refine`] around its best
//! feasible sample for the rest.

use crate::{random_point, DseTechnique, EvalResult, Problem};
use edse_core::cost::Sample;
use edse_core::space::DesignPoint;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The refinement phase of the hybrids: a seeded local random search
/// around an incumbent. Each sample re-draws a few parameters of the
/// incumbent (the common "basin hopping around a good initial point"
/// pattern the paper's hybrid-methodology note alludes to), and every
/// observed improvement becomes the new incumbent.
///
/// The seeded point only centres the first proposal: its cost is not
/// known, so the first observed sample replaces it whatever that sample
/// costs, even when it is worse or infeasible.
#[derive(Debug, Clone)]
pub struct Refine {
    rng: StdRng,
    incumbent: Option<DesignPoint>,
    incumbent_cost: f64,
    observed: usize,
}

impl Refine {
    /// Centres the first proposal on `incumbent`, or on a random point
    /// when there is none; from the first observed sample on, the best
    /// sample observed is the centre (see the type docs).
    pub fn around(incumbent: Option<DesignPoint>, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            incumbent,
            incumbent_cost: f64::INFINITY,
            observed: 0,
        }
    }
}

impl DseTechnique for Refine {
    fn name(&self) -> String {
        "refine".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        if self.observed >= problem.budget {
            return None;
        }
        let space = problem.space;
        let rng = &mut self.rng;
        let mut cand = self
            .incumbent
            .get_or_insert_with(|| random_point(space, rng))
            .clone();
        // Redraw 1-3 parameters of the incumbent.
        let moves = self.rng.gen_range(1..=3usize);
        for _ in 0..moves {
            let p = self.rng.gen_range(0..space.len());
            let idx = self.rng.gen_range(0..space.param(p).len());
            cand = cand.with_index(p, idx);
        }
        Some(vec![cand])
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], _: Vec<EvalResult>) {
        for sample in samples {
            let cost = problem.cost(sample);
            if cost < self.incumbent_cost {
                self.incumbent_cost = cost;
                self.incumbent = Some(sample.point.clone());
            }
        }
        self.observed += samples.len();
    }
}

/// Chains two phases: any warm-up technique, then a [`Refine`] around the
/// warm-up's best feasible sample for the rest of the budget.
pub struct WarmStartHybrid {
    warmup: Box<dyn DseTechnique>,
    warmup_share: f64,
    /// Still in the warm-up phase.
    warming: bool,
    warm_samples: usize,
    /// The warm-up's best feasible sample so far: point and objective.
    warm_best: Option<(DesignPoint, f64)>,
    refine: Refine,
}

impl WarmStartHybrid {
    /// A hybrid spending `warmup_share` (0..1) of the budget on `warmup`
    /// and the rest refining around its best point.
    ///
    /// # Panics
    ///
    /// Panics if `warmup_share` is not within `(0, 1)`.
    pub fn new(warmup: Box<dyn DseTechnique>, warmup_share: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&warmup_share) && warmup_share > 0.0);
        Self {
            warmup,
            warmup_share,
            warming: true,
            warm_samples: 0,
            warm_best: None,
            refine: Refine::around(None, seed),
        }
    }

    /// The problem each phase sees: the warm-up gets its share of the
    /// budget, the refinement whatever the warm-up left.
    fn phase<'a>(&self, problem: &Problem<'a>) -> Problem<'a> {
        let budget = if self.warming {
            ((problem.budget as f64 * self.warmup_share) as usize)
                .max(1)
                .min(problem.budget)
        } else {
            problem.budget.saturating_sub(self.warm_samples)
        };
        Problem { budget, ..*problem }
    }
}

impl DseTechnique for WarmStartHybrid {
    fn name(&self) -> String {
        format!("{}+refine", self.warmup.name())
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        if self.warming {
            let warm = self.phase(problem);
            if let Some(batch) = self.warmup.propose(&warm) {
                return Some(batch);
            }
            self.warming = false;
            self.refine.incumbent = self.warm_best.take().map(|(point, _)| point);
        }
        let rest = self.phase(problem);
        self.refine.propose(&rest)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>) {
        let phase = self.phase(problem);
        if !self.warming {
            return self.refine.observe(&phase, samples, results);
        }
        self.warm_samples += samples.len();
        for s in samples {
            let best = self.warm_best.as_ref().map_or(f64::INFINITY, |b| b.1);
            if s.feasible && s.objective.is_finite() && s.objective < best {
                self.warm_best = Some((s.point.clone(), s.objective));
            }
        }
        self.warmup.observe(&phase, samples, results);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomSearch;
    use edse_core::evaluate::CodesignEvaluator;
    use edse_core::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn evaluator() -> CodesignEvaluator<FixedMapper> {
        CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
    }

    #[test]
    fn hybrid_respects_total_budget() {
        let mut h = WarmStartHybrid::new(Box::new(RandomSearch::new(3)), 0.4, 3);
        let trace = h.run(&evaluator(), 30);
        assert_eq!(trace.evaluations(), 30);
        assert_eq!(trace.technique, "random+refine");
    }

    #[test]
    fn explainable_warmup_hands_off_a_feasible_incumbent() {
        // §B: the explainable phase lands a feasible point quickly; the
        // refinement phase may only improve on it. The warm-up takes half
        // of 160 evaluations, the refinement the rest.
        let explainable = || crate::by_name("explainable", 1).expect("registered");
        let trace = WarmStartHybrid::new(explainable(), 0.5, 1).run(&evaluator(), 160);
        let best = trace
            .best_feasible()
            .expect("hybrid finds a feasible design");
        // Compare with warmup-only at the same share of budget.
        let warm_only = explainable().run(&evaluator(), 80);
        if let Some(w) = warm_only.best_feasible() {
            assert!(
                best.objective <= w.objective + 1e-9,
                "refinement must not lose the incumbent"
            );
        }
    }

    #[test]
    #[should_panic(expected = "warmup_share")]
    fn invalid_share_rejected() {
        let _ = WarmStartHybrid::new(Box::new(RandomSearch::new(0)), 1.5, 0);
    }
}
