//! The ask/tell shape every DSE technique shares: a technique proposes
//! batches of design points and observes their outcomes until it reports
//! that it is done. Techniques never see the evaluator; one driver
//! ([`crate::SearchDriver`]) owns the loop, so the explainable search
//! ([`crate::ExplainableDse`]) and the black-box baselines (the
//! `baselines` crate) share one code path for blocking, stepped and
//! cancelled runs, and report the same [`Trace`] format.

use crate::cost::{Constraint, Evaluation, Sample, Trace};
use crate::dse::Explanation;
use crate::evaluate::Evaluator;
use crate::fault::EvalFault;
use crate::session::SearchDriver;
use crate::space::{DesignPoint, DesignSpace};
use edse_telemetry::Collector;

/// What a technique explores: the design space it draws points from, the
/// constraints that decide feasibility, and its evaluation budget.
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    /// The design space.
    pub space: &'a DesignSpace,
    /// The constraints, aligned with every sample's `constraint_values`.
    pub constraints: &'a [Constraint],
    /// The evaluation budget. A black-box technique counts the points it
    /// proposes against it; the explainable search counts the distinct
    /// points it has seen evaluate successfully.
    pub budget: usize,
}

impl Problem<'_> {
    /// The penalized scalar cost every baseline optimizes: the objective
    /// for feasible samples; a large violation-scaled penalty otherwise, so
    /// unconstrained optimizers still feel constraint pressure the way the
    /// paper's penalized baselines do.
    pub fn cost(&self, sample: &Sample) -> f64 {
        if sample.feasible {
            return sample.objective;
        }
        let budget = sample.constraint_budget(self.constraints);
        // Infeasible points rank strictly worse than any feasible one and
        // worse the deeper the violation.
        if budget.is_finite() {
            1e12 * (1.0 + budget)
        } else {
            1e15
        }
    }
}

/// The outcome of evaluating one proposed point: its evaluation, or the
/// fault that stopped it for good.
pub type EvalResult = Result<Evaluation, EvalFault>;

/// A DSE technique as an ask/tell state machine: it proposes batches of
/// design points and observes their outcomes until it reports that it is
/// done. Its state is a pure function of its seed, the problem, and the
/// outcomes it has observed, which is what makes a resumed run (step a
/// fresh technique from the start over the interrupted run's disk tier)
/// bit-identical to an uninterrupted one.
///
/// A technique explores once: build a fresh one per run. Techniques are
/// `Send` so a stepped exploration can move between scheduler threads.
pub trait DseTechnique: Send {
    /// Technique name for reports, e.g. `"random"`.
    fn name(&self) -> String;

    /// The next batch to evaluate, or `None` once the exploration is over.
    /// Feedback-free stages (initial designs, whole non-adaptive sweeps)
    /// come as one batch, so a parallel evaluator speeds them up without
    /// changing any result.
    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>>;

    /// Receives the outcomes of the batch the last
    /// [`propose`](DseTechnique::propose) returned, in batch order:
    /// `results` holds each point's evaluation or fault (handed over, so a
    /// technique keeps evaluations without copying them), and `samples`
    /// what a black-box technique scores — for a failed evaluation, an
    /// infeasible sample of [`Evaluation::failed`].
    fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>);

    /// Hands the technique the driver's telemetry collector. A technique
    /// that reports its own progress keeps it and returns `true`; the
    /// driver then emits no iteration records for it. The default returns
    /// `false`, and the driver records one iteration per sample.
    fn attach_telemetry(&mut self, telemetry: &Collector) -> bool {
        let _ = telemetry;
        false
    }

    /// The name of the telemetry span the driver opens around the next
    /// step.
    fn step_span(&self) -> String {
        format!("baseline/{}", self.name())
    }

    /// The technique's own account of its run so far, or `None` for a
    /// black box, which has nothing to explain.
    fn explanation(&self) -> Option<Explanation> {
        None
    }

    /// Runs the exploration against an evaluator for `budget` evaluations,
    /// without telemetry.
    fn run(&mut self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        SearchDriver::new(Box::new(self), evaluator, budget)
            .run_to_completion()
            .into_trace()
    }
}

impl<T: DseTechnique + ?Sized> DseTechnique for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        (**self).propose(problem)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample], results: Vec<EvalResult>) {
        (**self).observe(problem, samples, results)
    }

    fn attach_telemetry(&mut self, telemetry: &Collector) -> bool {
        (**self).attach_telemetry(telemetry)
    }

    fn step_span(&self) -> String {
        (**self).step_span()
    }

    fn explanation(&self) -> Option<Explanation> {
        (**self).explanation()
    }

    // Forwarded: the provided `run` would box a `&mut &mut T`, whose own
    // `run` boxes a `&mut &mut &mut T`, without end.
    fn run(&mut self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        (**self).run(evaluator, budget)
    }
}
