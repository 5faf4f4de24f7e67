#![warn(missing_docs)]
//! Non-explainable DSE baselines, reimplementing the comparison set of the
//! Explainable-DSE paper's §5: grid search, random search, simulated
//! annealing (SciPy-style), a genetic algorithm (scikit-opt style),
//! Bayesian optimization, HyperMapper-2.0-style constrained Bayesian
//! optimization, and Confuciux-style constrained reinforcement learning.
//!
//! Every technique is an ask/tell state machine: [`DseTechnique::propose`]
//! hands out the next batch of design points and
//! [`DseTechnique::observe`] takes that batch's evaluations. Techniques
//! never see the evaluator; one driver ([`BaselineDriver`]) owns the loop,
//! so blocking, stepped, checkpointed and resumed runs share one code path
//! and report the same [`edse_core::cost::Trace`] format as the
//! explainable DSE, so every figure compares like with like.
//!
//! # Example
//!
//! ```
//! use baselines::{DseTechnique, RandomSearch};
//! use edse_core::evaluate::CodesignEvaluator;
//! use edse_core::space::edge_space;
//! use mapper::FixedMapper;
//! use workloads::zoo;
//!
//! let evaluator =
//!     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
//! let trace = RandomSearch::new(7).run(&evaluator, 20);
//! assert_eq!(trace.evaluations(), 20);
//! ```

pub mod bo;
pub mod hybrid;
pub mod rl;
pub mod sensitivity;
pub mod simple;

pub use bo::{BayesianOpt, HyperMapperLike};
pub use hybrid::{Refine, WarmStartHybrid};
pub use rl::ConfuciuxRl;
pub use sensitivity::SensitivityGuided;
pub use simple::{GeneticAlgorithm, GridSearch, RandomSearch, SimulatedAnnealing};

use edse_core::checkpoint::{load_baseline, save_baseline, BaselineSnapshot};
use edse_core::cost::{Constraint, Sample, Trace};
use edse_core::evaluate::Evaluator;
use edse_core::space::{DesignPoint, DesignSpace};
use edse_core::{CancelToken, JobSpec, StepOutcome};
use edse_telemetry::{Collector, Level};
use std::path::PathBuf;
use std::time::Instant;

/// What a technique explores: the design space it draws points from, the
/// constraints that decide feasibility, and its evaluation budget.
#[derive(Debug, Clone, Copy)]
pub struct Problem<'a> {
    /// The design space.
    pub space: &'a DesignSpace,
    /// The constraints, aligned with every sample's `constraint_values`.
    pub constraints: &'a [Constraint],
    /// How many samples the technique may propose in total.
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

/// A DSE technique as an ask/tell state machine: it proposes batches of
/// design points and observes their evaluations until it reports that it
/// is done. Its state is a pure function of its seed, the problem, and
/// the samples it has observed, which is what makes a resumed run
/// (restore the evaluator caches, step a fresh technique from the start)
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

    /// Receives the evaluations of the batch the last
    /// [`propose`](DseTechnique::propose) returned, as trace samples in
    /// batch order.
    fn observe(&mut self, problem: &Problem, samples: &[Sample]);

    /// Runs the exploration against an evaluator for `budget` evaluations:
    /// a [`BaselineSession`] without telemetry or checkpointing.
    fn run(&mut self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        BaselineSession::new(self).run(evaluator, budget)
    }
}

impl<T: DseTechnique + ?Sized> DseTechnique for &mut T {
    fn name(&self) -> String {
        (**self).name()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        (**self).propose(problem)
    }

    fn observe(&mut self, problem: &Problem, samples: &[Sample]) {
        (**self).observe(problem, samples)
    }

    // Forwarded: the provided `run` would box a `&mut &mut T`, whose own
    // `run` boxes a `&mut &mut &mut T`, without end.
    fn run(&mut self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        (**self).run(evaluator, budget)
    }
}

/// The technique registry shared by the bench harness and `edse-serve`:
/// the black-box baseline labelled `name` (`"grid"`, `"random"`,
/// `"annealing"`, `"genetic"`, `"bayesian"`, `"hypermapper"` or `"rl"`),
/// seeded with `seed`; the genetic algorithm gets a population of 16.
/// `None` for any other name, including `"explainable"`.
pub fn by_name(name: &str, seed: u64) -> Option<Box<dyn DseTechnique>> {
    Some(match name {
        "grid" => Box::new(GridSearch::new()),
        "random" => Box::new(RandomSearch::new(seed)),
        "annealing" => Box::new(SimulatedAnnealing::new(seed)),
        "genetic" => Box::new(GeneticAlgorithm::new(16, seed)),
        "bayesian" => Box::new(BayesianOpt::new(seed)),
        "hypermapper" => Box::new(HyperMapperLike::new(seed)),
        "rl" => Box::new(ConfuciuxRl::new(seed)),
        _ => return None,
    })
}

/// Builder and runner for one blocking baseline exploration: telemetry
/// plus checkpoint/resume for any [`DseTechnique`], mirroring
/// `edse_core::SearchSession` for the explainable search. It runs a
/// [`BaselineDriver`] to completion, so see there for what a checkpoint
/// holds and how a resume works.
///
/// ```
/// use baselines::{BaselineSession, RandomSearch};
/// use edse_core::evaluate::CodesignEvaluator;
/// use edse_core::space::edge_space;
/// use mapper::FixedMapper;
/// use workloads::zoo;
///
/// let evaluator =
///     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
/// let mut technique = RandomSearch::new(7);
/// let trace = BaselineSession::new(&mut technique).run(&evaluator, 20);
/// assert_eq!(trace.evaluations(), 20);
/// ```
pub struct BaselineSession<'t> {
    technique: Box<dyn DseTechnique + 't>,
    telemetry: Collector,
    spec: JobSpec,
}

impl<'t> BaselineSession<'t> {
    /// Starts a session around a technique (owned or `&mut`). Telemetry
    /// defaults to the inert collector and checkpointing is off.
    pub fn new(technique: impl DseTechnique + 't) -> Self {
        BaselineSession {
            technique: Box::new(technique),
            telemetry: Collector::noop(),
            spec: JobSpec::default(),
        }
    }

    /// Attaches a telemetry collector: the run gets `baseline/<name>`
    /// spans and per-sample iteration records.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies the session-relevant subset of a [`JobSpec`]: checkpoint
    /// path, snapshot cadence, and resume policy — the same configuration
    /// surface `edse_core::SearchSession::spec` consumes.
    pub fn spec(mut self, spec: &JobSpec) -> Self {
        self.spec = spec.clone();
        self
    }

    /// Runs the technique for `budget` evaluations.
    ///
    /// # Panics
    ///
    /// Panics when resume is enabled and the snapshot file exists but
    /// cannot be loaded, or records a different technique or budget than
    /// this run (see [`BaselineDriver::spec`], which returns the same
    /// mismatch as an error).
    pub fn run(self, evaluator: &dyn Evaluator, budget: usize) -> Trace {
        BaselineDriver::new(self.technique, evaluator, budget)
            .telemetry(self.telemetry)
            .spec(&self.spec)
            .unwrap_or_else(|e| panic!("{e}"))
            .run_to_completion()
    }
}

/// An owned, stepwise, cancellable baseline exploration — the baseline
/// counterpart of `edse_core::SearchDriver`, speaking the same
/// [`StepOutcome`]/[`CancelToken`] protocol so a scheduler can interleave
/// explainable and baseline jobs uniformly.
///
/// One [`BaselineDriver::step`] is one ask/tell round: the technique
/// proposes a batch, the evaluator evaluates it as one batch, and the
/// technique observes the results. Iteration records stream as the
/// samples arrive.
///
/// With a checkpoint path the driver saves a `"baseline"` snapshot — the
/// evaluator caches, tagged with the technique label and budget — every
/// `checkpoint_every` steps, at termination, and on cancel. A technique's
/// state is a pure function of its seed, its budget and the samples it has
/// observed, and the caches hold those samples, so a resume restores the
/// caches and steps a fresh technique from the start: every completed
/// evaluation is a cache hit, and the trace is bit-identical to the
/// uninterrupted run's.
pub struct BaselineDriver<'t, E> {
    technique: Box<dyn DseTechnique + 't>,
    evaluator: E,
    budget: usize,
    telemetry: Collector,
    checkpoint: Option<(PathBuf, usize)>,
    steps_since_save: usize,
    cancel: CancelToken,
    trace: Trace,
    started: Instant,
    outcome: Option<StepOutcome>,
}

impl<'t, E: Evaluator> BaselineDriver<'t, E> {
    /// Starts a fresh exploration of `evaluator`'s problem with `budget`
    /// evaluations.
    pub fn new(technique: Box<dyn DseTechnique + 't>, evaluator: E, budget: usize) -> Self {
        let trace = Trace::new(technique.name());
        BaselineDriver {
            technique,
            evaluator,
            budget,
            telemetry: Collector::noop(),
            checkpoint: None,
            steps_since_save: 0,
            cancel: CancelToken::new(),
            trace,
            started: Instant::now(),
            outcome: None,
        }
    }

    /// Attaches a telemetry collector: each step opens a `baseline/<name>`
    /// span and streams the iteration records of the samples it appended.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies the checkpoint path, snapshot cadence (in steps) and resume
    /// policy of a [`JobSpec`]. With `resume` set and the snapshot file
    /// present, the snapshot's caches are restored into the evaluator.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot cannot be loaded, or records a different
    /// technique or budget than this run: stepping a different search
    /// against those caches would not reproduce the interrupted run.
    pub fn spec(mut self, spec: &JobSpec) -> Result<Self, String> {
        self.checkpoint = spec
            .checkpoint
            .clone()
            .map(|path| (path, spec.checkpoint_every.max(1)));
        let resume_from = self.checkpoint.as_ref().map(|(path, _)| path);
        let Some(path) = resume_from.filter(|path| spec.resume && path.exists()) else {
            return Ok(self);
        };
        let snapshot = load_baseline(path).map_err(|e| format!("cannot resume baseline: {e}"))?;
        let name = &self.trace.technique;
        if &snapshot.technique != name {
            return Err(format!(
                "cannot resume baseline: snapshot records technique {:?}, this run is {name:?}",
                snapshot.technique
            ));
        }
        if snapshot.budget != self.budget {
            return Err(format!(
                "cannot resume baseline: snapshot records budget {}, this run has {}",
                snapshot.budget, self.budget
            ));
        }
        self.evaluator.restore_caches(&snapshot.caches);
        self.telemetry.log(
            Level::Info,
            &format!(
                "resumed baseline {name} from {} with {} cached evaluations",
                path.display(),
                snapshot.caches.unique_evaluations
            ),
        );
        Ok(self)
    }

    /// Uses `token` as the driver's cancellation token instead of a fresh
    /// one.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A clone of the driver's cancellation token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Advances the exploration by one ask/tell round. Checks the
    /// [`CancelToken`] first: when it has fired, no round runs, the
    /// evaluator caches are snapshotted if checkpointing is configured,
    /// and [`StepOutcome::Cancelled`] is returned. After termination (or a
    /// cancel) further calls are no-ops returning the same outcome.
    pub fn step(&mut self) -> StepOutcome {
        if let Some(outcome) = self.outcome {
            return outcome;
        }
        if self.cancel.is_cancelled() {
            self.snapshot();
            self.outcome = Some(StepOutcome::Cancelled);
            return StepOutcome::Cancelled;
        }
        let start = self.trace.samples.len();
        let done = {
            let _span = self
                .telemetry
                .span(&format!("baseline/{}", self.trace.technique));
            let problem = Problem {
                space: self.evaluator.space(),
                constraints: self.evaluator.constraints(),
                budget: self.budget,
            };
            match self.technique.propose(&problem) {
                None => true,
                Some(batch) => {
                    let evals = self.evaluator.evaluate_batch(&batch);
                    for (point, eval) in batch.into_iter().zip(evals) {
                        let feasible = eval.feasible(problem.constraints);
                        self.trace.samples.push(Sample {
                            point,
                            objective: eval.objective,
                            constraint_values: eval.constraint_values,
                            feasible,
                        });
                    }
                    self.technique
                        .observe(&problem, &self.trace.samples[start..]);
                    false
                }
            }
        };
        self.trace
            .emit_iteration_records_from(&self.telemetry, self.budget, start);
        if let Some((_, every)) = self.checkpoint {
            self.steps_since_save += 1;
            if done || self.steps_since_save >= every {
                self.steps_since_save = 0;
                self.snapshot();
            }
        }
        if done {
            self.outcome = Some(StepOutcome::Done);
            StepOutcome::Done
        } else {
            StepOutcome::Pending
        }
    }

    /// Steps until the exploration terminates or the token fires, then
    /// returns the trace.
    pub fn run_to_completion(mut self) -> Trace {
        while self.step() == StepOutcome::Pending {}
        self.finish()
    }

    /// Writes a baseline snapshot now when checkpointing is configured; a
    /// no-op otherwise. Returns whether a save was attempted. Failures are
    /// reported through telemetry (`checkpoint/save_failures` plus a
    /// warning), never panicked on: losing a checkpoint must not kill the
    /// run it exists to protect.
    pub fn snapshot(&mut self) -> bool {
        let Some((path, _)) = &self.checkpoint else {
            return false;
        };
        let snapshot = BaselineSnapshot {
            technique: self.trace.technique.clone(),
            budget: self.budget,
            caches: self.evaluator.cache_snapshot(),
        };
        match save_baseline(path, &snapshot) {
            Ok(()) => self.telemetry.counter("checkpoint/saves", 1),
            Err(e) => {
                self.telemetry.counter("checkpoint/save_failures", 1);
                self.telemetry
                    .log(Level::Warn, &format!("checkpoint save failed: {e}"));
            }
        }
        true
    }

    /// Whether the exploration has terminated or been cancelled.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// Samples recorded so far.
    pub fn evaluations(&self) -> usize {
        self.trace.evaluations()
    }

    /// Objective of the best feasible sample so far, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.trace.best_feasible().map(|s| s.objective)
    }

    /// Best feasible sample so far, if any.
    pub fn best(&self) -> Option<&Sample> {
        self.trace.best_feasible()
    }

    /// The evaluator the driver owns.
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Consumes the driver, yielding the trace explored so far.
    pub fn finish(mut self) -> Trace {
        self.trace.wall_seconds = self.started.elapsed().as_secs_f64();
        self.trace
    }
}

/// Uniformly random point in a space.
pub(crate) fn random_point(space: &DesignSpace, rng: &mut rand::rngs::StdRng) -> DesignPoint {
    use rand::Rng;
    DesignPoint::new(
        space
            .params()
            .iter()
            .map(|p| rng.gen_range(0..p.len()))
            .collect(),
    )
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
    fn every_technique_respects_budget_and_reports_samples() {
        let budget = 15;
        let mut techs: Vec<Box<dyn DseTechnique>> = vec![
            Box::new(GridSearch::new()),
            Box::new(RandomSearch::new(1)),
            Box::new(SimulatedAnnealing::new(1)),
            Box::new(GeneticAlgorithm::new(6, 1)),
            Box::new(BayesianOpt::new(1)),
            Box::new(HyperMapperLike::new(1)),
            Box::new(ConfuciuxRl::new(1)),
        ];
        for t in &mut techs {
            let ev = evaluator();
            let trace = t.run(&ev, budget);
            assert!(
                trace.evaluations() <= budget,
                "{} overshot: {}",
                t.name(),
                trace.evaluations()
            );
            assert!(trace.evaluations() > 0, "{} did nothing", t.name());
            assert!(!trace.technique.is_empty());
        }
    }

    #[test]
    fn registry_builds_every_baseline_by_name() {
        for name in [
            "grid",
            "random",
            "annealing",
            "genetic",
            "bayesian",
            "hypermapper",
            "rl",
        ] {
            let technique = by_name(name, 3).expect("registered");
            assert_eq!(technique.name(), name);
        }
        assert!(by_name("explainable", 3).is_none());
        assert!(by_name("nope", 3).is_none());
    }

    #[test]
    fn traced_session_matches_run_and_emits_comparable_records() {
        use edse_telemetry::{Event, MemorySink};
        let budget = 12;
        let plain = RandomSearch::new(3).run(&evaluator(), budget);

        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let mut technique = RandomSearch::new(3);
        let traced = BaselineSession::new(&mut technique)
            .telemetry(collector.clone())
            .run(&evaluator(), budget);
        // Identical samples; wall_seconds legitimately differs between runs.
        assert_eq!(
            plain.samples, traced.samples,
            "telemetry must not change the search"
        );

        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnter { name, .. } if name == "baseline/random")),
            "the traced session must open a technique span"
        );
        let records: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::Iteration { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), traced.evaluations());
        for (i, rec) in records.iter().enumerate() {
            assert_eq!(rec.technique, "random");
            assert_eq!(rec.iteration as usize, i);
            // A black box offers no explanation — that contrast with the
            // explainable DSE's records is the point.
            assert!(rec.bottleneck.is_none());
            assert_eq!((rec.proposed, rec.deduped, rec.evaluated), (1, 0, 1));
            assert_eq!(rec.budget_remaining as usize, budget - (i + 1));
        }
    }

    #[test]
    fn baseline_warm_starts_from_a_shared_disk_cache() {
        use edse_core::DiskCache;
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-diskcache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let budget = 10;
        let cold = {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let ev = evaluator().with_disk_cache(disk);
            let mut technique = RandomSearch::new(5);
            BaselineSession::new(&mut technique).run(&ev, budget)
        };
        // Same technique in a fresh process: identical trace, all layer
        // mappings answered from disk.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let ev = evaluator().with_disk_cache(disk);
        let mut technique = RandomSearch::new(5);
        let warm = BaselineSession::new(&mut technique).run(&ev, budget);
        assert_eq!(cold.samples, warm.samples, "warm must be bit-identical");
        let disk_stats = ev.cache_stats().disk.unwrap();
        assert!(disk_stats.hits > 0);
        assert_eq!(disk_stats.misses, 0);
        drop(ev);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn baseline_resumes_by_replay_bit_identically() {
        let dir = std::env::temp_dir().join(format!(
            "edse-baseline-resume-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("annealing.ckpt.json");
        let budget = 14;

        let full_ev = evaluator();
        let mut technique = SimulatedAnnealing::new(9);
        let uninterrupted = BaselineSession::new(&mut technique).run(&full_ev, budget);

        // "Interrupted" run: annealing proposes one point per step, so
        // with a snapshot every 3 steps the driver saves after steps 3
        // and 6. It is dropped after step 7, before the next save.
        let spec = JobSpec {
            checkpoint: Some(path.clone()),
            checkpoint_every: 3,
            ..JobSpec::default()
        };
        let cached = {
            let mut driver =
                BaselineDriver::new(Box::new(SimulatedAnnealing::new(9)), evaluator(), budget)
                    .spec(&spec)
                    .unwrap();
            let mut saved = None;
            for step in 1..=7 {
                assert_eq!(driver.step(), StepOutcome::Pending);
                let unique = driver.evaluator().unique_evaluations();
                if step % 3 == 0 {
                    saved = Some(unique);
                }
                assert_eq!(
                    path.exists(),
                    saved.is_some(),
                    "no snapshot before the first cadence point, one after it"
                );
                if let Some(saved) = saved {
                    let snapshot = load_baseline(&path).unwrap();
                    assert_eq!(
                        (snapshot.technique.as_str(), snapshot.budget),
                        ("annealing", budget)
                    );
                    assert_eq!(
                        snapshot.caches.unique_evaluations, saved,
                        "step {step}: the snapshot holds the last cadence point's caches"
                    );
                }
            }
            assert!(
                driver.evaluator().unique_evaluations() > saved.unwrap(),
                "step 7 must evaluate past the saved caches for the cadence check to bite"
            );
            saved.unwrap()
        };

        // Resume: restore caches and step a fresh technique from the
        // start; the saved steps are answered from the cache.
        let spec = JobSpec {
            resume: true,
            ..spec
        };
        let ev = evaluator();
        let mut technique = SimulatedAnnealing::new(9);
        let resumed = BaselineSession::new(&mut technique)
            .spec(&spec)
            .run(&ev, budget);
        assert_eq!(
            uninterrupted.samples, resumed.samples,
            "resume must be bit-identical"
        );
        assert_eq!(ev.unique_evaluations(), full_ev.unique_evaluations());
        assert_eq!(
            ev.cache_stats().point.misses as usize,
            full_ev.unique_evaluations() - cached,
            "a resume must not recompute the saved steps"
        );

        // A mismatched budget must refuse to resume rather than silently
        // run a different search: an error from the driver, a panic from
        // the blocking session.
        let refused = BaselineDriver::new(
            Box::new(SimulatedAnnealing::new(9)),
            evaluator(),
            budget + 1,
        )
        .spec(&spec)
        .err()
        .expect("budget drift must be rejected");
        assert!(refused.contains("budget"), "{refused}");
        let refused = BaselineDriver::new(Box::new(GridSearch::new()), evaluator(), budget)
            .spec(&spec)
            .err()
            .expect("technique drift must be rejected");
        assert!(refused.contains("technique"), "{refused}");
        let mut technique = SimulatedAnnealing::new(9);
        let refused = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BaselineSession::new(&mut technique)
                .spec(&spec)
                .run(&evaluator(), budget + 1)
        }));
        assert!(refused.is_err(), "budget drift must be rejected");

        std::fs::remove_dir_all(&dir).ok();
    }

    /// Counts the `propose` calls of the technique it wraps.
    struct CountProposals<T> {
        inner: T,
        calls: usize,
    }

    impl<T: DseTechnique> DseTechnique for CountProposals<T> {
        fn name(&self) -> String {
            self.inner.name()
        }

        fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
            self.calls += 1;
            self.inner.propose(problem)
        }

        fn observe(&mut self, problem: &Problem, samples: &[Sample]) {
            self.inner.observe(problem, samples)
        }
    }

    #[test]
    fn stepping_proposes_once_per_step_and_never_replays() {
        let budget = 100;
        let mut blocking = CountProposals {
            inner: BayesianOpt::new(4),
            calls: 0,
        };
        let blocking_trace = blocking.run(&evaluator(), budget);

        let mut stepped = CountProposals {
            inner: BayesianOpt::new(4),
            calls: 0,
        };
        let ev = evaluator();
        let mut driver = BaselineDriver::new(Box::new(&mut stepped), &ev, budget);
        let mut steps = 1;
        while driver.step() == StepOutcome::Pending {
            steps += 1;
        }
        let stepped_trace = driver.finish();
        assert_eq!(stepped_trace.samples, blocking_trace.samples);
        // An initial design of 20 points, 80 single-point rounds, and the
        // call that reports the technique done.
        assert_eq!(blocking.calls, 1 + 80 + 1);
        assert_eq!(stepped.calls, blocking.calls);
        assert_eq!(steps, stepped.calls, "one proposal per step");
    }

    #[test]
    fn penalized_cost_orders_infeasible_below_feasible() {
        let ev = evaluator();
        // Minimum point: infeasible (violates the throughput floor).
        let bad = ev.space().minimum_point();
        let eval = ev.evaluate(&bad);
        let problem = Problem {
            space: ev.space(),
            constraints: ev.constraints(),
            budget: 1,
        };
        let sample = Sample {
            point: bad,
            objective: eval.objective,
            feasible: eval.feasible(ev.constraints()),
            constraint_values: eval.constraint_values,
        };
        assert!(!sample.feasible);
        assert!(problem.cost(&sample) >= 1e12);
    }
}
