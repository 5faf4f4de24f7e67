//! The one search driver and the session front door of the explainable
//! search.
//!
//! [`SearchDriver`] steps any [`DseTechnique`] — the explainable search
//! and every baseline alike — one ask/tell round at a time: the technique
//! proposes a batch, the evaluator evaluates it as one batch, and the
//! technique observes the outcomes. It owns the trace, telemetry and
//! cancellation, so blocking, stepped and cancelled runs share one code
//! path.
//!
//! [`SearchSession`] configures an explainable search — model, evaluator,
//! telemetry — and runs it through that driver:
//!
//! ```
//! use edse_core::bottleneck::dnn_latency_model;
//! use edse_core::{CodesignEvaluator, DseConfig, Evaluator, SearchSession};
//! use edse_core::space::edge_space;
//! use mapper::FixedMapper;
//! use workloads::zoo;
//!
//! let evaluator =
//!     CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
//! let initial = evaluator.space().minimum_point();
//! let result = SearchSession::new(
//!     dnn_latency_model(),
//!     DseConfig { budget: 40, ..DseConfig::default() },
//! )
//! .evaluator(&evaluator)
//! .run(initial);
//! assert!(result.trace().evaluations() <= 40);
//! ```
//!
//! An interrupted search resumes by running again over the same disk
//! tier ([`crate::CodesignEvaluator::with_disk_cache`]): the rerun steps a
//! fresh technique from the start, every layer outcome the interrupted
//! run persisted is read back instead of mapped, and the result is
//! bit-for-bit identical to the uninterrupted run. The same rerun is the
//! *cross-run* warm start. See `DESIGN.md` ("The disk tier and the
//! determinism contract") and the README's "Warm-starting runs".

use crate::bottleneck::dnn::LayerCtx;
use crate::bottleneck::model::BottleneckModel;
use crate::cost::{Evaluation, Sample, Trace};
use crate::dse::{DseConfig, DseResult, ExplainableDse};
use crate::evaluate::Evaluator;
use crate::space::DesignPoint;
use crate::technique::{DseTechnique, Problem};
use edse_telemetry::Collector;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation flag shared between a [`SearchDriver`] and
/// the code controlling it. Cloning is cheap (an `Arc` bump); all clones
/// share one flag. Cancellation is checked at evaluation-batch boundaries
/// — a step already in flight completes, so a cancel returns within one
/// batch.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// What one driver [`step`](SearchDriver::step) accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The search advanced by one step and has more work to do.
    Pending,
    /// The search terminated (budget exhausted, converged, or stalled).
    /// Further `step` calls return `Done` without doing work.
    Done,
    /// The [`CancelToken`] fired: no step was taken. Further `step` calls
    /// return `Cancelled` without doing work. The run resumes like from
    /// any other interruption: its completed layer outcomes are in the
    /// evaluator's disk tier, and a rerun of the same search over it
    /// finishes bit-identically.
    Cancelled,
}

/// An owned, stepwise, cancellable exploration by any [`DseTechnique`].
///
/// One [`SearchDriver::step`] is one ask/tell round: the technique
/// proposes a batch, the evaluator evaluates it as one batch, and the
/// technique observes each point's evaluation or fault. Successful
/// evaluations become trace samples; a permanently failed one never does.
/// Between steps the driver is an inert value: it can be parked in a job
/// table, moved across threads, or dropped.
///
/// A technique's state is a pure function of its seed, its budget and the
/// outcomes it has observed. So a resume is a fresh driver over the same
/// disk tier: every point it repeats is assembled from the layer outcomes
/// the tier holds, without a mapper call, and the trace is bit-identical
/// to the uninterrupted run's.
pub struct SearchDriver<'t, E> {
    technique: Box<dyn DseTechnique + 't>,
    evaluator: E,
    budget: usize,
    telemetry: Collector,
    /// Whether the technique emits its own iteration records.
    self_reporting: bool,
    cancel: CancelToken,
    trace: Trace,
    best: Option<(DesignPoint, Evaluation)>,
    started: Instant,
    outcome: Option<StepOutcome>,
}

impl<'t, E: Evaluator> SearchDriver<'t, E> {
    /// Starts a fresh exploration of `evaluator`'s problem with `budget`
    /// evaluations.
    pub fn new(technique: Box<dyn DseTechnique + 't>, evaluator: E, budget: usize) -> Self {
        let trace = Trace::new(technique.name());
        SearchDriver {
            technique,
            evaluator,
            budget,
            telemetry: Collector::noop(),
            self_reporting: false,
            cancel: CancelToken::new(),
            trace,
            best: None,
            started: Instant::now(),
            outcome: None,
        }
    }

    /// Attaches a telemetry collector and hands it to the technique (see
    /// [`DseTechnique::attach_telemetry`]). Each step opens the span the
    /// technique names; a technique that does not report itself gets one
    /// iteration record per sample, streamed as the samples arrive.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.self_reporting = self.technique.attach_telemetry(&telemetry);
        self.telemetry = telemetry;
        self
    }

    /// Uses `token` as the driver's cancellation token instead of a fresh
    /// one.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Advances the exploration by one ask/tell round (at most one
    /// evaluation batch). Checks the [`CancelToken`] first: when it has
    /// fired, no round runs and [`StepOutcome::Cancelled`] is returned.
    /// After termination (or a cancel) further calls are no-ops returning
    /// the same outcome.
    pub fn step(&mut self) -> StepOutcome {
        if let Some(outcome) = self.outcome {
            return outcome;
        }
        if self.cancel.is_cancelled() {
            self.outcome = Some(StepOutcome::Cancelled);
            return StepOutcome::Cancelled;
        }
        let start = self.trace.samples.len();
        let done = {
            let _span = self.telemetry.span(&self.technique.step_span());
            let problem = Problem {
                space: self.evaluator.space(),
                constraints: self.evaluator.constraints(),
                budget: self.budget,
            };
            match self.technique.propose(&problem) {
                None => true,
                Some(batch) => {
                    let results = self.evaluator.try_evaluate_batch(&batch);
                    let failed = Evaluation::failed(problem.constraints.len());
                    let samples: Vec<Sample> = batch
                        .into_iter()
                        .zip(&results)
                        .map(|(point, result)| {
                            Sample::new(
                                point,
                                result.as_ref().unwrap_or(&failed),
                                problem.constraints,
                            )
                        })
                        .collect();
                    for (sample, result) in samples.iter().zip(&results) {
                        let Ok(eval) = result else {
                            continue;
                        };
                        if sample.feasible
                            && self
                                .best
                                .as_ref()
                                .is_none_or(|(_, b)| eval.objective < b.objective)
                        {
                            self.best = Some((sample.point.clone(), eval.clone()));
                        }
                        self.trace.samples.push(sample.clone());
                    }
                    self.technique.observe(&problem, &samples, results);
                    false
                }
            }
        };
        if !self.self_reporting {
            self.trace
                .emit_iteration_records_from(&self.telemetry, self.budget, start);
        }
        if done {
            self.outcome = Some(StepOutcome::Done);
            StepOutcome::Done
        } else {
            StepOutcome::Pending
        }
    }

    /// Steps until the exploration terminates or the token fires, then
    /// returns the result.
    pub fn run_to_completion(mut self) -> DseResult {
        while self.step() == StepOutcome::Pending {}
        self.finish()
    }

    /// Samples recorded so far.
    pub fn evaluations(&self) -> usize {
        self.trace.evaluations()
    }

    /// The incumbent: best feasible point and evaluation found so far.
    pub fn best(&self) -> Option<&(DesignPoint, Evaluation)> {
        self.best.as_ref()
    }

    /// Objective of the incumbent, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, eval)| eval.objective)
    }

    /// The evaluator the driver owns (e.g. to read
    /// [`Evaluator::cache_stats`] while the search is parked).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }

    /// Consumes the driver and produces the result of the search so far.
    /// After [`StepOutcome::Done`] this is the complete run's result; after
    /// a cancel it reports the partial trace with termination
    /// `"cancelled"`.
    pub fn finish(self) -> DseResult {
        let mut trace = self.trace;
        trace.wall_seconds = self.started.elapsed().as_secs_f64();
        let explanation = self.technique.explanation();
        let termination = explanation
            .as_ref()
            .and_then(|e| e.termination.clone())
            .unwrap_or_else(|| {
                match self.outcome {
                    Some(StepOutcome::Cancelled) => "cancelled",
                    Some(_) => "budget",
                    None => "",
                }
                .to_string()
            });
        DseResult::new(trace, self.best, explanation, termination)
    }
}

/// Builder and runner for one explainable-DSE search.
///
/// Construct with [`SearchSession::new`], attach an evaluator with
/// [`SearchSession::evaluator`] (which fixes the second type parameter),
/// optionally attach telemetry, then either run to completion with
/// [`SearchSession::run`] or take stepwise control with
/// [`SearchSession::driver`].
pub struct SearchSession<E = ()> {
    dse: ExplainableDse,
    budget: usize,
    evaluator: E,
    telemetry: Collector,
}

impl SearchSession<()> {
    /// Starts a session from a bottleneck model and a configuration. No
    /// evaluator is attached yet: call [`SearchSession::evaluator`] next.
    pub fn new(model: BottleneckModel<LayerCtx>, config: DseConfig) -> Self {
        SearchSession {
            budget: config.budget,
            dse: ExplainableDse::new(model, config),
            evaluator: (),
            telemetry: Collector::noop(),
        }
    }
}

impl<E> SearchSession<E> {
    /// Attaches the evaluator (any [`Evaluator`], by value or by
    /// reference), fixing the session's evaluator type.
    pub fn evaluator<E2: Evaluator>(self, evaluator: E2) -> SearchSession<E2> {
        SearchSession {
            dse: self.dse,
            budget: self.budget,
            evaluator,
            telemetry: self.telemetry,
        }
    }

    /// Attaches a telemetry collector: [`SearchSession::run`] emits a
    /// `dse/run` span, plus what [`ExplainableDse`] reports through
    /// [`DseTechnique::attach_telemetry`].
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }
}

impl<E: Evaluator> SearchSession<E> {
    /// Turns the session into a stepwise [`SearchDriver`] whose first
    /// phase starts at `initial`.
    pub fn driver(self, initial: DesignPoint) -> SearchDriver<'static, E> {
        SearchDriver::new(
            Box::new(self.dse.starting_at(initial)),
            self.evaluator,
            self.budget,
        )
        .telemetry(self.telemetry)
    }

    /// Runs the search to completion inside a `dse/run` span; a thin
    /// wrapper over [`SearchSession::driver`] (bit-identical to stepping
    /// the driver by hand).
    pub fn run(self, initial: DesignPoint) -> DseResult {
        let telemetry = self.telemetry.clone();
        let _run_span = telemetry.span("dse/run");
        self.driver(initial).run_to_completion()
    }
}
