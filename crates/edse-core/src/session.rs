//! The one search driver and the session front door of the explainable
//! search.
//!
//! [`SearchDriver`] steps any [`DseTechnique`] — the explainable search
//! and every baseline alike — one ask/tell round at a time: the technique
//! proposes a batch, the evaluator evaluates it as one batch, and the
//! technique observes the outcomes. It owns the trace, telemetry,
//! checkpoints and cancellation, so blocking, stepped, checkpointed and
//! resumed runs share one code path.
//!
//! [`SearchSession`] configures an explainable search — model, evaluator,
//! telemetry, checkpoint/resume policy — and runs it through that driver:
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
//! Checkpoint/resume policy comes from a [`JobSpec`] applied with
//! [`SearchSession::spec`] (or [`SearchDriver::spec`]): the driver then
//! snapshots the evaluator's layer outcomes every `checkpoint_every`
//! steps, at completion and on cancel, and with `resume` it restores them
//! and steps a fresh technique from the start, bit-for-bit identically to
//! the uninterrupted run. See `DESIGN.md` ("Snapshot format") and the
//! README's "Resuming an interrupted run".
//!
//! For *cross-run* (rather than crash-recovery) reuse, attach a persistent
//! disk cache to the evaluator before handing it to the session
//! ([`crate::CodesignEvaluator::with_disk_cache`]): layer mappings are then
//! warm-started from disk across processes, checkpoints leave the
//! disk-resident outcomes out, and a warm run stays bit-identical to a
//! cold one. See the README's "Warm-starting runs".

use crate::bottleneck::dnn::LayerCtx;
use crate::bottleneck::model::BottleneckModel;
use crate::checkpoint::{load_snapshot, save_snapshot, Snapshot};
use crate::cost::{Evaluation, Sample, Trace};
use crate::dse::{DseConfig, DseResult, ExplainableDse};
use crate::evaluate::Evaluator;
use crate::job::JobSpec;
use crate::space::DesignPoint;
use crate::technique::{DseTechnique, Problem};
use edse_telemetry::{Collector, Level};
use std::path::PathBuf;
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
    /// The [`CancelToken`] fired: no step was taken, and (when
    /// checkpointing is configured) a resumable snapshot was written.
    /// Further `step` calls return `Cancelled` without doing work.
    Cancelled,
}

/// An owned, stepwise, cancellable exploration by any [`DseTechnique`].
///
/// One [`SearchDriver::step`] is one ask/tell round: the technique
/// proposes a batch, the evaluator evaluates it as one batch, and the
/// technique observes each point's evaluation or fault. Successful
/// evaluations become trace samples; a permanently failed one never does.
/// Between steps the driver is an inert value: it can be parked in a job
/// table, moved across threads, snapshotted, or dropped.
///
/// With a checkpoint path the driver saves a snapshot — the layer
/// outcomes the evaluator's disk tier lacks, tagged with the technique
/// label and budget — every `checkpoint_every` steps, at termination, and
/// on cancel. A technique's state is a pure function of its seed, its
/// budget and the outcomes it has observed, so a resume restores the
/// layer outcomes and steps a fresh technique from the start: every point
/// it repeats is assembled without a mapper call, and the trace is
/// bit-identical to the uninterrupted run's.
pub struct SearchDriver<'t, E> {
    technique: Box<dyn DseTechnique + 't>,
    evaluator: E,
    budget: usize,
    telemetry: Collector,
    /// Whether the technique emits its own iteration records.
    self_reporting: bool,
    checkpoint: Option<(PathBuf, usize)>,
    steps_since_save: usize,
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
            checkpoint: None,
            steps_since_save: 0,
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

    /// Applies the checkpoint path, snapshot cadence (in steps) and resume
    /// policy of a [`JobSpec`]. With `resume` set and the snapshot file
    /// present, the snapshot's layer outcomes are restored into the
    /// evaluator.
    ///
    /// # Errors
    ///
    /// Fails when the snapshot cannot be loaded (it is corrupt or has
    /// another schema version), or records a different technique or budget
    /// than this run: stepping a different search against those caches
    /// would not reproduce the interrupted run.
    pub fn spec(mut self, spec: &JobSpec) -> Result<Self, String> {
        self.checkpoint = spec
            .checkpoint
            .clone()
            .map(|path| (path, spec.checkpoint_every.max(1)));
        let resume_from = self.checkpoint.as_ref().map(|(path, _)| path);
        let Some(path) = resume_from.filter(|path| spec.resume && path.exists()) else {
            return Ok(self);
        };
        let _span = self.telemetry.span("session/load_checkpoint");
        let snapshot = load_snapshot(path).map_err(|e| format!("cannot resume: {e}"))?;
        let name = &self.trace.technique;
        if &snapshot.technique != name {
            return Err(format!(
                "cannot resume: snapshot records technique {:?}, this run is {name:?}",
                snapshot.technique
            ));
        }
        if snapshot.budget != self.budget {
            return Err(format!(
                "cannot resume: snapshot records budget {}, this run has {}",
                snapshot.budget, self.budget
            ));
        }
        let layers = |ev: &E| ev.cache_stats().layer.entries;
        let before = layers(&self.evaluator);
        self.evaluator.restore_caches(&snapshot.caches);
        let restored = layers(&self.evaluator).saturating_sub(before);
        self.telemetry.log(
            Level::Info,
            &format!(
                "resumed {name} from {}: restored {restored} of {} snapshotted layer outcomes",
                path.display(),
                snapshot.caches.layers.len()
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

    /// A clone of the driver's cancellation token; fire it from any thread
    /// to stop the search at the next step boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Advances the exploration by one ask/tell round (at most one
    /// evaluation batch). Checks the [`CancelToken`] first: when it has
    /// fired, no round runs, the evaluator caches are snapshotted if
    /// checkpointing is configured, and [`StepOutcome::Cancelled`] is
    /// returned. After termination (or a cancel) further calls are no-ops
    /// returning the same outcome.
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
    /// returns the result.
    pub fn run_to_completion(mut self) -> DseResult {
        while self.step() == StepOutcome::Pending {}
        self.finish()
    }

    /// Writes a snapshot now (regardless of cadence) when checkpointing is
    /// configured; a no-op otherwise. Returns whether a save was attempted.
    /// Failures are reported through telemetry (`checkpoint/save_failures`
    /// plus a warning), never panicked on: losing a checkpoint must not
    /// kill the run it exists to protect.
    pub fn snapshot(&mut self) -> bool {
        let Some((path, _)) = &self.checkpoint else {
            return false;
        };
        let snapshot = Snapshot {
            technique: self.trace.technique.clone(),
            budget: self.budget,
            caches: self.evaluator.cache_snapshot(),
        };
        match save_snapshot(path, &snapshot) {
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
/// optionally configure telemetry and a [`JobSpec`], then either run to
/// completion with [`SearchSession::run`] or take stepwise control with
/// [`SearchSession::driver`].
pub struct SearchSession<E = ()> {
    dse: ExplainableDse,
    budget: usize,
    evaluator: E,
    telemetry: Collector,
    spec: JobSpec,
    cancel: CancelToken,
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
            spec: JobSpec::default(),
            cancel: CancelToken::new(),
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
            spec: self.spec,
            cancel: self.cancel,
        }
    }

    /// Attaches a telemetry collector: the search emits a `dse/run` span
    /// plus what [`ExplainableDse`] reports through
    /// [`DseTechnique::attach_telemetry`]; the driver adds
    /// `checkpoint/saves` counters and resume/save log lines.
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Applies the session-relevant subset of a [`JobSpec`]: checkpoint
    /// path, snapshot cadence, and resume policy. This is the one
    /// configuration surface shared by the service (`POST /jobs` body),
    /// the bench harness, and library callers.
    pub fn spec(mut self, spec: &JobSpec) -> Self {
        self.spec = spec.clone();
        self
    }

    /// Uses `token` as the session's cancellation token instead of a
    /// fresh one, so the caller can cancel the search it is about to
    /// build a driver for.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }
}

impl<E: Evaluator> SearchSession<E> {
    /// Turns the session into a stepwise [`SearchDriver`] whose first
    /// phase starts at `initial`.
    ///
    /// # Panics
    ///
    /// Panics when resume is enabled and the snapshot file exists but
    /// cannot be loaded, or records another technique or budget (see
    /// [`SearchDriver::spec`], which returns the same mismatch as an
    /// error). Silently falling back to a fresh run would discard the
    /// interrupted run's work, so the mismatch is surfaced loudly.
    pub fn driver(self, initial: DesignPoint) -> SearchDriver<'static, E> {
        SearchDriver::new(
            Box::new(self.dse.starting_at(initial)),
            self.evaluator,
            self.budget,
        )
        .telemetry(self.telemetry)
        .with_cancel_token(self.cancel)
        .spec(&self.spec)
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the search to completion inside a `dse/run` span; a thin
    /// wrapper over [`SearchSession::driver`] (bit-identical to stepping
    /// the driver by hand), with the same panics.
    pub fn run(self, initial: DesignPoint) -> DseResult {
        let telemetry = self.telemetry.clone();
        let _run_span = telemetry.span("dse/run");
        self.driver(initial).run_to_completion()
    }
}
