//! [`SearchSession`]: the one front door to running an explainable search —
//! builder-style configuration of the model, evaluator, telemetry, and
//! checkpoint/resume policy (the older `ExplainableDse::run`/`run_dnn`
//! entry points have been removed in its favor).
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
//! [`SearchSession::spec`]: the session then snapshots the complete search
//! state (plus evaluator caches) every `checkpoint_every` steps and at
//! completion, and with `resume` it continues from such a snapshot,
//! bit-for-bit identically to the uninterrupted run. See `DESIGN.md`
//! ("Snapshot format") and the README's "Resuming an interrupted run".
//!
//! For stepwise control — interleaving several searches on one thread pool,
//! pausing, or cancelling — turn the session into a [`SearchDriver`] with
//! [`SearchSession::driver`] instead of calling [`SearchSession::run`]:
//! the driver exposes one evaluation-batch of progress per
//! [`SearchDriver::step`] call and honors a [`CancelToken`] between steps.
//! `run`/`run_with` are thin wrappers over the driver and produce
//! bit-identical results (enforced by the conformance oracle
//! `driver_stepping_matches_blocking_run`).
//!
//! For *cross-run* (rather than crash-recovery) reuse, attach a persistent
//! disk cache to the evaluator before handing it to the session
//! ([`crate::CodesignEvaluator::with_disk_cache`]): layer mappings are then
//! warm-started from disk across processes, checkpoints reference the
//! disk-resident entries instead of duplicating them, and a warm run stays
//! bit-identical to a cold one. See the README's "Warm-starting runs".

use crate::bottleneck::dnn::LayerCtx;
use crate::bottleneck::model::BottleneckModel;
use crate::checkpoint;
use crate::cost::LayerEval;
use crate::dse::{dnn_ctx, DseConfig, DseResult, ExplainableDse, SearchState};
use crate::evaluate::Evaluator;
use crate::job::JobSpec;
use crate::space::DesignPoint;
use edse_telemetry::{Collector, Level};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Cooperative cancellation flag shared between a driver ([`SearchDriver`]
/// here, or the baseline driver built on the same protocol) and the code
/// controlling it. Cloning is cheap (an `Arc` bump); all clones share one
/// flag. Cancellation is checked at evaluation-batch boundaries — a step
/// already in flight completes, so a cancel returns within one batch.
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

/// An owned, resumable, cancellable explainable search.
///
/// Where [`SearchSession::run`] parks the calling thread until
/// termination, a driver advances the same search one *step* — one phase
/// start or one acquisition attempt, i.e. at most one evaluation batch —
/// per [`SearchDriver::step`] call, with identical results (the blocking
/// entry points are wrappers over this type). Between steps the driver is
/// an inert value: it can be parked in a job table, moved across threads,
/// snapshotted, or dropped.
///
/// Built with [`SearchSession::driver`] / [`SearchSession::driver_with`].
pub struct SearchDriver<C, E, F> {
    dse: ExplainableDse<C>,
    evaluator: E,
    ctx_fn: F,
    state: SearchState,
    checkpoint: Option<(PathBuf, usize)>,
    steps_since_save: usize,
    cancel: CancelToken,
    started: Instant,
    outcome: Option<StepOutcome>,
}

impl<C, E, F> SearchDriver<C, E, F>
where
    E: Evaluator,
    F: Fn(&E, &DesignPoint, &LayerEval) -> Option<C>,
{
    /// Advances the search by one step (at most one evaluation batch).
    ///
    /// Checks the [`CancelToken`] first: when it has fired, no step is
    /// taken, a resumable snapshot is written if checkpointing is
    /// configured, and [`StepOutcome::Cancelled`] is returned. After the
    /// search terminates (or is cancelled) further calls are no-ops
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
        let done = self
            .dse
            .step(&self.evaluator, &self.ctx_fn, &mut self.state);
        if self.checkpoint.is_some() {
            self.steps_since_save += 1;
            let every = self.checkpoint.as_ref().map_or(1, |(_, every)| *every);
            if done || self.steps_since_save >= every.max(1) {
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

    /// Steps until the search terminates or the token fires, then returns
    /// the result (equivalent to what [`SearchSession::run_with`] does).
    pub fn run_to_completion(mut self) -> DseResult {
        while self.step() == StepOutcome::Pending {}
        self.finish()
    }

    /// Consumes the driver and produces the result of the search so far.
    /// After [`StepOutcome::Done`] this is the complete run's result; after
    /// a cancel it reports the partial trace with termination
    /// `"cancelled"`.
    pub fn finish(self) -> DseResult {
        let wall = self.state.prior_wall_seconds + self.started.elapsed().as_secs_f64();
        let cancelled =
            self.outcome == Some(StepOutcome::Cancelled) && self.state.final_termination.is_none();
        let mut result = self.state.into_result(wall);
        if cancelled {
            result = result.with_termination("cancelled");
        }
        result
    }

    /// Writes a snapshot now (regardless of cadence) when checkpointing is
    /// configured; a no-op otherwise. Returns whether a save was attempted.
    pub fn snapshot(&mut self) -> bool {
        let Some((path, _)) = self.checkpoint.clone() else {
            return false;
        };
        let wall = self.state.prior_wall_seconds + self.started.elapsed().as_secs_f64();
        self.dse
            .save_checkpoint(&path, &mut self.state, &self.evaluator, wall);
        true
    }

    /// A clone of the driver's cancellation token; fire it from any thread
    /// to stop the search at the next step boundary.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Whether the search has terminated or been cancelled.
    pub fn is_done(&self) -> bool {
        self.outcome.is_some()
    }

    /// Unique evaluations recorded so far.
    pub fn evaluations(&self) -> usize {
        self.state.trace.evaluations()
    }

    /// The incumbent: best feasible point and evaluation found so far.
    pub fn best(&self) -> Option<&(DesignPoint, crate::cost::Evaluation)> {
        self.state.best.as_ref()
    }

    /// Objective of the incumbent, if any.
    pub fn best_objective(&self) -> Option<f64> {
        self.state.best.as_ref().map(|(_, eval)| eval.objective)
    }

    /// The evaluator the driver owns (e.g. to read
    /// [`Evaluator::cache_stats`] while the search is parked).
    pub fn evaluator(&self) -> &E {
        &self.evaluator
    }
}

/// Builder and runner for one explainable-DSE search.
///
/// Construct with [`SearchSession::new`], attach an evaluator with
/// [`SearchSession::evaluator`] (which fixes the second type parameter),
/// optionally configure telemetry and a [`JobSpec`], then either run to
/// completion with [`SearchSession::run`] / [`SearchSession::run_with`] or
/// take stepwise control with [`SearchSession::driver`] /
/// [`SearchSession::driver_with`].
pub struct SearchSession<C, E = ()> {
    dse: ExplainableDse<C>,
    evaluator: E,
    checkpoint: Option<PathBuf>,
    checkpoint_every: usize,
    resume: bool,
    cancel: CancelToken,
}

impl<C> SearchSession<C, ()> {
    /// Starts a session from a bottleneck model and a configuration. No
    /// evaluator is attached yet: call [`SearchSession::evaluator`] next.
    pub fn new(model: BottleneckModel<C>, config: DseConfig) -> Self {
        SearchSession {
            dse: ExplainableDse::new(model, config),
            evaluator: (),
            checkpoint: None,
            checkpoint_every: 10,
            resume: false,
            cancel: CancelToken::new(),
        }
    }
}

impl<C, E> SearchSession<C, E> {
    /// Attaches the evaluator (any [`Evaluator`], by value or by
    /// reference), fixing the session's evaluator type.
    pub fn evaluator<E2: Evaluator>(self, evaluator: E2) -> SearchSession<C, E2> {
        SearchSession {
            dse: self.dse,
            evaluator,
            checkpoint: self.checkpoint,
            checkpoint_every: self.checkpoint_every,
            resume: self.resume,
            cancel: self.cancel,
        }
    }

    /// Attaches a telemetry collector (see
    /// [`ExplainableDse::with_telemetry`] for what the search emits; the
    /// session additionally emits `checkpoint/saves` counters and
    /// resume/save log lines).
    pub fn telemetry(mut self, telemetry: Collector) -> Self {
        self.dse = self.dse.with_telemetry(telemetry);
        self
    }

    /// Applies the session-relevant subset of a [`JobSpec`]: checkpoint
    /// path, snapshot cadence, and resume policy. This is the one
    /// configuration surface shared by the service (`POST /jobs` body),
    /// the bench harness, and library callers.
    pub fn spec(mut self, spec: &JobSpec) -> Self {
        self.checkpoint = spec.checkpoint.clone();
        self.checkpoint_every = spec.checkpoint_every.max(1);
        self.resume = spec.resume;
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

impl<C, E: Evaluator> SearchSession<C, E> {
    /// Turns the session into a stepwise [`SearchDriver`] with a custom
    /// bottleneck-context closure: `ctx_fn` builds the bottleneck-analysis
    /// context for one sub-function of an evaluated point — it receives
    /// the evaluator, the point, and the sub-function's [`LayerEval`], and
    /// returns `None` when the sub-function cannot be analyzed (e.g. no
    /// feasible mapping).
    ///
    /// On a resumed run, `initial` is ignored: the snapshot carries the
    /// in-flight phase's state. The evaluator's caches are restored from
    /// the snapshot before the first step, so no completed evaluation is
    /// ever recomputed.
    ///
    /// # Panics
    ///
    /// Panics when resume is enabled and the snapshot file exists but
    /// cannot be loaded — it is corrupt, has a different schema version, is
    /// a baseline snapshot, or was produced under a different
    /// [`DseConfig`]. Silently falling back to a fresh run would discard
    /// the interrupted run's work, so the mismatch is surfaced loudly.
    pub fn driver_with<F>(self, initial: DesignPoint, ctx_fn: F) -> SearchDriver<C, E, F>
    where
        F: Fn(&E, &DesignPoint, &LayerEval) -> Option<C>,
    {
        let state = match (&self.checkpoint, self.resume) {
            (Some(path), true) if path.exists() => {
                let _span = self.dse.telemetry.span("session/load_checkpoint");
                let (state, caches) = checkpoint::load_search(path, &self.dse.config)
                    .unwrap_or_else(|e| panic!("cannot resume search: {e}"));
                self.evaluator.restore_caches(&caches);
                self.dse.telemetry.log(
                    Level::Info,
                    &format!(
                        "resumed from {} at {} attempts / {} evaluations",
                        path.display(),
                        state.attempts.len(),
                        caches.unique_evaluations
                    ),
                );
                state
            }
            _ => SearchState::new(initial),
        };
        SearchDriver {
            dse: self.dse,
            evaluator: self.evaluator,
            ctx_fn,
            state,
            checkpoint: self
                .checkpoint
                .map(|path| (path, self.checkpoint_every.max(1))),
            steps_since_save: 0,
            cancel: self.cancel,
            started: Instant::now(),
            outcome: None,
        }
    }

    /// Runs the search to completion with a custom bottleneck-context
    /// closure; a thin wrapper over [`SearchSession::driver_with`] +
    /// [`SearchDriver::run_to_completion`] (bit-identical to stepping the
    /// driver by hand). See [`SearchSession::driver_with`] for the resume
    /// semantics and panics.
    pub fn run_with<F>(self, initial: DesignPoint, ctx_fn: F) -> DseResult
    where
        F: Fn(&E, &DesignPoint, &LayerEval) -> Option<C>,
    {
        let telemetry = self.dse.telemetry.clone();
        let _run_span = telemetry.span("dse/run");
        self.driver_with(initial, ctx_fn).run_to_completion()
    }
}

impl<E: Evaluator> SearchSession<LayerCtx, E> {
    /// Turns the session into a stepwise [`SearchDriver`] with the
    /// standard DNN-accelerator context: each sub-function's context is
    /// its execution profile on the decoded hardware configuration. See
    /// [`SearchSession::driver_with`] for the resume semantics and panics.
    pub fn driver(self, initial: DesignPoint) -> SearchDriver<LayerCtx, E, DnnCtxFn<E>> {
        self.driver_with(initial, dnn_ctx())
    }

    /// Runs the search to completion with the standard DNN-accelerator
    /// context; a thin wrapper over [`SearchSession::driver`]. See
    /// [`SearchSession::driver_with`] for the resume semantics and panics.
    pub fn run(self, initial: DesignPoint) -> DseResult {
        self.run_with(initial, dnn_ctx())
    }
}

/// The concrete context-closure type produced by the default DNN-latency
/// context builder, naming [`SearchSession::driver`]'s return type.
pub type DnnCtxFn<E> = fn(&E, &DesignPoint, &LayerEval) -> Option<LayerCtx>;
