//! The Explainable-DSE framework (§4): constraints-aware exploration driven
//! by per-sub-function bottleneck analysis.
//!
//! Each *acquisition attempt* (1) analyzes the current solution's
//! execution, sub-function by sub-function, through the bottleneck model;
//! (2) aggregates the per-sub-function parameter predictions (top-K
//! sub-functions over a contribution threshold, minimum value per
//! parameter, §4.4); (3) acquires one candidate per predicted parameter
//! value (§4.5); and (4) updates the incumbent solution with the
//! constraints-budget rule (§4.6). Every step is recorded as a
//! human-readable explanation.
//!
//! [`ExplainableDse`] is an ask/tell [`DseTechnique`]: a proposal is a
//! phase's start point or one budget-bounded chunk of an attempt's
//! candidates, and the update rule runs once the attempt's candidates are
//! used up or the budget is spent. The search counts its own budget — the
//! distinct points it has seen evaluate successfully — so its path never
//! depends on what the evaluator cached before, which is what lets a rerun
//! over an interrupted run's disk tier replay the search from the start
//! (see [`crate::SearchDriver`]).

use crate::bottleneck::dnn::LayerCtx;
use crate::bottleneck::model::BottleneckModel;
use crate::cost::{Evaluation, LayerEval, Sample, Trace};
use crate::space::{decode_edge_point, DesignPoint, DesignSpace, ParamId};
use crate::technique::{DseTechnique, EvalResult, Problem};
use edse_telemetry::{Collector, IterationRecord, ProvenanceRecord};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// How multiple per-sub-function predictions for the same parameter are
/// aggregated (§4.4): the paper argues for the minimum — the maximum
/// favors single sub-functions and exhausts the constraints budget early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Aggregation {
    /// The paper's choice: the smallest predicted value.
    #[default]
    Min,
    /// The ablation alternative: the largest predicted value.
    Max,
}

/// Contribution threshold scale: a sub-function participates when its
/// fraction of the total cost exceeds `THRESHOLD_SCALE / l` for `l`
/// sub-functions (the paper uses 0.5).
const THRESHOLD_SCALE: f64 = 0.5;
/// Maximum candidates acquired per attempt.
const MAX_CANDIDATES: usize = 10;
/// How many ranked bottleneck factors each analysis contributes once the
/// search stalls (1 before the first stall).
const STALL_FACTORS: usize = 3;
/// Consecutive non-improving attempts tolerated before terminating.
const MAX_STALLS: usize = 3;

/// Tunable knobs of the DSE (defaults follow the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct DseConfig {
    /// Evaluation budget: how many distinct points the search may see
    /// evaluate successfully. [`crate::SearchSession`] hands it to the
    /// driver, whose [`Problem`] carries it to the search.
    pub budget: usize,
    /// Consider predictions from at most this many sub-functions per
    /// attempt (the paper sets K = 5).
    pub top_k: usize,
    /// Seed of the §C restart perturbation.
    pub seed: u64,
    /// Aggregation rule for conflicting per-layer predictions (§4.4).
    pub aggregation: Aggregation,
    /// Additional exploration phases from perturbed initial points after
    /// convergence, while budget remains (the §C "pool of initial points"
    /// workaround for bottleneck-oriented greediness). The first
    /// convergence point is still reported via `DseResult::converged_after`.
    pub restarts: usize,
    /// Whether solution updates weigh the constraints budget (§4.6).
    /// Disabling reduces the update to plain objective minimization — the
    /// ablation of the paper's budget-awareness.
    pub budget_aware: bool,
}

impl Default for DseConfig {
    fn default() -> Self {
        Self {
            budget: 2500,
            top_k: 5,
            seed: 0,
            aggregation: Aggregation::Min,
            restarts: 8,
            budget_aware: true,
        }
    }
}

/// One acquisition attempt's record: what was analyzed, predicted,
/// acquired, and decided — the DSE's explanation artifact. A
/// [`Attempt::Failed`] entry records a candidate whose evaluation failed
/// at the fault boundary (see [`crate::EvalFault`]) instead of aborting
/// the search.
#[derive(Debug, Clone, PartialEq)]
pub enum Attempt {
    /// A regular attempt that ran analysis, acquisition, and update.
    Completed {
        /// Attempt number (0-based, shared sequence with failed attempts).
        index: usize,
        /// Human-readable per-layer bottleneck summaries.
        analyses: Vec<String>,
        /// Acquired candidates as `(param, new index)` changes from the
        /// incumbent.
        acquisitions: Vec<(ParamId, usize)>,
        /// What the update rule decided.
        decision: String,
    },
    /// A candidate whose evaluation failed (a layer mapping panicked);
    /// the search degraded gracefully and moved on.
    Failed {
        /// Attempt number (0-based, shared sequence with completed
        /// attempts).
        index: usize,
        /// The candidate design point that could not be evaluated.
        candidate: DesignPoint,
        /// The underlying failure: the panic message.
        error: String,
    },
}

impl Attempt {
    /// Attempt number (0-based).
    pub fn index(&self) -> usize {
        match self {
            Attempt::Completed { index, .. } | Attempt::Failed { index, .. } => *index,
        }
    }

    /// Per-layer bottleneck summaries (empty for failed attempts).
    pub fn analyses(&self) -> &[String] {
        match self {
            Attempt::Completed { analyses, .. } => analyses,
            Attempt::Failed { .. } => &[],
        }
    }

    /// Acquired `(param, new index)` changes (empty for failed attempts).
    pub fn acquisitions(&self) -> &[(ParamId, usize)] {
        match self {
            Attempt::Completed { acquisitions, .. } => acquisitions,
            Attempt::Failed { .. } => &[],
        }
    }

    /// The decision line of this attempt: the §4.6 update outcome, or a
    /// `"candidate evaluation failed: …"` line for failed attempts (the
    /// same string the telemetry iteration record carries).
    pub fn decision(&self) -> String {
        match self {
            Attempt::Completed { decision, .. } => decision.clone(),
            Attempt::Failed { error, .. } => format!("candidate evaluation failed: {error}"),
        }
    }

    /// Whether this entry records a permanently failed evaluation.
    pub fn is_failed(&self) -> bool {
        matches!(self, Attempt::Failed { .. })
    }
}

/// Structured byproduct of one attempt's analysis phase, feeding the
/// telemetry iteration record (the human-readable [`Attempt::analyses`]
/// strings carry the same information for the final report).
#[derive(Default)]
pub(crate) struct AnalysisSummary {
    /// Dominant bottleneck factor of the highest-contribution analyzed
    /// sub-function.
    bottleneck: Option<String>,
    /// Required scaling `s` of the dominant factor.
    scaling: Option<f64>,
    /// `(sub-function, cost fraction)` for every analyzed sub-function,
    /// contribution-ranked.
    layer_contributions: Vec<(String, f64)>,
}

/// Aggregated `(param, min predicted value)` pairs, the per-sub-function
/// analysis strings, and the structured summary for telemetry.
type SubfunctionAnalysis = (Vec<(ParamId, Option<f64>)>, Vec<String>, AnalysisSummary);

/// What the explainable search says about its run beyond the samples
/// ([`DseTechnique::explanation`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Explanation {
    /// Per-attempt explanations.
    pub attempts: Vec<Attempt>,
    /// Sample counts at which each exploration phase converged or
    /// terminated; the first entry is the paper's "iterations to converge".
    pub converged_after: Vec<usize>,
    /// Why the exploration ended; `None` while it runs.
    pub termination: Option<String>,
}

/// The result of a search run through [`crate::SearchDriver`], for any
/// technique.
///
/// All state is behind accessors (mirroring [`Attempt`]'s accessor-only
/// surface): [`DseResult::trace`], [`DseResult::best`],
/// [`DseResult::best_objective`], [`DseResult::iterations`],
/// [`DseResult::attempts`], [`DseResult::converged_after`],
/// [`DseResult::termination`] and [`DseResult::explanation`].
#[derive(Debug, Clone)]
pub struct DseResult {
    trace: Trace,
    best: Option<(DesignPoint, Evaluation)>,
    explanation: Option<Explanation>,
    termination: String,
}

impl DseResult {
    pub(crate) fn new(
        trace: Trace,
        best: Option<(DesignPoint, Evaluation)>,
        explanation: Option<Explanation>,
        termination: String,
    ) -> DseResult {
        DseResult {
            trace,
            best,
            explanation,
            termination,
        }
    }

    /// Every evaluated sample in order.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the result, yielding the owned sample trace.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The same result with its trace labelled `technique`, e.g. a
    /// technique's name tagged with the setting a harness ran it in.
    pub fn labelled(mut self, technique: String) -> DseResult {
        self.trace.technique = technique;
        self
    }

    /// Best feasible point and its evaluation, if any was found.
    pub fn best(&self) -> Option<&(DesignPoint, Evaluation)> {
        self.best.as_ref()
    }

    /// Objective value of the best feasible point, if any was found.
    pub fn best_objective(&self) -> Option<f64> {
        self.best.as_ref().map(|(_, eval)| eval.objective)
    }

    /// Number of evaluations recorded in the trace.
    pub fn iterations(&self) -> usize {
        self.trace.evaluations()
    }

    /// Per-attempt explanations (empty for a black-box technique).
    pub fn attempts(&self) -> &[Attempt] {
        self.explanation
            .as_ref()
            .map_or(&[], |e| e.attempts.as_slice())
    }

    /// Evaluation counts at which each exploration phase converged or
    /// terminated; the first entry is the paper's "iterations to converge"
    /// (empty for a black-box technique).
    pub fn converged_after(&self) -> &[usize] {
        self.explanation
            .as_ref()
            .map_or(&[], |e| e.converged_after.as_slice())
    }

    /// Why the exploration ended: the technique's own reason, `"budget"`
    /// for a black box that ran its course, or `"cancelled"`.
    pub fn termination(&self) -> &str {
        &self.termination
    }

    /// The technique's account of its run, or `None` for a black box.
    pub fn explanation(&self) -> Option<&Explanation> {
        self.explanation.as_ref()
    }
}

/// Per-phase exploration state: the incumbent, its evaluation, the frozen
/// parameter directions, and the stall counter. `None` in
/// [`ExplainableDse`]'s phase state means the phase has not evaluated its
/// start point yet.
#[derive(Debug, Clone, PartialEq)]
struct PhaseState {
    current: DesignPoint,
    current_eval: Evaluation,
    frozen: HashSet<ParamId>,
    stalls: usize,
}

/// An acquisition attempt whose candidates are still being handed out and
/// observed. It lives only in the technique: a rerun replays the search,
/// so it is never serialized.
struct InFlight {
    /// The provenance iteration of every candidate the attempt proposes.
    iteration: u64,
    /// The incumbent the analysis ran against: the provenance parent.
    parent: Vec<usize>,
    analyses: Vec<String>,
    summary: AnalysisSummary,
    /// Candidates generated, before the seen-set filter.
    proposed: usize,
    /// Candidates to evaluate, with the parameter each one moves, and
    /// their provenance actions (empty strings when telemetry is off).
    acquisitions: Vec<(Option<ParamId>, DesignPoint)>,
    actions: Vec<String>,
    /// How many acquisitions have been handed out.
    next: usize,
    /// Evaluated candidates, and for each its `(action, became-best)`
    /// provenance (only kept while telemetry is active).
    candidates: Vec<(DesignPoint, Evaluation, Option<ParamId>)>,
    evaluated_meta: Vec<(String, bool)>,
    failed: usize,
}

impl InFlight {
    /// The provenance record of one of this attempt's candidates, as an
    /// unevaluated one (infinite objective, not feasible, not accepted,
    /// not a new best); an evaluated candidate's record overrides those.
    fn provenance(&self, action: String, cand: &DesignPoint, outcome: &str) -> ProvenanceRecord {
        ProvenanceRecord {
            technique: "explainable".to_string(),
            iteration: self.iteration,
            point: cand.indices().to_vec(),
            parent: Some(self.parent.clone()),
            bottleneck: self.summary.bottleneck.clone(),
            scaling: self.summary.scaling,
            action,
            outcome: outcome.to_string(),
            objective: f64::INFINITY,
            feasible: false,
            accepted: false,
            new_best: false,
        }
    }

    /// The ledger entry of acquisition `index`, never evaluated.
    fn unevaluated(&self, index: usize, outcome: &str) -> ProvenanceRecord {
        let (_, cand) = &self.acquisitions[index];
        self.provenance(self.actions[index].clone(), cand, outcome)
    }
}

/// The Explainable-DSE search over the DNN-accelerator bottleneck model:
/// one [`DseTechnique`] that analyzes, acquires, and updates.
pub struct ExplainableDse {
    model: BottleneckModel<LayerCtx>,
    config: DseConfig,
    telemetry: Collector,
    /// The §C restart perturbation's draws.
    rng: StdRng,
    attempts: Vec<Attempt>,
    best: Option<(DesignPoint, Evaluation)>,
    seen: HashSet<DesignPoint>,
    converged_after: Vec<usize>,
    /// Successful evaluations observed: the samples the driver recorded.
    samples: usize,
    /// Distinct points seen evaluating successfully: the budget count.
    evaluated: usize,
    /// 0-based index of the phase currently exploring.
    phase: usize,
    /// The current phase's start point; before the first phase, `None`
    /// stands for the space's minimum point.
    phase_start: Option<DesignPoint>,
    phase_state: Option<PhaseState>,
    attempt: Option<InFlight>,
    termination: Option<String>,
}

impl ExplainableDse {
    /// A fresh search from a DNN-accelerator bottleneck model, starting at
    /// the space's minimum point.
    pub fn new(model: BottleneckModel<LayerCtx>, config: DseConfig) -> Self {
        Self {
            model,
            rng: StdRng::seed_from_u64(config.seed),
            config,
            telemetry: Collector::noop(),
            attempts: Vec::new(),
            best: None,
            seen: HashSet::new(),
            converged_after: Vec::new(),
            samples: 0,
            evaluated: 0,
            phase: 0,
            phase_start: None,
            phase_state: None,
            attempt: None,
            termination: None,
        }
    }

    /// Starts the first phase at `initial` instead of the minimum point.
    pub fn starting_at(mut self, initial: DesignPoint) -> Self {
        self.phase_start = Some(initial);
        self
    }

    /// Observes the current phase's start point: it becomes the phase's
    /// incumbent. A failed evaluation is not a sample; the phase starts
    /// from the infeasible stand-in, which the update rule moves away
    /// from.
    fn start_phase(&mut self, problem: &Problem, result: EvalResult) {
        let constraints = problem.constraints;
        let current = self.phase_start.clone().expect("a proposed phase start");
        // Provenance: a restart phase's start point was perturbed from
        // the best-so-far incumbent (§C); the very first point of the
        // search has no parent. Captured before the best-update below
        // so the parent is the incumbent this point was derived from.
        let parent = (self.phase > 0)
            .then(|| self.best.as_ref().map(|(p, _)| p.indices().to_vec()))
            .flatten();
        let succeeded = result.is_ok();
        let current_eval = match result {
            Ok(eval) => {
                self.samples += 1;
                if !self.seen.contains(&current) {
                    self.evaluated += 1;
                }
                eval
            }
            Err(_) => Evaluation::failed(constraints.len()),
        };
        let mut new_best = false;
        if current_eval.feasible(constraints)
            && self
                .best
                .as_ref()
                .is_none_or(|(_, b)| current_eval.objective < b.objective)
        {
            self.best = Some((current.clone(), current_eval.clone()));
            new_best = true;
        }
        if self.telemetry.active() {
            self.telemetry.provenance(ProvenanceRecord {
                technique: "explainable".to_string(),
                iteration: self.attempts.len() as u64,
                point: current.indices().to_vec(),
                parent,
                bottleneck: None,
                scaling: None,
                action: if self.phase == 0 {
                    "initial point".to_string()
                } else {
                    format!("restart perturbation (phase {})", self.phase)
                },
                outcome: if succeeded { "evaluated" } else { "failed" }.to_string(),
                objective: current_eval.objective,
                feasible: current_eval.feasible(constraints),
                accepted: true,
                new_best,
            });
        }
        self.seen.insert(current.clone());
        self.phase_state = Some(PhaseState {
            current,
            current_eval,
            frozen: HashSet::new(),
            stalls: 0,
        });
    }

    /// Steps (1)-(3) of a §4 acquisition attempt against the phase's
    /// incumbent: analysis, aggregation, and acquisition. Leaves the
    /// attempt in flight, or returns the phase's termination reason when
    /// there is nothing to evaluate.
    fn begin_attempt(&mut self, problem: &Problem) -> Option<String> {
        if self.evaluated >= problem.budget {
            return Some(format!(
                "budget of {} evaluations exhausted",
                problem.budget
            ));
        }
        let space = problem.space;
        let ps = self.phase_state.as_ref().expect("an attempt needs a phase");
        let PhaseState {
            current,
            current_eval,
            frozen,
            stalls,
        } = ps;

        // ---- (1) + (2): per-sub-function analysis and aggregation. Each
        // sub-function's context is its execution profile on the decoded
        // hardware configuration.
        let factors = if *stalls > 0 { STALL_FACTORS } else { 1 };
        let cfg = decode_edge_point(space, current);
        let (predictions, analyses, summary) =
            analyze_subfunctions(&self.model, &self.config, current_eval, factors, |layer| {
                layer.profile().map(|&profile| LayerCtx { cfg, profile })
            });
        let mut attempt = InFlight {
            iteration: self.attempts.len() as u64,
            parent: current.indices().to_vec(),
            analyses,
            summary,
            proposed: 0,
            acquisitions: Vec::new(),
            actions: Vec::new(),
            next: 0,
            candidates: Vec::new(),
            evaluated_meta: Vec::new(),
            failed: 0,
        };

        // ---- (3): acquisition — one candidate per aggregated value,
        // plus one combined candidate applying every prediction at once
        // (coupled parameters like the per-operand link counts cannot
        // show progress one at a time).
        let mut moves: Vec<(ParamId, usize)> = Vec::new();
        for (param, target) in predictions {
            if frozen.contains(&param) {
                continue;
            }
            let cur_idx = current.index(param);
            let def = space.param(param);
            let new_idx = match target {
                Some(v) => {
                    let idx = def.round_up_index(v);
                    if idx <= cur_idx {
                        // The paper rounds up to the closest value in
                        // the space; when the prediction lands on the
                        // current value, step to keep making progress.
                        cur_idx + 1
                    } else {
                        idx
                    }
                }
                // Black-box counterpart: neighboring value.
                None => cur_idx + 1,
            };
            if new_idx >= def.len() || new_idx == cur_idx {
                continue;
            }
            if !moves.iter().any(|(p, _)| *p == param) {
                moves.push((param, new_idx));
            }
        }

        // `proposed` counts every candidate the acquisition step
        // generates, *before* the seen-set filter; the difference to
        // `acquisitions.len()` is what deduplication saved. Deduplicated
        // candidates still leave a provenance record — the ledger's
        // "why was this never re-evaluated" answer. `actions` stays
        // index-aligned with `acquisitions`.
        let active = self.telemetry.active();
        let acquire = |attempt: &mut InFlight, param, cand: DesignPoint, action: String| {
            attempt.proposed += 1;
            if !self.seen.contains(&cand) {
                attempt.acquisitions.push((param, cand));
                attempt.actions.push(action);
            } else if active {
                let record = attempt.provenance(action, &cand, "deduped");
                self.telemetry.provenance(record);
            }
        };
        for (param, idx) in moves.iter().take(MAX_CANDIDATES) {
            let action = if active {
                format!(
                    "raise {} to {}",
                    space.param(*param).name(),
                    space.param(*param).values()[*idx]
                )
            } else {
                String::new()
            };
            acquire(
                &mut attempt,
                Some(*param),
                current.with_index(*param, *idx),
                action,
            );
        }
        if moves.len() > 1 {
            let mut combo = current.clone();
            for (param, idx) in &moves {
                combo = combo.with_index(*param, *idx);
            }
            let action = if active {
                "apply combined prediction".to_string()
            } else {
                String::new()
            };
            acquire(&mut attempt, None, combo, action);
        }

        // Unmet-constraint escape hatch (§4.6 footnote): when the
        // incumbent is infeasible and no upward move exists, also probe
        // downward steps to shed constraint pressure.
        if attempt.acquisitions.is_empty() && !current_eval.feasible(problem.constraints) {
            for param in 0..space.len() {
                let cur_idx = current.index(param);
                if cur_idx > 0 && !frozen.contains(&param) {
                    let action = if active {
                        format!(
                            "lower {} to {} (constraint escape)",
                            space.param(param).name(),
                            space.param(param).values()[cur_idx - 1]
                        )
                    } else {
                        String::new()
                    };
                    let cand = current.with_index(param, cur_idx - 1);
                    acquire(&mut attempt, Some(param), cand, action);
                }
                if attempt.acquisitions.len() >= MAX_CANDIDATES {
                    break;
                }
            }
        }

        if attempt.acquisitions.is_empty() {
            let decision = "no unexplored candidates";
            let index = self.attempts.len();
            self.emit_iteration(
                problem,
                index,
                &ps.current_eval,
                &attempt.summary,
                attempt.proposed,
                0,
                0,
                decision,
            );
            self.attempts.push(Attempt::Completed {
                index,
                analyses: attempt.analyses,
                acquisitions: vec![],
                decision: decision.into(),
            });
            return Some("converged: no bottleneck-mitigating acquisitions remain".into());
        }
        self.attempt = Some(attempt);
        None
    }

    /// Records one evaluated chunk of the in-flight attempt's candidates,
    /// in order. A permanently failed candidate becomes an
    /// [`Attempt::Failed`] entry (with its own iteration record) instead
    /// of aborting the search.
    fn observe_candidates(
        &mut self,
        problem: &Problem,
        attempt: &mut InFlight,
        results: Vec<EvalResult>,
    ) {
        let constraints = problem.constraints;
        let active = self.telemetry.active();
        // Every successful candidate is a point the search has not seen
        // before: the whole chunk counts against the budget before any of
        // its records is emitted.
        self.evaluated += results.iter().filter(|r| r.is_ok()).count();
        let chunk = attempt.next..attempt.next + results.len();
        for (idx, result) in chunk.clone().zip(results) {
            let (param, cand) = &attempt.acquisitions[idx];
            self.seen.insert(cand.clone());
            match result {
                Ok(eval) => {
                    self.samples += 1;
                    let mut new_best = false;
                    if eval.feasible(constraints)
                        && self
                            .best
                            .as_ref()
                            .is_none_or(|(_, b)| eval.objective < b.objective)
                    {
                        self.best = Some((cand.clone(), eval.clone()));
                        new_best = true;
                    }
                    if active {
                        attempt
                            .evaluated_meta
                            .push((attempt.actions[idx].clone(), new_best));
                    }
                    attempt.candidates.push((cand.clone(), eval, *param));
                }
                Err(fault) => {
                    attempt.failed += 1;
                    if active {
                        self.telemetry
                            .provenance(attempt.unevaluated(idx, "failed"));
                    }
                    let index = self.attempts.len();
                    let decision = format!("candidate evaluation failed: {}", fault.error);
                    let incumbent = &self.phase_state.as_ref().expect("a phase").current_eval;
                    self.emit_iteration(
                        problem,
                        index,
                        incumbent,
                        &AnalysisSummary::default(),
                        1,
                        1,
                        0,
                        &decision,
                    );
                    self.attempts.push(Attempt::Failed {
                        index,
                        candidate: cand.clone(),
                        error: fault.error,
                    });
                }
            }
        }
        attempt.next = chunk.end;
    }

    /// Step (4) once the attempt's candidates are used up or the budget
    /// is spent: the §4.6 update, the attempt's record, and its iteration
    /// record. Returns the phase's termination reason when the phase
    /// stalled out.
    fn finish_attempt(&mut self, problem: &Problem, attempt: InFlight) -> Option<String> {
        let constraints = problem.constraints;
        let active = self.telemetry.active();
        // Candidates the budget boundary cut off: never evaluated, but
        // still part of the ledger.
        if active {
            for idx in attempt.next..attempt.acquisitions.len() {
                self.telemetry
                    .provenance(attempt.unevaluated(idx, "skipped"));
            }
        }
        let mut ps = self.phase_state.take().expect("an attempt needs a phase");
        let decision = if attempt.candidates.is_empty() {
            // Every candidate failed at the fault boundary; count a
            // stall so a persistently failing region still terminates.
            ps.stalls += 1;
            format!("stall: all {} candidates failed evaluation", attempt.failed)
        } else {
            let decision = self.update_solution(
                constraints,
                &mut ps.current,
                &mut ps.current_eval,
                &attempt.candidates,
                &mut ps.frozen,
                &mut ps.stalls,
            );
            // The ledger entry for each evaluated candidate, now that the
            // update rule has decided which one (if any) became the
            // incumbent.
            if active {
                for ((cand, eval, _), (action, new_best)) in
                    attempt.candidates.iter().zip(&attempt.evaluated_meta)
                {
                    self.telemetry.provenance(ProvenanceRecord {
                        objective: eval.objective,
                        feasible: eval.feasible(constraints),
                        accepted: cand == &ps.current,
                        new_best: *new_best,
                        ..attempt.provenance(action.clone(), cand, "evaluated")
                    });
                }
            }
            decision
        };
        let index = self.attempts.len();
        self.emit_iteration(
            problem,
            index,
            &ps.current_eval,
            &attempt.summary,
            attempt.proposed,
            attempt.acquisitions.len(),
            attempt.candidates.len(),
            &decision,
        );
        let acquisitions = attempt
            .acquisitions
            .iter()
            .filter_map(|(p, cand)| p.map(|p| (p, cand.index(p))))
            .collect();
        self.attempts.push(Attempt::Completed {
            index,
            analyses: attempt.analyses,
            acquisitions,
            decision,
        });
        let stalled = ps.stalls > MAX_STALLS;
        self.phase_state = Some(ps);
        stalled.then(|| format!("converged after {MAX_STALLS} stalled attempts"))
    }

    /// Ends the current phase: the search terminates once the budget is
    /// spent or every §C restart has run; otherwise the next phase starts
    /// from a perturbation of the best point.
    fn end_phase(&mut self, problem: &Problem, termination: String) {
        self.converged_after.push(self.samples);
        if self.evaluated >= problem.budget || self.phase == self.config.restarts {
            // §C: with restarts, report how many phases ran.
            self.termination = Some(if self.config.restarts > 0 {
                format!(
                    "{termination} (after {} phases)",
                    self.converged_after.len()
                )
            } else {
                termination
            });
        } else {
            self.phase_start = Some(self.perturb(problem.space));
            self.phase += 1;
            self.phase_state = None;
        }
    }

    /// §C restart perturbation: re-draw 3 random parameters of the best (or
    /// last phase-start) point.
    fn perturb(&mut self, space: &DesignSpace) -> DesignPoint {
        let mut next = self
            .best
            .as_ref()
            .map(|(p, _)| p.clone())
            .or_else(|| self.phase_start.clone())
            .expect("a phase has started");
        for _ in 0..3 {
            let param = self.rng.gen_range(0..space.len());
            let idx = self.rng.gen_range(0..space.param(param).len());
            next = next.with_index(param, idx);
        }
        next
    }

    /// Emits one telemetry [`IterationRecord`] for an acquisition attempt.
    #[allow(clippy::too_many_arguments)]
    fn emit_iteration(
        &self,
        problem: &Problem,
        attempt_index: usize,
        incumbent: &Evaluation,
        summary: &AnalysisSummary,
        proposed: usize,
        acquired: usize,
        evaluated: usize,
        decision: &str,
    ) {
        if !self.telemetry.active() {
            return;
        }
        self.telemetry.iteration(IterationRecord {
            technique: "explainable".to_string(),
            iteration: attempt_index as u64,
            incumbent_objective: incumbent.objective,
            best_objective: self.best.as_ref().map(|(_, e)| e.objective),
            bottleneck: summary.bottleneck.clone(),
            scaling: summary.scaling,
            layer_contributions: summary.layer_contributions.clone(),
            proposed: proposed as u64,
            deduped: proposed.saturating_sub(acquired) as u64,
            evaluated: evaluated as u64,
            budget_remaining: problem.budget.saturating_sub(self.evaluated) as u64,
            decision: decision.to_string(),
        });
    }

    /// Step (4): the §4.6 update rule.
    fn update_solution(
        &self,
        constraints: &[crate::cost::Constraint],
        current: &mut DesignPoint,
        current_eval: &mut Evaluation,
        candidates: &[(DesignPoint, Evaluation, Option<ParamId>)],
        frozen: &mut HashSet<ParamId>,
        stalls: &mut usize,
    ) -> String {
        let feasible: Vec<&(DesignPoint, Evaluation, Option<ParamId>)> = candidates
            .iter()
            .filter(|(_, e, _)| e.feasible(constraints))
            .collect();
        let cur_feasible = current_eval.feasible(constraints);

        if !feasible.is_empty() {
            // Scenario 2: pick the lowest objective x budget (or plain
            // objective when budget-awareness is ablated).
            let budget_aware = self.config.budget_aware;
            let score = move |e: &Evaluation| {
                if budget_aware {
                    e.objective * e.constraint_budget(constraints).max(1e-9)
                } else {
                    e.objective
                }
            };
            let bestc = feasible
                .iter()
                .min_by(|a, b| score(&a.1).partial_cmp(&score(&b.1)).unwrap())
                .expect("nonempty");
            if !cur_feasible || score(&bestc.1) < score(current_eval) {
                *current = bestc.0.clone();
                *current_eval = bestc.1.clone();
                *stalls = 0;
                return format!(
                    "moved to feasible candidate ({}): objective {:.3} ms, budget {:.2}",
                    describe_move(bestc.2),
                    bestc.1.objective,
                    bestc.1.constraint_budget(constraints)
                );
            }
            *stalls += 1;
            return "stall: no feasible candidate beat the incumbent".into();
        }

        // Scenario 1: nothing feasible among the candidates.
        if !cur_feasible {
            // Mappability dominates: a candidate with feasible mappings
            // always beats a hardware/dataflow-incompatible incumbent.
            if !current_eval.mappable {
                if let Some(bestc) =
                    candidates
                        .iter()
                        .filter(|(_, e, _)| e.mappable)
                        .min_by(|a, b| {
                            a.1.constraint_budget(constraints)
                                .partial_cmp(&b.1.constraint_budget(constraints))
                                .unwrap()
                        })
                {
                    *current = bestc.0.clone();
                    *current_eval = bestc.1.clone();
                    *stalls = 0;
                    return format!("moved to a mappable design ({})", describe_move(bestc.2));
                }
            }
            // Otherwise reduce pressure on the *violated* constraints
            // first (total budget only breaks ties), so e.g. shedding
            // power cannot mask a worsening latency violation.
            let violated: Vec<usize> = current_eval
                .constraint_values
                .iter()
                .zip(constraints)
                .enumerate()
                .filter(|(_, (v, c))| !c.satisfied(**v))
                .map(|(i, _)| i)
                .collect();
            let score = |e: &Evaluation| {
                let violated_util: f64 = violated
                    .iter()
                    .map(|&i| constraints[i].utilization(e.constraint_values[i]))
                    .sum::<f64>()
                    / violated.len().max(1) as f64;
                let base = if e.mappable { 0.0 } else { 1e6 };
                base + violated_util + 1e-3 * e.constraint_budget(constraints)
            };
            let bestc = candidates
                .iter()
                .min_by(|a, b| score(&a.1).partial_cmp(&score(&b.1)).unwrap())
                .expect("nonempty");
            if score(&bestc.1) < score(current_eval) {
                *current = bestc.0.clone();
                *current_eval = bestc.1.clone();
                *stalls = 0;
                return format!(
                    "moved toward feasibility ({}): budget {:.2}",
                    describe_move(bestc.2),
                    bestc.1.constraint_budget(constraints)
                );
            }
            *stalls += 1;
            return "stall: no candidate reduced the violated constraints".into();
        }

        // Incumbent feasible, candidates all infeasible: freeze parameter
        // directions that added violations (the §4.6 monomodal rule).
        let cur_violations = current_eval.violations(constraints);
        let mut newly_frozen = Vec::new();
        for (_, e, param) in candidates {
            if let Some(param) = param {
                if e.violations(constraints) > cur_violations {
                    frozen.insert(*param);
                    newly_frozen.push(*param);
                }
            }
        }
        *stalls += 1;
        format!("stall: all candidates infeasible; froze params {newly_frozen:?}")
    }
}

fn describe_move(param: Option<ParamId>) -> String {
    match param {
        Some(p) => format!("param {p}"),
        None => "combined prediction".into(),
    }
}

impl DseTechnique for ExplainableDse {
    fn name(&self) -> String {
        "explainable".into()
    }

    fn propose(&mut self, problem: &Problem) -> Option<Vec<DesignPoint>> {
        loop {
            if self.termination.is_some() {
                return None;
            }
            if self.phase_state.is_none() {
                let start = self
                    .phase_start
                    .get_or_insert_with(|| problem.space.minimum_point());
                return Some(vec![start.clone()]);
            }
            if self.attempt.is_none() {
                if let Some(termination) = self.begin_attempt(problem) {
                    self.end_phase(problem, termination);
                    continue;
                }
            }
            // Every successful candidate adds one to the budget count, so
            // a chunk the size of the remaining budget always fits, and
            // the boundary where the budget runs out is the one a check
            // before every single evaluation would find.
            let attempt = self.attempt.as_ref().expect("an attempt in flight");
            let remaining = problem.budget.saturating_sub(self.evaluated);
            let end = attempt.acquisitions.len().min(attempt.next + remaining);
            let chunk = &attempt.acquisitions[attempt.next..end];
            return Some(chunk.iter().map(|(_, cand)| cand.clone()).collect());
        }
    }

    fn observe(&mut self, problem: &Problem, _: &[Sample], results: Vec<EvalResult>) {
        let Some(mut attempt) = self.attempt.take() else {
            let start = results.into_iter().next().expect("a phase start's result");
            return self.start_phase(problem, start);
        };
        self.observe_candidates(problem, &mut attempt, results);
        if attempt.next < attempt.acquisitions.len() && self.evaluated < problem.budget {
            self.attempt = Some(attempt);
        } else if let Some(termination) = self.finish_attempt(problem, attempt) {
            self.end_phase(problem, termination);
        }
    }

    /// Keeps the collector: the search then emits one structured
    /// [`IterationRecord`] per acquisition attempt — incumbent objective,
    /// dominant bottleneck factor and its required scaling, per-layer cost
    /// contributions, the proposed/deduplicated/evaluated candidate counts,
    /// remaining budget, and the §4.6 update decision — plus one
    /// [`ProvenanceRecord`] per candidate.
    fn attach_telemetry(&mut self, telemetry: &Collector) -> bool {
        self.telemetry = telemetry.clone();
        true
    }

    fn step_span(&self) -> String {
        if self.phase_state.is_none() {
            "dse/phase_start"
        } else {
            "dse/attempt"
        }
        .to_string()
    }

    fn explanation(&self) -> Option<Explanation> {
        Some(Explanation {
            attempts: self.attempts.clone(),
            converged_after: self.converged_after.clone(),
            termination: self.termination.clone(),
        })
    }
}

/// Steps (1)-(2): bottleneck analysis per execution-critical
/// sub-function, then aggregation to `(param, min predicted value)`.
/// `ctx` builds a sub-function's bottleneck-model context, or `None` when
/// it cannot be analyzed (no profile).
pub(crate) fn analyze_subfunctions<C>(
    model: &BottleneckModel<C>,
    config: &DseConfig,
    eval: &Evaluation,
    factors: usize,
    ctx: impl Fn(&LayerEval) -> Option<C>,
) -> SubfunctionAnalysis {
    let total: f64 = eval
        .layers
        .iter()
        .map(|l| l.latency_ms)
        .filter(|v| v.is_finite())
        .sum();
    let l = eval.layers.len().max(1);
    let threshold = THRESHOLD_SCALE / l as f64;

    // Rank sub-functions by cost contribution. Layers without a
    // feasible mapping gate feasibility outright, so they are always
    // analyzed first regardless of their (diagnostic) cost share.
    let mut ranked: Vec<(usize, f64, bool)> = eval
        .layers
        .iter()
        .enumerate()
        .map(|(i, layer)| {
            let contribution = if layer.latency_ms.is_finite() && total > 0.0 {
                layer.latency_ms / total
            } else {
                1.0
            };
            (i, contribution, layer.mappable())
        })
        .collect();
    ranked.sort_by(|a, b| a.2.cmp(&b.2).then(b.1.partial_cmp(&a.1).unwrap()));

    let mut merged: Vec<(ParamId, Option<f64>)> = Vec::new();
    let mut analyses = Vec::new();
    let mut summary = AnalysisSummary::default();
    for (layer_idx, contribution, mappable) in ranked.into_iter().take(config.top_k) {
        if mappable && contribution < threshold {
            break;
        }
        let Some(ctx) = ctx(&eval.layers[layer_idx]) else {
            continue;
        };
        let analysis = model.analyze(&ctx, factors);
        // The first analyzed sub-function has the highest contribution:
        // its factor is the attempt's dominant bottleneck.
        if summary.bottleneck.is_none() {
            summary.bottleneck = Some(analysis.bottleneck.clone());
            summary.scaling = Some(analysis.scaling);
        }
        summary
            .layer_contributions
            .push((eval.layers[layer_idx].name.to_string(), contribution));
        analyses.push(format!(
            "{} ({:.1}% of cost): bottleneck {} needs {:.2}x; {}",
            eval.layers[layer_idx].name,
            contribution * 100.0,
            analysis.bottleneck,
            analysis.scaling,
            analysis
                .predictions
                .iter()
                .map(|p| p.rationale.clone())
                .collect::<Vec<_>>()
                .join("; ")
        ));
        for p in analysis.predictions {
            match merged.iter_mut().find(|(id, _)| *id == p.param) {
                Some((_, existing)) => {
                    // §4.4(i): aggregate across sub-function
                    // predictions (minimum by default, avoiding
                    // over-aggressive scaling).
                    *existing = match (*existing, p.value) {
                        (Some(a), Some(b)) => Some(match config.aggregation {
                            Aggregation::Min => a.min(b),
                            Aggregation::Max => a.max(b),
                        }),
                        (Some(a), None) | (None, Some(a)) => Some(a),
                        (None, None) => None,
                    };
                }
                None => merged.push((p.param, p.value)),
            }
        }
    }
    (merged, analyses, summary)
}

#[cfg(test)]
mod update_rule_tests {
    use super::*;
    use crate::cost::Constraint;

    fn dse() -> ExplainableDse {
        ExplainableDse::new(crate::bottleneck::dnn_latency_model(), DseConfig::default())
    }

    fn eval(objective: f64, area: f64, mappable: bool) -> Evaluation {
        Evaluation {
            objective,
            mappable,
            constraint_values: vec![area, objective],
            layers: vec![],
            area_mm2: area,
            power_w: 0.0,
            energy_mj: 0.0,
        }
    }

    fn constraints() -> Vec<Constraint> {
        vec![
            Constraint::new("area", 10.0),
            Constraint::new("latency", 100.0),
        ]
    }

    fn point(x: usize) -> DesignPoint {
        DesignPoint::new(vec![x])
    }

    #[test]
    fn scenario2_picks_lowest_objective_times_budget() {
        let d = dse();
        let cs = constraints();
        let mut current = point(0);
        let mut current_eval = eval(90.0, 5.0, true);
        // Candidate A: lower objective but near the area budget;
        // candidate B: slightly higher objective, ample margin.
        let a = (point(1), eval(50.0, 9.9, true), Some(0usize));
        let b = (point(2), eval(55.0, 1.0, true), Some(1usize));
        let mut frozen = HashSet::new();
        let mut stalls = 0;
        let scored_a = 50.0 * ((9.9 / 10.0 + 0.5) / 2.0);
        let scored_b = 55.0 * ((1.0 / 10.0 + 0.55) / 2.0);
        assert!(
            scored_b < scored_a,
            "test setup: B must win on obj x budget"
        );
        let decision = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[a, b],
            &mut frozen,
            &mut stalls,
        );
        assert_eq!(current, point(2), "{decision}");
        assert_eq!(stalls, 0);
    }

    #[test]
    fn scenario2_without_budget_awareness_picks_lowest_objective() {
        let config = DseConfig {
            budget_aware: false,
            ..DseConfig::default()
        };
        let d = ExplainableDse::new(crate::bottleneck::dnn_latency_model(), config);
        let cs = constraints();
        let mut current = point(0);
        let mut current_eval = eval(90.0, 5.0, true);
        let a = (point(1), eval(50.0, 9.9, true), Some(0usize));
        let b = (point(2), eval(55.0, 1.0, true), Some(1usize));
        let _ = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[a, b],
            &mut frozen_set(),
            &mut 0,
        );
        assert_eq!(current, point(1), "plain objective picks A");
    }

    fn frozen_set() -> HashSet<ParamId> {
        HashSet::new()
    }

    #[test]
    fn feasible_incumbent_rejects_worse_candidates() {
        let d = dse();
        let cs = constraints();
        let mut current = point(0);
        let mut current_eval = eval(10.0, 1.0, true);
        let worse = (point(1), eval(50.0, 5.0, true), Some(0usize));
        let mut stalls = 0;
        let _ = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[worse],
            &mut frozen_set(),
            &mut stalls,
        );
        assert_eq!(current, point(0), "incumbent must not regress");
        assert_eq!(stalls, 1);
    }

    #[test]
    fn scenario1_moves_toward_reduced_violation() {
        let d = dse();
        let cs = constraints();
        // Incumbent violates latency (150 > 100).
        let mut current = point(0);
        let mut current_eval = eval(150.0, 2.0, true);
        // Candidate halves the latency violation but is still infeasible.
        let closer = (point(1), eval(120.0, 3.0, true), Some(0usize));
        let mut stalls = 0;
        let _ = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[closer],
            &mut frozen_set(),
            &mut stalls,
        );
        assert_eq!(current, point(1));
        assert_eq!(stalls, 0);
    }

    #[test]
    fn scenario1_ignores_satisfied_constraint_shedding() {
        let d = dse();
        let cs = constraints();
        let mut current = point(0);
        let mut current_eval = eval(150.0, 2.0, true);
        // Candidate reduces area (already satisfied) while latency worsens:
        // the violated-first rule must reject it.
        let shed = (point(1), eval(151.0, 0.5, true), Some(0usize));
        let mut stalls = 0;
        let _ = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[shed],
            &mut frozen_set(),
            &mut stalls,
        );
        assert_eq!(
            current,
            point(0),
            "shedding satisfied constraints is not progress"
        );
        assert_eq!(stalls, 1);
    }

    #[test]
    fn mappable_candidate_beats_unmappable_incumbent() {
        let d = dse();
        let cs = constraints();
        let mut current = point(0);
        // Unmappable incumbent with a *better* surrogate objective.
        let mut current_eval = eval(50.0, 2.0, false);
        let mappable = (point(1), eval(120.0, 2.0, true), Some(0usize));
        let mut stalls = 0;
        let decision = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[mappable],
            &mut frozen_set(),
            &mut stalls,
        );
        assert_eq!(current, point(1), "{decision}");
        assert!(decision.contains("mappable"));
    }

    #[test]
    fn infeasible_candidates_freeze_their_parameters() {
        let d = dse();
        let cs = constraints();
        let mut current = point(0);
        let mut current_eval = eval(10.0, 1.0, true); // feasible incumbent
                                                      // Candidate on param 3 violates area.
        let violator = (point(1), eval(9.0, 20.0, true), Some(3usize));
        let mut frozen = frozen_set();
        let mut stalls = 0;
        let _ = d.update_solution(
            &cs,
            &mut current,
            &mut current_eval,
            &[violator],
            &mut frozen,
            &mut stalls,
        );
        assert!(frozen.contains(&3), "param 3 must be frozen");
        assert_eq!(current, point(0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bottleneck::dnn::dnn_latency_model;
    use crate::evaluate::{CodesignEvaluator, Evaluator};
    use crate::session::SearchSession;
    use crate::space::edge_space;
    use mapper::FixedMapper;
    use workloads::zoo;

    fn run_small() -> DseResult {
        let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper);
        let initial = evaluator.space().minimum_point();
        SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: 120,
                ..DseConfig::default()
            },
        )
        .evaluator(&evaluator)
        .run(initial)
    }

    #[test]
    fn dse_terminates_within_budget() {
        let r = run_small();
        assert!(r.trace.evaluations() <= 120);
        assert!(!r.termination.is_empty());
    }

    #[test]
    fn dse_finds_a_feasible_solution_quickly() {
        let r = run_small();
        let (_, best) = r.best.as_ref().expect("a feasible codesign exists");
        assert!(best.objective.is_finite());
        // The paper converges in some tens of evaluations: the *first*
        // exploration phase must end well before the budget (later restart
        // phases may use the remainder, §C).
        let first_phase = *r.converged_after().first().expect("at least one phase");
        assert!(first_phase < 120, "first phase took {first_phase}");
    }

    #[test]
    fn dse_improves_over_initial_point() {
        let r = run_small();
        let first_feasible = r
            .trace
            .samples
            .iter()
            .find(|s| s.feasible)
            .map(|s| s.objective);
        let best = r.best.as_ref().map(|(_, e)| e.objective);
        if let (Some(first), Some(best)) = (first_feasible, best) {
            assert!(best <= first, "best {best} vs first feasible {first}");
        }
    }

    #[test]
    fn attempts_carry_explanations() {
        let r = run_small();
        assert!(!r.attempts().is_empty());
        let explained = r.attempts().iter().any(|a| !a.analyses().is_empty());
        assert!(explained, "attempts should carry bottleneck explanations");
        for a in r.attempts() {
            assert!(!a.decision().is_empty());
        }
    }

    #[test]
    fn warm_disk_cached_search_matches_the_cold_run() {
        use crate::{DiskCache, Evaluator};
        use std::sync::Arc;
        let dir = std::env::temp_dir().join(format!(
            "edse-dse-diskcache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let config = DseConfig {
            budget: 60,
            ..DseConfig::default()
        };
        let cold = {
            let disk = Arc::new(DiskCache::open(&dir).unwrap());
            let evaluator =
                CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
                    .with_disk_cache(disk);
            let initial = evaluator.space().minimum_point();
            SearchSession::new(dnn_latency_model(), config.clone())
                .evaluator(&evaluator)
                .run(initial)
        };
        // A fresh session sharing only the cache directory must reproduce
        // the search bit-for-bit without a single mapping search.
        let disk = Arc::new(DiskCache::open(&dir).unwrap());
        let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
            .with_disk_cache(disk);
        let initial = evaluator.space().minimum_point();
        let warm = SearchSession::new(dnn_latency_model(), config)
            .evaluator(&evaluator)
            .run(initial);
        assert_eq!(cold.trace.samples, warm.trace.samples);
        assert_eq!(cold.attempts(), warm.attempts());
        assert_eq!(cold.best, warm.best);
        assert_eq!(cold.converged_after(), warm.converged_after());
        assert_eq!(cold.termination, warm.termination);
        let disk_stats = evaluator.cache_stats().disk.unwrap();
        assert_eq!(disk_stats.misses, 0, "every mapping answered from disk");
        assert!(disk_stats.hits > 0);
        drop(evaluator);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dse_emits_one_iteration_record_per_attempt() {
        use edse_telemetry::{Event, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
            .with_telemetry(collector.clone());
        let r = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: 60,
                ..DseConfig::default()
            },
        )
        .evaluator(&evaluator)
        .telemetry(collector.clone())
        .run(evaluator.space().minimum_point());

        let events = sink.events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::SpanEnter { name, .. } if name == "dse/run")),
            "run must open a dse/run span"
        );
        let records: Vec<_> = events
            .into_iter()
            .filter_map(|e| match e {
                Event::Iteration { record, .. } => Some(record),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), r.attempts().len());
        assert!(
            records.iter().any(|rec| rec.bottleneck.is_some()),
            "the explainable DSE must name dominant bottlenecks"
        );
        for rec in &records {
            assert_eq!(rec.technique, "explainable");
            // proposed = deduplicated + acquired, and at most the acquired
            // candidates get evaluated (budget chunking may stop earlier).
            assert!(rec.evaluated <= rec.proposed - rec.deduped);
            assert!(rec.budget_remaining <= 60);
            assert!(!rec.decision.is_empty());
        }
        // Records and attempts tell the same story, in the same order.
        for (rec, attempt) in records.iter().zip(r.attempts()) {
            assert_eq!(rec.iteration as usize, attempt.index());
            assert_eq!(rec.decision, attempt.decision());
        }
    }

    #[test]
    fn provenance_ledger_reconstructs_the_best_design_chain() {
        use edse_telemetry::{trace, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let evaluator = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
            .with_telemetry(collector.clone());
        let r = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: 60,
                ..DseConfig::default()
            },
        )
        .evaluator(&evaluator)
        .telemetry(collector.clone())
        .run(evaluator.space().minimum_point());

        let events = sink.events();
        let records = trace::provenance_records(&events);
        // Every trace sample left exactly one "evaluated" ledger entry.
        let evaluated = records.iter().filter(|p| p.outcome == "evaluated").count();
        assert_eq!(evaluated, r.trace.samples.len());
        // The chain of the best design runs from the parentless initial
        // point to the final incumbent, with each hop's parent recorded
        // as an earlier evaluated point.
        let best_point = r.best.as_ref().expect("feasible best").0.indices().to_vec();
        let chain = trace::why_chain(&records, None).expect("chain for best");
        assert_eq!(chain.first().unwrap().parent, None);
        assert_eq!(chain.last().unwrap().point, best_point);
        assert!(chain.last().unwrap().new_best);
        for hop in &chain[1..] {
            assert!(hop.parent.is_some());
            assert!(
                hop.bottleneck.is_some() || hop.action.contains("perturbation"),
                "non-root hops are bottleneck-driven or restarts: {hop:?}"
            );
        }
        // Acquisition attempts record the incumbent they analyzed.
        for p in &records {
            if p.outcome == "deduped" || p.outcome == "skipped" {
                assert!(p.objective.is_infinite());
                assert!(!p.accepted && !p.new_best);
            }
        }
    }

    #[test]
    fn trace_objective_mostly_decreases() {
        // Table 3: the explainable DSE reduces the objective at almost
        // every acquisition; the geomean reduction must be > 1.
        let r = run_small();
        if let Some(g) = r.trace.geomean_reduction() {
            assert!(g > 1.0, "geomean reduction {g}");
        }
    }
}
