//! [`JobDriver`]: the uniform stepwise interface the scheduler drives.
//!
//! The service hosts two kinds of search — the explainable DSE
//! ([`edse_core::SearchDriver`]) and the black-box baselines
//! ([`baselines::BaselineDriver`]) — behind one object-safe trait, so the
//! worker pool interleaves them without caring which is which. Both
//! honor the same [`CancelToken`]/[`StepOutcome`] protocol: one `step` is
//! at most one evaluation batch, which is the service's cancellation and
//! fairness granularity.

use baselines::BaselineDriver;
use bench::toy::{single_layer_model, toy_space};
use edse_core::bottleneck::dnn::LayerCtx;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CacheStats, CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::session::DnnCtxFn;
use edse_core::space::{datacenter_space, edge_space, DesignSpace};
use edse_core::{CancelToken, DiskCache, JobSpec, SearchDriver, SearchSession, StepOutcome};
use edse_telemetry::json::Json;
use edse_telemetry::Collector;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
use std::sync::Arc;
use workloads::model::DnnModel;
use workloads::zoo;

/// The evaluator every hosted job runs against: the shared codesign
/// evaluator over a boxed mapper (the mapper kind is chosen per job).
pub type JobEvaluator = CodesignEvaluator<Box<dyn MappingOptimizer>>;

/// One hosted search behind a uniform stepwise interface. `Send` so the
/// scheduler can lease a parked driver to whichever worker thread is
/// free.
pub trait JobDriver: Send {
    /// Advances by at most one evaluation batch.
    fn step(&mut self) -> StepOutcome;

    /// Unique evaluations performed so far.
    fn evaluations(&self) -> usize;

    /// Objective of the incumbent (best feasible design) so far.
    fn best_objective(&self) -> Option<f64>;

    /// Cache-tier statistics of the job's evaluator (includes the
    /// disk-degradation error, if any).
    fn cache_stats(&self) -> CacheStats;

    /// Forces a snapshot now (no-op without a checkpoint path). Returns
    /// whether a save was attempted.
    fn snapshot(&mut self) -> bool;

    /// Consumes the driver and renders the final result summary.
    fn finish(self: Box<Self>) -> Json;
}

/// Explainable jobs: a thin [`JobDriver`] shim over [`SearchDriver`].
struct ExplainableJob {
    driver: SearchDriver<LayerCtx, JobEvaluator, DnnCtxFn<JobEvaluator>>,
}

impl JobDriver for ExplainableJob {
    fn step(&mut self) -> StepOutcome {
        self.driver.step()
    }

    fn evaluations(&self) -> usize {
        self.driver.evaluator().unique_evaluations()
    }

    fn best_objective(&self) -> Option<f64> {
        self.driver.best_objective()
    }

    fn cache_stats(&self) -> CacheStats {
        self.driver.evaluator().cache_stats()
    }

    fn snapshot(&mut self) -> bool {
        self.driver.snapshot()
    }

    fn finish(self: Box<Self>) -> Json {
        let result = self.driver.finish();
        Json::obj(vec![
            ("technique", Json::Str("explainable".to_string())),
            (
                "evaluations",
                Json::Num(result.trace().evaluations() as f64),
            ),
            (
                "best_objective",
                result.best_objective().map(Json::Num).unwrap_or(Json::Null),
            ),
            ("attempts", Json::Num(result.attempts().len() as f64)),
            (
                "converged_after",
                Json::Arr(
                    result
                        .converged_after()
                        .iter()
                        .map(|&n| Json::Num(n as f64))
                        .collect(),
                ),
            ),
            ("termination", Json::Str(result.termination().to_string())),
        ])
    }
}

/// Baseline jobs: a [`JobDriver`] shim over [`BaselineDriver`] that also
/// remembers the terminal outcome (the trace itself does not say whether
/// it was cancelled).
struct BaselineJob {
    driver: BaselineDriver<'static, JobEvaluator>,
    last: Option<StepOutcome>,
}

impl JobDriver for BaselineJob {
    fn step(&mut self) -> StepOutcome {
        let outcome = self.driver.step();
        self.last = Some(outcome);
        outcome
    }

    fn evaluations(&self) -> usize {
        self.driver.evaluations()
    }

    fn best_objective(&self) -> Option<f64> {
        self.driver.best_objective()
    }

    fn cache_stats(&self) -> CacheStats {
        self.driver.evaluator().cache_stats()
    }

    fn snapshot(&mut self) -> bool {
        self.driver.snapshot()
    }

    fn finish(self: Box<Self>) -> Json {
        let termination = match self.last {
            Some(StepOutcome::Cancelled) => "cancelled",
            _ => "budget",
        };
        let trace = self.driver.finish();
        Json::obj(vec![
            ("technique", Json::Str(trace.technique.clone())),
            ("evaluations", Json::Num(trace.evaluations() as f64)),
            (
                "best_objective",
                trace
                    .best_feasible()
                    .map(|s| Json::Num(s.objective))
                    .unwrap_or(Json::Null),
            ),
            ("termination", Json::Str(termination.to_string())),
        ])
    }
}

/// Resolves [`JobSpec::space`] (`"edge"`, `"datacenter"`, `"toy"`).
fn build_space(spec: &JobSpec) -> Result<DesignSpace, String> {
    match spec.space.as_str() {
        "edge" => Ok(edge_space()),
        "datacenter" => Ok(datacenter_space()),
        "toy" => Ok(toy_space()),
        other => Err(format!(
            "unknown space {other:?} (expected \"edge\", \"datacenter\", or \"toy\")"
        )),
    }
}

/// Resolves [`JobSpec::models`] against the zoo; defaults to the space's
/// natural workload (the Fig. 4 single-layer model on `"toy"`, ResNet-18
/// otherwise).
fn build_models(spec: &JobSpec) -> Result<Vec<DnnModel>, String> {
    if spec.models.is_empty() {
        return Ok(if spec.space == "toy" {
            vec![single_layer_model()]
        } else {
            vec![zoo::resnet18()]
        });
    }
    spec.models
        .iter()
        .map(|name| zoo::by_name(name).ok_or_else(|| format!("unknown model {name:?}")))
        .collect()
}

/// Resolves [`JobSpec::mapper`] (`"fixed"`, `"linear"`, `"random"`).
fn build_mapper(spec: &JobSpec) -> Result<Box<dyn MappingOptimizer>, String> {
    match spec.mapper.as_str() {
        "fixed" => Ok(Box::new(FixedMapper)),
        "linear" => Ok(Box::new(LinearMapper::new(spec.map_trials))),
        "random" => Ok(Box::new(RandomMapper::new(spec.map_trials, spec.seed))),
        other => Err(format!(
            "unknown mapper {other:?} (expected \"fixed\", \"linear\", or \"random\")"
        )),
    }
}

/// Builds the per-job evaluator: its own memo tables (so per-job budgets
/// count per-job work), the *shared* evaluation engine, and the *shared*
/// disk cache; a degraded disk tier is recorded so
/// [`Evaluator::cache_stats`] and the job status surface it.
fn build_evaluator(
    spec: &JobSpec,
    engine: EvalEngine,
    disk: Option<Arc<DiskCache>>,
    disk_error: Option<String>,
    telemetry: Collector,
) -> Result<JobEvaluator, String> {
    let mut evaluator =
        CodesignEvaluator::new(build_space(spec)?, build_models(spec)?, build_mapper(spec)?)
            .with_engine(engine)
            .with_telemetry(telemetry);
    if let Some(disk) = disk {
        evaluator = evaluator.with_disk_cache(disk);
    } else if let Some(error) = disk_error {
        evaluator = evaluator.with_disk_cache_error(error);
    }
    Ok(evaluator)
}

/// Turns a [`JobSpec`] into a running-ready [`JobDriver`]. Validation
/// errors (unknown technique/space/mapper/model, or a baseline resume
/// whose snapshot cannot be loaded or records another technique or
/// budget) come back as `Err` and map to HTTP 400 — nothing is evaluated
/// until the spec is sound.
pub fn build_driver(
    spec: &JobSpec,
    engine: EvalEngine,
    disk: Option<Arc<DiskCache>>,
    disk_error: Option<String>,
    telemetry: Collector,
    cancel: CancelToken,
) -> Result<Box<dyn JobDriver>, String> {
    if spec.budget == 0 {
        return Err("budget must be at least 1".to_string());
    }
    if spec.technique == "explainable" {
        let evaluator = build_evaluator(spec, engine, disk, disk_error, telemetry.clone())?;
        let initial = evaluator.space().minimum_point();
        let driver = SearchSession::new(
            dnn_latency_model(),
            DseConfig {
                budget: spec.budget,
                seed: spec.seed,
                ..DseConfig::default()
            },
        )
        .evaluator(evaluator)
        .telemetry(telemetry)
        .spec(spec)
        .cancel_token(cancel)
        .driver(initial);
        Ok(Box::new(ExplainableJob { driver }))
    } else {
        let technique = baselines::by_name(&spec.technique, spec.seed).ok_or_else(|| {
            format!(
                "unknown technique {:?} (expected \"explainable\", \"grid\", \"random\", \
                 \"annealing\", \"genetic\", \"bayesian\", \"hypermapper\", or \"rl\")",
                spec.technique
            )
        })?;
        let evaluator = build_evaluator(spec, engine, disk, disk_error, telemetry.clone())?;
        let driver = BaselineDriver::new(technique, evaluator, spec.budget)
            .telemetry(telemetry)
            .with_cancel_token(cancel)
            .spec(spec)?;
        Ok(Box::new(BaselineJob { driver, last: None }))
    }
}
