//! [`HostedSearch`]: one hosted search, as the scheduler steps it.
//!
//! Every technique — the explainable DSE and the black-box baselines,
//! all built by the [`baselines::by_name`] registry — runs through the one
//! [`SearchDriver`], which honors the [`CancelToken`]/[`StepOutcome`]
//! protocol: one `step` is at most one evaluation batch, which is the
//! service's cancellation and fairness granularity.

use edse_core::evaluate::{CacheStats, CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::space::{datacenter_space, edge_space, DesignSpace};
use edse_core::toy::{single_layer_model, toy_space};
use edse_core::{CancelToken, DiskCache, DseResult, JobSpec, SearchDriver, StepOutcome};
use edse_telemetry::json::Json;
use edse_telemetry::Collector;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
use std::sync::Arc;
use workloads::model::DnnModel;
use workloads::zoo;

/// The evaluator every hosted job runs against: the shared codesign
/// evaluator over a boxed mapper (the mapper kind is chosen per job).
pub type JobEvaluator = CodesignEvaluator<Box<dyn MappingOptimizer>>;

/// One hosted search: the driver over the job's own evaluator. `Send`, so
/// the scheduler can lease a parked search to whichever worker thread is
/// free.
pub struct HostedSearch {
    driver: SearchDriver<'static, JobEvaluator>,
}

impl HostedSearch {
    /// Advances by at most one evaluation batch.
    pub fn step(&mut self) -> StepOutcome {
        self.driver.step()
    }

    /// Samples recorded so far.
    pub fn evaluations(&self) -> usize {
        self.driver.evaluations()
    }

    /// Objective of the incumbent (best feasible design) so far.
    pub fn best_objective(&self) -> Option<f64> {
        self.driver.best_objective()
    }

    /// Cache-tier statistics of the job's evaluator (includes the
    /// disk-degradation error, if any).
    pub fn cache_stats(&self) -> CacheStats {
        self.driver.evaluator().cache_stats()
    }

    /// Consumes the search and renders its result summary.
    pub fn finish(self) -> Json {
        summary(&self.driver.finish())
    }
}

/// The served result summary: technique, evaluations, best objective and
/// termination, plus the attempt count and phase ends of a technique that
/// explains itself.
fn summary(result: &DseResult) -> Json {
    let mut fields = vec![
        ("technique", Json::Str(result.trace().technique.clone())),
        ("evaluations", Json::Num(result.iterations() as f64)),
        (
            "best_objective",
            result.best_objective().map(Json::Num).unwrap_or(Json::Null),
        ),
    ];
    if let Some(explanation) = result.explanation() {
        fields.push(("attempts", Json::Num(explanation.attempts.len() as f64)));
        fields.push((
            "converged_after",
            Json::Arr(
                explanation
                    .converged_after
                    .iter()
                    .map(|&n| Json::Num(n as f64))
                    .collect(),
            ),
        ));
    }
    fields.push(("termination", Json::Str(result.termination().to_string())));
    Json::obj(fields)
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

/// Turns a [`JobSpec`] into a running-ready [`HostedSearch`]. Validation
/// errors (a zero budget, an unknown technique, space, mapper or model)
/// come back as `Err` and map to HTTP 400 — nothing is evaluated until
/// the spec is sound.
pub fn build_driver(
    spec: &JobSpec,
    engine: EvalEngine,
    disk: Option<Arc<DiskCache>>,
    disk_error: Option<String>,
    telemetry: Collector,
    cancel: CancelToken,
) -> Result<HostedSearch, String> {
    if spec.budget == 0 {
        return Err("budget must be at least 1".to_string());
    }
    let technique = baselines::by_name(&spec.technique, spec.seed).ok_or_else(|| {
        format!(
            "unknown technique {:?} (expected \"explainable\", \"grid\", \"random\", \
             \"annealing\", \"genetic\", \"bayesian\", \"hypermapper\", or \"rl\")",
            spec.technique
        )
    })?;
    let evaluator = build_evaluator(spec, engine, disk, disk_error, telemetry.clone())?;
    let driver = SearchDriver::new(technique, evaluator, spec.budget)
        .telemetry(telemetry)
        .with_cancel_token(cancel);
    Ok(HostedSearch { driver })
}
