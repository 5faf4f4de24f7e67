//! A resume equals a straight run of the resuming spec. A snapshot stores
//! only layer outcomes tagged with their mapper, not points or
//! evaluations, so an evaluator with other models or another mapper
//! derives its own evaluations instead of replaying the writer's.

use edse_core::bottleneck::dnn_latency_model;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::edge_space;
use edse_core::{DseConfig, DseResult, JobSpec, SearchSession};
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use std::path::{Path, PathBuf};
use workloads::{zoo, DnnModel};

/// Runs the explainable search (budget 12, seed 7) under `spec`; returns
/// the result and the evaluator's layer-cache misses (its mapper calls).
fn run<M: MappingOptimizer>(models: Vec<DnnModel>, mapper: M, spec: &JobSpec) -> (DseResult, u64) {
    let ev = CodesignEvaluator::new(edge_space(), models, mapper);
    let config = DseConfig {
        budget: 12,
        seed: 7,
        ..DseConfig::default()
    };
    let result = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&ev)
        .spec(spec)
        .run(ev.space().minimum_point());
    (result, ev.cache_stats().layer.misses)
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "edse-resume-test-{}-{tag}.json",
        std::process::id()
    ))
}

/// A resume spec over a private copy of `snapshot` (a resumed run writes
/// its own snapshot over the file it resumed from).
fn resume_from(snapshot: &Path, tag: &str) -> JobSpec {
    let path = temp_path(tag);
    std::fs::copy(snapshot, &path).unwrap();
    JobSpec {
        checkpoint: Some(path),
        resume: true,
        ..JobSpec::default()
    }
}

#[test]
fn a_resume_equals_a_straight_run_of_the_resuming_spec() {
    let snapshot = temp_path("written");
    let (written, _) = run(
        vec![zoo::resnet18()],
        FixedMapper,
        &JobSpec {
            checkpoint: Some(snapshot.clone()),
            ..JobSpec::default()
        },
    );
    assert!(snapshot.exists(), "the run leaves a snapshot");
    let straight = JobSpec::default();

    // (a) Other models: the writer's layer outcomes are the fixed mapper's
    // too, but they hold none of MobileNetV2's layers.
    let spec = resume_from(&snapshot, "models");
    let (resumed, _) = run(vec![zoo::mobilenet_v2()], FixedMapper, &spec);
    let (own, _) = run(vec![zoo::mobilenet_v2()], FixedMapper, &straight);
    assert_eq!(resumed.trace().samples, own.trace().samples);
    assert_ne!(own.trace().samples, written.trace().samples);
    std::fs::remove_file(spec.checkpoint.unwrap()).unwrap();

    // (b) Another mapper: none of the writer's layer outcomes are its own.
    let spec = resume_from(&snapshot, "mapper");
    let (resumed, _) = run(vec![zoo::resnet18()], LinearMapper::new(50), &spec);
    let (own, _) = run(vec![zoo::resnet18()], LinearMapper::new(50), &straight);
    assert_eq!(resumed.trace().samples, own.trace().samples);
    assert_ne!(own.trace().samples, written.trace().samples);
    std::fs::remove_file(spec.checkpoint.unwrap()).unwrap();

    // (c) The unchanged spec assembles every evaluation from the restored
    // layer outcomes and maps nothing.
    let spec = resume_from(&snapshot, "same");
    let (resumed, misses) = run(vec![zoo::resnet18()], FixedMapper, &spec);
    assert_eq!(resumed.trace().samples, written.trace().samples);
    assert_eq!(resumed.attempts(), written.attempts());
    assert_eq!(resumed.best(), written.best());
    assert_eq!(misses, 0);
    std::fs::remove_file(spec.checkpoint.unwrap()).unwrap();
    std::fs::remove_file(&snapshot).unwrap();
}
