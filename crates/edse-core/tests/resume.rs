//! A resume equals a straight run of the resuming spec. A resume is a
//! rerun over the disk tier an earlier run wrote, and that tier keys each
//! layer outcome by the mapper that produced it, so an evaluator with
//! other models or another mapper derives its own evaluations instead of
//! replaying the writer's.

use edse_core::bottleneck::dnn_latency_model;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::edge_space;
use edse_core::{DiskCache, DseConfig, DseResult, SearchSession};
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use std::path::Path;
use std::sync::Arc;
use workloads::{zoo, DnnModel};

/// Runs the explainable search (budget 12, seed 7), over the disk tier in
/// `dir` when one is given; returns the result and the mapper calls it
/// made (disk misses with a disk tier, layer-cache misses without).
fn run<M: MappingOptimizer>(
    models: Vec<DnnModel>,
    mapper: M,
    dir: Option<&Path>,
) -> (DseResult, u64) {
    let mut ev = CodesignEvaluator::new(edge_space(), models, mapper);
    if let Some(dir) = dir {
        ev = ev.with_disk_cache(Arc::new(DiskCache::open(dir).unwrap()));
    }
    let config = DseConfig {
        budget: 12,
        seed: 7,
        ..DseConfig::default()
    };
    let result = SearchSession::new(dnn_latency_model(), config)
        .evaluator(&ev)
        .run(ev.space().minimum_point());
    let stats = ev.cache_stats();
    let mapped = stats.disk.map_or(stats.layer.misses, |disk| disk.misses);
    (result, mapped)
}

#[test]
fn a_resume_equals_a_straight_run_of_the_resuming_spec() {
    let dir = std::env::temp_dir().join(format!("edse-resume-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (written, _) = run(vec![zoo::resnet18()], FixedMapper, Some(&dir));

    // (a) Other models: the disk holds the fixed mapper's outcomes, but
    // none of MobileNetV2's layers.
    let (resumed, _) = run(vec![zoo::mobilenet_v2()], FixedMapper, Some(&dir));
    let (own, _) = run(vec![zoo::mobilenet_v2()], FixedMapper, None);
    assert_eq!(resumed.trace().samples, own.trace().samples);
    assert_ne!(own.trace().samples, written.trace().samples);

    // (b) Another mapper: none of the writer's layer outcomes are its own.
    let mapper = || LinearMapper::new(50);
    let (resumed, _) = run(vec![zoo::resnet18()], mapper(), Some(&dir));
    let (own, _) = run(vec![zoo::resnet18()], mapper(), None);
    assert_eq!(resumed.trace().samples, own.trace().samples);
    assert_ne!(own.trace().samples, written.trace().samples);

    // (c) The writer's own spec assembles every evaluation from the layer
    // outcomes on disk and maps nothing.
    let (resumed, mapped) = run(vec![zoo::resnet18()], FixedMapper, Some(&dir));
    assert_eq!(resumed.trace().samples, written.trace().samples);
    assert_eq!(resumed.attempts(), written.attempts());
    assert_eq!(resumed.best(), written.best());
    assert_eq!(mapped, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}
