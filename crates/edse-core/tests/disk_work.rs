//! The disk tier's footprint as a count, not a time: a serial
//! fixed-mapper ResNet-18 search at budget 20 over a fresh cache
//! directory leaves an exact number of records and segment bytes. Both
//! are deterministic, so they gate on any host, at any speed, and a change
//! to the record format shows here as a changed byte count.
//!
//! | format | records | segment bytes |
//! |---|---|---|
//! | version 1 (JSON key and value) | 180 | 281,041 |
//! | version 2 (fixed-layout bytes) | 180 | 137,824 |

use edse_core::bottleneck::dnn_latency_model;
use edse_core::dse::DseConfig;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::space::edge_space;
use edse_core::{DiskCache, SearchSession};
use mapper::FixedMapper;
use std::sync::Arc;
use workloads::zoo;

#[test]
fn a_budget_20_search_leaves_exact_records_and_bytes() {
    let dir = std::env::temp_dir().join(format!("edse-disk-work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
        .with_engine(EvalEngine::serial())
        .with_disk_cache(Arc::new(DiskCache::open(&dir).expect("open cache dir")));
    let result = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget: 20,
            seed: 0,
            ..DseConfig::default()
        },
    )
    .evaluator(&ev)
    .run(ev.space().minimum_point());
    assert_eq!(result.trace().samples.len(), 20);

    let disk = ev.cache_stats().disk.expect("disk tier attached");
    assert_eq!((disk.appends, disk.entries), (180, 180));
    assert_eq!((disk.hits, disk.misses, disk.write_failures), (0, 180, 0));
    let segments: Vec<u64> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|entry| entry.expect("dir entry").metadata().expect("stat").len())
        .collect();
    assert_eq!(segments, [137_824], "one segment of this many bytes");
    drop(ev);
    std::fs::remove_dir_all(&dir).expect("remove cache dir");
}
