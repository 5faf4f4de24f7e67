//! Memory as a count, not a time: a counting global allocator pins the
//! bytes the layer cache keeps per entry and the allocations it takes to
//! assemble one point from a warm layer cache. Both are exact at
//! `EvalEngine::serial()`, so they gate on any host, at any speed.
//!
//! The fixture: ResNet-18, MobileNetV2 and BERT-base (45 distinct layer
//! shapes) under the fixed mapper, eight points on eight configurations,
//! so 360 layer-cache entries. Measured on x86-64 Linux:
//!
//! | | keyed `(shape, config)` cache, copied outcomes | config-major rows, shared outcomes |
//! |---|---|---|
//! | live bytes per layer entry | 1,383 | 746 |
//! | allocations per assembled point | 255.125 | 9.125 |
//!
//! The keyed cache held a 200-byte key beside each 1,040-byte outcome,
//! and assembly rebuilt every model's unique shapes and cloned two
//! strings per layer. A row holds one 40-byte slot per entry pointing at
//! a shared 648-byte `Arc<LayerOutcome>` allocation, and assembly clones
//! reference counts.

use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator, Objective};
use edse_core::space::{edge, edge_space, DesignPoint};
use mapper::FixedMapper;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use workloads::zoo;

/// Forwards to the system allocator, counting live bytes and calls.
struct Counting;

static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

#[test]
fn layer_entries_and_point_assembly_stay_small() {
    let build = || {
        CodesignEvaluator::new(
            edge_space(),
            vec![zoo::resnet18(), zoo::mobilenet_v2(), zoo::bert_base()],
            FixedMapper,
        )
        .with_engine(EvalEngine::serial())
    };
    let space = edge_space();
    let points: Vec<DesignPoint> = (0..8)
        .map(|i| {
            space
                .minimum_point()
                .with_index(edge::PES, i % 4)
                .with_index(edge::phys_links(1), 31 * (i / 4))
        })
        .collect();
    // Warm whatever the process allocates once, outside any evaluator.
    build().evaluate_batch(&points[..1]);

    let ev = build();
    let live_before = LIVE_BYTES.load(Ordering::Relaxed);
    drop(ev.evaluate_batch(&points));
    // Clearing the point cache leaves the layer cache (and the shape
    // table it is indexed by) as all the evaluator gained.
    let ev = ev.with_objective(Objective::Energy);
    let layer = ev.cache_stats().layer;
    assert_eq!(layer.entries, 8 * 45);
    assert_eq!(ev.unique_evaluations(), 0);
    let per_entry = (LIVE_BYTES.load(Ordering::Relaxed) - live_before) / layer.entries as i64;

    // Assembly from the warm layer cache: no mapping, one new point each.
    let calls_before = ALLOCATIONS.load(Ordering::Relaxed);
    let evals = ev.evaluate_batch(&points);
    let calls = ALLOCATIONS.load(Ordering::Relaxed) - calls_before;
    assert_eq!(ev.cache_stats().layer.misses, layer.misses);
    assert_eq!(evals.len(), points.len());
    let per_point = calls as f64 / points.len() as f64;

    println!("live bytes per layer entry: {per_entry}; allocations per point: {per_point}");
    assert!(
        per_entry <= 900,
        "{per_entry} live bytes per layer-cache entry"
    );
    assert!(
        per_point <= 16.0,
        "{per_point} allocations per assembled point"
    );
}
