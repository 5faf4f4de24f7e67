//! Bounded-time stress oracle for the shared executor: several tenant
//! threads each run the full threads × chunk × technique conformance
//! matrix *concurrently* against the one process-wide pool, and every
//! tenant must still observe bit-identical results.
//!
//! This is the multi-tenant version of `intra_layer.rs`: there the matrix
//! runs alone, here the pool is contended, scopes interleave at chunk
//! granularity, and workers steal across tenants — none of which may leak
//! into a single sample. `#[ignore]`d by default because it is a stress
//! test, not a unit test; `scripts/check.sh` runs it explicitly under
//! `EDSE_TEST_THREADS=2` with a timeout so CI keeps it bounded.

use baselines::BaselineSession;
use conformance::scenarios::toy_technique;
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use mapper::{LinearMapper, SweepConf};

const BUDGET: usize = 16;
const SEED: u64 = 7;
const TENANTS: usize = 3;

fn toy_evaluator(engine: EvalEngine, chunk: usize) -> CodesignEvaluator<LinearMapper> {
    let mapper = LinearMapper::new(8).with_sweep(SweepConf::serial().chunked(chunk));
    CodesignEvaluator::new(
        edse_core::toy::toy_space(),
        vec![edse_core::toy::single_layer_model()],
        mapper,
    )
    .with_engine(engine)
}

/// One tenant's pass over the matrix: every baseline technique × engine
/// budget × chunk size, digested into `(label, samples)` pairs.
fn matrix_digest(tenant: usize) -> Vec<(String, String)> {
    let engines = [
        EvalEngine::serial(),
        EvalEngine::with_threads(2),
        EvalEngine::default(),
    ];
    // Rotate the traversal order per tenant so tenants contend on
    // *different* cells at any instant — maximally unaligned scopes.
    let mut digests = Vec::new();
    let kinds = bench::TechniqueKind::ALL;
    for step in 0..kinds.len() {
        let kind = kinds[(step + tenant) % kinds.len()];
        if kind == bench::TechniqueKind::Explainable {
            continue;
        }
        for engine in engines {
            for chunk in [1usize, 3] {
                let ev = toy_evaluator(engine, chunk);
                let mut tech = toy_technique(kind, SEED);
                let outcome = BaselineSession::new(tech.as_mut()).run(&ev, BUDGET);
                digests.push((
                    format!("{kind:?}/{engine:?}/chunk{chunk}"),
                    format!("{:?}|{}", outcome.samples, ev.unique_evaluations()),
                ));
            }
        }
    }
    digests.sort();
    digests
}

#[test]
#[ignore = "stress test; run explicitly (scripts/check.sh does, under EDSE_TEST_THREADS=2)"]
fn concurrent_tenants_see_bit_identical_matrices() {
    // Uncontended reference, computed before any tenant starts.
    let reference = matrix_digest(0);
    let spawned_before = edse_executor::Executor::global().counters().workers_spawned;
    let tenants: Vec<_> = (0..TENANTS)
        .map(|t| std::thread::spawn(move || matrix_digest(t)))
        .collect();
    for (t, handle) in tenants.into_iter().enumerate() {
        let digests = handle.join().expect("tenant thread panicked");
        assert_eq!(
            digests.len(),
            reference.len(),
            "tenant {t} matrix size diverged"
        );
        for ((label, digest), (ref_label, ref_digest)) in digests.iter().zip(&reference) {
            assert_eq!(label, ref_label, "tenant {t} matrix cells misaligned");
            assert_eq!(
                digest, ref_digest,
                "tenant {t} diverged under contention at {label}"
            );
        }
    }
    // The reference pass warmed the pool; the contended passes must not
    // have spawned a single thread beyond it.
    let spawned_after = edse_executor::Executor::global().counters().workers_spawned;
    assert_eq!(
        spawned_after, spawned_before,
        "contended tenants forced the pool to spawn threads"
    );
}
