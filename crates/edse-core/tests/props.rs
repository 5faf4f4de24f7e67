//! Property-based tests for the bottleneck trees, the design space, the
//! trace/constraint utilities, the kill-and-rerun + fault-tolerance
//! acceptance criteria (determinism under interruption, graceful
//! degradation under injected faults), and the decoders of the disk cache,
//! job specs, model descriptions and design-space documents under damaged
//! bytes.

use accel_model::AcceleratorConfig;
use edse_core::bottleneck::dnn_latency_model;
use edse_core::bottleneck::tree::{NodeKind, TreeBuilder};
use edse_core::cost::{Constraint, Evaluation, Sample, Trace};
use edse_core::diskcache::{layer_key, DISKCACHE_VERSION};
use edse_core::dse::{Attempt, DseConfig, DseResult};
use edse_core::evaluate::{CodesignEvaluator, EvalEngine, Evaluator};
use edse_core::fault::EvalFault;
use edse_core::space::{edge_space, space_from_json, DesignPoint, DesignSpace, ParamDef};
use edse_core::{DiskCache, DiskCacheStats, JobSpec, LayerOutcome, SearchSession};
use edse_telemetry::{Collector, MemorySink};
use mapper::{FaultInjector, FixedMapper, MappingOptimizer};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use workloads::{zoo, LayerShape, Tensor};

/// A random three-level tree: root max over sums of leaves.
fn arb_tree_values() -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1e6, 1..5), 1..5)
}

proptest! {
    /// Interior values follow the node semantics; the root contribution is
    /// exactly 1 and every contribution lies in [0, 1].
    #[test]
    fn contributions_bounded_and_root_total(groups in arb_tree_values()) {
        let mut b = TreeBuilder::new();
        let mut sums = Vec::new();
        for (i, leaves) in groups.iter().enumerate() {
            let ids: Vec<_> = leaves
                .iter()
                .enumerate()
                .map(|(j, v)| b.leaf(format!("l{i}_{j}"), *v))
                .collect();
            sums.push(b.sum(format!("s{i}"), ids));
        }
        let root = b.max("root", sums.clone());
        let tree = b.build(root);

        // Root = max of group sums.
        let expected: f64 = groups
            .iter()
            .map(|g| g.iter().sum::<f64>())
            .fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((tree.value(tree.root()) - expected).abs() < 1e-9);

        let contrib = tree.contributions();
        prop_assert!((contrib[tree.root()] - 1.0).abs() < 1e-12);
        for c in &contrib {
            prop_assert!((0.0..=1.0 + 1e-9).contains(c), "contribution {c}");
        }

        // Sum-node children contributions add up to the parent's when the
        // parent value is positive.
        for &sid in &sums {
            let node = tree.node(sid);
            prop_assert_eq!(node.kind, NodeKind::Sum);
            if node.value > 0.0 {
                let child_total: f64 =
                    node.children.iter().map(|&c| contrib[c]).sum();
                prop_assert!(
                    (child_total - contrib[sid]).abs() < 1e-9,
                    "sum children {child_total} != parent {}", contrib[sid]
                );
            }
        }
    }

    /// The dominant path always ends at a leaf and never leaves the tree.
    #[test]
    fn bottleneck_path_reaches_leaf(groups in arb_tree_values()) {
        let mut b = TreeBuilder::new();
        let mut sums = Vec::new();
        for (i, leaves) in groups.iter().enumerate() {
            let ids: Vec<_> = leaves
                .iter()
                .enumerate()
                .map(|(j, v)| b.leaf(format!("l{i}_{j}"), *v))
                .collect();
            sums.push(b.sum(format!("s{i}"), ids));
        }
        let root = b.max("root", sums);
        let tree = b.build(root);
        let path = tree.bottleneck_path();
        prop_assert_eq!(path[0], tree.root());
        let last = *path.last().unwrap();
        prop_assert!(tree.node(last).children.is_empty(), "path must end at a leaf");
        // Consecutive path elements are parent/child.
        for w in path.windows(2) {
            prop_assert!(tree.node(w[0]).children.contains(&w[1]));
        }
    }

    /// Required scaling is always at least the requested floor.
    #[test]
    fn required_scaling_floor(groups in arb_tree_values(), floor in 1.01f64..3.0) {
        let mut b = TreeBuilder::new();
        let ids: Vec<_> = groups
            .concat()
            .iter()
            .enumerate()
            .map(|(j, v)| b.leaf(format!("l{j}"), *v))
            .collect();
        let root = b.max("root", ids);
        let tree = b.build(root);
        prop_assert!(tree.required_scaling(floor) >= floor - 1e-12);
    }

    /// `round_up_index` returns the first domain value >= the target, or
    /// the last index when none is.
    #[test]
    fn round_up_index_correct(
        mut values in proptest::collection::vec(1.0f64..1e6, 1..30),
        target in 0.0f64..2e6,
    ) {
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        values.dedup();
        let p = ParamDef::new("x", values.clone());
        let idx = p.round_up_index(target);
        match values.iter().position(|&v| v >= target) {
            Some(expected) => prop_assert_eq!(idx, expected),
            None => prop_assert_eq!(idx, values.len() - 1),
        }
    }

    /// The convergence curve is monotonically non-increasing and reflects
    /// only feasible samples.
    #[test]
    fn convergence_curve_monotone(
        objs in proptest::collection::vec((0.1f64..1e4, any::<bool>()), 1..50),
    ) {
        let mut t = Trace::new("prop");
        for (o, feasible) in &objs {
            t.samples.push(Sample {
                point: DesignPoint::new(vec![0]),
                objective: *o,
                constraint_values: vec![],
                feasible: *feasible,
            });
        }
        let curve = t.convergence_curve();
        prop_assert_eq!(curve.len(), objs.len());
        for w in curve.windows(2) {
            prop_assert!(w[1] <= w[0]);
        }
        let best_feasible = objs
            .iter()
            .filter(|(_, f)| *f)
            .map(|(o, _)| *o)
            .fold(f64::INFINITY, f64::min);
        prop_assert_eq!(*curve.last().unwrap(), best_feasible);
    }

    /// Constraint utilization scales linearly and feasibility matches the
    /// threshold comparison.
    #[test]
    fn constraint_semantics(threshold in 0.1f64..1e6, value in 0.0f64..2e6) {
        let c = Constraint::new("x", threshold);
        prop_assert_eq!(c.satisfied(value), value <= threshold);
        prop_assert!((c.utilization(value) - value / threshold).abs() < 1e-12);
    }

    /// Geometric-mean reduction of a strictly improving sequence is > 1 and
    /// of a flat sequence is 1.
    #[test]
    fn geomean_reduction_semantics(start in 10.0f64..1e4, steps in 2usize..20) {
        let mut improving = Trace::new("imp");
        let mut flat = Trace::new("flat");
        for i in 0..steps {
            let sample = |o: f64| Sample {
                point: DesignPoint::new(vec![0]),
                objective: o,
                constraint_values: vec![],
                feasible: true,
            };
            improving.samples.push(sample(start / (i as f64 + 1.0)));
            flat.samples.push(sample(start));
        }
        prop_assert!(improving.geomean_reduction().unwrap() > 1.0);
        prop_assert!((flat.geomean_reduction().unwrap() - 1.0).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Kill-and-rerun + fault-tolerance acceptance tests
// ---------------------------------------------------------------------------

/// Installs (once per process) a panic hook that swallows the panics these
/// tests deliberately raise — the `FaultInjector`'s payloads and the
/// [`KillSwitch`]'s simulated kills — so the expected fault storms don't
/// spam stderr. Everything else still reaches the default hook.
fn silence_expected_panics() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied())
                .unwrap_or("");
            if !msg.contains("injected mapping fault") && !msg.contains("simulated kill") {
                prev(info);
            }
        }));
    });
}

/// Wraps an evaluator and panics once `kill_after` evaluation requests have
/// been spent — a SIGKILL landing at an arbitrary point in the search, as
/// seen from inside the process. All bookkeeping methods pass through.
struct KillSwitch<E> {
    inner: E,
    remaining: AtomicUsize,
}

impl<E> KillSwitch<E> {
    fn new(inner: E, kill_after: usize) -> Self {
        KillSwitch {
            inner,
            remaining: AtomicUsize::new(kill_after),
        }
    }

    fn spend(&self, n: usize) {
        let left = self.remaining.load(Ordering::Relaxed);
        if left < n {
            panic!("simulated kill");
        }
        self.remaining.store(left - n, Ordering::Relaxed);
    }
}

impl<E: Evaluator> Evaluator for KillSwitch<E> {
    fn try_evaluate(&self, point: &DesignPoint) -> Result<Evaluation, EvalFault> {
        self.spend(1);
        self.inner.try_evaluate(point)
    }

    fn try_evaluate_batch(&self, points: &[DesignPoint]) -> Vec<Result<Evaluation, EvalFault>> {
        self.spend(points.len());
        self.inner.try_evaluate_batch(points)
    }

    fn space(&self) -> &DesignSpace {
        self.inner.space()
    }

    fn constraints(&self) -> &[Constraint] {
        self.inner.constraints()
    }

    fn unique_evaluations(&self) -> usize {
        self.inner.unique_evaluations()
    }

    fn decode(&self, point: &DesignPoint) -> AcceleratorConfig {
        self.inner.decode(point)
    }

    fn cache_stats(&self) -> edse_core::evaluate::CacheStats {
        self.inner.cache_stats()
    }
}

fn fresh_evaluator(parallel: bool) -> CodesignEvaluator<FixedMapper> {
    let engine = if parallel {
        EvalEngine::with_threads(4)
    } else {
        EvalEngine::serial()
    };
    CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper).with_engine(engine)
}

/// Asserts every `DseResult` field except the wall clock is identical.
fn assert_results_identical(a: &DseResult, b: &DseResult) {
    assert_eq!(a.trace().samples, b.trace().samples);
    assert_eq!(a.attempts(), b.attempts());
    assert_eq!(a.best(), b.best());
    assert_eq!(a.converged_after(), b.converged_after());
    assert_eq!(a.termination(), b.termination());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Determinism under interruption: for a random kill point `k`, a run
    /// killed after `k` evaluation requests (possibly mid-batch, possibly
    /// never) and then run again over the disk tier it wrote produces a
    /// `DseResult` — incumbent, attempt sequence, sample trace,
    /// unique-evaluation count — bit-identical to an uninterrupted run,
    /// with the serial and the parallel `EvalEngine` alike. The rerun maps
    /// exactly what the killed run left undone: its disk hits are the
    /// records the killed run left, and its disk misses (its mapper calls)
    /// are the rest of the uninterrupted run's layer mappings.
    #[test]
    fn killed_and_resumed_search_matches_uninterrupted_run(
        kill_after in 1usize..60,
        parallel in any::<bool>(),
        seed in 0u64..3,
    ) {
        silence_expected_panics();
        let config = DseConfig { budget: 40, seed, ..DseConfig::default() };

        // Uninterrupted reference run.
        let reference_ev = fresh_evaluator(parallel);
        let initial = reference_ev.space().minimum_point();
        let reference = SearchSession::new(dnn_latency_model(), config.clone())
            .evaluator(&reference_ev)
            .run(initial.clone());

        // Killed run over a fresh disk tier: die after `kill_after`
        // evaluation requests.
        let dir = temp_cache_dir("kill");
        let on_disk = |ev: CodesignEvaluator<FixedMapper>| {
            ev.with_disk_cache(Arc::new(DiskCache::open(&dir).expect("open cache dir")))
        };
        let killed_ev = KillSwitch::new(on_disk(fresh_evaluator(parallel)), kill_after);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            SearchSession::new(dnn_latency_model(), config.clone())
                .evaluator(&killed_ev)
                .run(initial.clone())
        }));
        drop(killed_ev);

        // Rerun the same search on a fresh evaluator over the same
        // directory.
        let resumed_ev = on_disk(fresh_evaluator(parallel));
        let left = resumed_ev.cache_stats().disk.expect("disk tier").entries as u64;
        let resumed = SearchSession::new(dnn_latency_model(), config.clone())
            .evaluator(&resumed_ev)
            .run(initial);

        assert_results_identical(&resumed, &reference);
        prop_assert_eq!(
            resumed_ev.unique_evaluations(),
            reference_ev.unique_evaluations()
        );
        let disk = resumed_ev.cache_stats().disk.expect("disk tier");
        prop_assert_eq!(disk.hits, left);
        prop_assert_eq!(disk.misses, reference_ev.cache_stats().layer.misses - left);
        if let Ok(completed) = killed {
            // The kill never fired: the "killed" run finished normally and
            // must match too.
            assert_results_identical(&completed, &reference);
        }
        drop(resumed_ev);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Graceful degradation: with a 20% injected fault rate the search
    /// still completes (no panic escapes the `EvalEngine` fault boundary),
    /// failed candidates surface as `Attempt::Failed` with the panic
    /// message, and the telemetry failure counters are consistent with the
    /// attempt log.
    #[test]
    fn faulty_evaluations_degrade_gracefully(
        seed in 0u64..1000,
        parallel in any::<bool>(),
    ) {
        silence_expected_panics();
        let engine = if parallel {
            EvalEngine::with_threads(4)
        } else {
            EvalEngine::serial()
        };
        let collector = Collector::builder().sink(MemorySink::new()).build();
        let mapper = FaultInjector::new(FixedMapper, seed, 0.2);
        let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], mapper)
            .with_engine(engine)
            .with_telemetry(collector.clone());
        let initial = ev.space().minimum_point();
        let result = SearchSession::new(
            dnn_latency_model(),
            DseConfig { budget: 30, restarts: 2, seed, ..DseConfig::default() },
        )
        .evaluator(&ev)
        .telemetry(collector.clone())
        .run(initial);

        // The search completed despite the faults.
        prop_assert!(!result.termination().is_empty());
        prop_assert!(result.trace().evaluations() <= 30);

        // Every failed candidate carries the injected panic message, and
        // the telemetry counters account for at least those failures.
        let failed = result.attempts().iter().filter(|a| a.is_failed()).count();
        for a in result.attempts() {
            if let Attempt::Failed { error, .. } = a {
                prop_assert!(error.contains("injected mapping fault"), "{}", error);
            }
        }
        let point_failures = collector.counter_value("fault/point_failures");
        prop_assert!(
            failed as u64 <= point_failures,
            "{failed} failed attempts but only {point_failures} recorded point failures"
        );
        if point_failures > 0 {
            prop_assert!(
                collector.counter_value("fault/layer_failures") >= 1,
                "a failed point implies at least one failed layer mapping"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Disk-cache corruption recovery: whatever happens to the cache directory
// between runs, a warm-started search returns results bit-identical to the
// cold run — the damaged parts are just recomputed.
// ---------------------------------------------------------------------------

fn temp_cache_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("edse-props-cache-{}-{tag}-{n}", std::process::id()))
}

/// One serial search over the given cache directory; returns the result
/// and the disk tier's statistics at the end of the run.
fn disk_cached_search(dir: &std::path::Path, seed: u64) -> (DseResult, DiskCacheStats) {
    let (result, ev) = disk_cached_run(dir, 20, seed);
    let disk = ev.cache_stats().disk.expect("disk tier attached");
    (result, disk)
}

/// [`disk_cached_search`] at any budget, returning the evaluator the
/// search ran on.
fn disk_cached_run(
    dir: &std::path::Path,
    budget: usize,
    seed: u64,
) -> (DseResult, CodesignEvaluator<FixedMapper>) {
    let ev = CodesignEvaluator::new(edge_space(), vec![zoo::resnet18()], FixedMapper)
        .with_engine(EvalEngine::serial())
        .with_disk_cache(Arc::new(DiskCache::open(dir).expect("open cache dir")));
    let initial = ev.space().minimum_point();
    let result = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            seed,
            ..DseConfig::default()
        },
    )
    .evaluator(&ev)
    .run(initial);
    (result, ev)
}

/// The cache's segment files, sorted by name (creation order).
fn segment_files(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "edc"))
        .collect();
    segs.sort();
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// A torn segment tail (the crash-mid-append case): cutting an
    /// arbitrary number of bytes off the end of the last segment loses at
    /// most the torn records. The reopened cache falls back to the
    /// surviving prefix and the warm search is bit-identical to the cold
    /// one.
    #[test]
    fn torn_segment_tail_never_changes_results(
        cut in 1u64..4096,
        seed in 0u64..3,
    ) {
        let dir = temp_cache_dir("torn");
        let (cold, cold_disk) = disk_cached_search(&dir, seed);
        prop_assert!(cold_disk.appends > 0, "cold run must populate the cache");

        let last = segment_files(&dir).pop().expect("at least one segment");
        let len = std::fs::metadata(&last).unwrap().len();
        let file = std::fs::OpenOptions::new().write(true).open(&last).unwrap();
        file.set_len(len.saturating_sub(cut)).unwrap();
        drop(file);

        let (warm, warm_disk) = disk_cached_search(&dir, seed);
        assert_results_identical(&warm, &cold);
        // Whatever survived must all be readable; the torn part shows up
        // as misses that were recomputed and re-appended.
        prop_assert!(warm_disk.entries >= cold_disk.entries.saturating_sub(cold_disk.appends as usize));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A segment stamped with an unknown format version (a future writer,
    /// or header rot) is skipped whole — never misread — and the warm run
    /// recomputes its contents, bit-identically.
    #[test]
    fn unknown_segment_version_is_skipped_whole(
        // Every version but the current one: the draw skips over it.
        version in (0u32..u32::MAX)
            .prop_map(|v| if v < DISKCACHE_VERSION { v } else { v + 1 }),
        seed in 0u64..3,
    ) {
        let dir = temp_cache_dir("version");
        let (cold, _) = disk_cached_search(&dir, seed);

        // The version field sits after the 8-byte magic (see the module
        // docs in `edse_core::diskcache`).
        let seg = segment_files(&dir).pop().expect("at least one segment");
        let mut bytes = std::fs::read(&seg).unwrap();
        bytes[8..12].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&seg, &bytes).unwrap();

        let (warm, warm_disk) = disk_cached_search(&dir, seed);
        assert_results_identical(&warm, &cold);
        prop_assert!(warm_disk.skipped_segments > 0, "the alien segment must be skipped");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One way of damaging a file's bytes (a JSON document or a cache
/// segment).
/// Positions are taken modulo the length, so every mutation applies to any
/// file.
#[derive(Debug, Clone)]
enum Mutation {
    /// XOR the byte at `at` with a non-zero `mask`.
    Flip { at: usize, mask: u8 },
    /// Overwrite the `nth` ASCII digit with `digit`: the document still
    /// parses, but numbers in it change.
    Digit { nth: usize, digit: u8 },
    /// Cut the file at `at`.
    Truncate { at: usize },
    /// Copy `len` bytes starting at `from` in front of `at`.
    Splice { from: usize, len: usize, at: usize },
    /// Copy up to `len` bytes starting at `from` over the bytes at `at`.
    Overlay { from: usize, len: usize, at: usize },
    /// Overwrite up to `len` bytes from `at` on with splitmix bytes drawn
    /// from `seed`.
    Overwrite { at: usize, len: usize, seed: u64 },
    /// Insert `depth` opening brackets in front of `at`.
    Nest { at: usize, depth: usize },
    /// Overwrite the `nth` run of ASCII digits with `digits`: extents,
    /// strides and repeats grow to sizes whose products overflow.
    Digits { nth: usize, digits: String },
}

impl Mutation {
    fn apply(&self, bytes: &mut Vec<u8>) {
        let n = bytes.len();
        if n == 0 {
            return;
        }
        match *self {
            Mutation::Flip { at, mask } => bytes[at % n] ^= mask,
            Mutation::Digit { nth, digit } => {
                let digits: Vec<usize> = (0..n).filter(|&i| bytes[i].is_ascii_digit()).collect();
                if !digits.is_empty() {
                    bytes[digits[nth % digits.len()]] = b'0' + digit;
                }
            }
            Mutation::Truncate { at } => bytes.truncate(at % n),
            Mutation::Splice { from, len, at } => {
                let from = from % n;
                let piece = bytes[from..(from + len).min(n)].to_vec();
                bytes.splice(at % n..at % n, piece);
            }
            Mutation::Overlay { from, len, at } => {
                let from = from % n;
                let piece = bytes[from..(from + len).min(n)].to_vec();
                let at = at % n;
                let end = (at + piece.len()).min(n);
                bytes[at..end].copy_from_slice(&piece[..end - at]);
            }
            Mutation::Overwrite { at, len, seed } => {
                let at = at % n;
                let end = (at + len).min(n);
                bytes[at..end].copy_from_slice(&splitmix_bytes(seed, end - at));
            }
            Mutation::Nest { at, depth } => {
                bytes.splice(at % n..at % n, std::iter::repeat_n(b'[', depth));
            }
            Mutation::Digits { nth, ref digits } => {
                let starts: Vec<usize> = (0..n)
                    .filter(|&i| {
                        bytes[i].is_ascii_digit() && (i == 0 || !bytes[i - 1].is_ascii_digit())
                    })
                    .collect();
                if starts.is_empty() {
                    return;
                }
                let start = starts[nth % starts.len()];
                let end = start
                    + bytes[start..]
                        .iter()
                        .take_while(|b| b.is_ascii_digit())
                        .count();
                bytes.splice(start..end, digits.bytes());
            }
        }
    }
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    // The narrow range lands on the digits of a short document's fields
    // (a job spec's budget, trials and seed); the wide one anywhere.
    let nth = prop_oneof![0usize..48, 0usize..1 << 20];
    prop_oneof![
        (0usize..1 << 20, 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        (nth, 0u8..10).prop_map(|(nth, digit)| Mutation::Digit { nth, digit }),
        (0usize..1 << 20).prop_map(|at| Mutation::Truncate { at }),
        (0usize..1 << 20, 1usize..256, 0usize..1 << 20)
            .prop_map(|(from, len, at)| Mutation::Splice { from, len, at }),
        (0usize..1 << 20, 1usize..20_000).prop_map(|(at, depth)| Mutation::Nest { at, depth }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The job-spec decoder under damaged bodies: a flipped, truncated,
    /// spliced, renumbered or deeply nested `POST /jobs` body parses or
    /// fails with an error, and whatever parses round-trips.
    #[test]
    fn damaged_job_specs_parse_or_fail_without_panicking(
        mutations in collection::vec(arb_mutation(), 1..4),
    ) {
        let spec = JobSpec {
            technique: "random".to_string(),
            budget: 42,
            models: vec!["resnet18".to_string()],
            space: "toy".to_string(),
            ..JobSpec::default()
        };
        let mut bytes = spec.to_json_string().into_bytes();
        for m in &mutations {
            m.apply(&mut bytes);
        }
        if let Ok(parsed) = JobSpec::from_json_str(&String::from_utf8_lossy(&bytes)) {
            prop_assert_eq!(JobSpec::from_json_str(&parsed.to_json_string()), Ok(parsed));
        }
    }
}

/// The model description from the `edse_core::import` module docs.
const MODEL_SAMPLE: &str = r#"{
  "name": "MyNet",
  "target": { "fps": 30.0 },
  "layers": [
    { "name": "conv1", "op": "conv", "m": 64, "c": 3,
      "oy": 112, "ox": 112, "fy": 7, "fx": 7, "stride": 2 },
    { "name": "blocks", "op": "dwconv", "m": 64, "oy": 56, "ox": 56,
      "fy": 3, "fx": 3, "repeat": 4 },
    { "name": "fc", "op": "gemm", "m": 1000, "n": 1, "k": 512 }
  ]
}"#;

/// The design space from the `space_from_json` docs, with a domain that is
/// not a power-of-two ladder.
const SPACE_SAMPLE: &str = r#"{ "params": [
  { "name": "pes", "values": [64, 128, 256] },
  { "name": "l2_kb", "values": [64, 96, 128] } ] }"#;

/// Long digit strings written over a digit run: around 2^32, 2^53 (the
/// largest integer a member may hold is 2^53 - 1), 2^63 and 2^64, plus
/// ones past `u64`.
fn arb_digits() -> impl Strategy<Value = Mutation> {
    let digits = prop_oneof![
        Just("4294967296".to_string()),
        Just("9007199254740991".to_string()),
        Just("9007199254740992".to_string()),
        Just("9223372036854775807".to_string()),
        Just("18446744073709551615".to_string()),
        Just("18446744073709551616".to_string()),
        Just("1.5".to_string()),
        (1usize..40).prop_map(|len| "9".repeat(len)),
        (1u64..u64::MAX).prop_map(|v| v.to_string()),
    ];
    (0usize..64, digits).prop_map(|(nth, digits)| Mutation::Digits { nth, digits })
}

/// Byte damage within a short document: flipped, truncated or spliced.
fn arb_damage() -> impl Strategy<Value = Mutation> {
    let pos = || 0usize..1 << 12;
    prop_oneof![
        (pos(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        (pos(), 1usize..64, pos()).prop_map(|(from, len, at)| Mutation::Splice { from, len, at }),
    ]
}

/// `sample` with `digits`, then `damage`, applied in order.
fn damaged(sample: &str, digits: &[Mutation], damage: &[Mutation]) -> String {
    let mut bytes = sample.as_bytes().to_vec();
    for m in digits.iter().chain(damage) {
        m.apply(&mut bytes);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model import returns `Ok` or `Err` on damaged descriptions without
    /// panicking, and every model it accepts has sizes that fit `u64`: the
    /// layer count, the total MAC count, the unique shapes and each
    /// layer's MAC count and operand volumes compute without an overflow
    /// panic.
    #[test]
    fn damaged_model_descriptions_import_or_fail_without_panicking(
        digits in collection::vec(arb_digits(), 1..4),
        damage in collection::vec(arb_damage(), 0..2),
    ) {
        let text = damaged(MODEL_SAMPLE, &digits, &damage);
        if let Ok(model) = edse_core::import::from_json_str(&text) {
            let count = model.layer_count();
            let _ = model.total_macs();
            let unique = model.unique_shapes();
            prop_assert!(unique.iter().map(|u| u.count).sum::<u64>() == count);
            for layer in model.layers() {
                let _ = layer.shape.macs();
                for t in Tensor::ALL {
                    let _ = layer.shape.tensor_elems(t);
                }
            }
        }
    }

    /// The design-space decoder returns `Ok` or `Err` on damaged documents
    /// without panicking, and every space it accepts has at least one
    /// parameter, each with a non-empty, strictly ascending domain.
    #[test]
    fn damaged_space_documents_decode_or_fail_without_panicking(
        digits in collection::vec(arb_digits(), 0..3),
        damage in collection::vec(prop_oneof![arb_damage(), arb_mutation()], 0..3),
    ) {
        let text = damaged(SPACE_SAMPLE, &digits, &damage);
        if let Ok(space) = space_from_json(&text) {
            prop_assert!(!space.is_empty());
            for p in space.params() {
                prop_assert!(!p.values().is_empty(), "{}: empty domain", p.name());
                prop_assert!(
                    p.values().windows(2).all(|w| w[0] < w[1]),
                    "{}: {:?} not strictly ascending",
                    p.name(),
                    p.values()
                );
            }
        }
    }
}

/// Bytes from a splitmix64 walk seeded with `seed` (the vendored proptest
/// shim has no byte-vector strategy).
fn splitmix_bytes(mut seed: u64, n: usize) -> Vec<u8> {
    (0..n)
        .map(|_| {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = seed;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as u8
        })
        .collect()
}

/// Damage to one of a cache directory's two segments: bytes flipped,
/// truncated or copied over other bytes, or the 16-byte header rewritten.
fn arb_segment_mutation() -> impl Strategy<Value = (usize, Mutation)> {
    let pos = || 0usize..1 << 20;
    let overlay = (pos(), 1usize..4096, pos());
    let header = (0usize..16, 1usize..=16, any::<u64>());
    let mutation = prop_oneof![
        (pos(), 1u8..=255).prop_map(|(at, mask)| Mutation::Flip { at, mask }),
        pos().prop_map(|at| Mutation::Truncate { at }),
        overlay.prop_map(|(from, len, at)| Mutation::Overlay { from, len, at }),
        header.prop_map(|(at, len, seed)| Mutation::Overwrite { at, len, seed }),
    ];
    (0usize..2, mutation)
}

/// A cache directory's segments after two write sessions (the seed-0
/// search at budgets 10 and 20), with every record they hold and the cold
/// result of [`disk_cached_search`] at seed 0.
struct SegmentSource {
    /// `(file name, bytes)` per segment, in creation order.
    segments: Vec<(std::ffi::OsString, Vec<u8>)>,
    /// `(key, layer shape, outcome)` per record.
    records: Vec<(Vec<u8>, LayerShape, LayerOutcome)>,
    cold: DseResult,
}

fn segment_source() -> &'static SegmentSource {
    static SOURCE: OnceLock<SegmentSource> = OnceLock::new();
    SOURCE.get_or_init(|| {
        let cold_dir = temp_cache_dir("mutation-cold");
        let (cold, _) = disk_cached_search(&cold_dir, 0);
        let _ = std::fs::remove_dir_all(&cold_dir);

        // The runs' layer keys: every unique layer of every sampled point.
        let dir = temp_cache_dir("mutation-source");
        let mut keys = Vec::new();
        for budget in [10, 20] {
            let (result, ev) = disk_cached_run(&dir, budget, 0);
            for sample in &result.trace().samples {
                let cfg = ev.decode(&sample.point);
                for u in zoo::resnet18().unique_shapes() {
                    keys.push((
                        layer_key(&FixedMapper.fingerprint(), &u.shape, &cfg),
                        u.shape,
                    ));
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        let disk = DiskCache::open(&dir).expect("reopen the source directory");
        assert_eq!(keys.len(), disk.stats().entries, "every record is listed");
        let records = keys
            .into_iter()
            .map(|(key, shape)| {
                let outcome = disk
                    .get_outcome(&key, &shape)
                    .expect("an intact record reads back");
                (key, shape, outcome)
            })
            .collect();
        let segments: Vec<_> = segment_files(&dir)
            .into_iter()
            .map(|path| {
                (
                    path.file_name().unwrap().to_owned(),
                    std::fs::read(&path).unwrap(),
                )
            })
            .collect();
        assert_eq!(segments.len(), 2, "two write sessions, two segments");
        drop(disk);
        let _ = std::fs::remove_dir_all(&dir);
        SegmentSource {
            segments,
            records,
            cold,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The segment decoder, the cache directory's only one, under damaged
    /// bytes: flipped, truncated, spliced over each other, or with a
    /// rewritten header, two segments still open without an error or a
    /// panic. Every written record then reads back exactly or not at all,
    /// and a warm search equals the cold run.
    #[test]
    fn damaged_segments_read_back_exactly_or_miss(
        damage in collection::vec(arb_segment_mutation(), 1..4),
    ) {
        let source = segment_source();
        let mut segments: Vec<Vec<u8>> =
            source.segments.iter().map(|(_, bytes)| bytes.clone()).collect();
        for (seg, m) in &damage {
            m.apply(&mut segments[*seg]);
        }
        let dir = temp_cache_dir("damaged");
        std::fs::create_dir_all(&dir).unwrap();
        for ((name, _), bytes) in source.segments.iter().zip(&segments) {
            std::fs::write(dir.join(name), bytes).unwrap();
        }

        let disk = DiskCache::open(&dir).expect("a damaged directory opens");
        for (key, shape, outcome) in &source.records {
            if let Some(got) = disk.get_outcome(key, shape) {
                prop_assert_eq!(&got, outcome);
            }
        }
        drop(disk);

        let (warm, _) = disk_cached_search(&dir, 0);
        assert_results_identical(&warm, &source.cold);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
