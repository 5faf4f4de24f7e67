//! Machine-readable experiment reports (`--json <path>`).
//!
//! Every figure/table binary renders human-readable tables on stdout; this
//! module is the parallel machine-checkable channel: a [`BenchReport`]
//! collects the run's deterministic outcomes — per-technique traces (best
//! feasible objective, iterations-to-incumbent, feasibility rate, every
//! sample's objective) plus experiment-specific scalar metrics — and
//! serializes them as one JSON document. Wall-clock times are deliberately
//! excluded so reports from different hosts (or killed-and-rerun
//! runs) are byte-comparable; the conformance crate pins these reports as
//! golden fixtures.

use crate::cli::BenchArgs;
use edse_core::cost::Trace;
use edse_telemetry::json::Json;

/// Schema tag stamped into every report, bumped on breaking shape changes.
pub const REPORT_SCHEMA: &str = "edse-bench-report/v1";

/// Accumulates one experiment run's deterministic results.
///
/// Build with [`BenchReport::new`], feed it traces and metrics as the
/// experiment produces them, then call [`BenchReport::write_if_requested`]
/// once at the end of `main`.
pub struct BenchReport {
    experiment: String,
    config: Json,
    traces: Vec<Json>,
    metrics: Vec<(String, Json)>,
}

/// The derived per-trace summary the report records (also reused by the
/// conformance crate's paper-bound assertions).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Best feasible objective, if any sample was feasible.
    pub best_objective: Option<f64>,
    /// 1-based index of the evaluation that produced the final incumbent
    /// (the paper's "iterations to reach the best solution").
    pub iterations_to_incumbent: Option<usize>,
    /// Fraction of evaluated samples meeting all constraints.
    pub feasibility_rate: f64,
    /// Number of feasible samples.
    pub feasible_evaluations: usize,
}

/// Summarizes a trace the way the report does.
pub fn summarize(trace: &Trace) -> TraceSummary {
    let best = trace.best_feasible().map(|s| s.objective);
    let iterations_to_incumbent = best.map(|b| {
        trace
            .samples
            .iter()
            .position(|s| s.feasible && s.objective == b)
            .expect("best sample is in the trace")
            + 1
    });
    TraceSummary {
        best_objective: best,
        iterations_to_incumbent,
        feasibility_rate: trace.feasibility_rate(),
        feasible_evaluations: trace.samples.iter().filter(|s| s.feasible).count(),
    }
}

impl BenchReport {
    /// Starts a report for one experiment, recording the run's
    /// deterministic configuration (budgets, seed, models, preset — never
    /// wall-clock or host facts).
    pub fn new(experiment: &str, args: &BenchArgs) -> Self {
        BenchReport {
            experiment: experiment.to_string(),
            config: Json::obj(vec![
                ("iters", Json::Num(args.spec.budget as f64)),
                ("map_trials", Json::Num(args.spec.map_trials as f64)),
                ("seed", Json::Num(args.spec.seed as f64)),
                ("quick", Json::Bool(args.quick)),
                (
                    "models",
                    Json::Arr(
                        args.spec
                            .models
                            .iter()
                            .map(|m| Json::Str(m.clone()))
                            .collect(),
                    ),
                ),
            ]),
            traces: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Records one technique run: the derived summary plus the full
    /// per-sample objective/feasibility series (non-finite objectives
    /// serialize as `null`). `label` distinguishes repeated techniques
    /// (e.g. per-model or per-setting runs).
    pub fn push_trace(&mut self, label: &str, trace: &Trace) {
        let s = summarize(trace);
        self.traces.push(Json::obj(vec![
            ("label", Json::Str(label.to_string())),
            ("technique", Json::Str(trace.technique.clone())),
            ("evaluations", Json::Num(trace.evaluations() as f64)),
            (
                "best_objective",
                s.best_objective.map(Json::Num).unwrap_or(Json::Null),
            ),
            (
                "iterations_to_incumbent",
                s.iterations_to_incumbent
                    .map(|n| Json::Num(n as f64))
                    .unwrap_or(Json::Null),
            ),
            ("feasibility_rate", Json::Num(s.feasibility_rate)),
            (
                "feasible_evaluations",
                Json::Num(s.feasible_evaluations as f64),
            ),
            (
                "objectives",
                Json::Arr(
                    trace
                        .samples
                        .iter()
                        .map(|smp| Json::Num(smp.objective))
                        .collect(),
                ),
            ),
            (
                "feasible",
                Json::Arr(
                    trace
                        .samples
                        .iter()
                        .map(|smp| Json::Bool(smp.feasible))
                        .collect(),
                ),
            ),
        ]));
    }

    /// Records one experiment-specific metric (kept in insertion order).
    /// Deterministic values only: counts, model outputs, analysis results —
    /// never timings.
    pub fn metric(&mut self, name: &str, value: Json) {
        self.metrics.push((name.to_string(), value));
    }

    /// The assembled report document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(REPORT_SCHEMA.to_string())),
            ("experiment", Json::Str(self.experiment.clone())),
            ("config", self.config.clone()),
            ("traces", Json::Arr(self.traces.clone())),
            ("metrics", Json::Obj(self.metrics.clone())),
        ])
    }

    /// Writes the report to `path` as a single JSON line.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O failure.
    pub fn write_to(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_line() + "\n")
    }

    /// Writes the report when the run asked for one (`--json <path>`);
    /// no-op otherwise. Exits with an error message when the file cannot
    /// be written, matching how the other output flags fail.
    pub fn write_if_requested(&self, args: &BenchArgs) {
        let Some(path) = &args.json else {
            return;
        };
        if let Err(e) = self.write_to(path) {
            eprintln!("cannot write report file {path}: {e}");
            std::process::exit(1);
        }
        println!("\nJSON report written to {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edse_core::cost::Sample;
    use edse_core::space::DesignPoint;

    fn trace() -> Trace {
        let mut t = Trace::new("demo");
        for (obj, feasible) in [(9.0, false), (5.0, true), (3.0, true), (4.0, true)] {
            t.samples.push(Sample {
                point: DesignPoint::new(vec![0]),
                objective: obj,
                constraint_values: vec![],
                feasible,
            });
        }
        t.wall_seconds = 123.0;
        t
    }

    #[test]
    fn summary_derives_incumbent_iteration() {
        let s = summarize(&trace());
        assert_eq!(s.best_objective, Some(3.0));
        assert_eq!(s.iterations_to_incumbent, Some(3));
        assert_eq!(s.feasible_evaluations, 3);
        assert!((s.feasibility_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_summarizes_to_nulls() {
        let s = summarize(&Trace::new("x"));
        assert_eq!(s.best_objective, None);
        assert_eq!(s.iterations_to_incumbent, None);
        assert_eq!(s.feasible_evaluations, 0);
    }

    #[test]
    fn report_json_has_schema_and_excludes_wall_clock() {
        let args = BenchArgs::parse_from(&["--iters", "4", "--seed", "7"], 100);
        let mut report = BenchReport::new("unit_test", &args);
        report.push_trace("demo-run", &trace());
        report.metric("answer", Json::Num(42.0));
        let line = report.to_json().to_line();
        assert!(line.contains("edse-bench-report/v1"));
        assert!(line.contains("\"experiment\":\"unit_test\""));
        assert!(line.contains("\"iterations_to_incumbent\":3"));
        assert!(line.contains("\"answer\":42"));
        // The trace carries wall_seconds = 123; the report must not.
        assert!(
            !line.contains("123"),
            "wall-clock leaked into report: {line}"
        );
        assert!(
            !line.contains("wall"),
            "wall-clock leaked into report: {line}"
        );
        // And it parses back as one JSON document.
        edse_telemetry::json::parse(&line).unwrap();
    }

    #[test]
    fn write_if_requested_is_a_noop_without_flag() {
        let args = BenchArgs::parse_from(&[] as &[&str], 10);
        BenchReport::new("x", &args).write_if_requested(&args);
    }

    /// The checked-in mapper kernel-v2 bench record stays schema-valid and
    /// keeps documenting the acceptance bar: the *single-threaded*
    /// `mapper/linear_layer` variant (threads = 1 — the honest number on a
    /// 1-CPU host, and the variant every intra-layer speedup is measured
    /// against) is >= 2x faster than the PR-5 fast path (before_ns =
    /// 484386, i.e. after_ns <= 242193).
    #[test]
    fn recorded_mapper_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_mapper.json"
        );
        let line = std::fs::read_to_string(path).expect("results/json/bench_mapper.json");
        let doc = edse_telemetry::json::parse(line.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        // The pinned variant must be the serial sweep: a multi-thread
        // number would conflate intra-layer parallelism with the kernel.
        let threads = metric("mapper/linear_layer/threads");
        assert_eq!(threads, 1.0, "pinned variant must be single-threaded");
        let speedup = metric("mapper/linear_layer/speedup");
        assert!(
            speedup >= 2.0,
            "recorded speedup {speedup} below the 2x bar"
        );
        let before = metric("mapper/linear_layer/before_ns");
        let after = metric("mapper/linear_layer/after_ns");
        assert_eq!(
            before, 484386.0,
            "baseline must stay the PR-5 fast-path median"
        );
        assert!(
            after <= 242_193.0,
            "after_ns {after} misses the <= 242193 ns target"
        );
        assert!(
            (before / after - speedup).abs() < 0.01,
            "speedup ratio drifted"
        );
        // Every recorded mapper-kernel metric attributes its thread count.
        for variant in [
            "mapper/linear_layer_t2",
            "mapper/space_build",
            "mapper/space_build_top100",
            "engine/batch1_multilayer",
        ] {
            let t = metric(&format!("{variant}/threads"));
            assert!(t >= 1.0, "{variant} must record a thread count");
        }
        let t2 = metric("mapper/linear_layer_t2/threads");
        assert_eq!(t2, 2.0, "t2 variant must be attributed to 2 workers");
    }

    /// The checked-in telemetry-overhead record stays schema-valid and
    /// keeps documenting the acceptance bar: a live collector (metrics +
    /// span tree + flush) costs at most 25% over the no-op path on the
    /// `engine/batch16` workload.
    #[test]
    fn recorded_telemetry_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_telemetry.json"
        );
        let line = std::fs::read_to_string(path).expect("results/json/bench_telemetry.json");
        let doc = edse_telemetry::json::parse(line.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let ratio = metric("engine/batch16_traced_ratio");
        assert!(
            ratio <= 1.25,
            "recorded traced/untraced ratio {ratio} above the 1.25 bar"
        );
        let untraced = metric("engine/batch16_untraced_ns");
        let traced = metric("engine/batch16_traced_ns");
        assert!(
            (traced / untraced - ratio).abs() < 0.01,
            "overhead ratio drifted from the recorded timings"
        );
    }

    /// The checked-in disk-cache warm-start record stays schema-valid and
    /// keeps documenting the acceptance bar: a repeated identical run over
    /// the same `--cache-dir` hits the disk tier >= 99% of the time and is
    /// faster than the cold run.
    #[test]
    fn recorded_diskcache_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_diskcache.json"
        );
        let line = std::fs::read_to_string(path).expect("results/json/bench_diskcache.json");
        let doc = edse_telemetry::json::parse(line.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let hit_rate = metric("disk_cache/warm_hit_rate");
        assert!(hit_rate >= 0.99, "recorded hit rate {hit_rate} below 0.99");
        let (hits, misses) = (
            metric("disk_cache/warm_hits"),
            metric("disk_cache/warm_misses"),
        );
        assert!(
            (hits / (hits + misses) - hit_rate).abs() < 1e-6,
            "hit rate inconsistent with hit/miss counts"
        );
        let (cold, warm) = (metric("disk_cache/cold_ms"), metric("disk_cache/warm_ms"));
        let speedup = metric("disk_cache/speedup");
        assert!(speedup >= 1.0, "warm must not be slower than cold");
        assert!(
            (cold / warm - speedup).abs() < 0.01,
            "speedup ratio drifted"
        );
    }

    /// The checked-in shared-executor record stays schema-valid and keeps
    /// documenting the acceptance bar: `engine/batch1_multilayer` against
    /// the pinned PR-9 baseline (before_ns = 1420000, the spawn-per-batch
    /// scoped engine) is >= 1.5x faster on the warm shared pool + shared
    /// `MappingSpace` memo, and every variant attributes its engine
    /// worker budget.
    #[test]
    fn recorded_executor_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_executor.json"
        );
        let line = std::fs::read_to_string(path).expect("results/json/bench_executor.json");
        let doc = edse_telemetry::json::parse(line.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let before = metric("engine/batch1_multilayer/before_ns");
        assert_eq!(
            before, 1_420_000.0,
            "baseline must stay the PR-9 scoped-engine median"
        );
        let speedup = metric("engine/batch1_multilayer/speedup");
        assert!(
            speedup >= 1.5,
            "recorded speedup {speedup} below the 1.5x bar"
        );
        let after = metric("engine/batch1_multilayer/after_ns");
        assert!(
            (before / after - speedup).abs() < 0.01,
            "speedup ratio drifted"
        );
        // Every recorded variant attributes its worker budget, and each
        // ratio stays consistent with its own before/after pair.
        for (variant, threads) in [
            ("engine/batch1_multilayer", 1.0),
            ("engine/batch1_multilayer_t2", 2.0),
            ("engine/spawn_overhead", 2.0),
        ] {
            assert_eq!(
                metric(&format!("{variant}/threads")),
                threads,
                "{variant} thread attribution"
            );
            let (b, a, s) = (
                metric(&format!("{variant}/before_ns")),
                metric(&format!("{variant}/after_ns")),
                metric(&format!("{variant}/speedup")),
            );
            assert!(s >= 1.0, "{variant} must not regress");
            assert!((b / a - s).abs() < 0.01, "{variant} speedup ratio drifted");
        }
    }

    /// The checked-in space-memo record stays schema-valid and keeps
    /// documenting the acceptance bar: keying the shared `MappingSpace`
    /// memo on what enumeration reads makes the end-to-end
    /// `codesign_cold` benchmark >= 1.5x faster from a cold memo, in ten
    /// alternating pairs as well as in the recorded run, through memo hits
    /// on the same mapper calls; and on both sides the traced ledger's
    /// layers add up to within 5% of the wall-clock.
    #[test]
    fn recorded_space_memo_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_space_memo.json"
        );
        let line = std::fs::read_to_string(path).expect("results/json/bench_space_memo.json");
        let doc = edse_telemetry::json::parse(line.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let config = doc.get("config").expect("config");
        assert_eq!(
            config.get("memo_at_start").and_then(Json::as_str),
            Some("cold"),
            "the record must state the memo temperature"
        );
        for state in ["pool_budget", "host_cpus", "host_steal_s"] {
            assert!(config.get(state).is_some(), "config must record {state}");
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let speedup = metric("codesign_cold/wall_speedup");
        assert!(
            speedup >= 1.5,
            "recorded wall speedup {speedup} below the 1.5x bar"
        );
        let (before, after) = (
            metric("codesign_cold/before/wall_s"),
            metric("codesign_cold/after/wall_s"),
        );
        assert!(
            (before / after - speedup).abs() < 0.01,
            "speedup ratio drifted"
        );
        // The gain holds by the pairing rule: the change wins at least
        // nine in ten alternating pairs, and the medians differ by more
        // than the parent's interquartile range.
        let pairs = metric("codesign_cold/pairs/count");
        assert!(pairs >= 10.0, "at least ten pairs, got {pairs}");
        assert!(metric("codesign_cold/pairs/wins") >= 0.9 * pairs);
        let gap = metric("codesign_cold/pairs/before_wall_s_median")
            - metric("codesign_cold/pairs/after_wall_s_median");
        let spread = metric("codesign_cold/pairs/before_wall_s_q3")
            - metric("codesign_cold/pairs/before_wall_s_q1");
        assert!(
            gap > spread,
            "median gain {gap} within the parent's spread {spread}"
        );
        assert!(
            metric("codesign_cold/after/space.memo_hits") > 0.0,
            "the gain must come from memo hits"
        );
        assert_eq!(
            metric("codesign_cold/before/mapper.calls"),
            metric("codesign_cold/after/mapper.calls"),
            "only the cost of each mapper call may change"
        );
        for side in ["before", "after"] {
            let coverage = metric(&format!("codesign_cold/{side}/trace.coverage"));
            assert!(
                coverage >= 0.95,
                "{side}: traced layers cover {coverage} of the wall-clock, below 0.95"
            );
        }
    }

    /// The checked-in bounded-sweep record stays schema-valid and keeps
    /// documenting the acceptance bar: stopping each layer's tiling sweep
    /// at the compute floor makes the end-to-end `codesign_cold` benchmark
    /// at least 1.3x faster from a cold memo, in ten alternating pairs as
    /// well as in the recorded medians, through a shorter sweep on the
    /// same mapper calls and spaces; the traced ledger covers the
    /// wall-clock on both sides, and every recorded budget-one work count
    /// prepared fewer tilings than it was offered.
    #[test]
    fn recorded_bounded_sweep_bench_report_parses_and_holds_the_bar() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../results/json/bench_bounded_sweep.json"
        );
        let text = std::fs::read_to_string(path).expect("results/json/bench_bounded_sweep.json");
        let doc = edse_telemetry::json::parse(text.trim()).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let config = doc.get("config").expect("config");
        assert_eq!(
            config.get("memo_at_start").and_then(Json::as_str),
            Some("cold"),
            "the record must state the memo temperature"
        );
        for state in ["disk_tier", "pool_budget", "host_cpus", "host_steal_s"] {
            assert!(config.get(state).is_some(), "config must record {state}");
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };
        let speedup = metric("codesign_cold/wall_speedup");
        assert!(
            speedup >= 1.3,
            "recorded wall speedup {speedup} below the 1.3x bar"
        );
        let (before, after) = (
            metric("codesign_cold/before/wall_s"),
            metric("codesign_cold/after/wall_s"),
        );
        assert!(
            (before / after - speedup).abs() < 0.01,
            "speedup ratio drifted"
        );
        // The pairing rule: the change wins at least nine in ten
        // alternating pairs, and the medians differ by more than the
        // parent's interquartile range.
        let pairs = metric("codesign_cold/pairs/count");
        assert!(pairs >= 10.0, "at least ten pairs, got {pairs}");
        assert!(metric("codesign_cold/pairs/wins") >= 0.9 * pairs);
        let gap = metric("codesign_cold/pairs/before_wall_s_median")
            - metric("codesign_cold/pairs/after_wall_s_median");
        let spread = metric("codesign_cold/pairs/before_wall_s_q3")
            - metric("codesign_cold/pairs/before_wall_s_q1");
        assert!(
            gap > spread,
            "median gain {gap} within the parent's spread {spread}"
        );
        for same in ["mapper.calls", "space.tilings"] {
            assert_eq!(
                metric(&format!("codesign_cold/before/{same}")),
                metric(&format!("codesign_cold/after/{same}")),
                "only the work inside each sweep may change ({same})"
            );
        }
        assert!(
            metric("codesign_cold/after/sweep.s") < metric("codesign_cold/before/sweep.s"),
            "the gain must come from the sweep"
        );
        for side in ["before", "after"] {
            let coverage = metric(&format!("codesign_cold/{side}/trace.coverage"));
            assert!(
                coverage >= 0.95,
                "{side}: traced layers cover {coverage} of the wall-clock, below 0.95"
            );
        }
        for seed in 0..4 {
            let count = |name: &str| metric(&format!("codesign_cold/work/seed{seed}/{name}"));
            assert!(
                count("tilings_prepared") < count("tilings"),
                "seed {seed}: the bounded sweep skipped no tiling"
            );
        }
    }

    /// The layer-rows perf record (config-major layer cache with shared
    /// outcomes) states its measurement state, holds the pairing rule on
    /// `fixdf_zoo` wall-clock, keeps every other end-to-end median inside
    /// its `BENCHMARK.json` bound, did the same mapping work on both
    /// sides, and records the memory counts, the setup cost that keeps
    /// the shape table lazy and the one-thread comparison behind deleting
    /// the serial fork.
    #[test]
    fn recorded_layer_rows_bench_report_parses_and_holds_the_bar() {
        let read = |file: &str| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            edse_telemetry::json::parse(text.trim()).expect("valid JSON")
        };
        let doc = read("results/json/bench_layer_rows.json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let config = doc.get("config").expect("config");
        assert_eq!(
            config.get("memo_at_start").and_then(Json::as_str),
            Some("cold"),
            "the record must state the memo temperature"
        );
        for state in ["disk_tier", "pool_budget", "host_cpus", "host_steal_s"] {
            assert!(config.get(state).is_some(), "config must record {state}");
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };

        // The pairing rule on the claimed metric: the change wins at
        // least nine in ten alternating pairs, and the medians differ by
        // more than the parent's interquartile range.
        let pairs = metric("fixdf_zoo/pairs/count");
        assert!(pairs >= 10.0, "at least ten pairs, got {pairs}");
        assert!(metric("fixdf_zoo/pairs/wins") >= 0.9 * pairs);
        let gap = metric("fixdf_zoo/pairs/before_wall_s_median")
            - metric("fixdf_zoo/pairs/after_wall_s_median");
        let spread =
            metric("fixdf_zoo/pairs/before_wall_s_q3") - metric("fixdf_zoo/pairs/before_wall_s_q1");
        assert!(
            gap > spread,
            "median gain {gap} within the parent's spread {spread}"
        );
        let speedup = metric("fixdf_zoo/wall_speedup");
        assert!(
            (metric("fixdf_zoo/before/wall_s") / metric("fixdf_zoo/after/wall_s") - speedup).abs()
                < 0.01,
            "speedup ratio drifted"
        );

        // No end-to-end median got worse than its benchmark bound allows.
        let bench = read("BENCHMARK.json");
        let bounds = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end bounds");
        for workload in ["fixdf_zoo", "codesign_cold", "serve_mixed"] {
            for m in bounds {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                let before = metric(&format!("{workload}/before/{name}"));
                let after = metric(&format!("{workload}/after/{name}"));
                assert!(
                    after <= before * (1.0 + bound),
                    "{workload} {name}: {before} -> {after} exceeds its {bound} bound"
                );
            }
        }

        // The same work on both sides: the gain is bookkeeping, not
        // fewer mappings.
        for same in [
            "mapper.calls",
            "evaluate.layer_misses",
            "evaluate.layer_hits",
        ] {
            assert_eq!(
                metric(&format!("fixdf_zoo/before/{same}")),
                metric(&format!("fixdf_zoo/after/{same}")),
                "{same} moved"
            );
        }
        assert!(metric("fixdf_zoo/after/evaluate.s") < metric("fixdf_zoo/before/evaluate.s"));

        // Memory as counts (crates/edse-core/tests/alloc.rs).
        for count in [
            "live_bytes_per_layer_entry",
            "allocations_per_assembled_point",
        ] {
            assert!(
                metric(&format!("alloc/after/{count}")) < metric(&format!("alloc/before/{count}")),
                "{count} did not fall"
            );
        }

        // The shape table is lazy because building it in `new` cost setup.
        assert!(
            metric("lazy_shape_table/fixdf_zoo/lazy/setup_s_median")
                < metric("lazy_shape_table/fixdf_zoo/eager/setup_s_median")
        );

        // The one-thread fork was deleted under its rule: neither
        // workload's median without it is worse than the fork's by more
        // than the fork's interquartile range.
        for workload in ["fixdf_zoo", "codesign_cold"] {
            let with = |q: &str| metric(&format!("budget1/{workload}/with_fork/wall_s_{q}"));
            let without = metric(&format!("budget1/{workload}/without_fork/wall_s_median"));
            assert!(
                without - with("median") <= with("q3") - with("q1"),
                "{workload}: deleting the fork cost more than its spread"
            );
        }
    }

    /// The disk-codec perf record (binary disk-tier records, format
    /// version 2) states its measurement state, holds the pairing rule on
    /// `serve_mixed` wall-clock with the stated 25% floor, lowers cpu_s
    /// and job_p50_s there, keeps every end-to-end median of the three
    /// workloads inside its `BENCHMARK.json` bound, served the same disk
    /// lookups and mapper calls on both sides, and records the cheaper
    /// per-operation costs, reopen and segment bytes.
    #[test]
    fn recorded_disk_codec_bench_report_parses_and_holds_the_bar() {
        let read = |file: &str| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            edse_telemetry::json::parse(text.trim()).expect("valid JSON")
        };
        let doc = read("results/json/bench_disk_codec.json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let config = doc.get("config").expect("config");
        for state in [
            "memo_at_start",
            "disk_tier",
            "pool_budget",
            "host_cpus",
            "host_steal_s",
        ] {
            assert!(config.get(state).is_some(), "config must record {state}");
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };

        // The pairing rule on the claimed metric, and the stated floor.
        let pairs = metric("serve_mixed/pairs/count");
        assert!(pairs >= 10.0, "at least ten pairs, got {pairs}");
        assert!(metric("serve_mixed/pairs/wins") >= 0.9 * pairs);
        let gap = metric("serve_mixed/pairs/before_wall_s_median")
            - metric("serve_mixed/pairs/after_wall_s_median");
        let spread = metric("serve_mixed/pairs/before_wall_s_q3")
            - metric("serve_mixed/pairs/before_wall_s_q1");
        assert!(
            gap > spread,
            "median gain {gap} within the parent's spread {spread}"
        );
        let (before, after) = (
            metric("serve_mixed/before/wall_s"),
            metric("serve_mixed/after/wall_s"),
        );
        assert!(
            after <= 0.75 * before,
            "wall_s {before} -> {after}: under 25% lower"
        );
        assert!(
            (before / after - metric("serve_mixed/wall_speedup")).abs() < 0.01,
            "speedup ratio drifted"
        );
        for lower in ["cpu_s", "job_p50_s"] {
            assert!(
                metric(&format!("serve_mixed/after/{lower}"))
                    < metric(&format!("serve_mixed/before/{lower}")),
                "serve_mixed {lower} did not fall"
            );
        }

        // No end-to-end median got worse than its benchmark bound allows.
        let bench = read("BENCHMARK.json");
        let bounds = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end bounds");
        for workload in ["serve_mixed", "codesign_cold", "fixdf_zoo"] {
            for m in bounds {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                let before = metric(&format!("{workload}/before/{name}"));
                let after = metric(&format!("{workload}/after/{name}"));
                assert!(
                    after <= before * (1.0 + bound),
                    "{workload} {name}: {before} -> {after} exceeds its {bound} bound"
                );
            }
        }

        // The same lookups and records on both sides: the gain is the
        // codec, not fewer disk reads or mappings. A mapper call is a disk
        // miss; misses exceed the appends only when both tenants miss one
        // record at once and both map it.
        let traced = |side: &str, name: &str| metric(&format!("serve_mixed/{side}/{name}"));
        let lookups =
            |side: &str| traced(side, "diskcache.hits") + traced(side, "diskcache.misses");
        assert_eq!(lookups("before"), lookups("after"), "disk lookups moved");
        let appends = traced("before", "diskcache.appends");
        assert_eq!(
            appends,
            traced("after", "diskcache.appends"),
            "records moved"
        );
        for side in ["before", "after"] {
            let calls = traced(side, "mapper.calls");
            assert!(
                calls >= appends && calls - appends <= 0.01 * appends,
                "{side}: {calls} mapper calls for {appends} records"
            );
        }
        assert!(traced("after", "diskcache.open_s") < traced("before", "diskcache.open_s"));

        // Per operation, and the bytes one budget-20 search leaves
        // (crates/edse-core/tests/disk_work.rs).
        for op in [
            "key_us",
            "append_us",
            "hit_us",
            "bytes_per_record",
            "reopen_s",
        ] {
            assert!(
                metric(&format!("disk_op/after/{op}")) < metric(&format!("disk_op/before/{op}")),
                "{op} did not fall"
            );
        }
        assert_eq!(metric("disk_work/before/records"), 180.0);
        assert_eq!(metric("disk_work/after/records"), 180.0);
        assert_eq!(metric("disk_work/before/segment_bytes"), 281_041.0);
        assert_eq!(metric("disk_work/after/segment_bytes"), 137_824.0);
    }

    #[test]
    fn recorded_bo_surrogate_bench_report_parses_and_holds_the_bar() {
        let read = |file: &str| {
            let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
            let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
            edse_telemetry::json::parse(text.trim()).expect("valid JSON")
        };
        let doc = read("results/json/bench_bo_surrogate.json");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some(REPORT_SCHEMA)
        );
        let config = doc.get("config").expect("config");
        for state in [
            "memo_at_start",
            "disk_tier",
            "pool_budget",
            "host_cpus",
            "host_steal_s",
        ] {
            assert!(config.get(state).is_some(), "config must record {state}");
        }
        let metric = |name: &str| {
            doc.get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("missing metric {name}"))
        };

        // The pairing rule on the claimed metric.
        let pairs = metric("serve_mixed/pairs/count");
        assert!(pairs >= 10.0, "at least ten pairs, got {pairs}");
        assert!(metric("serve_mixed/pairs/wins") >= 0.9 * pairs);
        let gap = metric("serve_mixed/pairs/before_wall_s_median")
            - metric("serve_mixed/pairs/after_wall_s_median");
        let spread = metric("serve_mixed/pairs/before_wall_s_q3")
            - metric("serve_mixed/pairs/before_wall_s_q1");
        assert!(
            gap > spread,
            "median gain {gap} within the parent's spread {spread}"
        );
        let (before, after) = (
            metric("serve_mixed/before/wall_s"),
            metric("serve_mixed/after/wall_s"),
        );
        assert!(
            (before / after - metric("serve_mixed/wall_speedup")).abs() < 0.01,
            "speedup ratio drifted"
        );
        assert!(
            metric("serve_mixed/after/cpu_s") < metric("serve_mixed/before/cpu_s"),
            "serve_mixed cpu_s did not fall"
        );

        // No end-to-end median got worse than its benchmark bound allows,
        // and no run failed.
        let bench = read("BENCHMARK.json");
        let bounds = bench
            .get("end_to_end")
            .and_then(Json::as_arr)
            .expect("end_to_end bounds");
        for workload in ["serve_mixed", "codesign_cold", "fixdf_zoo"] {
            assert_eq!(metric(&format!("{workload}/failed")), 0.0);
            for m in bounds {
                let name = m.get("name").and_then(Json::as_str).expect("name");
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                let before = metric(&format!("{workload}/before/{name}"));
                let after = metric(&format!("{workload}/after/{name}"));
                assert!(
                    after <= before * (1.0 + bound),
                    "{workload} {name}: {before} -> {after} exceeds its {bound} bound"
                );
            }
        }

        // The gain is the BO jobs': their per-class p50 falls, and each of
        // the eight served specs proposes faster with the same trace.
        for class in ["bayesian", "hypermapper"] {
            assert!(
                metric(&format!("serve_mixed/after/class_p50_s/{class}"))
                    < metric(&format!("serve_mixed/before/class_p50_s/{class}")),
                "{class} jobs did not get faster"
            );
        }
        assert_eq!(metric("propose/specs"), 8.0);
        assert_eq!(metric("propose/identical_traces"), 8.0);
        for technique in ["bayesian", "hypermapper"] {
            for seed in 1..=4 {
                let spec = format!("{technique}_{seed}_s");
                assert!(
                    metric(&format!("propose/after/{spec}"))
                        < metric(&format!("propose/before/{spec}")),
                    "{spec} did not fall"
                );
            }
        }
        assert!(
            metric("propose/after/sum_propose_s") < 0.5 * metric("propose/before/sum_propose_s")
        );

        // The same evaluations on both sides of the traced runs.
        for name in [
            "evaluate.points",
            "evaluate.layer_hits",
            "diskcache.appends",
        ] {
            assert_eq!(
                metric(&format!("serve_mixed/before/{name}")),
                metric(&format!("serve_mixed/after/{name}")),
                "{name} moved"
            );
        }

        // Work as counts (crates/baselines/src/bo.rs unit tests).
        assert_eq!(metric("factor_rows/budget100/before"), 4_760.0);
        assert_eq!(metric("factor_rows/budget100/after"), 99.0);
        assert_eq!(metric("factor_rows/budget150/before"), 10_550.0);
        assert_eq!(metric("factor_rows/budget150/after"), 3_600.0);
    }
}
