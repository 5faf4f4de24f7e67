//! Experiment harness shared by the figure/table-regenerating binaries.
//!
//! Every binary in `src/bin/` reproduces one table or figure of the
//! paper's evaluation (see DESIGN.md's experiment index). This library
//! provides the common pieces: CLI argument handling with a `--quick`
//! preset, the [`Harness`] that builds evaluators over the command line's
//! disk tier and runs techniques, the technique registry
//! (every baseline plus Explainable-DSE, each in the fixed-dataflow and
//! codesign settings), and plain-text table rendering so each binary
//! prints the same rows/series the paper reports.

use edse_core::cost::Trace;
use edse_core::evaluate::{CodesignEvaluator, Evaluator};
use edse_core::space::{edge_space, DesignSpace};
use edse_core::{DiskCache, DseResult, DseTechnique, SearchDriver};
use edse_telemetry::{Collector, Level};
use mapper::{FixedMapper, LinearMapper, MappingOptimizer, RandomMapper};
use std::sync::Arc;
use workloads::DnnModel;

pub mod cli;
pub mod report;
pub mod tracefile;
pub use cli::BenchArgs;
pub use report::{BenchReport, TraceSummary};
pub use tracefile::{load_events, TraceError};

/// Logs `message` as an error and ends the process with exit status 1:
/// how a bench binary reports a mistake in its input. The collector is
/// flushed first, because `exit` runs no destructor that would write out
/// a buffered `--trace-out` file.
pub fn fail(telemetry: &Collector, message: &str) -> ! {
    telemetry.log(Level::Error, message);
    telemetry.flush();
    std::process::exit(1)
}

/// What every run of one bench process shares: the telemetry collector
/// and the disk tier. Build it once in `main`. Rerunning a binary with the
/// same `--cache-dir` resumes an interrupted run: every layer outcome it
/// persisted is read back instead of mapped, and the output is
/// bit-identical to an uninterrupted run's.
pub struct Harness {
    telemetry: Collector,
    /// The open disk tier, `Ok(None)` without one, or why the directory
    /// could not be opened.
    disk: Result<Option<Arc<DiskCache>>, String>,
}

impl Harness {
    /// Opens the process's disk tier, the `--cache-dir` store (once;
    /// every evaluator the harness builds shares it), wiring its telemetry
    /// through `telemetry`. A directory that cannot be opened degrades to
    /// no disk tier with a `Warn` log rather than failing the run.
    pub fn new(args: &BenchArgs, telemetry: &Collector) -> Self {
        let dir = args.cache_dir.as_ref().filter(|_| !args.no_disk_cache);
        let disk = match dir {
            Some(dir) => match DiskCache::open_with(dir, telemetry.clone()) {
                Ok(cache) => Ok(Some(Arc::new(cache))),
                Err(e) => {
                    let msg = format!(
                        "cannot open cache dir {}: {e}; running without a disk cache",
                        dir.display()
                    );
                    telemetry.log(Level::Warn, &msg);
                    Err(msg)
                }
            },
            None => Ok(None),
        };
        Harness {
            telemetry: telemetry.clone(),
            disk,
        }
    }

    /// An evaluator that reports to the harness's collector and warm-starts
    /// layer mappings from its disk tier. When `--cache-dir` could not be
    /// opened, the evaluator's [`edse_core::CacheStats::disk_error`] says
    /// why, so the degradation stays visible beyond the startup warning.
    pub fn evaluator<M: MappingOptimizer>(
        &self,
        space: DesignSpace,
        models: Vec<DnnModel>,
        mapper: M,
    ) -> CodesignEvaluator<M> {
        let evaluator =
            CodesignEvaluator::new(space, models, mapper).with_telemetry(self.telemetry.clone());
        match &self.disk {
            Ok(Some(disk)) => evaluator.with_disk_cache(disk.clone()),
            Ok(None) => evaluator,
            Err(e) => evaluator.with_disk_cache_error(e.clone()),
        }
    }

    /// Runs `technique` on `evaluator` for `budget` evaluations through
    /// [`SearchDriver`], then flushes the collector so each run snapshots
    /// its own counter traffic into the trace.
    pub fn run(
        &self,
        technique: Box<dyn DseTechnique + '_>,
        evaluator: &dyn Evaluator,
        budget: usize,
    ) -> DseResult {
        let result = SearchDriver::new(technique, evaluator, budget)
            .telemetry(self.telemetry.clone())
            .run_to_completion();
        self.telemetry.flush();
        result
    }
}

/// How mappings are obtained during hardware exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MapperKind {
    /// The fixed optimized output-stationary dataflow (the paper's
    /// "-FixDF" setting).
    FixedDataflow,
    /// Tightly coupled codesign via the pruned-space linear mapper with a
    /// top-`N` budget.
    Linear(usize),
    /// Timeloop-style random mapping search with the given trials (the
    /// paper's black-box codesign setting).
    Random(usize),
}

impl MapperKind {
    fn build(self, seed: u64) -> Box<dyn MappingOptimizer> {
        match self {
            MapperKind::FixedDataflow => Box::new(FixedMapper),
            MapperKind::Linear(n) => Box::new(LinearMapper::new(n)),
            MapperKind::Random(trials) => Box::new(RandomMapper::new(trials, seed)),
        }
    }

    /// Suffix used in technique labels (`-fixdf` / `-codesign`).
    pub fn suffix(self) -> &'static str {
        match self {
            MapperKind::FixedDataflow => "-fixdf",
            _ => "-codesign",
        }
    }
}

/// The DSE techniques of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TechniqueKind {
    /// Grid search (non-feedback).
    Grid,
    /// Random search (non-feedback).
    Random,
    /// Simulated annealing.
    Annealing,
    /// Genetic algorithm.
    Genetic,
    /// Vanilla Bayesian optimization.
    Bayesian,
    /// HyperMapper-2.0-style constrained Bayesian optimization.
    HyperMapper,
    /// Confuciux-style constrained RL.
    Rl,
    /// Explainable-DSE (this paper).
    Explainable,
}

impl TechniqueKind {
    /// All techniques in the paper's row order.
    pub const ALL: [TechniqueKind; 8] = [
        TechniqueKind::Grid,
        TechniqueKind::Random,
        TechniqueKind::Annealing,
        TechniqueKind::Genetic,
        TechniqueKind::Bayesian,
        TechniqueKind::HyperMapper,
        TechniqueKind::Rl,
        TechniqueKind::Explainable,
    ];

    /// Paper-style row label, e.g. `"HyperMapper 2.0"`.
    pub fn label(self) -> &'static str {
        match self {
            TechniqueKind::Grid => "Grid Search",
            TechniqueKind::Random => "Random Search",
            TechniqueKind::Annealing => "Simulated Annealing",
            TechniqueKind::Genetic => "Genetic Algorithm",
            TechniqueKind::Bayesian => "Bayesian Optimization",
            TechniqueKind::HyperMapper => "HyperMapper 2.0",
            TechniqueKind::Rl => "Reinforcement Learning",
            TechniqueKind::Explainable => "Explainable-DSE",
        }
    }

    /// Technique name, as in traces and
    /// [`edse_core::JobSpec::technique`], e.g. `"hypermapper"`;
    /// [`baselines::by_name`] builds the technique from it.
    pub fn name(self) -> &'static str {
        match self {
            TechniqueKind::Grid => "grid",
            TechniqueKind::Random => "random",
            TechniqueKind::Annealing => "annealing",
            TechniqueKind::Genetic => "genetic",
            TechniqueKind::Bayesian => "bayesian",
            TechniqueKind::HyperMapper => "hypermapper",
            TechniqueKind::Rl => "rl",
            TechniqueKind::Explainable => "explainable",
        }
    }
}

/// Runs one technique of the paper's comparison on one model over the
/// edge space, through [`Harness::run`]: Explainable-DSE emits its
/// per-attempt iteration records, a black-box baseline one comparable
/// record per sample, and the evaluator reports cache and stage metrics.
/// The trace is labelled `<technique><suffix>`. The result's
/// [`DseResult::converged_after`] is empty for a black box.
pub fn run_technique(
    harness: &Harness,
    kind: TechniqueKind,
    mapper: MapperKind,
    model: &DnnModel,
    budget: usize,
    seed: u64,
) -> DseResult {
    let evaluator = harness.evaluator(edge_space(), vec![model.clone()], mapper.build(seed));
    let technique = baselines::by_name(kind.name(), seed).expect("every kind is registered");
    let label = format!("{}{}", kind.name(), mapper.suffix());
    harness.run(technique, &evaluator, budget).labelled(label)
}

/// Formats a latency cell the way Table 2 does: the value, `-` when no
/// feasible design was found, and `-*` when not even area/power were met.
pub fn latency_cell(trace: &Trace, constraints: &[edse_core::Constraint]) -> String {
    match trace.best_feasible() {
        Some(s) => format!("{:.1}", s.objective),
        None => {
            let any_area_power = trace.samples.iter().any(|s| {
                s.constraint_values
                    .iter()
                    .zip(constraints)
                    .take(2)
                    .all(|(v, c)| c.satisfied(*v))
            });
            if any_area_power {
                "-".into()
            } else {
                "-*".into()
            }
        }
    }
}

/// Prints a plain-text table: header row then aligned data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>width$}", width = w))
            .collect();
        println!("{}", parts.join("  "));
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// The paper's edge constraints for a workload set (used for reporting).
pub fn constraints_for(models: &[DnnModel]) -> Vec<edse_core::Constraint> {
    let evaluator = CodesignEvaluator::new(edge_space(), models.to_vec(), FixedMapper);
    evaluator.constraints().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::zoo;

    fn harness(argv: &[&str], telemetry: &Collector) -> Harness {
        Harness::new(&BenchArgs::parse_from(argv, 100), telemetry)
    }

    #[test]
    fn technique_registry_runs_every_kind_briefly() {
        let harness = harness(&[], &Collector::noop());
        for kind in TechniqueKind::ALL {
            let result = run_technique(
                &harness,
                kind,
                MapperKind::FixedDataflow,
                &zoo::resnet18(),
                8,
                3,
            );
            let t = result.trace();
            assert!(t.evaluations() <= 8, "{:?}", kind);
            assert!(t.technique.ends_with("-fixdf"));
        }
    }

    #[test]
    fn latency_cell_distinguishes_failure_modes() {
        let result = run_technique(
            &harness(&[], &Collector::noop()),
            TechniqueKind::Explainable,
            MapperKind::FixedDataflow,
            &zoo::resnet18(),
            60,
            3,
        );
        let constraints = constraints_for(&[zoo::resnet18()]);
        let cell = latency_cell(result.trace(), &constraints);
        assert!(!cell.is_empty());
    }

    #[test]
    fn args_quick_preset_scales_down() {
        let a = BenchArgs::parse_from(&[] as &[&str], 2500);
        assert!(a.quick);
        assert_eq!(a.models_or(vec![zoo::resnet18()]).unwrap().len(), 1);
    }

    #[test]
    fn run_technique_streams_a_complete_trace() {
        use edse_telemetry::{Event, MemorySink};
        let sink = MemorySink::new();
        let collector = Collector::builder().sink(sink.clone()).build();
        let result = run_technique(
            &harness(&[], &collector),
            TechniqueKind::Explainable,
            MapperKind::FixedDataflow,
            &zoo::resnet18(),
            12,
            3,
        );
        assert!(result.trace().evaluations() <= 12);
        let events = sink.events();
        assert!(events.iter().any(|e| matches!(e, Event::Iteration { .. })));
        assert!(events.iter().any(|e| matches!(e, Event::Counters { .. })));
        // Every run ends in a flush, so the point-cache traffic snapshot
        // is present with real misses recorded.
        let misses: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::Counters { deltas, .. } => Some(
                    deltas
                        .iter()
                        .filter(|(k, _)| k.starts_with("point_cache/") && k.ends_with("/miss"))
                        .map(|(_, v)| *v)
                        .sum::<u64>(),
                ),
                _ => None,
            })
            .sum();
        assert!(misses > 0, "flush must snapshot point-cache misses");
    }

    #[test]
    fn cache_dir_opens_a_shared_disk_tier() {
        let dir = std::env::temp_dir().join(format!("edse-cli-cache-{}", std::process::id()));
        assert!(matches!(harness(&[], &Collector::noop()).disk, Ok(None)));
        let dir_s = dir.to_str().unwrap();
        let a = BenchArgs::parse_from(&["--cache-dir", dir_s], 100);
        assert_eq!(a.cache_dir.as_deref(), Some(dir.as_path()));
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
        let h = Harness::new(&a, &Collector::noop());
        let ev = h.evaluator(edge_space(), vec![zoo::resnet18()], FixedMapper);
        assert!(ev.cache_stats().disk.is_some());

        // --no-disk-cache wins over --cache-dir without warning (wrapper
        // scripts pass the directory unconditionally).
        let a = BenchArgs::parse_from(&["--cache-dir", dir_s, "--no-disk-cache"], 100);
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
        assert!(matches!(
            Harness::new(&a, &Collector::noop()).disk,
            Ok(None)
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unopenable_cache_dir_degrades_to_no_disk_tier() {
        // A file (not a directory) at the path makes open fail.
        let path = std::env::temp_dir().join(format!("edse-cli-notadir-{}", std::process::id()));
        std::fs::write(&path, b"occupied").unwrap();
        let h = harness(&["--cache-dir", path.to_str().unwrap()], &Collector::noop());
        // The degradation is not silent: every evaluator the harness
        // builds reports the reason in cache_stats().
        let stats = h
            .evaluator(edge_space(), vec![zoo::resnet18()], FixedMapper)
            .cache_stats();
        assert!(stats.disk.is_none(), "open failure must degrade, not panic");
        let err = stats.disk_error.as_deref().expect("disk_error recorded");
        assert!(err.contains("cannot open cache dir"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
