//! Command-line handling shared by every figure/table binary.
//!
//! Historically each binary re-parsed its own flags; the logic now lives
//! here once, as [`BenchArgs::parse_from`] over a plain argument slice so
//! the parser is unit-testable without touching the process environment.
//! This is also where the checkpoint/resume flags (`--checkpoint`,
//! `--resume`, `--checkpoint-every`) are hosted, feeding
//! [`SessionOpts`] into the technique runners.

use edse_core::{DiskCache, JobSpec};
use edse_telemetry::{Collector, JsonlSink, Level, PrometheusSink, StderrSink};
use std::path::PathBuf;
use std::sync::Arc;
use workloads::{zoo, DnnModel};

/// Common experiment options parsed from the command line.
///
/// The job-shaped options — budget (`--iters`), mapping trials, seed,
/// models, and checkpoint/resume policy — live in the embedded
/// [`JobSpec`] (the same struct the `edse-serve` `POST /jobs` body
/// deserializes into); the remaining fields are harness concerns (cache
/// directory, output destinations, verbosity, presets).
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// The consolidated job description: evaluation budget, mapping
    /// trials, seed, model names, and checkpoint/resume policy.
    pub spec: JobSpec,
    /// Persistent disk-cache directory (`--cache-dir <path>`); `None`
    /// runs without a disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Whether the `--quick` preset was chosen.
    pub quick: bool,
    /// JSONL trace destination (`--trace-out <path>`); `None` keeps
    /// telemetry metrics off entirely.
    pub trace_out: Option<String>,
    /// Prometheus text-format metrics snapshot destination
    /// (`--metrics-out <path>`), rewritten at every collector flush —
    /// the scrape surface for dashboards. Activates metric collection
    /// like `--trace-out` does.
    pub metrics_out: Option<String>,
    /// Whether `--verbose` lowers the stderr log threshold to `Info`
    /// (progress chatter); the default shows only warnings and errors.
    pub verbose: bool,
    /// Machine-readable result destination (`--out <path>`), used by the
    /// binaries that support it (e.g. `fig04_toy_trace`).
    pub out: Option<String>,
    /// Structured [`crate::report::BenchReport`] destination
    /// (`--json <path>`); every figure/table binary supports it.
    pub json: Option<String>,
    /// Whether `--no-disk-cache` opts this run out of `--cache-dir`
    /// (useful when a wrapper script passes the directory
    /// unconditionally).
    pub no_disk_cache: bool,
    /// Diagnostics accumulated while parsing (unknown flags, missing
    /// values, conflicting paths); surfaced as `Warn` logs once
    /// [`BenchArgs::telemetry`] builds the collector.
    pub warnings: Vec<String>,
}

/// Checkpoint/resume and persistent-cache options carried from the CLI
/// into a technique run.
#[derive(Debug, Clone, Default)]
pub struct SessionOpts {
    /// Checkpoint file base path; `None` disables checkpointing.
    pub checkpoint: Option<PathBuf>,
    /// Whether to resume from an existing snapshot.
    pub resume: bool,
    /// Snapshot cadence (clamped to at least 1 at use sites).
    pub every: usize,
    /// The open persistent evaluation cache (`--cache-dir`), shared by
    /// every evaluator the run builds; `None` keeps evaluation purely
    /// in-memory.
    pub disk: Option<Arc<DiskCache>>,
    /// Why the disk tier is off although `--cache-dir` was requested
    /// (the directory could not be opened). Carried into every
    /// evaluator's [`edse_core::CacheStats::disk_error`] so the
    /// degradation stays visible beyond the startup warning.
    pub disk_error: Option<String>,
}

impl SessionOpts {
    /// The disabled options: no checkpointing, no resume.
    pub fn none() -> Self {
        SessionOpts::default()
    }

    /// The per-technique snapshot path: `<base>.<label>`, so several
    /// techniques sharing one `--checkpoint` base in a single binary
    /// don't clobber each other's snapshots.
    pub fn path_for(&self, label: &str) -> Option<PathBuf> {
        self.checkpoint.as_ref().map(|base| {
            let mut os = base.clone().into_os_string();
            os.push(".");
            os.push(label);
            PathBuf::from(os)
        })
    }
}

impl BenchArgs {
    /// Parses `--iters N --trials N --seed N --models a,b --quick --full
    /// --trace-out PATH --verbose --checkpoint PATH --resume
    /// --checkpoint-every K --out PATH --json PATH --cache-dir PATH
    /// --no-disk-cache` from an argument slice (without the program
    /// name).
    ///
    /// `default_iters` applies to the full setting; `--quick` divides the
    /// budgets so every experiment finishes in minutes on a laptop. Quick
    /// is the default; pass `--full` for paper-scale budgets.
    ///
    /// Parsing never fails: unknown flags, value-taking flags missing
    /// their value, numeric flags whose value does not parse, `--resume`
    /// without `--checkpoint`, and `--json` colliding with
    /// `--out`/`--trace-out` all land in
    /// [`BenchArgs::warnings`] (logged at `Warn` by
    /// [`BenchArgs::telemetry`]) while the run proceeds on defaults.
    pub fn parse_from<S: AsRef<str>>(argv: &[S], default_iters: usize) -> Self {
        let mut args = Self {
            spec: JobSpec {
                budget: default_iters,
                map_trials: 10_000,
                seed: 1,
                ..JobSpec::default()
            },
            cache_dir: None,
            quick: true,
            trace_out: None,
            metrics_out: None,
            verbose: false,
            out: None,
            json: None,
            no_disk_cache: false,
            warnings: Vec::new(),
        };
        // Reads the value of the flag at `argv[i]`; warns when the
        // argument list ends before the value.
        fn take<S: AsRef<str>>(argv: &[S], i: usize, warnings: &mut Vec<String>) -> Option<String> {
            let v = argv.get(i + 1).map(|v| v.as_ref().to_string());
            if v.is_none() {
                warnings.push(format!(
                    "flag {} needs a value, using the default",
                    argv[i].as_ref()
                ));
            }
            v
        }
        // `take` for a numeric flag; also warns when the value does not
        // parse.
        fn take_num<S: AsRef<str>, T: std::str::FromStr>(
            argv: &[S],
            i: usize,
            warnings: &mut Vec<String>,
        ) -> Option<T> {
            let v = take(argv, i, warnings)?;
            let n = v.parse().ok();
            if n.is_none() {
                warnings.push(format!(
                    "flag {} cannot use the value `{v}`, using the default",
                    argv[i].as_ref()
                ));
            }
            n
        }
        let mut explicit_iters = None;
        let mut explicit_trials = None;
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_ref() {
                "--iters" => {
                    explicit_iters = take_num(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--trials" => {
                    explicit_trials = take_num(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--seed" => {
                    args.spec.seed = take_num(argv, i, &mut args.warnings).unwrap_or(1);
                    i += 1;
                }
                "--models" => {
                    args.spec.models = take(argv, i, &mut args.warnings)
                        .map(|v| v.split(',').map(|s| s.trim().to_string()).collect())
                        .unwrap_or_default();
                    i += 1;
                }
                "--trace-out" => {
                    args.trace_out = take(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--metrics-out" => {
                    args.metrics_out = take(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--checkpoint" => {
                    args.spec.checkpoint = take(argv, i, &mut args.warnings).map(PathBuf::from);
                    i += 1;
                }
                "--checkpoint-every" => {
                    args.spec.checkpoint_every =
                        take_num(argv, i, &mut args.warnings).unwrap_or(10);
                    i += 1;
                }
                "--out" => {
                    args.out = take(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--json" => {
                    args.json = take(argv, i, &mut args.warnings);
                    i += 1;
                }
                "--cache-dir" => {
                    args.cache_dir = take(argv, i, &mut args.warnings).map(PathBuf::from);
                    i += 1;
                }
                "--no-disk-cache" => args.no_disk_cache = true,
                "--resume" => args.spec.resume = true,
                "--verbose" => args.verbose = true,
                "--full" => args.quick = false,
                "--quick" => args.quick = true,
                other => args
                    .warnings
                    .push(format!("ignoring unknown argument {other}")),
            }
            i += 1;
        }
        if args.quick {
            args.spec.budget = default_iters.div_ceil(10).max(30);
            args.spec.map_trials = 300;
        }
        if let Some(v) = explicit_iters {
            args.spec.budget = v;
        }
        if let Some(v) = explicit_trials {
            args.spec.map_trials = v;
        }
        if args.spec.resume && args.spec.checkpoint.is_none() {
            args.warnings
                .push("--resume has no effect without --checkpoint".into());
        }
        if args.no_disk_cache && args.cache_dir.is_none() {
            args.warnings
                .push("--no-disk-cache has no effect without --cache-dir".into());
        }
        for (flag, other) in [("--out", &args.out), ("--trace-out", &args.trace_out)] {
            if args.json.is_some() && args.json == *other {
                args.warnings.push(format!(
                    "--json and {flag} point at the same file; the later writer clobbers it"
                ));
            }
        }
        args
    }

    /// Parses from the process arguments (see [`BenchArgs::parse_from`]).
    pub fn parse(default_iters: usize) -> Self {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        Self::parse_from(&argv, default_iters)
    }

    /// The checkpoint/resume and persistent-cache options for this run's
    /// technique sessions. Opens the `--cache-dir` store (once — call
    /// this once per process and share the result, not once per
    /// technique), wiring its telemetry through `telemetry`; a directory
    /// that cannot be opened degrades to no disk tier with a `Warn` log
    /// rather than failing the run.
    pub fn session_opts(&self, telemetry: &Collector) -> SessionOpts {
        let (disk, disk_error) = match (&self.cache_dir, self.no_disk_cache) {
            (Some(dir), false) => match DiskCache::open_with(dir, telemetry.clone()) {
                Ok(cache) => (Some(Arc::new(cache)), None),
                Err(e) => {
                    let msg = format!(
                        "cannot open cache dir {}: {e}; running without a disk cache",
                        dir.display()
                    );
                    telemetry.log(Level::Warn, &msg);
                    (None, Some(msg))
                }
            },
            _ => (None, None),
        };
        SessionOpts {
            checkpoint: self.spec.checkpoint.clone(),
            resume: self.spec.resume,
            every: self.spec.checkpoint_every,
            disk,
            disk_error,
        }
    }

    /// Builds the run's telemetry collector from the parsed flags:
    /// a [`JsonlSink`] when `--trace-out` was given and a
    /// [`PrometheusSink`] when `--metrics-out` was given (either
    /// activates metrics), plus a [`StderrSink`] at `Warn` (or `Info`
    /// with `--verbose`) so warnings stay visible while progress chatter
    /// is opt-in. Exits with an error when the trace file cannot be
    /// created.
    pub fn telemetry(&self) -> Collector {
        let mut builder = Collector::builder();
        if let Some(path) = &self.trace_out {
            match JsonlSink::create(std::path::Path::new(path)) {
                Ok(sink) => builder = builder.sink(sink),
                Err(e) => {
                    eprintln!("cannot create trace file {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        if let Some(path) = &self.metrics_out {
            builder = builder.sink(PrometheusSink::new(std::path::Path::new(path)));
        }
        let level = if self.verbose {
            Level::Info
        } else {
            Level::Warn
        };
        let collector = builder.sink(StderrSink::new(level)).build();
        for warning in &self.warnings {
            collector.log(Level::Warn, warning);
        }
        collector
    }

    /// The models this run targets: `--models` if given, else `fallback`.
    /// Unknown names are skipped with a `Warn` log.
    pub fn models_or(&self, telemetry: &Collector, fallback: Vec<DnnModel>) -> Vec<DnnModel> {
        if self.spec.models.is_empty() {
            return fallback;
        }
        self.spec
            .models
            .iter()
            .filter_map(|name| {
                let m = zoo::by_name(name);
                if m.is_none() {
                    telemetry.log(Level::Warn, &format!("unknown model {name}, skipping"));
                }
                m
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn defaults_apply_the_quick_preset() {
        let a = BenchArgs::parse_from(&[] as &[&str], 2500);
        assert!(a.quick);
        assert_eq!(a.spec.budget, 250);
        assert_eq!(a.spec.map_trials, 300);
        assert_eq!(a.spec.seed, 1);
        assert!(a.spec.checkpoint.is_none() && !a.spec.resume);
        assert_eq!(a.spec.checkpoint_every, 10);
        assert!(a.warnings.is_empty());
    }

    #[test]
    fn quick_floor_keeps_tiny_experiments_meaningful() {
        assert_eq!(BenchArgs::parse_from(&[] as &[&str], 80).spec.budget, 30);
    }

    #[test]
    fn full_restores_paper_scale_budgets() {
        let a = BenchArgs::parse_from(&["--full"], 2500);
        assert!(!a.quick);
        assert_eq!(a.spec.budget, 2500);
        assert_eq!(a.spec.map_trials, 10_000);
    }

    #[test]
    fn explicit_values_override_the_preset() {
        let a = BenchArgs::parse_from(&["--iters", "42", "--trials", "7", "--seed", "9"], 2500);
        assert_eq!((a.spec.budget, a.spec.map_trials, a.spec.seed), (42, 7, 9));
        // Order should not matter: preset flags after the explicit value
        // must not clobber it.
        let a = BenchArgs::parse_from(&["--iters", "42", "--quick"], 2500);
        assert_eq!(a.spec.budget, 42);
    }

    #[test]
    fn models_split_on_commas_and_trim() {
        let a = BenchArgs::parse_from(&["--models", "resnet18, mobilenet_v2"], 100);
        assert_eq!(a.spec.models, vec!["resnet18", "mobilenet_v2"]);
    }

    #[test]
    fn checkpoint_flags_feed_session_opts() {
        let a = BenchArgs::parse_from(
            &[
                "--checkpoint",
                "/tmp/run.ckpt",
                "--resume",
                "--checkpoint-every",
                "3",
                "--out",
                "result.json",
            ],
            100,
        );
        assert_eq!(
            a.spec.checkpoint.as_deref(),
            Some(Path::new("/tmp/run.ckpt"))
        );
        assert!(a.spec.resume);
        assert_eq!(a.spec.checkpoint_every, 3);
        assert_eq!(a.out.as_deref(), Some("result.json"));

        let opts = a.session_opts(&Collector::noop());
        assert_eq!(
            opts.path_for("explainable-fixdf"),
            Some(PathBuf::from("/tmp/run.ckpt.explainable-fixdf"))
        );
        assert!(opts.resume);
        assert_eq!(opts.every, 3);
        assert!(opts.disk.is_none(), "no --cache-dir, no disk tier");
        assert_eq!(SessionOpts::none().path_for("x"), None);
    }

    #[test]
    fn cache_dir_opens_a_shared_disk_tier() {
        let dir = std::env::temp_dir().join(format!("edse-cli-cache-{}", std::process::id()));
        let dir_s = dir.to_str().unwrap().to_string();
        let a = BenchArgs::parse_from(&["--cache-dir", &dir_s], 100);
        assert_eq!(a.cache_dir.as_deref(), Some(Path::new(&dir_s)));
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
        let opts = a.session_opts(&Collector::noop());
        assert!(opts.disk.is_some());

        // --no-disk-cache wins over --cache-dir without warning (wrapper
        // scripts pass the directory unconditionally).
        let a = BenchArgs::parse_from(&["--cache-dir", &dir_s, "--no-disk-cache"], 100);
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
        assert!(a.session_opts(&Collector::noop()).disk.is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_disk_cache_without_cache_dir_warns() {
        let a = BenchArgs::parse_from(&["--no-disk-cache"], 100);
        assert_eq!(a.warnings.len(), 1);
        assert!(
            a.warnings[0].contains("--no-disk-cache has no effect without --cache-dir"),
            "{:?}",
            a.warnings
        );
    }

    #[test]
    fn unopenable_cache_dir_degrades_to_no_disk_tier() {
        // A file (not a directory) at the path makes open fail.
        let path = std::env::temp_dir().join(format!("edse-cli-notadir-{}", std::process::id()));
        std::fs::write(&path, b"occupied").unwrap();
        let a = BenchArgs::parse_from(&["--cache-dir", path.to_str().unwrap()], 100);
        let opts = a.session_opts(&Collector::noop());
        assert!(opts.disk.is_none(), "open failure must degrade, not panic");
        // The degradation is not silent: the reason rides along so every
        // evaluator built from these options reports it in cache_stats().
        let err = opts.disk_error.as_deref().expect("disk_error recorded");
        assert!(err.contains("cannot open cache dir"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn unknown_flags_are_collected_not_fatal() {
        let a = BenchArgs::parse_from(&["--bogus", "--iters", "10"], 100);
        assert_eq!(a.spec.budget, 10);
        assert_eq!(a.warnings.len(), 1);
        assert!(a.warnings[0].contains("--bogus"));
    }

    #[test]
    fn missing_value_falls_back_to_defaults_with_a_warning() {
        let a = BenchArgs::parse_from(&["--seed"], 100);
        assert_eq!(a.spec.seed, 1);
        assert_eq!(a.warnings.len(), 1);
        assert!(
            a.warnings[0].contains("--seed needs a value"),
            "{:?}",
            a.warnings
        );

        let a = BenchArgs::parse_from(&["--checkpoint-every"], 100);
        assert_eq!(a.spec.checkpoint_every, 10);
        assert!(a.warnings[0].contains("--checkpoint-every needs a value"));

        for flag in [
            "--iters",
            "--trials",
            "--models",
            "--trace-out",
            "--metrics-out",
            "--checkpoint",
            "--out",
            "--json",
            "--cache-dir",
        ] {
            let a = BenchArgs::parse_from(&[flag], 100);
            assert!(
                a.warnings.iter().any(|w| w.contains("needs a value")),
                "{flag} with no value must warn, got {:?}",
                a.warnings
            );
        }
    }

    #[test]
    fn unparseable_numbers_fall_back_to_defaults_with_a_warning() {
        for (argv, default) in [
            (["--iters", "25OO"], 250),
            (["--trials", "x"], 300),
            (["--seed", "-1"], 1),
            (["--checkpoint-every", "k"], 10),
        ] {
            let a = BenchArgs::parse_from(&argv, 2500);
            let got = match argv[0] {
                "--iters" => a.spec.budget,
                "--trials" => a.spec.map_trials,
                "--seed" => a.spec.seed as usize,
                _ => a.spec.checkpoint_every,
            };
            assert_eq!(got, default, "{argv:?}");
            assert_eq!(a.warnings.len(), 1, "{argv:?}: {:?}", a.warnings);
            let expected = format!("flag {} cannot use the value `{}`", argv[0], argv[1]);
            assert!(a.warnings[0].contains(&expected), "{:?}", a.warnings);
        }
    }

    #[test]
    fn json_flag_parses_like_the_other_output_flags() {
        let a = BenchArgs::parse_from(&["--json", "report.json"], 100);
        assert_eq!(a.json.as_deref(), Some("report.json"));
        assert!(a.warnings.is_empty());
        assert!(BenchArgs::parse_from(&[] as &[&str], 100).json.is_none());
    }

    #[test]
    fn metrics_out_flag_parses_and_activates_metrics() {
        let a = BenchArgs::parse_from(&["--metrics-out", "run.prom"], 100);
        assert_eq!(a.metrics_out.as_deref(), Some("run.prom"));
        assert!(a.warnings.is_empty());
        assert!(BenchArgs::parse_from(&[] as &[&str], 100)
            .metrics_out
            .is_none());

        // --metrics-out alone (no --trace-out) must switch metric
        // collection on: the Prometheus snapshot is the point.
        let dir = std::env::temp_dir().join(format!("edse-cli-metrics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("m.prom");
        let a = BenchArgs::parse_from(&["--metrics-out", path.to_str().unwrap()], 100);
        let t = a.telemetry();
        assert!(t.active());
        t.counter("probe", 1);
        t.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("edse_probe 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_checkpoint_warns() {
        let a = BenchArgs::parse_from(&["--resume"], 100);
        assert!(a.spec.resume && a.spec.checkpoint.is_none());
        assert_eq!(a.warnings.len(), 1);
        assert!(
            a.warnings[0].contains("--resume has no effect without --checkpoint"),
            "{:?}",
            a.warnings
        );
        // With a checkpoint the combination is legitimate.
        let a = BenchArgs::parse_from(&["--resume", "--checkpoint", "x.ckpt"], 100);
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
    }

    #[test]
    fn json_colliding_with_out_or_trace_out_warns() {
        let a = BenchArgs::parse_from(&["--json", "same.json", "--out", "same.json"], 100);
        assert_eq!(a.warnings.len(), 1);
        assert!(
            a.warnings[0].contains("--json and --out"),
            "{:?}",
            a.warnings
        );

        let a = BenchArgs::parse_from(&["--json", "t.jsonl", "--trace-out", "t.jsonl"], 100);
        assert_eq!(a.warnings.len(), 1);
        assert!(
            a.warnings[0].contains("--json and --trace-out"),
            "{:?}",
            a.warnings
        );

        // Distinct paths coexist silently.
        let a = BenchArgs::parse_from(
            &[
                "--json",
                "r.json",
                "--out",
                "o.json",
                "--trace-out",
                "t.jsonl",
            ],
            100,
        );
        assert!(a.warnings.is_empty(), "{:?}", a.warnings);
        assert_eq!(a.json.as_deref(), Some("r.json"));
        assert_eq!(a.out.as_deref(), Some("o.json"));
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
    }
}
