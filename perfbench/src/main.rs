//! One repetition of a library workload, run in a fresh process.
//!
//! `perfbench/run.py` spawns this binary once per repetition. The process
//! builds its models and evaluators, prints `ready` (the end of set-up, as
//! the parent times it), runs the timed searches, and prints one JSON line
//! with the timed phase's wall and CPU time, its peak RSS, every search's
//! result, and the state the numbers were measured in. With `--trace` the
//! evaluator and mapper are wrapped in span-recording decorators and the
//! line also carries the per-layer ledger.
//!
//! ```text
//! perfbench codesign_cold --seed N [--trace] [--spans-out PATH] [--setup-only]
//! perfbench fixdf_zoo     --seed N [--trace] [--spans-out PATH] [--setup-only]
//! perfbench jobs          < specs.jsonl    # served job specs, run in-process
//! perfbench diskopen DIR                   # time opening a disk cache
//! ```

mod ledger;
mod trace;

use baselines::{BaselineSession, RandomSearch};
use edse_core::bottleneck::dnn_latency_model;
use edse_core::space::edge_space;
use edse_core::{
    CancelToken, CodesignEvaluator, DiskCache, DseConfig, EvalEngine, Evaluator, JobSpec,
    SearchSession, StepOutcome,
};
use edse_telemetry::json::Json;
use edse_telemetry::Collector;
use mapper::{FixedMapper, LinearMapper, MappingOptimizer};
use std::io::{BufRead, Write};
use std::path::PathBuf;
use std::time::Instant;
use trace::{Kind, TracedEvaluator, TracedMapper};
use workloads::{zoo, DnnModel};

/// Fig. 10's codesign row: Explainable-DSE with the top-1000 linear mapper
/// on ResNet-18 at a fixed budget.
const CODESIGN_TOP_N: usize = 1000;
const CODESIGN_BUDGET: usize = 200;
/// The multi-workload fixed-dataflow searches over the whole zoo.
const FIXDF_EXPLAINABLE_BUDGET: usize = 300;
const FIXDF_RANDOM_BUDGET: usize = 500;

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    setup_only: bool,
    spans_out: Option<PathBuf>,
    rest: Vec<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let workload = argv.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 0,
        traced: false,
        setup_only: false,
        spans_out: None,
        rest: Vec::new(),
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--seed" => {
                args.seed = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seed needs an integer")?
            }
            "--trace" => args.traced = true,
            "--setup-only" => args.setup_only = true,
            "--spans-out" => {
                args.spans_out = Some(PathBuf::from(
                    argv.next().ok_or("--spans-out needs a path")?,
                ))
            }
            _ => args.rest.push(flag),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match args.workload.as_str() {
        "codesign_cold" => codesign_cold(&args),
        "fixdf_zoo" => fixdf_zoo(&args),
        "jobs" => jobs(),
        "diskopen" => diskopen(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    }
}

/// The result of one search: what the output check compares.
struct Outcome {
    name: &'static str,
    evaluations: usize,
    best: Option<(f64, Vec<usize>)>,
}

impl Outcome {
    fn to_json(&self) -> Json {
        let (bits, point) = match &self.best {
            Some((objective, point)) => (
                Json::Str(format!("{:016x}", objective.to_bits())),
                Json::Arr(point.iter().map(|&i| Json::Num(i as f64)).collect()),
            ),
            None => (Json::Null, Json::Null),
        };
        Json::obj(vec![
            ("search", Json::Str(self.name.to_string())),
            ("evaluations", Json::Num(self.evaluations as f64)),
            ("best_bits", bits),
            ("best_point", point),
        ])
    }
}

/// Explainable-DSE from the space's minimum point. Untraced runs call the
/// blocking `run`; traced runs drive the same search one `step()` at a
/// time (bit-identical by the library's own contract).
fn explainable<E: Evaluator>(
    name: &'static str,
    ev: &E,
    budget: usize,
    seed: u64,
    traced: bool,
) -> Outcome {
    let session = SearchSession::new(
        dnn_latency_model(),
        DseConfig {
            budget,
            seed,
            ..DseConfig::default()
        },
    )
    .evaluator(ev);
    let initial = ev.space().minimum_point();
    let result = if traced {
        trace::span(Kind::Search, 0, || {
            let mut driver = session.driver(initial);
            while trace::span(Kind::Step, 0, || driver.step()) == StepOutcome::Pending {}
            driver.finish()
        })
    } else {
        session.run(initial)
    };
    Outcome {
        name,
        evaluations: result.trace().evaluations(),
        best: result
            .best()
            .map(|(point, eval)| (eval.objective, point.indices().to_vec())),
    }
}

/// Random Search through `BaselineSession::run`, which never replays.
fn random_search<E: Evaluator>(
    name: &'static str,
    ev: &E,
    budget: usize,
    seed: u64,
    traced: bool,
) -> Outcome {
    let mut technique = RandomSearch::new(seed);
    let mut run = || BaselineSession::new(&mut technique).run(ev, budget);
    let trace = if traced {
        trace::span(Kind::Search, 0, || {
            trace::span(Kind::BaselineRun, 0, &mut run)
        })
    } else {
        run()
    };
    Outcome {
        name,
        evaluations: trace.evaluations(),
        best: trace
            .best_feasible()
            .map(|s| (s.objective, s.point.indices().to_vec())),
    }
}

fn evaluator<M: MappingOptimizer>(models: Vec<DnnModel>, mapper: M) -> CodesignEvaluator<M> {
    CodesignEvaluator::new(edge_space(), models, mapper)
}

/// Ends set-up: the parent timestamps this line.
fn ready(args: &Args) {
    let mut out = std::io::stdout().lock();
    writeln!(out, "ready").expect("stdout");
    out.flush().expect("stdout");
    if args.setup_only {
        std::process::exit(0);
    }
}

/// Process user+system CPU seconds, all threads (`/proc/self/stat`).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in USER_HZ (100 on Linux) ticks.
    let rest = &stat[stat.rfind(')').expect("stat format") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 =
        fields[11].parse::<u64>().expect("utime") + fields[12].parse::<u64>().expect("stime");
    ticks as f64 / 100.0
}

/// Peak resident set size in MiB (`VmHWM` of `/proc/self/status`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM");
    kib / 1024.0
}

/// What the timed phase measured, plus the state it was measured in.
struct Phase {
    wall_s: f64,
    cpu_s: f64,
    outcomes: Vec<Outcome>,
    memo_at_start: mapper::SpaceCacheStats,
}

fn timed(run: impl FnOnce() -> Vec<Outcome>) -> Phase {
    let memo_at_start = mapper::space_cache_stats();
    let cpu = cpu_seconds();
    let started = Instant::now();
    let outcomes = run();
    let wall_s = started.elapsed().as_secs_f64();
    Phase {
        wall_s,
        cpu_s: cpu_seconds() - cpu,
        outcomes,
        memo_at_start,
    }
}

fn state(phase: &Phase) -> Json {
    let memo = phase.memo_at_start;
    let cold = memo.hits + memo.misses + memo.inflight_waits == 0;
    Json::obj(vec![
        (
            "memo_at_start",
            Json::Str(if cold { "cold" } else { "warm" }.to_string()),
        ),
        ("disk_tier", Json::Str("none".to_string())),
        (
            "pool_budget",
            Json::Num(edse_executor::default_parallelism() as f64),
        ),
        (
            "pool_workers",
            Json::Num(edse_executor::Executor::global().workers() as f64),
        ),
        (
            "host_cpus",
            Json::Num(
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1) as f64,
            ),
        ),
        (
            "edse_test_threads",
            match std::env::var("EDSE_TEST_THREADS") {
                Ok(v) => Json::Str(v),
                Err(_) => Json::Null,
            },
        ),
    ])
}

fn report(args: &Args, phase: Phase, ledger: Option<Json>) {
    let mut fields = vec![
        ("workload", Json::Str(args.workload.clone())),
        ("seed", Json::Num(args.seed as f64)),
        ("wall_s", Json::Num(phase.wall_s)),
        ("cpu_s", Json::Num(phase.cpu_s)),
        ("peak_rss_mb", Json::Num(peak_rss_mib())),
        ("state", state(&phase)),
        (
            "searches",
            Json::Arr(phase.outcomes.iter().map(Outcome::to_json).collect()),
        ),
    ];
    if let Some(ledger) = ledger {
        fields.push(("ledger", ledger));
    }
    println!("{}", Json::obj(fields).to_line());
}

fn codesign_cold(args: &Args) {
    let models = vec![zoo::resnet18()];
    let mapper = LinearMapper::new(CODESIGN_TOP_N);
    if args.traced {
        let names = models[0]
            .unique_shapes()
            .into_iter()
            .map(|u| (u.shape, u.name))
            .collect();
        let ev = TracedEvaluator(evaluator(models, TracedMapper::new(mapper, true)));
        ready(args);
        let phase = timed(|| {
            vec![explainable(
                "explainable",
                &ev,
                CODESIGN_BUDGET,
                args.seed,
                true,
            )]
        });
        let ledger = ledger::library(ledger::Input {
            wall_s: phase.wall_s,
            caches: vec![ev.cache_stats()],
            shape_names: names,
            replay: Some(CODESIGN_TOP_N),
            spans_out: args.spans_out.clone(),
        });
        report(args, phase, Some(ledger));
    } else {
        let ev = evaluator(models, mapper);
        ready(args);
        let phase = timed(|| {
            vec![explainable(
                "explainable",
                &ev,
                CODESIGN_BUDGET,
                args.seed,
                false,
            )]
        });
        report(args, phase, None);
    }
}

fn fixdf_zoo(args: &Args) {
    let models = zoo::all_models();
    if args.traced {
        let dse = TracedEvaluator(evaluator(
            models.clone(),
            TracedMapper::new(FixedMapper, false),
        ));
        let random = TracedEvaluator(evaluator(models, TracedMapper::new(FixedMapper, false)));
        ready(args);
        let phase = timed(|| {
            vec![
                explainable(
                    "explainable",
                    &dse,
                    FIXDF_EXPLAINABLE_BUDGET,
                    args.seed,
                    true,
                ),
                random_search("random", &random, FIXDF_RANDOM_BUDGET, args.seed, true),
            ]
        });
        let ledger = ledger::library(ledger::Input {
            wall_s: phase.wall_s,
            caches: vec![dse.cache_stats(), random.cache_stats()],
            shape_names: Default::default(),
            replay: None,
            spans_out: args.spans_out.clone(),
        });
        report(args, phase, Some(ledger));
    } else {
        let dse = evaluator(models.clone(), FixedMapper);
        let random = evaluator(models, FixedMapper);
        ready(args);
        let phase = timed(|| {
            vec![
                explainable(
                    "explainable",
                    &dse,
                    FIXDF_EXPLAINABLE_BUDGET,
                    args.seed,
                    false,
                ),
                random_search("random", &random, FIXDF_RANDOM_BUDGET, args.seed, false),
            ]
        });
        report(args, phase, None);
    }
}

/// Runs served job specs (one JSON object per stdin line) to completion
/// through the service's own driver factory, in-process and without a disk
/// tier, and prints each job's result: the library-side reference the
/// served results are recorded from.
fn jobs() {
    for line in std::io::stdin().lock().lines() {
        let line = line.expect("read stdin");
        if line.trim().is_empty() {
            continue;
        }
        let spec = JobSpec::from_json_str(&line).unwrap_or_else(|e| {
            eprintln!("perfbench jobs: {e}");
            std::process::exit(2);
        });
        let mut driver = edse_serve::driver::build_driver(
            &spec,
            EvalEngine::default(),
            None,
            None,
            Collector::noop(),
            CancelToken::new(),
        )
        .unwrap_or_else(|e| {
            eprintln!("perfbench jobs: {e}");
            std::process::exit(2);
        });
        while driver.step() == StepOutcome::Pending {}
        println!("{}", driver.finish().to_line());
    }
}

/// Times `DiskCache::open` on an existing cache directory, the disk tier's
/// share of a restarted server's set-up.
fn diskopen(args: &Args) {
    let dir = args.rest.first().unwrap_or_else(|| {
        eprintln!("perfbench diskopen: missing directory");
        std::process::exit(2);
    });
    let started = Instant::now();
    let cache = DiskCache::open(dir).unwrap_or_else(|e| {
        eprintln!("perfbench diskopen: {e}");
        std::process::exit(1);
    });
    let open_s = started.elapsed().as_secs_f64();
    println!(
        "{}",
        Json::obj(vec![
            ("open_s", Json::Num(open_s)),
            ("entries", Json::Num(cache.stats().entries as f64)),
        ])
        .to_line()
    );
}
