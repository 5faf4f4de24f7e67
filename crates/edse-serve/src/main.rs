//! `edse-serve` binary: flag parsing and shared-resource setup; the
//! routes and the scheduler live in the library.

use edse_core::evaluate::EvalEngine;
use edse_core::DiskCache;
use edse_serve::jobs::Registry;
use edse_serve::server::Server;
use edse_telemetry::{Collector, Event, Sink};
use std::path::PathBuf;
use std::sync::Arc;

/// Keeps the server [`Collector`] metrics-active (counters and
/// histograms aggregate in the collector itself) without buffering any
/// events — the scrape surface is `GET /metrics`, not a sink.
struct MetricsOnlySink;

impl Sink for MetricsOnlySink {
    fn record(&self, _event: &Event) {}
}

struct Args {
    port: u16,
    threads: usize,
    http_threads: usize,
    eval_threads: Option<usize>,
    cache_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 8080,
        threads: 2,
        http_threads: 4,
        eval_threads: None,
        cache_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--port" => {
                args.port = value("--port")?
                    .parse()
                    .map_err(|e| format!("--port: {e}"))?
            }
            "--threads" => {
                args.threads = value("--threads")?
                    .parse()
                    .map_err(|e| format!("--threads: {e}"))?
            }
            "--http-threads" => {
                args.http_threads = value("--http-threads")?
                    .parse()
                    .map_err(|e| format!("--http-threads: {e}"))?
            }
            "--eval-threads" => {
                args.eval_threads = Some(
                    value("--eval-threads")?
                        .parse()
                        .map_err(|e| format!("--eval-threads: {e}"))?,
                )
            }
            "--cache-dir" => args.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--help" | "-h" => {
                println!(
                    "edse-serve: multi-tenant DSE-as-a-service\n\n\
                     USAGE: edse-serve [--port N] [--threads N] [--http-threads N]\n\
                            [--eval-threads N] [--cache-dir DIR]\n\n\
                     --port N          listen port (default 8080; 0 = ephemeral)\n\
                     --threads N       scheduler worker threads leasing job steps\n\
                     \u{20}                 (default 2); evaluation itself runs on the\n\
                     \u{20}                 process-wide executor pool shared by all tenants\n\
                     --http-threads N  HTTP handler threads (default 4); a client that\n\
                     \u{20}                 keeps an event stream open holds one, also\n\
                     \u{20}                 while its job is paused or queued\n\
                     --eval-threads N  per-step evaluation-engine budget on the shared\n\
                     \u{20}                 pool (default: all cores, bounded by\n\
                     \u{20}                 EDSE_TEST_THREADS; 1 = serial)\n\
                     --cache-dir DIR   shared persistent evaluation cache; submitting\n\
                     \u{20}                 a killed or cancelled job's spec again to a\n\
                     \u{20}                 server on the same DIR resumes it"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (try --help)")),
        }
    }
    Ok(args)
}

/// Builds the shared engine/disk/registry from the flags and starts the
/// server. An unopenable `--cache-dir` degrades to cacheless with the
/// error surfaced in every job's status, not a fatal exit.
fn start(args: &Args, addr: &str) -> std::io::Result<Server> {
    // The default engine rides the process-wide executor pool (its budget
    // resolves to available parallelism, bounded by EDSE_TEST_THREADS like
    // the pool itself), so concurrent tenants' batches interleave at chunk
    // granularity instead of serializing whole steps.
    let engine = match args.eval_threads {
        None => EvalEngine::default(),
        Some(n) => EvalEngine::with_threads(n),
    };
    let telemetry = Collector::builder().sink(MetricsOnlySink).build();
    let (disk, disk_error) = match &args.cache_dir {
        None => (None, None),
        Some(dir) => match DiskCache::open_with(dir, telemetry.clone()) {
            Ok(cache) => (Some(Arc::new(cache)), None),
            Err(e) => {
                eprintln!(
                    "warning: cache dir {}: {e}; continuing without a disk cache",
                    dir.display()
                );
                (None, Some(e))
            }
        },
    };
    let registry = Registry::new(engine, disk, disk_error, telemetry);
    let workers = registry.spawn_workers(args.threads);
    Server::start(addr, args.http_threads, registry, workers)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let addr = format!("0.0.0.0:{}", args.port);
    match start(&args, &addr) {
        Ok(server) => {
            println!("edse-serve listening on {}", server.addr());
            server.join();
        }
        Err(e) => {
            eprintln!("error: bind {addr}: {e}");
            std::process::exit(1);
        }
    }
}
