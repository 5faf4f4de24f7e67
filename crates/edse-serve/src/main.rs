//! `edse-serve` binary: flag parsing, shared-resource setup, and an
//! in-process `--self-check` that exercises the whole HTTP surface end
//! to end (used by `scripts/check.sh`).

use edse_core::evaluate::EvalEngine;
use edse_core::DiskCache;
use edse_serve::jobs::Registry;
use edse_serve::server::Server;
use edse_telemetry::{json, Collector, Event, Sink};
use std::io::{Read, Write};
use std::net::TcpStream;
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
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        port: 8080,
        threads: 2,
        http_threads: 4,
        eval_threads: None,
        cache_dir: None,
        self_check: false,
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
            "--self-check" => args.self_check = true,
            "--help" | "-h" => {
                println!(
                    "edse-serve: multi-tenant DSE-as-a-service\n\n\
                     USAGE: edse-serve [--port N] [--threads N] [--http-threads N]\n\
                            [--eval-threads N] [--cache-dir DIR] [--self-check]\n\n\
                     --port N          listen port (default 8080; 0 = ephemeral)\n\
                     --threads N       scheduler worker threads leasing job steps\n\
                     \u{20}                 (default 2); evaluation itself runs on the\n\
                     \u{20}                 process-wide executor pool shared by all tenants\n\
                     --http-threads N  HTTP handler threads (default 4)\n\
                     --eval-threads N  per-step evaluation-engine budget on the shared\n\
                     \u{20}                 pool (default: all cores, bounded by\n\
                     \u{20}                 EDSE_TEST_THREADS; 1 = serial)\n\
                     --cache-dir DIR   shared persistent evaluation cache\n\
                     --self-check      run the end-to-end smoke in-process and exit"
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
    if args.self_check {
        match self_check(&args) {
            Ok(()) => {
                println!("edse-serve self-check: ok");
                return;
            }
            Err(e) => {
                eprintln!("edse-serve self-check FAILED: {e}");
                std::process::exit(1);
            }
        }
    }
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

/// One blocking HTTP exchange over a fresh connection: returns the
/// status code and the (de-chunked) body.
fn exchange(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: edse-serve\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("recv: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response: {text:?}"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed status line: {head:?}"))?;
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .contains("transfer-encoding: chunked")
    });
    let body = if chunked {
        dechunk(payload)
    } else {
        payload.to_string()
    };
    Ok((status, body))
}

/// Minimal chunked-transfer decoder for the self-check client.
fn dechunk(payload: &str) -> String {
    let mut out = String::new();
    let mut rest = payload;
    while let Some((size_line, after)) = rest.split_once("\r\n") {
        let Ok(size) = usize::from_str_radix(size_line.trim(), 16) else {
            break;
        };
        if size == 0 || after.len() < size {
            break;
        }
        out.push_str(&after[..size]);
        rest = after[size..].strip_prefix("\r\n").unwrap_or(&after[size..]);
    }
    out
}

/// Polls `GET /jobs/:id` until its `state` matches `want` (bounded).
fn wait_state(addr: std::net::SocketAddr, id: u64, want: &[&str]) -> Result<String, String> {
    for _ in 0..1200 {
        let (status, body) = exchange(addr, "GET", &format!("/jobs/{id}"), "")?;
        if status != 200 {
            return Err(format!("GET /jobs/{id} -> {status}: {body}"));
        }
        let doc = json::parse(&body).map_err(|e| format!("status JSON: {e}"))?;
        let state = doc
            .get("state")
            .and_then(|s| s.as_str())
            .ok_or("status missing state")?
            .to_string();
        if want.contains(&state.as_str()) {
            return Ok(state);
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    Err(format!("job {id} never reached {want:?}"))
}

/// The end-to-end smoke: boots a full server on an ephemeral port, runs
/// two concurrent toy jobs to completion over the shared cache, streams
/// events, pauses/resumes/cancels a third job, checks the merged
/// `/metrics`, and tears everything down. No external client needed.
fn self_check(args: &Args) -> Result<(), String> {
    let scratch = std::env::temp_dir().join(format!("edse-serve-check-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let boot = Args {
        port: 0,
        cache_dir: Some(scratch.join("cache")),
        self_check: false,
        // Default the worker budget from EDSE_TEST_THREADS so the smoke
        // exercises the same parallelism CI pins for the shared pool even
        // on a 1-CPU container.
        threads: args
            .threads
            .max(edse_executor::env_thread_override().unwrap_or(2)),
        http_threads: args.http_threads,
        eval_threads: args.eval_threads,
    };
    let server = start(&boot, "127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = server.addr();
    let result = self_check_against(addr, &scratch);
    server.stop();
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn self_check_against(addr: std::net::SocketAddr, scratch: &std::path::Path) -> Result<(), String> {
    // Two concurrent toy jobs — different techniques, same shared cache.
    let toy = |technique: &str, budget: usize| {
        format!(
            "{{\"technique\":\"{technique}\",\"space\":\"toy\",\"mapper\":\"fixed\",\"budget\":{budget},\"seed\":7}}"
        )
    };
    let (status, body) = exchange(addr, "POST", "/jobs", &toy("explainable", 12))?;
    if status != 202 {
        return Err(format!("submit explainable -> {status}: {body}"));
    }
    let (status, body) = exchange(addr, "POST", "/jobs", &toy("grid", 12))?;
    if status != 202 {
        return Err(format!("submit grid -> {status}: {body}"));
    }
    for id in [1u64, 2] {
        let state = wait_state(addr, id, &["completed", "failed", "cancelled"])?;
        if state != "completed" {
            let (_, body) = exchange(addr, "GET", &format!("/jobs/{id}"), "")?;
            return Err(format!("job {id} ended {state}: {body}"));
        }
    }
    // The event stream replays the full run as JSONL iteration records.
    let (status, events) = exchange(addr, "GET", "/jobs/1/events", "")?;
    if status != 200 || !events.contains("\"iteration\"") {
        return Err(format!("events stream -> {status}: {events:?}"));
    }
    // Job 3: big budget so it is still running when control requests land;
    // checkpoint configured so cancel leaves a resumable snapshot.
    let snap = scratch.join("job3.snapshot");
    let spec = format!(
        "{{\"technique\":\"explainable\",\"space\":\"edge\",\"mapper\":\"fixed\",\"budget\":5000,\
         \"seed\":3,\"checkpoint\":\"{}\",\"checkpoint_every\":1}}",
        snap.display()
    );
    let (status, body) = exchange(addr, "POST", "/jobs", &spec)?;
    if status != 202 {
        return Err(format!("submit job 3 -> {status}: {body}"));
    }
    let (status, body) = exchange(addr, "POST", "/jobs/3/pause", "")?;
    if status != 200 {
        return Err(format!("pause -> {status}: {body}"));
    }
    wait_state(addr, 3, &["paused"])?;
    let (status, body) = exchange(addr, "POST", "/jobs/3/resume", "")?;
    if status != 200 {
        return Err(format!("resume -> {status}: {body}"));
    }
    let (status, body) = exchange(addr, "POST", "/jobs/3/cancel", "")?;
    if status != 200 {
        return Err(format!("cancel -> {status}: {body}"));
    }
    let state = wait_state(addr, 3, &["cancelled", "completed", "failed"])?;
    if state != "cancelled" {
        return Err(format!("job 3 ended {state}, expected cancelled"));
    }
    if !snap.exists() {
        return Err("cancel left no resumable snapshot".to_string());
    }
    // Control endpoints reject terminal jobs and unknown ids.
    let (status, _) = exchange(addr, "POST", "/jobs/3/pause", "")?;
    if status != 409 {
        return Err(format!("pause of cancelled job -> {status}, expected 409"));
    }
    let (status, _) = exchange(addr, "GET", "/jobs/99", "")?;
    if status != 404 {
        return Err(format!("GET /jobs/99 -> {status}, expected 404"));
    }
    let (status, body) = exchange(addr, "POST", "/jobs", "{\"technique\":\"nope\"}")?;
    if status != 400 {
        return Err(format!("bad technique -> {status}: {body}"));
    }
    // Merged metrics: server counters plus per-job prefixed series.
    let (status, metrics) = exchange(addr, "GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("metrics -> {status}"));
    }
    // Names reach Prometheus sanitized: `/` becomes `_`, `edse_` prefix.
    for needle in [
        "edse_serve_jobs_submitted",
        "edse_job1_",
        "edse_job2_",
        "edse_space_memo_hits",
    ] {
        if !metrics.contains(needle) {
            return Err(format!("metrics missing {needle:?}:\n{metrics}"));
        }
    }
    Ok(())
}
