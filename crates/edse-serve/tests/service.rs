//! Service-level tests: shared-cache multi-tenancy, per-job budgets,
//! cancellation within one batch and a resubmit that finishes the
//! cancelled run, scheduler robustness under a random pause/resume/cancel
//! storm, determinism of a paused-and-resumed job against a
//! straight-through run, an HTTP smoke over a real socket, bounded
//! handlers (hostile heads and bodies, silent, trickling and hung-up
//! clients), and the `edse-serve` binary driven end to end, SIGKILLed
//! mid-search and resumed by resubmitting the job to a restarted server.

use edse_core::evaluate::EvalEngine;
use edse_core::{CancelToken, DiskCache, JobSpec, StepOutcome};
use edse_serve::driver::build_driver;
use edse_serve::jobs::{JobState, Registry};
use edse_serve::server::Server;
use edse_telemetry::json::{self, Json};
use edse_telemetry::Collector;
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edse-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// A registry whose jobs share a disk cache in `dir/cache`.
fn disk_registry(dir: &Path) -> Arc<Registry> {
    let disk = Arc::new(DiskCache::open_with(dir.join("cache"), Collector::noop()).expect("disk"));
    Registry::new(EvalEngine::serial(), Some(disk), None, Collector::noop())
}

fn toy_spec(technique: &str, budget: usize, seed: u64) -> JobSpec {
    JobSpec {
        technique: technique.to_string(),
        budget,
        seed,
        space: "toy".to_string(),
        mapper: "fixed".to_string(),
        ..JobSpec::default()
    }
}

/// Runs a spec straight through on a standalone driver (no scheduler)
/// and returns its final summary document.
fn run_straight(spec: &JobSpec, engine: EvalEngine) -> Json {
    let mut driver = build_driver(
        spec,
        engine,
        None,
        None,
        Collector::noop(),
        CancelToken::new(),
    )
    .expect("build driver");
    for _ in 0..100_000 {
        match driver.step() {
            StepOutcome::Pending => continue,
            StepOutcome::Done => return driver.finish(),
            StepOutcome::Cancelled => panic!("uncancelled driver reported Cancelled"),
        }
    }
    panic!("driver never finished");
}

#[test]
fn concurrent_jobs_share_disk_cache_with_private_budgets() {
    let dir = scratch_dir("shared");
    let registry = disk_registry(&dir);
    let workers = registry.spawn_workers(3);

    let a = registry
        .submit(toy_spec("explainable", 12, 7))
        .expect("submit a");
    let b = registry
        .submit(toy_spec("random", 10, 7))
        .expect("submit b");
    assert_eq!(registry.wait_terminal(a), Some(JobState::Completed));
    assert_eq!(registry.wait_terminal(b), Some(JobState::Completed));

    let status_a = registry.status(a).expect("status a");
    let status_b = registry.status(b).expect("status b");
    // Budgets are per job even though the disk tier is shared: the random
    // baseline counts exactly its own trace; the explainable run's own
    // unique evaluations stay within its budget. Progress counts samples,
    // as the result summary does (a restart landing on a point already
    // seen is sampled again without spending budget).
    assert_eq!(
        status_b.get("evaluations").and_then(Json::as_f64),
        Some(10.0)
    );
    let unique_a = status_a
        .get("cache")
        .and_then(|c| c.get("unique_evaluations"))
        .and_then(Json::as_f64)
        .expect("unique evals a");
    assert!(
        unique_a > 0.0 && unique_a <= 12.0,
        "explainable unique evals {unique_a}"
    );
    assert_eq!(
        status_a.get("evaluations").and_then(Json::as_f64),
        status_a
            .get("result")
            .and_then(|r| r.get("evaluations"))
            .and_then(Json::as_f64)
    );
    for status in [&status_a, &status_b] {
        assert_eq!(
            status
                .get("cache")
                .and_then(|c| c.get("disk_attached"))
                .and_then(Json::as_bool),
            Some(true),
            "both tenants must share the disk tier"
        );
        assert!(
            status.get("result").is_some(),
            "terminal status carries the summary"
        );
    }

    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_stops_within_one_batch_and_a_resubmit_reproduces_the_run() {
    let dir = scratch_dir("cancel");
    let spec = JobSpec {
        technique: "explainable".to_string(),
        budget: 60,
        seed: 3,
        space: "edge".to_string(),
        mapper: "fixed".to_string(),
        ..JobSpec::default()
    };
    let engine = EvalEngine::serial();
    let disk = || Some(Arc::new(DiskCache::open(dir.join("cache")).expect("disk")));

    // Step a standalone driver a few batches, then cancel: the VERY NEXT
    // step must observe the token ("within one evaluation batch").
    let cancel = CancelToken::new();
    let mut driver = build_driver(
        &spec,
        engine,
        disk(),
        None,
        Collector::noop(),
        cancel.clone(),
    )
    .expect("build driver");
    for _ in 0..5 {
        assert_eq!(driver.step(), StepOutcome::Pending);
    }
    cancel.cancel();
    assert_eq!(driver.step(), StepOutcome::Cancelled);
    let cancelled_evals = driver.evaluations();
    assert!(
        cancelled_evals < spec.budget,
        "cancel must not run to budget"
    );
    let summary = driver.finish();
    assert_eq!(
        summary.get("termination").and_then(Json::as_str),
        Some("cancelled")
    );

    // Submitting the same spec again over the same disk cache and running
    // to completion is bit-identical to a straight-through run, and reads
    // the cancelled steps' mappings from disk.
    let mut resumed = build_driver(
        &spec,
        engine,
        disk(),
        None,
        Collector::noop(),
        CancelToken::new(),
    )
    .expect("the cancelled spec builds again");
    while resumed.step() == StepOutcome::Pending {}
    let disk_hits = resumed.cache_stats().disk.expect("disk").hits;
    assert!(disk_hits > 0, "the resubmit read the cancelled work");
    let resumed = resumed.finish();
    assert_eq!(
        resumed.to_line(),
        run_straight(&spec, engine).to_line(),
        "a resubmit after a cancel must reproduce the straight-through run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn grid_job_over_single_valued_parameters_completes() {
    // The toy space frees two seven-valued parameters and pins the rest
    // to one value each. At a budget past twice the 4 x 4 grid, only the
    // one-valued parameters are left to double, and doubling them must
    // end the grid sizing rather than repeat forever.
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let id = registry
        .submit(toy_spec("grid", 64, 1))
        .expect("submit grid");
    assert_eq!(registry.wait_terminal(id), Some(JobState::Completed));
    let status = registry.status(id).expect("status");
    assert_eq!(status.get("evaluations").and_then(Json::as_f64), Some(16.0));
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
}

#[test]
fn short_tenant_completes_while_long_sweep_tenant_runs() {
    // Two tenants on one registry sharing the process-wide executor pool:
    // a long job whose every step runs real linear-mapper sweeps over the
    // edge space, and a short toy job. Fairness is enforced at chunk
    // granularity — pool workers re-pick scopes round-robin per task — so
    // the short tenant must finish while the long sweep is still running,
    // instead of queueing behind it.
    let registry = Registry::new(EvalEngine::with_threads(2), None, None, Collector::noop());
    let workers = registry.spawn_workers(2);
    // Annealing evaluates point by point, so its replay chunks give the
    // scheduler real step boundaries while every evaluation still runs
    // linear-mapper sweeps over the edge space through the shared pool.
    let long = registry
        .submit(JobSpec {
            technique: "annealing".to_string(),
            budget: 200,
            map_trials: 150,
            seed: 11,
            space: "edge".to_string(),
            mapper: "linear".to_string(),
            ..JobSpec::default()
        })
        .expect("submit long");
    let short = registry
        .submit(toy_spec("explainable", 6, 3))
        .expect("submit short");
    assert_eq!(registry.wait_terminal(short), Some(JobState::Completed));
    assert_eq!(
        registry.is_terminal(long),
        Some(false),
        "long sweep tenant should still be running when the short one finishes"
    );
    // The shared pool's, space memo's and sweeps' counters are
    // server-level series in /metrics.
    let metrics = registry.prometheus_text();
    for needle in [
        "executor_spawn_avoided",
        "executor_steals",
        "executor_idle_ns",
        "space_memo_hits",
        "space_memo_misses",
        "space_memo_inflight_waits",
        "space_memo_evictions",
        "sweep_sweeps",
        "sweep_floor_stops",
        "sweep_tilings",
        "sweep_tilings_prepared",
    ] {
        assert!(metrics.contains(needle), "missing {needle} in:\n{metrics}");
    }
    registry.cancel(long).expect("cancel long");
    let state = registry.wait_terminal(long).expect("long exists");
    assert!(matches!(state, JobState::Cancelled | JobState::Completed));
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
}

#[test]
fn scheduler_survives_random_control_storm() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(3);
    let techniques = [
        "explainable",
        "grid",
        "random",
        "annealing",
        "genetic",
        "rl",
    ];
    let ids: Vec<u64> = techniques
        .iter()
        .enumerate()
        .map(|(i, t)| {
            registry
                .submit(toy_spec(t, 14, i as u64 + 1))
                .expect("submit")
        })
        .collect();

    // A deterministic LCG storm of pause/resume/cancel at whatever batch
    // boundaries the scheduler happens to be at.
    let mut rng_state = 0x2545F4914F6CDD1Du64;
    let mut next = move |n: u64| {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) % n
    };
    for round in 0..60 {
        let id = ids[next(ids.len() as u64) as usize];
        // Control calls may race with completion; 'already terminal' is a
        // legal answer, never a crash or a wedged queue.
        match next(if round > 40 { 3 } else { 2 }) {
            0 => drop(registry.pause(id)),
            1 => drop(registry.resume(id)),
            _ => drop(registry.cancel(id)),
        }
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    // Un-wedge anything the storm left paused, then everything must
    // reach a terminal state.
    for &id in &ids {
        let _ = registry.resume(id);
    }
    for &id in &ids {
        let state = registry.wait_terminal(id).expect("job exists");
        assert!(
            matches!(state, JobState::Completed | JobState::Cancelled),
            "job {id} ended {state:?}"
        );
        let status = registry.status(id).expect("status");
        assert!(
            status.get("result").is_some(),
            "terminal job {id} has a summary"
        );
    }
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A job that gets paused and resumed at arbitrary points while
    /// sharing the scheduler with a decoy tenant finishes bit-identical
    /// to the same spec run straight through on a standalone driver.
    #[test]
    fn paused_and_resumed_job_matches_straight_through(
        seed in 0u64..1000,
        budget in 8usize..20,
        technique_idx in 0usize..3,
        pauses in proptest::collection::vec(0u64..8, 1..4),
    ) {
        let technique = ["explainable", "random", "genetic"][technique_idx];
        let spec = toy_spec(technique, budget, seed);
        let expected = run_straight(&spec, EvalEngine::serial());

        let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
        let workers = registry.spawn_workers(2);
        let decoy = registry.submit(toy_spec("grid", 12, seed ^ 0xFF)).unwrap();
        let id = registry.submit(spec).unwrap();
        for &pause in &pauses {
            let _ = registry.pause(id);
            std::thread::sleep(std::time::Duration::from_millis(pause));
            let _ = registry.resume(id);
        }
        let _ = registry.resume(id);
        prop_assert_eq!(registry.wait_terminal(id), Some(JobState::Completed));
        registry.wait_terminal(decoy);
        let status = registry.status(id).unwrap();
        let result = status.get("result").expect("summary");
        prop_assert_eq!(result.to_line(), expected.to_line());
        registry.shutdown();
        for w in workers {
            w.join().unwrap();
        }
    }
}

/// One blocking request over a real socket (the test client).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("recv");
    let text = String::from_utf8_lossy(&raw);
    let (head, payload) = text.split_once("\r\n\r\n").expect("head/body split");
    let status = head
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .expect("status");
    (status, payload.to_string())
}

#[test]
fn http_smoke_submit_poll_metrics() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(2);
    let server = Server::start("127.0.0.1:0", 2, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();

    let (status, body) = http(
        addr,
        "POST",
        "/jobs",
        "{\"technique\":\"explainable\",\"space\":\"toy\",\"mapper\":\"fixed\",\"budget\":10,\"seed\":1}",
    );
    assert_eq!(status, 202, "{body}");
    let id = json::parse(&body)
        .expect("submit response JSON")
        .get("id")
        .and_then(Json::as_f64)
        .expect("id") as u64;

    registry.wait_terminal(id);
    let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("status JSON");
    assert_eq!(
        doc.get("state").and_then(Json::as_str),
        Some("completed"),
        "{body}"
    );

    let (status, body) = http(addr, "GET", "/jobs", "");
    assert_eq!(status, 200);
    assert!(body.contains("\"explainable\""), "{body}");

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    assert!(metrics.contains(&format!("edse_job{id}_")), "{metrics}");

    let (status, _) = http(addr, "GET", "/jobs/42", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/jobs", "");
    assert_eq!(status, 404);

    server.stop();
}

/// Sends `request` raw and returns the response status, or `None` when the
/// server closed the connection without one.
fn raw_status(addr: std::net::SocketAddr, request: &[u8]) -> Option<u16> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .expect("client timeout");
    // The server may stop reading (and close) before the whole request
    // is sent; a refused write or read is the "closed" answer.
    stream.write_all(request).ok()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).ok()?;
    let text = String::from_utf8_lossy(&raw);
    text.split_whitespace().nth(1)?.parse().ok()
}

#[test]
fn oversize_header_lines_and_header_floods_are_rejected() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), Vec::new()).expect("start");
    let addr = server.addr();
    let ok = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";
    assert_eq!(raw_status(addr, ok), Some(200));

    let long = format!(
        "GET /healthz HTTP/1.1\r\nX-Long: {}\r\n\r\n",
        "a".repeat(64 << 10)
    );
    let answer = raw_status(addr, long.as_bytes());
    assert!(
        matches!(answer, None | Some(400)),
        "oversize line: {answer:?}"
    );

    let flood: String = (0..10_000).map(|i| format!("X-{i}: v\r\n")).collect();
    let flood = format!("GET /healthz HTTP/1.1\r\n{flood}\r\n");
    let answer = raw_status(addr, flood.as_bytes());
    assert!(
        matches!(answer, None | Some(400)),
        "header flood: {answer:?}"
    );

    // The handler survived both.
    assert_eq!(raw_status(addr, ok), Some(200));
    server.stop();
}

#[test]
fn hostile_job_bodies_get_400_and_the_handler_survives() {
    // One handler: a stack overflow or panic on it would leave the next
    // request unanswered (an overflow aborts the whole process).
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), Vec::new()).expect("start");
    let addr = server.addr();
    // About 20 KB of nesting, well under the body limit.
    let nested = format!("{{\"models\":{}", "[".repeat(20_000));
    let (status, body) = http(addr, "POST", "/jobs", &nested);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("nesting"), "{body}");
    // A seed that is not an exact integer would run another search.
    let (status, body) = http(addr, "POST", "/jobs", r#"{"space":"toy","seed":-5}"#);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("seed"), "{body}");
    // So would a misspelt member, ignored, and so would the removed
    // checkpoint members: a client still asking for a checkpoint file
    // learns that none is written.
    for (body, member) in [
        (r#"{"space":"toy","budjet":5}"#, "`budjet`"),
        (
            r#"{"space":"toy","checkpoint":"job1.snapshot"}"#,
            "`checkpoint`",
        ),
        (r#"{"space":"toy","resume":true}"#, "`resume`"),
    ] {
        let (status, answer) = http(addr, "POST", "/jobs", body);
        assert_eq!(status, 400, "{body}: {answer}");
        assert!(answer.contains(member), "{body}: {answer}");
    }
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);
    server.stop();
}

#[test]
fn idle_connection_does_not_stop_the_next_request() {
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), Vec::new()).expect("start");
    let addr = server.addr();
    // A client that connects and never sends a byte holds the only
    // handler until the read timeout frees it.
    let idle = TcpStream::connect(addr).expect("connect idle");
    let started = std::time::Instant::now();
    assert_eq!(
        raw_status(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"),
        Some(200)
    );
    assert!(started.elapsed() < std::time::Duration::from_secs(20));
    drop(idle);
    server.stop();
}

#[test]
fn a_dropped_event_stream_frees_its_handler() {
    use std::time::Duration;
    // One handler and no scheduler workers: the submitted job stays
    // queued, so its event stream gets no record and never ends.
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), Vec::new()).expect("start");
    let addr = server.addr();
    let id = registry.submit(toy_spec("random", 5, 1)).expect("submit");
    let mut events = TcpStream::connect(addr).expect("connect events");
    events
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    write!(events, "GET /jobs/{id}/events HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    // The stream's head arrives, so the handler is inside the stream.
    let mut head = [0u8; 12];
    events.read_exact(&mut head).expect("stream head");
    assert_eq!(&head, b"HTTP/1.1 200");
    drop(events);

    // A bounded client: a handler still held by the dropped stream fails
    // this request at its timeout instead of hanging the test.
    let mut probe = TcpStream::connect(addr).expect("connect probe");
    probe
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("client timeout");
    probe
        .write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("send probe");
    let mut raw = Vec::new();
    let answered = probe.read_to_end(&mut raw);
    let text = String::from_utf8_lossy(&raw);
    assert!(
        answered.is_ok() && text.starts_with("HTTP/1.1 200"),
        "healthz went unanswered behind a dropped event stream: {answered:?} {text:?}"
    );
    server.stop();
}

#[test]
fn a_trickling_client_is_cut_off_at_the_request_deadline() {
    use std::time::{Duration, Instant};
    // One handler, taken by a client that sends its body one byte per
    // 0.5 s: every read lands inside the 2 s read timeout, so only the
    // 10 s whole-request deadline frees the handler.
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), Vec::new()).expect("start");
    let addr = server.addr();
    let mut trickler = TcpStream::connect(addr).expect("connect trickler");
    trickler
        .write_all(b"POST /jobs HTTP/1.1\r\nHost: t\r\nContent-Length: 100\r\n\r\n")
        .expect("send head");
    trickler
        .set_read_timeout(Some(Duration::from_millis(500)))
        .expect("client timeout");
    let trickle = std::thread::spawn(move || {
        // Waiting for an answer paces the bytes; the server's answer (or
        // its hang-up) ends the trickle.
        let mut raw = Vec::new();
        for _ in 0..100 {
            if trickler.write_all(b" ").is_err() {
                break;
            }
            match trickler.read_to_end(&mut raw) {
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
                _ => break,
            }
        }
        let text = String::from_utf8_lossy(&raw).into_owned();
        text.split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
    });
    // Connections are accepted and handed to the handler in connect
    // order, so the trickler holds the handler before this request.
    let started = Instant::now();
    assert_eq!(
        raw_status(addr, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n"),
        Some(200)
    );
    let waited = started.elapsed();
    assert!(
        waited < Duration::from_secs(12),
        "the trickler held the only handler for {waited:?}"
    );
    let answer = trickle.join().expect("trickler thread");
    assert!(
        matches!(answer, None | Some(400)),
        "trickler got {answer:?}"
    );
    server.stop();
}

/// The `edse-serve` binary listening on an ephemeral port. Killed on
/// drop, so a failed assertion does not leave it running.
struct ServeProcess {
    child: Child,
    addr: SocketAddr,
}

impl ServeProcess {
    /// Starts the binary with `--cache-dir cache` and waits for its
    /// startup line.
    fn spawn(cache: &Path) -> ServeProcess {
        let mut child = Command::new(env!("CARGO_BIN_EXE_edse-serve"))
            .args(["--port", "0", "--cache-dir"])
            .arg(cache)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn edse-serve");
        let mut line = String::new();
        let stdout = child.stdout.take().expect("piped stdout");
        let read = BufReader::new(stdout).read_line(&mut line);
        let port = line
            .trim()
            .strip_prefix("edse-serve listening on ")
            .and_then(|addr| addr.rsplit(':').next())
            .and_then(|port| port.parse().ok());
        let server = ServeProcess {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], port.unwrap_or(0))),
        };
        assert!(
            read.is_ok() && port.is_some(),
            "startup line {line:?} ({read:?})"
        );
        server
    }
}

impl Drop for ServeProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Polls `GET /jobs/:id` until its state is one of `want` (for at most
/// 30 s) and returns that state.
fn wait_state(addr: SocketAddr, id: u64, want: &[&str]) -> String {
    for _ in 0..1200 {
        let (status, body) = http(addr, "GET", &format!("/jobs/{id}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(&body).expect("status JSON");
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        if want.contains(&state) {
            return state.to_string();
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("job {id} never reached {want:?}");
}

#[test]
fn the_binary_runs_controls_and_reports_jobs_end_to_end() {
    let dir = scratch_dir("binary");
    let server = ServeProcess::spawn(&dir.join("cache"));
    let addr = server.addr;

    // Two concurrent toy jobs: different techniques, one shared cache.
    for technique in ["explainable", "grid"] {
        let body = toy_spec(technique, 12, 7).to_json_string();
        let (status, body) = http(addr, "POST", "/jobs", &body);
        assert_eq!(status, 202, "{technique}: {body}");
    }
    for id in [1, 2] {
        let state = wait_state(addr, id, &["completed", "failed", "cancelled"]);
        assert_eq!(state, "completed", "job {id}");
    }
    let (status, events) = http(addr, "GET", "/jobs/1/events", "");
    assert_eq!(status, 200);
    assert!(events.contains("\"iteration\""), "{events}");

    // Job 3 is still running when the control requests land.
    let job3 = JobSpec {
        space: "edge".to_string(),
        ..toy_spec("explainable", 5000, 3)
    };
    let (status, body) = http(addr, "POST", "/jobs", &job3.to_json_string());
    assert_eq!(status, 202, "{body}");
    let (status, body) = http(addr, "POST", "/jobs/3/pause", "");
    assert_eq!(status, 200, "pause: {body}");
    assert_eq!(wait_state(addr, 3, &["paused"]), "paused");
    let (status, body) = http(addr, "POST", "/jobs/3/resume", "");
    assert_eq!(status, 200, "resume: {body}");
    let (status, body) = http(addr, "POST", "/jobs/3/cancel", "");
    assert_eq!(status, 200, "cancel: {body}");
    let state = wait_state(addr, 3, &["cancelled", "completed", "failed"]);
    assert_eq!(state, "cancelled");

    // A terminal job cannot be paused; unknown ids and techniques are
    // client errors.
    assert_eq!(http(addr, "POST", "/jobs/3/pause", "").0, 409);
    assert_eq!(http(addr, "GET", "/jobs/99", "").0, 404);
    let (status, body) = http(addr, "POST", "/jobs", r#"{"technique":"nope"}"#);
    assert_eq!(status, 400, "{body}");

    // Server counters and every tenant's series, merged; names reach
    // Prometheus with `/` as `_` and an `edse_` prefix.
    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    for needle in [
        "edse_serve_jobs_submitted",
        "edse_job1_",
        "edse_job2_",
        "edse_space_memo_hits",
        "edse_sweep_tilings_prepared",
    ] {
        assert!(metrics.contains(needle), "missing {needle}:\n{metrics}");
    }
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The value of the counter `name` in a `/metrics` exposition (0 when
/// absent).
fn metric(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or(0)
}

/// A served job SIGKILLed mid-search resumes when its spec is submitted
/// again to a server restarted over the same cache directory,
/// bit-identically to a straight run: its completed layer mappings are in
/// the disk cache. The restarted server's disk counters prove the kill
/// landed mid-search: hits (the killed run had written records) and
/// misses (it had not finished).
#[test]
fn a_served_job_killed_mid_search_resumes_bit_identically() {
    let dir = scratch_dir("sigkill");
    let cache = dir.join("cache");
    let spec = JobSpec {
        technique: "explainable".to_string(),
        budget: 60,
        seed: 3,
        space: "edge".to_string(),
        mapper: "linear".to_string(),
        map_trials: 20,
        ..JobSpec::default()
    };
    let mut server = ServeProcess::spawn(&cache);
    let (status, body) = http(server.addr, "POST", "/jobs", &spec.to_json_string());
    assert_eq!(status, 202, "{body}");
    let mut evaluated = false;
    for _ in 0..6000 {
        let (_, body) = http(server.addr, "GET", "/jobs/1", "");
        let doc = json::parse(&body).expect("status JSON");
        let state = doc.get("state").and_then(Json::as_str).expect("state");
        assert_eq!(state, "running", "the job ended before the kill: {body}");
        let evaluations = doc.get("evaluations").and_then(Json::as_f64);
        if evaluations.is_some_and(|n| n >= 1.0) {
            evaluated = true;
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert!(evaluated, "the job never evaluated a point");
    server.child.kill().expect("SIGKILL");
    server.child.wait().expect("the killed server exits");

    let server = ServeProcess::spawn(&cache);
    let (status, body) = http(server.addr, "POST", "/jobs", &spec.to_json_string());
    assert_eq!(status, 202, "{body}");
    assert_eq!(
        wait_state(server.addr, 1, &["completed", "failed"]),
        "completed"
    );
    let (_, body) = http(server.addr, "GET", "/jobs/1", "");
    let doc = json::parse(&body).expect("status JSON");
    let resumed = doc
        .get("result")
        .expect("terminal status carries the summary");
    let straight = run_straight(&spec, EvalEngine::serial());
    assert_eq!(resumed.to_line(), straight.to_line());
    let (_, metrics) = http(server.addr, "GET", "/metrics", "");
    let (hits, misses) = (
        metric(&metrics, "edse_disk_cache_hit"),
        metric(&metrics, "edse_disk_cache_miss"),
    );
    assert!(hits > 0, "the killed run wrote no records:\n{metrics}");
    assert!(
        misses > 0,
        "the killed run had already finished:\n{metrics}"
    );
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}
