//! Service-level tests: shared-cache multi-tenancy, per-job budgets,
//! cancellation within one batch with resumable snapshots, scheduler
//! robustness under a random pause/resume/cancel storm, determinism of a
//! paused-and-resumed job against a straight-through run, and an HTTP
//! smoke over a real socket.

use edse_core::evaluate::EvalEngine;
use edse_core::{CancelToken, DiskCache, JobSpec, StepOutcome};
use edse_serve::driver::build_driver;
use edse_serve::jobs::{JobState, Registry};
use edse_serve::server::Server;
use edse_telemetry::json::{self, Json};
use edse_telemetry::Collector;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("edse-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
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
    let disk = Arc::new(DiskCache::open_with(dir.join("cache"), Collector::noop()).expect("disk"));
    let registry = Registry::new(EvalEngine::serial(), Some(disk), None, Collector::noop());
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
fn cancel_stops_within_one_batch_and_leaves_resumable_snapshot() {
    let dir = scratch_dir("cancel");
    let snap = dir.join("job.snapshot");
    let spec = JobSpec {
        technique: "explainable".to_string(),
        budget: 60,
        seed: 3,
        space: "edge".to_string(),
        mapper: "fixed".to_string(),
        checkpoint: Some(snap.clone()),
        checkpoint_every: 1,
        ..JobSpec::default()
    };
    let engine = EvalEngine::serial();

    // Step a standalone driver a few batches, then cancel: the VERY NEXT
    // step must observe the token ("within one evaluation batch").
    let cancel = CancelToken::new();
    let mut driver = build_driver(&spec, engine, None, None, Collector::noop(), cancel.clone())
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
    assert!(snap.exists(), "cancel must leave the snapshot behind");

    // Resuming from the snapshot and running to completion is
    // bit-identical to a straight-through run of the same spec.
    let resumed_spec = JobSpec {
        resume: true,
        ..spec.clone()
    };
    let resumed = run_straight(&resumed_spec, engine);
    let fresh_spec = JobSpec {
        checkpoint: None,
        ..spec.clone()
    };
    let fresh = run_straight(&fresh_spec, engine);
    assert_eq!(
        resumed.to_line(),
        fresh.to_line(),
        "resume-after-cancel must reproduce the straight-through run"
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
fn mismatched_baseline_resume_is_rejected_at_submit() {
    let dir = scratch_dir("mismatch");
    let recorded = JobSpec {
        checkpoint: Some(dir.join("random.snapshot")),
        ..toy_spec("random", 10, 5)
    };
    run_straight(&recorded, EvalEngine::serial());

    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let drifted = JobSpec {
        budget: 11,
        resume: true,
        ..recorded.clone()
    };
    let err = registry
        .submit(drifted)
        .expect_err("a snapshot of another budget must not resume");
    assert!(err.contains("budget"), "{err}");
    // The registry is unharmed: a valid resume is accepted and completes.
    let id = registry
        .submit(JobSpec {
            resume: true,
            ..recorded
        })
        .expect("valid resume");
    assert_eq!(registry.wait_terminal(id), Some(JobState::Completed));
    registry.shutdown();
    for w in workers {
        w.join().expect("worker join");
    }
    let _ = std::fs::remove_dir_all(&dir);
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
    // The shared pool's and space memo's counters are server-level series
    // in /metrics.
    let metrics = registry.prometheus_text();
    for needle in [
        "executor_spawn_avoided",
        "executor_steals",
        "executor_idle_ns",
        "space_memo_hits",
        "space_memo_misses",
        "space_memo_inflight_waits",
        "space_memo_evictions",
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

#[test]
fn mismatched_explainable_resume_is_a_400_not_a_dead_handler() {
    let dir = scratch_dir("explainable-mismatch");
    let snapshot = dir.join("explainable.snapshot");
    let recorded = JobSpec {
        checkpoint: Some(snapshot.clone()),
        ..toy_spec("explainable", 10, 5)
    };
    run_straight(&recorded, EvalEngine::serial());
    assert!(snapshot.exists(), "the recorded job leaves a snapshot");

    // One handler: a panic on it would leave the next request unanswered.
    let registry = Registry::new(EvalEngine::serial(), None, None, Collector::noop());
    let workers = registry.spawn_workers(1);
    let server = Server::start("127.0.0.1:0", 1, Arc::clone(&registry), workers).expect("start");
    let addr = server.addr();
    let resume = |budget: usize| {
        JobSpec {
            budget,
            resume: true,
            ..recorded.clone()
        }
        .to_json_string()
    };
    let (status, body) = http(addr, "POST", "/jobs", &resume(11));
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("budget"), "{body}");
    let (status, body) = http(addr, "POST", "/jobs", &resume(10));
    assert_eq!(status, 202, "{body}");
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
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
