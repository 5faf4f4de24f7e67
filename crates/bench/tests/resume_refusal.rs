//! A snapshot that cannot be resumed is a mistake in the run's input, not
//! a bug: `fig04_toy_trace --checkpoint C --resume` over a stale, corrupt
//! or mismatched `C.hypermapper` exits 1 with one line naming the file,
//! and never panics.

use edse_telemetry::{Event, Level};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory for one case's checkpoint base `C`.
fn checkpoint_base(case: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("edse-resume-refusal-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("C")
}

fn fig04(base: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig04_toy_trace"))
        .arg("--checkpoint")
        .arg(base)
        .args(args)
        .output()
        .expect("fig04_toy_trace starts")
}

/// Asserts exit status 1 and a stderr of one line that names `snapshot`
/// and says `why`.
fn assert_refused(output: &Output, snapshot: &Path, why: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
    let lines: Vec<&str> = stderr.lines().collect();
    assert_eq!(lines.len(), 1, "stderr: {stderr}");
    assert!(
        lines[0].contains(&*snapshot.to_string_lossy()),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains(why), "{}", lines[0]);
}

#[test]
fn an_older_snapshot_version_is_refused() {
    let base = checkpoint_base("version");
    let snapshot = base.with_extension("hypermapper");
    std::fs::write(
        &snapshot,
        r#"{"format":"edse-snapshot","version":3,"technique":"hypermapper","budget":25,"caches":{"layers":[]}}"#,
    )
    .unwrap();
    let trace = base.with_extension("jsonl");
    let trace = trace.to_str().unwrap();
    let output = fig04(&base, &["--iters", "25", "--resume", "--trace-out", trace]);
    assert_refused(&output, &snapshot, "version 3");
    // The trace file is written out, and it records the refusal.
    let events = bench::load_events(trace).expect("the trace parses");
    assert!(
        events.iter().any(
            |e| matches!(e, Event::Log { level: Level::Error, message, .. }
            if message.contains("version 3"))
        ),
        "{events:?}"
    );
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}

#[test]
fn a_corrupt_snapshot_is_refused() {
    let base = checkpoint_base("corrupt");
    let snapshot = base.with_extension("hypermapper");
    std::fs::write(&snapshot, b"{\"format\":\"edse-snap").unwrap();
    let output = fig04(&base, &["--iters", "25", "--resume"]);
    assert_refused(&output, &snapshot, "cannot resume");
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}

#[test]
fn a_snapshot_of_another_budget_is_refused() {
    let base = checkpoint_base("budget");
    let finished = fig04(&base, &["--iters", "8"]);
    assert!(finished.status.success(), "{finished:?}");
    let snapshot = base.with_extension("hypermapper");
    assert!(snapshot.exists(), "the finished run leaves its snapshot");
    let output = fig04(&base, &["--iters", "9", "--resume"]);
    assert_refused(&output, &snapshot, "budget 8");
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}
