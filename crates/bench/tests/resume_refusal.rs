//! A checkpoint that cannot be written or resumed is a mistake in the
//! run's input, not a bug: `fig04_toy_trace --checkpoint C` over an
//! unwritable `C`, or `--resume` over a stale, corrupt or mismatched
//! `C.hypermapper`, exits 1 before anything is evaluated, with one error
//! line that names the file once, and never panics.

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

/// Asserts exit status 1 and one error line that names `snapshot` exactly
/// once and says `why`.
fn assert_refused(output: &Output, snapshot: &Path, why: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "stderr: {stderr}");
    assert!(!stderr.contains("panicked at"), "stderr: {stderr}");
    let errors: Vec<&str> = stderr.lines().filter(|l| l.contains("[error]")).collect();
    assert_eq!(errors.len(), 1, "stderr: {stderr}");
    let name = snapshot.to_string_lossy();
    assert_eq!(errors[0].matches(&*name).count(), 1, "{}", errors[0]);
    assert!(errors[0].contains(why), "{}", errors[0]);
}

#[test]
fn an_older_snapshot_version_is_refused() {
    let base = checkpoint_base("version");
    let snapshot = base.with_extension("hypermapper");
    std::fs::write(
        &snapshot,
        r#"{"format":"edse-snapshot","version":4,"technique":"hypermapper","budget":25,"caches":{"layers":[]}}"#,
    )
    .unwrap();
    let trace = base.with_extension("jsonl");
    let trace = trace.to_str().unwrap();
    let output = fig04(&base, &["--iters", "25", "--resume", "--trace-out", trace]);
    assert_refused(&output, &snapshot, "version 4");
    assert_eq!(String::from_utf8_lossy(&output.stderr).lines().count(), 1);
    // The trace file is written out, and it records the refusal.
    let events = bench::load_events(trace).expect("the trace parses");
    assert!(
        events.iter().any(
            |e| matches!(e, Event::Log { level: Level::Error, message, .. }
            if message.contains("version 4"))
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
    assert!(snapshot.exists(), "the finished run leaves its checkpoint");
    let output = fig04(&base, &["--iters", "9", "--resume"]);
    assert_refused(&output, &snapshot, "budget 8");
    assert_eq!(String::from_utf8_lossy(&output.stderr).lines().count(), 1);
    std::fs::remove_dir_all(base.parent().unwrap()).ok();
}

#[test]
fn an_unwritable_checkpoint_is_refused_before_anything_runs() {
    // A base under a regular file: neither `C.hypermapper` nor the disk
    // tier `C.cache/` beside it can be created.
    let blocker = checkpoint_base("unwritable").with_file_name("file");
    std::fs::write(&blocker, b"a regular file").unwrap();
    let base = blocker.join("C");
    let trace = blocker.with_file_name("trace.jsonl");
    let trace = trace.to_str().unwrap();
    let output = fig04(&base, &["--iters", "8", "--trace-out", trace]);
    assert_refused(&output, &base.with_extension("hypermapper"), "cannot write");
    // The disk tier's failure to open is a warning; the checkpoint's is
    // the one error.
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("running without a disk cache"), "{stderr}");
    let events = bench::load_events(trace).expect("the trace parses");
    assert!(
        !events.iter().any(|e| matches!(e, Event::Iteration { .. })),
        "nothing may be evaluated: {events:?}"
    );
    std::fs::remove_dir_all(blocker.parent().unwrap()).ok();
}
