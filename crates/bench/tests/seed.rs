//! `--seed` reaches every search a bench binary runs:
//! `fig04_toy_trace`'s explainable search follows the flag as its
//! HyperMapper search does, and one seed reproduces its own run.

use edse_telemetry::json::{self, Json};
use std::process::Command;

/// The `--out` result summary of `fig04_toy_trace --iters 25 --seed SEED`.
fn fig04_summary(seed: u64) -> Json {
    let out = std::env::temp_dir().join(format!("edse-seed-{}-{seed}.json", std::process::id()));
    let output = Command::new(env!("CARGO_BIN_EXE_fig04_toy_trace"))
        .args(["--iters", "25", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("fig04_toy_trace starts");
    assert!(
        output.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let text = std::fs::read_to_string(&out).expect("the result summary is written");
    std::fs::remove_file(&out).ok();
    json::parse(&text).expect("the result summary parses")
}

#[test]
fn the_explainable_search_follows_the_seed() {
    let (one, nine) = (fig04_summary(1), fig04_summary(9));
    let explainable = |summary: &Json| summary.get("explainable").cloned();
    assert!(explainable(&one).is_some());
    assert_ne!(explainable(&one), explainable(&nine));
    assert_ne!(one.get("hypermapper"), nine.get("hypermapper"));
    assert_eq!(explainable(&fig04_summary(9)), explainable(&nine));
}
