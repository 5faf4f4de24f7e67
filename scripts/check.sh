#!/usr/bin/env bash
# Tier-1 gate: everything that must pass before a change lands.
# Run from the repository root: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Serial-vs-parallel differential oracles resolve the host-default
# ("all cores") evaluation engine through this override, so the parallel
# engine and intra-layer sweep paths are genuinely exercised even on a
# 1-CPU CI container, where available parallelism would resolve to one
# worker and the parallel columns of the conformance matrices would
# silently collapse into the serial ones. Results are contractually
# bit-identical for every worker count, so this changes nothing else.
export EDSE_TEST_THREADS=2

echo "==> cargo build --release --workspace"
# Every package's binaries: the smokes below run target/release/edse-trace,
# target/release/import_model and target/release/fig04_toy_trace by path,
# and a bare build makes only the root package (the workspace's one
# default member).
cargo build --release --workspace

echo "==> cargo test -q --workspace --exclude conformance"
# The root manifest is also a package, so a bare `cargo test` would run
# only its tests; --workspace runs every crate's. Conformance has its own
# timed step below.
cargo test -q --workspace --exclude conformance

echo "==> cargo check perfbench (the benchmark builds against these crates)"
# perfbench/ is a workspace of its own, so nothing above compiles it;
# type-check it here so an API change it depends on fails the gate.
cargo check --offline --locked --manifest-path perfbench/Cargo.toml \
    --target-dir target/perfbench

echo "==> conformance: golden fixtures, differential oracles, paper bounds"
# The harness must stay fast enough to gate every change; the timeout is
# the budget, not an estimate (the suite runs in about 15 s on a 2-vCPU
# host once built, `paper_bounds` about 14 s of it).
timeout 120 cargo test -q -p conformance

echo "==> executor stress: concurrent tenants on the shared pool (bounded)"
# `#[ignore]`d in the normal suite: several tenant threads run the full
# threads x chunk x technique matrix concurrently against the one shared
# work-stealing pool, and every tenant must see bit-identical results
# with zero thread spawns after warm-up. EDSE_TEST_THREADS=2 (exported
# above) bounds the pool; the timeout bounds the step.
timeout 120 cargo test --release -q -p conformance --test executor_stress -- --ignored

echo "==> proptest regression files are committed"
# A failing property run appends its counterexample seed under
# proptest-regressions/; landing a change without committing that seed
# would lose the counterexample.
dirty="$(git status --porcelain -- 'crates/*/proptest-regressions')"
if [ -n "$dirty" ]; then
    echo "uncommitted proptest regression entries:" >&2
    echo "$dirty" >&2
    echo "commit the recorded counterexample seeds (or fix and remove them)" >&2
    exit 1
fi
# The vendored proptest replays only proptest-regressions/<file stem>.txt;
# upstream's per-source `<file>.proptest-regressions` files are never read,
# so a counterexample recorded in one is silently never re-run.
unread="$(find crates -name '*.proptest-regressions')"
if [ -n "$unread" ]; then
    echo "regression files the vendored proptest never reads:" >&2
    echo "$unread" >&2
    echo "turn each case into a unit test (or a proptest-regressions/ seed) and delete the file" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo doc --workspace --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> micro-bench smoke: every bench body runs once (--test mode)"
# Criterion's --test mode executes each registered bench exactly once with
# no measurement loop, so a broken bench fails the gate in seconds instead
# of surfacing at the next perf run.
timeout 300 cargo bench -q -p bench -- --test > /dev/null

echo "==> telemetry smoke: fig04_toy_trace --trace-out, edse-trace summary / why / flamegraph / chrome"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run --release -q -p bench --bin fig04_toy_trace -- \
    --iters 8 --trace-out "$trace_tmp/toy.jsonl" > /dev/null
test -s "$trace_tmp/toy.jsonl" || {
    echo "trace file is empty" >&2
    exit 1
}
edse_trace=target/release/edse-trace
# edse-trace exits non-zero on any unparseable JSONL line. Capture to a
# file rather than piping into grep -q: grep closing the pipe early would
# turn the report's remaining output into a broken-pipe failure under
# pipefail.
"$edse_trace" summary "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.summary"
for section in "Search narrative" "Candidate funnel"; do
    grep -q "# $section" "$trace_tmp/toy.summary" || {
        echo "edse-trace summary missing the $section section" >&2
        exit 1
    }
done
"$edse_trace" why "$trace_tmp/toy.jsonl" best > "$trace_tmp/toy.why"
grep -q "new incumbent" "$trace_tmp/toy.why" || {
    echo "edse-trace why best missing the incumbent chain" >&2
    exit 1
}
"$edse_trace" flamegraph "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.folded"
test -s "$trace_tmp/toy.folded" || {
    echo "flamegraph export is empty" >&2
    exit 1
}
# The chrome subcommand self-validates its JSON before printing, and the
# empty-trace guard must hold: an empty file is a hard failure, not an
# empty report.
"$edse_trace" chrome "$trace_tmp/toy.jsonl" > "$trace_tmp/toy.chrome.json"
grep -q '"traceEvents"' "$trace_tmp/toy.chrome.json" || {
    echo "chrome export missing traceEvents" >&2
    exit 1
}
: > "$trace_tmp/empty.jsonl"
if "$edse_trace" summary "$trace_tmp/empty.jsonl" 2> /dev/null; then
    echo "edse-trace accepted an empty trace" >&2
    exit 1
fi

echo "==> kill-and-rerun smoke: SIGKILL import_model mid-run, rerun over its --cache-dir, diff"
import_model=target/release/import_model
kill_cache="$trace_tmp/kill-cache"
# About half a second of codesign search on the imported model: long
# enough that the kill below lands inside the run, not after it.
kill_run=(assets/custom_model.json --iters 60 --trials 1500)
# Uninterrupted reference run.
"$import_model" "${kill_run[@]}" --json "$trace_tmp/a.json" > /dev/null
# The same run over a fresh disk tier, killed as soon as a segment holds a
# record (a seg-*.edc larger than its 16-byte header).
"$import_model" "${kill_run[@]}" --cache-dir "$kill_cache" --json "$trace_tmp/b.json" \
    > /dev/null &
import_pid=$!
while kill -0 "$import_pid" 2>/dev/null &&
    [ -z "$(find "$kill_cache" -name 'seg-*.edc' -size +16c 2>/dev/null)" ]; do
    sleep 0.01
done
kill -9 "$import_pid" 2>/dev/null || true
# 137 = 128 + SIGKILL: any other status means the run had already exited,
# and the rerun below would test a warm start, not a resume.
import_status=0
wait "$import_pid" 2>/dev/null || import_status=$?
if [ "$import_status" -ne 137 ]; then
    echo "import_model exited with status $import_status before the kill" >&2
    exit 1
fi
# Rerun the same command over the same disk tier: that is the resume. The
# report (no wall-clock fields) must be bit-identical to the uninterrupted
# run's, and the rerun must have read the killed run's records from disk
# and mapped the layers it left undone.
"$import_model" "${kill_run[@]}" --cache-dir "$kill_cache" --json "$trace_tmp/b.json" \
    --trace-out "$trace_tmp/rerun.jsonl" > /dev/null
diff "$trace_tmp/a.json" "$trace_tmp/b.json" || {
    echo "rerun after a kill diverged from the uninterrupted run" >&2
    exit 1
}
grep -q '"disk_cache/hit"' "$trace_tmp/rerun.jsonl" || {
    echo "the rerun read none of the killed run's disk-cache records" >&2
    exit 1
}
grep -q '"disk_cache/miss"' "$trace_tmp/rerun.jsonl" || {
    echo "the rerun mapped nothing: the kill landed after the search" >&2
    exit 1
}

echo "==> warm-start smoke: run fig04_toy_trace twice with --cache-dir, diff"
fig04=target/release/fig04_toy_trace
cache="$trace_tmp/cache"
# Cold run populates the cache; the warm rerun must be answered from disk
# (disk_cache/hit counters in the trace) and stay byte-identical.
"$fig04" --iters 25 --cache-dir "$cache" --out "$trace_tmp/cold.json" > /dev/null
"$fig04" --iters 25 --cache-dir "$cache" --out "$trace_tmp/warm.json" \
    --trace-out "$trace_tmp/warm.jsonl" > /dev/null
diff "$trace_tmp/cold.json" "$trace_tmp/warm.json" || {
    echo "warm-cached run diverged from the cold run" >&2
    exit 1
}
grep -q '"disk_cache/hit"' "$trace_tmp/warm.jsonl" || {
    echo "warm run recorded no disk-cache hits" >&2
    exit 1
}
# The cold run stored every layer the warm run reads, so a warm miss means
# the decoder refused a record the encoder wrote. The output stays correct
# (the layer is mapped again), so only this counter shows it.
if grep -q '"disk_cache/miss"' "$trace_tmp/warm.jsonl"; then
    echo "warm run missed the disk cache: a stored record was refused" >&2
    exit 1
fi

echo "All checks passed."
