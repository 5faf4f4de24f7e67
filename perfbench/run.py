#!/usr/bin/env python3
"""End-to-end benchmark of the explainable-dse workspace.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload codesign_cold|fixdf_zoo|serve_mixed
                             --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record   # rewrite perfbench/expected.json

The script builds the benchmark binary and `edse-serve` from source (into
$CARGO_TARGET_DIR, default `.bench_build`), then repeats the workload, each
repetition in a fresh process, until `--seconds` have passed. The last line
of standard output is the result:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
metrics are the end-to-end ones, measured on the bare program; with
`--trace 1` they are the per-layer ledger of separate traced repetitions.
The line before it is a report with the state every number was measured in
and the details behind the medians. See perfbench/README.md.
"""

import argparse
import http.client
import json
import os
import random
import re
import select
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench_out"
EXPECTED = BENCH / "expected.json"

WORKLOADS = ("codesign_cold", "fixdf_zoo", "serve_mixed")
# Search seeds each library repetition draws from; every one has a stored
# expected result, so every repetition's output is checked exactly.
SEED_POOL = {"codesign_cold": 4, "fixdf_zoo": 4}
# Job streams serve_mixed repetitions cycle through, in an order drawn from
# the seed, so every run medians over (nearly) the same streams.
STREAM_POOL = 6
SEARCHES_PER_REP = {"codesign_cold": 1, "fixdf_zoo": 2}
# Set-up is timed on processes stopped as soon as they are ready: a batch
# at the start of a run, then a few before every repetition, so the median
# spans the whole run.
SETUP_PROBES = 6
PROBES_PER_REP = 2
HTTP_TIMEOUT_S = 20
READY_TIMEOUT_S = 20
# A run stops starting work this long after it began, so it ends well
# within three minutes even when the program under test hangs.
DEADLINE_S = 120
TENANTS = 2
LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

ZOO = ("ResNet18", "MobileNetV2", "EfficientNetB0", "VGG16", "ResNet50",
       "VisionTransformer", "FasterRCNN-MobileNetV3", "YOLOv5", "Transformer",
       "BERT", "Wav2Vec2")

# The serve_mixed job mix, the same multiset every repetition; the seed
# sets the order and which tenant submits which job, dealing every class
# out evenly so neither tenant idles long at the end. Each class is in the
# mix for one reason:
# - codesign: linear-mapper codesign jobs that both tenants submit, so the
#   shared disk tier takes writes and then reads, and the process-wide
#   space memo sees concurrent requests for the same spaces;
# - baseline: Bayesian-optimization jobs, which the service steps by
#   replaying the technique from scratch, so they carry the replay cost;
# - fixdf: short fixed-dataflow explainable jobs over the whole zoo, which
#   give the latency distribution its body and share layer mappings
#   through the disk tier.
MIX = {
    "codesign": [
        {"technique": "explainable", "mapper": "linear", "map_trials": 500,
         "budget": 60, "seed": 7, "models": [m]}
        for m in ("ResNet18", "MobileNetV2", "EfficientNetB0")
    ],
    "baseline": [
        {"technique": t, "mapper": "fixed", "budget": 100, "seed": s,
         "models": ["ResNet18"]}
        for t in ("bayesian", "hypermapper") for s in (1, 2, 3, 4)
    ],
    "fixdf": [
        {"technique": "explainable", "mapper": "fixed", "budget": b,
         "seed": 7, "models": [m]}
        for m in ZOO for b in (30, 40, 50)
    ],
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(sorted_values, p):
    """Nearest-rank percentile of ascending values (0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = -(-p * len(sorted_values) // 100)
    return sorted_values[min(max(int(rank), 1), len(sorted_values)) - 1]


def tail(values):
    """The highest ladder percentile with at least ten samples beyond it
    (the median when even that has fewer): (percentile, value)."""
    ordered = sorted(values)
    n = len(ordered)
    p = max([q for q in LADDER if n * (1 - q / 100) >= 10], default=50.0)
    return p, percentile(ordered, p)


def remaining(deadline):
    return max(deadline - time.perf_counter(), 0.1)


def host_steal_s():
    """CPU time the hypervisor took from this host's CPUs, all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def bits(x):
    return None if x is None else struct.pack(">d", x).hex()


def spec_key(spec):
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------------
# Build


def target_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build").resolve()


def build():
    """Builds the benchmark binary and `edse-serve`; returns their paths."""
    if not (ROOT / "crates" / "edse-core" / "Cargo.toml").is_file():
        log(f"no repository sources next to {BENCH.name}/; nothing to build")
        sys.exit(2)
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = ["cargo", "build", "--release", "--offline", "--manifest-path",
           str(BENCH / "Cargo.toml"), "-p", "perfbench", "-p", "edse-serve", "--bins"]
    if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
        log("build failed")
        sys.exit(1)
    release = target_dir() / "release"
    return release / "perfbench", release / "edse-serve"


# --------------------------------------------------------------------------
# Library workloads: one fresh process per repetition


def spawn(cmd, ready_prefix):
    """Starts `cmd` and waits for its ready line; returns (process, seconds
    from spawn to ready, the ready line)."""
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
    line = proc.stdout.readline() if readable else ""
    ready = time.perf_counter() - started
    if not line.startswith(ready_prefix):
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{cmd[0]} did not become ready: {line!r}")
    return proc, ready, line


def library_rep(binary, workload, sub, traced, deadline):
    """One repetition: returns (setup seconds, result record)."""
    cmd = [str(binary), workload, "--seed", str(sub)]
    if traced:
        cmd += ["--trace", "--spans-out", str(OUT / f"{workload}.spans.jsonl")]
    started = time.perf_counter()
    proc, setup, _ = spawn(cmd, "ready")
    try:
        rest, _ = proc.communicate(timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{workload} seed {sub} ran out of time")
    latency = time.perf_counter() - started
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {sub} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1])
    result["job_s"] = latency
    return setup, result


def setup_probes(cmd, ready_prefix, count, cleanup=None):
    """Spawn-to-ready times of `count` processes stopped as soon as ready."""
    samples = []
    for _ in range(count):
        proc, ready, _ = spawn(cmd, ready_prefix)
        proc.kill()
        proc.wait()
        if cleanup:
            cleanup()
        samples.append(ready)
    return samples


def check_searches(expected, workload, sub, searches):
    """Number of searches whose result differs from the stored one."""
    want = expected.get(workload, {}).get(str(sub))
    if want is None:
        return len(searches)
    got = [{k: s[k] for k in ("search", "evaluations", "best_bits", "best_point")}
           for s in searches]
    if len(got) != len(want):
        return max(len(got), len(want))
    return sum(1 for g, w in zip(got, want) if g != w)


def run_library(binary, workload, seed, seconds, traced, expected):
    rng = random.Random(seed)
    probe = [str(binary), workload, "--seed", "0", "--setup-only"]
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    steal = host_steal_s()
    setups = setup_probes(probe, "ready", SETUP_PROBES)
    reps, traced_reps, errors, attempted, failed = [], [], [], 0, 0
    # Whole cycles over the seed pool, each in a seeded order, so every run
    # medians over the same searches. The traced ledger has no bounds to
    # hold, so traced runs stop at the first pair past the time.
    while not errors and (not reps or time.perf_counter() - started < seconds):
        order = list(range(SEED_POOL[workload]))
        rng.shuffle(order)
        for sub in order:
            if traced and reps and time.perf_counter() - started >= seconds:
                break
            setups += setup_probes(probe, "ready", PROBES_PER_REP)
            runs = [(False, reps)] + ([(True, traced_reps)] if traced else [])
            for with_trace, sink in runs:
                try:
                    setup, result = library_rep(binary, workload, sub, with_trace, deadline)
                except (RuntimeError, OSError, ValueError) as e:
                    errors.append(str(e))
                    attempted += SEARCHES_PER_REP[workload]
                    failed += SEARCHES_PER_REP[workload]
                    break
                if not with_trace:
                    setups.append(setup)
                result["sub_seed"] = sub
                sink.append(result)
                attempted += len(result["searches"])
                failed += check_searches(expected, workload, sub, result["searches"])
            if errors:
                break
    if not reps or (traced and not traced_reps):
        raise SystemExit(f"perfbench: no repetition of {workload} completed: {errors}")
    walls = [r["wall_s"] for r in reps]
    jobs = [r["job_s"] for r in reps]
    job_p, job_tail = tail(jobs)
    report = {
        "workload": workload,
        "seed": seed,
        "repetitions": len(reps),
        "sub_seeds": [r["sub_seed"] for r in reps],
        "state": dict(reps[0]["state"], seed=seed,
                      memo_at_start=sorted({r["state"]["memo_at_start"] for r in reps})),
        "setup_samples": len(setups),
        "setup_s_quartiles": statistics.quantiles(setups, n=4),
        "wall_s": walls,
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "job_tail": {"percentile": job_p, "jobs": len(jobs),
                     "job": "the searches of one process run"},
        "host_steal_s": host_steal_s() - steal,
        "errors": errors,
    }
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "cpu_s": median(report["cpu_s"]),
        "peak_rss_mb": median(report["peak_rss_mb"]),
        "job_p50_s": percentile(sorted(jobs), 50),
        "job_tail_s": job_tail,
    }
    if traced:
        ledgers = [r["ledger"] for r in traced_reps]
        layer = {name: median([l["metrics"][name] for l in ledgers])
                 for name in ledgers[0]["metrics"]}
        layer["trace.overhead_ratio"] = median(
            [t["wall_s"] / u["wall_s"] for t, u in zip(traced_reps, reps)])
        report.update(
            traced_repetitions=len(traced_reps),
            traced_wall_s=[r["wall_s"] for r in traced_reps],
            tails=ledgers[0]["tails"],
            blocking_path_s=ledgers[0]["blocking_path_s"],
            per_dnn_layer=ledgers[0]["per_dnn_layer"],
            spans=str((OUT / f"{workload}.spans.jsonl").relative_to(ROOT)),
        )
        metrics = layer
    return report, metrics, attempted, failed


# --------------------------------------------------------------------------
# serve_mixed: edse-serve on loopback, closed loop of two tenants


def job_stream(variant):
    """Each tenant's job list for one stream variant: both tenants submit
    every codesign job; each technique's baseline jobs and the fixdf jobs
    are dealt out in turn; each tenant's list is shuffled."""
    rng = random.Random(variant)
    tenants = [list(MIX["codesign"]) for _ in range(TENANTS)]
    for technique in ("bayesian", "hypermapper"):
        dealt = [spec for spec in MIX["baseline"] if spec["technique"] == technique]
        rng.shuffle(dealt)
        for i, jobs in enumerate(tenants):
            jobs += dealt[i::TENANTS]
    dealt = list(MIX["fixdf"])
    rng.shuffle(dealt)
    for i, jobs in enumerate(tenants):
        jobs += dealt[i::TENANTS]
    for jobs in tenants:
        rng.shuffle(jobs)
    return tenants


def exchange(port, method, path, body=None):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
    try:
        conn.request(method, path, body=body)
        resp = conn.getresponse()
        return resp.status, resp.read().decode()
    finally:
        conn.close()


def run_job(port, spec, expected):
    """One closed-loop job: submit, stream its events to the end, read its
    terminal status. Returns the client-side record."""
    t0 = time.perf_counter()
    rec = {"key": spec_key(spec), "ok": False, "events": [], "t0": t0}
    try:
        status, body = exchange(port, "POST", "/jobs", json.dumps(spec))
        rec["submit_s"] = time.perf_counter() - t0
        if status != 202:
            rec["error"] = f"POST /jobs -> {status}: {body}"
            return rec
        job = json.loads(body)["id"]
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", f"/jobs/{job}/events")
            resp = conn.getresponse()
            if resp.status != 200:
                rec["error"] = f"GET events -> {resp.status}"
                return rec
            while resp.readline():
                rec["events"].append(time.perf_counter() - t0)
        finally:
            conn.close()
        status, body = exchange(port, "GET", f"/jobs/{job}")
        rec["job_s"] = time.perf_counter() - t0
        if status != 200:
            rec["error"] = f"GET /jobs/{job} -> {status}"
            return rec
        doc = json.loads(body)
        result = doc.get("result") or {}
        got = {"evaluations": result.get("evaluations"),
               "best_bits": bits(result.get("best_objective"))}
        want = expected.get("serve_mixed", {}).get(rec["key"])
        rec["ok"] = doc.get("state") == "completed" and got == want
        if not rec["ok"]:
            rec["error"] = f"job {job}: state {doc.get('state')}, result {got}, expected {want}"
    except (OSError, ValueError, http.client.HTTPException) as e:
        rec["error"] = f"{type(e).__name__}: {e}"
    return rec


def proc_cpu_s(pid):
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mib(pid):
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM")


def serve_rep(server, variant, expected, traced, perfbench, deadline):
    cache = OUT / f"serve-cache-{'t' if traced else 'u'}"
    shutil.rmtree(cache, ignore_errors=True)
    proc, setup, line = spawn([str(server), "--port", "0", "--cache-dir", str(cache)],
                              "edse-serve listening on")
    try:
        port = int(line.strip().rsplit(":", 1)[1])
        tenants = job_stream(variant)
        records = [[] for _ in tenants]
        cpu0 = proc_cpu_s(proc.pid)
        started = time.perf_counter()

        def tenant(jobs, out):
            for spec in jobs:
                if time.perf_counter() > deadline:
                    out.append({"key": spec_key(spec), "ok": False, "events": [],
                                "t0": time.perf_counter(), "error": "not submitted: out of time"})
                else:
                    out.append(run_job(port, spec, expected))

        threads = [threading.Thread(target=tenant, args=(jobs, out))
                   for jobs, out in zip(tenants, records)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - started
        result = {"setup_s": setup, "wall_s": wall,
                  "cpu_s": proc_cpu_s(proc.pid) - cpu0,
                  "peak_rss_mb": proc_peak_rss_mib(proc.pid),
                  "records": records}
        if traced:
            status, text = exchange(port, "GET", "/metrics")
            if status != 200:
                raise RuntimeError(f"GET /metrics -> {status}")
            result["metrics"] = text
    finally:
        proc.terminate()
        proc.wait(timeout=30)
    if traced:
        out = subprocess.run([str(perfbench), "diskopen", str(cache)],
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise RuntimeError(f"reopening the filled disk cache failed: {out.stderr.strip()}")
        result["diskopen"] = json.loads(out.stdout)
    shutil.rmtree(cache, ignore_errors=True)
    return result


def prometheus(text):
    """`name -> value` for every unlabelled sample."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, value = line.rsplit(" ", 1)
            out[name] = float(value)
    return out


def sum_matching(samples, pattern):
    rx = re.compile(pattern)
    return sum(v for k, v in samples.items() if rx.fullmatch(k))


def serve_ledger(run, untraced_wall):
    """Per-layer metrics of one traced serve repetition: client-side spans
    plus the server's `/metrics` scrape at the end."""
    records = [r for tenant in run["records"] for r in tenant]
    submits = sorted(r["submit_s"] for r in records if "submit_s" in r)
    firsts = [r["events"][0] for r in records if r["events"]]
    gaps = [b - a for r in records for a, b in zip(r["events"], r["events"][1:])]
    seen, repeats = set(), 0
    for r in sorted(records, key=lambda r: r["t0"]):
        repeats += r["key"] in seen
        seen.add(r["key"])
    m = prometheus(run["metrics"])
    job = r"edse_job\d+_"
    lookups = {kind: sum_matching(m, job + rf"point_cache_shard\d+_{kind}")
               for kind in ("hit", "miss", "inflight_wait")}
    layer = {kind: sum_matching(m, job + rf"layer_cache_shard\d+_{kind}")
             for kind in ("hit", "miss", "inflight_wait")}
    points = sum(lookups.values())
    unique = lookups["miss"]
    disk = {k: m.get(f"edse_disk_cache_{k}", 0.0) for k in ("hit", "miss", "append")}
    first_p, first_tail = tail(firsts)
    gap_p, gap_tail = tail(gaps)
    # Each tenant blocks on its jobs back to back: job spans should cover
    # the tenant's active time, from its first submit to its last status.
    busy = sum(r.get("job_s", 0.0) for r in records)
    active = sum(max(r["t0"] + r.get("job_s", 0.0) for r in tenant) - min(r["t0"] for r in tenant)
                 for tenant in run["records"] if tenant)
    layer_metrics = {
        "edse-serve.submit_p50_s": percentile(submits, 50),
        "edse-serve.first_event_p50_s": percentile(sorted(firsts), 50),
        "edse-serve.first_event_tail_s": first_tail,
        "edse-serve.event_gap_p50_s": percentile(sorted(gaps), 50),
        "edse-serve.event_gap_tail_s": gap_tail,
        "edse-serve.jobs": float(len(records)),
        "edse-serve.jobs_failed": float(sum(not r["ok"] for r in records)),
        "edse-serve.repeat_share": repeats / max(len(records), 1),
        "session.lookups_per_eval": points / max(unique, 1.0),
        "evaluate.points": points,
        "evaluate.point_hits": lookups["hit"],
        "evaluate.point_misses": lookups["miss"],
        "evaluate.layer_hits": layer["hit"],
        "evaluate.layer_misses": layer["miss"],
        "evaluate.layer_inflight_waits": layer["inflight_wait"],
        "evaluate.useful_ratio": unique / max(points, 1.0),
        "edse-executor.budget": float(pool_budget()),
        "edse-executor.tasks": m.get("edse_executor_tasks", 0.0),
        "edse-executor.steals": m.get("edse_executor_steals", 0.0),
        "edse-executor.idle_s": m.get("edse_executor_idle_ns", 0.0) * 1e-9,
        "edse-executor.workers_spawned": m.get("edse_executor_workers_spawned", 0.0),
        "diskcache.open_s": run["diskopen"]["open_s"],
        "diskcache.hits": disk["hit"],
        "diskcache.misses": disk["miss"],
        "diskcache.appends": disk["append"],
        "diskcache.hit_ratio": disk["hit"] / max(disk["hit"] + disk["miss"], 1.0),
        "mapper.calls": sum_matching(m, job + "stage_mapper_us_count"),
        "mapper.s": sum_matching(m, job + "stage_mapper_us_sum") * 1e-6,
        "trace.coverage": busy / max(active, 1e-9),
        "trace.overhead_ratio": run["wall_s"] / untraced_wall,
    }
    tails = {
        "edse-serve.first_event_tail_s": {"percentile": first_p, "samples": len(firsts)},
        "edse-serve.event_gap_tail_s": {"percentile": gap_p, "samples": len(gaps)},
    }
    return layer_metrics, tails


def pool_budget():
    override = os.environ.get("EDSE_TEST_THREADS", "")
    if override.isdigit() and int(override) > 0:
        return int(override)
    return len(os.sched_getaffinity(0))


def run_serve(server, perfbench, seed, seconds, traced, expected):
    started = time.perf_counter()
    probe_cache = OUT / "serve-cache-probe"
    probe = [str(server), "--port", "0", "--cache-dir", str(probe_cache)]

    def probes(count):
        return setup_probes(probe, "edse-serve listening on", count,
                            cleanup=lambda: shutil.rmtree(probe_cache, ignore_errors=True))

    deadline = started + DEADLINE_S
    steal = host_steal_s()
    setups = probes(SETUP_PROBES)
    reps, traced_reps, errors = [], [], []
    jobs_per_rep = sum(len(jobs) for jobs in job_stream(0))
    order = list(range(STREAM_POOL))
    random.Random(seed).shuffle(order)
    while not errors and (not reps or time.perf_counter() - started < seconds):
        setups += probes(PROBES_PER_REP)
        variant = order[len(reps) % len(order)]
        try:
            untraced = serve_rep(server, variant, expected, False, perfbench, deadline)
            untraced["variant"] = variant
            reps.append(untraced)
            setups.append(untraced["setup_s"])
            if traced:
                t = serve_rep(server, variant, expected, True, perfbench, deadline)
                t["ledger"] = serve_ledger(t, untraced["wall_s"])
                traced_reps.append(t)
        except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
            errors.append(f"{type(e).__name__}: {e}")
    if not reps or (traced and not traced_reps):
        raise SystemExit(f"perfbench: no repetition of serve_mixed completed: {errors}")
    all_runs = reps + traced_reps
    records = [r for run in all_runs for tenant in run["records"] for r in tenant]
    # A repetition that broke off counts every job of its stream as failed.
    attempted = len(records) + jobs_per_rep * len(errors)
    failures = [r["error"] for r in records if not r["ok"]]
    failed = len(failures) + jobs_per_rep * len(errors)
    latencies = [r["job_s"] for run in reps for tenant in run["records"]
                 for r in tenant if "job_s" in r]
    job_p, job_tail = tail(latencies)
    report = {
        "workload": "serve_mixed",
        "seed": seed,
        "repetitions": len(reps),
        "stream_variants": [r["variant"] for r in reps],
        "state": {
            "memo_at_start": "cold (fresh server process)",
            "disk_tier": "empty, then filled (fresh directory per repetition)",
            "pool_budget": pool_budget(),
            "host_cpus": len(os.sched_getaffinity(0)),
            "edse_test_threads": os.environ.get("EDSE_TEST_THREADS"),
            "seed": seed,
            "tenants": TENANTS,
            "loop": "closed",
        },
        "mix_per_repetition": {"codesign": TENANTS * len(MIX["codesign"]),
                               "baseline": len(MIX["baseline"]),
                               "fixdf": len(MIX["fixdf"])},
        "setup_samples": len(setups),
        "setup_s_quartiles": statistics.quantiles(setups, n=4),
        "wall_s": [r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "job_tail": {"percentile": job_p, "jobs": len(latencies)},
        "failures": failures[:10],
        "errors": errors,
        "host_steal_s": host_steal_s() - steal,
    }
    metrics = {
        "setup_s": median(setups),
        "wall_s": median(report["wall_s"]),
        "cpu_s": median(report["cpu_s"]),
        "peak_rss_mb": median(report["peak_rss_mb"]),
        "job_p50_s": percentile(sorted(latencies), 50),
        "job_tail_s": job_tail,
    }
    if traced:
        ledgers = [t["ledger"][0] for t in traced_reps]
        layer = {name: median([l[name] for l in ledgers]) for name in ledgers[0]}
        report.update(traced_repetitions=len(traced_reps),
                      tails=traced_reps[0]["ledger"][1])
        spans = OUT / "serve_mixed.spans.jsonl"
        with open(spans, "w") as f:
            for tenant, recs in enumerate(traced_reps[-1]["records"]):
                for r in recs:
                    f.write(json.dumps({"tenant": tenant, "job": r["key"],
                                        "submit_s": r.get("submit_s"),
                                        "events_s": r["events"],
                                        "job_s": r.get("job_s")}) + "\n")
        report["spans"] = str(spans.relative_to(ROOT))
        metrics = layer
    return report, metrics, attempted, failed


# --------------------------------------------------------------------------
# Recording the expected results


def record(perfbench):
    """Recomputes every stored result on a one-thread pool (so the check
    also pins parallel runs to the serial result)."""
    env = dict(os.environ, EDSE_TEST_THREADS="1")
    expected = {}
    for workload, pool in SEED_POOL.items():
        expected[workload] = {}
        for sub in range(pool):
            out = subprocess.run([str(perfbench), workload, "--seed", str(sub)],
                                 capture_output=True, text=True, env=env, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expected[workload][str(sub)] = [
                {k: s[k] for k in ("search", "evaluations", "best_bits", "best_point")}
                for s in result["searches"]]
            log(f"recorded {workload} seed {sub}")
    specs = [spec for specs in MIX.values() for spec in specs]
    out = subprocess.run([str(perfbench), "jobs"], input="".join(json.dumps(s) + "\n" for s in specs),
                         capture_output=True, text=True, env=env, check=True)
    expected["serve_mixed"] = {}
    for spec, line in zip(specs, out.stdout.strip().splitlines()):
        result = json.loads(line)
        expected["serve_mixed"][spec_key(spec)] = {
            "evaluations": result["evaluations"],
            "best_bits": bits(result.get("best_objective")),
        }
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    log(f"wrote {EXPECTED.relative_to(ROOT)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not args.record and not args.workload:
        parser.error("--workload is required")
    perfbench, server = build()
    OUT.mkdir(exist_ok=True)
    if args.record:
        record(perfbench)
        return
    expected = json.loads(EXPECTED.read_text())
    traced = args.trace == 1
    if args.workload == "serve_mixed":
        report, metrics, attempted, failed = run_serve(
            server, perfbench, args.seed, args.seconds, traced, expected)
    else:
        report, metrics, attempted, failed = run_library(
            perfbench, args.workload, args.seed, args.seconds, traced, expected)
    # Names and units come from the benchmark's manifest. A layer metric a
    # workload does not measure (its layer is not exercised, or the server
    # does not expose it) reads 0 and is listed in the report.
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = manifest["per_layer" if traced else "end_to_end"]
    unknown = set(metrics) - {m["name"] for m in declared}
    if unknown:
        raise SystemExit(f"perfbench: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    report["not_measured"] = [m["name"] for m in declared if m["name"] not in metrics]
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
