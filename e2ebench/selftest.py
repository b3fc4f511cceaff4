#!/usr/bin/env python3
"""Self-test for the end-to-end benchmark: every workload at a tiny size.

    python3 e2ebench/selftest.py

Run from the repository root. For each workload it makes one untraced and
one traced run (--tiny --seconds 1) and checks that
  - the last stdout line is the result object with exactly the keys
    correct / attempted / failed / metrics, the correctness gate passed
    and no operation failed;
  - the untraced run emits every end_to_end metric of BENCHMARK.json with
    its unit, each a finite number above 0;
  - the traced run emits every per_layer metric with its unit, the
    workload's residual (non-zero) and the tracing overhead, and its
    context names the metrics filled with 0 as not measured.
Last, it runs the benchmark in a directory holding only BENCHMARK.json and
e2ebench/, where it must fail without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# The per-layer metric that holds each workload's unattributed time.
RESIDUAL = {
    "stream_store": "core.stream_residual_ms",
    "eval_memory": "core.unattributed_ms",
    "serve_warm": "serve.wire_ms.p50",
}


def run(root, workload, trace):
    cmd = [sys.executable, str(root / BENCH_DIR.name / "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=900)


def check_run(spec, workload, trace, failures):
    proc = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
        return
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = json.loads(lines[-2][len("context "):])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"]:
        failures.append(f"{label}: correctness gate failed\n{proc.stderr[-2000:]}")
    if result["failed"] != 0 or result["attempted"] < 1:
        failures.append(f"{label}: attempted {result['attempted']}, failed "
                        f"{result['failed']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if sorted(metrics) != sorted(m["name"] for m in wanted):
        failures.append(f"{label}: metric set differs from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got["unit"] != m["unit"]:
            failures.append(f"{label}: {m['name']} unit {got['unit']} != {m['unit']}")
        if not math.isfinite(got["value"]) or (not trace and got["value"] <= 0):
            failures.append(f"{label}: {m['name']} = {got['value']}")
    if trace:
        for name in (RESIDUAL[workload], "bench.trace_overhead_pct"):
            if name not in metrics:
                failures.append(f"{label}: {name} missing")
        # Metrics run.py filled with 0 must be named in the context.
        filled = set(filter(None, context.get("not_measured", "?").split(",")))
        if not filled <= {m["name"] for m in wanted} or RESIDUAL[workload] in filled:
            failures.append(f"{label}: not_measured {sorted(filled)}")
        if metrics.get(RESIDUAL[workload], {}).get("value", 0) == 0:
            failures.append(f"{label}: residual {RESIDUAL[workload]} is 0")
    print(f"ok  {label}: attempted {result['attempted']}, "
          f"{len(metrics)} metrics", flush=True)


def check_bare_checkout(failures):
    """Without the repository's sources the benchmark must fail cleanly."""
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name)
    try:
        proc = run(bare, "stream_store", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append("bare checkout: expected a failure without a result")
    else:
        print(f"ok  bare checkout fails (exit {proc.returncode})", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    # Every workload run.py offers, including eval_memory, which
    # BENCHMARK.json leaves out (README.md, "Measured spread").
    for workload in RESIDUAL:
        for trace in (0, 1):
            check_run(spec, workload, trace, failures)
    check_bare_checkout(failures)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
