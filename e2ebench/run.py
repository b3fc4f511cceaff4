#!/usr/bin/env python3
"""End-to-end benchmark for dre: one workload per front end.

    python3 e2ebench/run.py --workload stream_store|eval_memory|serve_warm \
        --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root. Builds the benchmark package (e2ebench/
CMakeLists.txt: the dre libraries, dre_serve and the dre_e2e harness) into
.bench_build/e2e, generates the workload's inputs from --seed into a
scratch directory under .bench_build/work, runs the harness, and relays its
output. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1. See e2ebench/README.md.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
WORK_ROOT = ROOT / ".bench_build" / "work"
TMP_DIR = ROOT / ".bench_build" / "tmp"
WORKLOADS = ("stream_store", "eval_memory", "serve_warm")
RUN_DEADLINE_S = 170.0  # the whole run, build excluded


def log(msg):
    print(f"[e2ebench] {msg}", file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(**extra):
    """The environment for every child; temporary files stay in the checkout."""
    TMP_DIR.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(TMP_DIR), **extra)


def build():
    """Configure once, then an incremental build (a no-op when current)."""
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, env=child_env())
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", str(nproc())],
                   check=True, stdout=sys.stderr, env=child_env())


def revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return "git:" + out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "tools", BENCH_DIR.name):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "sources:" + digest.hexdigest()[:16]


def run_child(cmd, env, timeout):
    """Runs one harness step in its own process group; on timeout the whole
    group (the harness and any dre_serve it spawned) is killed and reaped."""
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{cmd[1]} timed out after {timeout:.0f}s")
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited with code {proc.returncode}")
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small inputs (self-test); same code paths")
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1
    start = time.monotonic()
    harness = str(BUILD_DIR / "dre_e2e")
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env(DRE_THREADS=str(nproc()))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(workdir)] + (["--tiny"] if args.tiny else [])
    try:
        run_child([harness, "gen"] + common, env, RUN_DEADLINE_S)
        out = run_child(
            [harness, "run"] + common +
            ["--seconds", str(args.seconds), "--trace", str(args.trace),
             "--bindir", str(BUILD_DIR)],
            env, RUN_DEADLINE_S - (time.monotonic() - start))
    except (OSError, RuntimeError) as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.splitlines()
    if args.trace:
        # Every traced run reports the full per-layer set of BENCHMARK.json.
        # A layer this workload does not exercise reads 0, and the context
        # line names it under "not_measured", so a 0 is never read as a
        # measurement.
        result = json.loads(lines[-1])
        context = json.loads(lines[-2][len("context "):])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        filled = [m for m in spec["per_layer"] if m["name"] not in result["metrics"]]
        for m in filled:
            result["metrics"][m["name"]] = {"value": 0, "unit": m["unit"]}
        context["not_measured"] = ",".join(m["name"] for m in filled)
        lines[-2] = "context " + json.dumps(context, sort_keys=True)
        lines[-1] = json.dumps(result)
    print(f"revision {revision()}")
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
