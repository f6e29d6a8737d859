#!/usr/bin/env python3
"""Serve benchmark entry point: builds perfbench, runs one workload.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Builds `bfpp` (the server under test) and the `perfbench` binary from the
repository's sources with CMake into the build directory ($CARGO_TARGET_DIR,
else .bench_build), then runs perfbench. Its last stdout line is the
result object; see perfbench/README.md for the workloads and metrics.
--smoke runs every workload at a tiny size, checks that every metric named
in BENCHMARK.json is emitted, and checks that a corrupted reference is
reported as failed operations.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_hot", "sweep_cold", "serve_churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, d) if not os.path.isabs(d) else d


def build():
    """Configures (once) and builds; returns the directory of the binaries."""
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "-j", jobs], check=True, stdout=sys.stderr)
    return out


def run_perfbench(bin_dir, workload, seed, seconds, trace, extra=()):
    """Runs perfbench in its own process group; returns its stdout lines."""
    work = os.path.join(build_dir(), "runs", workload)
    os.makedirs(work, exist_ok=True)
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server", os.path.join(bin_dir, "bfpp"), "--work-dir", work] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RuntimeError("perfbench timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        # perfbench reaps its servers; this matters only if it died or
        # timed out.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with status %d" % proc.returncode)
    lines = stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return lines


def parse_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError("malformed result: " + line)
    return result


def smoke(bin_dir):
    """Every workload at a tiny size: all named metrics present, checks live."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    for workload in workloads:
        for trace in (0, 1):
            result = parse_result(run_perfbench(bin_dir, workload, 1, 1, trace, ["--smoke"])[-1])
            got = set(result["metrics"])
            if got != names[trace]:
                problems.append("%s trace=%d: missing %s, unexpected %s" % (
                    workload, trace, sorted(names[trace] - got), sorted(got - names[trace])))
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append("%s trace=%d: not correct: %s" % (workload, trace, result))
            log("smoke %s trace=%d: %d metrics, correct=%s" % (
                workload, trace, len(got), result["correct"]))
        # Self-test: a corrupted reference must surface as failed operations.
        result = parse_result(run_perfbench(bin_dir, workload, 1, 1, 0,
                                         ["--smoke", "--corrupt-reference"])[-1])
        if result["correct"] or result["failed"] < 1:
            problems.append("%s: a corrupted reference was not reported: %s" % (workload, result))
        log("self-test %s: corrupted reference -> failed=%d correct=%s" % (
            workload, result["failed"], result["correct"]))
    for p in problems:
        log("FAIL " + p)
    print(json.dumps({"smoke": "fail" if problems else "ok", "problems": problems}))
    return 1 if problems else 0


def main():
    # A SIGTERM unwinds through run_perfbench's cleanup, which kills
    # perfbench's process group (perfbench and its servers) before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and args.workload is None:
        ap.error("--workload is required (or --smoke)")
    try:
        bin_dir = build()
        if args.smoke:
            return smoke(bin_dir)
        lines = run_perfbench(bin_dir, args.workload, args.seed, args.seconds, args.trace)
        parse_result(lines[-1])
    except (subprocess.CalledProcessError, RuntimeError, OSError, ValueError) as e:
        log("error: %s" % e)
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
