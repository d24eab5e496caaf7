#!/usr/bin/env python3
"""Entry point of the provlin benchmark.

    python3 perfbench/run.py --workload focused|archive|capture \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a provlin checkout. The first call builds provlin
and the benchmark driver from source into .bench_build/ (CMake, Release);
later calls rebuild incrementally. One run builds its fixtures from the
seed in a fresh directory under .bench_build/runs/, measures, checks
every answer, and prints the result as the last line of stdout:

    {"correct": true, "attempted": N, "failed": F, "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics of a separate traced run (its spans are written to
.bench_build/traces/). --smoke runs every workload at tiny sizes, traced
and untraced, and checks that every metric is emitted with its unit.
Any failure exits non-zero with a one-line reason on stderr.
"""

import argparse
import ctypes
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench_driver")
PROVLIN = os.path.join(BUILD, "provlin", "tools", "provlin")

# Metrics every untraced run prints by name and unit but BENCHMARK.json
# does not gate: the end-to-end metrics whose run-to-run spread on a
# shared VM is set by host preemptions, not by provlin, and the host
# reference, which measures the host (README.md, "Hazards").
REPORTED_ONLY = {
    "p99_ms": "ms",
    "peak_p99_ms": "ms",
    "light_p99_ms": "ms",
    "sustained_rps": "req/s",
    "run_p99_ms": "ms",
    "host_ref_ms": "ms",
}

RUN_LIMIT_S = 170  # a run (after any build) must end within 180 s
BUILD_LIMIT_S = 850
PR_SET_CHILD_SUBREAPER = 36


class Failure(Exception):
    pass


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise Failure(f"cannot read {path}: {e}")


def build():
    """Configures once, then builds the two targets incrementally."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise Failure("no provlin sources at the checkout root "
                      "(CMakeLists.txt and src/ are missing)")
    if shutil.which("cmake") is None:
        raise Failure("cmake is not installed")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    with open(os.path.join(BUILD, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4),
                      "--target", "provlin", "perfbench_driver"])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    timeout=BUILD_LIMIT_S).returncode
            except subprocess.TimeoutExpired:
                raise Failure(f"build timed out; see {log_path}")
            if rc != 0:
                raise Failure(f"build failed ({' '.join(cmd[:2])}); see {log_path}")


def reap_children():
    """Waits for every child, including servers orphaned by the driver
    (this process is their subreaper)."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.01)


def run_driver(workload, seed, seconds, trace, smoke, deadline):
    run_dir = os.path.join(BUILD, "runs", f"{workload}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--provlin", PROVLIN, "--dir", run_dir]
    if smoke:
        cmd += ["--smoke", "1"]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans-out", os.path.join(traces, f"{workload}-{seed}.json")]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure(f"{workload}: run did not finish in time")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        reap_children()
        shutil.rmtree(run_dir, ignore_errors=True)
    if proc.returncode != 0:
        reason = [l for l in err.splitlines() if l.strip()]
        raise Failure(reason[-1].removeprefix("perfbench: ") if reason else
                      f"{workload}: driver exited with {proc.returncode}")
    sys.stderr.write(err)
    lines = out.rstrip("\n").split("\n")
    return lines[:-1], lines[-1]


def check_result(line, wanted, reported_only):
    """Checks the driver's result against BENCHMARK.json and returns the
    contract's result line plus the reported-only metrics."""
    try:
        result = json.loads(line)
    except ValueError:
        raise Failure("driver printed no JSON result")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise Failure(f"result keys {sorted(result)} are not the contract's")
    if result["correct"] is not True:
        raise Failure("driver reported incorrect output")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            raise Failure(f"'{key}' is not a whole number")
    if result["attempted"] < 1:
        raise Failure("nothing attempted")
    metrics = result["metrics"]
    names = {m["name"]: m["unit"] for m in wanted}
    names.update(reported_only)
    if set(metrics) != set(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        raise Failure(f"driver metrics differ from BENCHMARK.json: missing "
                      f"{missing}, unexpected {extra}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise Failure(f"metric {name} has no finite value")
        if m.get("unit") != names[name]:
            raise Failure(f"metric {name} has unit {m.get('unit')!r}, "
                          f"expected {names[name]!r}")
    gated = dict(result)
    gated["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    extra = {n: metrics[n] for n in reported_only}
    return json.dumps(gated), extra


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny sizes, traced and not")
    args = parser.parse_args()

    # Servers the driver leaves behind become our children, so they
    # can be waited for.
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass

    try:
        spec = load_spec()
        workloads = [w["name"] for w in spec["workloads"]]
        if not args.smoke and args.workload not in workloads:
            raise Failure(f"--workload must be one of {workloads}")
        build()
        if args.smoke:
            for name in workloads:
                for trace in (0, 1):
                    start = time.monotonic()
                    _, line = run_driver(name, args.seed, 1, trace, True,
                                         start + RUN_LIMIT_S)
                    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
                    extra = REPORTED_ONLY if trace == 0 else {}
                    check_result(line, wanted, extra)
                    print(f"smoke: {name} trace={trace}: "
                          f"{len(wanted) + len(extra)} metrics with units in "
                          f"{time.monotonic() - start:.1f} s")
            print("smoke: ok")
            return 0
        seconds = args.seconds or spec["run_seconds"]
        start = time.monotonic()
        human, line = run_driver(args.workload, args.seed, seconds, args.trace,
                                 False, start + RUN_LIMIT_S)
        line, extra = check_result(
            line, spec["end_to_end"] if args.trace == 0 else spec["per_layer"],
            REPORTED_ONLY if args.trace == 0 else {})
        for l in human:
            print(l)
        for name, m in extra.items():
            print(f"reported, not gated: {name} = {m['value']:.6g} {m['unit']}")
        print(line)
        return 0
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
