#!/usr/bin/env python3
"""Runs one benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
simulator library and the workload driver (perfbench/CMakeLists.txt) into
.bench_build/perfbench; later runs only rebuild what changed. The driver then
runs the workload for the whole window in one process of its own, so every
metric is taken over all of the run's samples. An untraced run also starts
SETUP_PROCESSES - 1 driver processes that only set up; setup_s is the
median of the set-up times of all of them, each timed from its process's
start. This script stamps the result with the host's provenance, checks
that the metric names and units are exactly the ones BENCHMARK.json lists
for the run's kind (end_to_end untraced, per_layer traced) and prints the
result JSON as the last stdout line. It also keeps the result, with its
provenance, under .bench_build/results/ for perfbench/compare.py.

Exits non-zero without printing a result when the sources are missing, the
build fails or the driver's output breaks the contract.
"""

import argparse
import hashlib
import json
import os
import subprocess
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
TRACES_DIR = os.path.join(ROOT, ".bench_build", "traces")
DRIVER_TIMEOUT_S = 170  # for all of a run's driver processes together
SETUP_PROCESSES = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_benchmark():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def run_quiet(cmd):
    """Runs a build step with its output on stderr (stdout is the result)."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                          stderr=sys.stderr).returncode


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            fail("cmake configure failed")
    jobs = str(os.cpu_count() or 1)
    if run_quiet(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs]) != 0:
        fail(f"build of {target} failed")
    return os.path.join(BUILD_DIR, target)


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD_DIR, "CMakeCache.txt"),
                  encoding="utf-8") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def revision():
    """The git revision, or a hash of the benchmarked sources when the
    checkout is not a git repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain", "src",
                                    "perfbench"], cwd=ROOT,
                                   capture_output=True, text=True,
                                   timeout=10).stdout.strip()
            return out.stdout.strip() + ("-dirty" if dirty else "")
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def compiler():
    path = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        out = subprocess.run([path, "--version"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.splitlines()[0].strip()
    except (OSError, IndexError, subprocess.SubprocessError):
        return path or "unknown"


def provenance(simd_tier):
    """Host fields must match for two results to be compared; the revision
    is what a comparison compares."""
    return {
        "host": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            "simd_tier": simd_tier,
            "compiler": compiler(),
            "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
            "flatdd_env": {k: v for k, v in sorted(os.environ.items())
                           if k.startswith("FLATDD_")},
        },
        "revision": revision(),
    }


def check_result(result, expected):
    """The driver's last line must carry exactly the listed metrics."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a positive integer")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a non-negative integer")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        fail(f"metric names differ from BENCHMARK.json: "
             f"extra {sorted(set(metrics) - set(want))}, "
             f"missing {sorted(set(want) - set(metrics))}")
    for name, entry in metrics.items():
        if entry.get("unit") != want[name] or not isinstance(
                entry.get("value"), (int, float)):
            fail(f"metric {name}: {entry} (unit should be {want[name]})")


def self_test():
    tests = build("perfbench_tests")
    return subprocess.run([tests], cwd=ROOT).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; BENCHMARK.json has {names}")
    driver = build("perfbench_driver")

    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        os.makedirs(TRACES_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            TRACES_DIR, f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()

    def run_driver(extra):
        remaining = DRIVER_TIMEOUT_S - (time.monotonic() - started)
        try:
            proc = subprocess.run(cmd + extra, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(1.0, remaining))
        except subprocess.TimeoutExpired:
            fail(f"driver did not finish within {DRIVER_TIMEOUT_S} s")
        sys.stderr.write(proc.stderr)
        out = proc.stdout.splitlines()
        if proc.returncode != 0 or not out:
            fail(f"driver exited with {proc.returncode}")
        try:
            return json.loads(out[-1]), out[:-1]
        except ValueError:
            fail(f"driver's last line is not JSON: {out[-1]!r}")

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROCESSES - 1):
            setup, _ = run_driver(["--setup-only"])
            if not isinstance(setup.get("setup_s"), (int, float)):
                fail(f"set-up-only driver printed {setup!r}")
            setups.append(setup["setup_s"])
    result, lines = run_driver([])
    check_result(result,
                 bench["per_layer"] if args.trace else bench["end_to_end"])
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        lines.append("setup_s over " + str(len(setups)) + " processes: " +
                     " ".join(f"{s:.4f}" for s in setups))

    simd = "unknown"
    for line in lines:
        if "workload " in line and " simd " in line:
            simd = line.rsplit(" simd ", 1)[1].strip()
    prov = provenance(simd)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "driver_seconds": time.monotonic() - started,
              "provenance": prov, "result": result}
    with open(os.path.join(
            RESULTS_DIR,
            f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
            "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)

    for line in lines:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
