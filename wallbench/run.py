#!/usr/bin/env python3
"""Builds the wall-clock benchmark from source and runs it.

Run from the repository root:

    python3 wallbench/run.py --workload kv_memcached --seed 1 --seconds 10 --trace 0
    python3 wallbench/run.py --smoke

The benchmark package (wallbench/CMakeLists.txt) is configured and built
into .bench_build/wallbench; build output goes to standard error so that
the last line of standard output stays the benchmark's JSON result. Exits
non-zero, printing no result, when the KFlex sources are missing or the
build fails.

BENCHMARK.json is the one list of metrics: a run's result keeps the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1) it
names, and a run that lacks one of them is not correct. --smoke runs every
workload it names, untraced and traced, on tiny inputs.
"""
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "wallbench")
BINARY = os.path.join(BUILD_DIR, "wallbench")


def source_rev():
    """The git commit, or for a checkout that is not a git tree a SHA-256
    prefix over src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "wallbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def run_binary(args, expected):
    """Runs the binary, relays its output and returns its result reduced to
    the `expected` metrics (None when it printed no result)."""
    out = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("wallbench: no result (exit code %d)" % out.returncode, file=sys.stderr)
        return None
    metrics = result["metrics"]
    for name in expected:
        if name not in metrics:
            print("check failed: metric missing: " + name, file=sys.stderr)
            result["correct"] = False
    result["metrics"] = {name: metrics[name] for name in expected if name in metrics}
    if out.returncode != 0:
        result["correct"] = False
    return result


def smoke(spec, rev):
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec["workloads"]:
        for trace in ("0", "1"):
            expected = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
            result = run_binary(["--workload", workload["name"], "--seed", "1",
                                 "--seconds", "0.4", "--trace", trace, "--smoke",
                                 "--git-rev", rev], expected)
            if result is None:
                return 1
            print("smoke %s trace=%s: %s, %d attempted, %d failed, %d metrics" % (
                workload["name"], trace, "correct" if result["correct"] else "INCORRECT",
                result["attempted"], result["failed"], len(result["metrics"])))
            total["correct"] = total["correct"] and result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("wallbench: no KFlex sources under %s/src" % ROOT, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if not build():
        print("wallbench: build failed", file=sys.stderr)
        return 3
    sys.stdout.flush()
    args = sys.argv[1:]
    if args == ["--smoke"]:
        return smoke(spec, source_rev())
    trace = args[args.index("--trace") + 1] if "--trace" in args[:-1] else "0"
    expected = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    result = run_binary(args + ["--git-rev", source_rev()], expected)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
