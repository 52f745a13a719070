#!/usr/bin/env python3
"""Builds and runs the moa benchmark (perfbench/moabench.cc).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads and metrics are listed in BENCHMARK.json and described in
perfbench/README.md. The script builds the harness from the checkout's
sources into .bench_build/ (an up-to-date build is a no-op), runs one
workload, prints an environment stamp and the harness's per-metric lines,
and ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.
Extra arguments after the four above (--size smoke, --inject-wrong-answer,
--inject-failed-query) go to the harness unchanged.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "work")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(code)


def run(cmd, timeout):
    """Runs cmd to completion (killed and reaped on timeout)."""
    try:
        return subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("timed out after %d s: %s" % (timeout, " ".join(cmd)))


def build():
    if not os.path.isfile("CMakeLists.txt") or not os.path.isdir("src"):
        fail("run from the root of a moa checkout (CMakeLists.txt and src/ missing)", 2)
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = run(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if configure.returncode != 0:
            sys.stderr.write(configure.stdout)
            fail("cmake configure failed")
    compiled = run(["cmake", "--build", BUILD_DIR, "--target", "moabench",
                    "-j", jobs], BUILD_TIMEOUT_S)
    if compiled.returncode != 0:
        sys.stderr.write(compiled.stdout)
        fail("build failed")
    return os.path.join(BUILD_DIR, "moabench")


def source_stamp():
    """The commit when the checkout is a git work tree, else a digest of the
    sources the harness was built from."""
    if os.path.isdir(".git"):
        head = run(["git", "rev-parse", "HEAD"], 30)
        if head.returncode == 0:
            return "commit " + head.stdout.strip()
    digest = hashlib.sha256()
    for root in ("src", "perfbench"):
        for directory, dirs, files in os.walk(root):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    with open("CMakeLists.txt", "rb") as f:
        digest.update(f.read())
    return "source-sha256 " + digest.hexdigest()[:16]


def check_result(line, spec, trace):
    """The harness's last line must carry exactly the metrics, with the
    units, that BENCHMARK.json names for this mode."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("malformed result keys: %s" % sorted(result))
    if result["correct"] is not True:
        fail("the harness reported wrong answers")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != wanted:
        fail("metrics differ from BENCHMARK.json: missing %s, unexpected %s" % (
            sorted(set(wanted.items()) - set(got.items())),
            sorted(set(got.items()) - set(wanted.items()))))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    binary = build()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail("unknown workload '%s'" % args.workload, 2)

    workdir = os.path.join(WORK_DIR, str(os.getpid()))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--workdir", workdir] + extra
    print("env source=%s" % source_stamp(), flush=True)
    proc = run(cmd, RUN_TIMEOUT_S)
    shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        if lines[-1].startswith("{"):
            print(lines[-1])
        fail("harness exited with code %d" % proc.returncode, proc.returncode or 1)
    result = check_result(lines[-1], spec, args.trace == "1")
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
