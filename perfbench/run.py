#!/usr/bin/env python3
"""Build the simulator from source and run one benchmark workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the root; the benchmark binary prints every metric by
name with its unit, and its last stdout line is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configure once, then (re)build the benchmark target. Returns the
    binary's path, or None when the build fails."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "perfbench",
                      "-j", "4"])
        for cmd in steps:
            # Build chatter goes to stderr: stdout carries the result.
            if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
                print("perfbench: build failed: " + " ".join(cmd),
                      file=sys.stderr)
                return None
    return os.path.join(out, "perfbench")


def run(binary, workload, seed, seconds, trace, extra=(), expect=True):
    """Run the benchmark binary; returns (rc, stdout lines). With
    `expect`, digests are checked against the committed ones."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if expect:
        cmd += ["--expect", os.path.join(HERE, "digests.txt")]
    if trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%s.json" % (workload, seed))]
    cmd += list(extra)
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, []
    return p.returncode, p.stdout.splitlines()


def result_of(lines):
    """The final JSON object, or None if the output does not end in one."""
    if not lines:
        return None
    try:
        res = json.loads(lines[-1])
    except ValueError:
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    rc, lines = run(binary, args.workload, args.seed, args.seconds,
                    args.trace)
    res = result_of(lines)
    if rc != 0 or res is None:
        sys.stdout.write("".join(l + "\n" for l in lines
                                 if not l.startswith("{")))
        print("perfbench: no result (exit code %d)" % rc, file=sys.stderr)
        return 1
    sys.stdout.write("".join(l + "\n" for l in lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
