#!/usr/bin/env python3
"""Builds and runs the end-to-end metadata-cost benchmark.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 e2ebench/run.py --self-test

Run from the repository root. The first call configures and compiles a
Release tree of e2ebench/ (which pulls in ../src) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally. Build
output goes to stderr, so the last line of stdout is the benchmark's JSON result.

--self-test runs each correctness check once with its expectation corrupted
(e2e_metadata_cost --corrupt <check>) and exits 0 only if every corrupted run
reports correct=false and a clean run reports correct=true.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "e2ebench")


def build():
    """Configures (once) and builds the executable; returns its path or None."""
    bd = build_dir()
    exe = os.path.join(bd, "e2e_metadata_cost")
    steps = []
    if not os.path.exists(os.path.join(bd, "CMakeCache.txt")):
        cfg = ["cmake", "-S", HERE, "-B", bd, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bd, "--target", "e2e_metadata_cost", "-j", jobs])
    for cmd in steps:
        try:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"build step failed: {' '.join(cmd)}: {e}", file=sys.stderr)
            return None
        if r.returncode != 0:
            print(f"build step failed ({r.returncode}): {' '.join(cmd)}", file=sys.stderr)
            return None
    return exe if os.path.exists(exe) else None


def run(exe, args, capture=False):
    """Runs the executable; returns (exit code, stdout text or None)."""
    try:
        r = subprocess.run([exe] + args, timeout=RUN_TIMEOUT_S,
                           stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        print(f"benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    return r.returncode, (r.stdout.decode() if capture else None)


def self_test(exe):
    cases = [("", "join_tailored"), ("join", "join_tailored"),
             ("formula", "estimate_waves"), ("formula", "join_tailored"),
             ("reader", "estimate_waves"), ("glitch", "estimate_waves")]
    ok = True
    for check, workload in cases:
        args = ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "0"]
        if check:
            args += ["--corrupt", check]
        _, out = run(exe, args, capture=True)
        lines = (out or "").strip().splitlines()
        correct = json.loads(lines[-1])["correct"] if lines else None
        expect = not check
        verdict = "ok" if correct is expect else "WRONG"
        ok = ok and correct is expect
        print(f"self-test corrupt={check or '-':8s} workload={workload:16s} "
              f"correct={correct} expected={expect} {verdict}")
    return 0 if ok else 1


def main(argv):
    exe = build()
    if exe is None:
        return 2
    if argv == ["--self-test"]:
        return self_test(exe)
    args = list(argv)
    if "--trace" in args and args[args.index("--trace") + 1:][:1] == ["1"]:
        trace_dir = os.path.join(build_dir(), "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    code, _ = run(exe, args)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
