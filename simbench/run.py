#!/usr/bin/env python3
"""Build and run the simulator benchmark.

Usage, from the repository root:

    python3 simbench/run.py --workload cluster|fleet|repro --seed N \
        --seconds S --trace 0|1 [--tiny]

The first call builds the `simbench` binary (simbench/CMakeLists.txt,
which compiles the simulator from src/ and bench/figures.cc) into
$CARGO_TARGET_DIR/simbench, defaulting to .bench_build/simbench; later
calls only re-check the build. The binary's output is passed through;
its last line is the JSON result, whose metric names and units are
checked against BENCHMARK.json (end_to_end with --trace 0, per_layer
with --trace 1). With --trace 1 the layer spans are also written to
spans-<workload>-<seed>.json in the build directory.

Exits non-zero, printing no result, when the sources or BENCHMARK.json
are missing, the build fails, or the binary prints no valid result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cluster", "fleet", "repro")
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 175


def fail(msg):
    print(f"simbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "simbench")


def build():
    """Configure once, then build incrementally; return the binary path."""
    for rel in ("src/CMakeLists.txt", "bench/figures.cc", "simbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(f"missing {rel}: run from a full checkout of the repository")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out, "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build failed (log: {log_path})")
    return os.path.join(out, "simbench")


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("missing BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, expected):
    """Return the parsed result line, or None with a reason printed."""
    try:
        res = json.loads(line)
    except ValueError:
        print("simbench: last line is not JSON", file=sys.stderr)
        return None
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        print("simbench: result keys are wrong", file=sys.stderr)
        return None
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        print(f"simbench: metrics differ from BENCHMARK.json "
              f"(missing {missing}, extra {extra}, or units)", file=sys.stderr)
        return None
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smoke-test scale (see smoke.py)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must not be negative")

    expected = expected_metrics(args.trace)
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--spans", os.path.join(build_dir(),
                                        f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"simbench binary exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    res = check_result(lines[-1], expected) if lines else None
    if res is None:
        sys.stdout.write(proc.stdout)
        fail(f"simbench binary printed no valid result (exit code {proc.returncode})")
    # A failed correctness check is a result (correct: false), not a
    # benchmark failure.
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    print(json.dumps(res))


if __name__ == "__main__":
    main()
