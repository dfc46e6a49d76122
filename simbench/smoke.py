#!/usr/bin/env python3
"""Smoke test of the simulator benchmark.

Usage, from the repository root:

    python3 simbench/smoke.py

At the tiny scale (run.py --tiny), every workload in BENCHMARK.json must
print every end-to-end metric (--trace 0) and every per-layer metric
(--trace 1) with its unit, pass its correctness checks with no failed
request, and do so at the default seed and at the held-out seed
recorded in simbench/layers.json. layers.json must describe exactly
the per-layer metrics of BENCHMARK.json. Exits 1 on any problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(HERE, "layers.json")) as f:
        layers = json.load(f)
    problems = []

    names = {m["name"] for m in spec["per_layer"]}
    described = set(layers["per_layer"])
    if names != described:
        problems.append(f"layers.json differs from BENCHMARK.json per_layer: "
                        f"undescribed {sorted(names - described)}, "
                        f"unknown {sorted(described - names)}")

    for seed in (layers["default_seed"], layers["held_out_seed"]):
        for w in spec["workloads"]:
            for trace in (0, 1):
                cmd = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", w["name"], "--seed", str(seed),
                       "--seconds", "0", "--trace", str(trace), "--tiny"]
                proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                      text=True, timeout=900)
                where = f"{w['name']} seed={seed} trace={trace}"
                if proc.returncode != 0:
                    problems.append(f"{where}: exit code {proc.returncode}")
                    continue
                res = json.loads(proc.stdout.strip().split("\n")[-1])
                if not res["correct"] or res["failed"] or res["attempted"] < 1:
                    problems.append(f"{where}: correct={res['correct']} "
                                    f"attempted={res['attempted']} "
                                    f"failed={res['failed']}")
                print(f"smoke: {where}: {len(res['metrics'])} metrics, "
                      f"correct={res['correct']}")

    for p in problems:
        print(f"smoke: FAIL {p}")
    print("smoke: " + ("FAILED" if problems else "all workloads passed"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
