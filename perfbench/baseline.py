#!/usr/bin/env python3
"""Record a baseline: every workload on several seeds, with the machine.

    python3 perfbench/baseline.py [--out PATH]

Runs ``run.py --trace 0`` once per seed (1 to 10) and workload, and
``--trace 1`` once per workload on seed 1, each for BENCHMARK.json's
``run_seconds``.  Writes the machine (nproc, CPU model),
the Python, numpy and sympy versions, the commit, the seeds, every run's
metrics, and per end-to-end metric the median and the spread (distance
between the first and third quartile over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to its bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = list(range(1, 11))


def machine() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model, "platform": platform.platform()}


def versions() -> dict:
    out = {"python": platform.python_version()}
    for mod in ("numpy", "sympy"):
        proc = subprocess.run([sys.executable, "-c", f"import {mod}; print({mod}.__version__)"],
                              capture_output=True, text=True)
        out[mod] = proc.stdout.strip()
    return out


def commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{cmd} exited {proc.returncode}: {proc.stderr[-500:]}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["run_wall_s"] = time.monotonic() - t0
    print(f"{workload} seed={seed} trace={trace} correct={res['correct']} "
          f"failed={res['failed']}/{res['attempted']} wall={res['run_wall_s']:.1f}s", flush=True)
    return res


def spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = ap.parse_args()
    seconds = bench["run_seconds"]

    record = {"machine": machine(), "versions": versions(), "commit": commit(),
              "seeds": SEEDS, "run_seconds": seconds,
              "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for wl in bench["workloads"]:
        runs = [run_once(wl["name"], s, seconds, 0) for s in SEEDS]
        traced = run_once(wl["name"], SEEDS[0], seconds, 1)
        summary = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            summary[m["name"]] = {
                "unit": m["unit"], "median": statistics.median(values),
                "spread": spread(values) if len(values) > 1 else 0.0, "bound": m["bound"],
                "values": values}
        record["workloads"][wl["name"]] = {
            "why": wl["why"],
            "all_correct": all(r["correct"] for r in runs + [traced]),
            "end_to_end": summary,
            "per_layer": {n: v["value"] for n, v in traced["metrics"].items()},
            "run_wall_s": [r["run_wall_s"] for r in runs + [traced]],
        }
        for name, s in summary.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else (
                "within bound" if s["spread"] <= s["bound"] else "OVER BOUND")
            print(f"  {wl['name']:13s} {name:12s} median {s['median']:.6g} {s['unit']:4s} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}) {flag}", flush=True)
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
