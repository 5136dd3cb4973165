#!/usr/bin/env python3
"""Fast self-check of the benchmark itself.

    python3 perfbench/selfcheck.py [--configs N]

1. Runs every workload at tiny size with ``--trace 0`` and ``--trace 1`` and
   checks that each run is correct and emits exactly the metrics named in
   BENCHMARK.json, with their units, as finite numbers.
2. Feeds each correctness check a real result, then deliberately corrupted
   copies of it, and checks that every corruption is rejected.
3. Runs every in-process op kind on N inputs of seed 0 (default 10) and
   prints the worst margin of each tolerance.

Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def expect(cond: bool, what: str) -> None:
    if not cond:
        print(f"FAIL: {what}")
        sys.exit(1)


def check_emission(bench: dict) -> None:
    for wl in (w["name"] for w in bench["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            expect(proc.returncode == 0, f"{wl} trace={trace} exit {proc.returncode}: "
                                         f"{proc.stderr[-500:]}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"},
                   f"{wl}: result keys {sorted(res)}")
            expect(res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1,
                   f"{wl} trace={trace}: {proc.stdout[-800:]}")
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {n: v["unit"] for n, v in res["metrics"].items()}
            expect(got == want, f"{wl} trace={trace}: metrics differ from BENCHMARK.json: "
                                f"{set(got) ^ set(want)}")
            expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
                       for v in res["metrics"].values()), f"{wl}: non-finite value")
            print(f"ok  emission {wl} trace={trace}: {len(got)} metrics")


def rejects(check, *args) -> bool:
    """True when the check reports at least one problem."""
    return bool(check(*args))


def check_rejections(tmp: str) -> None:
    from trident47 import cli

    # shape_sweep
    inp = workloads.shape_input(1, "off_slice", 0)
    out = workloads.shape_run(inp)
    expect(not workloads.shape_check(inp, out), "shape_sweep: real result rejected")
    for key, bad in (("growth", [4, 6]), ("signature", [1, 0]), ("pair", [3, 5, True]),
                     ("pair", [3, 6, False])):
        expect(rejects(workloads.shape_check, inp, dict(out, **{key: bad})),
               f"shape_sweep: corrupted {key} accepted")
    print("ok  shape_sweep check rejects corrupted growth, signature, dynamic pair")

    # trajectories
    orbit = workloads.OrbitSetup(1)
    for kind, corruptions in (
            ("geodesic", [("deviation", 1e-3), ("samples", -1)]),
            ("gait", [("dy", 1e-3), ("original_finite", None)]),
            ("orbit", [("horizontality", 1e-6), ("length_change", 1e-6), ("flowed", 1e-6)])):
        inp = workloads.trajectory_input(1, kind, 0, orbit, tmp)
        out = workloads.trajectory_run(kind, inp)
        expect(not workloads.trajectory_check(kind, inp, out), f"{kind}: real result rejected")
        for key, delta in corruptions:
            bad = copy.copy(out)
            bad[key] = False if delta is None else out[key] + delta
            expect(rejects(workloads.trajectory_check, kind, inp, bad),
                   f"{kind}: corrupted {key} accepted")
        print(f"ok  {kind} check rejects corrupted {[k for k, _ in corruptions]}")

    # cli: real artifacts from in-process calls of the CLI entry point
    fixture = str(ROOT / "fixtures" / "example2.json")
    jobs = workloads.cli_jobs(1, fixture, "tiny")
    samples = int(workloads.CLI_SIZES["tiny"]["sweep"])
    edits = {
        "controllability": ("report.json", lambda r: r.update(growth=[4, 6])),
        "sweep": ("report.json", lambda r: r["sweep"].update(growth_counts={"[4, 6]": 1})),
        "geodesic": ("traj.csv.diagnostics.json",
                     lambda r: r.update(closed_form_max_deviation=1e-3)),
        "bracket_motion": ("gait_displacement.json",
                           lambda r: r["nilpotent"].update(dy1=r["nilpotent"]["dy1"] + 1e-3)),
        "symmetry_check": ("symmetry.json", lambda r: r.update(all_pass=False)),
    }
    cwd = os.getcwd()
    for kind, (argv, names) in jobs.items():
        jobdir = os.path.join(tmp, f"cli_{kind}")
        os.makedirs(jobdir)
        os.chdir(jobdir)
        try:
            code = cli.main(argv)
        finally:
            os.chdir(cwd)
        arts = workloads.read_artifacts(jobdir, names)
        ref = workloads.digest(arts)
        expect(not workloads.cli_check(kind, code, arts, ref, samples),
               f"cli {kind}: real artifacts rejected")
        expect(rejects(workloads.cli_check, kind, 1, arts, ref, samples),
               f"cli {kind}: exit code 1 accepted")
        expect(rejects(workloads.cli_check, kind, code, dict(arts, **{names[0]: None}),
                       ref, samples), f"cli {kind}: missing artifact accepted")
        flipped = dict(arts, **{names[0]: arts[names[0]] + b" "})
        expect(rejects(workloads.cli_check, kind, code, flipped, ref, samples),
               f"cli {kind}: changed bytes accepted")
        name, edit = edits[kind]
        report = json.loads(arts[name])
        edit(report)
        bad = dict(arts, **{name: json.dumps(report).encode()})
        expect(rejects(workloads.cli_check, kind, code, bad, None, samples),
               f"cli {kind}: corrupted {name} accepted")
        print(f"ok  cli {kind} check rejects exit code, missing file, changed bytes, "
              f"corrupted {name}")


def check_configs(n: int, tmp: str) -> None:
    """Worst tolerance margins over n seeded inputs per in-process op kind."""
    seed = 0
    for kind in workloads.ROUNDS["shape_sweep"]:
        for i in range(n):
            inp = workloads.shape_input(seed, kind, i)
            problems = workloads.shape_check(inp, workloads.shape_run(inp))
            expect(not problems, f"{kind} #{i}: {problems}")
    orbit = workloads.OrbitSetup(seed)
    # each margin is a measured error over its tolerance, per op kind
    margin_of = {
        "geodesic": lambda inp, out: {
            "geodesic deviation": out["deviation"] / workloads.GEODESIC_TOL},
        "gait": lambda inp, out: {
            "gait |dy - pi A^2|": abs(out["dy"] - out["area"]) / workloads.AREA_RULE_TOL},
        "orbit": lambda inp, out: {
            "orbit horizontality": out["horizontality"] / workloads.HORIZONTALITY_TOL,
            "orbit length change": out["length_change"] / workloads.LENGTH_CHANGE_TOL,
            "orbit flow deviation": workloads.flow_deviation(inp, out) / workloads.FLOW_TOL},
    }
    margins: dict[str, float] = {}
    for i in range(n):
        for kind in workloads.ROUNDS["trajectories"]:
            inp = workloads.trajectory_input(seed, kind, i, orbit, tmp)
            out = workloads.trajectory_run(kind, inp)
            problems = workloads.trajectory_check(kind, inp, out)
            expect(not problems, f"{kind} #{i}: {problems}")
            for name, m in margin_of[kind](inp, out).items():
                margins[name] = max(margins.get(name, 0.0), m)
    print(f"ok  {n} seeded inputs per op kind (seed {seed}) pass; worst margins: "
          + ", ".join(f"{k} / tol {v:.2g}" for k, v in margins.items()))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--configs", type=int, default=10)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    tmp = tempfile.mkdtemp(dir=ROOT, prefix=".bench_selfcheck-")
    try:
        check_rejections(tmp)
        check_configs(args.configs, tmp)
        check_emission(bench)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
