#!/usr/bin/env python3
"""trident47 benchmark: one workload, one run, every metric by name and unit.

    python3 perfbench/run.py --workload {cli,shape_sweep,trajectories}
                             --seed N --seconds S --trace {0,1}

Run from anywhere; the checkout root is the parent of this directory and
the program is imported from its ``src/``.  Load is one closed-loop client
in one worker process at a time, BLAS threads pinned to 1.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see README.md).  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  Exits 2
without a result when the checkout holds no trident47 sources.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import TARGETS, load_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: everything a run does, set-up included, ends within this many seconds
BUDGET_S = 170.0
#: set-ups per run; setup_s is their median
SETUP_SAMPLES = {"full": 5, "tiny": 1}
#: L0 probes per traced run
L0_SAMPLES = 3
#: fixed tail percentile per workload; chosen so that at least ten ops lie
#: beyond it in a 30 s run at the baseline (cli cannot reach that: see README)
TAIL_PCT = {"shape_sweep": 99.0, "trajectories": 90.0, "cli": 90.0}
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}

CLI_WALLS = {kind: f"cli.{kind}_s" for kind in workloads.ROUNDS["cli"]}
SPAN_METRICS = [f"{t}.{part}" for t in TARGETS for part in ("calls", "self_ms")]


def per_layer_units() -> dict:
    units = {
        "op_p50_ms": "ms",
        "op_tail_ms": "ms",
        "trace.ops": "count",
        "trace.untraced_ops_per_s": "1/s",
        "trace.traced_ops_per_s": "1/s",
        "trace.overhead_pct": "%",
        "trace.other_self_ms": "ms",
        "cli.python_start_s": "s",
        "cli.import_s": "s",
        "cli.import_sympy_s": "s",
        "fields.lambdify_compiles": "count",
        "fields.compile_hit_ratio": "ratio",
        "pmp.rk4_steps": "count",
        "pmp.integrate_extremal.us_per_step": "us",
        "pmp.write_trajectory_csv.bytes": "bytes",
    }
    units.update({name: "s" for name in CLI_WALLS.values()})
    units.update({m: ("count" if m.endswith(".calls") else "ms") for m in SPAN_METRICS})
    return units


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(tmp)
    return env


class Run:
    """State of one benchmark run: its scratch dir, deadline and tallies."""

    def __init__(self, args, tmp: Path):
        self.args = args
        self.tmp = tmp
        self.env = child_env(tmp)
        self.hard_deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def remaining(self, cap: float) -> float:
        return max(0.5, min(cap, self.hard_deadline - time.monotonic()))

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(message)

    def timed_process(self, cmd: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.tmp, capture_output=True,
                                  timeout=self.remaining(SETUP_TIMEOUT_S))
        except subprocess.TimeoutExpired:
            self.fail(f"{cmd[1:]} timed out")
            return time.perf_counter() - t0, None
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            self.fail(f"{cmd[1:]} exited {proc.returncode}: {proc.stderr[-300:]!r}")
            return wall, None
        return wall, proc

    def worker(self, name: str, setup_only: bool) -> tuple[float | None, dict | None]:
        """Start one worker, wait for it, return (setup seconds, its result)."""
        wdir = self.tmp / name
        wdir.mkdir()
        cfg = {"workload": self.args.workload, "seed": self.args.seed,
               "seconds": self.args.seconds, "trace": bool(self.args.trace),
               "setup_only": setup_only, "root": str(ROOT), "tmpdir": str(wdir),
               "size": self.args.size, "hard_deadline": self.hard_deadline - 5.0}
        t0 = time.monotonic()
        with open(wdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                                    env=self.env, cwd=wdir, stdout=subprocess.DEVNULL,
                                    stderr=err)
            try:
                proc.wait(timeout=self.remaining(BUDGET_S))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        result_path = wdir / "result.json"
        if proc.returncode != 0 or not result_path.exists():
            tail = (wdir / "stderr.txt").read_bytes()[-600:].decode(errors="replace")
            self.fail(f"worker {name} exited {proc.returncode}: {tail}")
            return None, None
        result = json.loads(result_path.read_text())
        for kind, _traced, _wall, problems in result["ops"]:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{kind}: {'; '.join(problems)}")
        return result["ready"] - t0, result

    def setups(self, n: int) -> list[float]:
        """n set-up samples: cold imports for cli, set-up-only workers otherwise."""
        out = []
        for _ in range(n):
            if self.args.workload == "cli":
                wall, proc = self.timed_process([sys.executable, "-c", "import trident47"])
                if proc is not None:
                    out.append(wall)
            else:
                setup, _ = self.worker(f"setup{len(list(self.tmp.iterdir()))}",
                                       setup_only=True)
                if setup is not None:
                    out.append(setup)
        return out


def _importtime_s(stderr: bytes, module: str) -> float:
    """Cumulative import time of a top-level module from -X importtime."""
    for line in stderr.decode(errors="replace").splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == module:
            return int(parts[1]) / 1e6
    return 0.0


def l0_metrics(run: Run) -> dict:
    start, imp, sym = [], [], []
    for _ in range(L0_SAMPLES):
        wall, _ = run.timed_process([sys.executable, "-c", "pass"])
        start.append(wall)
        _, proc = run.timed_process([sys.executable, "-X", "importtime", "-c",
                                     "import trident47"])
        if proc is not None:
            imp.append(_importtime_s(proc.stderr, "trident47"))
            sym.append(_importtime_s(proc.stderr, "sympy"))
    med = lambda xs: statistics.median(xs) if xs else 0.0  # noqa: E731
    return {"cli.python_start_s": med(start), "cli.import_s": med(imp),
            "cli.import_sympy_s": med(sym)}


def mode_throughput(timed: list, traced: bool) -> float:
    """Ops per second of op wall time, over the ops of one tracing mode."""
    walls = [w for _, tr, w, _ in timed if tr == traced]
    return len(walls) / (sum(walls) / 1e9) if walls else 0.0


def median_op_ms(timed: list) -> float:
    """Median over op kinds of each kind's median latency.

    The kinds of a round come in equal shares and their latencies form
    separate clusters, so the plain median of all ops falls in a gap
    between clusters and jumps from run to run; this one does not.
    """
    kinds = sorted({kind for kind, _, _, _ in timed})
    return statistics.median(
        statistics.median(w for k, _, w, _ in timed if k == kind) / 1e6 for kind in kinds)


def latency_ms(run: Run, timed: list) -> dict:
    """Median and tail op latency, with the number of ops beyond the tail."""
    walls_ms = np.array([w for _, _, w, _ in timed], dtype=float) / 1e6
    tail = float(np.percentile(walls_ms, TAIL_PCT[run.args.workload]))
    return {"op_p50_ms": median_op_ms(timed), "op_tail_ms": tail,
            "beyond": int(np.sum(walls_ms > tail))}


def end_to_end(setup: list[float], result: dict, timed: list) -> dict:
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(timed) / (result["loop_wall_ns"] / 1e9),
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(run: Run, result: dict, timed: list, lat: dict) -> dict:
    m = {name: 0.0 for name in per_layer_units()}
    m["op_p50_ms"], m["op_tail_ms"] = lat["op_p50_ms"], lat["op_tail_ms"]
    m["trace.ops"] = sum(1 for _, tr, _, _ in timed if tr)
    m["trace.untraced_ops_per_s"] = mode_throughput(timed, False)
    m["trace.traced_ops_per_s"] = mode_throughput(timed, True)
    if m["trace.traced_ops_per_s"]:
        m["trace.overhead_pct"] = 100.0 * (m["trace.untraced_ops_per_s"]
                                           / m["trace.traced_ops_per_s"] - 1.0)
    if run.args.workload == "cli":
        for kind, name in CLI_WALLS.items():
            walls = [w for k, tr, w, _ in timed if k == kind and not tr]
            m[name] = statistics.median(walls) / 1e9 if walls else 0.0
        dumps = result["trace_dumps"]
    else:
        dumps = [str(run.tmp / "main" / "trace")]
    hits = misses = steps = 0
    for dump in dumps:
        if not Path(dump + ".json").exists():
            run.problems.append(f"missing trace dump {dump}")
            continue
        calls, self_ns, header = load_self_times(dump)
        for name, n in calls.items():
            if name.startswith("op."):
                m["trace.other_self_ms"] += self_ns[name] / 1e6
            else:
                m[f"{name}.calls"] += n
                m[f"{name}.self_ms"] += self_ns[name] / 1e6
        for key in ("pmp.rk4_steps", "pmp.write_trajectory_csv.bytes"):
            m[key] += header["counters"][key]
        steps += header["counters"]["pmp.integrate_extremal.steps"]
        hits += header["compile_hits"]
        misses += header["compile_misses"]
    if steps:
        m["pmp.integrate_extremal.us_per_step"] = 1e3 * m["pmp.integrate_extremal.self_ms"] / steps
    m["fields.lambdify_compiles"] = misses
    m["fields.compile_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    m.update(l0_metrics(run))
    return m


def measure(run: Run) -> dict | None:
    args = run.args
    # set-up samples (untraced runs only) are split around the measuring
    # worker so that their median does not hinge on one moment of the run
    extra = 0 if args.trace else SETUP_SAMPLES[args.size] - (args.workload != "cli")
    setup = run.setups(extra // 2)
    ready, result = run.worker("main", setup_only=False)
    if result is None:
        return None
    setup += run.setups(extra - extra // 2)
    if args.workload != "cli":
        setup.append(ready)
    timed = result["ops"][result["warmup_ops"]:]
    if not timed:
        run.fail("no timed op completed")
        return None
    # latency over untraced ops only (all of them when tracing is off)
    plain = [op for op in timed if not op[1]]
    lat = latency_ms(run, plain)
    print(f"op_p50_ms {lat['op_p50_ms']:.6g} ms, op_tail_ms {lat['op_tail_ms']:.6g} ms "
          f"(p{TAIL_PCT[args.workload]:g}, {lat['beyond']} of {len(plain)} ops beyond it"
          + (")" if lat["beyond"] >= 10 else "; fewer than 10, the tail is not resolved)"))
    if args.trace:
        return per_layer(run, result, timed, lat)
    if not setup:
        run.fail("no set-up completed")
        return None
    return end_to_end(setup, result, timed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-check's reduced CLI arguments and one set-up")
    args = ap.parse_args(argv)
    if not (SRC / "trident47" / "__init__.py").is_file():
        print(f"error: no trident47 sources under {SRC}", file=sys.stderr)
        return 2

    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    run = Run(args, tmp)
    try:
        metrics = measure(run)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    units = END_TO_END_UNITS if not args.trace else per_layer_units()
    if metrics is None:
        metrics = {name: 0.0 for name in units}
    attempted = max(run.attempted, 1)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={attempted} failed={run.failed} "
          f"failed_ratio={run.failed / attempted:.6g}")
    for problem in run.problems[:10]:
        print(f"problem: {problem}")
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
