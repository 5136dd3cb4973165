"""One benchmark worker process: set up, warm up, run timed rounds.

Started by ``run.py`` (``Run.worker``) with one JSON argument.
It writes ``result.json`` (and, when tracing, a span dump) into the run's
scratch directory.  In-process workloads import trident47 here; the cli
workload starts each job as its own cold process and never imports it.

A round is one op of every kind of the workload, in a fixed order.  The
timed loop runs whole rounds until ``seconds`` have passed.  With tracing
on, rounds alternate untraced / traced and both rounds of a pair run the
same inputs, so the two modes run identical ops and their throughput ratio
is the tracing overhead.
"""
from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import time

import workloads
from tracing import Tracer, compile_cache_counts

#: per-op limits; a hang counts as failed and the run goes on
OP_TIMEOUT_S = {"shape_sweep": 5.0, "trajectories": 20.0, "cli": 60.0}


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so that no ``except Exception``
    inside the program can swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout("op exceeded its time limit")


class InProcess:
    """shape_sweep and trajectories: ops are calls into the imported package."""

    def __init__(self, cfg: dict):
        import trident47

        src = os.path.join(cfg["root"], "src")
        if not os.path.abspath(trident47.__file__).startswith(os.path.abspath(src) + os.sep):
            raise SystemExit(f"trident47 imported from {trident47.__file__}, not {src}")
        self.workload = cfg["workload"]
        self.seed = cfg["seed"]
        self.tmpdir = cfg["tmpdir"]
        self.orbit = (workloads.OrbitSetup(self.seed)
                      if self.workload == "trajectories" else None)
        self.timeout = OP_TIMEOUT_S[self.workload]
        self.tracer = Tracer() if cfg["trace"] else None
        self.compiles = [0, 0]  # lambdify cache hits, misses during traced rounds
        signal.signal(signal.SIGALRM, _on_alarm)

    warmup = True

    def start_round(self, traced: bool) -> None:
        if traced:
            self._before = compile_cache_counts()
            self.tracer.install()

    def end_round(self, traced: bool) -> None:
        if traced:
            self.tracer.uninstall()
            after = compile_cache_counts()
            self.compiles = [c + a - b for c, a, b in zip(self.compiles, after, self._before)]

    def op(self, kind: str, i: int, traced: bool) -> tuple[int, list[str]]:
        if self.workload == "shape_sweep":
            inp = workloads.shape_input(self.seed, kind, i)
            run = lambda: workloads.shape_run(inp)  # noqa: E731
            check = lambda out: workloads.shape_check(inp, out)  # noqa: E731
        else:
            inp = workloads.trajectory_input(self.seed, kind, i, self.orbit, self.tmpdir)
            run = lambda: workloads.trajectory_run(kind, inp)  # noqa: E731
            check = lambda out: workloads.trajectory_check(kind, inp, out)  # noqa: E731
        signal.setitimer(signal.ITIMER_REAL, self.timeout)
        t0 = time.perf_counter_ns()
        try:
            if traced:
                with self.tracer.span(f"op.{kind}"):
                    out = run()
            else:
                out = run()
        except (Exception, OpTimeout) as exc:  # a failing op is counted, the run goes on
            return time.perf_counter_ns() - t0, [f"{type(exc).__name__}: {exc}"]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter_ns() - t0
        try:
            return wall, check(out)
        except Exception as exc:  # an unreadable output is a wrong output
            return wall, [f"check failed: {type(exc).__name__}: {exc}"]

    def finish(self, result: dict) -> None:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.tracer is not None:
            self.tracer.dump(os.path.join(self.tmpdir, "trace"),
                             {"compile_hits": self.compiles[0],
                              "compile_misses": self.compiles[1]})


class ColdCli:
    """cli: ops are cold ``python -m trident47.cli`` processes."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        fixture = os.path.join(cfg["root"], "fixtures", "example2.json")
        self.jobs = workloads.cli_jobs(cfg["seed"], fixture, cfg["size"])
        self.sweep_samples = int(workloads.CLI_SIZES[cfg["size"]]["sweep"])
        self.reference: dict[str, dict] = {}
        self.traced_script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                          "cli_traced.py")
        self.trace_dumps: list[str] = []

    warmup = False  # every job is cold by design

    def start_round(self, traced: bool) -> None:
        pass

    def end_round(self, traced: bool) -> None:
        pass

    def op(self, kind: str, i: int, traced: bool) -> tuple[int, list[str]]:
        argv, names = self.jobs[kind]
        jobdir = os.path.join(self.cfg["tmpdir"], f"job_{kind}")
        shutil.rmtree(jobdir, ignore_errors=True)
        os.makedirs(jobdir)
        if not traced:
            cmd = [sys.executable, "-m", "trident47.cli", *argv]
        else:
            dump = os.path.join(self.cfg["tmpdir"], f"cli_trace_{len(self.trace_dumps)}")
            self.trace_dumps.append(dump)
            cmd = [sys.executable, self.traced_script, dump, "--", *argv]
        remaining = self.cfg["hard_deadline"] - time.monotonic()
        t0 = time.perf_counter_ns()
        try:
            proc = subprocess.run(cmd, cwd=jobdir, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE,
                                  timeout=max(1.0, min(OP_TIMEOUT_S["cli"], remaining)))
        except subprocess.TimeoutExpired:
            return time.perf_counter_ns() - t0, ["job timed out"]
        wall = time.perf_counter_ns() - t0
        artifacts = workloads.read_artifacts(jobdir, names)
        problems = workloads.cli_check(kind, proc.returncode, artifacts,
                                       self.reference.get(kind), self.sweep_samples)
        if proc.returncode != 0:
            problems.append(proc.stderr.decode(errors="replace")[-300:])
        if kind not in self.reference and not problems:
            self.reference[kind] = workloads.digest(artifacts)
        return wall, problems

    def finish(self, result: dict) -> None:
        result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        result["trace_dumps"] = self.trace_dumps


def main() -> None:
    cfg = json.loads(sys.argv[1])
    kinds = workloads.ROUNDS[cfg["workload"]]
    runner = ColdCli(cfg) if cfg["workload"] == "cli" else InProcess(cfg)
    ops = []  # [kind, traced, wall_ns, problems]

    if runner.warmup:
        # one untimed warm-up op of each kind fills the compile caches
        for kind in kinds:
            ops.append([kind, False, *runner.op(kind, 0, False)])
    result = {"ready": time.monotonic(), "warmup_ops": len(ops)}
    if not cfg["setup_only"]:
        t_start = time.perf_counter_ns()
        deadline = time.monotonic() + cfg["seconds"]
        rnd = 0
        while True:
            traced = cfg["trace"] and rnd % 2 == 1
            i = (rnd // 2 if cfg["trace"] else rnd) + 1
            runner.start_round(traced)
            for kind in kinds:
                ops.append([kind, traced, *runner.op(kind, i, traced)])
            runner.end_round(traced)
            rnd += 1
            now = time.monotonic()
            if now >= cfg["hard_deadline"]:
                break
            # a traced run ends on a whole untraced / traced pair
            if now >= deadline and (not cfg["trace"] or rnd % 2 == 0):
                break
        result["loop_wall_ns"] = time.perf_counter_ns() - t_start
        runner.finish(result)
    result["ops"] = ops
    with open(os.path.join(cfg["tmpdir"], "result.json"), "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
