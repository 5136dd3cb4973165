"""Seeded inputs, operations and correctness checks of the three workloads.

Every op kind has three parts: an input function (seeded, outside the op
timer), a run function (the calls into trident47 that are timed) and a
check (returns a list of problems; empty means the output is correct).  Checks
take plain dicts so the self-check can corrupt a result and watch the
check reject it.

* ``shape_sweep``: rank, signature and dynamic-pair analysis at one seeded
  configuration per op, alternating between the slice x = y = 0,
  theta = pi/2 (symbolic-bracket path) and off-slice poses
  (finite-difference path).
* ``trajectories``: a fixed round robin of ``geodesic``, ``gait`` and
  ``orbit`` ops that mirror the experiment scripts.
* ``cli``: cold ``python -m trident47.cli`` jobs, one per ROADMAP
  invocation; the jobs themselves run in ``worker.py``.
"""
from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# --- tolerances (each held on 300 seeded configurations, see README.md)

#: max |closed_form_base(t) - RK4 state| at the check times, dt = 1e-2
GEODESIC_TOL = 1e-5
#: |nilpotent dy - pi A^2| for the bracket gait
AREA_RULE_TOL = 1e-6
#: horizontality residual and relative arc-length change under a flow
HORIZONTALITY_TOL = 1e-9
LENGTH_CHANGE_TOL = 1e-8
#: max |symmetry_flow - exact rotation formula| over the flowed samples
FLOW_TOL = 1e-7
#: CLI geodesic sidecar closed-form deviation (dt = 1e-3)
CLI_GEODESIC_TOL = 1e-8

ROUNDS = {
    "shape_sweep": ("slice", "off_slice"),
    "trajectories": ("geodesic", "gait", "orbit"),
    "cli": ("controllability", "sweep", "geodesic", "bracket_motion", "symmetry_check"),
}

#: share of geodesic ops on the K = 0 (constant-controls) branch: every 4th
K0_EVERY = 4
GEODESIC_T = 2.0 * math.pi
GEODESIC_DT = 1e-2
GAIT_STEPS = 1000
ORBIT_SAMPLES = 8
ORBIT_DT = 1e-2

_SLICE_THETA = math.pi / 2.0
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _rng(seed: int, kind: str, i: int) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, kind)), i])


def _stratum(i: int) -> float:
    """Op i's position in [0, 1) on a golden-ratio sequence.

    The sizes that set an op's cost (K of a geodesic, flow time s of an
    orbit) come from this sequence instead of the seed, so every run, and
    every warm-up op, sees the same spread of sizes; the seed draws the rest.
    """
    return (0.5 + i * _GOLDEN) % 1.0


def _require_finite(values, what: str) -> None:
    # non-finite inputs can hang the program (ROADMAP item 4); the
    # generators must never produce them
    if not np.all(np.isfinite(np.asarray(values, dtype=float))):
        raise ValueError(f"generated non-finite {what}: {values}")


# ---------------------------------------------------------------------------
# shape_sweep


def shape_input(seed: int, kind: str, i: int) -> dict:
    rng = _rng(seed, kind, i)
    legs = rng.uniform(0.5, 2.0, 3)
    phi = rng.uniform(-0.3, 0.3)
    f = float(rng.choice([1.0, 2.0, -0.5]))
    if kind == "slice":
        pose = (0.0, 0.0, _SLICE_THETA)
    else:
        # |x| >= 0.1 keeps every off-slice pose off the slice
        x = rng.uniform(0.1, 1.0) * rng.choice([-1.0, 1.0])
        pose = (x, rng.uniform(-1.0, 1.0), rng.uniform(0.0, 2.0 * math.pi))
    point = (*pose, phi, *legs)
    _require_finite(point, "configuration")
    return {"point": tuple(float(v) for v in point), "f": f}


def shape_run(inp: dict) -> dict:
    from trident47 import mechanism

    q = mechanism.Configuration.original(*inp["point"])
    res = mechanism.controllability(q)
    sig = mechanism.pfaffian_signature(q)
    pair = mechanism.check_dynamic_pair(q, inp["f"])
    return {"growth": list(res.growth), "signature": list(sig.as_tuple()),
            "pair": [pair.rank_v0, pair.rank_v1, bool(pair.transversal)]}


def shape_check(inp: dict, out: dict) -> list[str]:
    problems = []
    if list(out["growth"]) != [4, 7]:
        problems.append(f"growth {out['growth']} != (4, 7)")
    if list(out["signature"]) != [0, 0]:
        problems.append(f"signature {out['signature']} != (0, 0)")
    if list(out["pair"]) != [3, 6, True]:
        problems.append(f"dynamic pair {out['pair']} != (3, 6, transversal)")
    return problems


# ---------------------------------------------------------------------------
# trajectories


class OrbitSetup:
    """Per-run orbit inputs: an example extremal, its decimated samples and
    tangents, and one so(3) axis, all chosen from the seed."""

    def __init__(self, seed: int):
        from trident47 import nilpotent, pmp

        rng = _rng(seed, "orbit-setup", 0)
        self.example = int(rng.integers(1, 4))
        axis = rng.integers(-4, 5, size=3) / 4.0
        while not np.any(axis):
            axis = rng.integers(-4, 5, size=3) / 4.0
        self.axis = tuple(float(a) for a in axis)
        c = pmp.example_constants(self.example)
        traj = pmp.integrate_extremal(c.initial_fibre_state(),
                                      nilpotent.group_identity(), T=2.0, dt=2e-3)
        stride = max(1, len(traj) // ORBIT_SAMPLES)
        self.states = traj.states[::stride]
        self.times = traj.times[::stride]
        self.tangents = np.stack([pmp.base_rhs(q, h)
                                  for q, h in zip(self.states, traj.momenta[::stride])])


def trajectory_input(seed: int, kind: str, i: int, orbit: OrbitSetup, tmpdir: str) -> dict:
    from trident47 import pmp

    rng = _rng(seed, kind, i)
    if kind == "geodesic":
        while True:
            c = pmp.random_solution_constants(rng)
            # rescaling (C5, C6, C7) keeps the consistency constraint
            k = 0.0 if i % K0_EVERY == K0_EVERY - 1 else (0.1 + 2.9 * _stratum(i)) / c.K
            c = pmp.SolutionConstants(C5=k * c.C5, C6=k * c.C6, C7=k * c.C7, C11=c.C11,
                                      C12=c.C12, C13=c.C13, C14=c.C14, C15=c.C15)
            # zero horizontal momentum is invalid input, not a defect
            if c.initial_fibre_state().horizontal_norm() > 0.05:
                break
        _require_finite(list(c.to_json().values()), "solution constants")
        return {"constants": c, "csv": os.path.join(tmpdir, "geodesic.csv")}
    if kind == "gait":
        return {"A": float(rng.uniform(0.1, 0.4)), "partner": int(rng.integers(2, 5))}
    if kind == "orbit":
        return {"s": 0.3 + 0.7 * _stratum(i), "setup": orbit}
    raise ValueError(kind)


def trajectory_run(kind: str, inp: dict) -> dict:
    from trident47 import nilpotent, pmp, symmetry

    if kind == "geodesic":
        c = inp["constants"]
        traj = pmp.integrate_extremal(c.initial_fibre_state(), nilpotent.group_identity(),
                                      GEODESIC_T, GEODESIC_DT)
        n = len(traj) - 1
        dev = 0.0
        for k in (n // 3, 2 * n // 3, n):
            ref = pmp.closed_form_base(c, float(traj.times[k]))
            dev = max(dev, float(np.max(np.abs(ref.array - traj.states[k]))))
        pmp.write_trajectory_csv(traj, inp["csv"])
        return {"deviation": dev, "samples": len(traj), "csv": inp["csv"]}
    if kind == "gait":
        params = pmp.BracketMotionParams(amplitude=inp["A"], partner=inp["partner"],
                                         steps_per_cycle=GAIT_STEPS)
        d_nil = pmp.bracket_displacement(pmp.bracket_motion(params, "nilpotent"))
        d_orig = pmp.bracket_displacement(pmp.bracket_motion(params, "original"))
        return {"dy": float(d_nil[2 + inp["partner"]]),
                "area": math.pi * inp["A"] ** 2,
                "original_finite": bool(np.all(np.isfinite(d_orig)))}
    if kind == "orbit":
        o = inp["setup"]
        v = symmetry.so3_combination(*o.axis)
        rep = symmetry.flow_invariance_report(v, o.states, o.times, o.tangents,
                                              inp["s"], dt=ORBIT_DT)
        flowed = np.stack([
            symmetry.symmetry_flow(v, nilpotent.AdaptedPoint.from_array(q), inp["s"],
                                   dt=ORBIT_DT).array
            for q in o.states])
        return {"horizontality": float(rep.horizontality_residual),
                "length_change": float(rep.relative_length_change),
                "flowed": flowed}
    raise ValueError(kind)


def exact_so3_flow(axis, s: float, states: np.ndarray) -> np.ndarray:
    """Flow of a1 v1 + a2 v2 + a3 v3 in closed form, as an independent oracle.

    x is fixed; the legs l and the offset y - c(x) from the centre curve
    c(x) = (x + sqrt(3)x^2/4, x, x - sqrt(3)x^2/4) both rotate by
    R(s) = exp(s hat(a)) (Rodrigues).
    """
    a = np.asarray(axis, dtype=float)
    norm = float(np.linalg.norm(a))
    k = a / norm
    K = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    R = np.eye(3) + math.sin(s * norm) * K + (1.0 - math.cos(s * norm)) * (K @ K)
    x = states[:, 0]
    bump = math.sqrt(3.0) / 4.0 * x * x
    centre = np.stack([x + bump, x, x - bump], axis=1)
    out = np.empty_like(states)
    out[:, 0] = x
    out[:, 1:4] = states[:, 1:4] @ R.T
    out[:, 4:7] = centre + (states[:, 4:7] - centre) @ R.T
    return out


def flow_deviation(inp: dict, out: dict) -> float:
    o = inp["setup"]
    return float(np.max(np.abs(out["flowed"] - exact_so3_flow(o.axis, inp["s"], o.states))))


def _count_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n") - 1


def trajectory_check(kind: str, inp: dict, out: dict) -> list[str]:
    problems = []
    if kind == "geodesic":
        if not out["deviation"] <= GEODESIC_TOL:
            problems.append(f"closed-form deviation {out['deviation']:.3g} > {GEODESIC_TOL}")
        rows = _count_rows(out["csv"])
        if rows != out["samples"]:
            problems.append(f"CSV has {rows} rows, trajectory {out['samples']} samples")
    elif kind == "gait":
        err = abs(out["dy"] - out["area"])
        if not err <= AREA_RULE_TOL:
            problems.append(f"|dy - pi A^2| = {err:.3g} > {AREA_RULE_TOL}")
        if not out["original_finite"]:
            problems.append("original-system displacement is not finite")
    elif kind == "orbit":
        if not out["horizontality"] <= HORIZONTALITY_TOL:
            problems.append(f"horizontality residual {out['horizontality']:.3g}")
        if not out["length_change"] <= LENGTH_CHANGE_TOL:
            problems.append(f"relative length change {out['length_change']:.3g}")
        dev = flow_deviation(inp, out)
        if not dev <= FLOW_TOL:
            problems.append(f"flow deviates from the exact rotation by {dev:.3g}")
    return problems


# ---------------------------------------------------------------------------
# cli

#: full-size invocations are the ROADMAP ones; "tiny" is for the self-check
CLI_SIZES = {
    "full": {"sweep": "100", "geodesic": [], "samples": []},
    "tiny": {"sweep": "5", "geodesic": ["--T", "1"], "samples": ["--samples", "10"]},
}


def cli_jobs(seed: int, fixture: str, size: str = "full") -> dict:
    """kind -> (argv, artifact file names) for the five invocations."""
    s = str(seed)
    z = CLI_SIZES[size]
    gait = [f"gait_{p}" for p in ("nilpotent.csv", "original.csv", "nilpotent_trace.csv",
                                  "original_trace.csv", "displacement.json")]
    return {
        "controllability": (["controllability", "--seed", s, "--out", "report.json"],
                            ["report.json"]),
        "sweep": (["controllability", "--sweep", z["sweep"], "--seed", s,
                   "--out", "report.json"], ["report.json"]),
        "geodesic": (["geodesic", "--constants", fixture, *z["geodesic"], "--seed", s,
                      "--out", "traj.csv"], ["traj.csv", "traj.csv.diagnostics.json"]),
        "bracket_motion": (["bracket-motion", "--seed", s, "--out", "gait"], gait),
        "symmetry_check": (["symmetry-check", *z["samples"], "--seed", s,
                            "--out", "symmetry.json"], ["symmetry.json"]),
    }


def read_artifacts(jobdir: str, names) -> dict:
    """name -> bytes (None when the file is missing)."""
    out = {}
    for name in names:
        path = os.path.join(jobdir, name)
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
        else:
            out[name] = None
    return out


def digest(artifacts: dict) -> dict:
    return {n: hashlib.sha256(b).hexdigest() if b is not None else None
            for n, b in artifacts.items()}


def cli_check(kind: str, returncode: int, artifacts: dict, reference: dict | None,
              sweep_samples: int) -> list[str]:
    """Exit code, report fields, and byte identity against the first repeat."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    missing = [n for n, b in artifacts.items() if b is None]
    if missing:
        return problems + [f"missing artifacts {missing}"]
    if reference is not None:
        changed = [n for n, h in digest(artifacts).items() if reference.get(n) != h]
        if changed:
            problems.append(f"artifacts differ from the first repeat: {changed}")
    try:
        if kind in ("controllability", "sweep"):
            rep = json.loads(artifacts["report.json"])
            if rep["growth"] != [4, 7] or not rep["detG_nonzero"]:
                problems.append(f"growth {rep['growth']}")
            if rep["signature"] != [0, 0]:
                problems.append(f"signature {rep['signature']}")
            if any(p != [3, 6, True] for p in rep["dynamic_pair"].values()):
                problems.append(f"dynamic pairs {rep['dynamic_pair']}")
            if kind == "sweep" and rep["sweep"]["growth_counts"] != {"[4, 7]": sweep_samples}:
                problems.append(f"sweep growth counts {rep['sweep']['growth_counts']}")
        elif kind == "geodesic":
            side = json.loads(artifacts["traj.csv.diagnostics.json"])
            if not side["closed_form_max_deviation"] <= CLI_GEODESIC_TOL:
                problems.append(f"closed-form deviation {side['closed_form_max_deviation']}")
        elif kind == "bracket_motion":
            rep = json.loads(artifacts["gait_displacement.json"])
            err = abs(rep["nilpotent"]["dy1"] - rep["area_rule_dy"])
            if not err <= AREA_RULE_TOL:
                problems.append(f"|dy1 - pi A^2| = {err:.3g}")
        elif kind == "symmetry_check":
            if json.loads(artifacts["symmetry.json"])["all_pass"] is not True:
                problems.append("all_pass is not true")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"unreadable report: {exc!r}")
    return problems
