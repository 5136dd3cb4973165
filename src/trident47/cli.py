"""Batch command-line front end.

Four subcommands, each writing deterministic CSV/JSON artifacts:

* ``controllability``: rank analysis, Pfaffian signature and dynamic-pair
  regularity at a point, optionally over a random sweep of valid shapes
  (``mechanism.sweep_growth``: one certified array pass, its worst
  certificate reported as ``min_certificate``).
* ``geodesic``: integrate a normal extremal from a constants fixture and
  cross-check the closed form; CSV trajectory plus a diagnostics sidecar.
* ``bracket-motion``: the bracket gait on the nilpotent system (an exact
  extremal) and the original one (RK4), with displacement report and
  wheel/vertex traces.
* ``symmetry-check``: certify the symmetry algebra relations.

Exit codes, the experiment scripts' too (``guarded``): 0 pass, 1 a failed
check or any other ``TridentError``, 2 an input fault: a ``ValueError`` or an ``OSError``.

No subcommand loads sympy: ``symmetry-check`` certifies on exact
polynomial fields (``polyfield``).  Every CSV, traces included, is computed
and formatted (``%.17g`` bytes, by a block kernel) on whole arrays, and a
job writes all its files in one ``artifacts.write_artifacts`` call: a job
that cannot write one leaves every output path as it was.  A job imports only the modules it runs:
``controllability`` at an original-chart point loads neither ``pmp`` nor
``nilpotent``, and ``symmetry-check`` does not load ``pmp``.
"""
from __future__ import annotations

import argparse
import gc
import math
import sys
from dataclasses import astuple

import numpy as np

from . import artifacts, mechanism
from .charts import ADAPTED, ORIGINAL
from .errors import (DegenerateGrowth, SingularConfiguration, NotASymmetry, TridentError,
                     ZeroHorizontalMomentum)
from .mechanism import Configuration

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


def _spec(**options) -> dict:
    """Echo of the effective options of a run, embedded in every report (None values dropped)."""
    return {k: list(v) if k == "point" else v for k, v in options.items() if v is not None}


def _argtype(read, ok, what: str):
    """An argparse type: ``read(text)`` where ``ok`` holds, else the error "expected <what>, got
    '<text>'", also where ``read`` raises ValueError (float('abc'), int('1.5'))."""
    def parse(text: str):
        try:
            if ok(val := read(text)):
                return val
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


#: comma-separated numbers, nan and inf included (``_parse_floats`` refuses those)
_numbers = _argtype(lambda text: tuple(map(float, text.split(","))), lambda vals: True,
                    "comma-separated numbers")
#: a finite number (the symmetry self-test's perturbation; zero and negatives are valid)
_finite = _argtype(float, math.isfinite, "a finite number")
#: a finite number > 0 (tolerances, T, dt and the gait's A and omega)
_positive_finite = _argtype(float, lambda v: math.isfinite(v) and v > 0.0, "a finite number > 0")
#: a relative singular-value cutoff: at 1 or above no singular value would count
_unit_interval = _argtype(float, lambda v: 0.0 < v < 1.0, "a number in (0, 1)")
#: a generator seed: ``random.Random`` takes |seed|, so a negative seed stays refused rather
#: than drawing the stream of its absolute value
_seed = _argtype(int, lambda v: v >= 0, "a non-negative integer")


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma-separated finite numbers; nan and inf are invalid input."""
    vals = _numbers(text)
    if not all(math.isfinite(v) for v in vals):
        raise argparse.ArgumentTypeError(f"non-finite value in {text!r}")
    return vals


def _bounded_int(low: int):
    """Parser of an integer in [low, MAX_SAMPLES]: a sweep size, sample or iteration count."""
    return _argtype(int, lambda v: low <= v <= mechanism.MAX_SAMPLES,
                    f"an integer in [{low}, {mechanism.MAX_SAMPLES}]")


_positive_int = _bounded_int(1)


def _parse_point(text: str) -> tuple[float, ...]:
    vals = _parse_floats(text)
    if len(vals) != 7:
        raise argparse.ArgumentTypeError("--point needs 7 comma-separated numbers")
    return vals


def _finite_image(image: tuple, chart: str) -> tuple:
    """``--point``'s image in ``chart``: a ValueError where a coordinate overflowed."""
    if not all(map(math.isfinite, image)):
        raise ValueError(f"the {chart}-chart image of --point is not finite: {image}")
    return image


def _write_json(path, obj) -> None:
    if path is None:
        artifacts._encode(sys.stdout, obj)
    else:
        artifacts.write_artifacts({path: obj})


def cmd_controllability(args) -> int:
    spec = _spec(command="controllability", point=args.point, chart=args.chart,
                 out=args.out, tol_rank=args.tol_rank, seed=args.seed)
    if args.chart == ADAPTED:
        from . import nilpotent
        q = nilpotent.from_adapted(nilpotent.AdaptedPoint(*args.point))
        _finite_image(q.values, ORIGINAL)
    else:
        q = Configuration(ORIGINAL, args.point)
    try:
        res = mechanism.controllability(q, rank_tol=args.tol_rank)
        sig = mechanism.pfaffian_signature(q)
        # the pair does not depend on f (``check_dynamic_pair``): one answer under each f= key
        pairs = dict.fromkeys(("f=1", "f=2", "f=-0.5"),
                              list(astuple(mechanism.check_dynamic_pair(q, 1.0))))
    except (SingularConfiguration, DegenerateGrowth) as exc:
        _write_json(args.out, {"error": str(exc), "spec": spec})
        return EXIT_BAD_INPUT

    report = {
        "growth": list(res.growth),
        "detG_nonzero": res.det_nonzero,
        "det": res.det,
        "signature": list(sig.as_tuple()),
        "dynamic_pair": pairs,
        "gbar": mechanism.serialize_matrix(res.gbar),
        "point": list(q.values),
        "spec": spec,
    }
    ok = res.det_nonzero

    if args.sweep > 0:
        legs, phis = mechanism.seeded_uniform(args.seed, (0.5, 2.0, (args.sweep, 3)),
                                              (-0.3, 0.3, (args.sweep,)))
        counts, worst = mechanism.sweep_growth(phis, legs, args.tol_rank)
        growths = {str(list(g)): n for g, n in counts.items()}
        report["sweep"] = {"samples": args.sweep, "growth_counts": growths,
                           "min_certificate": worst}
        ok = ok and set(growths) == {"[4, 7]"}

    _write_json(args.out, report)
    return EXIT_OK if ok else EXIT_FAIL


def cmd_geodesic(args) -> int:
    from . import nilpotent, pmp
    spec = _spec(command="geodesic", point=args.point, chart=args.chart,
                 constants=args.constants, out=args.out, dt=args.dt, T=args.T, seed=args.seed)
    constants = pmp.load_solution_constants(args.constants)
    h0 = constants.initial_fibre_state()
    if h0.horizontal_norm() == 0.0:
        raise ZeroHorizontalMomentum("the fixture has zero horizontal momentum")
    if args.point is not None:
        start = args.point if args.chart == ADAPTED else _finite_image(
            nilpotent.original_to_adapted(*args.point), ADAPTED)

    traj = pmp.integrate_extremal(h0, nilpotent.group_identity(), args.T, args.dt)

    # cross-check the closed form on a decimated grid
    idx = np.arange(0, len(traj), max(1, len(traj) // 200))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        deviation = np.abs(pmp.exp_map(h0.array, traj.times[idx])[:, :7] - traj.states[idx])
    pmp._refuse_overflow(traj.times[idx], deviation, what="closed-form cross-check")
    worst = float(np.max(deviation))

    with np.errstate(over="ignore", invalid="ignore"):  # a table that overflows is refused below
        if args.point is not None:
            states = np.stack(nilpotent.group_law(start, traj.states.T), axis=-1)
            traj = pmp.Trajectory(ADAPTED, traj.times, states, traj.momenta,
                                  traj.controls, traj.diagnostics)
        table = pmp.trajectory_table(traj)
    pmp._refuse_overflow(traj.times, *table[1])

    sidecar = {
        "closed_form_max_deviation": worst,
        "closed_form_branch": "oscillating" if constants.K > 0 else "constant-controls",
        "constants_consistency_residual": constants.consistency_residual(),
        "diagnostics": traj.diagnostics.to_json(),
        "spec": spec,
    }
    artifacts.write_artifacts({args.out: table, args.out + ".diagnostics.json": sidecar})
    return EXIT_OK


def cmd_bracket_motion(args) -> int:
    from . import pmp
    spec = _spec(command="bracket-motion", out=args.out, seed=args.seed)
    params = pmp.BracketMotionParams(amplitude=args.A, omega=args.omega,
                                     partner=args.partner, cycles=args.cycles)
    nil = pmp.bracket_motion(params, "nilpotent")
    orig = pmp.bracket_motion(params, "original")

    names = ("dx", "dl1", "dl2", "dl3", "dy1", "dy2", "dy3")
    d_nil = pmp.bracket_displacement(nil)
    d_orig = pmp.bracket_displacement(orig)
    report = {
        "params": {"A": params.amplitude, "omega": params.omega,
                   "partner": params.partner, "cycles": params.cycles},
        "area_rule_dy": math.pi * params.amplitude**2 * params.cycles,
        "nilpotent": dict(zip(names, map(float, d_nil))),
        "original": dict(zip(names, map(float, d_orig))),
        "difference_norm": float(np.linalg.norm(d_nil - d_orig)),
        "spec": spec,
    }
    artifacts.write_artifacts({f"{args.out}_nilpotent.csv": pmp.trajectory_table(nil),
                               f"{args.out}_original.csv": pmp.trajectory_table(orig),
                               f"{args.out}_nilpotent_trace.csv": _trace_table(nil.to_original()),
                               f"{args.out}_original_trace.csv": _trace_table(orig),
                               f"{args.out}_displacement.json": report})
    return EXIT_OK


def _trace_table(traj) -> tuple[list, tuple]:
    """Planar traces of the block centre, vertices and wheels of an original-chart path."""
    header = ["t", "cx", "cy"]
    header += [f"{kind}{i}{axis}" for kind in "vw" for i in (1, 2, 3) for axis in "xy"]
    x, y, th, ph, l1, l2, l3 = traj.states.T
    return header, (traj.times, x, y, *mechanism.vertex_coords(x, y, th),
                    *mechanism.wheel_coords(x, y, th, ph, l1, l2, l3))


def cmd_symmetry_check(args) -> int:
    from . import nilpotent, symmetry
    from .polyfield import coordinate_field
    spec = _spec(command="symmetry-check", out=args.out, seed=args.seed)
    report: dict = {"spec": spec}
    ok = True

    table = symmetry.so3_structure()
    report["so3_structure"] = {f"[v{i},v{j}]": list(c) for (i, j), c in table.items()}
    expected = {(1, 2): (0.0, 0.0, -1.0), (1, 3): (0.0, 1.0, 0.0), (2, 3): (-1.0, 0.0, 0.0)}
    ok &= table == expected

    vs = list(symmetry.v_fields())
    if args.perturb != 0.0:
        vs[0] = symmetry.SymmetryField("v1(perturbed)",
                                       vs[0].field + args.perturb * coordinate_field(2))

    conditions = {}
    for v in vs:
        try:
            rep = symmetry.check_symmetry_conditions(v)
            conditions[v.name] = {
                "commutes_with_n1": rep.commutes_with_n1,
                "vertical_matrix": [list(r) for r in rep.vertical_matrix],
                "metric_preserved": rep.metric_preserved,
            }
        except NotASymmetry as exc:
            residual_norm = None
            if exc.residual is not None:  # hypot: no overflow or underflow of the squares
                residual_norm = math.hypot(*exc.residual(np.ones(7)))
            conditions[v.name] = {"error": str(exc), "residual_norm": residual_norm}
            ok = False
    report["symmetry_conditions"] = conditions

    wrep = symmetry.w_structure_report()
    report["w_structure"] = {
        "nontrivial": {f"[{a},{b}]": list(c) for (a, b), c in wrep["nontrivial"].items()},
        "others_vanish": wrep["others_vanish"],
    }
    ok &= wrep["others_vanish"]
    report["w_transitivity_rank"] = symmetry.transitivity_rank()
    ok &= report["w_transitivity_rank"] == 7

    frame = nilpotent.extended_frame()
    inv = {}
    for name, f in zip(("N1", "N2", "N3", "N4", "N12", "N13", "N14"), frame):
        r = nilpotent.check_left_invariance(f, samples=args.samples, seed=args.seed)
        inv[name] = {"ok": r.field_ok, "max_residual": r.max_residual}
        ok &= r.field_ok
    report["left_invariance"] = inv

    ks = (0.0, 1.0, 2.0)
    pts = np.array([symmetry.fixed_point_set((1.0, 1.0, 1.0), x=0.7, k=k).array for k in ks])
    fixed = np.max(np.abs(symmetry.so3_combination(1.0, 1.0, 1.0).field(pts)), axis=1)
    report["fixed_point_residuals"] = {f"k={k:g}": float(r) for k, r in zip(ks, fixed)}
    ok &= bool(np.all(fixed < 1e-12))

    report["all_pass"] = bool(ok)
    _write_json(args.out, report)
    return EXIT_OK if ok else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="trident47",
                                description="Geometric control analyses of the "
                                            "(4,7) trident mechanism")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("controllability", help="rank/signature/dynamic-pair analysis")
    c.add_argument("--point", type=_parse_point,
                   default=mechanism.reference_configuration().values)
    c.add_argument("--chart", choices=(ORIGINAL, ADAPTED), default=ORIGINAL)
    c.add_argument("--tol-rank", type=_unit_interval, default=mechanism.RANK_TOL,
                   help="growth-vector rank cutoff only; the signature's precondition "
                        "and the dynamic pairs use mechanism.RANK_TOL")
    c.add_argument("--sweep", type=_bounded_int(0), default=0,
                   help="random valid-shape sweep size")
    c.add_argument("--seed", type=_seed, default=0)
    c.add_argument("--out", default=None, help="report path (stdout if omitted)")
    c.set_defaults(func=cmd_controllability)

    g = sub.add_parser("geodesic", help="integrate a normal extremal from a fixture")
    g.add_argument("--constants", required=True, help="SolutionConstants JSON fixture")
    g.add_argument("--T", type=_positive_finite, default=2.0 * math.pi)
    g.add_argument("--dt", type=_positive_finite, default=1e-3,
                   help="RK4 step; T/dt may not exceed pmp.MAX_STEPS")
    g.add_argument("--point", type=_parse_point, default=None,
                   help="start point (default: adapted origin)")
    g.add_argument("--chart", choices=(ORIGINAL, ADAPTED), default=ADAPTED)
    g.add_argument("--seed", type=_seed, default=0, help="only echoed into the report's spec")
    g.add_argument("--out", required=True, help="trajectory CSV path")
    g.set_defaults(func=cmd_geodesic)

    b = sub.add_parser("bracket-motion", help="bracket gait on both systems")
    b.add_argument("--A", type=_positive_finite, default=0.4)
    b.add_argument("--omega", type=_positive_finite, default=2.0 * math.pi / 50.0)
    b.add_argument("--partner", type=int, choices=(2, 3, 4), default=2)
    b.add_argument("--cycles", type=int, default=1)
    b.add_argument("--seed", type=_seed, default=0, help="only echoed into the report's spec")
    b.add_argument("--out", required=True, help="output path prefix")
    b.set_defaults(func=cmd_bracket_motion)

    s = sub.add_parser("symmetry-check", help="verify the symmetry algebra")
    s.add_argument("--samples", type=_positive_int, default=200)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--perturb", type=_finite, default=0.0,
                   help="self-test: add EPS * d/dl2 to v1 and watch it fail")
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_symmetry_check)

    return p


def guarded(job, *args) -> int:
    """The exit code of ``job(*args)``: its own, 0 where it returns None, and for an exception
    ``error: <msg>`` on stderr and 2 for an input fault (a ValueError or an OSError), 1 for any
    other TridentError.  The CLI's ``main`` and every experiment script exit through it."""
    try:
        code = job(*args)
    except (ValueError, OSError, TridentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT if isinstance(exc, (ValueError, OSError)) else EXIT_FAIL
    return EXIT_OK if code is None else code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.func, args)


def run() -> None:
    """Process entry of ``python -m`` and the installed command: ``main``, collector off."""
    gc.disable()
    code = main()
    gc.freeze()  # the shutdown collections then skip the job's heap, which dies with the process
    sys.exit(code)


if __name__ == "__main__":
    run()
