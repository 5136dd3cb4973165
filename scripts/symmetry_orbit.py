#!/usr/bin/env python3
"""Orbit experiment: push an extremal through isotropy-symmetry flows.

The origin is fixed by every isotropy generator, so flowing a geodesic that
starts there produces a family of horizontal curves of identical length to
rotated endpoints.  Were an endpoint on the fixed-point set of the chosen
symmetry, the family would join the same two points there; generic
extremals were not seen to reach that set, so the script shows equal-length
curves to rotated endpoints, not a loss of uniqueness.

The script integrates one of the built-in example extremals, flows it for
several parameter values, verifies horizontality and length preservation,
and writes the flowed curves plus a JSON report.
"""
import argparse
import pathlib

import numpy as np

from trident47 import artifacts, nilpotent, pmp, symmetry
from trident47.charts import ADAPTED
from trident47.cli import _finite, _positive_finite


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", type=int, default=3, choices=(1, 2, 3))
    ap.add_argument("--axis", type=_finite, nargs=3, default=[1.0, 1.0, 1.0],
                    metavar=("A1", "A2", "A3"))
    ap.add_argument("--T", type=_positive_finite, default=2.0)
    ap.add_argument("--flow-values", type=_finite, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--dt", type=_positive_finite, default=2e-3)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()
    if len({f"{s:g}" for s in args.flow_values}) < len(args.flow_values):
        ap.error("argument --flow-values: the values must differ at 6 significant digits")

    outdir = pathlib.Path(args.outdir)
    c = pmp.example_constants(args.example)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), nilpotent.group_identity(),
                                  T=args.T, dt=args.dt)
    v = symmetry.so3_combination(*args.axis)

    stride = max(1, len(traj) // 80)
    states = traj.states[::stride]
    times = traj.times[::stride]
    tangents = np.stack([pmp.base_rhs(q, h)
                         for q, h in zip(states, traj.momenta[::stride])])

    report = {"example": args.example, "axis": list(args.axis), "T": args.T,
              "flows": {}}
    curves = {}
    for s in args.flow_values:
        rep = symmetry.flow_invariance_report(v, states, times, tangents, s, dt=1e-2)
        flowed = symmetry.symmetry_flow(v, states, s, dt=1e-2)
        curves[outdir / f"orbit_s{s:g}.csv"] = pmp.trajectory_table(
            pmp.Trajectory(ADAPTED, times, flowed))
        report["flows"][f"s={s:g}"] = {
            "horizontality_residual": rep.horizontality_residual,
            "relative_length_change": rep.relative_length_change,
            "endpoint": [float(x) for x in flowed[-1]],
        }
        print(f"s={s:4.1f}: horizontality {rep.horizontality_residual:.2e}, "
              f"length change {rep.relative_length_change:.2e}")

    base_end = states[-1]
    orbit = [np.linalg.norm(np.array(f["endpoint"]) - base_end)
             for f in report["flows"].values()]
    report["endpoint_orbit_radius"] = max(orbit)
    print(f"endpoint orbit radius: {max(orbit):.4f} "
          f"(equal-length curves to rotated endpoints)")

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts.write_artifacts({**curves, outdir / "orbit_report.json": report})
    except (OSError, ValueError) as exc:
        ap.error(str(exc))
    print(f"wrote {outdir}/orbit_report.json and flowed-curve CSVs")


if __name__ == "__main__":
    main()
