#!/usr/bin/env python3
"""Amplitude sweep of the bracket gait: original system vs nilpotent model.

For each amplitude the gait is run on both systems and the net displacement
is compared in the adapted chart.  The difference shrinks like A^3 while
the displacement itself is the area-rule term pi*A^2, which is the
first-order approximation property made quantitative.

Writes sweep.csv (one row per amplitude) and sweep.json (fitted orders).
An amplitude whose difference is below the RK4 rounding floor of its
original path (about steps * eps * max(1, |q|)) is refused with exit 2: no
order can be fitted to rounding.
"""
import argparse
import math
import pathlib
import sys

import numpy as np

from trident47 import artifacts, pmp
from trident47.cli import _positive_finite
from trident47.errors import TridentError


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--amplitudes", type=_positive_finite, nargs="+",
                    default=[0.4, 0.2, 0.1, 0.05])
    ap.add_argument("--partner", type=int, default=2, choices=(2, 3, 4))
    ap.add_argument("--omega", type=_positive_finite, default=2.0 * math.pi / 50.0)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()
    if len(set(args.amplitudes)) < len(args.amplitudes):
        ap.error("argument --amplitudes: the amplitudes must be distinct")

    rows = []
    for A in args.amplitudes:
        try:
            params = pmp.BracketMotionParams(amplitude=A, omega=args.omega,
                                             partner=args.partner)
            d_nil = pmp.bracket_displacement(pmp.bracket_motion(params, "nilpotent"))
            orig = pmp.bracket_motion(params, "original")
            d_orig = pmp.bracket_displacement(orig)
        except (ValueError, TridentError) as exc:
            ap.error(f"amplitude {A:g}: {exc}")
        diff = float(np.linalg.norm(d_nil - d_orig))
        # RK4's rounding: about one ulp of the largest coordinate per step of the original path
        steps = len(orig.times) - 1
        floor = steps * sys.float_info.epsilon * max(1.0, np.abs(orig.states).max())
        if not diff >= floor:
            ap.error(f"amplitude {A:g}: |orig - nil| = {diff:.3e} is below the RK4 rounding "
                     f"floor {floor:.1e}, so no order can be fitted")
        area = math.pi * A * A
        dy = float(d_nil[2 + args.partner])  # y-slot driven by the chosen pair
        rows.append((A, area, dy, diff))
        print(f"A={A:g}  pi*A^2={area:.6f}  nilpotent dy={dy:.6f}"
              f"  |orig-nil|={diff:.3e}")

    orders = []
    for (a1, _, _, d1), (a2, _, _, d2) in zip(rows, rows[1:]):
        orders.append(math.log(d1 / d2) / math.log(a1 / a2))
    print("observed convergence orders:", [f"{o:.2f}" for o in orders])

    outdir = pathlib.Path(args.outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        artifacts.write_artifacts({
            outdir / "sweep.csv": (["A", "area_rule", "nilpotent_dy", "difference_norm"],
                                   list(zip(*rows))),
            outdir / "sweep.json": {"rows": rows, "orders": orders, "partner": args.partner}})
    except (OSError, ValueError) as exc:
        ap.error(str(exc))
    print(f"wrote {outdir}/sweep.csv and {outdir}/sweep.json")


if __name__ == "__main__":
    main()
