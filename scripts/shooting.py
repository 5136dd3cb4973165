#!/usr/bin/env python3
"""Two-point boundary experiment: shoot initial momenta to reach a target.

Levenberg-Marquardt on the endpoint map h0 -> q(T) = pmp.exp_map(h0, T)[:7],
the closed-form normal extremal from the origin.  Its 7x7 Jacobian is exact:
column j is Im exp_map(h0 + i e e_j, T)[:7] / e with e = 1e-30 (complex-step
differentiation of the same formula), so no ODE is solved in the loop.
Works for targets in a neighbourhood of the straight-line endpoint; this is
a demonstration of local controllability through normal extremals, not a
general solver.  The solved extremal is written on a --dt grid, and a solve
that stops at a residual of --tol or more writes its report and exits 1.
"""
import argparse
import pathlib
import sys

import numpy as np

from trident47 import artifacts, pmp
from trident47.cli import EXIT_FAIL, _finite, _positive_finite, _positive_int, guarded
from trident47.pmp import FibreState

STEP = 1e-30


def main() -> int | None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--target", type=_finite, nargs=7,
                    default=[0.15, 0.25, 0.1, -0.1, 0.2, 0.05, -0.08],
                    metavar=("X", "L1", "L2", "L3", "Y1", "Y2", "Y3"))
    ap.add_argument("--T", type=_positive_finite, default=1.0)
    ap.add_argument("--dt", type=_positive_finite, default=2e-3)
    ap.add_argument("--max-iter", type=_positive_int, default=25)
    ap.add_argument("--tol", type=_positive_finite, default=1e-12)
    ap.add_argument("--outdir", default="out")
    args = ap.parse_args()

    target = np.array(args.target)
    pmp.time_grid(args.T, args.dt)  # refuse the output grid before any solver work

    def residual(h):
        return pmp.exp_map(h, args.T)[:7] - target

    # a warm start or first residual that overflows is refused; a trial that does is no descent
    with np.errstate(over="ignore", invalid="ignore"):
        # straight-line warm start: flat coordinates integrate the momenta directly
        h = np.zeros(7)
        h[:4] = target[:4] / args.T
        res = residual(h)
        history = [float(np.linalg.norm(res))]
        if not np.isfinite(h).all():
            raise ValueError(f"the warm start target[:4] / T overflows at T = {args.T:g}")
        if not np.isfinite(res).all():
            raise ValueError(f"the endpoint map overflows at T = {args.T:g}")
        if not np.isfinite(history[0]):
            raise ValueError("the endpoint residual is finite, but its norm overflows")

        # Levenberg-Marquardt on the endpoint residual; the Jacobian is poorly
        # scaled in the bracket-momenta directions near h5 = h6 = h7 = 0
        lam = 1e-3
        for it in range(args.max_iter):
            print(f"iter {it:2d}: |endpoint - target| = {history[-1]:.3e}")
            if history[-1] < args.tol:
                break
            J = pmp.exp_map(h + STEP * 1j * np.eye(7), args.T)[:, :7].imag.T / STEP
            for _ in range(12):
                trial = h - np.linalg.solve(J.T @ J + lam * np.eye(7), J.T @ res)
                trial_res = residual(trial)
                trial_norm = float(np.linalg.norm(trial_res))
                if trial_norm < history[-1]:
                    h, res = trial, trial_res
                    history.append(trial_norm)
                    lam = max(lam / 4.0, 1e-12)
                    break
                lam *= 8.0
            else:
                print("no descent direction found; stopping")
                break

    traj = pmp.closed_form_trajectory(FibreState.from_array(h), args.T, args.dt)
    report = {
        "target": [float(v) for v in target],
        "momenta": [float(v) for v in h],
        "endpoint": [float(v) for v in traj.states[-1]],
        "residual_norm": history[-1],
        "iterations": len(history) - 1,
        "residual_history": history,
        "energy": pmp.hamiltonian(h),
    }
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    artifacts.write_artifacts({outdir / "shooting_trajectory.csv": pmp.trajectory_table(traj),
                               outdir / "shooting_report.json": report})
    print(f"momenta: {np.array2string(h, precision=6)}")
    print(f"wrote {outdir}/shooting_trajectory.csv and shooting_report.json")
    if not history[-1] < args.tol:
        print(f"not solved: residual {history[-1]:.3e} >= tol {args.tol:g}", file=sys.stderr)
        return EXIT_FAIL
    return None


if __name__ == "__main__":
    sys.exit(guarded(main))
