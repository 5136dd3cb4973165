"""Infinitesimal symmetries of the nilpotent structure.

Two explicit families in the adapted chart:

* w1..w4 and w12, w13, w14: a transitive nilpotent algebra whose flows act
  by left translations (it mirrors the frame algebra's structure constants);
* v1, v2, v3: the isotropy so(3) algebra fixing the origin.  Each v_i acts
  as a simultaneous rotation of the leg block (l1,l2,l3) and the (y1,y2,y3)
  block, commutes with N1, and rotates (N2,N3,N4) orthogonally, so the
  control metric is preserved.

The flows of the so(3) family are exact: a1 v1 + a2 v2 + a3 v3 equals
(0, hat(a) l, hat(a)(y - c(x))) with the centre curve
c(x) = (x + sqrt(3)x^2/4, x, x - sqrt(3)x^2/4), a linear system with x
constant, so its time-t flow rotates l and y - c(x) by R = exp(t hat(a))
(Rodrigues' formula).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import sympy as sp

from . import fields
from .errors import NotASymmetry, ZeroCombination
from .fields import (ADAPTED, SQRT3, VectorFieldSym, coordinate_field, coords,
                     is_zero_expr, lie_bracket)
from .mechanism import RANK_TOL, _rank
from .nilpotent import (AdaptedPoint, centre, n1_vertical, nilpotent_frame,
                        nilpotent_frame_matrix)


@dataclass(frozen=True)
class SymmetryField:
    """A named symbolic field in the adapted chart.

    ``axis`` is (a1, a2, a3) when the field is a1 v1 + a2 v2 + a3 v3 and None
    otherwise; only fields with an axis have an exact flow.
    """

    name: str
    field: VectorFieldSym
    axis: tuple[float, float, float] | None = None


@functools.lru_cache(maxsize=1)
def v_fields() -> tuple[SymmetryField, SymmetryField, SymmetryField]:
    """The isotropy generators v1, v2, v3 (they vanish at the origin)."""
    x, l1, l2, l3, y1, y2, y3 = coords(ADAPTED)
    P = SQRT3 * x**2 / 4 - x + y3
    Q = x - y2
    R = SQRT3 * x**2 / 4 + x - y1
    v1 = VectorFieldSym(ADAPTED, (0, 0, -l3, l2, 0, -P, -Q))
    v2 = VectorFieldSym(ADAPTED, (0, l3, 0, -l1, P, 0, R))
    v3 = VectorFieldSym(ADAPTED, (0, -l2, l1, 0, Q, -R, 0))
    return (SymmetryField("v1", v1, (1.0, 0.0, 0.0)), SymmetryField("v2", v2, (0.0, 1.0, 0.0)),
            SymmetryField("v3", v3, (0.0, 0.0, 1.0)))


@functools.lru_cache(maxsize=1)
def w_fields() -> dict[str, SymmetryField]:
    """The transitive nilpotent algebra w1..w4, w12, w13, w14."""
    x, l1, l2, l3, y1, y2, y3 = coords(ADAPTED)
    w = {
        "w1": VectorFieldSym(ADAPTED, (-1, -SQRT3 / 2, 0, 0, 0, 0, SQRT3 * x / 2)),
        "w2": VectorFieldSym(ADAPTED, (0, 1, 0, 0, -x, 0, 0)),
        "w3": VectorFieldSym(ADAPTED, (0, 0, 1, 0, 0, -x, 0)),
        "w4": VectorFieldSym(ADAPTED, (0, 0, 0, 1, 0, 0, -x)),
        "w12": coordinate_field(ADAPTED, 4),
        "w13": coordinate_field(ADAPTED, 5),
        "w14": coordinate_field(ADAPTED, 6),
    }
    return {name: SymmetryField(name, f) for name, f in w.items()}


def so3_combination(a1: float, a2: float, a3: float) -> SymmetryField:
    """The combination a1*v1 + a2*v2 + a3*v3."""
    v1, v2, v3 = v_fields()
    f = sp.nsimplify(a1) * v1.field + sp.nsimplify(a2) * v2.field + sp.nsimplify(a3) * v3.field
    return SymmetryField(f"{a1}*v1+{a2}*v2+{a3}*v3", f, (float(a1), float(a2), float(a3)))


def _coefficients_in_basis(b: VectorFieldSym, basis: list[VectorFieldSym],
                           seed: int = 0) -> tuple[float, ...]:
    """Constant coefficients of b in a pointwise-independent field basis,
    fit numerically and then verified exactly."""
    rng = np.random.default_rng(seed)
    pts = fields.random_points(ADAPTED, 4, rng) * 1.5
    rows, rhs = [], []
    for p in pts:
        cols = np.stack([f(p) for f in basis], axis=1)  # 7 x n
        rows.append(cols)
        rhs.append(b(p))
    Amat = np.vstack(rows)
    bvec = np.concatenate(rhs)
    sol, *_ = np.linalg.lstsq(Amat, bvec, rcond=None)
    rounded = [sp.nsimplify(round(c * 12) / 12, rational=True) for c in sol]
    residual = b - fields.linear_combination(basis, rounded)
    if not residual.is_zero():
        raise NotASymmetry("field is not a constant combination of the basis",
                           residual=residual)
    return tuple(float(c) for c in rounded)


def so3_structure() -> dict[tuple[int, int], tuple[float, float, float]]:
    """Structure constants of (v1, v2, v3): [v_i, v_j] = sum_k c_k v_k.

    Coefficients are fit numerically and verified by exact symbolic
    cancellation, so the returned table is certified.
    """
    vs = [v.field for v in v_fields()]
    table = {}
    for i, j in ((1, 2), (1, 3), (2, 3)):
        b = lie_bracket(vs[i - 1], vs[j - 1])
        table[(i, j)] = _coefficients_in_basis(b, vs)
    return table


@dataclass(frozen=True)
class SymmetryReport:
    name: str
    commutes_with_n1: bool
    vertical_matrix: tuple[tuple[float, ...], ...]  # A with [v,N_j] = sum_k A_jk N_k
    matrix_antisymmetric: bool
    metric_preserved: bool


def check_symmetry_conditions(v: SymmetryField) -> SymmetryReport:
    """Verify the defining conditions of an isotropy symmetry, symbolically.

    Requires [v, N1] = 0 and [v, N_j] = sum_k A_jk N_k for j, k in {2,3,4}
    with constant antisymmetric A.  Together these say the field fixes the
    line of N1 and rotates the orthonormal complement, i.e. it preserves
    the control metric.  Raises NotASymmetry with the offending residual
    field when a condition fails.
    """
    n1, n2, n3, n4 = nilpotent_frame()
    b1 = lie_bracket(v.field, n1)
    if not b1.is_zero():
        raise NotASymmetry(f"[{v.name}, N1] != 0", residual=b1)

    legs = [n2, n3, n4]
    A = []
    for j, nj in enumerate(legs, start=2):
        bj = lie_bracket(v.field, nj)
        # must be vertical with constant coefficients
        for idx in (0, 4, 5, 6):
            if not is_zero_expr(bj.components[idx]):
                raise NotASymmetry(f"[{v.name}, N{j}] leaves the vertical bundle",
                                   residual=bj)
        row = []
        for k in (1, 2, 3):
            c = sp.simplify(bj.components[k])
            if c.free_symbols:
                raise NotASymmetry(f"[{v.name}, N{j}] has non-constant coefficients",
                                   residual=bj)
            row.append(float(c))
        A.append(tuple(row))

    mat = np.array(A)
    antisym = bool(np.max(np.abs(mat + mat.T)) == 0.0)
    if not antisym:
        raise NotASymmetry(f"induced matrix of {v.name} on the vertical frame "
                           f"is not antisymmetric", residual=None)
    return SymmetryReport(
        name=v.name,
        commutes_with_n1=True,
        vertical_matrix=tuple(tuple(r) for r in A),
        matrix_antisymmetric=antisym,
        metric_preserved=antisym,
    )


def fixed_point_set(a: tuple[float, float, float], x: float, k: float) -> AdaptedPoint:
    """A point of the fixed-point set of a1*v1 + a2*v2 + a3*v3.

    The set is the curve of double-rotation centres shifted along the
    rotation axis: legs proportional to a, y-block offset by the centre
    curve c(x) of ``nilpotent.centre``.
    """
    a1, a2, a3 = (float(v) for v in a)
    if a1 == 0.0 and a2 == 0.0 and a3 == 0.0:
        raise ZeroCombination("(a1, a2, a3) must be nonzero")
    legs = k * np.array([a1, a2, a3])
    return AdaptedPoint.from_array(np.concatenate([[x], legs, np.array(centre(x)) + legs]))


def _rotation(v: SymmetryField, t: float, dt: float) -> np.ndarray:
    """R = exp(t hat(a)) for the axis a of v, by Rodrigues' formula."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if v.axis is None:
        raise NotASymmetry(f"{v.name} is not a combination of v1, v2, v3; it has no flow")
    a = np.asarray(v.axis, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.eye(3)
    k = a / norm
    hat = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(t * norm) * hat + (1.0 - math.cos(t * norm)) * (hat @ hat)


def symmetry_flow(v: SymmetryField, p: AdaptedPoint, t: float, dt: float = 1e-3) -> AdaptedPoint:
    """Flow p for time t along v = a1 v1 + a2 v2 + a3 v3, exactly.

    Fl_t(x, l, y) = (x, R l, y + (R - I)(y - c(x))) with R = exp(t hat(a));
    this returns p bit for bit at t = 0.  The exact flow takes no steps, so
    dt is only checked (it must be positive).  Raises NotASymmetry when v
    has no axis.
    """
    R = _rotation(v, t, dt)
    legs, y = p.array[1:4], p.array[4:7]
    return AdaptedPoint.from_array(
        np.concatenate([[p.x], R @ legs, y + (R - np.eye(3)) @ (y - np.array(centre(p.x)))]))


def flow_with_jacobian(v: SymmetryField, p: AdaptedPoint, t: float,
                       dt: float = 1e-3) -> tuple[AdaptedPoint, np.ndarray]:
    """Flow a point exactly and return the differential of the flow map.

    The differential is [[1, 0, 0], [0, R, 0], [(I - R) c'(x), 0, R]] with
    c'(x) = (1 + sqrt(3)x/2, 1, 1 - sqrt(3)x/2), the y-part of N1 at l = 0;
    dt is only checked, as in ``symmetry_flow``.
    """
    R = _rotation(v, t, dt)
    J = np.zeros((7, 7))
    J[0, 0] = 1.0
    J[1:4, 1:4] = J[4:7, 4:7] = R
    J[4:7, 0] = (np.eye(3) - R) @ np.array(n1_vertical(p.x, 0.0, 0.0, 0.0))
    return symmetry_flow(v, p, t, dt), J


def w_structure_report() -> dict:
    """Bracket structure of the w-family, certified symbolically.

    [w1, w_j] for j = 2,3,4 land in span(w12, w13, w14) with constant
    coefficients; every other pair commutes.
    """
    w = w_fields()
    gens = ["w1", "w2", "w3", "w4"]
    centre = [w["w12"].field, w["w13"].field, w["w14"].field]
    nontrivial = {}
    for j in (2, 3, 4):
        b = lie_bracket(w["w1"].field, w[f"w{j}"].field)
        nontrivial[("w1", f"w{j}")] = _coefficients_in_basis(b, centre)
    trivial_ok = True
    names = gens + ["w12", "w13", "w14"]
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            if ni == "w1" and nj in ("w2", "w3", "w4"):
                continue
            if not lie_bracket(w[ni].field, w[nj].field).is_zero():
                trivial_ok = False
    return {"nontrivial": nontrivial, "others_vanish": trivial_ok}


def transitivity_rank(samples: int = 20, seed: int = 0) -> int:
    """Minimum rank of the 7x7 matrix of w-field values at random points."""
    rng = np.random.default_rng(seed)
    w = w_fields()
    order = ["w1", "w2", "w3", "w4", "w12", "w13", "w14"]
    worst = 7
    for p in fields.random_points(ADAPTED, samples, rng) * 2.0:
        worst = min(worst, _rank(np.stack([w[name].field(p) for name in order]), RANK_TOL))
    return worst


@dataclass(frozen=True)
class FlowInvarianceReport:
    horizontality_residual: float
    relative_length_change: float


def flow_invariance_report(v: SymmetryField, states: np.ndarray, times: np.ndarray,
                           tangents: np.ndarray, s: float,
                           dt: float = 1e-3) -> FlowInvarianceReport:
    """Push a horizontal curve through Fl^s_v and measure what it preserves.

    Tangents are transported by the exact differential of the flow map and
    re-expressed in the frame N1..N4; dt is only checked (see
    ``symmetry_flow``), so both figures measure round-off.  The report
    carries the worst distance from the horizontal bundle relative to speed
    and the relative change of sub-Riemannian arc length.
    """
    worst = 0.0
    speeds_before = np.empty(len(states))
    speeds_after = np.empty(len(states))
    for i, (q, qdot) in enumerate(zip(states, tangents)):
        u0, _ = _frame_split(qdot, nilpotent_frame_matrix(q))
        speeds_before[i] = np.linalg.norm(u0)
        P, J = flow_with_jacobian(v, AdaptedPoint.from_array(q), s, dt)
        w = J @ qdot
        u1, res = _frame_split(w, nilpotent_frame_matrix(P.array))
        speeds_after[i] = np.linalg.norm(u1)
        worst = max(worst, res / max(speeds_after[i], 1e-300))
    len_before = float(np.trapezoid(speeds_before, times))
    len_after = float(np.trapezoid(speeds_after, times))
    return FlowInvarianceReport(
        horizontality_residual=worst,
        relative_length_change=abs(len_after - len_before) / max(len_before, 1e-300),
    )


def _frame_split(w: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, float]:
    """Coefficients of w in N1..N4 plus the off-distribution residual norm."""
    u = np.array([w[0], w[1], w[2], w[3]])
    res = float(np.linalg.norm(w[4:7] - w[0] * F[0, 4:7]))
    return u, res
