"""Adapted coordinates, the nilpotent frame, and the Lie group structure.

The adapted chart (x, l1, l2, l3, y1, y2, y3) is reached from the original
chart by an affine change that keeps x and the leg lengths and replaces
(y, theta, phi) by

    y1 = -2x - 2*sqrt(3)*y - 8*theta
    y2 = (4/5)*phi - (4/5)*x + (8/5)*theta
    y3 = -2x + 2*sqrt(3)*y - 8*theta.

In this chart the step-2 nilpotent frame N1..N4 generates a 7-dimensional
Lie algebra with [N1,N2] = d/dy1, [N1,N3] = d/dy2, [N1,N4] = d/dy3 and all
other brackets zero.  R^7 with the polynomial product ``group_mul`` is the
corresponding simply connected group; the frame is left-invariant for it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .charts import ADAPTED, ORIGINAL
from .errors import ChartMismatch
from .mechanism import MAX_SAMPLES, RANK_TOL, Configuration, _rank

if TYPE_CHECKING:
    from .fields import VectorFieldSym

_S3 = math.sqrt(3.0)


@dataclass(frozen=True)
class AdaptedPoint:
    """A point of the adapted chart / an element of the nilpotent group."""

    x: float = 0.0
    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    y1: float = 0.0
    y2: float = 0.0
    y3: float = 0.0

    @property
    def array(self) -> np.ndarray:
        return np.array([self.x, self.l1, self.l2, self.l3, self.y1, self.y2, self.y3])

    @classmethod
    def from_array(cls, arr) -> "AdaptedPoint":
        return cls(*(float(v) for v in arr))

    def to_json(self) -> dict:
        return {"chart": ADAPTED, "point": [float(v) for v in self.array]}

    @classmethod
    def from_json(cls, obj: dict) -> "AdaptedPoint":
        if obj.get("chart") != ADAPTED:
            raise ChartMismatch("expected an adapted-chart point")
        return cls.from_array(obj["point"])


def to_adapted(q: Configuration) -> AdaptedPoint:
    """Original chart -> adapted chart (linear; x and the legs pass through)."""
    if q.chart != ORIGINAL:
        raise ChartMismatch("to_adapted expects the original chart")
    x, y, th, ph, l1, l2, l3 = q.values
    return AdaptedPoint(
        x=x, l1=l1, l2=l2, l3=l3,
        y1=-2.0 * x - 2.0 * _S3 * y - 8.0 * th,
        y2=0.8 * ph - 0.8 * x + 1.6 * th,
        y3=-2.0 * x + 2.0 * _S3 * y - 8.0 * th,
    )


def adapted_to_original(x, l1, l2, l3, y1, y2, y3):
    """The tuple (x, y, theta, phi, l1, l2, l3) of an adapted point; floats or arrays."""
    ph = 1.25 * y2 + 1.5 * x + 0.125 * y1 + 0.125 * y3
    th = -y1 / 16.0 - y3 / 16.0 - x / 4.0
    y = -_S3 / 12.0 * (y1 - y3)
    return x, y, th, ph, l1, l2, l3


def from_adapted(p: AdaptedPoint) -> Configuration:
    """Adapted chart -> original chart, the exact inverse of to_adapted."""
    return Configuration.original(*adapted_to_original(*p.array))


def adapted_jacobian() -> np.ndarray:
    """Constant 7x7 Jacobian of to_adapted (pushforward original->adapted)."""
    T = np.zeros((7, 7))
    T[0, 0] = 1.0
    T[1, 4] = T[2, 5] = T[3, 6] = 1.0
    T[4] = (-2.0, -2.0 * _S3, -8.0, 0.0, 0.0, 0.0, 0.0)
    T[5] = (-0.8, 0.0, 1.6, 0.8, 0.0, 0.0, 0.0)
    T[6] = (-2.0, 2.0 * _S3, -8.0, 0.0, 0.0, 0.0, 0.0)
    return T


@functools.lru_cache(maxsize=1)
def nilpotent_frame() -> tuple[VectorFieldSym, ...]:
    """The frame N1..N4 in the adapted chart."""
    from .fields import SQRT3, VectorFieldSym, coordinate_field, coords
    x, l1, l2, l3, y1, y2, y3 = coords(ADAPTED)
    n1 = VectorFieldSym(ADAPTED, (
        1, 0, 0, 0,
        -(-SQRT3 / 2 * x + l1 - 1),
        -(l2 - 1),
        -(SQRT3 / 2 * x + l3 - 1),
    ))
    return (n1,
            coordinate_field(ADAPTED, 1),
            coordinate_field(ADAPTED, 2),
            coordinate_field(ADAPTED, 3))


@functools.lru_cache(maxsize=1)
def extended_frame() -> tuple[VectorFieldSym, ...]:
    """N1..N4 followed by N12 = [N1,N2], N13 = [N1,N3], N14 = [N1,N4]."""
    from .fields import lie_bracket
    n1, n2, n3, n4 = nilpotent_frame()
    return (n1, n2, n3, n4,
            lie_bracket(n1, n2), lie_bracket(n1, n3), lie_bracket(n1, n4))


def centre(x):
    """The centre curve c(x) = (x + sqrt(3)x^2/4, x, x - sqrt(3)x^2/4), as a tuple.

    x is a float or an array; the so(3) symmetries rotate y - c(x).
    """
    bump = _S3 / 4.0 * x * x
    return x + bump, x, x - bump


def n1_vertical(x, l1, l2, l3):
    """The y-part of N1, c'(x) - l = (1 + sqrt(3)x/2 - l1, 1 - l2, 1 - sqrt(3)x/2 - l3).

    Works on floats or arrays and returns a tuple, so the numeric frame and
    the Hamiltonian right-hand side read N1 from this one formula.
    """
    return 1.0 + _S3 / 2.0 * x - l1, 1.0 - l2, 1.0 - _S3 / 2.0 * x - l3


def nilpotent_frame_matrix(arr) -> np.ndarray:
    """Numeric frame: rows N1..N4 at adapted coordinates arr, (4, 7), or (n, 4, 7) for (n, 7)."""
    arr = np.asarray(arr, dtype=float)
    F = np.zeros((*arr.shape[:-1], 4, 7))
    F[..., 0, 0] = F[..., 1, 1] = F[..., 2, 2] = F[..., 3, 3] = 1.0
    F[..., 0, 4:] = np.stack(n1_vertical(*np.moveaxis(arr[..., :4], -1, 0)), axis=-1)
    return F


def group_identity() -> AdaptedPoint:
    return AdaptedPoint()


def group_law(p, q):
    """The product p * q of two coordinate 7-sequences (floats or arrays), as a tuple."""
    px, pl1, pl2, pl3, py1, py2, py3 = p
    qx, ql1, ql2, ql3, qy1, qy2, qy3 = q
    return (px + qx, pl1 + ql1, pl2 + ql2, pl3 + ql3,
            py1 + qy1 + _S3 / 2.0 * px * qx - pl1 * qx,
            py2 + qy2 - pl2 * qx,
            py3 + qy3 - _S3 / 2.0 * px * qx - pl3 * qx)


def group_mul(p: AdaptedPoint, q: AdaptedPoint) -> AdaptedPoint:
    """The nilpotent group product on R^7."""
    return AdaptedPoint.from_array(group_law(p.array, q.array))


def group_inverse(p: AdaptedPoint) -> AdaptedPoint:
    """Two-sided inverse under group_mul (solve p * pbar = identity)."""
    return AdaptedPoint(
        x=-p.x,
        l1=-p.l1, l2=-p.l2, l3=-p.l3,
        y1=-p.y1 + _S3 / 2.0 * p.x ** 2 - p.l1 * p.x,
        y2=-p.y2 - p.l2 * p.x,
        y3=-p.y3 - _S3 / 2.0 * p.x ** 2 - p.l3 * p.x,
    )


@dataclass(frozen=True)
class LeftInvarianceReport:
    field_ok: bool
    max_residual: float
    samples: int


def check_left_invariance(X: VectorFieldSym, samples: int = 1000, seed: int = 0,
                          tol: float = 1e-9, box: float = 2.0) -> LeftInvarianceReport:
    """Check dL_g(X(p)) = X(g*p) at random (g, p) pairs, in one array pass.

    The pairs are one uniform (samples, 2, 7) draw from [-box, box]^7, with
    samples in [1, mechanism.MAX_SAMPLES].  The product is affine in its right
    factor, so dL_g is exact: the identity plus column 0's y rows
    (sqrt(3)/2 gx - gl1, -gl2, -sqrt(3)/2 gx - gl3).
    """
    if X.chart != ADAPTED:
        raise ChartMismatch("left invariance is defined on the adapted chart")
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"left invariance needs at least one sample and at most "
                         f"{MAX_SAMPLES}, got {samples}")
    g, p = np.random.default_rng(seed).uniform(-box, box, (samples, 2, 7)).transpose(1, 0, 2)
    gx, gl1, gl2, gl3 = g[:, :4].T
    lhs = X(p)
    lhs[:, 4:] += lhs[:, :1] * np.stack((_S3 / 2.0 * gx - gl1, -gl2, -_S3 / 2.0 * gx - gl3),
                                        axis=1)
    rhs = X(np.stack(group_law(g.T, p.T), axis=1))
    worst = float(np.max(np.abs(lhs - rhs)))
    return LeftInvarianceReport(field_ok=worst < tol, max_residual=worst, samples=samples)


def _in_span_residual(w: np.ndarray, at: np.ndarray) -> float:
    """Distance of w from E + V at a point: the y-components must match
    w_x times the y-components of N1 there (the leg part is free)."""
    n1 = nilpotent_frame_matrix(at)[0]
    return float(np.max(np.abs(w[4:7] - w[0] * n1[4:7])))


@dataclass(frozen=True)
class PathGeometryReport:
    frame_rank_ok: bool
    v_brackets_in_ev: bool
    mixed_brackets_outside: bool
    min_mixed_residual: float
    samples: int

    @property
    def all_ok(self) -> bool:
        return self.frame_rank_ok and self.v_brackets_in_ev and self.mixed_brackets_outside


def check_path_geometry_conditions(samples: int = 25, seed: int = 0) -> PathGeometryReport:
    """Structural checks of the splitting E = <N1>, V = <N2,N3,N4>.

    (1) E and V stay transversal (the frame has rank 4 at random points).
    (2) Brackets of V-sections with random affine coefficients land in
        E + V (their bracket is again vertical: checked symbolically).
    (3) For generic sections xi in E and nu in V that do not vanish at a
        point, [xi, nu] at that point leaves E + V.
    """
    import sympy as sp

    from . import fields
    rng = np.random.default_rng(seed)
    n = nilpotent_frame()
    cs = fields.coords(ADAPTED)

    def affine_coeff():  # the integers (c0, c) of c0 + c . coords
        return rng.integers(-3, 4, size=8)

    def affine_expr(c):
        return sp.Integer(int(c[0])) + sum(int(ci) * s for ci, s in zip(c[1:], cs))

    def vertical_section():
        return fields.linear_combination(n[1:], [affine_expr(affine_coeff()) for _ in range(3)])

    pts = fields.random_points(ADAPTED, samples, rng) * 2.0
    rank_ok = bool(np.all(_rank(nilpotent_frame_matrix(pts), RANK_TOL) == 4))

    # vertical fields close among themselves: x- and y-components vanish
    v_ok = True
    for _ in range(4):
        b = fields.lie_bracket(vertical_section(), vertical_section())
        v_ok &= all(fields.is_zero_expr(b.components[idx]) for idx in (0, 4, 5, 6))

    min_res = math.inf
    outside_ok = True
    for p in pts[: min(10, len(pts))]:
        while True:
            f = affine_coeff()
            coeffs = [affine_coeff() for _ in range(3)]
            fval = f[0] + f[1:] @ p
            avals = [c[0] + c[1:] @ p for c in coeffs]
            if abs(fval) > 0.1 and np.linalg.norm(avals) > 0.1:
                break
        xi = affine_expr(f) * n[0]
        nu = fields.linear_combination(n[1:], [affine_expr(c) for c in coeffs])
        w = fields.lie_bracket(xi, nu)(p)
        res = _in_span_residual(w, p)
        expected = abs(fval) * float(np.linalg.norm(avals, ord=np.inf))
        min_res = min(min_res, res)
        if res < 0.5 * expected or res < 1e-9:
            outside_ok = False

    return PathGeometryReport(
        frame_rank_ok=rank_ok,
        v_brackets_in_ev=v_ok,
        mixed_brackets_outside=outside_ok,
        min_mixed_residual=min_res,
        samples=samples,
    )
