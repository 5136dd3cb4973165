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

The frame and its brackets are exact ``polyfield.PolyField``s, loaded when a
certificate first asks for them; nothing here loads sympy.  Their bracket
table is the whole path geometry of the splitting E = <N1>, V = <N2,N3,N4>
(the tests assert it exactly); only the left-invariance residual is sampled.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import ChartMismatch
from .mechanism import MAX_SAMPLES, Configuration

if TYPE_CHECKING:
    from .polyfield import PolyField

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


def original_to_adapted(x, y, th, ph, l1, l2, l3):
    """The tuple (x, l1, l2, l3, y1, y2, y3) of an original point; floats or arrays."""
    y1 = -2.0 * x - 2.0 * _S3 * y - 8.0 * th
    y2 = 0.8 * ph - 0.8 * x + 1.6 * th
    y3 = -2.0 * x + 2.0 * _S3 * y - 8.0 * th
    return x, l1, l2, l3, y1, y2, y3


def to_adapted(q: Configuration) -> AdaptedPoint:
    """Original chart -> adapted chart (linear; x and the legs pass through).

    Any q but a Configuration, the original chart's one point type, raises ChartMismatch.
    """
    if not isinstance(q, Configuration):
        raise ChartMismatch(f"to_adapted expects an original-chart Configuration, "
                            f"got {type(q).__name__}")
    return AdaptedPoint(*original_to_adapted(*q.values))


def adapted_to_original(x, l1, l2, l3, y1, y2, y3):
    """The tuple (x, y, theta, phi, l1, l2, l3) of an adapted point; floats or arrays."""
    ph = 1.25 * y2 + 1.5 * x + 0.125 * y1 + 0.125 * y3
    th = -y1 / 16.0 - y3 / 16.0 - x / 4.0
    y = -_S3 / 12.0 * (y1 - y3)
    return x, y, th, ph, l1, l2, l3


def from_adapted(p: AdaptedPoint) -> Configuration:
    """Adapted chart -> original chart, the exact inverse of to_adapted (in float arithmetic,
    so a coordinate that overflows is inf or nan, with no numpy warning)."""
    return Configuration.original(*adapted_to_original(*p.array.tolist()))


@functools.lru_cache(maxsize=1)
def nilpotent_frame() -> tuple[PolyField, ...]:
    """The frame N1..N4 in the adapted chart: N1 = d/dx + n1_vertical . d/dy, N_k = d/dl_{k-1}."""
    from .polyfield import ONE, UNIT, PolyField, coordinate_field
    x, l1, l2, l3 = UNIT[:4]
    n1 = PolyField(({ONE: (1, 0)}, {}, {}, {},
                    {ONE: (1, 0), x: (0, 0.5), l1: (-1, 0)},
                    {ONE: (1, 0), l2: (-1, 0)},
                    {ONE: (1, 0), x: (0, -0.5), l3: (-1, 0)}))
    return (n1, coordinate_field(1), coordinate_field(2), coordinate_field(3))


@functools.lru_cache(maxsize=1)
def extended_frame() -> tuple[PolyField, ...]:
    """N1..N4 followed by N12 = [N1,N2], N13 = [N1,N3], N14 = [N1,N4]."""
    from .polyfield import lie_bracket
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

    Works on floats or arrays and returns a tuple, so the Hamiltonian
    right-hand side and the symmetry flows read N1 from this one formula.
    """
    return 1.0 + _S3 / 2.0 * x - l1, 1.0 - l2, 1.0 - _S3 / 2.0 * x - l3


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


def check_left_invariance(X: PolyField, samples: int = 1000, seed: int = 0,
                          tol: float = 1e-9) -> LeftInvarianceReport:
    """Check dL_g(X(p)) = X(g*p) at random (g, p) pairs, in one array pass.

    The pairs are one uniform (samples, 2, 7) draw from [-2, 2]^7, with
    samples in [1, mechanism.MAX_SAMPLES].  The product is affine in its right
    factor, so dL_g is exact: the identity plus column 0's y rows
    (sqrt(3)/2 gx - gl1, -gl2, -sqrt(3)/2 gx - gl3).
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"left invariance needs at least one sample and at most "
                         f"{MAX_SAMPLES}, got {samples}")
    g, p = np.random.default_rng(seed).uniform(-2.0, 2.0, (samples, 2, 7)).transpose(1, 0, 2)
    gx, gl1, gl2, gl3 = g[:, :4].T
    lhs = X(p)
    lhs[:, 4:] += lhs[:, :1] * np.stack((_S3 / 2.0 * gx - gl1, -gl2, -_S3 / 2.0 * gx - gl3),
                                        axis=1)
    rhs = X(np.stack(group_law(g.T, p.T), axis=1))
    worst = float(np.max(np.abs(lhs - rhs)))
    return LeftInvarianceReport(field_ok=worst < tol, max_residual=worst, samples=samples)
