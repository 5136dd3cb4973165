"""Infinitesimal symmetries of the nilpotent structure.

Two explicit families in the adapted chart:

* w1..w4 and w12, w13, w14: a transitive nilpotent algebra whose flows act
  by left translations (it mirrors the frame algebra's structure constants);
* v1, v2, v3: the isotropy so(3) algebra fixing the origin.  Each v_i acts
  as a simultaneous rotation of the leg block (l1,l2,l3) and the (y1,y2,y3)
  block, commutes with N1, and rotates (N2,N3,N4) orthogonally, so the
  control metric is preserved.

The axis (a1, a2, a3) defines a1 v1 + a2 v2 + a3 v3, and v1, v2, v3 are
the unit axes.  Its field is one formula, built on first read with each
float taken as the exact rational it is: (0, hat(a) l, hat(a)(y - c(x)))
with the centre curve c(x) = (x + sqrt(3)x^2/4, x, x - sqrt(3)x^2/4), a
linear system with x constant, so its time-t flow rotates l and y - c(x) by
R = exp(t hat(a)) (Rodrigues' formula).  The flows, fixed points and
invariance report are numpy.  The certificates (structure constants solved
exactly, symmetry conditions, transitivity read off the w-fields'
coefficients) are exact and draw no sample: they work on
``polyfield.PolyField``s, loaded on first use; nothing here loads sympy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NotASymmetry, ZeroCombination
from .nilpotent import AdaptedPoint, centre, n1_vertical, nilpotent_frame

if TYPE_CHECKING:
    from .polyfield import PolyField


@dataclass(frozen=True)
class SymmetryField:
    """A named exact polynomial field in the adapted chart.

    ``axis`` is (a1, a2, a3) when the field is a1 v1 + a2 v2 + a3 v3 and None
    otherwise; only fields with an axis have an exact flow.  ``field`` is the
    given field or, when none is given, the so(3) formula of the axis.
    """

    name: str
    given: PolyField | None = None
    axis: tuple[float, float, float] | None = None

    @functools.cached_property
    def field(self) -> PolyField:
        return self.given if self.given is not None else _so3_field(self.axis)


def _so3_field(axis: tuple[float, float, float]) -> PolyField:
    """a1 v1 + a2 v2 + a3 v3 = (0, hat(a) l, hat(a)(y - c(x))), each a_i its exact rational."""
    from .polyfield import UNIT, PolyField, combine
    x, l1, l2, l3, y1, y2, y3 = ({m: (1, 0)} for m in UNIT)
    bump = {(2, 0, 0, 0, 0, 0, 0): (0, 0.25)}  # sqrt(3) x^2 / 4
    y_c = (combine((1, y1), (-1, x), (-1, bump)), combine((1, y2), (-1, x)),
           combine((1, y3), (-1, x), (1, bump)))
    return PolyField(({}, *(combine((axis[j], u[k]), (-axis[k], u[j]))
                            for u in ((l1, l2, l3), y_c) for j, k in ((1, 2), (2, 0), (0, 1)))))


@functools.lru_cache(maxsize=1)
def v_fields() -> tuple[SymmetryField, SymmetryField, SymmetryField]:
    """The isotropy generators v1, v2, v3 (they vanish at the origin): the unit axes."""
    return (SymmetryField("v1", axis=(1.0, 0.0, 0.0)), SymmetryField("v2", axis=(0.0, 1.0, 0.0)),
            SymmetryField("v3", axis=(0.0, 0.0, 1.0)))


@functools.lru_cache(maxsize=1)
def w_fields() -> dict[str, SymmetryField]:
    """The transitive nilpotent algebra w1..w4, w12, w13, w14: w_k = d/dl_{k-1} - x d/dy_{k-1}."""
    from .polyfield import ONE, UNIT, PolyField, coordinate_field
    x = UNIT[0]
    w = {"w1": PolyField(({ONE: (-1, 0)}, {ONE: (0, -0.5)}, {}, {}, {}, {}, {x: (0, 0.5)}))}
    w |= {f"w{k}": coordinate_field(k - 1) - coordinate_field(k + 2) * {x: (1, 0)}
          for k in (2, 3, 4)}
    w |= {f"w1{k}": coordinate_field(k + 2) for k in (2, 3, 4)}
    return {name: SymmetryField(name, f) for name, f in w.items()}


def so3_combination(a1: float, a2: float, a3: float) -> SymmetryField:
    """The combination a1*v1 + a2*v2 + a3*v3, defined by its finite axis."""
    axis = (float(a1), float(a2), float(a3))
    if not all(map(math.isfinite, axis)):
        raise ValueError(f"the axis must be finite, got {axis}")
    return SymmetryField(f"{a1}*v1+{a2}*v2+{a3}*v3", axis=axis)


def so3_structure() -> dict[tuple[int, int], tuple[float, float, float]]:
    """Structure constants of (v1, v2, v3): [v_i, v_j] = sum_k c_k v_k.

    The coefficients are solved exactly from the brackets' polynomial
    coefficients, so the returned table is certified.
    """
    from .polyfield import lie_bracket
    vs = [v.field for v in v_fields()]
    return {(i, j): lie_bracket(vs[i - 1], vs[j - 1]).coefficients_in(vs)
            for i, j in ((1, 2), (1, 3), (2, 3))}


@dataclass(frozen=True)
class SymmetryReport:
    name: str
    commutes_with_n1: bool
    vertical_matrix: tuple[tuple[float, ...], ...]  # A with [v,N_j] = sum_k A_jk N_k
    matrix_antisymmetric: bool
    metric_preserved: bool


def check_symmetry_conditions(v: SymmetryField) -> SymmetryReport:
    """Verify the defining conditions of an isotropy symmetry, exactly.

    Requires [v, N1] = 0 and [v, N_j] = sum_k A_jk N_k for j, k in {2,3,4}
    with constant antisymmetric A.  Together these say the field fixes the
    line of N1 and rotates the orthonormal complement, i.e. it preserves
    the control metric.  Raises NotASymmetry with the offending residual
    field when a condition fails.
    """
    from .polyfield import ONE, lie_bracket
    n1, *legs = nilpotent_frame()
    b1 = lie_bracket(v.field, n1)
    if not b1.is_zero():
        raise NotASymmetry(f"[{v.name}, N1] != 0", residual=b1)

    A = []
    for j, nj in enumerate(legs, start=2):
        bj = lie_bracket(v.field, nj)
        # must be vertical with constant coefficients
        if any(bj.components[idx] for idx in (0, 4, 5, 6)):
            raise NotASymmetry(f"[{v.name}, N{j}] leaves the vertical bundle", residual=bj)
        if any(m != ONE for comp in bj.components[1:4] for m in comp):
            raise NotASymmetry(f"[{v.name}, N{j}] has non-constant coefficients", residual=bj)
        A.append(bj.coefficients_in(legs))

    if not np.array_equal(np.array(A), -np.array(A).T):
        raise NotASymmetry(f"induced matrix of {v.name} on the vertical frame "
                           f"is not antisymmetric", residual=None)
    return SymmetryReport(name=v.name, commutes_with_n1=True, vertical_matrix=tuple(A),
                          matrix_antisymmetric=True, metric_preserved=True)


def fixed_point_set(a: tuple[float, float, float], x: float, k: float) -> AdaptedPoint:
    """A point of the fixed-point set of a1*v1 + a2*v2 + a3*v3.

    The set is the curve of double-rotation centres shifted along the
    rotation axis: legs proportional to a, y-block offset by the centre
    curve c(x) of ``nilpotent.centre``.
    """
    a1, a2, a3 = (float(v) for v in a)
    if not all(map(math.isfinite, (a1, a2, a3, x, k))):
        raise ValueError("the axis, x and k must be finite")
    if a1 == 0.0 and a2 == 0.0 and a3 == 0.0:
        raise ZeroCombination("(a1, a2, a3) must be nonzero")
    legs = k * np.array([a1, a2, a3])
    return AdaptedPoint.from_array(np.concatenate([[x], legs, np.array(centre(x)) + legs]))


def _rotation(v: SymmetryField, t: float, dt: float) -> np.ndarray:
    """R = exp(t hat(a)) for the axis a of v, by Rodrigues' formula."""
    if not (dt > 0.0 and math.isfinite(t)):
        raise ValueError("the flow time must be finite and dt positive")
    if v.axis is None:
        raise NotASymmetry(f"{v.name} is not a combination of v1, v2, v3; it has no flow")
    a = np.asarray(v.axis, dtype=float)
    norm = float(np.linalg.norm(a))
    if norm == 0.0:
        return np.eye(3)
    k = a / norm
    hat = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(t * norm) * hat + (1.0 - math.cos(t * norm)) * (hat @ hat)


def symmetry_flow(v: SymmetryField, p: AdaptedPoint | np.ndarray, t: float,
                  dt: float = 1e-3) -> AdaptedPoint | np.ndarray:
    """Flow p for time t along v = a1 v1 + a2 v2 + a3 v3, exactly.

    p is an AdaptedPoint, returned as one, or an (n, 7) point array, flowed
    in one pass.  Fl_t(x, l, y) = (x, R l, y + (R - I)(y - c(x))) with
    R = exp(t hat(a)), each point's product taken as a stack, so an array
    flows bit for bit as its points do, and p comes back bit for bit at
    t = 0.  The exact flow takes no steps, so dt is only checked (it must be
    positive).  Raises NotASymmetry when v has no axis.
    """
    return _flow(_rotation(v, t, dt), p)


def _flow(R: np.ndarray, p: AdaptedPoint | np.ndarray) -> AdaptedPoint | np.ndarray:
    """``symmetry_flow``'s body given its rotation R."""
    q = p.array if isinstance(p, AdaptedPoint) else np.asarray(p, dtype=float)
    x, legs, y = q[..., :1], q[..., 1:4, None], q[..., 4:7]
    y_c = (y - np.concatenate(centre(x), axis=-1))[..., None]
    out = np.concatenate([x, (R @ legs)[..., 0], y + ((R - np.eye(3)) @ y_c)[..., 0]], axis=-1)
    return AdaptedPoint.from_array(out) if isinstance(p, AdaptedPoint) else out


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
    J[4:7, 0] = _shear_column(R, np.array([p.x]))[0]
    return _flow(R, p), J


def _shear_column(R: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The flow differential's x-column in the y rows, (I - R) c'(x), one row per x in (n,)."""
    zero = np.zeros(len(x))
    return np.stack(n1_vertical(x, zero, zero, zero), axis=1) @ (np.eye(3) - R).T


def w_structure_report() -> dict:
    """Bracket structure of the w-family, certified exactly.

    [w1, w_j] for j = 2,3,4 land in span(w12, w13, w14) with constant
    coefficients; every other pair commutes.
    """
    from .polyfield import lie_bracket
    w = {name: s.field for name, s in w_fields().items()}
    central = [w["w12"], w["w13"], w["w14"]]
    nontrivial = {("w1", w_j): lie_bracket(w["w1"], w[w_j]).coefficients_in(central)
                  for w_j in ("w2", "w3", "w4")}
    names = list(w)
    trivial_ok = all(lie_bracket(w[a], w[b]).is_zero() for i, a in enumerate(names)
                     for b in names[i + 1:] if (a, b) not in nontrivial)
    return {"nontrivial": nontrivial, "others_vanish": trivial_ok}


def transitivity_rank() -> int:
    """The rank of the w-fields at every point, certified exactly: they are
    triangular with diagonal -1, 1, ..., 1, so it is 7 and the w-algebra acts
    transitively.
    """
    from .polyfield import triangular_rank
    return triangular_rank(w.field for w in w_fields().values())


@dataclass(frozen=True)
class FlowInvarianceReport:
    horizontality_residual: float
    relative_length_change: float


def flow_invariance_report(v: SymmetryField, states: np.ndarray, times: np.ndarray,
                           tangents: np.ndarray, s: float,
                           dt: float = 1e-3) -> FlowInvarianceReport:
    """Push a horizontal curve through Fl^s_v and measure what it preserves.

    Tangents go through the exact differential of ``flow_with_jacobian``,
    on whole arrays; their N1..N4 coefficients are (x-dot, l-dot) and their
    distance from the horizontal bundle is |y-dot - x-dot N1_y| at the
    flowed point.  dt is only checked, so both figures measure round-off:
    the worst horizontal distance relative to speed and the relative change
    of sub-Riemannian arc length.
    """
    states, times, tangents = (np.asarray(a, dtype=float) for a in (states, times, tangents))
    n = times.size
    if n < 2 or times.shape != (n,) or states.shape != (n, 7) or tangents.shape != (n, 7):
        raise ValueError(f"a curve needs n >= 2 times with (n, 7) states and tangents, got "
                         f"shapes {times.shape}, {states.shape} and {tangents.shape}")
    if not all(np.isfinite(a).all() for a in (states, times, tangents)):
        raise ValueError("states, times and tangents must be finite")
    R = _rotation(v, s, dt)
    x, xdot = states[:, 0], tangents[:, :1]
    legs_dot = tangents[:, 1:4] @ R.T
    ydot = xdot * _shear_column(R, x) + tangents[:, 4:7] @ R.T
    n1_y = np.stack(n1_vertical(x, *(states[:, 1:4] @ R.T).T), axis=1)
    speeds_before = np.linalg.norm(tangents[:, :4], axis=1)
    speeds_after = np.linalg.norm(np.hstack([xdot, legs_dot]), axis=1)
    residuals = np.linalg.norm(ydot - xdot * n1_y, axis=1)
    len_before = float(np.trapezoid(speeds_before, times))
    len_after = float(np.trapezoid(speeds_after, times))
    return FlowInvarianceReport(
        horizontality_residual=float(np.max(residuals / np.maximum(speeds_after, 1e-300),
                                            initial=0.0)),
        relative_length_change=abs(len_after - len_before) / max(len_before, 1e-300),
    )
