"""Infinitesimal symmetries of the nilpotent structure.

Two explicit families in the adapted chart:

* w1..w4 and w12, w13, w14: a transitive nilpotent algebra whose flows act
  by left translations (it mirrors the frame algebra's structure constants);
* v1, v2, v3: the isotropy so(3) algebra fixing the origin.  Each v_i acts
  as a simultaneous rotation of the leg block (l1,l2,l3) and the (y1,y2,y3)
  block, commutes with N1, and rotates (N2,N3,N4) orthogonally, so the
  control metric is preserved.

The axis (a1, a2, a3) defines a1 v1 + a2 v2 + a3 v3; its symbolic field is
built on first read, each float taken as the exact rational it is.  That
field equals (0, hat(a) l, hat(a)(y - c(x))) with the centre curve
c(x) = (x + sqrt(3)x^2/4, x, x - sqrt(3)x^2/4), a linear system with x
constant, so its time-t flow rotates l and y - c(x) by R = exp(t hat(a))
(Rodrigues' formula).  The flows, fixed points and invariance report are
numpy; only the certificates (symbolic fields, structure constants solved
exactly, symmetry conditions) load sympy.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .charts import ADAPTED
from .errors import NotASymmetry, ZeroCombination
from .mechanism import RANK_TOL, _rank
from .nilpotent import AdaptedPoint, centre, n1_vertical, nilpotent_frame

if TYPE_CHECKING:
    from .fields import VectorFieldSym


@dataclass(frozen=True)
class SymmetryField:
    """A named symbolic field in the adapted chart.

    ``axis`` is (a1, a2, a3) when the field is a1 v1 + a2 v2 + a3 v3 and None
    otherwise; only fields with an axis have an exact flow.  ``field`` is the
    given field or, when none is given, the combination built from the axis.
    """

    name: str
    given: VectorFieldSym | None = None
    axis: tuple[float, float, float] | None = None

    @functools.cached_property
    def field(self) -> VectorFieldSym:
        if self.given is not None:
            return self.given
        import sympy as sp

        from . import fields
        return fields.linear_combination([v.field for v in v_fields()],
                                         [sp.Rational(a) for a in self.axis])


@functools.lru_cache(maxsize=1)
def v_fields() -> tuple[SymmetryField, SymmetryField, SymmetryField]:
    """The isotropy generators v1, v2, v3 (they vanish at the origin)."""
    from .fields import SQRT3, VectorFieldSym, coords
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
    from .fields import SQRT3, VectorFieldSym, coordinate_field, coords
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
    """The combination a1*v1 + a2*v2 + a3*v3, defined by its finite axis."""
    axis = (float(a1), float(a2), float(a3))
    if not all(map(math.isfinite, axis)):
        raise ValueError(f"the axis must be finite, got {axis}")
    return SymmetryField(f"{a1}*v1+{a2}*v2+{a3}*v3", axis=axis)


def _coefficients_in_basis(b: VectorFieldSym, basis: list[VectorFieldSym]) -> tuple[float, ...]:
    """The constant coefficients c of b = sum_i c_i f_i, solved exactly.

    Each component of b - sum_i c_i f_i is a polynomial in the coordinates
    whose coefficients must vanish; those linear equations in c go to
    ``sp.linsolve``.  Raises NotASymmetry when they have no solution.
    """
    import sympy as sp

    from .fields import coords
    cs = sp.symbols(f"c0:{len(basis)}", cls=sp.Dummy)
    eqs = []
    for bk, *fk in zip(b.components, *(f.components for f in basis)):
        eqs += sp.Poly(bk - sum(c * f for c, f in zip(cs, fk)), *coords(ADAPTED)).coeffs()
    solutions = sp.linsolve(eqs, cs)
    if not solutions:
        raise NotASymmetry("field is not a constant combination of the basis", residual=b)
    (sol,) = solutions
    return tuple(float(c) for c in sol)


def so3_structure() -> dict[tuple[int, int], tuple[float, float, float]]:
    """Structure constants of (v1, v2, v3): [v_i, v_j] = sum_k c_k v_k.

    The coefficients are solved exactly from the brackets' polynomial
    coefficients, so the returned table is certified.
    """
    from .fields import lie_bracket
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
    from .fields import is_zero_expr, lie_bracket, simplify_expr
    n1, n2, n3, n4 = nilpotent_frame()
    b1 = lie_bracket(v.field, n1)
    if not b1.is_zero():
        raise NotASymmetry(f"[{v.name}, N1] != 0", residual=b1)

    legs = [n2, n3, n4]
    A = []
    for j, nj in enumerate(legs, start=2):
        bj = lie_bracket(v.field, nj)
        # must be vertical with constant coefficients
        if not all(is_zero_expr(bj.components[idx]) for idx in (0, 4, 5, 6)):
            raise NotASymmetry(f"[{v.name}, N{j}] leaves the vertical bundle", residual=bj)
        row = [simplify_expr(bj.components[k]) for k in (1, 2, 3)]
        if any(c.free_symbols for c in row):
            raise NotASymmetry(f"[{v.name}, N{j}] has non-constant coefficients", residual=bj)
        A.append(tuple(float(c) for c in row))

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
    J[4:7, 0] = (np.eye(3) - R) @ np.array(n1_vertical(p.x, 0.0, 0.0, 0.0))
    return _flow(R, p), J


def w_structure_report() -> dict:
    """Bracket structure of the w-family, certified symbolically.

    [w1, w_j] for j = 2,3,4 land in span(w12, w13, w14) with constant
    coefficients; every other pair commutes.
    """
    from .fields import lie_bracket
    w = {name: s.field for name, s in w_fields().items()}
    central = [w["w12"], w["w13"], w["w14"]]
    nontrivial = {("w1", w_j): _coefficients_in_basis(lie_bracket(w["w1"], w[w_j]), central)
                  for w_j in ("w2", "w3", "w4")}
    names = list(w)
    trivial_ok = all(lie_bracket(w[a], w[b]).is_zero() for i, a in enumerate(names)
                     for b in names[i + 1:] if (a, b) not in nontrivial)
    return {"nontrivial": nontrivial, "others_vanish": trivial_ok}


def transitivity_rank(samples: int = 20, seed: int = 0) -> int:
    """Minimum rank of the 7x7 matrices of w-field values at random points (7 for none).

    One call evaluates each w-field at every point, and one ranks the stack.
    """
    from . import fields
    points = fields.random_points(ADAPTED, samples, np.random.default_rng(seed)) * 2.0
    stack = np.stack([w.field(points) for w in w_fields().values()], axis=1)
    return int(_rank(stack, RANK_TOL).min(initial=7))


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
    if not all(np.isfinite(a).all() for a in (states, times, tangents)):
        raise ValueError("states, times and tangents must be finite")
    R = _rotation(v, s, dt)
    x, xdot, zero = states[:, 0], tangents[:, :1], np.zeros(len(states))
    legs_dot = tangents[:, 1:4] @ R.T
    c_prime = np.stack(n1_vertical(x, zero, zero, zero), axis=1)
    ydot = xdot * (c_prime @ (np.eye(3) - R).T) + tangents[:, 4:7] @ R.T
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
