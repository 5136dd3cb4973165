"""Exact symbolic scalar expressions and vector fields on R^7.

Every other module works over one of two fixed charts on the configuration
space:

* ``original``: (x, y, theta, phi, l1, l2, l3) -- planar pose, revolute-joint
  angle and the three prismatic leg lengths;
* ``adapted``: (x, l1, l2, l3, y1, y2, y3) -- the chart in which the
  nilpotent approximation lives.

Expressions are sympy trees restricted to rational constants, the exact
tokens sqrt(3) and pi, coordinate symbols, sums, products, quotients,
integer powers and sin/cos.  Keeping the constants exact makes bracket
tables close by structural equality; floats only appear at evaluation time.

A vector field is a chart tag plus seven component expressions.  Mixing
charts is a hard error everywhere (``ChartMismatch``), never an implicit
conversion.

Evaluation has one path: a field's seven components (or one expression)
compile once, with their coordinate-dependent denominators, into one numpy
function of an ``(n, 7)`` point array, so a sampled certificate makes one
call per field.  Brackets have one normal form, ``sp.cancel``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import sympy as sp

from .charts import ADAPTED, CHART_COORDS, ORIGINAL
from .errors import ChartMismatch, DivisionByZero

#: exact constants used throughout the field library
SQRT3 = sp.sqrt(3)
PI = sp.pi

#: a quotient denominator smaller than this (in absolute value) at an
#: evaluation point raises DivisionByZero
DENOM_EPS = 1e-12

Expr = sp.Expr


def _check_chart(chart: str) -> None:
    if chart not in CHART_COORDS:
        raise ChartMismatch(f"unknown chart {chart!r}; expected one of {sorted(CHART_COORDS)}")


@functools.lru_cache(maxsize=None)
def coords(chart: str) -> tuple[sp.Symbol, ...]:
    """The seven coordinate symbols of a chart, in chart order."""
    _check_chart(chart)
    return sp.symbols(CHART_COORDS[chart], real=True)


@functools.lru_cache(maxsize=8192)
def _compiled(exprs: tuple[Expr, ...], chart: str):
    """One numpy function of an (n, 7) point array for a tuple of expressions.

    It returns (values, ok): values[:, k] is exprs[k] at each point; ok marks
    the points where no coordinate-dependent quotient denominator is below
    DENOM_EPS in magnitude (the other rows are computed without a warning).
    """
    dens = []
    for e in exprs:
        for node in sp.preorder_traversal(e):
            if node.is_Pow and node.exp.is_number and node.exp.is_negative:
                den = node.base ** (-node.exp)
                if den.free_symbols and den not in dens:
                    dens.append(den)
    # the module itself as the namespace: "numpy" would star-import its submodules
    fn = sp.lambdify(coords(chart), (*exprs, *dens), modules=np)

    def run(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(divide="ignore", invalid="ignore"):
            out = fn(*points.T)
        values = np.empty((len(points), len(exprs)))
        for k, v in enumerate(out[:len(exprs)]):
            values[:, k] = v
        ok = np.ones(len(points), dtype=bool)
        for d in out[len(exprs):]:
            ok &= ~(np.abs(d) < DENOM_EPS)
        return values, ok

    return run


def _evaluate_all(exprs: tuple[Expr, ...], point, chart: str) -> np.ndarray:
    """exprs at one point, shape (len(exprs),), or at an (n, 7) array, shape (n, len(exprs))."""
    pts = np.asarray(point, dtype=float)
    if pts.shape[-1:] != (7,) or pts.ndim > 2:
        raise ValueError("points live in R^7")
    rows = pts.reshape(-1, 7)
    values, ok = _compiled(exprs, chart)(rows)
    if not ok.all():
        i = int(np.argmin(ok))
        raise DivisionByZero(f"denominator vanishes at row {i}, "
                             f"{tuple(rows[i].tolist())}, in {exprs}")
    return values.reshape(*pts.shape[:-1], len(exprs))


def evaluate(e: Expr, point, chart: str):
    """An expression at one point (a float) or at an (n, 7) array ((n,) floats).

    Raises DivisionByZero naming the first point with a denominator below DENOM_EPS.
    """
    values = _evaluate_all((sp.sympify(e),), point, chart)[..., 0]
    return float(values) if values.ndim == 0 else values


def differentiate(e: Expr, coord_index: int, chart: str = ORIGINAL) -> Expr:
    """Exact partial derivative with respect to the coord_index-th coordinate."""
    return sp.diff(sp.sympify(e), coords(chart)[coord_index])


def simplify_expr(e: Expr) -> Expr:
    return sp.simplify(sp.sympify(e))


def is_zero_expr(e: Expr) -> bool:
    """Structural zero test: as given, then expanded, then sp.simplify'd."""
    e = sp.sympify(e)
    return bool(e.is_zero or (d := sp.expand(e)).is_zero or sp.simplify(d).is_zero)


@dataclass(frozen=True)
class VectorFieldSym:
    """A symbolic vector field: chart tag plus one component per coordinate."""

    chart: str
    components: tuple[Expr, ...]

    def __post_init__(self):
        _check_chart(self.chart)
        comps = tuple(sp.sympify(c) for c in self.components)
        if len(comps) != 7:
            raise ValueError("a vector field on R^7 needs exactly 7 components")
        allowed = set(coords(self.chart))
        for c in comps:
            stray = c.free_symbols - allowed
            if stray:
                raise ChartMismatch(
                    f"component {c} uses symbols {stray} outside the {self.chart} chart")
        object.__setattr__(self, "components", comps)

    def __call__(self, point) -> np.ndarray:
        """The components at one point, shape (7,), or at an (n, 7) array, shape (n, 7)."""
        return _evaluate_all(self.components, point, self.chart)

    def simplify(self) -> "VectorFieldSym":
        return VectorFieldSym(self.chart, tuple(simplify_expr(c) for c in self.components))

    def is_zero(self) -> bool:
        return all(is_zero_expr(c) for c in self.components)

    # linear-space structure, used freely by tests and the symmetry module
    def __add__(self, other: "VectorFieldSym") -> "VectorFieldSym":
        if self.chart != other.chart:
            raise ChartMismatch("cannot add fields from different charts")
        return VectorFieldSym(
            self.chart,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other: "VectorFieldSym") -> "VectorFieldSym":
        return self + (-other)

    def __neg__(self) -> "VectorFieldSym":
        return VectorFieldSym(self.chart, tuple(-c for c in self.components))

    def __mul__(self, scalar) -> "VectorFieldSym":
        s = sp.sympify(scalar)
        return VectorFieldSym(self.chart, tuple(s * c for c in self.components))

    __rmul__ = __mul__


def zero_field(chart: str) -> VectorFieldSym:
    return VectorFieldSym(chart, (0,) * 7)


def coordinate_field(chart: str, index: int) -> VectorFieldSym:
    comps = [sp.Integer(0)] * 7
    comps[index] = sp.Integer(1)
    return VectorFieldSym(chart, tuple(comps))


def linear_combination(fields_, coeffs) -> VectorFieldSym:
    """coeffs[0] * fields_[0] + coeffs[1] * fields_[1] + ..., summed left to right."""
    out = coeffs[0] * fields_[0]
    for c, f in zip(coeffs[1:], fields_[1:]):
        out = out + c * f
    return out


def lie_bracket(X: VectorFieldSym, Y: VectorFieldSym) -> VectorFieldSym:
    """[X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j), in the one bracket normal form.

    That form is sp.cancel of the sum; full simplify() is opt-in.
    """
    if X.chart != Y.chart:
        raise ChartMismatch(f"bracket of fields in charts {X.chart!r} and {Y.chart!r}")
    cs, x, y = coords(X.chart), X.components, Y.components
    return VectorFieldSym(X.chart, tuple(
        sp.cancel(sum(x[j] * sp.diff(y[i], cs[j]) - y[j] * sp.diff(x[i], cs[j]) for j in range(7)))
        for i in range(7)))


#: default sampling boxes for the numeric equality fallback; legs kept
#: positive in the original chart so no denominator vanishes
_SAMPLE_BOX = {
    ORIGINAL: [(-1.0, 1.0)] * 4 + [(0.5, 2.0)] * 3,
    ADAPTED: [(-1.0, 1.0)] * 7,
}


def random_points(chart: str, n: int, rng=None) -> np.ndarray:
    """n sample points in the chart's standard box (legs positive)."""
    rng = np.random.default_rng(0) if rng is None else rng
    box = np.array(_SAMPLE_BOX[chart])
    return rng.uniform(box[:, 0], box[:, 1], size=(n, 7))


def fields_equal(X: VectorFieldSym, Y: VectorFieldSym, samples: int = 50,
                 tol: float = 1e-9, rng=None) -> bool:
    """Structural equality after simplification, with a random-evaluation
    fallback for components that do not reach a common normal form."""
    if X.chart != Y.chart:
        raise ChartMismatch("cannot compare fields from different charts")
    pending = [d for d in (sp.expand(a - b) for a, b in zip(X.components, Y.components))
               if not is_zero_expr(d)]
    if not pending:
        return True
    pts = random_points(X.chart, samples, rng)
    for d in pending:
        values, ok = _compiled((d,), X.chart)(pts)
        if not ok.any():
            raise DivisionByZero(f"could not sample {d} anywhere in the box")
        if np.any(np.abs(values[ok, 0]) > tol):
            return False
    return True
