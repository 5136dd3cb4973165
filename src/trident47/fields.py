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
def _compiled(e: Expr, chart: str):
    return sp.lambdify(coords(chart), e, modules="math")


@functools.lru_cache(maxsize=8192)
def _compiled_denominators(e: Expr, chart: str):
    """Compiled denominators of every quotient node that involves coordinates."""
    dens = []
    seen = set()
    for node in sp.preorder_traversal(e):
        if node.is_Pow and node.exp.is_number and node.exp.is_negative:
            den = node.base ** (-node.exp)
            if den.free_symbols and den not in seen:
                seen.add(den)
                dens.append(sp.lambdify(coords(chart), den, modules="math"))
    return tuple(dens)


def evaluate(e: Expr, point, chart: str) -> float:
    """Evaluate an expression at a 7-tuple of floats.

    Raises DivisionByZero if any quotient denominator is below DENOM_EPS
    in magnitude at the point.
    """
    e = sp.sympify(e)
    pt = tuple(float(v) for v in point)
    if len(pt) != 7:
        raise ValueError("points live in R^7")
    for den in _compiled_denominators(e, chart):
        if abs(den(*pt)) < DENOM_EPS:
            raise DivisionByZero(f"denominator vanishes at {pt} in {e}")
    return float(_compiled(e, chart)(*pt))


def differentiate(e: Expr, coord_index: int, chart: str = ORIGINAL) -> Expr:
    """Exact partial derivative with respect to the coord_index-th coordinate."""
    return sp.diff(sp.sympify(e), coords(chart)[coord_index])


def simplify_expr(e: Expr) -> Expr:
    return sp.simplify(sp.sympify(e))


def _tidy(e: Expr) -> Expr:
    # cheap normal form used inside brackets; full simplify() is opt-in
    return sp.cancel(sp.together(sp.expand(e)))


def is_zero_expr(e: Expr) -> bool:
    """Structural zero test: expand/cancel first, sp.simplify as fallback."""
    e = sp.sympify(e)
    if e.is_zero:
        return True
    e2 = sp.expand(e)
    if e2.is_zero:
        return True
    e3 = sp.simplify(e2)
    return bool(e3.is_zero)


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
        return np.array([evaluate(c, point, self.chart) for c in self.components])

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
    """[X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j), components tidied."""
    if X.chart != Y.chart:
        raise ChartMismatch(f"bracket of fields in charts {X.chart!r} and {Y.chart!r}")
    cs = coords(X.chart)
    comps = []
    for i in range(7):
        term = sp.Integer(0)
        for j in range(7):
            term += X.components[j] * sp.diff(Y.components[i], cs[j])
            term -= Y.components[j] * sp.diff(X.components[i], cs[j])
        comps.append(_tidy(term))
    return VectorFieldSym(X.chart, tuple(comps))


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
    pending = []
    for a, b in zip(X.components, Y.components):
        d = sp.expand(a - b)
        if d.is_zero:
            continue
        if is_zero_expr(d):
            continue
        pending.append(d)
    if not pending:
        return True
    pts = random_points(X.chart, samples, rng)
    for d in pending:
        checked = 0
        for p in pts:
            try:
                val = evaluate(d, p, X.chart)
            except DivisionByZero:
                continue
            checked += 1
            if abs(val) > tol:
                return False
        if checked == 0:
            raise DivisionByZero(f"could not sample {d} anywhere in the box")
    return True
