"""Exact symbolic expressions and vector fields on R^7, in sympy.

The acceptance gate's symbolic algebra: its bracket tables, and the tests'
oracles built on them, are written in it.  No program path imports this
module, so it alone needs sympy, which the ``test`` extra installs
(``pip install -e .[test]``).  Expressions are sympy trees with rational
constants, the exact tokens sqrt(3) and pi, coordinate symbols, sums,
products, quotients, integer powers and sin/cos, so bracket tables close by
structural equality.  A vector field is a chart tag, ``original`` (x, y,
theta, phi, l1, l2, l3) or ``adapted`` (x, l1, l2, l3, y1, y2, y3), plus
seven components; mixing charts raises ``ChartMismatch``.  Brackets have one
normal form, ``sp.cancel``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import sympy as sp

from .charts import ADAPTED, CHART_COORDS, ORIGINAL  # noqa: F401 (the tags a field carries)
from .errors import ChartMismatch

#: exact sqrt(3), used throughout the field library
SQRT3 = sp.sqrt(3)

Expr = sp.Expr


def _check_chart(chart: str) -> None:
    if chart not in CHART_COORDS:
        raise ChartMismatch(f"unknown chart {chart!r}; expected one of {sorted(CHART_COORDS)}")


@functools.lru_cache(maxsize=None)
def coords(chart: str) -> tuple[sp.Symbol, ...]:
    """The seven coordinate symbols of a chart, in chart order."""
    _check_chart(chart)
    return sp.symbols(CHART_COORDS[chart], real=True)


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

    def is_zero(self) -> bool:
        return all(is_zero_expr(c) for c in self.components)

    # linear-space structure, for the bracket tables' field arithmetic
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


def coordinate_field(chart: str, index: int) -> VectorFieldSym:
    comps = [sp.Integer(0)] * 7
    comps[index] = sp.Integer(1)
    return VectorFieldSym(chart, tuple(comps))


@functools.lru_cache(maxsize=1024)
def _jacobian(X: VectorFieldSym) -> tuple[tuple[Expr, ...], ...]:
    """dX^i/dx_j as [i][j]: each field is differentiated once, however many brackets take it."""
    cs = coords(X.chart)
    return tuple(tuple(sp.diff(c, x) for x in cs) for c in X.components)


def lie_bracket(X: VectorFieldSym, Y: VectorFieldSym) -> VectorFieldSym:
    """[X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j), in the one bracket normal form.

    That form is sp.cancel of the sum.
    """
    if X.chart != Y.chart:
        raise ChartMismatch(f"bracket of fields in charts {X.chart!r} and {Y.chart!r}")
    x, y, dx, dy = X.components, Y.components, _jacobian(X), _jacobian(Y)
    return VectorFieldSym(X.chart, tuple(
        sp.cancel(sum(x[j] * dy[i][j] - y[j] * dx[i][j] for j in range(7))) for i in range(7)))
