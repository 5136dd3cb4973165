"""Exact polynomial vector fields on the adapted chart, over Q(sqrt(3)).

The nilpotent model's fields (the frame and its brackets, the so(3) isotropy,
the transitive algebra w) are polynomials in (x, l1, l2, l3, y1, y2, y3) with
coefficients a + b sqrt(3), a and b rational.  A component maps exponent
tuples, in chart order, to the pair of ``Fraction``s (a, b); a float input is
the exact rational it is.  Sums, products and brackets are exact, so a
certificate is a structural zero test.  The module loads no sympy.

Evaluation is bit for bit the lambdified sympy form's: terms are summed in
sympy's printed order (monomials lex-descending in the coordinates sorted by
name, l1 l2 l3 x y1 y2 y3, then the rational and the sqrt(3) term by
ascending value), each multiplied left to right from float(a), or
float(b) * sqrt(3), through its coordinates in name order.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from .charts import ADAPTED
from .errors import NotASymmetry

_S3 = math.sqrt(3.0)
_ZERO = (Fraction(0), Fraction(0))

#: exponents of the constant monomial, and of x, l1, l2, l3, y1, y2, y3
ONE = (0,) * 7
UNIT = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))

#: the chart indices of l1, l2, l3, x, y1, y2, y3, the coordinates in name order
_NAME_ORDER = (1, 2, 3, 0, 4, 5, 6)


def _mul(c, d):
    """(a + b sqrt3)(a' + b' sqrt3)."""
    return c[0] * d[0] + 3 * c[1] * d[1], c[0] * d[1] + c[1] * d[0]


def _exact(p: dict) -> dict:
    """p with Fraction coefficients and no zero term."""
    return {m: (Fraction(a), Fraction(b)) for m, (a, b) in p.items() if a or b}


def _collect(terms) -> dict:
    """The polynomial sum of (exponents, coefficient) pairs."""
    out = {}
    for m, c in terms:
        out[m] = (out[m][0] + c[0], out[m][1] + c[1]) if m in out else c
    return out


def _along(X: PolyField, Y: PolyField, i: int, sign: int):
    """The terms of sign * sum_j X^j dY^i/dx_j."""
    for n, (a, b) in Y.components[i].items():
        for j, Xj in enumerate(X.components):
            if n[j] and Xj:
                d, dn = (sign * n[j] * a, sign * n[j] * b), n[:j] + (n[j] - 1,) + n[j + 1:]
                yield from ((tuple(map(add, m, dn)), _mul(c, d)) for m, c in Xj.items())


def _eliminate(row: list, pivot: list, col: int) -> list:
    """row - row[col] * pivot, entrywise over Q(sqrt3)."""
    return [(c[0] - d[0], c[1] - d[1]) for c, d in zip(row, (_mul(row[col], p) for p in pivot))]


def _float(c) -> float:
    """a + b sqrt3 as a float, b sqrt3 taken to 2**-200 / den(b) before the one rounding."""
    a, b = c
    root = Fraction(math.isqrt(3 * b.numerator ** 2 << 400), b.denominator << 200)
    return float(a + (root if b > 0 else -root))


@dataclass(frozen=True)
class PolyField:
    """A polynomial vector field: seven maps {exponents: (a, b)}, zero terms dropped."""

    components: tuple[dict, ...]
    chart = ADAPTED

    def __post_init__(self):
        if len(self.components) != 7:
            raise ValueError("a vector field on R^7 needs exactly 7 components")
        object.__setattr__(self, "components", tuple(map(_exact, self.components)))

    def __add__(self, other: PolyField) -> PolyField:
        return PolyField(tuple(_collect([*p.items(), *q.items()])
                               for p, q in zip(self.components, other.components)))

    def __sub__(self, other: PolyField) -> PolyField:
        return self + other * -1

    def __mul__(self, other) -> PolyField:
        """The field times a number or a polynomial {exponents: (a, b)}."""
        p = _exact(other if isinstance(other, dict) else {ONE: (other, 0)})
        return PolyField(tuple(_collect((tuple(map(add, m, n)), _mul(c, d)) for m, c in comp.items()
                                        for n, d in p.items()) for comp in self.components))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.components)

    def coefficients_in(self, basis: list[PolyField]) -> tuple[float, ...]:
        """The constant coefficients c of self = sum_i c_i basis[i], solved exactly.

        One row [f_1 .. f_n | self] per (component, monomial) is reduced over
        Q(sqrt3), free unknowns 0, and the solution is certified by exact
        subtraction.  Raises NotASymmetry (residual: the field) when no
        constant combination of the basis gives the field.
        """
        fs = (*basis, self)
        rows = [[f.components[k].get(m, _ZERO) for f in fs]
                for k in range(7) for m in set().union(*(f.components[k] for f in fs))]
        solved = []  # (unknown, its reduced row)
        for col in range(len(basis)):
            pivot = next((r for r in rows if any(r[col])), None)
            if pivot is not None:
                rows.remove(pivot)
                a, b = pivot[col]
                norm = a * a - 3 * b * b  # the inverse of a + b sqrt3 is (a - b sqrt3) / norm
                pivot = [_mul((a / norm, -b / norm), c) for c in pivot]
                rows = [_eliminate(r, pivot, col) for r in rows]
                solved = [(j, _eliminate(r, pivot, col)) for j, r in solved] + [(col, pivot)]
        coeffs = [_ZERO] * len(basis)
        for j, r in solved:
            coeffs[j] = r[-1]
        rest = self
        for c, f in zip(coeffs, basis):
            rest = rest - f * {ONE: c}
        if not rest.is_zero():
            raise NotASymmetry("field is not a constant combination of the basis", residual=self)
        return tuple(map(_float, coeffs))

    @functools.cached_property
    def _printed(self) -> tuple[list, ...]:
        """Per component, its terms (float coefficient, ((index, power), ...)) in printed order."""
        out = []
        for comp in self.components:
            terms = sorted((tuple(-m[i] for i in _NAME_ORDER), c, m) for m, (a, b) in comp.items()
                           for c, on in ((float(a), a), (float(b) * _S3, b)) if on)
            out.append([(c, [(i, m[i]) for i in _NAME_ORDER if m[i]]) for _, c, m in terms])
        return tuple(out)

    def __call__(self, point) -> np.ndarray:
        """The components at one point, shape (7,), or at an (n, 7) array, shape (n, 7)."""
        pts = np.asarray(point, dtype=float)
        if pts.shape[-1:] != (7,) or pts.ndim > 2:
            raise ValueError("points live in R^7")
        cols = pts.reshape(-1, 7).T
        out = np.zeros((cols.shape[1], 7))
        for k, terms in enumerate(self._printed):
            values = []
            for c, factors in terms:
                for i, power in factors:
                    c = c * (cols[i] ** power if power > 1 else cols[i])
                values.append(c)
            if values:
                out[:, k] = functools.reduce(add, values)
        return out.reshape(pts.shape)


def coordinate_field(index: int) -> PolyField:
    """d/dx_index in chart order."""
    return PolyField(tuple({ONE: (1, 0)} if k == index else {} for k in range(7)))


def combine(*terms) -> dict:
    """The polynomial sum of c p over (number c, polynomial p) pairs."""
    return _collect((m, (Fraction(c) * a, Fraction(c) * b))
                    for c, p in terms for m, (a, b) in _exact(p).items())


def lie_bracket(X: PolyField, Y: PolyField) -> PolyField:
    """[X,Y]^i = sum_j (X^j dY^i/dx_j - Y^j dX^i/dx_j), exactly."""
    return PolyField(tuple(_collect([*_along(X, Y, i, 1), *_along(Y, X, i, -1)]) for i in range(7)))


def triangular_rank(fields) -> int:
    """The rank the fields certifiably have at every point: the longest prefix
    in which field i has no component before index i and a nonzero constant
    one at index i, a triangular matrix with constant diagonal.  Independent
    fields in another order certify less.
    """
    fields = list(fields)[:7]
    return next((i for i, f in enumerate(fields)
                 if any(f.components[:i]) or set(f.components[i]) != {ONE}), len(fields))
