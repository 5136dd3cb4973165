"""Exact polynomial vector fields on the adapted chart, over Q(sqrt(3)).

The nilpotent model's fields (the frame and its brackets, the so(3) isotropy,
the transitive algebra w) are polynomials in (x, l1, l2, l3, y1, y2, y3) with
coefficients a + b sqrt(3), a and b rational.  A component maps exponent
tuples, in chart order, to the pair of ``Fraction``s (a, b); a float input is
the exact rational it is.  Sums, products and brackets are exact, so a
certificate is a structural zero test: coefficients in a basis are read off
the term each basis field alone has, then certified by exact subtraction.

Evaluation is bit for bit the lambdified sympy form's: terms are summed in
sympy's printed order (monomials lex-descending in the coordinates sorted by
name, l1 l2 l3 x y1 y2 y3, then the rational and the sqrt(3) term by
ascending value), each multiplied left to right from float(a), or
float(b) * sqrt(3), through its coordinates in name order.  No sympy is loaded.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

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


def _float(c) -> float:
    """a + b sqrt3 as a float, b sqrt3 taken to 2**-200 / den(b) before the one rounding."""
    a, b = c
    root = Fraction(math.isqrt(3 * b.numerator ** 2 << 400), b.denominator << 200)
    return float(a + (root if b > 0 else -root))


@dataclass(frozen=True)
class PolyField:
    """A polynomial vector field: seven maps {exponents: (a, b)}, zero terms dropped."""

    components: tuple[dict, ...]

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

        c_i = self[t_i] / basis[i][t_i] over Q(sqrt3) at the (component, monomial)
        term t_i that basis[i] alone has, certified by exact subtraction.  Raises
        ValueError for a basis field that owns no term, and NotASymmetry
        (residual: the field) when no constant combination gives the field.
        """
        coeffs = []
        for i, f in enumerate(basis):
            others = [g for j, g in enumerate(basis) if j != i]
            k, m = next(((k, m) for k, comp in enumerate(f.components) for m in comp
                         if all(m not in g.components[k] for g in others)), (None, None))
            if k is None:
                raise ValueError(f"basis field {i} owns no term that no other basis field has")
            a, b = f.components[k][m]
            norm = a * a - 3 * b * b  # the inverse of a + b sqrt3 is (a - b sqrt3) / norm
            coeffs.append(_mul((a / norm, -b / norm), self.components[k].get(m, _ZERO)))
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
