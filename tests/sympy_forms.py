"""Sympy forms of exact polynomial fields, for the tests' oracles.

``to_sym`` writes a ``polyfield.PolyField`` as a ``fields.VectorFieldSym``
(each coefficient a + b sqrt(3) as the two terms a m + b sqrt(3) m of its
monomial m), so the sympy engine can check the exact one; ``from_sym``
reads a polynomial sympy field back, so a test can write its inputs in
sympy notation.
"""
from fractions import Fraction

import sympy as sp

from trident47.fields import ADAPTED, SQRT3, VectorFieldSym, coords
from trident47.polyfield import PolyField


def to_sym(X: PolyField) -> VectorFieldSym:
    cs = coords(ADAPTED)
    comps = []
    for comp in X.components:
        terms = []
        for m, (a, b) in comp.items():
            mono = sp.Mul(*(c**e for c, e in zip(cs, m)))
            terms += [sp.Rational(a.numerator, a.denominator) * mono,
                      sp.Rational(b.numerator, b.denominator) * SQRT3 * mono]
        comps.append(sp.Add(*terms))
    return VectorFieldSym(ADAPTED, tuple(comps))


def from_sym(V: VectorFieldSym) -> PolyField:
    assert V.chart == ADAPTED
    comps = []
    for e in V.components:
        comp = {}
        for (*m, s), c in sp.Poly(e, *coords(ADAPTED), SQRT3).terms():
            a, b = comp.get(tuple(m), (0, 0))
            c = Fraction(int(c.p), int(c.q)) * 3 ** (s // 2)  # sqrt(3)^s
            comp[tuple(m)] = (a, b + c) if s % 2 else (a + c, b)
        comps.append(comp)
    return PolyField(tuple(comps))
