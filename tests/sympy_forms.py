"""The tests' sympy engine: evaluation, the printed slice frame, and polynomial forms.

``fields`` is the acceptance gate's symbolic algebra; this module adds what
only the tests' oracles need on top of it.

* Evaluation.  A tuple of expressions compiles once, with its
  coordinate-dependent quotient denominators, into one numpy function of an
  ``(n, 7)`` point array (``evaluate``, ``field_at``); a denominator below
  ``DENOM_EPS`` raises ``DivisionByZero`` naming the first such point.
  ``fields_equal`` compares fields structurally and falls back to sampling.
* The original chart's slice frame as the paper prints it
  (``horizontal_frame_slice``, ``slice_bracket_fields``): the symbolic
  oracle for ``mechanism.closed_form_gbar``.
* Sampling (``random_points``) and the numeric frame N1..N4
  (``nilpotent_frame_matrix``), for the tests' sampled oracles: the
  program's structural certificates are exact and draw no points.
* ``to_sym`` writes a ``polyfield.PolyField`` as a ``fields.VectorFieldSym``
  (each coefficient a + b sqrt(3) as the two terms a m + b sqrt(3) m of its
  monomial m), so the sympy engine can check the exact one; ``from_sym``
  reads a polynomial sympy field back, so a test can write its inputs in
  sympy notation.
"""
import functools
from fractions import Fraction

import numpy as np
import sympy as sp

from trident47.charts import ADAPTED, ORIGINAL
from trident47.errors import ChartMismatch, TridentError
from trident47.fields import (SQRT3, Expr, VectorFieldSym, coordinate_field, coords,
                              is_zero_expr, lie_bracket)
from trident47.nilpotent import n1_vertical
from trident47.polyfield import PolyField

#: a quotient denominator smaller than this (in absolute value) at an
#: evaluation point raises DivisionByZero
DENOM_EPS = 1e-12


#: sampling boxes of the sampled oracles; legs kept positive in the original
#: chart so no denominator vanishes
_SAMPLE_BOX = {
    ORIGINAL: [(-1.0, 1.0)] * 4 + [(0.5, 2.0)] * 3,
    ADAPTED: [(-1.0, 1.0)] * 7,
}


class DivisionByZero(TridentError):
    """A quotient denominator is (numerically) zero at the evaluation point."""


def random_points(chart: str, n: int, rng=None) -> np.ndarray:
    """n sample points in the chart's standard box (legs positive)."""
    rng = np.random.default_rng(0) if rng is None else rng
    box = np.array(_SAMPLE_BOX[chart])
    return rng.uniform(box[:, 0], box[:, 1], size=(n, 7))


def nilpotent_frame_matrix(arr) -> np.ndarray:
    """Numeric frame: rows N1..N4 at adapted coordinates arr, (4, 7), or (n, 4, 7) for (n, 7)."""
    arr = np.asarray(arr, dtype=float)
    F = np.zeros((*arr.shape[:-1], 4, 7))
    F[..., 0, 0] = F[..., 1, 1] = F[..., 2, 2] = F[..., 3, 3] = 1.0
    F[..., 0, 4:] = np.stack(n1_vertical(*np.moveaxis(arr[..., :4], -1, 0)), axis=-1)
    return F


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


def field_at(X: VectorFieldSym, point) -> np.ndarray:
    """The components at one point, shape (7,), or at an (n, 7) array, shape (n, 7)."""
    return _evaluate_all(X.components, point, X.chart)


def differentiate(e: Expr, coord_index: int, chart: str = ORIGINAL) -> Expr:
    """Exact partial derivative with respect to the coord_index-th coordinate."""
    return sp.diff(sp.sympify(e), coords(chart)[coord_index])


def zero_field(chart: str) -> VectorFieldSym:
    return VectorFieldSym(chart, (0,) * 7)


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


@functools.lru_cache(maxsize=1)
def horizontal_frame_slice() -> tuple[VectorFieldSym, ...]:
    """Closed-form frame on the slice x = y = 0, theta = pi/2, as symbolic fields.

    Valid for arbitrary (phi, l1, l2, l3); the coefficients depend on the
    shape variables only, so brackets against the leg fields taken from
    these expressions agree with the true brackets on the slice.  This is
    the printed formula, the symbolic oracle for ``closed_form_gbar``.
    """
    x, y, th, ph, l1, l2, l3 = coords(ORIGINAL)
    L = l1 + l3 + 2
    x1 = VectorFieldSym(ORIGINAL, (
        sp.Integer(1),
        (l1 - l3) * SQRT3 / (3 * L),
        -1 / L,
        (sp.sin(ph) * SQRT3 * (l1 - l3) + 3 * sp.cos(ph) * (L + 1) + 3 * l2) / (3 * l2 * L),
        0, 0, 0,
    ))
    return (x1,
            coordinate_field(ORIGINAL, 4),
            coordinate_field(ORIGINAL, 5),
            coordinate_field(ORIGINAL, 6))


@functools.lru_cache(maxsize=1)
def slice_bracket_fields() -> tuple[VectorFieldSym, ...]:
    """Exact X12 = [X1,X2], X13 = [X1,X3], X14 = [X1,X4] on the slice."""
    x1, x2, x3, x4 = horizontal_frame_slice()
    return (lie_bracket(x1, x2), lie_bracket(x1, x3), lie_bracket(x1, x4))


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
