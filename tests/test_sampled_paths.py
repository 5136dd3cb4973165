"""The array evaluation path against per-point references.

Every sampled certificate evaluates a whole point array in one compiled call
per field.  The references below are the per-point paths they replace: one
math-module function per expression and one separately compiled check per
quotient denominator, a Python loop over points, the left translation as a
7x7 matrix, and the expand/together/cancel bracket normal form.
"""
import functools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
import sympy as sp

from trident47 import fields, mechanism, nilpotent, polyfield, symmetry
from trident47.charts import ADAPTED, ORIGINAL
from trident47.fields import VectorFieldSym, coords

import sympy_forms
from sympy_forms import (DENOM_EPS, DivisionByZero, field_at, horizontal_frame_slice,
                         nilpotent_frame_matrix, random_points, slice_bracket_fields, to_sym)


@functools.lru_cache(maxsize=None)
def _reference_compiled(e, chart):
    dens = []
    for node in sp.preorder_traversal(e):
        if node.is_Pow and node.exp.is_number and node.exp.is_negative:
            den = node.base ** (-node.exp)
            if den.free_symbols and den not in dens:
                dens.append(den)
    return (sp.lambdify(coords(chart), e, modules="math"),
            tuple(sp.lambdify(coords(chart), d, modules="math") for d in dens))


def _reference_evaluate(e, point, chart):
    fn, dens = _reference_compiled(sp.sympify(e), chart)
    pt = tuple(float(v) for v in point)
    for den in dens:
        if abs(den(*pt)) < DENOM_EPS:
            raise DivisionByZero(f"denominator vanishes at {pt} in {e}")
    return float(fn(*pt))


def _reference_call(X, point):
    X = X if isinstance(X, VectorFieldSym) else to_sym(X)
    return np.array([_reference_evaluate(c, point, X.chart) for c in X.components])


def _reference_left_translation_jacobian(g):
    J = np.eye(7)
    J[4, 0] = math.sqrt(3.0) / 2.0 * g.x - g.l1
    J[5, 0] = -g.l2
    J[6, 0] = -math.sqrt(3.0) / 2.0 * g.x - g.l3
    return J


def _reference_left_invariance_residual(X, samples, seed, box=2.0):
    # the stream of random.Random(seed): g then p per sample, each coordinate -box + 2 box u
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(samples):
        g, p = (nilpotent.AdaptedPoint(*(-box + 2.0 * box * rng.random() for _ in range(7)))
                for _ in range(2))
        lhs = _reference_left_translation_jacobian(g) @ _reference_call(X, p.array)
        rhs = _reference_call(X, nilpotent.group_mul(g, p).array)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def _reference_rank(m, tol):
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol * s[0]))


def _reference_frame_matrix(arr):
    x, l1, l2, l3 = (float(v) for v in arr[:4])
    F = np.zeros((4, 7))
    F[0, 0] = 1.0
    F[0, 4], F[0, 5], F[0, 6] = nilpotent.n1_vertical(x, l1, l2, l3)
    F[1, 1] = F[2, 2] = F[3, 3] = 1.0
    return F


def _reference_ranks(fs, samples, seed):
    """The set of numeric ranks of the values of the fields fs at seeded points."""
    points = random_points(ADAPTED, samples, np.random.default_rng(seed)) * 2.0
    return {_reference_rank(np.stack([_reference_call(f, p) for f in fs]), mechanism.RANK_TOL)
            for p in points}


def _reference_fallback(d, points, chart, tol):
    """The per-point loop of fields_equal for one pending difference d."""
    checked = 0
    for p in points:
        try:
            val = _reference_evaluate(d, p, chart)
        except DivisionByZero:
            continue
        checked += 1
        if abs(val) > tol:
            return False
    if checked == 0:
        raise DivisionByZero(f"could not sample {d} anywhere in the box")
    return True


def _reference_bracket(X, Y):
    cs = coords(X.chart)
    comps = []
    for i in range(7):
        term = sp.Integer(0)
        for j in range(7):
            term += X.components[j] * sp.diff(Y.components[i], cs[j])
            term -= Y.components[j] * sp.diff(X.components[i], cs[j])
        comps.append(sp.cancel(sp.together(sp.expand(term))))
    return VectorFieldSym(X.chart, tuple(comps))


class _FixedPoints:
    """An rng stand-in whose uniform draw is a given point array."""

    def __init__(self, points):
        self.points = np.asarray(points, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.points.shape
        return self.points


def _adapted_fields():
    w = [s.field for s in symmetry.w_fields().values()]
    return list(nilpotent.extended_frame()) + w


def _slice_points(n, rng):
    pts = random_points(ORIGINAL, n, rng)
    pts[:, 3] = rng.uniform(-math.pi, math.pi, n)  # phi over a whole turn
    return pts


# ---------------------------------------------------------------------------
# evaluation


def test_field_arrays_are_the_per_point_reference_on_n_and_w_fields(rng):
    pts = random_points(ADAPTED, 300, rng) * 2.0
    for X in _adapted_fields():
        want = np.array([_reference_call(X, p) for p in pts])
        assert np.array_equal(X(pts), want)
        assert np.array_equal(X(pts[0]), want[0])
        for k, c in enumerate(to_sym(X).components):
            assert np.array_equal(sympy_forms.evaluate(c, pts, ADAPTED), want[:, k])
            assert sympy_forms.evaluate(c, pts[1], ADAPTED) == want[1, k]


def test_evaluate_returns_a_float_for_one_point():
    x = coords(ADAPTED)[0]
    val = sympy_forms.evaluate(x / 2, (0.5, 0, 0, 0, 0, 0, 0), ADAPTED)
    assert type(val) is float and val == 0.25


def _within_two_ulp_of_scale(got, want):
    scale = np.maximum(1.0, np.abs(want))
    return bool(np.all(np.abs(got - want) <= 2.0 * np.spacing(scale)))


def test_v_fields_and_trig_expressions_agree_within_two_ulp(rng):
    pts = random_points(ADAPTED, 300, rng) * 2.0
    vs = [v.field for v in symmetry.v_fields()] + [symmetry.so3_combination(0.3, -0.9, 1.7).field]
    for X in vs:
        assert _within_two_ulp_of_scale(X(pts), np.array([_reference_call(X, p) for p in pts]))
    spts = _slice_points(300, rng)
    for X in horizontal_frame_slice() + slice_bracket_fields():
        assert _within_two_ulp_of_scale(field_at(X, spts),
                                        np.array([_reference_call(X, p) for p in spts]))
    x, y, th, ph, l1, l2, l3 = coords(ORIGINAL)
    for e in (sp.sin(th) ** 2 * x + sp.cos(ph) / l2, sp.cos(x * y) ** 3 - sp.sin(l1 + l3),
              sp.sin(th) * sp.cos(th) / (l1 + l3 + 2)):
        want = np.array([_reference_evaluate(e, p, ORIGINAL) for p in spts])
        assert _within_two_ulp_of_scale(sympy_forms.evaluate(e, spts, ORIGINAL), want)


def test_a_singular_row_raises_division_by_zero_naming_it(rng):
    pts = _slice_points(6, rng)
    pts[3, 5] = 0.0  # l2 = 0
    for X in horizontal_frame_slice()[:1] + slice_bracket_fields():
        with pytest.raises(DivisionByZero, match=re.escape(f"row 3, ({float(pts[3, 0])!r}, ")):
            field_at(X, pts)
    assert np.array_equal(field_at(horizontal_frame_slice()[1], pts), np.tile(np.eye(7)[4], (6, 1)))
    with pytest.raises(DivisionByZero, match="row 0"):
        sympy_forms.evaluate(1 / coords(ORIGINAL)[5], pts[3], ORIGINAL)


def test_points_must_be_seven_wide():
    x1 = horizontal_frame_slice()[0]
    for bad in (np.ones(6), np.ones((3, 8)), np.ones((2, 3, 7))):
        with pytest.raises(ValueError, match="R\\^7"):
            field_at(x1, bad)


# ---------------------------------------------------------------------------
# the fields_equal fallback


def test_fields_equal_fallback_skips_singular_rows(rng):
    l2 = coords(ORIGINAL)[5]
    pts = _slice_points(8, rng)
    pts[[2, 5], 5] = 0.0
    tiny = sp.Rational(1, 10**12) / l2
    X = VectorFieldSym(ORIGINAL, (1 / l2, 0, 0, 0, 0, 0, 0))
    close = VectorFieldSym(ORIGINAL, (1 / l2 + tiny, 0, 0, 0, 0, 0, 0))
    far = VectorFieldSym(ORIGINAL, (1 / l2 + 10**9 * tiny, 0, 0, 0, 0, 0, 0))
    for Y, want in ((close, True), (far, False)):
        assert _reference_fallback(Y.components[0] - X.components[0], pts, ORIGINAL, 1e-9) == want
        assert sympy_forms.fields_equal(X, Y, samples=8, rng=_FixedPoints(pts)) == want


def test_fields_equal_fallback_raises_without_a_regular_row():
    l2 = coords(ORIGINAL)[5]
    pts = np.tile((0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 1.0), (4, 1))
    X = VectorFieldSym(ORIGINAL, (1 / l2, 0, 0, 0, 0, 0, 0))
    Y = VectorFieldSym(ORIGINAL, (2 / l2, 0, 0, 0, 0, 0, 0))
    with pytest.raises(DivisionByZero, match="could not sample"):
        _reference_fallback(Y.components[0] - X.components[0], pts, ORIGINAL, 1e-9)
    with pytest.raises(DivisionByZero, match="could not sample"):
        sympy_forms.fields_equal(X, Y, samples=4, rng=_FixedPoints(pts))


def test_fields_equal_fallback_is_the_reference_on_random_differences(rng):
    th = coords(ORIGINAL)[2]
    hidden_zero = sp.sin(th) ** 2 + sp.cos(th) ** 2 - 1
    pts = random_points(ORIGINAL, 50, np.random.default_rng(5))
    for e in (hidden_zero, hidden_zero + sp.Rational(1, 10**6),
              *slice_bracket_fields()[0].components[1:4]):
        X = VectorFieldSym(ORIGINAL, (e, 0, 0, 0, 0, 0, 0))
        got = sympy_forms.fields_equal(X, sympy_forms.zero_field(ORIGINAL), rng=np.random.default_rng(5))
        assert got == _reference_fallback(sp.expand(e), pts, ORIGINAL, 1e-9)


# ---------------------------------------------------------------------------
# brackets


def _src_bracket_pairs():
    slice_frame = horizontal_frame_slice()
    ext = [to_sym(f) for f in nilpotent.extended_frame()]
    vs = [to_sym(v.field) for v in symmetry.v_fields()]
    ws = [to_sym(w.field) for w in symmetry.w_fields().values()]
    return ([(a, b) for a in slice_frame for b in slice_frame]
            + [(a, b) for a in ext for b in ext]
            + [(a, b) for a in vs for b in vs + ext[:4]]
            + [(a, b) for a in ws for b in ws])


def test_every_src_bracket_is_the_reference_normal_form():
    pairs = _src_bracket_pairs()
    assert len(pairs) == 135
    for X, Y in pairs:
        assert fields.lie_bracket(X, Y) == _reference_bracket(X, Y)


def _per_call_diff_bracket(X, Y):
    # the bracket that differentiates both fields on every call
    cs, x, y = coords(X.chart), X.components, Y.components
    return VectorFieldSym(X.chart, tuple(
        sp.cancel(sum(x[j] * sp.diff(y[i], cs[j]) - y[j] * sp.diff(x[i], cs[j]) for j in range(7)))
        for i in range(7)))


def test_brackets_differentiate_each_field_once_and_are_the_per_call_diff_bracket():
    pairs = _src_bracket_pairs()
    fields._jacobian.cache_clear()
    for X, Y in pairs:
        assert fields.lie_bracket(X, Y) == _per_call_diff_bracket(X, Y)
    distinct = {f for pair in pairs for f in pair}
    assert fields._jacobian.cache_info().misses == len(distinct)


# ---------------------------------------------------------------------------
# sampled certificates


@pytest.mark.parametrize("samples, seed", [(200, 0), (1000, 17), (10, 3)])
def test_left_invariance_residual_is_the_per_point_reference(samples, seed):
    for X in nilpotent.extended_frame():
        rep = nilpotent.check_left_invariance(X, samples=samples, seed=seed)
        assert rep.max_residual == _reference_left_invariance_residual(X, samples, seed)


def test_left_invariance_residual_is_the_reference_off_the_frame():
    X = polyfield.coordinate_field(0) + symmetry.w_fields()["w1"].field
    rep = nilpotent.check_left_invariance(X, samples=30, seed=2)
    assert not rep.field_ok
    assert rep.max_residual == _reference_left_invariance_residual(X, 30, 2)


def test_left_invariance_refuses_samples_above_the_cap_before_drawing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"at most {mechanism.MAX_SAMPLES}"):
            nilpotent.check_left_invariance(nilpotent.nilpotent_frame()[0],
                                            samples=mechanism.MAX_SAMPLES + 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # a (cap + 1, 2, 7) draw alone would be 11 MB


@pytest.mark.parametrize("samples, seed", [(20, 0), (30, 0), (50, 4)])
def test_transitivity_rank_is_the_per_point_reference(samples, seed):
    # the certificate draws no point; the numeric rank at every seeded point is its answer
    ws = [w.field for w in symmetry.w_fields().values()]
    assert _reference_ranks(ws, samples, seed) == {symmetry.transitivity_rank()} == {7}


def test_path_geometry_ranks_are_the_per_point_reference():
    for frame, rank in ((nilpotent.nilpotent_frame(), 4), (nilpotent.extended_frame(), 7)):
        assert _reference_ranks(frame, 30, 1) == {polyfield.triangular_rank(frame)} == {rank}


def test_rank_of_a_stack_is_the_rank_of_each_matrix(rng):
    mats = rng.normal(size=(40, 4, 7))
    mats[::3, 2] = mats[::3, 0] + mats[::3, 1]  # rank 3
    mats[5] = 0.0
    mats[7, 1:] = 1e-12 * mats[7, 1:]  # rank 1 at the default cutoff
    got = mechanism._rank(mats, mechanism.RANK_TOL)
    assert got.tolist() == [_reference_rank(m, mechanism.RANK_TOL) for m in mats]
    assert {int(r) for r in got} == {0, 1, 3, 4}
    for m in mats[:8]:
        r = mechanism._rank(m, mechanism.RANK_TOL)
        assert type(r) is int and r == _reference_rank(m, mechanism.RANK_TOL)


def test_frame_matrix_stack_is_the_per_point_frame(rng):
    pts = random_points(ADAPTED, 25, rng) * 2.0
    stack = nilpotent_frame_matrix(pts)
    assert stack.shape == (25, 4, 7)
    for p, F in zip(pts, stack):
        assert np.array_equal(F, nilpotent_frame_matrix(p))
        assert np.array_equal(F, _reference_frame_matrix(p))

