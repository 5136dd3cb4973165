import ast
import math
import pathlib

import numpy as np
import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trident47
from trident47 import nilpotent
from trident47.errors import ChartMismatch
from trident47.fields import (ADAPTED, ORIGINAL, SQRT3, VectorFieldSym,
                              coordinate_field, coords, is_zero_expr, lie_bracket)

from sympy_forms import (DivisionByZero, differentiate, evaluate, field_at, fields_equal,
                         horizontal_frame_slice, random_points, slice_bracket_fields, to_sym,
                         zero_field)


def fd_derivative(e, i, point, chart=ORIGINAL, step=1e-6):
    """Independent central-difference oracle for partial derivatives."""
    lo = list(point)
    hi = list(point)
    lo[i] -= step
    hi[i] += step
    return (evaluate(e, hi, chart) - evaluate(e, lo, chart)) / (2.0 * step)


# ---------------------------------------------------------------------------
# evaluation


def test_constant_field_evaluates_everywhere(rng):
    X = coordinate_field(ORIGINAL, 0)
    for p in random_points(ORIGINAL, 5, rng):
        assert np.array_equal(field_at(X, p), np.eye(7)[0])


def test_n2_is_unit_vector_in_l1_slot():
    n2 = nilpotent.nilpotent_frame()[1]
    at_origin = n2(np.zeros(7))
    assert np.array_equal(at_origin, np.eye(7)[1])


def test_slice_x1_at_q0():
    x1 = horizontal_frame_slice()[0]
    val = field_at(x1, (0.0, 0.0, math.pi / 2, 0.0, 1.0, 1.0, 1.0))
    # hand substitution: l1=l3=1, phi=0 gives L=4, coefficients (1, 0, -1/4, 3/2)
    assert np.allclose(val, [1.0, 0.0, -0.25, 1.5, 0.0, 0.0, 0.0], atol=1e-15)


def test_division_by_zero_is_reported():
    x1 = horizontal_frame_slice()[0]
    with pytest.raises(DivisionByZero):
        field_at(x1, (0.0, 0.0, math.pi / 2, 0.0, 1.0, 0.0, 1.0))  # l2 = 0


# ---------------------------------------------------------------------------
# differentiation


def test_product_rule():
    x = coords(ORIGINAL)[0]
    d = differentiate(x * sp.sin(x), 0)
    assert sp.simplify(d - (sp.sin(x) + x * sp.cos(x))) == 0


def test_constant_derivative_is_zero():
    assert differentiate(sp.Rational(3, 7), 2) == 0


def test_derivative_against_fd_oracle():
    x = coords(ORIGINAL)[0]
    e = SQRT3 / 2 * x**2
    p = (2.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
    sym = evaluate(differentiate(e, 0), p, ORIGINAL)
    assert sym == pytest.approx(2.0 * math.sqrt(3.0), abs=1e-12)
    assert sym == pytest.approx(fd_derivative(e, 0, p), rel=1e-6)


def _library_expressions():
    exprs = []
    for f in horizontal_frame_slice() + slice_bracket_fields():
        exprs.extend(c for c in f.components if not c.is_number)
    return exprs


def test_library_derivatives_match_finite_differences(rng):
    # every nonconstant coefficient function, all nonzero partials, 100 points
    pts = random_points(ORIGINAL, 100, rng)
    for e in _library_expressions():
        for i in range(7):
            d = differentiate(e, i)
            if d == 0:
                continue
            for p in pts:
                sym = evaluate(d, p, ORIGINAL)
                fd = fd_derivative(e, i, p)
                assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym))


# ---------------------------------------------------------------------------
# brackets


def test_bracket_with_self_vanishes():
    x1 = horizontal_frame_slice()[0]
    assert lie_bracket(x1, x1).is_zero()


def test_bracket_antisymmetry_on_library():
    from trident47 import symmetry

    n1, n2, n3, n4 = map(to_sym, nilpotent.nilpotent_frame())
    x1 = horizontal_frame_slice()[0]
    x2 = coordinate_field(ORIGINAL, 4)
    v1, v2, _ = (to_sym(v.field) for v in symmetry.v_fields())
    w1 = to_sym(symmetry.w_fields()["w1"].field)
    for X, Y in ((n1, n2), (n1, n3 + 2 * n4), (x1, x2), (v1, v2), (w1, v1), (v2, n1)):
        s = lie_bracket(X, Y) + lie_bracket(Y, X)
        assert s.is_zero()


def test_bracket_bilinearity_heisenberg_combination():
    n1, n2, n3, n4 = map(to_sym, nilpotent.nilpotent_frame())
    k2, k3, k4 = sp.Rational(3, 2), sp.Rational(-1, 3), sp.Integer(2)
    combo = k2 * n2 + k3 * n3 + k4 * n4
    got = lie_bracket(n1, combo)
    n12, n13, n14 = map(to_sym, nilpotent.extended_frame()[4:])
    want = k2 * n12 + k3 * n13 + k4 * n14
    assert fields_equal(got, want)


def test_bracket_chart_mismatch():
    with pytest.raises(ChartMismatch):
        lie_bracket(coordinate_field(ORIGINAL, 0), coordinate_field(ADAPTED, 0))


def test_jacobi_identity_on_extended_frame():
    frame = [to_sym(f) for f in nilpotent.extended_frame()]
    idx = [0, 1, 2, 3, 4, 5, 6]
    for a in idx:
        for b in idx[a + 1:]:
            for c in idx[b + 1:]:
                X, Y, Z = frame[a], frame[b], frame[c]
                total = (lie_bracket(X, lie_bracket(Y, Z))
                         + lie_bracket(Y, lie_bracket(Z, X))
                         + lie_bracket(Z, lie_bracket(X, Y)))
                assert total.is_zero()


def test_field_chart_validation():
    theta = coords(ORIGINAL)[2]
    with pytest.raises(ChartMismatch):
        VectorFieldSym(ADAPTED, (theta, 0, 0, 0, 0, 0, 0))


# ---------------------------------------------------------------------------
# property-based checks on random expression trees

_orig = coords(ORIGINAL)

_atoms = st.one_of(
    st.integers(-4, 4).map(sp.Integer),
    st.sampled_from([sp.Rational(1, 2), sp.Rational(-2, 3), SQRT3, sp.pi]),
    st.sampled_from(list(_orig)),
)


def _extend(children):
    return st.one_of(
        st.tuples(children, children).map(lambda ab: ab[0] + ab[1]),
        st.tuples(children, children).map(lambda ab: ab[0] * ab[1]),
        children.map(sp.sin),
        children.map(sp.cos),
        st.tuples(children, st.integers(2, 3)).map(lambda ei: ei[0] ** ei[1]),
    )


expressions = st.recursive(_atoms, _extend, max_leaves=6)


def _simplify(e):
    return sp.simplify(sp.sympify(e))


# Idempotent up to value: a second simplify may change the form, never the value, and
# the value is all fields.is_zero_expr relies on.  On the pinned example sympy 1.14 gives
# sqrt(2)*(1 + sqrt(3))*sin(1/2 + pi/4), then (sqrt(2) + sqrt(6))*sin(1/2 + pi/4).
@settings(max_examples=60, deadline=None)
@given(expressions)
@example((1 + SQRT3) * (sp.sin(sp.Rational(1, 2)) + sp.cos(sp.Rational(1, 2))))
def test_simplify_is_idempotent(e):
    once = _simplify(e)
    assert is_zero_expr(_simplify(once) - once)


@settings(max_examples=60, deadline=None)
@given(expressions, st.integers(0, 6))
def test_random_tree_derivative_matches_fd(e, i):
    e = sp.expand(e)
    d = differentiate(e, i)
    p = (0.3, -0.7, 0.9, -0.2, 1.1, 0.8, 1.4)
    sym = evaluate(d, p, ORIGINAL)
    fd = fd_derivative(e, i, p)
    scale = max(1.0, abs(sym), abs(evaluate(e, p, ORIGINAL)))
    assert abs(sym - fd) <= 2e-5 * scale


@settings(max_examples=40, deadline=None)
@given(expressions)
def test_evaluation_commutes_with_simplification(e):
    p = (0.4, 0.1, -0.6, 0.2, 0.9, 1.2, 0.7)
    a = evaluate(e, p, ORIGINAL)
    b = evaluate(_simplify(e), p, ORIGINAL)
    assert a == pytest.approx(b, rel=1e-9, abs=1e-9)


def test_zero_field_and_equality_fallback(rng):
    z = zero_field(ORIGINAL)
    assert z.is_zero()
    # sin^2 + cos^2 - 1 hides a zero that expansion alone misses
    th = coords(ORIGINAL)[2]
    tricky = VectorFieldSym(ORIGINAL, (sp.sin(th) ** 2 + sp.cos(th) ** 2 - 1, 0, 0, 0, 0, 0, 0))
    assert fields_equal(tricky, z, rng=rng)


# ---------------------------------------------------------------------------
# the package boundary


def _imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_only_fields_imports_sympy():
    # module-level and function-local imports alike: the program runs on numpy alone
    importers = set()
    for path in pathlib.Path(trident47.__file__).parent.glob("*.py"):
        names = _imported_modules(ast.parse(path.read_text(), filename=str(path)))
        if any(n.split(".")[0] == "sympy" for n in names):
            importers.add(path.name)
    assert importers == {"fields.py"}


def _public_definitions(path):
    """The module-level public ``def`` and ``class`` names of a source file."""
    return [node.name for node in ast.parse(path.read_text(), filename=str(path)).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _referenced_names(path):
    """Every name a file reads as a Name, an Attribute or an import; strings do not count."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from (a.name.rpartition(".")[2] for a in node.names)


def test_every_public_name_has_a_program_caller():
    # a public def or class of the package that only the tests reach belongs in the tests;
    # the program is src/, the scripts, the benchmark and the acceptance gate
    repo = pathlib.Path(__file__).resolve().parents[1]
    program = [*(repo / "src").rglob("*.py"), *(repo / "scripts").glob("*.py"),
               *(repo / "perfbench").glob("*.py"), repo / "tests" / "test_acceptance.py"]
    referenced = set().union(*map(_referenced_names, program))
    unreferenced = [f"{path.stem}.{name}"
                    for path in sorted((repo / "src" / "trident47").glob("*.py"))
                    for name in _public_definitions(path) if name not in referenced]
    assert unreferenced == []
