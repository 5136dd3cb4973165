"""Exact polynomial fields against the sympy engine.

The sympy forms (``sympy_forms.to_sym``) are the oracle: every bracket the
certificates form must expand to the ``fields.lie_bracket`` of the sympy
forms, and every evaluation must be byte for byte the lambdified sympy
field's.
"""
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

import trident47
from trident47 import fields, nilpotent, polyfield, symmetry
from trident47.cli import main
from trident47.errors import NotASymmetry
from trident47.polyfield import ONE, UNIT, PolyField, coordinate_field, lie_bracket

from sympy_forms import field_at, from_sym, to_sym

GENERIC_AXIS = (0.3184848170829566, -0.9045200484068716, 1.7034773792668148)

#: every monomial of degree at most 2, as exponents
_MONOMIALS = [ONE, *UNIT, *(tuple(map(sum, zip(UNIT[i], UNIT[j]))) for i in range(7)
                            for j in range(i, 7))]


def _random_coefficient(rng):
    kind = rng.integers(4)
    if kind == 0:
        return 0
    if kind == 1:
        return int(rng.integers(-5, 6))
    if kind == 2:
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 8)))
    return float(rng.uniform(-3.0, 3.0))


def _random_field(rng, terms=6):
    """Up to ``terms`` terms per component, each a + b sqrt(3) on a monomial of degree <= 2."""
    return PolyField(tuple(
        {_MONOMIALS[k]: (_random_coefficient(rng), _random_coefficient(rng))
         for k in rng.integers(len(_MONOMIALS), size=rng.integers(terms + 1))}
        for _ in range(7)))


def _sympy_bracket_agrees(X, Y):
    got = to_sym(lie_bracket(X, Y))
    want = fields.lie_bracket(to_sym(X), to_sym(Y))
    return all(sp.expand(a - b) == 0 for a, b in zip(got.components, want.components))


def _perturbed_v1_residual():
    v = symmetry.SymmetryField("v1(perturbed)",
                               symmetry.v_fields()[0].field + 0.01 * coordinate_field(2))
    with pytest.raises(NotASymmetry, match=r"^\[v1\(perturbed\), N1\] != 0$") as err:
        symmetry.check_symmetry_conditions(v)
    return err.value.residual


# ---------------------------------------------------------------------------
# brackets


def test_the_certificates_brackets_are_the_sympy_brackets(tmp_path, monkeypatch):
    formed = []

    def recording(X, Y):
        formed.append((X, Y))
        return lie_bracket(X, Y)

    monkeypatch.setattr(polyfield, "lie_bracket", recording)
    nilpotent.extended_frame.cache_clear()
    try:
        assert main(["symmetry-check", "--samples", "5", "--out", str(tmp_path / "s.json")]) == 0
        assert main(["symmetry-check", "--samples", "5", "--perturb", "0.01",
                     "--out", str(tmp_path / "p.json")]) == 1
        nilpotent.check_path_geometry_conditions()
    finally:
        nilpotent.extended_frame.cache_clear()
    # N1 x N_k; so(3) table; [v, N_j] for v1..v3; [w1, w_j]; the 18 other w pairs;
    # the perturbed v1's [v, N1]; path geometry's 3 pairs of N2..N4
    assert len(formed) >= 3 + 3 + 12 + 3 + 18 + 1 + 3
    for X, Y in formed:
        assert _sympy_bracket_agrees(X, Y)


def test_family_brackets_are_the_sympy_brackets():
    frame = nilpotent.nilpotent_frame()
    vs = [v.field for v in symmetry.v_fields()]
    ws = [w.field for w in symmetry.w_fields().values()]
    pairs = ([(a, b) for a in vs for b in vs + list(frame)]
             + [(a, b) for a in ws for b in ws]
             + [(frame[0], n) for n in frame[1:]])
    for X, Y in pairs:
        assert _sympy_bracket_agrees(X, Y)


def test_seeded_axis_brackets_are_the_sympy_brackets():
    rng = np.random.default_rng(41)
    frame = nilpotent.nilpotent_frame()
    for axis in rng.uniform(-2.0, 2.0, (50, 3)):
        v = symmetry.so3_combination(*axis).field
        for n in frame:
            assert _sympy_bracket_agrees(v, n)


def test_random_field_brackets_are_the_sympy_brackets():
    rng = np.random.default_rng(43)
    for _ in range(10):
        assert _sympy_bracket_agrees(_random_field(rng, 3), _random_field(rng, 3))


# ---------------------------------------------------------------------------
# evaluation


def _points(rng):
    pts = rng.uniform(-2.0, 2.0, (200, 7))
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2] *= 1e150
    pts[3] *= 1e-150
    return pts


def _evaluation_fields():
    return [*nilpotent.extended_frame(), *(v.field for v in symmetry.v_fields()),
            symmetry.so3_combination(1.0, 1.0, 1.0).field,
            symmetry.so3_combination(*GENERIC_AXIS).field,
            *(w.field for w in symmetry.w_fields().values()), _perturbed_v1_residual()]


def test_evaluation_is_the_lambdified_sympy_field_byte_for_byte():
    pts = _points(np.random.default_rng(47))
    fs = _evaluation_fields()
    assert len(fs) == 7 + 3 + 2 + 7 + 1
    for X in fs:
        ref = to_sym(X)
        assert X(pts).tobytes() == field_at(ref, pts).tobytes()
        assert X(pts[5]).tobytes() == field_at(ref, pts[5]).tobytes()


def test_evaluation_of_random_fields_sums_in_the_printed_order():
    # several terms per component, rational and sqrt(3) parts on one monomial
    rng = np.random.default_rng(53)
    pts = _points(rng)
    for _ in range(60):
        X = _random_field(rng)
        assert X(pts).tobytes() == field_at(to_sym(X), pts).tobytes()


def test_evaluation_shapes():
    X = symmetry.w_fields()["w2"].field
    assert X(np.ones(7)).shape == (7,)
    assert X(np.ones((3, 7))).shape == (3, 7)
    assert X(np.ones((0, 7))).shape == (0, 7)
    for bad in (np.ones(6), np.ones((3, 8)), np.ones((2, 3, 7))):
        with pytest.raises(ValueError, match="R\\^7"):
            X(bad)


# ---------------------------------------------------------------------------
# arithmetic and the constant solve


def test_floats_are_taken_as_the_exact_rationals_they_are():
    X = 0.1 * coordinate_field(2)
    assert X.components[2] == {ONE: (Fraction(0.1), Fraction(0))}
    assert X.components[2][ONE][0] != Fraction(1, 10)
    axis = symmetry.so3_combination(*GENERIC_AXIS).field
    assert axis.components[1][UNIT[3]] == (Fraction(GENERIC_AXIS[1]), 0)


def test_linear_structure():
    rng = np.random.default_rng(59)
    X, Y = _random_field(rng), _random_field(rng)
    assert (X - X).is_zero()
    assert (X + Y) - Y == X
    assert 2 * X == X + X == X * 2
    assert (X * 0).is_zero() and not X.is_zero()
    assert PolyField(({ONE: (0, 0)}, {}, {}, {}, {}, {}, {})).components[0] == {}
    with pytest.raises(ValueError, match="exactly 7"):
        PolyField(({},) * 6)


def _rounded(a, b):
    """a + b sqrt(3) to 60 digits, then rounded once to a float."""
    return float(str(sp.N(sp.Rational(Fraction(a)) + sp.Rational(Fraction(b)) * sp.sqrt(3), 60)))


def test_coefficients_in_a_basis_with_sqrt3_pivots():
    rng = np.random.default_rng(61)
    basis = [symmetry.w_fields()["w1"].field, *(v.field for v in symmetry.v_fields())]
    for _ in range(20):
        coeffs = [(_random_coefficient(rng), _random_coefficient(rng)) for _ in basis]
        b = PolyField(({},) * 7)
        for c, f in zip(coeffs, basis):
            b = b + f * {ONE: c}
        assert b.coefficients_in(basis) == tuple(_rounded(p, q) for p, q in coeffs)
    x_dl1 = fields.coords("adapted")[0] * fields.coordinate_field("adapted", 1)
    outside = basis[0] + from_sym(x_dl1)
    with pytest.raises(NotASymmetry) as err:
        outside.coefficients_in(basis)
    assert err.value.residual is outside


def test_triangular_rank_certifies_less_on_broken_inputs():
    n1, n2, n3, n4 = nilpotent.nilpotent_frame()
    ws = [w.field for w in symmetry.w_fields().values()]
    x = {UNIT[0]: (1, 0)}
    assert polyfield.triangular_rank((n1, n2, n3, n4)) == 4
    assert polyfield.triangular_rank((n1, n3, n2, n4)) == 1  # independent, but reordered
    assert polyfield.triangular_rank((n2, n1, n3, n4)) == 0
    assert polyfield.triangular_rank(ws) == 7
    assert polyfield.triangular_rank([ws[0] * x, *ws[1:]]) == 0  # w1 * x vanishes at x = 0
    assert polyfield.triangular_rank([*ws, n1]) == 7  # no more than 7 on R^7
    assert polyfield.triangular_rank([]) == 0


def test_path_geometry_reports_are_pinned(monkeypatch):
    # exact, so one report: no sample count, seed or residual; each condition can fail
    report = nilpotent.PathGeometryReport
    assert nilpotent.check_path_geometry_conditions() == report(True, True, True)
    n1, n2, n3, n4 = nilpotent.nilpotent_frame()
    extended = nilpotent.extended_frame()
    twisted = n2 + coordinate_field(3) * {UNIT[2]: (1, 0)}  # d/dl1 + l2 d/dl3: [., N3] = -N4
    for frame, ext, want in (((n2, n1, n3, n4), extended, report(False, False, True)),
                             ((n1, twisted, n3, n4), extended, report(True, False, True)),
                             ((n1, n2, n3, n4), (*extended[:6], n4), report(True, True, False))):
        monkeypatch.setattr(nilpotent, "nilpotent_frame", lambda frame=frame: frame)
        monkeypatch.setattr(nilpotent, "extended_frame", lambda ext=ext: ext)
        assert nilpotent.check_path_geometry_conditions() == want
        assert not want.all_ok


def test_transitivity_rank_fails_on_a_degenerate_w_set(monkeypatch):
    ws = dict(symmetry.w_fields())
    ws["w1"] = symmetry.SymmetryField("x*w1", ws["w1"].field * {UNIT[0]: (1, 0)})
    monkeypatch.setattr(symmetry, "w_fields", lambda: ws)
    assert symmetry.transitivity_rank() == 0


# ---------------------------------------------------------------------------
# imports


def test_numeric_paths_load_neither_the_exact_fields_nor_sympy():
    code = ("import sys\n"
            "import numpy as np\n"
            "from trident47 import mechanism, nilpotent, symmetry\n"
            "q = mechanism.reference_configuration()\n"
            "mechanism.controllability(q)\n"
            "mechanism.pfaffian_signature(q)\n"
            "mechanism.check_dynamic_pair(q, 1.0)\n"
            "v = symmetry.so3_combination(0.3, -0.9, 1.7)\n"
            "p = symmetry.fixed_point_set((1.0, -2.0, 0.5), x=0.3, k=0.7)\n"
            "symmetry.symmetry_flow(v, p, 0.8)\n"
            "states = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 7))\n"
            "symmetry.flow_invariance_report(v, states, np.linspace(0.0, 1.0, 5), states, 0.8)\n"
            "loaded = [m for m in ('sympy', 'fractions', 'trident47.polyfield')\n"
            "          if m in sys.modules]\n"
            "sys.exit(f'loaded {loaded}' if loaded else 0)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
