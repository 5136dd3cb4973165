import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

import trident47
from trident47 import nilpotent, pmp, polyfield
from trident47.errors import NotASymmetry, ZeroCombination
from trident47.fields import ADAPTED, SQRT3, VectorFieldSym, coordinate_field, coords
from trident47.nilpotent import AdaptedPoint
from trident47.symmetry import (SymmetryField, check_symmetry_conditions,
                                fixed_point_set, flow_invariance_report,
                                flow_with_jacobian, so3_combination, so3_structure,
                                symmetry_flow, transitivity_rank, v_fields, w_fields,
                                w_structure_report)

from sympy_forms import field_at, from_sym, nilpotent_frame_matrix, to_sym


# ---------------------------------------------------------------------------
# so(3) structure


def test_so3_bracket_table():
    table = so3_structure()
    assert table[(1, 2)] == (0.0, 0.0, -1.0)   # [v1,v2] = -v3
    assert table[(1, 3)] == (0.0, 1.0, 0.0)    # [v1,v3] = v2
    assert table[(2, 3)] == (-1.0, 0.0, 0.0)   # [v2,v3] = -v1


def _reference_coefficients_in_basis(b, basis):
    """The per-component solve over Dummy unknowns: b - sum_i c_i f_i has zero coefficients."""
    b, basis = to_sym(b), [to_sym(f) for f in basis]
    cs = sp.symbols(f"c0:{len(basis)}", cls=sp.Dummy)
    eqs = []
    for bk, *fk in zip(b.components, *(f.components for f in basis)):
        eqs += sp.Poly(bk - sum(c * f for c, f in zip(cs, fk)), *coords(ADAPTED)).coeffs()
    solutions = sp.linsolve(eqs, cs)
    if not solutions:
        raise NotASymmetry("field is not a constant combination of the basis", residual=b)
    (sol,) = solutions
    return tuple(float(c) for c in sol)


def test_coefficients_in_basis_are_solved_exactly():
    vs = [v.field for v in v_fields()]
    b = from_sym(sp.Rational(1, 7) * to_sym(vs[0]) + SQRT3 * to_sym(vs[1]))
    assert b.coefficients_in(vs) == (1.0 / 7.0, math.sqrt(3.0), 0.0)
    assert b.coefficients_in(vs) == _reference_coefficients_in_basis(b, vs)
    w2 = w_fields()["w2"].field
    # v1 + d/dl1: the constant term of dl1 is in no basis field's dl1 component
    for bad in (w2, vs[0] + polyfield.coordinate_field(1)):
        with pytest.raises(NotASymmetry) as err:
            bad.coefficients_in(vs)
        assert err.value.residual is bad
        with pytest.raises(NotASymmetry):
            _reference_coefficients_in_basis(bad, vs)


def test_coefficients_in_basis_match_the_per_component_solve():
    vs = [v.field for v in v_fields()]
    for i, j in ((1, 2), (1, 3), (2, 3)):
        b = polyfield.lie_bracket(vs[i - 1], vs[j - 1])
        assert b.coefficients_in(vs) == _reference_coefficients_in_basis(b, vs)
    w = {name: s.field for name, s in w_fields().items()}
    central = [w["w12"], w["w13"], w["w14"]]
    for w_j in ("w2", "w3", "w4"):
        b = polyfield.lie_bracket(w["w1"], w[w_j])
        assert b.coefficients_in(central) == _reference_coefficients_in_basis(b, central)


def test_bracket_with_self_is_zero():
    v1 = v_fields()[0].field
    assert polyfield.lie_bracket(v1, v1).is_zero()


def test_v_fields_vanish_at_origin():
    for v in v_fields():
        assert np.array_equal(v.field(np.zeros(7)), np.zeros(7))


# ---------------------------------------------------------------------------
# symmetry conditions


# regression-pinned induced rotations on the vertical frame (N2, N3, N4)
_EXPECTED_A = {
    "v1": ((0.0, 0.0, 0.0), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0)),
    "v2": ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (-1.0, 0.0, 0.0)),
    "v3": ((0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
}


def test_symmetry_conditions_for_generators():
    for v in v_fields():
        rep = check_symmetry_conditions(v)
        assert rep.commutes_with_n1
        assert rep.vertical_matrix == _EXPECTED_A[v.name]
        assert rep.matrix_antisymmetric
        assert rep.metric_preserved


def test_symmetry_conditions_for_combination():
    v = so3_combination(0.5, -1.0, 2.0)
    rep = check_symmetry_conditions(v)
    A = np.array(rep.vertical_matrix)
    assert np.abs(A + A.T).max() == 0.0
    want = (0.5 * np.array(_EXPECTED_A["v1"]) - np.array(_EXPECTED_A["v2"])
            + 2.0 * np.array(_EXPECTED_A["v3"]))
    assert np.allclose(A, want)


def test_non_symmetry_is_rejected():
    x = coords(ADAPTED)[0]
    bad = SymmetryField("x*dl1", from_sym(x * coordinate_field(ADAPTED, 1)))
    with pytest.raises(NotASymmetry) as err:
        check_symmetry_conditions(bad)
    assert err.value.residual is not None
    assert not err.value.residual.is_zero()


def test_bracket_with_a_leg_field_leaving_the_vertical_bundle_is_rejected():
    # l1 d/dy1 commutes with N1, but [v, N2] = -d/dy1 is not vertical
    l1 = coords(ADAPTED)[1]
    bad = SymmetryField("l1*dy1", from_sym(l1 * coordinate_field(ADAPTED, 4)))
    with pytest.raises(NotASymmetry, match=r"^\[l1\*dy1, N2\] leaves the vertical bundle$") as err:
        check_symmetry_conditions(bad)
    assert not err.value.residual.is_zero()


def test_symmetric_vertical_matrix_is_rejected():
    # commutes with N1 and maps N2 to -N2: a vertical rotation by a
    # symmetric, not an antisymmetric, matrix
    x, l1, _, _, y1, _, _ = coords(ADAPTED)
    bad = SymmetryField("stretch", from_sym(l1 * coordinate_field(ADAPTED, 1)
                                            + (y1 - x - SQRT3 * x**2 / 4)
                                            * coordinate_field(ADAPTED, 4)))
    with pytest.raises(NotASymmetry,
                       match="^induced matrix of stretch .* not antisymmetric$") as err:
        check_symmetry_conditions(bad)
    assert err.value.residual is None


# ---------------------------------------------------------------------------
# fixed points


def test_central_curve_is_fixed_for_every_combination(rng):
    for _ in range(10):
        a = rng.uniform(-2.0, 2.0, 3)
        if np.linalg.norm(a) < 0.1:
            continue
        x = rng.uniform(-2.0, 2.0)
        pt = fixed_point_set(tuple(a), x=x, k=0.0)
        bump = math.sqrt(3.0) / 4.0 * x * x
        assert np.allclose(pt.array, (x, 0, 0, 0, x + bump, x, x - bump), atol=1e-15)
        val = so3_combination(*a).field(pt.array)
        assert np.abs(val).max() < 1e-12


def test_fixed_point_example_for_v1():
    pt = fixed_point_set((1.0, 0.0, 0.0), x=0.0, k=1.0)
    assert np.array_equal(pt.array, np.array([0, 1, 0, 0, 1, 0, 0]))
    assert np.abs(v_fields()[0].field(pt.array)).max() == 0.0


def test_fixed_point_residuals_along_axis(rng):
    for _ in range(10):
        a = rng.uniform(-1.5, 1.5, 3)
        if np.linalg.norm(a) < 0.1:
            continue
        pt = fixed_point_set(tuple(a), x=rng.uniform(-1, 1), k=rng.uniform(-2, 2))
        val = so3_combination(*a).field(pt.array)
        assert np.abs(val).max() < 1e-12


def test_zero_combination_rejected():
    with pytest.raises(ZeroCombination):
        fixed_point_set((0.0, 0.0, 0.0), x=1.0, k=1.0)


# ---------------------------------------------------------------------------
# flows


def test_flow_fixes_fixed_points():
    v = so3_combination(1.0, 1.0, 1.0)
    pt = fixed_point_set((1.0, 1.0, 1.0), x=0.5, k=1.0)
    out = symmetry_flow(v, pt, t=2.0, dt=1e-2)
    assert np.abs(out.array - pt.array).max() < 1e-9 * 2.0


def test_flow_zero_time_is_identity():
    v = v_fields()[1]
    p = AdaptedPoint(0.3, 1.0, 0.5, -0.2, 0.1, 0.2, 0.3)
    # R = I exactly at t = 0, so (R - I)(y - c(x)) adds exact zeros
    out = symmetry_flow(v, p, t=0.0, dt=1e-3)
    assert np.array_equal(out.array, p.array)


def test_array_flow_equals_point_flows_bit_for_bit(rng):
    points = rng.uniform(-2.0, 2.0, (40, 7))
    for v in (v_fields()[2], so3_combination(0.3184848170829566, -0.9045200484068716,
                                             1.7034773792668148)):
        for t in (0.0, 0.5, -2.0):
            flowed = symmetry_flow(v, points, t)
            assert flowed.shape == points.shape
            assert flowed.tobytes() == np.stack(
                [symmetry_flow(v, AdaptedPoint.from_array(q), t).array for q in points]).tobytes()


def test_flow_reversibility():
    v = v_fields()[0]
    p = AdaptedPoint(0.4, 1.2, -0.3, 0.8, 0.05, -0.4, 0.6)
    there = symmetry_flow(v, p, t=1.5, dt=1e-3)
    back = symmetry_flow(v, there, t=-1.5, dt=1e-3)
    assert np.abs(back.array - p.array).max() < 1e-8


def test_so3_combination_is_a_rotation_of_legs_and_centre_offset():
    # a.(v1, v2, v3) = (0, hat(a) l, hat(a)(y - c(x))): a linear system with x
    # constant, whose time-t flow is the Rodrigues rotation exp(t hat(a))
    a1, a2, a3 = sp.symbols("a1 a2 a3", real=True)
    x, l1, l2, l3, y1, y2, y3 = coords(ADAPTED)
    v1, v2, v3 = (to_sym(v.field).components for v in v_fields())
    combo = [a1 * c1 + a2 * c2 + a3 * c3 for c1, c2, c3 in zip(v1, v2, v3)]
    hat = sp.Matrix([[0, -a3, a2], [a3, 0, -a1], [-a2, a1, 0]])
    centre = sp.Matrix([x + SQRT3 * x**2 / 4, x, x - SQRT3 * x**2 / 4])
    want = [0, *(hat * sp.Matrix([l1, l2, l3])),
            *(hat * (sp.Matrix([y1, y2, y3]) - centre))]
    for got, expected in zip(combo, want):
        assert sp.expand(got - expected) == 0
    for v, axis in zip(v_fields(), np.eye(3)):
        assert v.axis == tuple(axis)
    assert so3_combination(0.5, -1.0, 2.0).axis == (0.5, -1.0, 2.0)


def _reference_v_fields():
    """The hand-typed generators that v_fields() replaced by the axis formula."""
    x, l1, l2, l3, y1, y2, y3 = coords(ADAPTED)
    P = SQRT3 * x**2 / 4 - x + y3
    Q = x - y2
    R = SQRT3 * x**2 / 4 + x - y1
    return (VectorFieldSym(ADAPTED, (0, 0, -l3, l2, 0, -P, -Q)),
            VectorFieldSym(ADAPTED, (0, l3, 0, -l1, P, 0, R)),
            VectorFieldSym(ADAPTED, (0, -l2, l1, 0, Q, -R, 0)))


def _linear_combination(fields_, coeffs):
    """coeffs[0] * fields_[0] + coeffs[1] * fields_[1] + ..., summed left to right."""
    out = coeffs[0] * fields_[0]
    for c, f in zip(coeffs[1:], fields_[1:]):
        out = out + c * f
    return out


def test_v_fields_are_the_hand_typed_generators():
    for v, ref in zip(v_fields(), _reference_v_fields()):
        assert to_sym(v.field).components == ref.components


@pytest.mark.parametrize("axis", [
    *(tuple(np.random.default_rng(seed).uniform(-2.0, 2.0, 3)) for seed in range(8)),
    (0.3184848170829566, -0.9045200484068716, 1.7034773792668148),  # the CI generic axis
    (1.0, 1.0, 1.0), (0.6, -0.8, 0.4), (0.0, 0.0, 0.0),
])
def test_so3_combination_is_the_linear_combination_of_the_generators(axis):
    ref = _linear_combination(_reference_v_fields(), [sp.Rational(a) for a in axis])
    assert to_sym(so3_combination(*axis).field).components == ref.components


def test_so3_combination_field_is_its_axis_exactly():
    # the l-block of a.(v1, v2, v3) is hat(a) l: each coefficient is the float a_i itself
    x, l1, l2, l3, *_ = coords(ADAPTED)
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.uniform(-2.0, 2.0, 3)
        comps = to_sym(so3_combination(*a).field).components
        for comp, leg, i, sign in ((1, l3, 1, 1), (1, l2, 2, -1), (2, l3, 0, -1),
                                   (2, l1, 2, 1), (3, l2, 0, 1), (3, l1, 1, -1)):
            c = comps[comp].coeff(leg)
            assert c == sign * sp.Rational(a[i])
            assert float(c) == sign * a[i]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_symmetry_inputs_are_rejected(bad):
    for axis in ((bad, 0.0, 1.0), (1.0, bad, 0.0), (0.0, 1.0, bad)):
        with pytest.raises(ValueError):
            so3_combination(*axis)
        with pytest.raises(ValueError):
            fixed_point_set(axis, x=0.5, k=1.0)
    for x, k in ((bad, 1.0), (0.5, bad)):
        with pytest.raises(ValueError):
            fixed_point_set((1.0, 1.0, 1.0), x=x, k=k)
    v = so3_combination(0.6, -0.8, 0.4)
    for flow in (symmetry_flow, flow_with_jacobian):
        with pytest.raises(ValueError):
            flow(v, AdaptedPoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7), bad)
    states = np.random.default_rng(1).uniform(-1.0, 1.0, (5, 7))
    times, tangents = np.linspace(0.0, 1.0, 5), states[::-1].copy()
    with pytest.raises(ValueError):
        flow_invariance_report(v, states, times, tangents, s=bad)
    for which in range(3):
        args = [states.copy(), times.copy(), tangents.copy()]
        args[which].flat[3] = bad
        with pytest.raises(ValueError):
            flow_invariance_report(v, *args, s=0.5)
        # unequal lengths, and curves of fewer than 2 samples: no (0.0, 0.0) pass
        for n in (0, 1, 4):
            args = [states, times, tangents]
            args[which] = args[which][:n]
            with pytest.raises(ValueError, match="n >= 2 times"):
                flow_invariance_report(v, *args, s=0.5)
    for n in (0, 1):
        with pytest.raises(ValueError, match="n >= 2 times"):
            flow_invariance_report(v, states[:n], times[:n], tangents[:n], s=0.5)


def _run_orbit_script(*argv):
    repo = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    return subprocess.run([sys.executable, "-X", "importtime",
                           str(repo / "scripts" / "symmetry_orbit.py"), *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv", [["--axis", "1", "nan", "0"], ["--axis", "inf", "0", "0"],
                                  ["--axis", "0", "0", "-inf"], ["--flow-values", "0.5", "nan"],
                                  ["--T", "inf"], ["--dt", "0"]])
def test_orbit_script_rejects_non_finite_inputs(tmp_path, argv):
    proc = _run_orbit_script(*argv, "--outdir", str(tmp_path))
    assert proc.returncode == 2 and argv[0] in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "orbit_report.json").exists()


def test_numeric_symmetry_path_does_not_import_sympy(tmp_path):
    code = ("import sys\n"
            "import numpy as np\n"
            "from trident47 import symmetry\n"
            "v = symmetry.so3_combination(0.3184848170829566, -0.9045200484068716, 1.7)\n"
            "p = symmetry.fixed_point_set((1.0, -2.0, 0.5), x=0.3, k=0.7)\n"
            "symmetry.symmetry_flow(v, p, 0.8)\n"
            "symmetry.flow_with_jacobian(v, p, 0.8)\n"
            "q = np.random.default_rng(0).uniform(-1.0, 1.0, (5, 7))\n"
            "symmetry.flow_invariance_report(v, q, np.linspace(0.0, 1.0, 5), q[::-1], 0.8)\n"
            "numeric = 'sympy' in sys.modules\n"
            "v.field\n"
            "sys.exit(10 * numeric + ('sympy' in sys.modules))\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    proc = _run_orbit_script("--T", "0.5", "--flow-values", "0.5", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "numpy" in imported and not [m for m in imported if m.split(".")[0] == "sympy"]


def _rk4_flow(field, p, t, dt):
    """Fixed-step RK4 of the field and of its variational equation.

    The independent oracle for the exact flow and its differential.
    """
    cs = coords(ADAPTED)
    jac = sp.lambdify(cs, sp.Matrix([[sp.diff(c, s) for s in cs]
                                     for c in field.components]), modules="numpy")

    def rhs(y, J):
        return field_at(field, y), np.asarray(jac(*y), dtype=float) @ J

    n = max(1, int(math.ceil(abs(t) / dt)))
    h = t / n
    y, J = np.asarray(p, dtype=float), np.eye(7)
    for _ in range(n):
        k1y, k1j = rhs(y, J)
        k2y, k2j = rhs(y + 0.5 * h * k1y, J + 0.5 * h * k1j)
        k3y, k3j = rhs(y + 0.5 * h * k2y, J + 0.5 * h * k2j)
        k4y, k4j = rhs(y + h * k3y, J + h * k3j)
        y = y + (h / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        J = J + (h / 6.0) * (k1j + 2.0 * k2j + 2.0 * k3j + k4j)
    return y, J


def test_exact_flow_matches_rk4_oracle(rng):
    for v, t in ((v_fields()[0], 1.5), (so3_combination(0.6, -0.8, 0.4), -0.9),
                 (so3_combination(1.0, 0.5, -1.5), 0.7)):
        p = AdaptedPoint.from_array(rng.uniform(-1.0, 1.0, 7))
        y_ref, J_ref = _rk4_flow(to_sym(v.field), p.array, t, dt=2e-3)
        out = symmetry_flow(v, p, t)
        flowed, J = flow_with_jacobian(v, p, t)
        assert np.abs(out.array - y_ref).max() < 1e-9
        assert np.array_equal(flowed.array, out.array)
        assert np.abs(J - J_ref).max() < 1e-9


def test_flow_with_jacobian_builds_its_rotation_once(monkeypatch, rng):
    from trident47 import symmetry

    calls = []
    rotation = symmetry._rotation
    monkeypatch.setattr(symmetry, "_rotation", lambda *args: calls.append(args) or rotation(*args))
    v, p = so3_combination(0.6, -0.8, 0.4), AdaptedPoint.from_array(rng.uniform(-1.0, 1.0, 7))
    flowed, J = flow_with_jacobian(v, p, 0.9)
    assert len(calls) == 1
    assert flowed.array.tobytes() == symmetry_flow(v, p, 0.9).array.tobytes()
    assert len(calls) == 2


def test_flow_of_axisless_field_is_rejected():
    bent = SymmetryField("v1(perturbed)",
                         v_fields()[0].field + 0.01 * polyfield.coordinate_field(2))
    p = AdaptedPoint(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
    for flow in (symmetry_flow, flow_with_jacobian):
        with pytest.raises(NotASymmetry):
            flow(bent, p, 0.5)
    with pytest.raises(NotASymmetry):
        symmetry_flow(w_fields()["w2"], p, 0.5)
    for dt in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            symmetry_flow(v_fields()[0], p, 0.5, dt=dt)


# ---------------------------------------------------------------------------
# w-family


def test_w_algebra_closure():
    rep = w_structure_report()
    assert rep["others_vanish"]
    assert rep["nontrivial"][("w1", "w2")] == (1.0, 0.0, 0.0)
    assert rep["nontrivial"][("w1", "w3")] == (0.0, 1.0, 0.0)
    assert rep["nontrivial"][("w1", "w4")] == (0.0, 0.0, 1.0)


def test_w_orbit_is_full():
    assert transitivity_rank() == 7


def test_w12_is_vertical_coordinate_field():
    w = w_fields()
    assert np.array_equal(w["w12"].field(np.zeros(7)), np.eye(7)[4])


# ---------------------------------------------------------------------------
# invariance of horizontal curves


def test_flow_preserves_horizontality_and_length():
    c = pmp.example_constants(3)
    traj = pmp.integrate_extremal(c.initial_fibre_state(), nilpotent.group_identity(),
                                  T=2.0, dt=2e-3)
    states = traj.states[::20]
    times = traj.times[::20]
    tangents = np.stack([pmp.base_rhs(q, h) for q, h in zip(states, traj.momenta[::20])])
    v = so3_combination(0.6, -0.8, 0.4)
    rep = flow_invariance_report(v, states, times, tangents, s=0.7, dt=1e-2)
    assert rep.horizontality_residual < 1e-6
    assert rep.relative_length_change < 1e-6


def _frame_split(w, F):
    """Coefficients of w in N1..N4 plus the off-distribution residual norm."""
    u = np.array([w[0], w[1], w[2], w[3]])
    res = float(np.linalg.norm(w[4:7] - w[0] * F[0, 4:7]))
    return u, res


def _reference_invariance(v, states, times, tangents, s, dt):
    """The per-point transport through ``flow_with_jacobian`` and the numeric
    frame that the array pass replaced, kept as its reference."""
    worst = 0.0
    speeds_before = np.empty(len(states))
    speeds_after = np.empty(len(states))
    for i, (q, qdot) in enumerate(zip(states, tangents)):
        u0, _ = _frame_split(qdot, nilpotent_frame_matrix(q))
        speeds_before[i] = np.linalg.norm(u0)
        P, J = flow_with_jacobian(v, AdaptedPoint.from_array(q), s, dt)
        w = J @ qdot
        u1, res = _frame_split(w, nilpotent_frame_matrix(P.array))
        speeds_after[i] = np.linalg.norm(u1)
        worst = max(worst, res / max(speeds_after[i], 1e-300))
    len_before = float(np.trapezoid(speeds_before, times))
    len_after = float(np.trapezoid(speeds_after, times))
    return worst, abs(len_after - len_before) / max(len_before, 1e-300)


def test_invariance_report_matches_the_per_point_reference():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        c = pmp.example_constants(n)
        traj = pmp.integrate_extremal(c.initial_fibre_state(), nilpotent.group_identity(),
                                      T=1.5, dt=1e-2)
        tangents = np.stack([pmp.base_rhs(q, h) for q, h in zip(traj.states, traj.momenta)])
        # a generic curve (not horizontal) as well, so the residual is not only round-off
        curves = ((traj.states, tangents), (traj.states, rng.uniform(-1.0, 1.0, tangents.shape)))
        for _ in range(3):
            v = so3_combination(*rng.uniform(-2.0, 2.0, 3))
            for s in (-1.3, 0.4, 2.5):
                for states, qdot in curves:
                    rep = flow_invariance_report(v, states, traj.times, qdot, s, dt=1e-2)
                    worst, change = _reference_invariance(v, states, traj.times, qdot, s, 1e-2)
                    # 1e-15 absolute, in ulps of the figure on the generic curve
                    assert abs(rep.horizontality_residual - worst) <= 1e-15 * max(1.0, worst)
                    assert abs(rep.relative_length_change - change) <= 1e-15
