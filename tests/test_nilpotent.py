import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trident47 import fields, mechanism, polyfield
from trident47.errors import ChartMismatch
from trident47.fields import ADAPTED, ORIGINAL, coordinate_field, lie_bracket
from trident47.mechanism import Configuration
from trident47.nilpotent import (AdaptedPoint, centre, check_left_invariance, extended_frame,
                                 from_adapted, group_identity, group_inverse, group_mul,
                                 n1_vertical, nilpotent_frame, to_adapted)
from trident47.polyfield import triangular_rank

from sympy_forms import field_at, fields_equal, from_sym, nilpotent_frame_matrix, to_sym

S3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# coordinate transforms


def test_adapted_image_of_q0(q0):
    p = to_adapted(q0)
    expected = (0.0, 1.0, 1.0, 1.0, -4.0 * math.pi, 4.0 * math.pi / 5.0, -4.0 * math.pi)
    assert np.abs(p.array - np.array(expected)).max() < 1e-12


def test_origin_maps_to_origin():
    q = Configuration.original(0, 0, 0, 0, 0, 0, 0)
    assert np.array_equal(to_adapted(q).array, np.zeros(7))
    assert np.array_equal(from_adapted(AdaptedPoint()).array, np.zeros(7))


def test_round_trip_identity(rng):
    for _ in range(100):
        q = Configuration(ORIGINAL, tuple(rng.uniform(-2.0, 2.0, 7)))
        back = from_adapted(to_adapted(q))
        assert np.abs(back.array - q.array).max() < 1e-12


def _reference_adapted_jacobian():
    """The constant Jacobian of to_adapted, its rows typed by hand from the chart map."""
    T = np.zeros((7, 7))
    T[0, 0] = 1.0
    T[1, 4] = T[2, 5] = T[3, 6] = 1.0
    T[4] = (-2.0, -2.0 * S3, -8.0, 0.0, 0.0, 0.0, 0.0)
    T[5] = (-0.8, 0.0, 1.6, 0.8, 0.0, 0.0, 0.0)
    T[6] = (-2.0, 2.0 * S3, -8.0, 0.0, 0.0, 0.0, 0.0)
    return T


def test_from_adapted_matches_matrix_inverse_oracle(rng):
    # the maps are linear: to_adapted is the hand-typed matrix, from_adapted its numeric inverse
    T = _reference_adapted_jacobian()
    Tinv = np.linalg.inv(T)
    for _ in range(20):
        q = Configuration(ORIGINAL, tuple(rng.uniform(-3.0, 3.0, 7)))
        assert np.abs(to_adapted(q).array - T @ q.array).max() < 1e-12
        p = AdaptedPoint.from_array(rng.uniform(-3.0, 3.0, 7))
        assert np.abs(from_adapted(p).array - Tinv @ p.array).max() < 1e-12


def test_to_adapted_rejects_adapted_chart():
    # an adapted-chart Configuration cannot be built, so it never reaches to_adapted
    with pytest.raises(ChartMismatch, match="original chart, not 'adapted'"):
        Configuration(ADAPTED, (0, 1, 1, 1, 0, 0, 0))


def test_to_adapted_refuses_an_adapted_point():
    with pytest.raises(ChartMismatch, match="original-chart Configuration, got AdaptedPoint"):
        to_adapted(AdaptedPoint())


# ---------------------------------------------------------------------------
# nilpotent frame


def test_n1_at_adapted_origin():
    n1 = nilpotent_frame()[0]
    assert np.array_equal(n1(np.zeros(7)), np.array([1.0, 0, 0, 0, 1.0, 1.0, 1.0]))


def test_bracket_table():
    n1, n2, n3, n4 = map(to_sym, nilpotent_frame())
    assert fields_equal(lie_bracket(n1, n2), coordinate_field(ADAPTED, 4))
    assert fields_equal(lie_bracket(n1, n3), coordinate_field(ADAPTED, 5))
    assert fields_equal(lie_bracket(n1, n4), coordinate_field(ADAPTED, 6))
    for i, X in enumerate((n2, n3, n4)):
        for Y in (n2, n3, n4)[i + 1:]:
            assert lie_bracket(X, Y).is_zero()


def test_step_two_nilpotency():
    frame = [to_sym(f) for f in extended_frame()]
    gens = frame[:4]
    for X in gens:
        for Y in gens:
            inner = lie_bracket(X, Y)
            for Z in gens:
                assert lie_bracket(Z, inner).is_zero()
    # brackets with the centre vanish as well
    for X in gens:
        for Z in frame[4:]:
            assert lie_bracket(X, Z).is_zero()


def test_frame_matrix_agrees_with_symbolic(rng):
    n = nilpotent_frame()
    for p in rng.uniform(-2.0, 2.0, (10, 7)):
        F = nilpotent_frame_matrix(p)
        for i in range(4):
            assert np.abs(F[i] - n[i](p)).max() < 1e-14


def test_n1_vertical_is_symbolic_n1_and_the_slope_of_the_centre_curve(rng):
    pts = rng.uniform(-2.0, 2.0, (10, 7))
    n1 = nilpotent_frame()[0]
    rows = np.stack(n1_vertical(pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]), axis=-1)
    for p, row in zip(pts, rows):
        assert np.abs(row - n1(p)[4:]).max() < 1e-14
        assert n1_vertical(*(float(v) for v in p[:4])) == tuple(row)
    # c'(x) is N1's y-part at l = 0; c is quadratic, so central differences are exact
    x, e = pts[:, 0], 1e-3
    slope = (np.stack(centre(x + e)) - np.stack(centre(x - e))) / (2.0 * e)
    want = np.stack(np.broadcast_arrays(*n1_vertical(x, 0.0, 0.0, 0.0)))
    assert np.abs(slope - want).max() < 1e-10
    assert centre(0.0) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# group structure


def test_identity_laws(rng):
    e = group_identity()
    assert group_inverse(e) == e
    for _ in range(20):
        p = AdaptedPoint.from_array(rng.uniform(-3.0, 3.0, 7))
        assert np.array_equal(group_mul(p, e).array, p.array)
        assert np.array_equal(group_mul(e, p).array, p.array)


def test_hand_computed_product():
    a = AdaptedPoint(1, 1, 0, 0, 0, 0, 0)
    b = AdaptedPoint(1, 0, 0, 0, 0, 0, 0)
    got = group_mul(a, b).array
    assert np.abs(got - np.array([2, 1, 0, 0, S3 / 2 - 1.0, 0.0, -S3 / 2])).max() < 1e-15


def test_inverse_is_two_sided(rng):
    for _ in range(100):
        p = AdaptedPoint.from_array(rng.uniform(-3.0, 3.0, 7))
        inv = group_inverse(p)
        assert np.abs(group_mul(p, inv).array).max() < 1e-12
        assert np.abs(group_mul(inv, p).array).max() < 1e-12


def test_inverse_degenerates_to_negation_when_x_is_zero(rng):
    p = AdaptedPoint.from_array(np.concatenate([[0.0], rng.uniform(-2, 2, 6)]))
    assert np.array_equal(group_inverse(p).array, -p.array)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=21, max_size=21))
def test_associativity(vals):
    p = AdaptedPoint.from_array(vals[:7])
    q = AdaptedPoint.from_array(vals[7:14])
    r = AdaptedPoint.from_array(vals[14:])
    left = group_mul(group_mul(p, q), r).array
    right = group_mul(p, group_mul(q, r)).array
    assert np.abs(left - right).max() < 1e-12


# ---------------------------------------------------------------------------
# left invariance


def test_frame_fields_are_left_invariant():
    for f in extended_frame():
        rep = check_left_invariance(f, samples=200)
        assert rep.field_ok, rep


def test_coordinate_x_field_is_not_left_invariant():
    rep = check_left_invariance(from_sym(coordinate_field(ADAPTED, 0)), samples=20)
    assert not rep.field_ok


@pytest.mark.parametrize("samples", [0, -1])
def test_left_invariance_without_samples_is_refused(samples):
    # zero samples used to report ok with max_residual 0.0 after checking nothing
    with pytest.raises(ValueError, match="at least one sample"):
        check_left_invariance(nilpotent_frame()[0], samples=samples)


def test_constant_vertical_fields_are_left_invariant():
    f = coordinate_field(ADAPTED, 4) + 2 * coordinate_field(ADAPTED, 5) \
        - 3 * coordinate_field(ADAPTED, 6)
    rep = check_left_invariance(from_sym(f), samples=50)
    assert rep.field_ok


# ---------------------------------------------------------------------------
# generalized path geometry


def test_path_geometry_conditions():
    # the splitting E = <N1>, V = <N2,N3,N4>, read off the bracket table at every point:
    # E and V are transversal, V is involutive, and the mixed brackets leave E + V
    frame = nilpotent_frame()
    assert triangular_rank(frame) == 4
    legs = frame[1:]
    assert all(polyfield.lie_bracket(a, b).is_zero()
               for i, a in enumerate(legs) for b in legs[i + 1:])
    assert triangular_rank(extended_frame()) == 7


def test_constant_vertical_sections_commute():
    n = [to_sym(f) for f in nilpotent_frame()]
    assert lie_bracket(n[1], n[2]).is_zero()


def test_mixed_bracket_leaves_ev_at_origin():
    n = [to_sym(f) for f in nilpotent_frame()]
    w = field_at(lie_bracket(n[0], n[1]), np.zeros(7))  # [N1, N2] = d/dy1
    assert np.linalg.matrix_rank(np.vstack([nilpotent_frame_matrix(np.zeros(7)), w])) == 5


def test_escape_clause_vanishing_xi():
    # xi = f*N1 with f(origin) = 0 brings the bracket back into E+V there
    x = fields.coords(ADAPTED)[0]
    n = [to_sym(f) for f in nilpotent_frame()]
    xi = x * n[0]
    b = lie_bracket(xi, n[1])
    b0 = field_at(b, np.zeros(7))
    assert np.linalg.matrix_rank(np.vstack([nilpotent_frame_matrix(np.zeros(7)), b0])) == 4


# ---------------------------------------------------------------------------
# first-order approximation sanity


def test_pushforward_of_frame_matches_nilpotent_frame(q0):
    T = _reference_adapted_jacobian()
    p0 = to_adapted(q0)
    n = nilpotent_frame()
    frame = mechanism.controllability(q0).gbar[:4]
    for i in range(4):
        assert np.abs(T @ frame[i] - n[i](p0.array)).max() < 1e-9
    brackets = mechanism.controllability(q0).gbar[4:]
    for col, slot in enumerate((4, 5, 6)):
        assert np.abs(T @ brackets[col] - np.eye(7)[slot]).max() < 1e-9
