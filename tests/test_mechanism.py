import math
import os
import subprocess
import sys

import numpy as np
import pytest
import sympy as sp

import trident47
from trident47 import mechanism
from trident47.charts import ADAPTED, ORIGINAL
from trident47.errors import ChartMismatch, SingularConfiguration
from trident47.fields import SQRT3, VectorFieldSym, coords, lie_bracket
from trident47.mechanism import (ALPHA1, ALPHA3, Configuration, check_dynamic_pair,
                                 controllability, pfaffian_signature, serialize_matrix,
                                 wheel_coords)

from sympy_forms import (field_at, fields_equal, horizontal_frame_slice, nilpotent_frame_matrix,
                         slice_bracket_fields)

S3 = math.sqrt(3.0)


def pfaff_matrix(q: Configuration) -> np.ndarray:
    """The 3x7 matrix of constraint one-forms in the basis (dx..dl3): the frame's oracle.

    Row k is the no-side-slip one-form of wheel k, obtained by pairing the
    wheel-velocity equations with the direction normal to the wheel plane.
    The dl_i columns vanish identically: changing a leg length alone never
    slips a wheel sideways.
    """
    x, y, th, ph, l1, l2, l3 = q.values
    m = np.zeros((3, 7))
    m[0] = (-math.sin(th + ALPHA1), math.cos(th + ALPHA1),
            1.0 + l1, 0.0, 0.0, 0.0, 0.0)
    m[1] = (-math.sin(th + ph), math.cos(th + ph),
            math.cos(ph) + l2, l2, 0.0, 0.0, 0.0)
    m[2] = (-math.sin(th + ALPHA3), math.cos(th + ALPHA3),
            1.0 + l3, 0.0, 0.0, 0.0, 0.0)
    return m


def random_valid(rng, on_slice=True):
    legs = rng.uniform(0.5, 2.0, 3)
    phi = rng.uniform(-0.3, 0.3)
    if on_slice:
        return Configuration.original(0.0, 0.0, math.pi / 2.0, phi, *legs)
    x, y = rng.uniform(-5.0, 5.0, 2)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return Configuration.original(x, y, theta, phi, *legs)


# ---------------------------------------------------------------------------
# kinematics


def test_wheel_positions_at_q0(q0):
    w = np.reshape(wheel_coords(*q0.values), (3, 2))
    assert np.allclose(w[1], (0.0, 2.0), atol=1e-15)         # second wheel straight up
    assert np.allclose(w[0], (S3, -1.0), atol=1e-14)          # first anchor at -2pi/3
    assert np.allclose(w[2], (-S3, -1.0), atol=1e-14)


def test_wheel_positions_periodic_in_theta(rng):
    q = random_valid(rng, on_slice=False)
    vals = list(q.values)
    vals[2] += 2.0 * math.pi
    shifted = Configuration(ORIGINAL, tuple(vals))
    assert np.allclose(wheel_coords(*q.values), wheel_coords(*shifted.values), atol=1e-12)


def test_wheel_positions_rejects_adapted_chart():
    # adapted coordinates never reach the wheel positions: a Configuration refuses them
    with pytest.raises(ChartMismatch, match="original chart, not 'adapted'"):
        Configuration(ADAPTED, (0, 1, 1, 1, 0, 0, 0))
    with pytest.raises(ChartMismatch):
        Configuration("polar", (0, 1, 1, 1, 0, 0, 0))


def test_pfaff_rows_at_q0(q0):
    m = pfaff_matrix(q0)
    assert np.allclose(m[0], (0.5, S3 / 2.0, 2.0, 0.0, 0.0, 0.0, 0.0), atol=1e-15)
    # wheel-2 row from the velocity equations: d-theta coefficient cos(phi)+l2,
    # d-phi coefficient l2 (the frame below is annihilated by it)
    assert np.allclose(m[1], (-1.0, 0.0, 2.0, 1.0, 0.0, 0.0, 0.0), atol=1e-15)
    assert np.allclose(m[2], (0.5, -S3 / 2.0, 2.0, 0.0, 0.0, 0.0, 0.0), atol=1e-15)


def test_leg_columns_vanish(rng):
    for _ in range(10):
        q = random_valid(rng, on_slice=False)
        assert np.all(pfaff_matrix(q)[:, 4:] == 0.0)


# ---------------------------------------------------------------------------
# frame


def test_frame_annihilated_by_constraints(rng):
    for on_slice in (True, False):
        for _ in range(25):
            q = random_valid(rng, on_slice)
            m = pfaff_matrix(q)
            f = controllability(q).gbar[:4]
            assert np.abs(m @ f.T).max() < 1e-10


def test_frame_at_q0(q0):
    f = controllability(q0).gbar[:4]
    assert np.allclose(f[0], (1.0, 0.0, -0.25, 1.5, 0.0, 0.0, 0.0), atol=1e-12)
    assert np.array_equal(f[1:], np.eye(7)[4:])


def test_frame_y_component_vanishes_for_symmetric_legs():
    q = Configuration.original(0.0, 0.0, math.pi / 2.0, 0.0, 2.0, 1.0, 2.0)
    f = controllability(q).gbar[:4]
    assert abs(f[0, 1]) < 1e-12  # (l1 - l3) sqrt(3) / (3 L) = 0


def test_numeric_frame_matches_slice_closed_form(rng):
    x1 = horizontal_frame_slice()[0]
    for _ in range(20):
        q = random_valid(rng, on_slice=True)
        assert np.allclose(controllability(q).gbar[0], field_at(x1, q.values), atol=1e-10)


def test_x1_terms_on_arrays_are_gbar_row_0_on_floats(rng):
    # the original gait evaluates X1's terms over whole blocks of stages
    n = 1000
    theta, phi = rng.uniform(-10.0, 10.0, (2, n))
    l1, l2, l3 = rng.uniform(-3.0, 3.0, (3, n))
    theta[:10], l3[10:20], phi[20:30] = math.pi / 2.0, l1[10:20], -0.0  # delta = 0, a = 0
    L, a, dtheta = mechanism._x1_shape(l1, l3)
    cp, sp = (np.array([f(v) for v in phi.tolist()]) for f in (math.cos, math.sin))
    arrays = np.stack([*mechanism._x1_planar(*mechanism._x1_rotation(theta), a), dtheta,
                       mechanism._x1_phi_rate(cp, sp, l2, L, a)], axis=1)
    floats = np.array([mechanism.closed_form_gbar(*q)[0, :4]
                       for q in zip(*(c.tolist() for c in (theta, phi, l1, l2, l3)))])
    # closed_form_gbar turns -0.0 into 0.0; tobytes tells them apart
    assert arrays.shape == floats.shape and (arrays + 0.0).tobytes() == floats.tobytes()


def test_singular_configurations_raise():
    for legs in ((1.0, 1e-12, 1.0), (-3.0, 1.0, 1.0)):  # l2 = 0, then L = 0
        with pytest.raises(SingularConfiguration) as point:
            controllability(Configuration.original(0, 0, math.pi / 2, 0, *legs))
        # the sweep refuses the same sample with the same message, as the per-sample loop did
        with pytest.raises(SingularConfiguration) as sweep:
            mechanism.sweep_growth(np.zeros(3), np.array([(1.0, 1.0, 1.0), legs, legs]), 1e-9)
        assert str(sweep.value) == str(point.value)


# ---------------------------------------------------------------------------
# brackets: the printed closed forms are the oracle for the symbolic slice
# brackets, which with a constraint-kernel / finite-difference oracle off the
# slice check the closed-form Gbar


def _printed_bracket_fields():
    x, y, th, ph, l1, l2, l3 = coords(ORIGINAL)
    L = l1 + l3 + 2
    x12 = VectorFieldSym(ORIGINAL, (
        0,
        -2 * (l3 + 1) / (SQRT3 * L**2),
        -1 / L**2,
        (-2 * sp.sin(ph) * (l3 + 1) + SQRT3 * sp.cos(ph) + SQRT3 * l2) / (SQRT3 * l2 * L**2),
        0, 0, 0))
    x13 = VectorFieldSym(ORIGINAL, (
        0, 0, 0,
        (sp.sin(ph) * (l1 - l3) + SQRT3 * sp.cos(ph) * (L + 1)) / (SQRT3 * l2**2 * L),
        0, 0, 0))
    x14 = VectorFieldSym(ORIGINAL, (
        0,
        (2 * l1 + 2) / (SQRT3 * L**2),
        -1 / L**2,
        (2 * sp.sin(ph) * (l1 + 1) + SQRT3 * sp.cos(ph) + SQRT3 * l2) / (SQRT3 * l2 * L**2),
        0, 0, 0))
    return x12, x13, x14


def test_symbolic_brackets_match_printed_closed_forms(q0):
    for got, want in zip(slice_bracket_fields(), _printed_bracket_fields()):
        assert fields_equal(got, want)
        assert np.abs(field_at(got, q0.values) - field_at(want, q0.values)).max() < 1e-9


def test_x12_at_q0(q0):
    x12 = slice_bracket_fields()[0]
    val = field_at(x12, q0.values)
    assert np.allclose(val, (0.0, -1.0 / (4.0 * S3), -1.0 / 16.0, 1.0 / 8.0, 0, 0, 0),
                       atol=1e-15)


def test_closed_form_brackets_match_symbolic_on_slice(rng):
    brackets = slice_bracket_fields()
    for _ in range(10):
        q = random_valid(rng, on_slice=True)
        want = np.stack([field_at(b, q.values) for b in brackets])
        assert np.abs(controllability(q).gbar[4:] - want).max() < 1e-12


def _nullspace_x1(p):
    """X1 at p from the numeric kernel of the Pfaffian matrix, scaled to unit
    component along the body-frame x-axis (cos delta, sin delta)."""
    m = pfaff_matrix(Configuration(ORIGINAL, tuple(p)))
    v = np.linalg.svd(m[:, :4])[2][-1]
    delta = p[2] - math.pi / 2.0
    out = np.zeros(7)
    out[:4] = v / (v[0] * math.cos(delta) + v[1] * math.sin(delta))
    return out


def _fd_bracket(F, G, p, h=1e-4):
    """[F, G](p) from Richardson-extrapolated central-difference Jacobians."""

    def jac(field, step):
        cols = [(field(p + step * e) - field(p - step * e)) / (2.0 * step) for e in np.eye(7)]
        return np.stack(cols, axis=1)

    def rich(field):
        return (4.0 * jac(field, h / 2.0) - jac(field, h)) / 3.0

    return rich(G) @ F(p) - rich(F) @ G(p)


def test_gbar_matches_nullspace_and_fd_oracles_off_slice(rng):
    # independent of the closed form: X1 is recomputed as the gauged numeric
    # kernel of the constraint matrix, and its brackets by finite differences
    for _ in range(10):
        q = random_valid(rng, on_slice=False)
        gbar = controllability(q).gbar
        assert np.abs(pfaff_matrix(q) @ gbar[0]).max() < 1e-12
        # the rescaled numeric kernel equals X1, so the two are parallel
        assert np.abs(_nullspace_x1(q.array) - gbar[0]).max() < 1e-12
        for k in range(3):
            leg = np.eye(7)[4 + k]
            fd = _fd_bracket(_nullspace_x1, lambda a, leg=leg: leg, q.array)
            assert np.abs(fd - gbar[4 + k]).max() < 1e-9


# ---------------------------------------------------------------------------
# controllability


def test_controllability_at_q0(q0):
    res = controllability(q0)
    assert res.growth == (4, 7)
    assert res.det != 0.0
    assert res.det_nonzero


def test_controllability_random_sweep(rng):
    for _ in range(100):
        q = random_valid(rng, on_slice=True)
        assert controllability(q).growth == (4, 7)


def test_controllability_euclidean_invariance(rng):
    # regularity depends on the shape only, not the planar pose
    for _ in range(50):
        q = random_valid(rng, on_slice=False)
        res = controllability(q)
        assert res.growth == (4, 7)
        assert abs(res.det) > 1e-12


def test_gauged_frame_rotates_with_heading(rng):
    # the X1 gauge is Euclidean-equivariant: rotating the pose rotates the
    # planar part of X1 and keeps the shape part
    for _ in range(10):
        q = random_valid(rng, on_slice=True)
        base = controllability(q).gbar[0]
        delta = rng.uniform(-2.0, 2.0)
        vals = list(q.values)
        vals[0], vals[1] = rng.uniform(-3.0, 3.0, 2)
        vals[2] += delta
        rotated = controllability(Configuration(ORIGINAL, tuple(vals))).gbar[0]
        c, s = math.cos(delta), math.sin(delta)
        assert np.allclose(rotated[0], c * base[0] - s * base[1], atol=1e-9)
        assert np.allclose(rotated[1], s * base[0] + c * base[1], atol=1e-9)
        assert np.allclose(rotated[2:], base[2:], atol=1e-9)


# ---------------------------------------------------------------------------
# dynamic pairs


@pytest.mark.parametrize("f", [1.0, 2.0, -0.5])
def test_dynamic_pair_regular_at_q0(q0, f):
    res = check_dynamic_pair(q0, f)
    assert (res.rank_v0, res.rank_v1, res.transversal) == (3, 6, True)


def test_dynamic_pair_rejects_zero_f(q0):
    with pytest.raises(ValueError):
        check_dynamic_pair(q0, 0.0)


def test_dynamic_pair_span_invariance(q0):
    # scaling the input fields cannot change the ranks; exercised through
    # different drift scalings which rescale the bracket directions
    for f in (0.3, 5.0, 1e-12, 1e-8, 1e9, 1e300):
        res = check_dynamic_pair(q0, f)
        assert (res.rank_v0, res.rank_v1, res.transversal) == (3, 6, True)
    # scaling X2..X4 by nonzero constants does not change span ranks either
    frame = controllability(q0).gbar[:4]
    scaled = np.diag([2.0, -0.7, 11.0]) @ frame[1:4]
    assert mechanism._rank(scaled, 1e-9) == mechanism._rank(frame[1:4], 1e-9) == 3


# ---------------------------------------------------------------------------
# det Gbar in closed form, and the certified sweep


def _det_factor(phi, l1, l3):
    """a sin phi + (1 + 1/L) cos phi: det Gbar's factor that vanishes on Sigma."""
    L = l1 + l3 + 2.0
    return S3 * (l1 - l3) / (3.0 * L) * np.sin(phi) + (1.0 + 1.0 / L) * np.cos(phi)


def test_gbar_det_is_the_determinant_of_the_symbolic_slice_gbar(rng):
    rows = [*horizontal_frame_slice(), *slice_bracket_fields()]
    det = sp.Matrix([list(r.components) for r in rows]).det(method="berkowitz")
    x, y, th, ph, l1, l2, l3 = coords(ORIGINAL)
    L = l1 + l3 + 2
    a = SQRT3 * (l1 - l3) / (3 * L)
    printed = 2 * SQRT3 * (a * sp.sin(ph) + (1 + 1 / L) * sp.cos(ph)) / (3 * L**3 * l2**2)
    assert sp.simplify(sp.cancel(sp.together(det - printed))) == 0
    det_at = sp.lambdify((ph, l1, l2, l3), det)
    for point in zip(rng.uniform(-1.0, 1.0, 50), *rng.uniform(0.5, 2.0, (3, 50))):
        point = tuple(map(float, point))
        assert math.isclose(mechanism.gbar_det(*point), det_at(*point), rel_tol=1e-13)


def test_gbar_det_is_the_numeric_determinant_off_sigma():
    rng = np.random.default_rng(20)
    phi = rng.uniform(-math.pi, math.pi, 20_000)
    l1, l2, l3 = rng.uniform(-3.0, 3.0, (3, 20_000))
    keep = ((np.abs(l1 + l3 + 2.0) >= 0.01) & (np.abs(l2) >= 0.01)
            & (np.abs(_det_factor(phi, l1, l3)) >= 0.01))
    phi, l1, l2, l3 = phi[keep], l1[keep], l2[keep], l3[keep]
    numeric = np.linalg.det(mechanism.closed_form_gbar(0.7, phi, l1, l2, l3))
    assert np.max(np.abs(mechanism.gbar_det(phi, l1, l2, l3) / numeric - 1.0)) < 1e-12


def test_closed_form_gbar_on_arrays_is_the_float_call_per_element(rng):
    n = 500
    theta, phi = rng.uniform(-10.0, 10.0, (2, n))
    l1, l2, l3 = rng.uniform(-3.0, 3.0, (3, n))
    theta[:10], l3[10:20], phi[20:30] = math.pi / 2.0, l1[10:20], -0.0
    for th in (theta, math.pi / 2.0):  # the sweep passes theta as one float
        stack = mechanism.closed_form_gbar(th, phi, l1, l2, l3)
        ths = th.tolist() if isinstance(th, np.ndarray) else [th] * n
        floats = [mechanism.closed_form_gbar(*q)
                  for q in zip(ths, *(c.tolist() for c in (phi, l1, l2, l3)))]
        # tobytes also tells -0.0 from 0.0
        assert stack.shape == (n, 7, 7) and stack.tobytes() == np.array(floats).tobytes()
    dets = [mechanism.gbar_det(*q) for q in zip(*(c.tolist() for c in (phi, l1, l2, l3)))]
    assert mechanism.gbar_det(phi, l1, l2, l3).tobytes() == np.array(dets).tobytes()


def _sweep_oracle(phis, legs, rank_tol):
    """The per-sample loop: ``controllability`` at each slice point, counted by growth."""
    counts = {}
    for phi, shape in zip(phis.tolist(), legs.tolist()):
        q = Configuration.original(0.0, 0.0, math.pi / 2.0, phi, *shape)
        growth = controllability(q, rank_tol=rank_tol).growth
        counts[growth] = counts.get(growth, 0) + 1
    return counts


def _sweep_with_svd_count(monkeypatch, phis, legs, rank_tol):
    """``sweep_growth``'s result, and how many matrices its stacked fallback ranked."""
    rank, ranked = mechanism._rank, []

    def record(m, tol):
        ranked.append(len(m))
        return rank(m, tol)

    with monkeypatch.context() as patch:
        patch.setattr(mechanism, "_rank", record)
        counts, worst = mechanism.sweep_growth(phis, legs, rank_tol)
    return counts, worst, sum(ranked)


@pytest.mark.parametrize("tol", [1e-9, 0.05, 0.5])
def test_sweep_growth_counts_are_the_per_sample_loop(monkeypatch, tol):
    rng = np.random.default_rng(12)
    legs = rng.uniform(0.5, 2.0, (mechanism.SWEEP_CHUNK + 7, 3))  # a short second chunk
    phis = rng.uniform(-0.3, 0.3, len(legs))
    counts, worst, ranked = _sweep_with_svd_count(monkeypatch, phis, legs, tol)
    assert counts == _sweep_oracle(phis, legs, tol)
    # the certificate decides every sample at the default tolerance; it never exceeds
    # 7**-3.5 (AM-GM on the singular values), so a coarse one ranks all of them twice
    assert ranked == (0 if tol == 1e-9 else 2 * len(legs))
    gbars = mechanism.closed_form_gbar(math.pi / 2.0, phis, *legs.T)
    certificates = np.abs(np.linalg.det(gbars)) / np.linalg.norm(gbars, axis=(1, 2)) ** 7
    assert math.isclose(worst, certificates.min(), rel_tol=1e-12) and worst > 1e-7


def test_sweep_growth_falls_back_to_svd_where_the_box_meets_sigma(monkeypatch):
    # at the reference legs Sigma is phi = +-pi/2: the certificate cannot decide there,
    # and the stacked SVD must give the loop's answer on both sides of the cutoff
    phis = np.concatenate([math.pi / 2.0 + np.linspace(-1e-8, 1e-8, 201),
                           -math.pi / 2.0 + np.linspace(-1e-3, 1e-3, 201)])
    legs = np.ones((len(phis), 3))
    counts, worst, ranked = _sweep_with_svd_count(monkeypatch, phis, legs, 1e-9)
    assert counts == _sweep_oracle(phis, legs, 1e-9)
    assert counts[(4, 6)] > 0 and counts[(4, 7)] > 0 and ranked > 0 and worst < 1e-9


# ---------------------------------------------------------------------------
# Pfaffian signature


def test_signature_at_q0(q0):
    sig = pfaffian_signature(q0)
    assert sig.as_tuple() == (0, 0)


def test_signature_across_sweep(rng):
    for on_slice in (True, False):
        for _ in range(20):
            q = random_valid(rng, on_slice)
            assert pfaffian_signature(q).as_tuple() == (0, 0)


def _pfaffian4(a):
    # Pfaffian of a 4x4 antisymmetric matrix
    return a[0, 1] * a[2, 3] - a[0, 2] * a[1, 3] + a[0, 3] * a[1, 2]


def _polarized_pfaffian(A):
    """The symmetric 3x3 matrix S of c -> Pf(sum c_k A_k), by polarization."""
    S = np.empty((3, 3))
    for k in range(3):
        S[k, k] = _pfaffian4(A[k])
    for k in range(3):
        for l in range(k + 1, 3):
            S[k, l] = S[l, k] = 0.5 * (_pfaffian4(A[k] + A[l]) - S[k, k] - S[l, l])
    return S


def _reference_signature(A, eig_tol):
    """Signature of c -> Pf(sum c_k A_k) for any (3,4,4) stack of antisymmetric
    matrices: the eigenvalue signs of the polarized form, counted against
    eig_tol times the square of the bracket scale (the Pfaffian is quadratic
    in the A-entries)."""
    S = _polarized_pfaffian(A)
    scale = max(float(np.abs(A).max()) ** 2, float(np.abs(S).max()))
    lam = np.linalg.eigvalsh(S)
    cut = eig_tol * max(scale, 1e-300)
    return mechanism.SignatureResult(p=int(np.sum(lam > cut)), r=int(np.sum(lam < -cut)),
                                     eig_tol=eig_tol)


def test_signature_zero_from_bracket_table_oracle(rng):
    # independent derivation on the nilpotent model: the only nonzero
    # brackets pair the first frame field with the others, so every matrix
    # A_k has nonzero entries in its first row/column only and the 4x4
    # Pfaffian a01*a23 - a02*a13 + a03*a12 vanishes identically.
    for _ in range(20):
        p = rng.uniform(-2.0, 2.0, 7)
        F = nilpotent_frame_matrix(p)
        mus = []
        for yslot in (4, 5, 6):
            mu = np.zeros(7)
            mu[yslot] = 1.0
            mu[0] = -F[0, yslot]  # annihilate N1 as well as the leg fields
            mus.append(mu)
        table = {(0, i): np.eye(7)[3 + i] for i in (1, 2, 3)}  # [N1,Ni] = e_{y...}
        for k in range(3):
            A = np.zeros((4, 4))
            for (i, j), b in table.items():
                A[i, j] = -mus[k] @ b
                A[j, i] = -A[i, j]
            assert _pfaffian4(A) == pytest.approx(0.0, abs=1e-15)
        for c in rng.uniform(-1, 1, (5, 3)):
            Ac = np.zeros((4, 4))
            for k in range(3):
                for (i, j), b in table.items():
                    val = -c[k] * (mus[k] @ b)
                    Ac[i, j] += val
                    Ac[j, i] -= val
            assert _pfaffian4(Ac) == pytest.approx(0.0, abs=1e-12)


def _pfaffian_stack(bracket_coeffs):
    """Build the (3,4,4) stack from {(i,j): (c1,c2,c3)} bracket coefficients."""
    A = np.zeros((3, 4, 4))
    for (i, j), cs in bracket_coeffs.items():
        for k, c in enumerate(cs):
            A[k, i, j] += -c
            A[k, j, i] -= -c
    return A


def test_signature_machinery_detects_nondegenerate_structures():
    # quaternionic-type bracket relations give the definite signature (3,0)
    quaternionic = {
        (0, 1): (1, 0, 0), (2, 3): (1, 0, 0),
        (0, 2): (0, 1, 0), (3, 1): (0, 1, 0),
        (0, 3): (0, 0, 1), (1, 2): (0, 0, 1),
    }
    sig = _reference_signature(_pfaffian_stack(quaternionic), 1e-9)
    assert sig.as_tuple() == (3, 0)
    # flipping one pairing produces the split form (2,1)
    split = dict(quaternionic)
    split[(3, 1)] = (0, -1, 0)
    sig = _reference_signature(_pfaffian_stack(split), 1e-9)
    assert sig.as_tuple() == (2, 1)


def test_signature_of_the_slice_bracket_table_is_the_reference(rng):
    # all six entries of each A_k = -mu_k([X_i, X_j]) from the printed slice
    # frame, leg-leg brackets included, paired with the constraint rows
    frame = horizontal_frame_slice()
    brackets = {(0, j): b for j, b in enumerate(slice_bracket_fields(), start=1)}
    for i in (1, 2, 3):
        for j in range(i + 1, 4):
            brackets[(i, j)] = lie_bracket(frame[i], frame[j])
    assert all(b.is_zero() for (i, _), b in brackets.items() if i > 0)
    for _ in range(10):
        q = random_valid(rng, on_slice=True)
        mu = pfaff_matrix(q)
        A = np.zeros((3, 4, 4))
        for (i, j), b in brackets.items():
            A[:, i, j] = -(mu @ field_at(b, q.values))
            A[:, j, i] = -A[:, i, j]
        assert np.abs(A[:, 0, 1:]).max() > 0.0  # the A_k are not all zero
        assert np.abs(_polarized_pfaffian(A)).max() == 0.0
        sig = _reference_signature(A, mechanism.RANK_TOL).as_tuple()
        assert sig == (0, 0) == pfaffian_signature(q).as_tuple()


def test_degenerate_inputs_raise(q0):
    with pytest.raises(SingularConfiguration):
        pfaffian_signature(Configuration.original(0, 0, math.pi / 2, 0, 1, 1e-12, 1))


# ---------------------------------------------------------------------------
# serialization


def _matrix_from_json(obj):
    return np.array(obj["data"], dtype=float).reshape(obj["shape"])


def test_matrix_serialization_roundtrip(q0):
    g = controllability(q0).gbar
    obj = serialize_matrix(g)
    assert obj["shape"] == [7, 7]
    assert len(obj["data"]) == 49
    assert np.array_equal(_matrix_from_json(obj), g)


# ---------------------------------------------------------------------------
# imports


def test_numeric_analyses_do_not_import_sympy():
    code = ("import sys, trident47\n"
            "loaded = [m for m in sys.modules if m.startswith('trident47.')]\n"
            "assert not loaded, f'import trident47 loaded {loaded}'\n"
            "from trident47 import mechanism\n"
            "q = mechanism.Configuration.original(0.3, -0.2, 1.1, 0.2, 1.2, 0.8, 0.7)\n"
            "mechanism.controllability(q)\n"
            "mechanism.pfaffian_signature(q)\n"
            "mechanism.check_dynamic_pair(q, 2.0)\n"
            "sys.exit('sympy' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
