import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import trident47
from trident47 import artifacts, pmp
from trident47.errors import ZeroHorizontalMomentum
from trident47.mechanism import Configuration, reference_configuration
from trident47.nilpotent import AdaptedPoint, centre, from_adapted, group_identity, to_adapted
from trident47.pmp import (BracketMotionParams, FibreState, SolutionConstants,
                           base_rhs, bracket_displacement, bracket_motion,
                           closed_form_base, example_constants, example_momenta,
                           example_solution, integrate_extremal, random_solution_constants,
                           write_trajectory_csv)

from sympy_forms import nilpotent_frame_matrix
from trajectory_io import read_trajectory_csv, save_solution_constants, tree_bytes

S3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# local oracles: the momentum system, its closed form and arc-length
# normalization as functions of one state, and trajectory equality


def fibre_rhs(h) -> np.ndarray:
    """Right-hand side of the momentum system (it does not depend on the state)."""
    a = h.array if isinstance(h, FibreState) else np.asarray(h, dtype=float)
    return np.array(pmp._fibre_rates(a.tolist()))


def closed_form_fibre(c, t: float) -> FibreState:
    """Exact momenta at time t of the extremal of c (constants or h0)."""
    return FibreState.from_array(pmp.exp_map(pmp._covector(c), t)[7:])


def normalize_arclength(h0: FibreState) -> FibreState:
    """Scale (h1..h4) to unit norm; the bracket momenta are untouched."""
    n = h0.horizontal_norm()
    if n == 0.0:
        raise ZeroHorizontalMomentum("cannot normalize zero horizontal momentum")
    return FibreState(h0.h1 / n, h0.h2 / n, h0.h3 / n, h0.h4 / n, h0.h5, h0.h6, h0.h7)


def same_trajectory(a, b) -> bool:
    """Equal charts and equal times, states, momenta and controls (None only with None)."""
    def same(u, v):
        if u is None or v is None:
            return u is None and v is None
        return u.shape == v.shape and bool(np.all(u == v))
    return a.chart == b.chart and all(same(getattr(a, k), getattr(b, k))
                                      for k in ("times", "states", "momenta", "controls"))


# ---------------------------------------------------------------------------
# right-hand sides


def test_fibre_rhs_without_bracket_momenta_is_static():
    assert np.array_equal(fibre_rhs(FibreState(1, 0, 0, 0, 0, 0, 0)), np.zeros(7))


def test_fibre_rhs_single_coupling():
    out = fibre_rhs(FibreState(1, 0, 0, 0, 1, 0, 0))
    want = np.zeros(7)
    want[1] = 1.0
    assert np.array_equal(out, want)


def test_base_rhs_y_rows_carry_h1_factor(rng):
    for _ in range(10):
        q = rng.uniform(-2, 2, 7)
        h = np.concatenate([[0.0], rng.uniform(-1, 1, 6)])
        out = base_rhs(q, h)
        assert out[0] == 0.0 and np.all(out[4:] == 0.0)


def test_base_rhs_at_origin():
    out = base_rhs(AdaptedPoint(), FibreState(1, 0, 0, 0))
    assert np.array_equal(out, np.array([1, 0, 0, 0, 1, 1, 1], dtype=float))


def test_base_rhs_is_frame_combination(rng):
    for _ in range(20):
        q = rng.uniform(-2, 2, 7)
        h = rng.uniform(-1, 1, 7)
        want = h[:4] @ nilpotent_frame_matrix(q)
        assert np.abs(base_rhs(q, h) - want).max() < 1e-12


def test_rhs_halves_match_reference_equations(rng):
    # base_rhs and fibre_rhs are the halves of the one Hamiltonian system
    for _ in range(10):
        q, h = rng.uniform(-2, 2, 7), rng.uniform(-1, 1, 7)
        want = _reference_hamiltonian_rhs(np.concatenate([q, h]))
        assert np.array_equal(base_rhs(q, h), want[:7])
        assert np.array_equal(fibre_rhs(h), want[7:])


# ---------------------------------------------------------------------------
# the one integrator, against the loops it replaced (kept here bit for bit)


def _reference_hamiltonian_rhs(y):
    out = np.empty_like(y)
    x, l1, l2, l3 = y[..., 0], y[..., 1], y[..., 2], y[..., 3]
    h1, h2, h3, h4 = y[..., 7], y[..., 8], y[..., 9], y[..., 10]
    h5, h6, h7 = y[..., 11], y[..., 12], y[..., 13]
    out[..., 0] = h1
    out[..., 1] = h2
    out[..., 2] = h3
    out[..., 3] = h4
    out[..., 4] = (1.0 + S3 / 2.0 * x - l1) * h1
    out[..., 5] = (1.0 - l2) * h1
    out[..., 6] = (1.0 - S3 / 2.0 * x - l3) * h1
    out[..., 7] = -h5 * h2 - h6 * h3 - h7 * h4
    out[..., 8] = h5 * h1
    out[..., 9] = h6 * h1
    out[..., 10] = h7 * h1
    out[..., 11] = 0.0
    out[..., 12] = 0.0
    out[..., 13] = 0.0
    return out


def _reference_rk4_path(y0, n, h):
    path = np.empty((n + 1,) + y0.shape)
    path[0] = y0
    y = y0
    for k in range(n):
        k1 = _reference_hamiltonian_rhs(y)
        k2 = _reference_hamiltonian_rhs(y + 0.5 * h * k1)
        k3 = _reference_hamiltonian_rhs(y + 0.5 * h * k2)
        k4 = _reference_hamiltonian_rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        path[k + 1] = y
    return path


def _reference_nilpotent_frame(q):
    F = np.zeros((4, 7))
    F[0, 0] = 1.0
    F[0, 4] = 1.0 + S3 / 2.0 * q[0] - q[1]
    F[0, 5] = 1.0 - q[2]
    F[0, 6] = 1.0 - S3 / 2.0 * q[0] - q[3]
    F[1, 1] = F[2, 2] = F[3, 3] = 1.0
    return F


def _reference_controls(params, t):
    u = np.zeros(4)
    u[0] = -params.amplitude * params.omega * math.sin(params.omega * t)
    u[params.partner - 1] = params.amplitude * params.omega * math.cos(params.omega * t)
    return u


def _reference_gait(params, system, q_start):
    from trident47.mechanism import Configuration, controllability

    if system == "nilpotent":
        def rhs(t, q):
            return _reference_controls(params, t) @ _reference_nilpotent_frame(q)
    else:
        def rhs(t, q):
            return (_reference_controls(params, t)
                    @ controllability(Configuration("original", tuple(q))).gbar[:4])
    n = params.steps_per_cycle * params.cycles
    h = params.period / params.steps_per_cycle
    times = np.linspace(0.0, params.cycles * params.period, n + 1)
    states = np.empty((n + 1, 7))
    controls = np.empty((n + 1, 4))
    states[0] = q_start.array
    controls[0] = _reference_controls(params, 0.0)
    y = q_start.array
    for k in range(n):
        t = times[k]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k + 1] = y
        controls[k + 1] = _reference_controls(params, times[k + 1])
    return times, states, controls


def _assert_same_bits(a, b):
    # np.array_equal has -0.0 == 0.0, but the CSV writes "-0" and "0"
    assert np.array_equal(a, b) and np.asarray(a).tobytes() == np.asarray(b).tobytes()


# a covector with K = 0 and a start point whose signed zeros survive in l1 and l3:
# with h1 < 0 and h5 = h7 = +0.0, h2 = h4 = -0.0 and their rates stay -0.0 at every stage
_SIGNED_ZEROS_H0 = np.array([-0.6, -0.0, 0.8, -0.0, 0.0, -0.0, 0.0])
_SIGNED_ZEROS_Q0 = np.array([-0.0, -0.0, 0.0, -0.0, -0.0, 0.0, -0.0])
# K = 0 with h5 = h6 = h7 = -0.0, which only step 0's k1 reads raw: with h1 < 0, h2 and h4
# (-0.0) get a +0.0 rate there and -0.0 rates at every later stage, so they read +0.0
# from row 1 on; had that k1 read +0.0 brackets, they would stay -0.0
_NEGATIVE_BRACKETS_H0 = np.array([-0.8, -0.0, 0.6, -0.0, -0.0, -0.0, -0.0])


def _assert_negative_brackets_path(momenta):
    # h5..h7 keep -0.0 in row 0 and read +0.0 from row 1 on, as h2 and h4 do
    assert np.signbit(momenta[0, [1, 3, 4, 5, 6]]).all()
    assert not np.signbit(momenta[1:, [1, 3, 4, 5, 6]]).any()
    assert not momenta[:, 4:].any()


@pytest.mark.parametrize("seed", [1, 2, 3, "signed-zeros", "negative-brackets"])
def test_integrate_extremal_is_the_reference_rk4_bit_for_bit(seed):
    if seed == "signed-zeros":
        h0, q0 = FibreState.from_array(_SIGNED_ZEROS_H0), AdaptedPoint.from_array(_SIGNED_ZEROS_Q0)
    elif seed == "negative-brackets":
        h0, q0 = FibreState.from_array(_NEGATIVE_BRACKETS_H0), group_identity()
    else:
        rng = np.random.default_rng(seed)
        h0 = FibreState.from_array(rng.uniform(-1, 1, 7))
        q0 = AdaptedPoint.from_array(rng.uniform(-1, 1, 7))
    traj = integrate_extremal(h0, q0, T=1.3, dt=0.01)
    path = _reference_rk4_path(np.concatenate([q0.array, h0.array]), 130, 1.3 / 130)
    _assert_same_bits(traj.times, np.linspace(0.0, 1.3, 131))
    _assert_same_bits(traj.states, path[:, :7])
    _assert_same_bits(traj.momenta, path[:, 7:])
    if seed == "signed-zeros":
        assert np.signbit(traj.states[:, [1, 3]]).all()
    if seed == "negative-brackets":
        _assert_negative_brackets_path(traj.momenta)


def test_integrate_extremal_batch_is_the_reference_rk4_bit_for_bit(rng):
    h0s, q0s = rng.uniform(-1, 1, (4, 7)), rng.uniform(-1, 1, (4, 7))
    h0s = np.vstack([h0s, _SIGNED_ZEROS_H0, _NEGATIVE_BRACKETS_H0])
    q0s = np.vstack([q0s, _SIGNED_ZEROS_Q0, np.zeros(7)])
    times, states, momenta = pmp.integrate_extremal_batch(h0s, q0s, T=0.7, dt=0.01)
    path = np.swapaxes(_reference_rk4_path(np.concatenate([q0s, h0s], axis=1), 70, 0.01), 0, 1)
    _assert_same_bits(times, np.linspace(0.0, 0.7, 71))
    _assert_same_bits(states, path[:, :, :7])
    _assert_same_bits(momenta, path[:, :, 7:])
    assert np.signbit(states[4, :, [1, 3]]).all()
    _assert_negative_brackets_path(momenta[-1])


@pytest.mark.parametrize("system", ["nilpotent", "original"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_bracket_motion_is_the_reference_gait_bit_for_bit(system, seed):
    from trident47.mechanism import Configuration, reference_configuration
    from trident47.nilpotent import to_adapted

    rng = np.random.default_rng(seed)
    if seed == 3:  # several cycles: stage times shared across steps and across cycles
        params = BracketMotionParams(amplitude=0.2, omega=2.5, partner=4, cycles=3,
                                     steps_per_cycle=150)
    else:
        params = BracketMotionParams(amplitude=rng.uniform(0.05, 0.4), omega=rng.uniform(0.1, 1.0),
                                     partner=int(rng.integers(2, 5)),
                                     cycles=int(rng.integers(1, 3)), steps_per_cycle=150)
    q = Configuration.original(*(np.array(reference_configuration().values)
                                 + rng.uniform(-0.1, 0.1, 7)))
    start = to_adapted(q) if system == "nilpotent" else q
    traj = pmp.drive(start, params.controls, params.grid)
    times, states, controls = _reference_gait(params, system, start)
    _assert_same_bits(traj.times, times)
    _assert_same_bits(traj.states, states)
    _assert_same_bits(traj.controls, controls)


@pytest.mark.parametrize("n", [1023, 1024, 1025, 2100])
def test_array_passes_are_the_reference_across_block_edges(n):
    # the fibre and base systems and the original gait run in blocks of
    # pmp._BLOCK_SAMPLES samples (1024 steps of one path, 256 of a batch of 4), each
    # carrying on from the last row of the one before
    h0, q0 = example_momenta(3), AdaptedPoint.from_array(np.linspace(-0.3, 0.3, 7))
    for h0_, q0_ in ((h0, q0), (FibreState.from_array(_NEGATIVE_BRACKETS_H0), q0)):
        traj = integrate_extremal(h0_, q0_, T=n * 1e-3, dt=1e-3)
        path = _reference_rk4_path(np.concatenate([q0_.array, h0_.array]), n,
                                   traj.diagnostics.dt)
        _assert_same_bits(traj.states, path[:, :7])
        _assert_same_bits(traj.momenta, path[:, 7:])
    _assert_negative_brackets_path(traj.momenta)

    h0s = np.stack([h0.array, _SIGNED_ZEROS_H0, example_momenta(2).array, _NEGATIVE_BRACKETS_H0])
    q0s = np.stack([q0.array, _SIGNED_ZEROS_Q0, -q0.array, q0.array])
    _, states, momenta = pmp.integrate_extremal_batch(h0s, q0s, T=n * 1e-3, dt=1e-3)
    path = np.swapaxes(_reference_rk4_path(np.concatenate([q0s, h0s], axis=1), n,
                                           traj.diagnostics.dt), 0, 1)
    _assert_same_bits(states, path[:, :, :7])
    _assert_same_bits(momenta, path[:, :, 7:])
    _assert_negative_brackets_path(momenta[-1])

    from trident47.mechanism import Configuration, reference_configuration

    params = BracketMotionParams(amplitude=0.3, omega=1.5, partner=3, steps_per_cycle=n)
    original = Configuration.original(*(np.array(reference_configuration().values)
                                        + np.linspace(0.2, -0.2, 7)))
    for system, start in (("nilpotent", AdaptedPoint.from_array(np.linspace(0.2, -0.2, 7))),
                          ("original", original)):
        gait = pmp.drive(start, params.controls, params.grid)
        _, states, controls = _reference_gait(params, system, start)
        _assert_same_bits(gait.states, states)
        _assert_same_bits(gait.controls, controls)


@pytest.mark.parametrize("system", ["nilpotent", "original"])
def test_gait_controls_are_one_array_call_per_block(system):
    # the controls column is one call on the grid; each block of pmp._BLOCK_SAMPLES
    # steps adds one call at the midpoints (k2 and k3) and one at t + h (k4)
    calls = []

    def counted(t):
        calls.append(t)
        return params.controls(t)

    params = BracketMotionParams(amplitude=0.2, omega=2.5, partner=4, cycles=3,
                                 steps_per_cycle=700)
    q = reference_configuration()
    traj = pmp.drive(to_adapted(q) if system == "nilpotent" else q, counted, params.grid)
    n = params.cycles * params.steps_per_cycle
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert len(calls) == 1 + 2 * math.ceil(n / pmp._BLOCK_SAMPLES) == 7
    _assert_same_bits(traj.controls, params.controls(traj.times).T)


def test_gait_steers_the_nilpotent_system_along_an_extremal():
    # controls given as h1..h4 of exp_map drive the nilpotent system along that extremal
    h0 = np.array([0.6, -0.3, 0.5, 0.2, 0.7, -0.4, 0.9])

    def extremal(t):
        return np.moveaxis(pmp.exp_map(h0, t)[..., 7:11], -1, 0)

    traj = pmp.drive(AdaptedPoint(), extremal,
                     BracketMotionParams(omega=2.0 * math.pi, steps_per_cycle=2000).grid)
    path = pmp.exp_map(h0, traj.times)
    assert np.abs(traj.states - path[:, :7]).max() <= 1e-9
    assert np.array_equal(traj.controls, path[:, 7:11])


# ---------------------------------------------------------------------------
# closed forms


def test_initial_fibre_state_keeps_tiny_bracket_momenta():
    # K = |(C5, C6, C7)| must not underflow to 0, which would drop C12
    h0 = SolutionConstants(C5=1e-200, C11=1.0, C12=1.0).initial_fibre_state()
    assert h0 == FibreState(1.0, -1.0, 0.0, 0.0, 1e-200, 0.0, 0.0)


def test_example3_constants_give_unit_frequency():
    c = example_constants(3)
    assert c.K == pytest.approx(1.0, abs=1e-15)
    assert c.consistency_residual() == 0.0


def test_k_zero_branch_reproduces_example1_controls():
    c = SolutionConstants(C11=0.7, C13=0.5, C14=0.5, C15=0.1)
    h = closed_form_fibre(c, 1.7)
    assert (h.h1, h.h2, h.h3, h.h4) == (0.7, 0.5, 0.5, 0.1)


def test_closed_form_fibre_satisfies_ode(rng):
    # independent oracle: central finite difference of the closed form
    eps = 1e-6
    for _ in range(100):
        c = random_solution_constants(rng)
        t = rng.uniform(0.0, 2.0 * math.pi)
        hplus = closed_form_fibre(c, t + eps).array
        hminus = closed_form_fibre(c, t - eps).array
        fd = (hplus - hminus) / (2.0 * eps)
        rhs = fibre_rhs(closed_form_fibre(c, t))
        assert np.abs(fd - rhs).max() < 1e-7


def test_closed_form_requires_consistency():
    # inconsistent constants (C5*C13 + C6*C14 + C7*C15 != 0) still name one
    # extremal, that of initial_fibre_state(): the closed form solves the ODE
    # and follows RK4, but its h1 is not the C-form C11 cos Kt + C12 sin Kt
    c = SolutionConstants(C5=1.0, C11=0.5, C12=0.5, C13=0.3, C14=0.0, C15=0.0)
    assert c.consistency_residual() != 0.0
    eps = 1e-6
    t = 0.9
    fd = (closed_form_fibre(c, t + eps).array - closed_form_fibre(c, t - eps).array) / (2 * eps)
    rhs = fibre_rhs(closed_form_fibre(c, t))
    assert np.abs(fd - rhs).max() < 1e-7
    ode = integrate_extremal(c.initial_fibre_state(), group_identity(), T=2.0, dt=1e-3)
    closed = pmp.closed_form_trajectory(c, T=2.0, dt=1e-3)
    assert np.abs(closed.states - ode.states).max() < 1e-12
    assert np.abs(closed.momenta - ode.momenta).max() < 1e-12
    c_form = c.C11 * np.cos(c.K * ode.times) + c.C12 * np.sin(c.K * ode.times)
    assert np.abs(closed.momenta[:, 0] - c_form).max() > 1e-3


def test_closed_form_base_examples():
    # example 1: linear motion
    c1 = example_constants(1)
    p = closed_form_base(c1, 2.0)
    assert p.x == pytest.approx(1.4, abs=1e-14)
    assert (p.l1, p.l2, p.l3) == pytest.approx((1.0, 1.0, 0.2), abs=1e-14)
    # example 2: l1 = sin t / 2 - cos t / 2 + 1/2
    c2 = example_constants(2)
    t = 1.3
    p = closed_form_base(c2, t)
    assert p.x == pytest.approx(0.5 * math.sin(t) + 0.5 * math.cos(t) - 0.5, abs=1e-13)
    assert p.l1 == pytest.approx(0.5 * math.sin(t) - 0.5 * math.cos(t) + 0.5, abs=1e-13)
    assert p.l2 == pytest.approx(0.5 * t, abs=1e-13)
    # example 3: x = -(sqrt(10)/4) sin t, l1 = (sqrt(30)/12)(cos t - 1) + t/2
    c3 = example_constants(3)
    p = closed_form_base(c3, t)
    assert p.x == pytest.approx(-math.sqrt(10.0) / 4.0 * math.sin(t), abs=1e-13)
    assert p.l1 == pytest.approx(math.sqrt(30.0) / 12.0 * (math.cos(t) - 1.0) + 0.5 * t,
                                 abs=1e-13)


def _y_closed_form_sym(C, t, K):
    """The closed form of (x, h1, l1..l3, y1..y3), typed out independently.

    K is None on the constant-controls branch; otherwise a positive symbol
    or number standing for sqrt(C5^2 + C6^2 + C7^2).
    """
    import sympy as sp

    a = (C["C5"], C["C6"], C["C7"])
    b = (C["C13"], C["C14"], C["C15"])
    if K is None:
        x, h1 = C["C11"] * t, C["C11"]
        legs = [bk * t for bk in b]
        work = [bk * C["C11"] * t**2 / 2 for bk in b]
    else:
        s, co = sp.sin(K * t), sp.cos(K * t)
        x = (C["C11"] * s - C["C12"] * co + C["C12"]) / K
        h1 = C["C11"] * co + C["C12"] * s
        hump = C["C11"] - C["C11"] * co - C["C12"] * s
        legs = [ak / K**2 * hump + bk * t for ak, bk in zip(a, b)]
        h1_sq = ((C["C11"]**2 + C["C12"]**2) * t / 2
                 + (C["C11"]**2 - C["C12"]**2) * sp.sin(2 * K * t) / (4 * K)
                 + C["C11"] * C["C12"] * (1 - sp.cos(2 * K * t)) / (2 * K))
        x_int = (C["C11"] * (1 - co) - C["C12"] * s) / K**2 + C["C12"] * t / K
        work = [ak / K**2 * (C["C11"] * x - h1_sq) + bk * (t * x - x_int)
                for ak, bk in zip(a, b)]
    bump = sp.sqrt(3) * x**2 / 4
    ys = [x + bump - work[0], x - work[1], x - bump - work[2]]
    return x, h1, legs, ys


@pytest.mark.parametrize("branch", ["oscillating", "constant-controls"])
def test_closed_form_y_certificate(branch):
    import sympy as sp

    t = sp.Symbol("t", real=True)
    C = {k: sp.Symbol(k, real=True)
         for k in ("C5", "C6", "C7", "C11", "C12", "C13", "C14", "C15")}
    K = sp.Symbol("K", positive=True) if branch == "oscillating" else None
    x, h1, legs, ys = _y_closed_form_sym(C, t, K)
    assert sp.simplify(sp.diff(x, t) - h1) == 0
    # y1' = (1 + sqrt(3)x/2 - l1) h1, y2' = (1 - l2) h1, y3' = (1 - sqrt(3)x/2 - l3) h1
    slopes = (1 + sp.sqrt(3) * x / 2, 1, 1 - sp.sqrt(3) * x / 2)
    for y, slope, leg in zip(ys, slopes, legs):
        assert sp.simplify(sp.expand_trig(sp.diff(y, t) - (slope - leg) * h1)) == 0
        assert sp.simplify(y.subs(t, 0)) == 0

    # the implementation evaluates the same formula
    rng = np.random.default_rng(11)
    for _ in range(10):
        c = random_solution_constants(rng)
        if K is None:
            c = SolutionConstants(C11=c.C11, C13=c.C13, C14=c.C14, C15=c.C15)
        vals = {C[k]: v for k, v in c.to_json().items()}
        if K is not None:
            vals[K] = c.K
        tv = float(rng.uniform(0.0, 2.0 * math.pi))
        want = [float(e.subs(vals).subs(t, tv)) for e in [x, *legs, *ys]]
        assert np.abs(closed_form_base(c, tv).array - want).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_closed_form_base_reproduces_printed_examples(n):
    c = example_constants(n)
    for t in np.linspace(0.0, 2.0 * math.pi, 41):
        got = from_adapted(closed_form_base(c, float(t))).array
        assert np.abs(got - example_solution(n, float(t)).array).max() < 1e-12


# ---------------------------------------------------------------------------
# the exponential map: one entire formula of the covector


_DIRECTION = np.array([0.48, -0.6, 0.64])  # a unit vector, exactly in decimals


def test_stumpff_functions_match_a_60_digit_series():
    # c_k(z) = sum_n (-z)^n / (k + 2n)!, summed in mpmath; the error is scaled by c_k(0) = 1/k!
    import mpmath

    z = np.concatenate([[0.0], np.logspace(-12, 3, 300), np.linspace(3.0, 5.0, 41)])
    got = pmp._stumpff(z)
    for k in range(6):
        want = []
        with mpmath.workdps(60):
            for zv in z:
                total, term, n = mpmath.mpf(0), 1 / mpmath.factorial(k), 0
                while abs(term) > mpmath.mpf(10) ** -70 or n < 6:
                    total, n = total + term, n + 1
                    term *= -mpmath.mpf(zv) / ((k + 2 * n - 1) * (k + 2 * n))
                want.append(float(total))
        assert np.abs(got[k] - np.array(want)).max() * math.factorial(k) <= 4e-15


@pytest.mark.parametrize("K", [1e-2, 1e-4, 1e-6, 1e-8, 0.0])
def test_closed_form_matches_rk4_as_k_goes_to_zero(K):
    # the K > 0 formula in C divided by K^2: 3.4e-9 at K = 1e-4, 0.25 at 1e-8
    c = SolutionConstants(*(K * _DIRECTION), C11=0.6, C12=0.3, C13=0.8, C14=0.64, C15=0.0)
    ode = integrate_extremal(c.initial_fibre_state(), group_identity(), T=2.0, dt=1e-3)
    closed = pmp.closed_form_trajectory(c, T=2.0, dt=1e-3)
    assert np.array_equal(closed.times, ode.times)
    assert np.abs(closed.states - ode.states).max() <= 1e-12
    assert np.abs(closed.momenta - ode.momenta).max() <= 1e-12
    path = pmp.exp_map(c.initial_fibre_state().array, ode.times)
    assert np.array_equal(path, np.hstack([closed.states, closed.momenta]))
    by_covector = pmp.closed_form_trajectory(c.initial_fibre_state(), T=2.0, dt=1e-3)
    assert same_trajectory(by_covector, closed)


def test_exp_map_is_continuous_into_k_zero():
    # along a fixed direction of b the extremal tends to the K = 0 one, linearly in K
    h0 = np.array([0.6, 0.3, -0.5, 0.2, 0.0, 0.0, 0.0])
    t = np.linspace(0.0, 3.0, 31)
    straight = pmp.exp_map(h0, t)
    x = 0.6 * t
    legs = np.outer(t, h0[1:4])
    ys = np.stack(centre(x), axis=-1) - np.outer(0.6 * t * t / 2.0, h0[1:4])
    assert np.abs(straight[:, :7] - np.column_stack([x, legs, ys])).max() < 1e-15
    assert np.array_equal(straight[:, 7:], np.tile(h0, (31, 1)))
    for K in 10.0 ** -np.arange(1, 16):
        bent = pmp.exp_map(np.concatenate([h0[:4], K * _DIRECTION]), t)
        assert np.abs(bent - straight).max() <= 10.0 * K


def _reference_closed_form_states(c, t):
    """The constants' closed form on K > 0, kept from before ``exp_map`` (x, l, y at t)."""
    K = c.K
    bracket = np.array([c.C5, c.C6, c.C7])
    affine = np.array([c.C13, c.C14, c.C15])
    s, co = np.sin(K * t), np.cos(K * t)
    x = c.C11 / K * s - c.C12 / K * co + c.C12 / K
    hump = c.C11 - c.C11 * co - c.C12 * s
    legs = bracket / K**2 * hump[..., None] + affine * t[..., None]
    h1_sq = ((c.C11**2 + c.C12**2) * t / 2.0 + (c.C11**2 - c.C12**2) * s * co / (2.0 * K)
             + c.C11 * c.C12 * s * s / K)
    x_int = (c.C11 * (1.0 - co) - c.C12 * s) / K**2 + c.C12 * t / K
    leg_work = (bracket / K**2 * (c.C11 * x - h1_sq)[..., None]
                + affine * (t * x - x_int)[..., None])
    return np.concatenate([x[..., None], legs, np.stack(centre(x), axis=-1) - leg_work], axis=-1)


def test_exp_map_matches_the_constants_closed_form(rng):
    t = np.linspace(0.0, 2.0 * math.pi, 41)
    worst = 0.0
    for _ in range(100):
        c = random_solution_constants(rng, 0.05, 3.0)
        got = pmp.exp_map(c.initial_fibre_state().array, t)
        osc = c.C11 * np.sin(c.K * t) - c.C12 * np.cos(c.K * t)
        momenta = np.column_stack([c.C11 * np.cos(c.K * t) + c.C12 * np.sin(c.K * t),
                                   *(ck / c.K * osc + ak for ck, ak in
                                     ((c.C5, c.C13), (c.C6, c.C14), (c.C7, c.C15))),
                                   *np.broadcast_arrays(c.C5, c.C6, c.C7, t)[:3]])
        worst = max(worst, np.abs(got[:, :7] - _reference_closed_form_states(c, t)).max(),
                    np.abs(got[:, 7:] - momenta).max())
    assert worst <= 1e-12


def _hamiltonian_jacobian(y):
    """d(_reference_hamiltonian_rhs)/dy, a 14x14 matrix written out by hand."""
    x, l1, l2, l3 = y[:4]
    h1, h2, h3, h4, h5, h6, h7 = y[7:]
    D = np.zeros((14, 14))
    D[0, 7] = D[1, 8] = D[2, 9] = D[3, 10] = 1.0
    D[4, [0, 1, 7]] = (S3 / 2.0 * h1, -h1, 1.0 + S3 / 2.0 * x - l1)
    D[5, [2, 7]] = (-h1, 1.0 - l2)
    D[6, [0, 3, 7]] = (-S3 / 2.0 * h1, -h1, 1.0 - S3 / 2.0 * x - l3)
    D[7, 8:] = (-h5, -h6, -h7, -h2, -h3, -h4)
    D[8, [7, 11]] = (h5, h1)
    D[9, [7, 12]] = (h6, h1)
    D[10, [7, 13]] = (h7, h1)
    return D


def _variational_rk4(h0, T, n):
    """RK4 of the extremal from the origin and of its variational equation J' = D J."""
    y = np.concatenate([np.zeros(7), h0])
    J = np.vstack([np.zeros((7, 7)), np.eye(7)])
    h = T / n

    def rhs(v, M):
        return _reference_hamiltonian_rhs(v), _hamiltonian_jacobian(v) @ M

    for _ in range(n):
        k1 = rhs(y, J)
        k2 = rhs(y + 0.5 * h * k1[0], J + 0.5 * h * k1[1])
        k3 = rhs(y + 0.5 * h * k2[0], J + 0.5 * h * k2[1])
        k4 = rhs(y + h * k3[0], J + h * k3[1])
        y = y + h / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        J = J + h / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    return y, J


@pytest.mark.parametrize("kind", ["generic", "small K", "K = 0"])
def test_complex_step_jacobian_matches_the_variational_equation(kind):
    rng = np.random.default_rng(7)
    h0 = rng.uniform(-1.0, 1.0, 7)
    h0[4:] *= {"generic": 1.5, "small K": 1e-7, "K = 0": 0.0}[kind]
    T = 1.5
    step = 1e-30
    J = pmp.exp_map(h0 + step * 1j * np.eye(7), T).imag.T / step
    y, J_ode = _variational_rk4(h0, T, 1500)
    assert np.abs(pmp.exp_map(h0, T) - y).max() < 1e-12
    assert np.abs(J - J_ode).max() <= 1e-8


def test_exp_map_complex_input_gives_the_real_floats(rng):
    h0s = rng.uniform(-1.0, 1.0, (24, 7))
    h0s[8:16, 4:] *= 1e-5
    h0s[16:, 4:] = 0.0
    t = np.linspace(0.0, 4.0, 9)[:, None]
    real = pmp.exp_map(h0s, t)
    assert real.shape == (9, 24, 14) and real.dtype == np.float64
    cplx = pmp.exp_map(h0s.astype(complex), t)
    assert np.array_equal(cplx.real, real) and np.all(cplx.imag == 0.0)


# ---------------------------------------------------------------------------
# integration


def test_closed_form_trajectory_grid():
    c = example_constants(2)
    ct = pmp.closed_form_trajectory(c, T=2.0, dt=0.05)
    ode = integrate_extremal(c.initial_fibre_state(), group_identity(), T=2.0, dt=1e-3)
    for i in range(0, len(ct), 8):
        j = int(round(ct.times[i] / ode.diagnostics.dt))
        assert np.abs(ct.states[i] - ode.states[j]).max() < 1e-8
    assert np.array_equal(ct.controls, ct.momenta[:, :4])


def test_constant_controls_give_straight_lines():
    h0 = FibreState(0.6, 0.8, 0.0, 0.0)
    traj = integrate_extremal(h0, group_identity(), T=2.0, dt=1e-3)
    c = SolutionConstants(C11=0.6, C13=0.8)
    worst = 0.0
    for i in range(0, len(traj), 200):
        ref = closed_form_base(c, float(traj.times[i]))
        worst = max(worst, np.abs(ref.array - traj.states[i]).max())
    assert worst < 1e-9


def test_example2_integration_matches_closed_form():
    c = example_constants(2)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(),
                              T=2.0 * math.pi, dt=1e-3)
    worst = 0.0
    for i in range(0, len(traj), 500):
        ref = closed_form_base(c, float(traj.times[i]))
        worst = max(worst, np.abs(ref.array - traj.states[i]).max())
    assert worst < 1e-6


def test_energy_and_casimirs_conserved():
    c = example_constants(3)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(),
                              T=2.0 * math.pi, dt=1e-3)
    assert traj.diagnostics.h_drift_max < 1e-8
    assert traj.diagnostics.casimir_drift == 0.0
    assert not traj.diagnostics.step_too_large


def test_step_too_large_flag():
    h0 = FibreState(0.5, 0.5, 0.5, 0.5, 3.0, -2.0, 1.0)
    traj = integrate_extremal(h0, group_identity(), T=6.0, dt=0.75)
    assert traj.diagnostics.step_too_large


def test_closed_form_matches_ode_for_50_random_constants(rng):
    consts = [random_solution_constants(rng, 0.05, 3.0) for _ in range(50)]
    h0s = np.stack([c.initial_fibre_state().array for c in consts])
    T = 2.0 * math.pi
    times, states, _ = pmp.integrate_extremal_batch(h0s, np.zeros((50, 7)), T, 1e-3)
    check_idx = range(0, len(times), 628)
    worst = 0.0
    for b, c in enumerate(consts):
        for i in check_idx:
            ref = closed_form_base(c, float(times[i]))
            worst = max(worst, float(np.abs(ref.array - states[b, i]).max()))
    assert worst < 1e-6


def _heisenberg_fibre(h1, h2, h5, T, dt):
    """Independent 3-dim oracle: h1' = -h5 h2, h2' = h5 h1, h5' = 0 (RK4)."""
    n = int(round(T / dt))
    out = np.empty((n + 1, 3))
    y = np.array([h1, h2, h5])
    out[0] = y

    def rhs(v):
        return np.array([-v[2] * v[1], v[2] * v[0], 0.0])

    h = T / n
    for k in range(n):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + h / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
        out[k + 1] = y
    return out


def test_heisenberg_reduction():
    # with h6 = h7 = 0 the (h1, h2, h5) block must evolve exactly like the
    # standalone Heisenberg fibre system
    h0 = FibreState(0.6, -0.3, 0.6, 0.4, 1.3, 0.0, 0.0)
    traj = integrate_extremal(h0, group_identity(), T=3.0, dt=1e-3)
    oracle = _heisenberg_fibre(0.6, -0.3, 1.3, 3.0, 1e-3)
    mine = traj.momenta[:, [0, 1, 4]]
    assert np.abs(mine - oracle).max() < 1e-10
    # and h3, h4 stay constant
    assert np.abs(traj.momenta[:, 2] - 0.6).max() < 1e-14
    assert np.abs(traj.momenta[:, 3] - 0.4).max() < 1e-14


# ---------------------------------------------------------------------------
# normalization and momenta


def test_normalize_scales_horizontal_block():
    h = normalize_arclength(FibreState(2.0, 0, 0, 0, 0.7, 0, 0))
    assert (h.h1, h.h5) == (1.0, 0.7)


def test_example_momenta_are_unit():
    # hand sums: 0.49 + 0.25 + 0.25 + 0.01 = 1 and 5/8 + 3/8 = 1
    m1 = example_momenta(1)
    assert m1.h1**2 + m1.h2**2 + m1.h3**2 + m1.h4**2 == pytest.approx(1.0, abs=1e-15)
    assert normalize_arclength(m1) == m1
    m3 = example_momenta(3)
    assert m3.horizontal_norm() == pytest.approx(1.0, abs=1e-15)
    assert m3.h1**2 == pytest.approx(5.0 / 8.0, abs=1e-15)


def test_normalize_rejects_zero():
    with pytest.raises(ZeroHorizontalMomentum):
        normalize_arclength(FibreState(0, 0, 0, 0, 1.0, 0, 0))


def test_examples_arclength_identity_symbolic():
    # |h(t)|^2 == 1 identically, not only at t = 0
    import sympy as sp

    t = sp.symbols("t", real=True)
    for n in (1, 2, 3):
        c = example_constants(n)
        consts = {k: sp.nsimplify(getattr(c, k), [sp.sqrt(10), sp.sqrt(3)])
                  for k in ("C5", "C6", "C7", "C11", "C12", "C13", "C14", "C15")}
        K = sp.sqrt(consts["C5"]**2 + consts["C6"]**2 + consts["C7"]**2)
        if K == 0:
            hs = [consts["C11"], consts["C13"], consts["C14"], consts["C15"]]
        else:
            osc = consts["C11"] * sp.sin(K * t) - consts["C12"] * sp.cos(K * t)
            hs = [consts["C11"] * sp.cos(K * t) + consts["C12"] * sp.sin(K * t),
                  consts["C5"] / K * osc + consts["C13"],
                  consts["C6"] / K * osc + consts["C14"],
                  consts["C7"] / K * osc + consts["C15"]]
        norm2 = sp.simplify(sum(h**2 for h in hs))
        assert norm2 == 1


# ---------------------------------------------------------------------------
# printed example solutions


def test_example1_phi_value():
    q = example_solution(1, 1.0)
    assert q.values[3] == pytest.approx(371.0 / 200.0, abs=1e-15)  # phi


def test_examples_start_at_origin():
    for n in (1, 2, 3):
        assert np.abs(example_solution(n, 0.0).array).max() < 1e-15


def test_example3_at_pi():
    q = example_solution(3, math.pi)
    assert abs(q.values[0]) < 1e-12  # x
    assert q.values[4] == pytest.approx(math.sqrt(30.0) / 12.0 * (-2.0) + math.pi / 2.0,  # l1
                                        abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_integrated_extremals_reproduce_examples(n):
    c = example_constants(n)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(),
                              T=2.0 * math.pi, dt=1e-3).to_original()
    worst = 0.0
    for i in range(0, len(traj), 157):
        ref = example_solution(n, float(traj.times[i]))
        worst = max(worst, np.abs(ref.array - traj.states[i]).max())
    assert worst < 1e-6
    # erratum guard: the printed formulas and the integrated system agree
    # far below the acceptance tolerance, so no constant-offset fix is needed
    assert worst < 1e-9


# ---------------------------------------------------------------------------
# bracket motions


def test_bracket_motion_area_rule():
    traj = bracket_motion(BracketMotionParams(), "nilpotent")
    d = bracket_displacement(traj)
    assert np.abs(d[[0, 1, 2, 3, 5, 6]]).max() < 1e-9
    assert d[4] == pytest.approx(math.pi * 0.16, abs=1e-6)


def test_bracket_motion_partner_three_moves_y2():
    traj = bracket_motion(BracketMotionParams(partner=3), "nilpotent")
    d = bracket_displacement(traj)
    assert d[5] == pytest.approx(math.pi * 0.16, abs=1e-6)
    assert np.abs(d[[0, 1, 2, 3, 4, 6]]).max() < 1e-9


def test_bracket_motion_two_cycles_doubles():
    one = bracket_displacement(bracket_motion(BracketMotionParams(), "nilpotent"))
    two = bracket_displacement(bracket_motion(BracketMotionParams(cycles=2), "nilpotent"))
    assert np.abs(two - 2.0 * one).max() < 1e-9


def test_bracket_motion_amplitude_to_zero():
    d = bracket_displacement(bracket_motion(BracketMotionParams(amplitude=1e-3), "nilpotent"))
    assert np.linalg.norm(d) < 1e-5


def test_original_gait_moves_along_bracket_direction():
    # scaled by 1/(pi A^2), the net original-chart displacement approaches
    # the bracket field [X1,X2] at the start point, with O(A) relative error
    from sympy_forms import field_at, slice_bracket_fields
    from trident47 import mechanism

    q0 = mechanism.reference_configuration()
    x12 = field_at(slice_bracket_fields()[0], q0.values)
    errs = []
    for A in (0.1, 0.05):
        traj = bracket_motion(BracketMotionParams(amplitude=A), "original")
        scaled = traj.displacement() / (math.pi * A * A)
        errs.append(np.linalg.norm(scaled - x12) / np.linalg.norm(x12))
    assert errs[-1] < 0.1
    assert errs[1] < 0.7 * errs[0]


def test_original_gait_raises_when_leg_collapses():
    from trident47.errors import SingularConfiguration
    from trident47.mechanism import Configuration

    start = Configuration.original(0, 0, math.pi / 2, 0, 1.0, 0.05, 1.0)
    params = BracketMotionParams(amplitude=0.4, partner=3)
    with pytest.raises(SingularConfiguration):
        pmp.drive(start, params.controls, params.grid)


def test_original_gait_raises_when_span_collapses():
    # L = l1 + l3 + 2 runs from 0.1 to -0.2 while l2 stays at 1
    from trident47.errors import SingularConfiguration
    from trident47.mechanism import Configuration

    start = Configuration.original(0, 0, math.pi / 2, 0, -0.95, 1.0, -0.95)
    params = BracketMotionParams(amplitude=0.3, partner=2)
    with pytest.raises(SingularConfiguration, match="L = l1 \\+ l3 \\+ 2"):
        pmp.drive(start, params.controls, params.grid)


@pytest.mark.parametrize("kwargs", [
    {"amplitude": math.nan}, {"amplitude": math.inf}, {"amplitude": 0.0}, {"amplitude": -0.4},
    {"omega": math.nan}, {"omega": math.inf}, {"omega": 0.0}, {"omega": -1.0},
    {"omega": 1e-310}, {"steps_per_cycle": 0}, {"cycles": 0},
    {"cycles": pmp.MAX_STEPS // 2000 + 1}, {"cycles": 2, "steps_per_cycle": pmp.MAX_STEPS},
    {"cycles": 1.5}, {"steps_per_cycle": 100.5},
])
def test_bracket_motion_params_are_validated(kwargs):
    with pytest.raises(ValueError):
        BracketMotionParams(**kwargs)


def test_bracket_motion_params_accept_the_step_cap():
    p = BracketMotionParams(cycles=pmp.MAX_STEPS // 2000)
    assert p.cycles * p.steps_per_cycle == pmp.MAX_STEPS


def test_nilpotent_gait_refuses_an_original_chart_start():
    # the reference configuration's bare values, as an array or a tuple, are not adapted
    # coordinates; only an AdaptedPoint starts the nilpotent system
    from trident47.errors import ChartMismatch

    params = BracketMotionParams(partner=2)
    for start in (reference_configuration().array, reference_configuration().values):
        with pytest.raises(ChartMismatch, match="is not an AdaptedPoint or a Configuration"):
            pmp.drive(start, params.controls, params.grid)
    adapted = to_adapted(reference_configuration())
    traj = pmp.drive(adapted, params.controls, params.grid)
    assert traj.chart == "adapted" and np.array_equal(traj.states[0], adapted.array)


def test_original_gait_refuses_an_adapted_point_start():
    # adapted coordinates never start the original system: their bare values are refused,
    # an AdaptedPoint starts the nilpotent system, and only a Configuration the original one
    from trident47.errors import ChartMismatch

    params = BracketMotionParams(partner=2)
    for point in (to_adapted(reference_configuration()), AdaptedPoint()):
        with pytest.raises(ChartMismatch, match="is not an AdaptedPoint or a Configuration"):
            pmp.drive(point.array, params.controls, params.grid)
        traj = pmp.drive(point, params.controls, params.grid)
        assert traj.chart == "adapted" and np.array_equal(traj.states[0], point.array)
    q = reference_configuration()
    traj = pmp.drive(q, params.controls, params.grid)
    assert traj.chart == "original" and np.array_equal(traj.states[0], q.array)


@pytest.mark.parametrize("start", [
    Configuration.original(math.nan, 0, math.pi / 2, 0, 1, 1, 1),
    Configuration.original(0, 0, math.pi / 2, 0, 1, math.nan, 1),
    AdaptedPoint(x=math.nan), AdaptedPoint(y1=math.inf),
], ids=["original-nan-x", "original-nan-l2", "adapted-nan-x", "adapted-inf-y1"])
def test_drive_refuses_a_non_finite_start(start):
    params = BracketMotionParams()
    with pytest.raises(ValueError, match="^the start point q0 must be finite$"):
        pmp.drive(start, params.controls, params.grid)


def test_original_gait_checks_the_singular_distance_at_every_stage():
    # partner 2 drives l1 only, so l2 = 5e-10 keeps its sign: only the
    # SINGULAR_EPS distance test stops this gait
    from trident47.errors import SingularConfiguration
    from trident47.mechanism import Configuration

    start = Configuration.original(0, 0, math.pi / 2, 0, 1.0, 5e-10, 1.0)
    params = BracketMotionParams(partner=2)
    with pytest.raises(SingularConfiguration, match="l2 = 5e-10 is numerically zero"):
        pmp.drive(start, params.controls, params.grid)


def test_original_gait_checks_its_last_sample():
    # one step whose stage inputs all equal the start: only the end point has L < 0
    from trident47.errors import SingularConfiguration

    params = BracketMotionParams(steps_per_cycle=1)

    def kick_at_end(t):
        u = np.zeros((4,) + np.shape(t))
        u[1] = np.where(t == params.period, -30.0 / params.period, 0.0)  # l1: 1 -> -4
        return u

    with pytest.raises(SingularConfiguration, match="L = l1 \\+ l3 \\+ 2 crossed zero near t = 50 "):
        pmp.drive(reference_configuration(), kick_at_end, params.grid)


def _kicked_gait(params, *kicks):
    """The original gait of params from the reference configuration, with u_i set to v at the
    exact stage times t of ``kicks`` (t, i, v)."""
    def controls(t):
        u = params.controls(t)
        for time, i, value in kicks:
            u[i] = np.where(t == time, value, u[i])
        return u

    return pmp.drive(reference_configuration(), controls, params.grid)


def _stage_time(params, k, stage):
    """The time at which the gait evaluates stage 1..4 of step k, as its stage controls do."""
    times, h = params.grid
    t = times[k:k + 1]
    return (t, t + 0.5 * h, t + 0.5 * h, t + h)[stage - 1].item()


# partner 2 drives l1 only, so l2 = 1 moves only where it is kicked; 1,500 steps of
# h = 1/30 make two blocks, and step 1100 is in the second
_KICK_PARAMS = BracketMotionParams(partner=2, steps_per_cycle=1500)


def test_original_gait_guard_fires_at_the_first_crossing_stage():
    # at the midpoint of step 1100 l2's rate is -3/h: the k2 input keeps l2 = 1 (its rate
    # at t is 0), the k3 input l2 + h/2 (-3/h) = -0.5 is the first across zero
    from trident47.errors import SingularConfiguration

    t = _stage_time(_KICK_PARAMS, 1100, 3)
    with pytest.raises(SingularConfiguration,
                       match="^l2 crossed zero near t = 36.6833 during the gait$"):
        _kicked_gait(_KICK_PARAMS, (t, 2, -3.0 * 30.0))


def test_original_gait_guard_fires_at_a_k4_stage_within_the_singular_distance():
    # the k3 input l2 + h/2 k2 is about 0.5; the k4 input l2 + h k3 is about 5e-10 > 0
    from trident47.errors import SingularConfiguration

    params = _KICK_PARAMS
    h = params.period / params.steps_per_cycle
    with pytest.raises(SingularConfiguration,
                       match="^l2 = 5.000000413701855e-10 is numerically zero$"):
        _kicked_gait(params, (_stage_time(params, 1100, 2), 2, (5e-10 - 1.0) / h))


def test_original_gait_infinite_heading_before_a_singular_stage_is_a_value_error():
    # u1 = inf at the midpoint of step 1100 makes theta's k3 input -inf, a ValueError
    # naming that stage's time; the guard is checked first at each stage
    from trident47.errors import SingularConfiguration

    params = _KICK_PARAMS
    heading = (_stage_time(params, 1100, 2), 0, math.inf)

    def crossing(k):
        return (_stage_time(params, k, 2), 2, -3.0 * 30.0)

    with pytest.raises(SingularConfiguration,
                       match="^l2 crossed zero near t = 36.7167 during the gait$"):
        _kicked_gait(params, crossing(1101))
    with pytest.raises(ValueError, match="^the heading is not finite near t = 36.6833 during "
                                         "the gait$") as err:  # not the guard's, nor an overflow
        _kicked_gait(params, heading, crossing(1101))
    assert type(err.value) is ValueError
    with pytest.raises(SingularConfiguration,
                       match="^l2 crossed zero near t = 36.6833 during the gait$"):
        _kicked_gait(params, heading, crossing(1100))


def test_original_converges_to_nilpotent_quadratically():
    diffs = []
    amps = (0.4, 0.2, 0.1)
    for A in amps:
        p = BracketMotionParams(amplitude=A)
        dn = bracket_displacement(bracket_motion(p, "nilpotent"))
        do = bracket_displacement(bracket_motion(p, "original"))
        diffs.append(np.linalg.norm(dn - do))
    orders = [math.log(diffs[i] / diffs[i + 1]) / math.log(amps[i] / amps[i + 1])
              for i in range(len(amps) - 1)]
    assert min(orders) >= 2.0


# ---------------------------------------------------------------------------
# CSV / JSON plumbing


def _reference_csv_bytes(tmp_path, header, columns) -> bytes:
    # the per-value writer: one format(v, ".17g") per value, one writerow per row
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([format(v, ".17g") for v in row])
    return path.read_bytes()


def _csv_bytes(tmp_path, header, columns) -> bytes:
    path = tmp_path / "written.csv"
    artifacts.write_artifacts({path: (header, columns)})
    return path.read_bytes()


_SPECIAL_FLOATS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
                   1.7976931348623157e308, -1.7976931348623157e308, 1.0, -3.0, 1e16, 1e22,
                   2.0**53, 2.0**53 + 2.0, 1e-5, 0.1, 1.0 / 3.0, 123456789012345678.0]


@pytest.mark.parametrize("kind", ["numpy", "python"])
def test_csv_writer_is_the_per_value_writer_on_special_floats(tmp_path, kind):
    values = _SPECIAL_FLOATS + _SPECIAL_FLOATS[::-1]
    columns = [values, values[::-1], values[3:] + values[:3]]
    if kind == "numpy":
        columns = [np.array(c) for c in columns]
    header = ["a", "b", "c"]
    assert _csv_bytes(tmp_path, header, columns) == _reference_csv_bytes(tmp_path, header, columns)


@pytest.mark.parametrize("n", [0, 1, artifacts.CSV_BLOCK_ROWS - 1, artifacts.CSV_BLOCK_ROWS,
                               artifacts.CSV_BLOCK_ROWS + 1])
def test_csv_writer_is_the_per_value_writer_at_block_edges(tmp_path, rng, n):
    columns = list(rng.standard_normal((5, n)) * 10.0 ** rng.integers(-300, 300, (5, n)))
    header = ["t", "u", "v", "w", "z"]
    assert _csv_bytes(tmp_path, header, columns) == _reference_csv_bytes(tmp_path, header, columns)


def test_csv_writer_is_the_per_value_writer_on_the_example2_geodesic(tmp_path):
    c = example_constants(2)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(), T=2.0 * math.pi,
                              dt=1e-3).to_original()
    header = ["t"] + [f"c{i}" for i in range(18)]
    columns = [traj.times, *traj.states.T, *traj.momenta.T, *traj.controls.T]
    written = _csv_bytes(tmp_path, header, columns)
    assert written.count(b"\r\n") == 6285 and len(traj) > 6 * artifacts.CSV_BLOCK_ROWS
    assert written == _reference_csv_bytes(tmp_path, header, columns)


def _shared_and_constant_columns(kind, rng):
    # columns that share bytes, or hold one value, each formatted once per block
    n = artifacts.CSV_BLOCK_ROWS + 5
    a = rng.standard_normal(n)
    if kind == "one array twice":
        return [a, a, rng.standard_normal(n)]
    if kind == "view and copy":
        table = rng.standard_normal((n, 3))
        return [table[:, 1], a, table[:, 1].copy()]
    if kind == "constant across a block edge":
        return [np.full(n, 0.25), a, np.full(n, -0.0), np.full(n, 0.25)]
    if kind == "constant but row 0":
        return [np.concatenate([[-0.0], np.zeros(n - 1)]), a, np.zeros(n)]
    if kind == "nan and -nan":
        return [np.full(n, math.nan), np.full(n, -math.nan), np.copysign(np.full(n, math.nan), a)]
    # Python lists mixing ints and floats; the ints of a's bits have a's bytes, not its text
    ints = [int(v) for v in rng.integers(-10**6, 10**6, n)]
    return [[3] * n, ints, [v if k % 2 else float(v) for k, v in enumerate(ints)], list(a),
            a.view(np.int64).tolist()]


@pytest.mark.parametrize("kind", ["one array twice", "view and copy",
                                  "constant across a block edge", "constant but row 0",
                                  "nan and -nan", "python lists of ints and floats"])
def test_csv_writer_is_the_per_value_writer_on_shared_and_constant_columns(tmp_path, rng, kind):
    columns = _shared_and_constant_columns(kind, rng)
    header = [f"c{i}" for i in range(len(columns))]
    assert _csv_bytes(tmp_path, header, columns) == _reference_csv_bytes(tmp_path, header, columns)


def test_csv_writer_refuses_unequal_columns_before_opening(tmp_path):
    path = tmp_path / "short.csv"
    with pytest.raises(ValueError, match=r"unequal lengths \[3, 2, 3\]"):
        artifacts.write_artifacts({path: (["a", "b", "c"],
                                          [np.zeros(3), np.zeros(2), np.zeros(3)])})
    assert not path.exists()


@pytest.mark.parametrize("error, name, payload", [
    (IsADirectoryError, "dir.json", {"x": 1}),  # refused before the first write
    (FileNotFoundError, "missing/b.csv", (["a"], [[1.0]])),  # refused while staging
    (ValueError, "nan.json", {"x": math.nan}),  # refused while encoding
], ids=["directory", "missing directory", "nan"])
def test_write_artifacts_writes_all_of_its_files_or_none(tmp_path, error, name, payload):
    (tmp_path / "kept.csv").write_text("old\n")
    (tmp_path / "dir.json").mkdir()
    before = tree_bytes(tmp_path)
    table = (["a"], [np.arange(3.0)])
    with pytest.raises(error) as info:
        artifacts.write_artifacts({tmp_path / "new.csv": table, tmp_path / "kept.csv": table,
                                   tmp_path / name: payload})
    assert tree_bytes(tmp_path) == before
    if error is not ValueError:  # named as by open(path, "w"), not by its staging file
        assert str(info.value).endswith(repr(str(tmp_path / name)))


def test_write_artifacts_leaves_no_staging_file_and_the_mode_of_open(tmp_path):
    with open(tmp_path / "plain", "w"):
        pass
    (tmp_path / "a.csv").write_text("old\n")
    artifacts.write_artifacts({tmp_path / "a.csv": (["a", "b"], [[1.0, 0.5], [-0.0, 2.0]]),
                               tmp_path / "b.json": {"y": [1.5, None], "x": 1}})
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.csv", "b.json", "plain"]
    assert (tmp_path / "a.csv").read_bytes() == b"a,b\r\n1,-0\r\n0.5,2\r\n"
    assert (tmp_path / "b.json").read_text() == json.dumps({"x": 1, "y": [1.5, None]},
                                                           indent=2) + "\n"
    mode = (tmp_path / "plain").stat().st_mode
    assert (tmp_path / "a.csv").stat().st_mode == (tmp_path / "b.json").stat().st_mode == mode


def test_csv_writer_memory_does_not_grow_with_the_rows(tmp_path, rng):
    import tracemalloc

    def peak(blocks):
        columns = list(rng.standard_normal((19, blocks * artifacts.CSV_BLOCK_ROWS)))
        tracemalloc.start()
        try:
            artifacts.write_artifacts({tmp_path / "big.csv": ([f"c{i}" for i in range(19)],
                                                              columns)})
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    two, twenty = peak(2), peak(20)
    assert twenty < 1.5 * two  # a table-sized buffer would be 10x


def test_trajectory_csv_roundtrip(tmp_path):
    c = example_constants(2)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(), T=1.0, dt=1e-2)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert same_trajectory(back, traj.to_original())
    header = path.read_text().splitlines()[0]
    assert header == "t,x,y,theta,phi,l1,l2,l3,h1,h2,h3,h4,h5,h6,h7,u1,u2,u3,u4"


def test_trajectory_csv_roundtrip_without_momenta(tmp_path):
    traj = bracket_motion(BracketMotionParams(cycles=1), "original")
    path = tmp_path / "gait.csv"
    write_trajectory_csv(traj, path)
    back = read_trajectory_csv(path)
    assert same_trajectory(back, traj)
    assert back.momenta is None and back.controls is not None


def test_controls_equal_momenta_when_present():
    c = example_constants(1)
    traj = integrate_extremal(c.initial_fibre_state(), group_identity(), T=0.5, dt=1e-2)
    assert np.array_equal(traj.controls, traj.momenta[:, :4])


def test_solution_constants_json_roundtrip(tmp_path):
    c = example_constants(3)
    path = tmp_path / "c.json"
    save_solution_constants(c, path)
    back = pmp.load_solution_constants(path)
    assert back == c
    keys = set(json.loads(path.read_text()))
    assert keys == {"C5", "C6", "C7", "C11", "C12", "C13", "C14", "C15"}


def test_solution_constants_reject_non_finite_and_missing():
    good = example_constants(2).to_json()
    # JSON numbers only: a bool, a numeric string or an int beyond the float range is refused,
    # and one error names every bad key, in fixture order, and only those
    for bad in ({"C5": "nan"}, {"C12": float("inf")}, {"C15": "-inf"}, {"C5": True},
                {"C11": "0.5"}, {"C13": "abc"}, {"C6": 10**400},
                {"C5": True, "C7": None, "C11": "0.5", "C15": -10**400}):
        with pytest.raises(ValueError) as err:
            SolutionConstants.from_json(dict(good, **bad))
        assert str(err.value).split(": ")[-1].split(", ") == [k for k in good if k in bad]
    partial = dict(good)
    del partial["C7"]
    with pytest.raises(ValueError, match="C7"):
        SolutionConstants.from_json(partial)
    for bad in (5, [good], dict(good, C13=[1.0])):
        with pytest.raises(ValueError):
            SolutionConstants.from_json(bad)
    c = SolutionConstants.from_json(dict(good, C5=2, C12=0))
    assert (c.C5, c.C12) == (2.0, 0.0) and type(c.C5) is type(c.C12) is float



@pytest.mark.parametrize("T, dt", [(math.inf, 1e-3), (1.0, math.nan), (math.nan, 1e-3),
                                   (1.0, 0.0), (-1.0, 1e-3),
                                   (pmp.MAX_STEPS * 1e-3 * 1.01, 1e-3), (1e300, 1e-300)])
def test_grid_rejects_unbounded_or_invalid_times(T, dt):
    c = example_constants(2)
    with pytest.raises(ValueError):
        integrate_extremal(c.initial_fibre_state(), group_identity(), T, dt)
    with pytest.raises(ValueError):
        pmp.closed_form_trajectory(c, T, dt)


@pytest.mark.parametrize("T, dt", [(1e300, 1e300), (1e200, 1e199)])
def test_integrate_extremal_refuses_an_overflowing_path(T, dt):
    c = example_constants(2)
    with pytest.raises(ValueError, match="overflowed"):
        integrate_extremal(c.initial_fibre_state(), group_identity(), T, dt)


@pytest.mark.parametrize("index, value", [(0, math.nan), (4, math.inf), (9, -math.inf),
                                          (13, math.nan)])
def test_integrate_extremal_refuses_a_non_finite_start(index, value):
    # a start that is not finite is named, not reported as an overflow at t = 0
    start = np.concatenate([example_momenta(2).array, np.zeros(7)])
    start[index] = value
    match = f"the {'initial covector h0' if index < 7 else 'start point q0'} must be finite"
    with pytest.raises(ValueError, match=match):
        integrate_extremal(FibreState.from_array(start[:7]), AdaptedPoint.from_array(start[7:]),
                           T=1.0, dt=1e-2)
    batch = np.stack([np.concatenate([example_momenta(3).array, np.zeros(7)]), start])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            pmp.integrate_extremal_batch(batch[:, :7], batch[:, 7:], T=1.0, dt=1e-2)


def test_integrate_extremal_holds_one_float_array_of_samples():
    # the peak is about 1.6x the path at any n; a list of 14-float tuples is over 4x
    import tracemalloc

    n = 20_000
    tracemalloc.start()
    try:
        integrate_extremal(example_momenta(2), group_identity(), T=20.0, dt=1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * (n + 1) * 14 * 8


def _traced_peak(run):
    import tracemalloc

    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_nilpotent_gait_holds_float_arrays_of_samples():
    # the path is the states and the controls; gathering the controls in a list of
    # tuples before the array takes the peak over 3x it
    n = 20_000
    peak = _traced_peak(lambda: bracket_motion(BracketMotionParams(steps_per_cycle=n), "nilpotent"))
    assert peak < 2 * (n + 1) * (7 + 4) * 8


def test_integrate_extremal_batch_holds_float_arrays_of_samples(rng):
    # the array passes over the base system take blocks of a bounded number of samples,
    # so their scratch stays small beside the path for a wide batch too
    B, n = 16, 1000
    h0s, q0s = rng.uniform(-1, 1, (B, 7)), rng.uniform(-1, 1, (B, 7))
    peak = _traced_peak(lambda: pmp.integrate_extremal_batch(h0s, q0s, T=1.0, dt=1e-3))
    assert peak < 2 * B * (n + 1) * 14 * 8


def test_integrate_extremal_batch_refuses_an_overflowing_path():
    h0 = example_constants(2).initial_fibre_state().array
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflowed"):
            pmp.integrate_extremal_batch(h0, np.zeros(7), 1e300, 1e300)


# ---------------------------------------------------------------------------
# experiment scripts


def _run_script(name, *argv):
    repo = pathlib.Path(__file__).resolve().parents[1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(trident47.__file__)))
    return subprocess.run([sys.executable, str(repo / "scripts" / name), *argv],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=120)


def test_shooting_reaches_the_target_at_its_defaults(tmp_path):
    proc = _run_script("shooting.py", "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "shooting_report.json").read_text())
    assert report["residual_norm"] < 1e-12
    assert report["residual_history"][-1] == report["residual_norm"]
    assert report["iterations"] == len(report["residual_history"]) - 1 <= 25
    endpoint = pmp.exp_map(np.array(report["momenta"]), 1.0)[:7]
    assert np.abs(endpoint - report["target"]).max() < 1e-12
    assert np.abs(np.array(report["endpoint"]) - endpoint).max() < 1e-14
    traj = read_trajectory_csv(tmp_path / "shooting_trajectory.csv")
    assert len(traj) == 501 and traj.times[-1] == 1.0


@pytest.mark.parametrize("script, argv", [
    ("shooting.py", ["--max-iter", "0"]), ("shooting.py", ["--target", "nan", *"000000"]),
    ("shooting.py", ["--T", "inf"]), ("shooting.py", ["--dt", "0"]),
    ("shooting.py", ["--tol", "nan"]), ("shooting.py", ["--T", "1e300"]),
    ("shooting.py", ["--T", "1e4", "--dt", "1e-3"]),
    ("amplitude_sweep.py", ["--amplitudes", "nan"]),
    ("amplitude_sweep.py", ["--amplitudes", "0.1", "-0.2"]),
    ("amplitude_sweep.py", ["--amplitudes", "0.1", "0.1"]),
    ("amplitude_sweep.py", ["--omega", "inf"]), ("amplitude_sweep.py", ["--omega", "1e-310"]),
    ("amplitude_sweep.py", ["--amplitudes", "1e300"]),
    ("shooting.py", ["--T", "1e300", "--dt", "1e300"]),
    # equal at 6 significant digits: the curves and report entries they name would collide
    ("symmetry_orbit.py", ["--flow-values", "0.1234561", "0.1234564", "0.5"]),
    ("symmetry_orbit.py", ["--flow-values", "0.5", "1", "0.5"]),
    # both gaps underflow to 0, so no order can be fitted
    ("amplitude_sweep.py", ["--amplitudes", "1e-200", "1e-201"]),
    # below A ~ 1e-4 the gap is RK4 rounding, not A^3: the orders read 1.10 and 0.08
    ("amplitude_sweep.py", ["--amplitudes", "1e-2", "1e-3", "1e-4", "1e-5", "1e-6"]),
])
def test_scripts_reject_invalid_inputs(tmp_path, script, argv):
    out = tmp_path / "out"
    proc = _run_script(script, *argv, "--outdir", str(out))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert "error:" in proc.stderr and not out.exists()
    assert "iter" not in proc.stdout  # refused before any Levenberg-Marquardt work


def test_amplitude_sweep_keeps_the_gaps_above_the_rounding_floor(tmp_path):
    proc = _run_script("amplitude_sweep.py", "--amplitudes", "1e-3", "1e-4",
                       "--outdir", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert [line.split()[0] for line in proc.stdout.splitlines()[:2]] == ["A=0.001", "A=0.0001"]
    assert abs(json.loads((tmp_path / "sweep.json").read_text())["orders"][0] - 3.0) < 0.01
    proc = _run_script("amplitude_sweep.py", "--amplitudes", "1e-4", "1e-5",
                       "--outdir", str(tmp_path / "refused"))
    assert proc.returncode == 2 and "error: amplitude 1e-05: |orig - nil| = " in proc.stderr


@pytest.mark.parametrize("script, argv", [
    ("amplitude_sweep.py", ["--amplitudes", "0.1", "0.05"]),
    ("symmetry_orbit.py", ["--T", "0.5", "--flow-values", "0.5"]),
    ("shooting.py", ["--dt", "0.01"]),
])
def test_scripts_refuse_an_outdir_that_is_a_file(tmp_path, script, argv):
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    proc = _run_script(script, *argv, "--outdir", str(afile))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert "error:" in proc.stderr and str(afile) in proc.stderr
    assert afile.read_text() == "kept\n" and [p.name for p in tmp_path.iterdir()] == ["afile"]


def test_orbit_script_refused_for_one_curve_leaves_the_outdir_as_it_was(tmp_path):
    (tmp_path / "orbit_s1.csv").mkdir()
    (tmp_path / "orbit_report.json").write_text("old\n")
    before = tree_bytes(tmp_path)
    proc = _run_script("symmetry_orbit.py", "--T", "0.5", "--flow-values", "0.5", "1",
                       "--outdir", str(tmp_path))
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    assert f"Is a directory: '{tmp_path / 'orbit_s1.csv'}'" in proc.stderr
    assert tree_bytes(tmp_path) == before
