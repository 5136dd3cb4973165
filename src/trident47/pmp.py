"""Normal extremal trajectories of the nilpotent control problem.

The energy-minimizing controls of the left-invariant system on the group
satisfy u_i = h_i where h_1..h_4 are the momenta paired with N1..N4 and
h_5..h_7 are paired with the bracket directions.  The momenta obey the
fibre system (position-independent)

    h1' = -h5 h2 - h6 h3 - h7 h4,   h2' = h5 h1,   h3' = h6 h1,
    h4' = h7 h1,                    h5' = h6' = h7' = 0,

and the state follows the base system q' = h1 N1(q) + h2 N2 + h3 N3 + h4 N4.
Every solution from the origin is one entire function of its initial
covector h0, ``exp_map``: x'' = r - K^2 x with K^2 = h5^2 + h6^2 + h7^2, so
the whole state, y1..y3 included, is written in Stumpff functions of
K^2 t^2, exact for every K, 0 included, and real or complex (complex-step
derivatives pass through).  Three worked example solutions are built in,
including their original-chart formulas.

What stays numeric is fixed-step RK4, bit for bit the classical step loop
y + h/6 (k1 + 2 k2 + 2 k3 + k4) that the tests keep as their reference:
the fibre system steps h1..h4 as four unrolled columns (``_fibre_path``),
the base system runs in whole-array passes (``_base_path``), and so does
the original system X1, d/dl1..d/dl3 but for phi, stepped in a scalar loop
(``_original_path``).  ``drive`` runs every control law, the start's point
type picking the system; ``bracket_motion`` is the sinusoid law from the
reference configuration.  Grids have at most ``MAX_STEPS`` steps, and a
non-finite start or an overflowing path is refused.  ``trajectory_table``
gives a trajectory's CSV table for ``artifacts.write_artifacts``, the one
writer; of files the module reads only solution-constants fixtures, and it
loads no sympy.
"""
from __future__ import annotations

import json
import math
import operator
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import artifacts
from .errors import ChartMismatch, SingularConfiguration
from .charts import ADAPTED, ORIGINAL
from .mechanism import (SINGULAR_EPS, Configuration, _check_regular, _x1_phi_rate, _x1_planar,
                        _x1_rotation, _x1_shape, reference_configuration)
from .nilpotent import (AdaptedPoint, adapted_to_original, centre, n1_vertical,
                        original_to_adapted, to_adapted)

_S3 = math.sqrt(3.0)

#: advisory threshold on Hamiltonian drift per unit time
H_DRIFT_LIMIT = 1e-6

#: most steps one time grid may have (T/dt); bounds the work and memory per run
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class FibreState:
    """Momenta (h1..h7); h1..h4 double as the controls along extremals."""

    h1: float = 0.0
    h2: float = 0.0
    h3: float = 0.0
    h4: float = 0.0
    h5: float = 0.0
    h6: float = 0.0
    h7: float = 0.0

    @property
    def array(self) -> np.ndarray:
        return np.array([self.h1, self.h2, self.h3, self.h4, self.h5, self.h6, self.h7])

    @classmethod
    def from_array(cls, arr) -> "FibreState":
        return cls(*(float(v) for v in arr))

    def horizontal_norm(self) -> float:
        return math.sqrt(self.h1**2 + self.h2**2 + self.h3**2 + self.h4**2)


def hamiltonian(h) -> float:
    """H = (h1^2 + h2^2 + h3^2 + h4^2) / 2."""
    arr = h.array if isinstance(h, FibreState) else np.asarray(h, dtype=float)
    return 0.5 * float(arr[0]**2 + arr[1]**2 + arr[2]**2 + arr[3]**2)


def _fibre_rates(h):
    """The fibre system on the columns h1..h7 (floats or equal-shape arrays), as a tuple."""
    h1, h2, h3, h4, h5, h6, h7 = h
    return -h5 * h2 - h6 * h3 - h7 * h4, h5 * h1, h6 * h1, h7 * h1, 0.0, 0.0, 0.0


def _base_rates(q, u):
    """The base system q' = sum u_i N_i(q) on columns; it reads x, l1..l3 of q and u1..u4."""
    u1, u2, u3, u4 = u[:4]
    v1, v2, v3 = n1_vertical(*q[:4])
    return u1, u2, u3, u4, v1 * u1, v2 * u1, v3 * u1


def base_rhs(q, h) -> np.ndarray:
    """Right-hand side of the state system q' = sum h_i N_i(q)."""
    qa = q.array if isinstance(q, AdaptedPoint) else np.asarray(q, dtype=float)
    ha = h.array if isinstance(h, FibreState) else np.asarray(h, dtype=float)
    return np.array(_base_rates(qa.tolist(), ha.tolist()))


# ---------------------------------------------------------------------------
# closed forms


@dataclass(frozen=True)
class SolutionConstants:
    """Integration constants of an extremal: a parameterization of its covector h0.

    C5, C6, C7 are the bracket momenta; C11, C12 the oscillation amplitudes
    of h1 = C11 cos Kt + C12 sin Kt; C13, C14, C15 the affine constants of
    h2, h3, h4.  That form needs C5*C13 + C6*C14 + C7*C15 = 0
    (``consistency_residual``); any constants name the extremal of
    ``initial_fibre_state``, the one the closed forms and RK4 follow.
    """

    C5: float = 0.0
    C6: float = 0.0
    C7: float = 0.0
    C11: float = 0.0
    C12: float = 0.0
    C13: float = 0.0
    C14: float = 0.0
    C15: float = 0.0

    @property
    def K(self) -> float:
        return math.hypot(self.C5, self.C6, self.C7)  # squares would underflow below 1e-154

    def consistency_residual(self) -> float:
        return self.C5 * self.C13 + self.C6 * self.C14 + self.C7 * self.C15

    def initial_fibre_state(self) -> FibreState:
        """h0 = (C11, C13..15 - C5..7 C12 / K, C5..7): the one C -> h0 conversion.

        At K = 0, where C12/K is undefined, h1 is constant and C12 plays no part.
        """
        K = self.K
        if K == 0.0:
            return FibreState(self.C11, self.C13, self.C14, self.C15)
        return FibreState(self.C11, self.C13 - self.C5 / K * self.C12,
                          self.C14 - self.C6 / K * self.C12, self.C15 - self.C7 / K * self.C12,
                          self.C5, self.C6, self.C7)

    def to_json(self) -> dict:
        return {k: getattr(self, k) for k in ("C5", "C6", "C7", "C11", "C12", "C13", "C14", "C15")}

    @classmethod
    def from_json(cls, obj: dict) -> "SolutionConstants":
        """Read the eight constants, each an int or float (not a bool) with a finite float.

        A missing, non-numeric or non-finite one is a ValueError naming every such key.
        """
        keys = ("C5", "C6", "C7", "C11", "C12", "C13", "C14", "C15")
        if not isinstance(obj, dict):
            raise ValueError("solution constants must be a JSON object")
        def number(v) -> bool:  # abs(nan) <= max is False; a huge int compares exactly
            return (isinstance(v, (int, float)) and not isinstance(v, bool)
                    and abs(v) <= sys.float_info.max)

        bad = [k for k in keys if not number(obj.get(k))]
        if bad:
            raise ValueError(f"missing, non-numeric or non-finite solution constants: "
                             f"{', '.join(bad)}")
        return cls(**{k: float(obj[k]) for k in keys})


def random_solution_constants(rng, k_min: float = 0.1, k_max: float = 3.0) -> SolutionConstants:
    """Random constants satisfying the closed-form consistency constraint."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    K = rng.uniform(k_min, k_max)
    c567 = K * direction
    c11, c12 = rng.uniform(-1.0, 1.0, size=2)
    raw = rng.uniform(-1.0, 1.0, size=3)
    raw -= (raw @ direction) * direction  # project onto the admissible plane
    return SolutionConstants(*c567, c11, c12, *raw)


#: |z| below which the Stumpff functions are summed as series, not closed forms
STUMPFF_SERIES_CUTOFF = 4.0

# Horner coefficients 1/(4+2n)!, 1/(5+2n)! of c4, c5 for n = 9..0: < 0.3 ulp left out
_SERIES = [(1 / math.factorial(4 + 2 * n), 1 / math.factorial(5 + 2 * n)) for n in range(9, -1, -1)]


def _stumpff(z):
    """Stumpff functions c_k(z) = sum_n (-z)^n / (k + 2n)!, k = 0..5, of real or complex z.

    Below the cutoff c4, c5 are series and c3..c0 follow from c_k = 1/k! - z c_{k+2};
    above it each is its closed form in sqrt z, c0 = cos sqrt z (Battin, section 4.5).
    """
    small = np.abs(z) < STUMPFF_SERIES_CUTOFF
    zs = np.where(small, z, 0.0)
    c4, c5 = 0.0, 0.0
    for k4, k5 in _SERIES:
        c4, c5 = k4 - zs * c4, k5 - zs * c5
    c3, c2 = 1.0 / 6.0 - zs * c5, 0.5 - zs * c4
    series = (1.0 - zs * c2, 1.0 - zs * c3, c2, c3, c4, c5)
    zc = np.where(small, STUMPFF_SERIES_CUTOFF, z)
    s = np.sqrt(zc)
    # numpy divides complex a / b as a * (1/b); so does this, so real and complex round alike
    cos, sin, iz, i_s = np.cos(s), np.sin(s), 1.0 / zc, 1.0 / s
    closed = (cos, sin * i_s, (1.0 - cos) * iz, (s - sin) * iz * i_s,
              (0.5 * zc - 1.0 + cos) * iz * iz, (zc * s * (1.0 / 6.0) - s + sin) * iz * iz * i_s)
    return tuple(np.where(small, a, b) for a, b in zip(series, closed))


def exp_map(h0, t) -> np.ndarray:
    """The extremal (x, l1..l3, y1..y3, h1..h7) from the origin with covector h0 at time t.

    The one closed form.  h0 is (..., 7), real or complex, t a float or an
    array; the result is broadcast(h0[..., 0], t) + (14,).  With p = h1(0),
    a = h2..4(0), b = h5..7, r = -b.a, w = (b.b) t^2 and S1, C2, S3, S5 =
    t c1(w), t^2 c2(w), t^3 c3(w), t^5 c5(w) (S_k(2t) read from c_k(4w)):
    h1 = p c0(w) + r S1, x = p S1 + r C2, X2 = int x = p C2 + r S3,
    h2..4 = a + b x, l = a t + b X2, y = c(x) - a (t x - X2) - b (X2 x - int x^2),
    int x^2 = p^2 S3(2t)/4 + p r C2^2 + r^2 (S5(2t)/4 - 2 S5(t)).  It is
    entire in h0 (b.b, never |b|), so Im exp_map(h0 + i e e_j, t) / e is its
    exact derivative along e_j.
    """
    t = np.asarray(t, dtype=float)
    p, a1, a2, a3, b1, b2, b3 = np.moveaxis(np.asarray(h0), -1, 0)
    r = -(b1 * a1 + b2 * a2 + b3 * a3)
    tt = t * t
    w = (b1 * b1 + b2 * b2 + b3 * b3) * tt
    c0, c1, c2, c3, _, c5 = _stumpff(np.stack([w, 4.0 * w]))
    s1, c2t, s3 = t * c1[0], tt * c2[0], tt * t * c3[0]
    x = p * s1 + r * c2t
    x_int = p * c2t + r * s3
    x_sq_int = (2.0 * p * p * tt * t * c3[1] + p * r * c2t * c2t
                + r * r * tt * tt * t * (8.0 * c5[1] - 2.0 * c5[0]))
    a, b = (a1, a2, a3), (b1, b2, b3)
    legs = [ak * t + bk * x_int for ak, bk in zip(a, b)]
    ys = [ck - ak * (t * x - x_int) - bk * (x_int * x - x_sq_int)
          for ck, ak, bk in zip(centre(x), a, b)]
    hs = [ak + bk * x for ak, bk in zip(a, b)]
    return np.stack(np.broadcast_arrays(x, *legs, *ys, p * c0[0] + r * s1, *hs, *b), axis=-1)


def _covector(c) -> np.ndarray:
    """h0 of an extremal given by its SolutionConstants or its FibreState h0."""
    return (c if isinstance(c, FibreState) else c.initial_fibre_state()).array


def closed_form_base(c, t: float) -> AdaptedPoint:
    """Exact state at time t of the extremal of c (constants or h0) from the origin."""
    return AdaptedPoint.from_array(exp_map(_covector(c), t)[:7])


# ---------------------------------------------------------------------------
# trajectories and integration


@dataclass(frozen=True)
class IntegrationDiagnostics:
    dt: float
    h_drift_max: float
    h_drift_rate: float
    casimir_drift: float
    step_too_large: bool

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time-sampled curve; momenta/controls ride along when available."""

    chart: str
    times: np.ndarray
    states: np.ndarray
    momenta: np.ndarray | None = None
    controls: np.ndarray | None = None
    diagnostics: IntegrationDiagnostics | None = None

    def __post_init__(self):
        if self.chart not in (ORIGINAL, ADAPTED):
            raise ChartMismatch(f"unknown chart {self.chart!r}")

    def __len__(self) -> int:
        return len(self.times)

    def to_original(self) -> "Trajectory":
        """Convert the states to the original chart (no-op if already there)."""
        if self.chart == ORIGINAL:
            return self
        states = np.stack(adapted_to_original(*self.states.T), axis=-1)
        return Trajectory(ORIGINAL, self.times, states, self.momenta,
                          self.controls, self.diagnostics)

    def displacement(self) -> np.ndarray:
        return self.states[-1] - self.states[0]


def time_grid(T: float, dt: float) -> tuple[np.ndarray, float]:
    """Times and step of a uniform grid on [0, T], at most MAX_STEPS steps."""
    if not (math.isfinite(T) and math.isfinite(dt)):
        raise ValueError("T and dt must be finite")
    if dt <= 0.0 or T <= 0.0:
        raise ValueError("T and dt must be positive")
    if T / dt > MAX_STEPS:
        raise ValueError(f"T/dt = {T / dt:.6g} exceeds the step cap of {MAX_STEPS}")
    n = max(1, int(round(T / dt)))
    return np.linspace(0.0, T, n + 1), T / n


#: samples (steps times batch size) per block of the RK4 paths; bounds their scratch
_BLOCK_SAMPLES = 1024


def _fibre_path(h0, times: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 of the fibre system from the columns h0, over the grid ``times``, step h.

    h1..h4 step as four unrolled columns: floats for one path, (B,) arrays
    for a batch.  h5..h7 have the rate 0.0, so every stage after step 0's k1,
    and every row after row 0, holds h0[4:] + 0.0 (a -0.0 reads +0.0 there).
    Rows are written once per block of ``_BLOCK_SAMPLES`` samples into one
    (len(times), 7) + column-shape array, unchecked for overflow.
    """
    n, block = len(times) - 1, max(1, _BLOCK_SAMPLES // np.size(h0[0]))
    path = np.empty((n + 1, 7) + np.shape(h0[0]))
    path[0] = h0
    c5, c6, c7 = (b + 0.0 for b in h0[4:])
    path[1:, 4:] = (c5, c6, c7)
    m5, half, sixth = -c5, 0.5 * h, h / 6.0
    p1, p2, p3, p4 = h0[:4]
    with np.errstate(over="ignore", invalid="ignore"):
        a1, a2, a3, a4 = _fibre_rates(h0)[:4]  # step 0's k1 reads the raw h5..h7
        for k in range(0, n, block):
            rows = []
            for _ in range(min(block, n - k)):
                y1 = p1 + half * a1
                b1 = m5 * (p2 + half * a2) - c6 * (p3 + half * a3) - c7 * (p4 + half * a4)
                b2 = c5 * y1
                b3 = c6 * y1
                b4 = c7 * y1
                y1 = p1 + half * b1
                d1 = m5 * (p2 + half * b2) - c6 * (p3 + half * b3) - c7 * (p4 + half * b4)
                d2 = c5 * y1
                d3 = c6 * y1
                d4 = c7 * y1
                y1 = p1 + h * d1
                e1 = m5 * (p2 + h * d2) - c6 * (p3 + h * d3) - c7 * (p4 + h * d4)
                e2 = c5 * y1
                e3 = c6 * y1
                e4 = c7 * y1
                p1 = p1 + sixth * (a1 + 2.0 * b1 + 2.0 * d1 + e1)
                p2 = p2 + sixth * (a2 + 2.0 * b2 + 2.0 * d2 + e2)
                p3 = p3 + sixth * (a3 + 2.0 * b3 + 2.0 * d3 + e3)
                p4 = p4 + sixth * (a4 + 2.0 * b4 + 2.0 * d4 + e4)
                rows.append((p1, p2, p3, p4))
                a1 = m5 * p2 - c6 * p3 - c7 * p4
                a2 = c5 * p1
                a3 = c6 * p1
                a4 = c7 * p1
            path[k + 1:k + 1 + len(rows), :4] = rows
    return path


def _accumulate(column, rates, h: float) -> None:
    """Fill column[1:] (one column or a block) by RK4 steps from column[0], given stage-major rates.

    The increments are summed left to right, so each sample is bit for bit
    the classical step y + h/6 (k1 + 2 k2 + 2 k3 + k4).
    """
    b1, b2, b3, b4 = rates
    column[1:] = h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
    np.add.accumulate(column, axis=0, out=column)


def _stage_inputs(y, rates, h: float) -> np.ndarray:
    """RK4 stage inputs y, y + h/2 k1, y + h/2 k2 and y + h k3, stacked stage-major."""
    return np.stack([y, y + 0.5 * h * rates[0], y + 0.5 * h * rates[1], y + h * rates[2]])


def _base_path(q0, stage_controls, times: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 of ``_base_rates`` from the columns q0, bit for bit, in whole-array passes.

    ``stage_controls(k, m)`` gives u1..u4 at the four stages of steps k..k+m-1.
    x and l have rates u1..u4 and y's rates read only x and l, so each column
    is its step increments summed left to right, a block of steps at a time.
    """
    n, block = len(times) - 1, max(1, _BLOCK_SAMPLES // np.size(q0[0]))
    path = np.empty((n + 1, 7) + np.shape(q0[0]))
    path[0] = q0
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, n, block):
            us, rows = np.asarray(stage_controls(k, min(block, n - k))), path[k:k + block + 1]
            _accumulate(rows[:, :4], us.swapaxes(1, 2), h)  # (stage, step, u1..u4)
            qs = _stage_inputs(rows[:-1, :4].swapaxes(0, 1), us, h)
            rates = [_base_rates(qi, u)[4:] for qi, u in zip(qs, us)]
            _accumulate(rows[:, 4:], np.swapaxes(rates, 1, 2), h)
    return path


def _original_path(q0, stage_controls, times: np.ndarray, h: float) -> np.ndarray:
    """Classical RK4 of the original gait u1 X1 + u2 d/dl1 + u3 d/dl2 + u4 d/dl3, bit for bit.

    Only phi steps in Python.  The legs have rates u2..u4, theta's rate
    u1 (-1/L) reads only the legs, and x's and y's read theta and the legs,
    so those columns are summed as in ``_base_path``, a block of
    ``_BLOCK_SAMPLES`` steps at a time; phi's rate reads phi itself, so it
    steps in a scalar loop fed each stage's u1, l2, L and a.  The guard sees
    every stage input of a block at once.  At the first one in step, then
    stage, order that is off the regular set or has an infinite heading,
    the gait raises ``check_regular``'s SingularConfiguration, or else a
    ValueError naming the stage time.
    """
    n, half, sixth = len(times) - 1, 0.5 * h, h / 6.0
    path = np.empty((n + 1, 7))
    path[0] = q0
    l2_0, span0 = q0[5], q0[4] + q0[6] + 2.0
    cos, sin, phi_rate = math.cos, math.sin, _x1_phi_rate

    def check_regular(t, l1, l2, l3):
        # l2 = 0 and L = l1 + l3 + 2 = 0 are the whole singular set; a sign
        # change (or a non-finite value) means the frame is singular
        # somewhere between the start and the legs (l1, l2, l3)
        if not (l2 * l2_0 > 0.0 and (l1 + l3 + 2.0) * span0 > 0.0):
            name = "L = l1 + l3 + 2" if l2 * l2_0 > 0.0 else "l2"
            raise SingularConfiguration(f"{name} crossed zero near t = {t:.6g} during the gait")
        _check_regular(l1, l2, l3)  # and the legs themselves keep SINGULAR_EPS away

    with np.errstate(all="ignore"):  # overflow is refused below; stages past a stop are unread
        for k in range(0, n, _BLOCK_SAMPLES):
            m = min(_BLOCK_SAMPLES, n - k)
            rows = path[k:k + m + 1]
            u = np.stack(stage_controls(k, m)).transpose(0, 2, 1)  # (stage, step, u1..u4)
            _accumulate(rows[:, 4:], u[..., 1:], h)
            l1, l2, l3 = np.moveaxis(_stage_inputs(rows[:-1, 4:], u[..., 1:], h), -1, 0)
            L, a, dtheta = _x1_shape(l1, l3)
            theta_rates = u[..., 0] * dtheta
            _accumulate(rows[:, 2], theta_rates, h)
            thetas = _stage_inputs(rows[:-1, 2], theta_rates, h)
            stops = (~((l2 * l2_0 > 0.0) & (L * span0 > 0.0)) | (np.abs(l2) < SINGULAR_EPS)
                     | (np.abs(L) < SINGULAR_EPS) | np.isinf(thetas)).T.ravel()
            stop = int(np.argmax(stops)) if stops.any() else 4 * m
            phi_in = np.stack([u[..., 0], l2, L, a], axis=-1).transpose(1, 0, 2).reshape(m, 16)
            p = rows.item(0, 3)
            for j, (u1, l2a, La, aa, v1, l2b, Lb, ab, w1, l2c, Lc, ac, z1, l2d, Ld, ad) in \
                    enumerate(phi_in[:stop // 4].tolist(), 1):
                k1 = u1 * phi_rate(cos(p), sin(p), l2a, La, aa)
                q = p + half * k1
                k2 = v1 * phi_rate(cos(q), sin(q), l2b, Lb, ab)
                q = p + half * k2
                k3 = w1 * phi_rate(cos(q), sin(q), l2c, Lc, ac)
                q = p + h * k3
                k4 = z1 * phi_rate(cos(q), sin(q), l2d, Ld, ad)
                p = p + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
                rows[j, 3] = p
            if stop < 4 * m:
                step, stage = divmod(stop, 4)
                t = times.item(k + step) + (0.0, half, half, h)[stage]
                check_regular(t, l1.item(stage, step), l2.item(stage, step), l3.item(stage, step))
                raise ValueError(f"the heading is not finite near t = {t:.6g} during the gait")
            for j, d in enumerate(_x1_planar(*_x1_rotation(thetas), a)):  # x and y
                _accumulate(rows[:, j], u[..., 0] * d, h)
    check_regular(times.item(-1), *path[-1, 4:].tolist())  # earlier samples were stage inputs
    return path


def _refuse_overflow(times: np.ndarray, *paths) -> None:
    """A ValueError at the first time where one of the paths is not finite."""
    finite = np.logical_and.reduce([np.isfinite(p.reshape(len(p), -1)).all(axis=1) for p in paths])
    if not finite.all():
        raise ValueError(f"the path overflowed at t = {times[np.argmin(finite)]:.6g}; "
                         "use a smaller step or smaller inputs")


def _extremal_paths(q0, h0, times: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """States and momenta from the columns q0, h0; a non-finite start is a ValueError."""
    if not np.isfinite(h0).all():
        raise ValueError("the initial covector h0 must be finite")
    if not np.isfinite(q0).all():
        raise ValueError("the start point q0 must be finite")
    momenta = _fibre_path(h0, times, h)

    def stage_controls(k, m):  # h1..h4 at the four stages, rebuilt from the fibre path
        ys = [list(momenta[k:k + m].swapaxes(0, 1))]
        for c in (0.5 * h, 0.5 * h, h):
            ys.append([a + c * b for a, b in zip(ys[0], _fibre_rates(ys[-1]))])
        return [y[:4] for y in ys]

    states = _base_path(q0, stage_controls, times, h)
    _refuse_overflow(times, states, momenta)
    return states, momenta


def integrate_extremal(h0: FibreState, q0: AdaptedPoint, T: float, dt: float = 1e-3) -> Trajectory:
    """RK4 integration of the coupled 14-dim Hamiltonian system.

    The returned trajectory carries the momenta, the controls (equal to
    h1..h4) and drift diagnostics; an advisory flag is raised in the
    diagnostics when Hamiltonian drift per unit time exceeds 1e-6.  A path
    that overflows (T or dt far too large) is a ValueError.
    """
    times, h = time_grid(T, dt)
    states, momenta = _extremal_paths(tuple(q0.array.tolist()), tuple(h0.array.tolist()), times, h)
    energies = 0.5 * np.sum(momenta[:, :4] ** 2, axis=1)
    h_drift = float(np.max(np.abs(energies - energies[0])))
    casimir = float(np.max(np.abs(momenta[:, 4:] - momenta[0, 4:])))
    rate = h_drift / T
    diag = IntegrationDiagnostics(dt=h, h_drift_max=h_drift, h_drift_rate=rate,
                                  casimir_drift=casimir, step_too_large=rate > H_DRIFT_LIMIT)
    return Trajectory(ADAPTED, times, states, momenta, momenta[:, :4], diag)


def integrate_extremal_batch(h0s: np.ndarray, q0s: np.ndarray, T: float,
                             dt: float = 1e-3) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized sweep: B initial conditions integrated side by side.

    Returns (times, states, momenta) with shapes (n+1,), (B, n+1, 7),
    (B, n+1, 7).  An overflowing path is a ValueError.
    """
    h0s, q0s = np.broadcast_arrays(np.atleast_2d(h0s), np.atleast_2d(q0s))
    times, h = time_grid(T, dt)
    paths = _extremal_paths(tuple(q0s.T.astype(float)), tuple(h0s.T.astype(float)), times, h)
    return (times, *(np.moveaxis(p, -1, 0) for p in paths))


def closed_form_trajectory(c, T: float, dt: float = 1e-3) -> Trajectory:
    """Closed-form extremal of c (constants or h0) sampled on a uniform grid."""
    times, _ = time_grid(T, dt)
    path = exp_map(_covector(c), times)
    return Trajectory(ADAPTED, times, path[:, :7], path[:, 7:], path[:, 7:11], None)


# ---------------------------------------------------------------------------
# worked examples

_SQRT10 = math.sqrt(10.0)
_SQRT30 = math.sqrt(30.0)

EXAMPLE_CONSTANTS = {
    1: SolutionConstants(C11=0.7, C13=0.5, C14=0.5, C15=0.1),
    2: SolutionConstants(C5=1.0, C11=0.5, C12=-0.5, C13=0.0, C14=0.5, C15=0.5),
    3: SolutionConstants(C5=_S3 / 3.0, C6=-_S3 / 3.0, C7=-_S3 / 3.0,
                         C11=-_SQRT10 / 4.0, C12=0.0,
                         C13=0.5, C14=0.25, C15=0.25),
}


def example_constants(n: int) -> SolutionConstants:
    if n not in EXAMPLE_CONSTANTS:
        raise ValueError("example index must be 1, 2 or 3")
    return EXAMPLE_CONSTANTS[n]


def example_momenta(n: int) -> FibreState:
    """Initial momenta of worked example n (all are arc-length normalized)."""
    return example_constants(n).initial_fibre_state()


def example_solution(n: int, t: float) -> Configuration:
    """The worked example solutions in original-chart coordinates."""
    if n == 1:
        return Configuration.original(
            x=0.7 * t,
            y=(7.0 * _S3 / 600.0 - 49.0 / 800.0) * t * t,
            theta=21.0 * t * t / 1600.0 - 21.0 * t / 80.0,
            phi=-49.0 * t * t / 200.0 + 21.0 * t / 10.0,
            l1=0.5 * t, l2=0.5 * t, l3=0.1 * t,
        )
    if n == 2:
        s, co = math.sin(t), math.cos(t)
        return Configuration.original(
            x=0.5 * s + 0.5 * co - 0.5,
            y=-_S3 / 48.0 * (_S3 * (s - 1.0) * (co - 1.0) + co * co
                             + t * co + (t - 2.0) * s + t - 1.0),
            theta=(-co * co / 64.0 + (t - 10.0) / 64.0 * co
                   + (t - 12.0) / 64.0 * s - t / 64.0 + 11.0 / 64.0),
            phi=(co * co / 32.0 + (36.0 - 11.0 * t) / 32.0 * co
                 + (58.0 - 11.0 * t) / 32.0 * s + t / 32.0 - 37.0 / 32.0),
            l1=0.5 * s - 0.5 * co + 0.5,
            l2=0.5 * t, l3=0.5 * t,
        )
    if n == 3:
        s, co = math.sin(t), math.cos(t)
        return Configuration.original(
            x=-_SQRT10 / 4.0 * s,
            y=(_SQRT30 / 192.0 * (1.0 - t * s - co) + 5.0 / 64.0 * co * co
               - 5.0 / 96.0 * s * co - 5.0 * t / 96.0 + 5.0 / 48.0 * s - 5.0 / 64.0),
            theta=-3.0 * _SQRT10 / 256.0 * ((t - 8.0) * s + co - 1.0),
            phi=13.0 * _S3 / 384.0 * (
                ((t - 96.0 / 13.0) * s + co - 1.0) * _SQRT30
                + (100.0 / 13.0 - 50.0 / 13.0 * co) * s - 50.0 / 13.0 * t),
            l1=_SQRT30 / 12.0 * (co - 1.0) + 0.5 * t,
            l2=_SQRT30 / 12.0 * (1.0 - co) + 0.25 * t,
            l3=_SQRT30 / 12.0 * (1.0 - co) + 0.25 * t,
        )
    raise ValueError("example index must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# bracket motions


@dataclass(frozen=True)
class BracketMotionParams:
    """Out-of-phase periodic inputs on the pair (first field, partner field)."""

    amplitude: float = 0.4
    omega: float = 2.0 * math.pi / 50.0
    partner: int = 2
    cycles: int = 1
    steps_per_cycle: int = 2000

    def __post_init__(self):
        if not (math.isfinite(self.amplitude) and self.amplitude > 0.0
                and math.isfinite(self.omega) and self.omega > 0.0
                and math.isfinite(self.period)):
            raise ValueError("amplitude and omega must be finite and positive, "
                             "with a finite period 2*pi/omega")
        if self.partner not in (2, 3, 4):
            raise ValueError("partner index must be 2, 3 or 4")
        try:
            n = operator.index(self.cycles) * operator.index(self.steps_per_cycle)
        except TypeError:
            raise ValueError("cycle count and steps per cycle must be integers") from None
        if self.cycles < 1 or self.steps_per_cycle < 1:
            raise ValueError("cycle count and steps per cycle must be at least 1")
        if n > MAX_STEPS:
            raise ValueError(f"cycles * steps_per_cycle = {n} exceeds the step cap of {MAX_STEPS}")

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def grid(self) -> tuple[np.ndarray, float]:
        """Times and step of ``cycles`` periods at ``steps_per_cycle`` steps each."""
        times = np.linspace(0.0, self.cycles * self.period, self.cycles * self.steps_per_cycle + 1)
        return times, self.period / self.steps_per_cycle

    def controls(self, t) -> np.ndarray:
        """u1 = -A w sin(wt), u_partner = A w cos(wt), others 0: (4,) + shape(t) for times t."""
        t = np.asarray(t, dtype=float)
        u = np.zeros((4,) + t.shape)
        u[0] = -self.amplitude * self.omega * np.sin(self.omega * t)
        u[self.partner - 1] = self.amplitude * self.omega * np.cos(self.omega * t)
        return u


def drive(q_start, controls, grid) -> Trajectory:
    """RK4 of the control law ``controls`` from q_start over ``grid`` = (times, h).

    The start's type picks the system: an ``AdaptedPoint`` runs N1..N4, a
    ``Configuration`` X1, d/dl1..d/dl3 under ``_original_path``'s guard of
    the singular set; any other start is a ChartMismatch.  A non-finite start
    or path is a ValueError.  ``controls`` maps times t to u1..u4, (4,) +
    shape(t): one call gives the controls column, and each block of steps
    one at t + h/2 (k2, k3) and one at t + h (k4).
    """
    if isinstance(q_start, AdaptedPoint):
        path, q0, chart = _base_path, tuple(q_start.array.tolist()), ADAPTED
    elif isinstance(q_start, Configuration):
        path, q0, chart = _original_path, q_start.values, ORIGINAL
    else:
        raise ChartMismatch(f"a {type(q_start).__name__} is not an AdaptedPoint or a Configuration")
    if not np.isfinite(q0).all():
        raise ValueError("the start point q0 must be finite")
    times, h = grid
    with np.errstate(over="ignore", invalid="ignore"):  # the path's overflow is refused below
        column = controls(times)

    def stage_controls(k, m):  # u1..u4 at the four stages of steps k..k+m-1
        mids = controls(times[k:k + m] + 0.5 * h)
        return [column[:, k:k + m], mids, mids, controls(times[k:k + m] + h)]

    states = path(q0, stage_controls, times, h)
    _refuse_overflow(times, states)
    return Trajectory(chart, times, states, None, column.T, None)


def bracket_motion(params: BracketMotionParams, system: str = "nilpotent") -> Trajectory:
    """``drive`` of the sinusoid law ``params`` from the reference configuration.

    One cycle of u1 = -A w sin(wt), u_i = A w cos(wt) moves the system along
    the bracket of the driven pair; on the nilpotent system the only net
    motion is pi*A^2 along the corresponding y-direction.
    """
    if system not in ("nilpotent", "original"):
        raise ValueError("system must be 'nilpotent' or 'original'")
    q = reference_configuration()
    return drive(q if system == "original" else to_adapted(q), params.controls, params.grid)


def bracket_displacement(traj: Trajectory) -> np.ndarray:
    """Net adapted-chart displacement of a gait trajectory."""
    if traj.chart == ADAPTED:
        return traj.displacement()
    first, last = (np.array(original_to_adapted(*traj.states[i].tolist())) for i in (0, -1))
    return last - first


# ---------------------------------------------------------------------------
# CSV / JSON plumbing

_BASE_COLUMNS = ("t", "x", "y", "theta", "phi", "l1", "l2", "l3")
_MOMENTA_COLUMNS = tuple(f"h{i}" for i in range(1, 8))
_CONTROL_COLUMNS = tuple(f"u{i}" for i in range(1, 5))


def trajectory_table(traj: Trajectory) -> tuple[list, list]:
    """A trajectory's CSV table: original-chart columns, then h1..h7 and u1..u4 where held.

    Adapted-chart trajectories are converted first, as whole arrays.
    """
    traj = traj.to_original()
    header, columns = list(_BASE_COLUMNS), [traj.times, *traj.states.T]
    for names, block in ((_MOMENTA_COLUMNS, traj.momenta), (_CONTROL_COLUMNS, traj.controls)):
        if block is not None:
            header += names
            columns += list(block.T)
    return header, columns


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write one trajectory CSV, ``trajectory_table`` through ``artifacts.write_artifacts``."""
    artifacts.write_artifacts({path: trajectory_table(traj)})


def load_solution_constants(path) -> SolutionConstants:
    with open(path) as fh:
        return SolutionConstants.from_json(json.load(fh))
