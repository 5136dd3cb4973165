"""Kinematics and constraint analysis of the trident mechanism.

The mechanism is an equilateral-triangle root block with three one-link
legs attached at its vertices.  Legs 1 and 3 are rigidly attached at anchor
angles -2*pi/3 and +2*pi/3; leg 2 additionally carries a revolute joint
(angle phi).  All three legs are prismatic with lengths l1, l2, l3, and
each leg ends in a passive wheel that can neither slip nor slide sideways.

Configurations live in R^7 with original-chart coordinates
(x, y, theta, phi, l1, l2, l3).  The no-side-slip conditions give three
Pfaffian constraint one-forms whose common kernel is the rank-4 horizontal
distribution spanned by the frame X1..X4 built here.

The numeric analyses run on one closed-form matrix (``closed_form_gbar``),
whose first row is X1's one formula (``frame_x1``); its terms take floats or
arrays, so the original gait reads the same formula over whole blocks of
stages.  The module imports no sympy: the printed symbolic slice frame, the
oracle for ``closed_form_gbar``, lives with the tests.  The leg fields X2..X4
commute, so every Pfaffian of the constraint annihilator is 0.0: the
signature is (0, 0), and only its rank-7 precondition is computed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ORIGINAL
from .errors import ChartMismatch, DegenerateGrowth, SingularConfiguration

#: l2 or L = l1 + l3 + 2 closer to zero than this is a singular configuration
SINGULAR_EPS = 1e-9

#: default relative singular-value cutoff for rank decisions
RANK_TOL = 1e-9

#: most samples one run may draw: the CLI's --sweep and --samples, and
#: nilpotent.check_left_invariance (whose samples are one array)
MAX_SAMPLES = 100_000

_SQRT3 = math.sqrt(3.0)


#: anchor angles of legs 1 and 3; leg 2's anchor angle is 0 by convention
ALPHA1 = -2.0 * math.pi / 3.0
ALPHA3 = 2.0 * math.pi / 3.0


@dataclass(frozen=True)
class Configuration:
    """A point of the 7-dim configuration space in the original chart.

    The tag is always ``original``; an adapted-chart point is a
    ``nilpotent.AdaptedPoint``, so any other tag raises ChartMismatch.
    """

    chart: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.chart != ORIGINAL:
            raise ChartMismatch(f"a Configuration is in the original chart, not {self.chart!r}")
        vals = tuple(float(v) for v in self.values)
        if len(vals) != 7:
            raise ValueError("a configuration has exactly 7 coordinates")
        object.__setattr__(self, "values", vals)

    @classmethod
    def original(cls, x, y, theta, phi, l1, l2, l3) -> "Configuration":
        return cls(ORIGINAL, (x, y, theta, phi, l1, l2, l3))

    @property
    def array(self) -> np.ndarray:
        return np.array(self.values)

    def legs(self) -> tuple[float, float, float]:
        return self.values[4:7]


def reference_configuration() -> Configuration:
    """The base point q0 = (0, 0, pi/2, 0, 1, 1, 1) used by all analyses."""
    return Configuration.original(0.0, 0.0, math.pi / 2.0, 0.0, 1.0, 1.0, 1.0)


def wheel_coords(x, y, th, ph, l1, l2, l3):
    """The wheel positions (w1x, w1y, w2x, w2y, w3x, w3y); floats or arrays.

    Wheel i sits at distance 1 + l_i from the block centre along the leg
    direction; leg 2's direction is rotated by the revolute angle phi from
    its vertex direction.
    """
    a1, a3 = th + ALPHA1, th + ALPHA3
    return (x + (1.0 + l1) * np.cos(a1), y + (1.0 + l1) * np.sin(a1),
            x + np.cos(th) + l2 * np.cos(th + ph), y + np.sin(th) + l2 * np.sin(th + ph),
            x + (1.0 + l3) * np.cos(a3), y + (1.0 + l3) * np.sin(a3))


def vertex_coords(x, y, th):
    """The root-block vertices (v1x, v1y, v2x, v2y, v3x, v3y), unit circumradius."""
    a1, a3 = th + ALPHA1, th + ALPHA3
    return (x + np.cos(a1), y + np.sin(a1), x + np.cos(th), y + np.sin(th),
            x + np.cos(a3), y + np.sin(a3))


def pfaff_matrix(q: Configuration) -> np.ndarray:
    """The 3x7 matrix of constraint one-forms in the basis (dx..dl3).

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


def _check_regular(l1: float, l2: float, l3: float) -> None:
    if abs(l2) < SINGULAR_EPS:
        raise SingularConfiguration(f"l2 = {l2} is numerically zero")
    L = l1 + l3 + 2.0
    if abs(L) < SINGULAR_EPS:
        raise SingularConfiguration(f"L = l1 + l3 + 2 = {L} is numerically zero")


def _x1_shape(l1, l3):
    """X1's shape terms L = l1 + l3 + 2 and a = sqrt(3)(l1 - l3)/(3L), then its dtheta, -1/L.

    a is X1's dy-coefficient on the slice; floats or arrays, as are the
    other terms below, so the gait and ``frame_x1`` read X1 from one formula.
    """
    L = l1 + l3 + 2.0
    return L, _SQRT3 * (l1 - l3) / (3.0 * L), -1.0 / L


def _x1_rotation(theta):
    """(cos, sin) of delta = theta - pi/2, the heading by which X1's (x, y) part turns.

    Both come from ``math`` for a float and for an array alike, so the two
    round alike on every machine.
    """
    delta = theta - math.pi / 2.0
    if isinstance(delta, float):
        return math.cos(delta), math.sin(delta)
    values = delta.ravel().tolist()
    return tuple(np.fromiter(map(f, values), float, len(values)).reshape(delta.shape)
                 for f in (math.cos, math.sin))


def _x1_planar(c, s, a):
    """X1's (dx, dy): the slice's (1, a) turned by the rotation (c, s) of ``_x1_rotation``."""
    return c - a * s, s + a * c


def _x1_phi_rate(cp, sp, l2, L, a):
    """X1's dphi from cos phi, sin phi, l2 and the shape terms L and a."""
    return (a * sp + cp) / l2 + (cp + l2) / (l2 * L)


def frame_x1(theta: float, phi: float, l1: float, l2: float, l3: float):
    """The components (dx, dy, dtheta, dphi) of X1, a tuple of floats; the rest are zero.

    X1 is the slice frame field (x = y = 0, theta = pi/2, unit
    dx-coefficient) with its (x, y) part rotated by delta = theta - pi/2:
    the constraints are SE(2)-equivariant, so X1 depends on the heading and
    the shape only.  The only denominators are l2 and L = l1 + l3 + 2,
    which ``_check_regular`` keeps away from zero.  The terms it is built
    from (``_x1_shape``, ``_x1_rotation``, ``_x1_planar``, ``_x1_phi_rate``)
    also take arrays.
    """
    L, a, dtheta = _x1_shape(l1, l3)
    return (*_x1_planar(*_x1_rotation(theta), a), dtheta,
            _x1_phi_rate(math.cos(phi), math.sin(phi), l2, L, a))


def closed_form_gbar(theta: float, phi: float, l1: float, l2: float, l3: float) -> np.ndarray:
    """Gbar = (X1, X2, X3, X4, [X1,X2], [X1,X3], [X1,X4]) as the rows of a 7x7 array.

    Row 0 is ``frame_x1``, from its terms; X2..X4 are the leg coordinate
    fields d/dl1, d/dl2, d/dl3.  The leg fields are constant, so
    [X1, d/dl_k] = -dX1/dl_k, differentiated here from the terms of ``frame_x1``.
    """
    L, a, dtheta = _x1_shape(l1, l3)
    c, s = _x1_rotation(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    a1 = 2.0 * _SQRT3 * (l3 + 1.0) / (3.0 * L * L)    # da/dl1
    a3 = -2.0 * _SQRT3 * (l1 + 1.0) / (3.0 * L * L)   # da/dl3
    leg_term = (cp + l2) / (l2 * L * L)               # -d/dl1 = -d/dl3 of (cos phi + l2)/(l2 L)
    g = np.zeros((7, 7))
    g[0, :4] = (*_x1_planar(c, s, a), dtheta, _x1_phi_rate(cp, sp, l2, L, a))
    g[1, 4] = g[2, 5] = g[3, 6] = 1.0
    g[4, :4] = (a1 * s, -a1 * c, -1.0 / (L * L), leg_term - a1 * sp / l2)
    g[5, 3] = ((a * sp + cp) + cp / L) / (l2 * l2)
    g[6, :4] = (a3 * s, -a3 * c, -1.0 / (L * L), leg_term - a3 * sp / l2)
    g += 0.0  # -0.0 -> 0.0, so that serialized matrices do not depend on signs of zero
    return g


def _gbar(q: Configuration) -> np.ndarray:
    _check_regular(*q.legs())
    return closed_form_gbar(*q.values[2:])


def horizontal_frame(q: Configuration) -> np.ndarray:
    """A basis X1..X4 of the horizontal distribution at q (rows of a 4x7 array)."""
    return _gbar(q)[:4]


def _rank(m: np.ndarray, tol: float):
    """Count of singular values above tol times the largest: an int, or an array for a stack."""
    s = np.linalg.svd(m, compute_uv=False)
    rank = np.sum(s > tol * s[..., :1], axis=-1)
    return int(rank) if rank.ndim == 0 else rank


@dataclass(frozen=True)
class ControllabilityResult:
    gbar: np.ndarray          # rows X1..X4, X12, X13, X14 at q
    det: float
    growth: tuple[int, int]   # (rank of the frame, rank after one bracket level)

    @property
    def det_nonzero(self) -> bool:
        return self.growth == (4, 7)


def controllability(q: Configuration, rank_tol: float = RANK_TOL) -> ControllabilityResult:
    """Rank test of the bracket-generated distribution at q.

    Stacks the frame and its first-level brackets into the 7x7 matrix Gbar
    and computes the growth vector (rank of the frame, rank of Gbar) with a
    relative singular-value cutoff.  Locally controllable configurations
    have growth (4, 7) and det Gbar != 0.
    """
    gbar = _gbar(q)
    growth = (_rank(gbar[:4], rank_tol), _rank(gbar, rank_tol))
    return ControllabilityResult(gbar=gbar, det=float(np.linalg.det(gbar)), growth=growth)


@dataclass(frozen=True)
class DynamicPairResult:
    rank_v0: int
    rank_v1: int
    transversal: bool


def check_dynamic_pair(q: Configuration, f: float) -> DynamicPairResult:
    """Regularity of the dynamic pair with drift f*X1 and inputs X2, X3, X4.

    V0 = span(X2,X3,X4), V1 = V0 + [f*X1, V0]; at regular points the ranks
    are (3, 6) and V1 + <f*X1> fills the tangent space.  For constant f,
    [f*X1, Xi] = f*[X1, Xi].  The ranks are taken at RANK_TOL.
    """
    if f == 0.0:
        raise ValueError("f must be a nonzero constant")
    gbar = _gbar(q)
    v0 = gbar[1:4]
    v1 = np.vstack([v0, f * gbar[4:]])
    full = np.vstack([v1, f * gbar[:1]])
    return DynamicPairResult(
        rank_v0=_rank(v0, RANK_TOL),
        rank_v1=_rank(v1, RANK_TOL),
        transversal=_rank(full, RANK_TOL) == 7,
    )


@dataclass(frozen=True)
class SignatureResult:
    """Unordered signature (p, r) of the Pfaffian quadratic form.

    Stored with p >= r; (p, r) and (r, p) are the same signature because
    the 4-form line used to read off the Pfaffian carries no orientation.
    """

    p: int
    r: int
    eig_tol: float

    def __post_init__(self):
        a, b = sorted((int(self.p), int(self.r)), reverse=True)
        object.__setattr__(self, "p", a)
        object.__setattr__(self, "r", b)

    def as_tuple(self) -> tuple[int, int]:
        return (self.p, self.r)


def pfaffian_signature(q: Configuration, eig_tol: float = RANK_TOL) -> SignatureResult:
    """Signature of the Pfaffian quadratic form on the constraint annihilator.

    For the annihilator basis mu_1..mu_3 (the Pfaffian-constraint rows),
    form A_k with (A_k)_{ij} = -mu_k([X_i, X_j]); the quadratic form is
    c -> Pf(sum c_k A_k).  The leg fields X2..X4 are constant, so they
    commute and every A_k is zero outside its first row and column: the
    Pfaffian a01*a23 - a02*a13 + a03*a12 is exactly 0.0 for every c, and the
    signature is (0, 0).  Only its precondition, rank Gbar = 7 at
    ``RANK_TOL``, is computed; ``eig_tol`` is recorded and decides nothing.
    """
    rank = _rank(_gbar(q), RANK_TOL)
    if rank < 7:
        raise DegenerateGrowth(f"Gbar has rank {rank} < 7 at {q.values}")
    return SignatureResult(p=0, r=0, eig_tol=eig_tol)


def serialize_matrix(m: np.ndarray) -> dict:
    """Row-major JSON form with an explicit shape field."""
    arr = np.asarray(m, dtype=float)
    return {"shape": list(arr.shape), "data": [float(v) for v in arr.ravel()]}
