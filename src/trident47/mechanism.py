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
whose row 0 is X1's one definition; its terms take floats or arrays, so the
original gait reads the same formula over whole blocks of stages, and the
matrix itself takes a float point or a stack of them.  ``gbar_det`` is its
determinant in closed form.  The per-point analyses decide ranks by SVD;
the shape sweep (``sweep_growth``) certifies rank 7 by |det| / ||Gbar||_F^7
and ranks by stacked SVD only the samples the certificate leaves undecided.
The module imports no sympy; its oracles, the printed symbolic slice frame
and the constraint matrix, live with the tests.  The leg fields X2..X4
commute, so every Pfaffian of the constraint annihilator is 0.0: the
signature is (0, 0), and only its rank-7 precondition is computed.
"""
from __future__ import annotations

import collections
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


def _check_regular(l1: float, l2: float, l3: float) -> None:
    if abs(l2) < SINGULAR_EPS:
        raise SingularConfiguration(f"l2 = {l2} is numerically zero")
    L = l1 + l3 + 2.0
    if abs(L) < SINGULAR_EPS:
        raise SingularConfiguration(f"L = l1 + l3 + 2 = {L} is numerically zero")


def _x1_shape(l1, l3):
    """X1's shape terms L = l1 + l3 + 2 and a = sqrt(3)(l1 - l3)/(3L), then its dtheta, -1/L.

    a is X1's dy-coefficient on the slice; floats or arrays, as are the
    other terms below, so the gait and ``closed_form_gbar`` read X1 from one
    formula.
    """
    L = l1 + l3 + 2.0
    return L, _SQRT3 * (l1 - l3) / (3.0 * L), -1.0 / L


def _cos_sin(angle):
    """(cos, sin) of a float or an array, both from ``math`` for either, so the two
    round alike on every machine."""
    if isinstance(angle, float):
        return math.cos(angle), math.sin(angle)
    values = angle.ravel().tolist()
    return tuple(np.fromiter(map(f, values), float, len(values)).reshape(angle.shape)
                 for f in (math.cos, math.sin))


def _x1_rotation(theta):
    """(cos, sin) of delta = theta - pi/2, the heading by which X1's (x, y) part turns."""
    return _cos_sin(theta - math.pi / 2.0)


def _x1_planar(c, s, a):
    """X1's (dx, dy): the slice's (1, a) turned by the rotation (c, s) of ``_x1_rotation``."""
    return c - a * s, s + a * c


def _x1_phi_rate(cp, sp, l2, L, a):
    """X1's dphi from cos phi, sin phi, l2 and the shape terms L and a."""
    return (a * sp + cp) / l2 + (cp + l2) / (l2 * L)


def closed_form_gbar(theta, phi, l1, l2, l3) -> np.ndarray:
    """Gbar = (X1, X2, X3, X4, [X1,X2], [X1,X3], [X1,X4]) as the rows of a 7x7 array.

    Row 0 is X1's one definition: the slice field (x = y = 0, theta = pi/2,
    unit dx-coefficient) with its (x, y) part turned by theta - pi/2, since
    the constraints are SE(2)-equivariant.  X2..X4 are the leg fields
    d/dl1, d/dl2, d/dl3; they are constant, so [X1, d/dl_k] = -dX1/dl_k,
    differentiated here from X1's ``_x1_*`` terms.  Floats give one 7x7
    array.  phi, l1, l2, l3 as arrays of one shape S (theta a float or of
    shape S too) give a stack of shape S + (7, 7), each matrix equal bit for
    bit to the float call on its elements.
    """
    L, a, dtheta = _x1_shape(l1, l3)
    c, s = _x1_rotation(theta)
    cp, sp = _cos_sin(phi)
    a1 = 2.0 * _SQRT3 * (l3 + 1.0) / (3.0 * L * L)    # da/dl1
    a3 = -2.0 * _SQRT3 * (l1 + 1.0) / (3.0 * L * L)   # da/dl3
    leg_term = (cp + l2) / (l2 * L * L)               # -d/dl1 = -d/dl3 of (cos phi + l2)/(l2 L)
    g = np.zeros((7, 7) + getattr(phi, "shape", ()))  # a stack on the trailing axes, moved below
    g[0, :4] = (*_x1_planar(c, s, a), dtheta, _x1_phi_rate(cp, sp, l2, L, a))
    g[1, 4] = g[2, 5] = g[3, 6] = 1.0
    g[4, :4] = (a1 * s, -a1 * c, -1.0 / (L * L), leg_term - a1 * sp / l2)
    g[5, 3] = ((a * sp + cp) + cp / L) / (l2 * l2)
    g[6, :4] = (a3 * s, -a3 * c, -1.0 / (L * L), leg_term - a3 * sp / l2)
    g += 0.0  # -0.0 -> 0.0, so that serialized matrices do not depend on signs of zero
    return g.transpose(*range(2, g.ndim), 0, 1)


def gbar_det(phi, l1, l2, l3):
    """det Gbar in closed form, over floats or arrays; it does not depend on x, y or theta.

    det = 2 sqrt3 (a sin phi + (1 + 1/L) cos phi) / (3 L^3 l2^2), with L and a
    of ``_x1_shape``.  It vanishes off l2 = 0 and L = 0 only on Sigma, where
    the growth drops to (4, 6).
    """
    L, a, _ = _x1_shape(l1, l3)
    cp, sp = _cos_sin(phi)
    return 2.0 * _SQRT3 * (a * sp + (1.0 + 1.0 / L) * cp) / (3.0 * L * L * L * l2 * l2)


def _gbar(q: Configuration) -> np.ndarray:
    _check_regular(*q.legs())
    return closed_form_gbar(*q.values[2:])


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


#: samples per array pass of ``sweep_growth``: its memory is bounded at every sweep size
SWEEP_CHUNK = 4096

#: how far above the rank cutoff a certificate decides; far above the rounding of the
#: certificate and of LAPACK's singular values (about 7 eps sigma1)
_CERTIFICATE_MARGIN = 1e-12


def sweep_growth(phis, legs, rank_tol: float) -> tuple[dict, float]:
    """Growth counts of the slice points (0, 0, pi/2, phi, l1, l2, l3), and the worst certificate.

    ``phis`` is (N,) and ``legs`` (N, 3).  Each sample's certificate is
    c = |``gbar_det``| / ||Gbar||_F^7: sigma7/sigma1 >= |det| / sigma1^7 >= c,
    and by interlacing the frame rows X1..X4 have sigma4/sigma1 >= sigma7/sigma1,
    so c > rank_tol (plus a margin far above rounding) is growth (4, 7), the
    decision ``controllability`` makes.  The other samples take one stacked
    ``_rank`` of the frame and one of Gbar at rank_tol.  c is at most
    7^-3.5 (about 1.1e-3, AM-GM on the singular values), so from that
    rank_tol up every sample takes the SVD; below it the certificate spares
    the stacked SVDs, which take most of an all-SVD sweep's time.  Works through
    ``SWEEP_CHUNK`` samples at a time; returns ({(rank4, rank7): count}, min c).
    A sample that ``controllability`` refuses raises SingularConfiguration.
    """
    counts, worst = collections.Counter(), math.inf
    for start in range(0, len(phis), SWEEP_CHUNK):
        phi, shape = phis[start:start + SWEEP_CHUNK], legs[start:start + SWEEP_CHUNK]
        l1, l2, l3 = shape.T
        singular = (np.abs(l2) < SINGULAR_EPS) | (np.abs(l1 + l3 + 2.0) < SINGULAR_EPS)
        if singular.any():
            _check_regular(*shape[np.argmax(singular)].tolist())
        g = closed_form_gbar(math.pi / 2.0, phi, l1, l2, l3)
        cert = np.abs(gbar_det(phi, l1, l2, l3)) / np.linalg.norm(g, axis=(-2, -1)) ** 7
        worst = min(worst, float(cert.min()))
        ranks = np.tile([4, 7], (len(phi), 1))
        undecided = ~(cert > rank_tol + _CERTIFICATE_MARGIN)
        if undecided.any():
            ranks[undecided, 0] = _rank(g[undecided, :4], rank_tol)
            ranks[undecided, 1] = _rank(g[undecided], rank_tol)
        counts.update(map(tuple, ranks.tolist()))
    return dict(counts), worst


@dataclass(frozen=True)
class DynamicPairResult:
    rank_v0: int
    rank_v1: int
    transversal: bool


def check_dynamic_pair(q: Configuration, f: float) -> DynamicPairResult:
    """Regularity of the dynamic pair with drift f*X1 and inputs X2, X3, X4.

    V0 = span(X2,X3,X4), V1 = V0 + [f*X1, V0]; at regular points the ranks
    are (3, 6) and V1 + <f*X1> fills the tangent space.  For a constant
    f != 0, [f*X1, Xi] = f*[X1, Xi], so V1 and V1 + <f*X1> are the spans of
    Gbar's rows 1-6 and of all its rows, whatever f is: the ranks are taken
    at RANK_TOL on the unscaled rows, and f is only checked to be nonzero.
    """
    if f == 0.0:
        raise ValueError("f must be a nonzero constant")
    gbar = _gbar(q)
    return DynamicPairResult(
        rank_v0=_rank(gbar[1:4], RANK_TOL),
        rank_v1=_rank(gbar[1:], RANK_TOL),
        transversal=_rank(gbar, RANK_TOL) == 7,
    )


@dataclass(frozen=True)
class SignatureResult:
    """Signature (p, r) of the Pfaffian quadratic form, stored as given.

    ``pfaffian_signature`` builds only (0, 0).
    """

    p: int
    r: int
    eig_tol: float

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
