"""Projectors over the classical and fuzzy sphere and their curvature.

The fuzzy projector is p = alpha + beta sigma_a (x) X_a with the two
coefficient branches that make it idempotent; the classical side provides
the rank-one projector (1 + sigma.x)/2 and its Kronecker tensor powers.
Curvature is the Grassmann-connection two-form p (dp)(dp).
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import d0, module_trace, scalar_form, wedge
from .linalg import as_matrix, identity_like, kron, max_abs, normalized_trace

__all__ = [
    "PAULI",
    "PointOnSphere",
    "FuzzyProjector",
    "projector_coefficients",
    "solve_projector_params",
    "projector_matrix",
    "build_fuzzy_projector",
    "bott_projector",
    "tensor_power_projector",
    "curvature",
]

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)

MAX_TENSOR_POWER = 12


class OffSphereError(ValueError):
    """Point does not lie on the unit sphere."""


class ProjectorConsistencyError(RuntimeError):
    """Constructed projector violates its own invariants; representation bug."""


@dataclass(frozen=True)
class PointOnSphere:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        r = np.sqrt(self.x1**2 + self.x2**2 + self.x3**2)
        if abs(r - 1.0) > 1e-10:
            raise OffSphereError("|x| = %.12g, expected 1" % r)

    @classmethod
    def from_angles(cls, theta, phi):
        return cls(
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        )

    def as_array(self):
        return np.array([self.x1, self.x2, self.x3])


def projector_coefficients(kappa, sign):
    """(alpha, beta) of the nontrivial idempotent alpha + beta sigma.X on the
    sign branch: beta = sign/sqrt(4 + kappa^2), alpha = (1 + beta kappa)/2."""
    if kappa <= 0:
        raise ValueError("kappa must be positive, got %g" % kappa)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    beta = sign / np.sqrt(4.0 + kappa**2)
    return (1.0 + beta * kappa) / 2.0, beta


def solve_projector_params(kappa):
    """All (alpha, beta) making alpha + beta sigma.X idempotent.

    Solves alpha^2 + beta^2 = alpha together with 2 alpha - kappa beta = 1.
    Returns a list of dicts with keys alpha, beta, trivial, residual; the two
    nontrivial branches come from ``projector_coefficients``.
    """
    out = []
    for sign in (1, -1):
        alpha, beta = projector_coefficients(kappa, sign)
        res = max(
            abs(alpha**2 + beta**2 - alpha),
            abs(2.0 * alpha - kappa * beta - 1.0),
        )
        out.append({"alpha": alpha, "beta": beta, "trivial": False, "residual": res})
    for alpha, beta in ((0.0, 0.0), (1.0, 0.0)):
        out.append({"alpha": alpha, "beta": beta, "trivial": True, "residual": 0.0})
    return out


@dataclass(frozen=True)
class FuzzyProjector:
    """A fuzzy projector with the invariant residuals measured when it was built."""

    spin: object  # SpinLabel
    sign: int  # +1 or -1
    alpha: float
    beta: float
    realization: object = field(repr=False)  # dense ndarray or Banded
    idempotency: float  # max |p p - p|
    selfadjointness: float  # max |p - p^dagger|

    @property
    def N(self):
        return self.spin.N

    @property
    def sign_name(self):
        return "plus" if self.sign > 0 else "minus"

    def ch0(self):
        """Rank component: module trace then normalized algebra trace."""
        return normalized_trace(self.realization) * 2.0

    def idempotency_residual(self):
        return self.idempotency

    def selfadjointness_residual(self):
        return self.selfadjointness


def projector_matrix(coords, alpha, beta):
    """alpha + beta sigma_a (x) X_a, stored like the coordinates."""
    p = alpha * identity_like(coords.X3, 2 * coords.N)
    for a in (1, 2, 3):
        p += beta * kron(PAULI[a - 1], coords.axis(a))
    return p


def build_fuzzy_projector(coords, sign):
    """Construct alpha + beta sigma_a (x) X_a on the chosen sign branch."""
    spin = coords.spin
    kappa = spin.kappa
    alpha, beta = projector_coefficients(kappa, sign)
    N = spin.N
    p = projector_matrix(coords, alpha, beta)
    proj = FuzzyProjector(
        spin=spin, sign=sign, alpha=alpha, beta=beta, realization=p,
        idempotency=max_abs(p @ p - p), selfadjointness=max_abs(p - p.conj().T),
    )
    if proj.idempotency > 1e-12 or proj.selfadjointness > 1e-12:
        raise ProjectorConsistencyError(
            "projector invariants violated at N=%d sign=%+d" % (N, sign)
        )
    # algebraic identity sqrt(4 + kappa^2) = N kappa
    if abs(beta * kappa - sign / N) > 1e-13:
        raise ProjectorConsistencyError("beta*kappa != sign/N at N=%d" % N)
    return proj


def bott_projector(point):
    """(1 + sigma.x)/2 at a point of the unit sphere."""
    x = point.as_array()
    p = np.eye(2, dtype=np.complex128)
    for a in range(3):
        p += x[a] * PAULI[a]
    return p / 2.0


def tensor_power_projector(point, k):
    """k-fold Kronecker power of the rank-one projector at the point."""
    if not 1 <= k <= MAX_TENSOR_POWER:
        raise ValueError("k must be in 1..%d, got %d" % (MAX_TENSOR_POWER, k))
    p = bott_projector(point)
    out = p
    for _ in range(k - 1):
        out = kron(out, p)
    return out


def curvature(ctx, p):
    """Grassmann-connection curvature p (dp)(dp) as a matrix-valued two-form.

    ``p`` is a ``FuzzyProjector``, whose invariants were checked when it was
    built, or a raw matrix, which is checked for idempotency here.
    """
    if isinstance(p, FuzzyProjector):
        p = p.realization
    else:
        p = as_matrix(p)
        if max_abs(p @ p - p) > 1e-10:
            raise ValueError("curvature needs an idempotent input")
    dp = d0(ctx, p)
    n = dp.module_rank
    return wedge(scalar_form(p, module_rank=n, algebra_dim=ctx.N), wedge(dp, dp))


def chern_character_form(ctx, p):
    """Degree-2 Chern character component: module trace of p (dp)(dp), for a
    ``FuzzyProjector`` or a raw matrix as in ``curvature``."""
    return module_trace(curvature(ctx, p))
