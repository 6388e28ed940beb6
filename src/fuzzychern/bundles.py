"""The fuzzy projector and its curvature.

The fuzzy projector is p = alpha + beta sigma_a (x) X_a with the two
coefficient branches that make it idempotent. Curvature is the
Grassmann-connection two-form p (dp)(dp).
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import GradedForm, module_trace, scalar_form, wedge
from .invariants import require
from .linalg import commutator, identity_like, kron, max_abs, normalized_trace

__all__ = [
    "PAULI",
    "FuzzyProjector",
    "projector_coefficients",
    "build_fuzzy_projector",
    "curvature",
    "chern_character_form",
]

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=np.complex128),
    np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    np.array([[1, 0], [0, -1]], dtype=np.complex128),
)


def projector_coefficients(kappa, sign):
    """(alpha, beta) of the nontrivial idempotent alpha + beta sigma.X on the
    sign branch: beta = sign/sqrt(4 + kappa^2), alpha = (1 + beta kappa)/2."""
    if kappa <= 0:
        raise ValueError("kappa must be positive, got %g" % kappa)
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    beta = sign / np.sqrt(4.0 + kappa**2)
    return (1.0 + beta * kappa) / 2.0, beta


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


def build_fuzzy_projector(coords, sign):
    """Construct alpha + beta sigma_a (x) X_a on the chosen sign branch,
    stored like the coordinates."""
    alpha, beta = projector_coefficients(coords.kappa, sign)
    p = alpha * identity_like(coords.X3, 2 * coords.N)
    for a in (1, 2, 3):
        p += beta * kron(PAULI[a - 1], coords.axis(a))
    proj = FuzzyProjector(
        spin=coords.spin, sign=sign, alpha=alpha, beta=beta, realization=p,
        idempotency=max_abs(p @ p - p), selfadjointness=max_abs(p - p.conj().T),
    )
    at = "N=%d sign=%+d" % (coords.N, sign)
    require("projector", max(proj.idempotency, proj.selfadjointness), at)
    require("beta-kappa", abs(beta * coords.kappa - sign / coords.N), at)
    return proj


def curvature(coords, proj):
    """p (dp)(dp) of a ``FuzzyProjector``. p commutes with L_b = S_b (x) 1 + 1 (x) J_b,
    S_b = sigma_b / 2, so e_b(p) = (1/kappa) [1 (x) X_b, p] = [p, S_b (x) 1]: no
    division by kappa ~ 2/N, which would amplify roundoff by N."""
    p = proj.realization
    one = identity_like(p, coords.N)
    dp = GradedForm(1, 2, coords.N, tuple(commutator(p, kron(s / 2, one)) for s in PAULI))
    return wedge(scalar_form(p, module_rank=2, algebra_dim=coords.N), wedge(dp, dp))


def chern_character_form(coords, proj):
    """Degree-2 Chern character component: module trace of ``curvature``."""
    return module_trace(curvature(coords, proj))
