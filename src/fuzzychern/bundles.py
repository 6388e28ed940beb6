"""The fuzzy projector and its curvature.

The fuzzy projector is p = alpha + beta Q, Q = sigma_a (x) X_a, with the two
coefficient branches that make it idempotent. Curvature is the
Grassmann-connection two-form p (dp)(dp) = beta^2 p (dQ ^ dQ).
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import GradedForm, scalar_form, wedge
from .invariants import require
from .linalg import identity_like, kron, max_abs, normalized_trace

__all__ = ["PAULI", "FuzzyProjector", "projector_coefficients", "sigma_dot_x",
           "build_fuzzy_projector", "dq", "dq_wedge_dq", "curvature"]

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


def sigma_dot_x(coords):
    """Q = sigma_a (x) X_a, stored like the coordinates."""
    return kron(PAULI[0], coords.X1) + kron(PAULI[1], coords.X2) + kron(PAULI[2], coords.X3)


def build_fuzzy_projector(coords, sign, sigma_x=None):
    """Construct alpha + beta Q on the chosen sign branch; ``sigma_x`` passes
    in a Q that several projectors share."""
    alpha, beta = projector_coefficients(coords.kappa, sign)
    q = sigma_dot_x(coords) if sigma_x is None else sigma_x
    p = alpha * identity_like(q, 2 * coords.N) + beta * q
    proj = FuzzyProjector(
        spin=coords.spin, sign=sign, alpha=alpha, beta=beta, realization=p,
        idempotency=max_abs(p @ p - p), selfadjointness=max_abs(p - p.conj().T),
    )
    at = "N=%d sign=%+d" % (coords.N, sign)
    require("projector", max(proj.idempotency, proj.selfadjointness), at)
    require("beta-kappa", abs(beta * coords.kappa - sign / coords.N), at)
    return proj


def dq(coords):
    """dQ_b = i eps_abc sigma_c (x) X_a (see ``curvature``): two krons per b."""
    x, i_sigma = (coords.X1, coords.X2, coords.X3), [1j * s for s in PAULI]
    return GradedForm(1, 2, coords.N, tuple(kron(i_sigma[(b + 1) % 3], x[(b + 2) % 3])
                                            - kron(i_sigma[(b + 2) % 3], x[(b + 1) % 3])
                                            for b in range(3)))


def dq_wedge_dq(coords):
    """W = dQ ^ dQ, the part of the curvature that does not depend on the sign."""
    d = dq(coords)
    return wedge(d, d)


def curvature(coords, proj, w=None):
    """p (dp)(dp) = beta^2 p W of a ``FuzzyProjector``; ``w`` passes in a
    shared W = ``dq_wedge_dq(coords)``.

    alpha multiplies the identity, so dp = beta dQ. Q commutes with
    L_b = S_b (x) 1 + 1 (x) J_b, S_b = sigma_b / 2, X_b = kappa J_b, so
    dQ_b = (1/kappa) [1 (x) X_b, Q] = [1 (x) J_b, Q] = [Q, S_b (x) 1]: no
    division by kappa ~ 2/N, which would amplify roundoff by N. By
    [sigma_a, sigma_b] = 2i eps_abc sigma_c, that is
    sum_a [sigma_a, sigma_b / 2] (x) X_a = i eps_abc sigma_c (x) X_a.
    """
    w = dq_wedge_dq(coords) if w is None else w
    return wedge(scalar_form(proj.beta**2 * proj.realization, 2, coords.N), w)

