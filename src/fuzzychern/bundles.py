"""The fuzzy projector and its curvature.

The fuzzy projector is p = alpha + beta sigma_a (x) X_a with the two
coefficient branches that make it idempotent. Curvature is the
Grassmann-connection two-form p (dp)(dp).
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import d0, module_trace, scalar_form, wedge
from .invariants import require
from .linalg import as_matrix, identity_like, kron, max_abs, normalized_trace

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


def curvature(coords, p):
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
    dp = d0(coords, p)
    n = dp.module_rank
    return wedge(scalar_form(p, module_rank=n, algebra_dim=coords.N), wedge(dp, dp))


def chern_character_form(coords, p):
    """Degree-2 Chern character component: module trace of p (dp)(dp), for a
    ``FuzzyProjector`` or a raw matrix as in ``curvature``."""
    return module_trace(curvature(coords, p))
