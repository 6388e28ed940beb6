"""The fuzzy projector and its curvature.

The fuzzy projector is p = alpha + beta Q, Q = X_a (x) sigma_a, with the two
coefficient branches that make it idempotent. Curvature is the
Grassmann-connection two-form p (dp)(dp) = beta^2 p (dQ ^ dQ). Each is built
on the coordinates of a ladder of spins at once: in the ordering X (x) sigma,
rows 2i and 2i + 1 of the module belong to row i of the coordinates, so a
block's alpha and beta scale its own rows, and no operator's offsets depend
on N.
"""

from dataclasses import dataclass, field

import numpy as np

from .calculus import GradedForm, scalar_form, wedge
from .invariants import require
from .linalg import Banded, kron, max_abs, normalized_trace

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
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    beta = sign / np.sqrt(4.0 + kappa**2)
    return (1.0 + beta * kappa) / 2.0, beta


@dataclass(frozen=True)
class FuzzyProjector:
    """A fuzzy projector on each block of a ladder, with the invariant residuals
    measured when it was built. alpha and beta hold one value per row of the
    coordinates, the residuals one value per block."""

    spins: tuple  # SpinLabels, one block each
    sign: int  # +1 or -1
    alpha: object = field(repr=False)
    beta: object = field(repr=False)
    realization: object = field(repr=False)  # Banded
    idempotency: object  # max |p p - p|
    selfadjointness: object  # max |p - p^dagger|

    def ch0(self):
        """Rank component of each block: module trace then normalized algebra trace."""
        return normalized_trace(self.realization, 2 * np.array([s.N for s in self.spins])) * 2.0


def sigma_dot_x(coords):
    """Q = X_a (x) sigma_a, stored like the coordinates."""
    return kron(coords.X1, PAULI[0]) + kron(coords.X2, PAULI[1]) + kron(coords.X3, PAULI[2])


def build_fuzzy_projector(coords, sign, sigma_x=None):
    """Construct alpha + beta Q on the chosen sign branch on the ``Banded``
    coordinates of a ladder; ``sigma_x`` passes in a Q that several
    projectors share."""
    alpha, beta = projector_coefficients(coords.kappa, sign)
    q = sigma_dot_x(coords) if sigma_x is None else sigma_x
    p = Banded.from_diagonals(2 * coords.N, {0: alpha.repeat(2)}) + beta.repeat(2) * q
    sizes = coords.sizes
    proj = FuzzyProjector(
        spins=coords.spins, sign=sign, alpha=alpha, beta=beta, realization=p,
        idempotency=max_abs(p @ p - p, 2 * sizes),
        selfadjointness=max_abs(p - p.conj().T, 2 * sizes),
    )
    beta_kappa = (beta * coords.kappa)[np.add.accumulate(sizes) - sizes]  # at each block's top
    for N, residual, bk in zip(sizes.tolist(), np.maximum(proj.idempotency, proj.selfadjointness),
                               beta_kappa):
        at = "N=%d sign=%+d" % (N, sign)
        require("projector", residual, at)
        require("beta-kappa", abs(bk - sign / N), at)
    return proj


def dq(coords):
    """dQ_b = i eps_abc X_a (x) sigma_c (see ``curvature``): two krons per b."""
    x, i_sigma = (coords.X1, coords.X2, coords.X3), [1j * s for s in PAULI]
    return GradedForm(1, 2, coords.N, tuple(kron(x[(b + 2) % 3], i_sigma[(b + 1) % 3])
                                            - kron(x[(b + 1) % 3], i_sigma[(b + 2) % 3])
                                            for b in range(3)))


def dq_wedge_dq(coords):
    """W = dQ ^ dQ, the part of the curvature that does not depend on the sign."""
    d = dq(coords)
    return wedge(d, d)


def curvature(coords, proj, w=None):
    """p (dp)(dp) = beta^2 p W of a ``FuzzyProjector``; ``w`` passes in a
    shared W = ``dq_wedge_dq(coords)``.

    alpha multiplies the identity, so dp = beta dQ. Q commutes with
    L_b = 1 (x) S_b + J_b (x) 1, S_b = sigma_b / 2, X_b = kappa J_b, so
    dQ_b = (1/kappa) [X_b (x) 1, Q] = [J_b (x) 1, Q] = [Q, 1 (x) S_b]: no
    division by kappa ~ 2/N, which would amplify roundoff by N. By
    [sigma_a, sigma_b] = 2i eps_abc sigma_c, that is
    sum_a X_a (x) [sigma_a, sigma_b / 2] = i eps_abc X_a (x) sigma_c.
    """
    w = dq_wedge_dq(coords) if w is None else w
    return wedge(scalar_form((proj.beta**2).repeat(2) * proj.realization, 2, coords.N), w)
