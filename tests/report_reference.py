"""The dense charge report in the ordering sigma (x) X: the tests' reference
for the reports of ``fuzzychern.chern``, which run banded in the ordering
X (x) sigma and stack a ladder of N block-diagonally.

This is the pipeline the program ran on dense matrices up to N = 45: Q, p,
dQ and F = beta^2 p (dQ ^ dQ) are numpy products on one N, and the module
trace sums the two N x N diagonal blocks. Only ``wedge`` and the volume form
come from the program; the coordinates and the least-squares fit are the
dense ones of ``dense_reference``.
"""

import numpy as np

from fuzzychern.bundles import PAULI, projector_coefficients
from fuzzychern.calculus import GradedForm, scalar_form, wedge
from fuzzychern.chern import ChernReport, gamma_formula, volume_form
from fuzzychern.su2 import SpinLabel
from dense_reference import dense_coordinates, extract_coefficient


def dense_report(N, sign):
    """The ``ChernReport`` of (N, sign), every product a dense one."""
    spin = SpinLabel.from_dimension(N)
    coords = dense_coordinates(spin)
    xs = (coords.X1, coords.X2, coords.X3)
    alpha, beta = projector_coefficients(spin.kappa, sign)
    p = alpha * np.eye(2 * N) + beta * sum(np.kron(s, x) for s, x in zip(PAULI, xs))
    # dQ_b = i eps_abc sigma_c (x) X_a
    i_sigma = [1j * s for s in PAULI]
    dq = GradedForm(1, 2, N, tuple(np.kron(i_sigma[(b + 1) % 3], xs[(b + 2) % 3])
                                   - np.kron(i_sigma[(b + 2) % 3], xs[(b + 1) % 3])
                                   for b in range(3)))
    F = wedge(scalar_form(beta**2 * p, 2, N), wedge(dq, dq))
    traced = GradedForm(2, 1, N, tuple(np.einsum("iaib->ab", c.reshape(2, N, 2, N))
                                       for c in F.components))
    lam, residual = extract_coefficient(traced, volume_form(coords))
    c1 = (lam / (2.0j * np.pi)).real
    gamma = gamma_formula(N, sign)
    return ChernReport(
        N=N, sign="plus" if sign > 0 else "minus", ch0=np.trace(p).real / N, c1_computed=c1,
        gamma_formula=gamma, abs_error=abs(c1 - gamma), proportionality_residual=residual,
        projector_residual=max(np.max(np.abs(p @ p - p)), np.max(np.abs(p - p.conj().T))))
