"""The tests' references for ``fuzzychern.bundles.curvature``, which forms
beta^2 p (dQ ^ dQ) from a dQ ^ dQ that both signs share.

``curvature`` is p (dp)(dp) through the derivations, dp = d0(p) with
e_a(p) = (1/kappa) [1_n (x) X_a, p]. Here ``derive`` and ``d0`` act on the
rank-n module, and ``curvature`` takes any square n*N matrix, checked for
idempotency, so the tests can feed it projectors that are not a
``FuzzyProjector``. The division by kappa ~ 2/N makes its roundoff grow
about as N.

``spin_factor_curvature`` is the per-sign form that ``bundles.curvature``
replaced: p (dp)(dp) with dp_b = [p, S_b (x) 1], S_b = sigma_b / 2, so each
sign makes its own dp and dp ^ dp.
"""

import numpy as np

from fuzzychern.bundles import PAULI
from fuzzychern.calculus import GradedForm, module_trace, scalar_form, wedge
from fuzzychern.linalg import ShapeError, as_matrix, commutator, identity_like, kron, max_abs


def derive(coords, axis, f):
    """e_a(f) = (1/kappa) [1_n (x) X_a, f] on an element f of the rank-n module."""
    f = as_matrix(f)
    if f.shape[0] != f.shape[1] or f.shape[0] % coords.N != 0:
        raise ShapeError("derive needs a square n*N matrix, got %s" % (f.shape,))
    x = kron(np.eye(f.shape[0] // coords.N), coords.axis(axis))
    return (x @ f - f @ x) / coords.kappa


def d0(coords, f):
    """df = e_a(f) theta^a on the rank-n module."""
    comps = tuple(derive(coords, a, f) for a in (1, 2, 3))
    return GradedForm(1, comps[0].shape[0] // coords.N, coords.N, comps)


def curvature(coords, p):
    """p (dp)(dp) of an idempotent matrix p on the rank-n module."""
    p = as_matrix(p)
    if max_abs(p @ p - p) > 1e-10:
        raise ValueError("curvature needs an idempotent input")
    dp = d0(coords, p)
    return wedge(scalar_form(p, module_rank=dp.module_rank, algebra_dim=coords.N),
                 wedge(dp, dp))


def chern_character_form(coords, p):
    """Module trace of ``curvature``."""
    return module_trace(curvature(coords, p))


def spin_factor_curvature(coords, proj):
    """p (dp)(dp) of a ``FuzzyProjector``, dp_b = [p, S_b (x) 1] for its own p."""
    p = proj.realization
    one = identity_like(p, coords.N)
    dp = GradedForm(1, 2, coords.N, tuple(commutator(p, kron(s / 2, one)) for s in PAULI))
    return wedge(scalar_form(p, module_rank=2, algebra_dim=coords.N), wedge(dp, dp))
