"""The paper's identities as named stages, each with the one bound its
residual must stay within. ``check`` is the one place where a residual meets
its bound: the build-time checks ``require`` a passing record, and ``verify``
reduces each suite's records to the ``worst``.

A failed invariant is a bug in the program, not a bad input: ``require``
raises ``InvariantError``, which the command line reports with exit 1.
"""

from collections import namedtuple

__all__ = ["InvariantError", "BOUNDS", "Check", "check", "require", "worst"]


class InvariantError(RuntimeError):
    """An identity the construction guarantees failed: a bug, not a bad input."""


# stage -> largest residual it accepts
BOUNDS = {
    "projector": 1e-12,  # max |p p - p|, |p - p^dagger|; in verify also |ch0 - (1 +- 1/N)|
    "beta-kappa": 1e-13,  # |beta kappa - sign/N|, since sqrt(4 + kappa^2) = N kappa
    "curvature": 1e-8,  # |F - lambda omega| / |omega|
    "charge-imag": 1e-10,  # |imag c1| of a fuzzy charge
    # |imag c1| of the oracle's quadrature: 0.0 exactly at k = 1..12, both orientations, on
    # seven grids from 2x4 to 100x1000, since its density a - conj(a) has real part x - x = 0
    "quadrature-imag": 1e-9,
    "su2-repr": 1e-12,
    "covariance": 1e-14,  # max_b |[p, L_b]| / (N/2), L_b = J_b (x) 1 + 1 (x) S_b
    "diff-calculus": 1e-11,
    "chern-integration": 1e-9,
    "s2-oracle": 1e-8,
    "linalg-trace": 1e-12,  # |tr(a b) - tr(b a)|, relative to |tr(a b)|
    "linalg-kron": 1e-14,  # |(a x b) x c - a x (b x c)|, relative to its first term
    "commutative-limit": 2.0,  # N |c1 -+ 1|, gamma_pm(N) and computed: |c1 -+ 1| <= 2/N
}


Check = namedtuple("Check", "stage residual bound at passed")


def check(stage, residual, at=""):
    """The record of ``residual`` against BOUNDS[stage]; a NaN does not pass.
    ``at`` names the input, as in "N=3 sign=+1"."""
    bound = BOUNDS[stage]
    return Check(stage, residual, bound, at, bool(residual <= bound))


def require(stage, residual, at=""):
    """Raise InvariantError unless ``check`` passes."""
    record = check(stage, residual, at)
    if not record.passed:
        raise InvariantError("%s residual %.3e exceeds %g%s"
                             % (stage, residual, record.bound, at and " at " + at))


def worst(records):
    """A failing record first, then the largest residual; no record is a pass."""
    return max(records, key=lambda r: (not r.passed, r.residual),
               default=Check("", 0.0, 0.0, "", True))
