"""The paper's identities as named stages, each with the one bound its
residual must stay within, shared by the build-time checks and ``verify``.

A failed invariant is a bug in the program, not a bad input: ``require``
raises ``InvariantError``, which the command line reports with exit 1.
"""

__all__ = ["InvariantError", "BOUNDS", "require"]


class InvariantError(RuntimeError):
    """An identity the construction guarantees failed: a bug, not a bad input."""


# stage -> largest residual it accepts
BOUNDS = {
    "projector": 1e-12,  # max |p p - p|, |p - p^dagger|; in verify also |ch0 - (1 +- 1/N)|
    "beta-kappa": 1e-13,  # |beta kappa - sign/N|, since sqrt(4 + kappa^2) = N kappa
    "curvature": 1e-8,  # |F - lambda omega| / |omega|
    "charge-imag": 1e-10,  # |imag c1| of a fuzzy charge
    "quadrature-imag": 1e-9,  # |imag c1| of the oracle's quadrature
    "su2-repr": 1e-12,
    "covariance": 1e-14,  # max_b |[p, L_b]| / (N/2), L_b = S_b (x) 1 + 1 (x) J_b
    "diff-calculus": 1e-11,
    "chern-integration": 1e-9,
    "s2-oracle": 1e-8,
    "linalg-trace": 1e-12,  # |tr(a b) - tr(b a)|, relative to |tr(a b)|
    "linalg-kron": 1e-14,  # |(a x b) x c - a x (b x c)|, relative to its first term
}


def require(stage, residual, at=""):
    """Raise InvariantError unless residual <= BOUNDS[stage], so a NaN fails;
    ``at`` names the input, as in "N=3 sign=+1"."""
    if not residual <= BOUNDS[stage]:
        raise InvariantError("%s residual %.3e exceeds %g%s"
                             % (stage, residual, BOUNDS[stage], at and " at " + at))
