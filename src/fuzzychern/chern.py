"""Fuzzy volume form, trace integral, and Chern numbers.

The charge pipeline: curvature two-form F of the fuzzy projector, least
squares extraction of its scalar coefficient against the volume form omega,
then c_1 = lambda / (2 pi i). The closed form gamma_pm(N) is computed
independently for comparison. ``reports_for`` builds the coordinates and
omega once per N and reports each sign, on dense matrices up to DENSE_MAX_N
and on ``Banded`` ones above it.
"""

from dataclasses import dataclass

import numpy as np

from .bundles import build_fuzzy_projector, chern_character_form
from .calculus import d0, scalar_form, wedge
from .invariants import require
from .linalg import ShapeError, hs_inner, normalized_trace
from .su2 import SpinLabel, fuzzy_coordinates

__all__ = [
    "ChernReport",
    "volume_form",
    "star_integral",
    "extract_coefficient",
    "gamma_formula",
    "chern_number",
    "reports_for",
    "report_for",
    "sweep",
]

# eps_{abc} as (a, b, c, sign) over the nonzero entries
EPSILON = (
    (1, 2, 3, 1.0),
    (2, 3, 1, 1.0),
    (3, 1, 2, 1.0),
    (1, 3, 2, -1.0),
    (3, 2, 1, -1.0),
    (2, 1, 3, -1.0),
)

# report_for stays dense up to this N: the banded pipeline's ~4 ms per-report
# overhead drops below the dense O(N^3) cost near N = 40 (2 OpenBLAS threads),
# and 45 keeps the last digits of every report for N in 41..45.
DENSE_MAX_N = 45

# a banded fuzzy --N run's RSS grows ~2.2 KB per N (73 MB at N = 2e4, 250 MB at 1e5)
REPORT_BYTES_PER_N = 3000


class DegenerateVolumeError(ValueError):
    """Volume form vanished; coefficient extraction is undefined."""


@dataclass(frozen=True)
class ChernReport:
    N: int
    sign: str  # "plus" | "minus"
    ch0: float
    c1_computed: float
    gamma_formula: float
    abs_error: float
    proportionality_residual: float
    projector_residual: float


def volume_form(coords):
    """omega = eps_abc X_a dX_b ^ dX_c / (8 pi), a scalar-valued two-form."""
    dx = {a: d0(coords, coords.axis(a)) for a in (1, 2, 3)}
    total = None
    for a, b, c, s in EPSILON:
        xa = scalar_form(coords.axis(a), module_rank=1, algebra_dim=coords.N)
        term = wedge(xa, wedge(dx[b], dx[c])).scale(s)
        total = term if total is None else total + term
    return total.scale(1.0 / (8.0 * np.pi))


def star_integral(f):
    """Integral of f against the fuzzy volume: tr_N f."""
    return normalized_trace(f)


def extract_coefficient(F, omega):
    """Least-squares scalar lambda with F ~ lambda * omega, plus the residual.

    lambda = <omega, F> / <omega, omega> over the Hilbert-Schmidt inner
    product summed across the three components; residual = |F - lambda
    omega| / |omega| in the same norm.
    """
    if F.degree != 2 or omega.degree != 2:
        raise ValueError("extract_coefficient needs two-forms")
    if F.module_rank != 1 or omega.module_rank != 1:
        raise ShapeError("extract_coefficient needs scalar-valued forms")
    if F.algebra_dim != omega.algebra_dim:
        raise ShapeError("algebra dimensions differ")
    denom = sum(
        hs_inner(w, w).real for w in omega.components
    )
    if denom == 0.0:
        raise DegenerateVolumeError("volume form is zero")
    num = sum(hs_inner(w, f) for w, f in zip(omega.components, F.components))
    lam = num / denom
    residual = (F - omega.scale(lam)).norm() / omega.norm()
    return lam, residual


def gamma_formula(N, sign):
    """Closed-form fuzzy topological charge gamma_pm(N); sign is 1, -1,
    "plus" or "minus"."""
    if N < 2:
        raise ValueError("N must be >= 2, got %d" % N)
    if sign in (1, "plus"):
        s = 1.0
    elif sign in (-1, "minus"):
        s = -1.0
    else:
        raise ValueError("sign must be 1, -1, 'plus' or 'minus', got %r" % (sign,))
    return (1.0 - 1.0 / N**2) ** 1.5 * (N + s * (N**2 - 2)) / (N**2 - 3)


def chern_number(projector, coords, omega):
    """Full charge report for a fuzzy projector built on ``coords``, whose
    volume form is ``omega``."""
    if coords.spin != projector.spin:
        raise ValueError("coordinate spin does not match projector spin")
    F = chern_character_form(coords, projector)
    lam, residual = extract_coefficient(F, omega)
    at = "N=%d sign=%+d" % (projector.N, projector.sign)
    require("curvature", residual, at)
    # c1 = lambda * star_integral(1) / (2 pi i), and star_integral(1) = tr_N(1)/N = 1
    c1 = lam / (2.0j * np.pi)
    require("charge-imag", abs(c1.imag), at)
    gamma = gamma_formula(projector.N, projector.sign)
    ch0 = projector.ch0()
    return ChernReport(
        N=projector.N,
        sign=projector.sign_name,
        ch0=ch0.real,
        c1_computed=c1.real,
        gamma_formula=gamma,
        abs_error=abs(c1.real - gamma),
        proportionality_residual=residual,
        projector_residual=max(projector.idempotency, projector.selfadjointness),
    )


def reports_for(N, signs=(1, -1)):
    """Reports for each sign at one N, sharing the coordinates and the volume
    form; on banded operators when N > DENSE_MAX_N."""
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=N > DENSE_MAX_N)
    omega = volume_form(coords)
    return [chern_number(build_fuzzy_projector(coords, s), coords, omega) for s in signs]


def report_for(N, sign):
    """The report for one (N, sign)."""
    return reports_for(N, (sign,))[0]


def sweep(n_values):
    """Reports for each N in n_values and both signs, ordered by N then sign."""
    return [r for N in n_values for r in reports_for(N)]
