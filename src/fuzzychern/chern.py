"""Fuzzy volume form, coefficient extraction, and Chern numbers.

The charge pipeline: curvature two-form F of the fuzzy projector, least
squares extraction of its scalar coefficient against the volume form omega,
then c_1 = lambda / (2 pi i). The closed form gamma_pm(N) is computed
independently for comparison. ``reports_for`` builds the coordinates,
omega, sigma.X and dQ ^ dQ once per N and reports each sign, on dense
matrices up to DENSE_MAX_N and on ``Banded`` ones above it.
"""

from dataclasses import dataclass

import numpy as np

from .bundles import build_fuzzy_projector, curvature, dq_wedge_dq, sigma_dot_x
from .calculus import EPS_ROWS, GradedForm, module_trace
from .invariants import require
from .linalg import ShapeError, hs_inner
from .su2 import SpinLabel, fuzzy_coordinates

__all__ = ["DENSE_MAX_N", "REPORT_BYTES_PER_N", "DegenerateVolumeError", "ChernReport",
           "volume_form", "extract_coefficient", "gamma_formula", "chern_number", "reports_for",
           "report_for", "sweep"]

# report_for stays dense up to this N: both signs' banded reports (~1.6 ms at N <= 45) beat the
# dense O(N^3) ones from N = 36 (2 BLAS threads), and 45 keeps every report's digits for N <= 45.
DENSE_MAX_N = 45

# a fresh reports_for(N) peaks at 1750 B per N traced at N = 1e3 (1730 at 1e4), and
# a banded fuzzy --N run's RSS grows ~1.7 KB per N (65 MB at N = 2e4, 204 MB at 1e5)
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
    """omega = eps_abc X_a dX_b ^ dX_c / (8 pi), a scalar-valued two-form,
    in closed form: its theta^a ^ theta^b component is lam eps_abc X_c with
    lam = (kappa^2 - 2) / (8 pi).

    From [X_a, X_b] = i kappa eps_abc X_c, dX_b = e_a(X_b) theta^a =
    i eps_abc X_c theta^a. So eps_abc X_a dX_b ^ dX_c = T_de theta^d ^ theta^e,
    summed over all d and e, and contracting eps_abc eps_dbf over b, with
    eps_efg X_f X_g = i kappa X_e and sum_a X_a^2 = 1, gives
    T_de = -(i kappa X_d X_e + eps_deg X_g). The theta^d ^ theta^e component
    (d < e) is T_de - T_ed = -(i kappa [X_d, X_e] + 2 eps_deg X_g)
    = (kappa^2 - 2) eps_deg X_g. So omega takes no matrix product, dense or
    banded.
    """
    lam = (coords.kappa**2 - 2.0) / (8.0 * np.pi)
    return GradedForm(2, 1, coords.N, tuple(s * lam * coords.axis(c) for _, _, c, s in EPS_ROWS))


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
    denom = sum(hs_inner(w, w).real for w in omega.components)
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


def chern_number(projector, coords, omega, w=None):
    """Full charge report for a fuzzy projector built on ``coords``, whose
    volume form is ``omega`` and whose W = dQ ^ dQ is ``w`` (see
    ``bundles.curvature``)."""
    if coords.spin != projector.spin:
        raise ValueError("coordinate spin does not match projector spin")
    F = module_trace(curvature(coords, projector, w))  # the degree-2 Chern character
    lam, residual = extract_coefficient(F, omega)
    at = "N=%d sign=%+d" % (projector.N, projector.sign)
    require("curvature", residual, at)
    # c1 = lambda * tr_N(1) / (2 pi i), and the normalized trace tr_N(1) = N/N = 1
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
    """Reports for each sign at one N, sharing the coordinates, the volume
    form, sigma.X and dQ ^ dQ; on banded operators when N > DENSE_MAX_N."""
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=N > DENSE_MAX_N)
    omega, q, w = volume_form(coords), sigma_dot_x(coords), dq_wedge_dq(coords)
    return [chern_number(build_fuzzy_projector(coords, s, sigma_x=q), coords, omega, w)
            for s in signs]


def report_for(N, sign):
    """The report for one (N, sign)."""
    return reports_for(N, (sign,))[0]


def sweep(n_values):
    """Reports for each N in n_values and both signs, ordered by N then sign."""
    return [r for N in n_values for r in reports_for(N)]
