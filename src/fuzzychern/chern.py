"""Fuzzy volume form, trace integral, and Chern numbers.

The charge pipeline: curvature two-form F of the fuzzy projector, least
squares extraction of its scalar coefficient against the volume form omega,
then c_1 = lambda / (2 pi i). The closed form gamma_pm(N) is computed
independently for comparison. ``report_for`` runs the pipeline on dense
matrices up to DENSE_MAX_N and on ``Banded`` ones above it.
"""

from dataclasses import dataclass

import numpy as np

from .bundles import build_fuzzy_projector, chern_character_form
from .calculus import CalculusContext, d0, scalar_form, wedge
from .linalg import ShapeError, hs_inner, normalized_trace
from .su2 import SpinLabel, fuzzy_coordinates

__all__ = [
    "ChernReport",
    "volume_form",
    "star_integral",
    "extract_coefficient",
    "gamma_formula",
    "chern_number",
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

# report_for stays dense up to this N. The banded pipeline costs about 5 ms
# per report whatever N, in per-operation overhead; the dense one costs
# O(N^3) and passes 5 ms between N = 44 and 46 (2 threads of OpenBLAS).
DENSE_MAX_N = 45


class NonProportionalCurvatureError(RuntimeError):
    """Curvature is not a scalar multiple of the volume form; structural bug."""


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

    def as_dict(self):
        return {
            "N": self.N,
            "sign": self.sign,
            "ch0": self.ch0,
            "c1_computed": self.c1_computed,
            "gamma_formula": self.gamma_formula,
            "abs_error": self.abs_error,
            "proportionality_residual": self.proportionality_residual,
            "projector_residual": self.projector_residual,
        }


def volume_form(ctx):
    """omega = eps_abc X_a dX_b ^ dX_c / (8 pi), a scalar-valued two-form."""
    dx = {a: d0(ctx, ctx.coords.axis(a)) for a in (1, 2, 3)}
    total = None
    for a, b, c, s in EPSILON:
        xa = scalar_form(ctx.coords.axis(a), module_rank=1, algebra_dim=ctx.N)
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


def chern_number(projector, ctx, residual_threshold=1e-8):
    """Full charge report for a fuzzy projector in its calculus context."""
    if ctx.coords.spin != projector.spin:
        raise ValueError("context spin does not match projector spin")
    F = chern_character_form(ctx, projector)
    omega = volume_form(ctx)
    lam, residual = extract_coefficient(F, omega)
    if residual > residual_threshold:
        raise NonProportionalCurvatureError(
            "curvature not proportional to omega: residual %.3e" % residual
        )
    # c1 = lambda * star_integral(1) / (2 pi i), and star_integral(1) = tr_N(1)/N = 1
    c1 = lam / (2.0j * np.pi)
    if abs(c1.imag) > 1e-10:
        raise NonProportionalCurvatureError(
            "charge has imaginary part %.3e" % c1.imag
        )
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


def report_for(N, sign):
    """Convenience: build everything for one (N, sign) and report, on banded
    operators when N > DENSE_MAX_N."""
    coords = fuzzy_coordinates(SpinLabel.from_dimension(N), banded=N > DENSE_MAX_N)
    ctx = CalculusContext(coords)
    proj = build_fuzzy_projector(coords, sign)
    return chern_number(proj, ctx)


def sweep(n_values, signs=(1, -1)):
    """Reports for each N in n_values and each sign, ordered by N then sign."""
    return [report_for(N, s) for N in n_values for s in signs]
