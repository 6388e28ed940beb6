"""Fuzzy volume form, coefficient extraction, and Chern numbers.

The charge pipeline: curvature two-form F of the fuzzy projector, least
squares extraction of its scalar coefficient against the volume form omega,
then c_1 = lambda / (2 pi i). The closed form gamma_pm(N) is computed
independently for comparison. ``reports_for`` takes a ladder of N and runs
it in batches: each batch stacks the coordinates of its N block-diagonally
as ``Banded`` matrices, builds omega, sigma.X and dQ ^ dQ once, and reduces
each block to its own report, whose bytes do not depend on the batch.
"""

from dataclasses import dataclass

import numpy as np

from .bundles import build_fuzzy_projector, curvature, dq_wedge_dq, sigma_dot_x
from .calculus import EPS_ROWS, GradedForm, module_trace
from .invariants import require
from .linalg import hs_inner
from .su2 import SpinLabel, fuzzy_coordinates

__all__ = ["BATCH_DIM", "REPORT_BYTES_PER_N", "ChernReport",
           "volume_form", "extract_coefficient", "gamma_formula", "chern_number", "reports_for",
           "report_for", "sweep"]

# reports_for stacks consecutive N of a ladder while their N sum to at most this, and
# a larger N runs alone: 2..32 (527) is one batch. A batch peaks near 1750 B per stacked
# N, so a fresh sweep(range(2, M + 1)), whose peak is its last N plus the kept reports,
# takes 2540 B per N of M at M = 1e3 and 2396 B at 4e3, and verify's ladder 1755 and
# 1729 B; below M = 1024 a batch's own peak (1.8 MB at most) may exceed M x 3000 B
BATCH_DIM = 1024

# a fresh reports_for([N]) peaks at 1750 B per N traced at N = 1e3 (1730 at 1e4), and
# a fuzzy --N run's RSS grows ~1.7 KB per N (65 MB at N = 2e4, 204 MB at 1e5)
REPORT_BYTES_PER_N = 3000


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
    lam = (kappa^2 - 2) / (8 pi), taken per row, so each block has its own.

    From [X_a, X_b] = i kappa eps_abc X_c, dX_b = e_a(X_b) theta^a =
    i eps_abc X_c theta^a. So eps_abc X_a dX_b ^ dX_c = T_de theta^d ^ theta^e,
    summed over all d and e, and contracting eps_abc eps_dbf over b, with
    eps_efg X_f X_g = i kappa X_e and sum_a X_a^2 = 1, gives
    T_de = -(i kappa X_d X_e + eps_deg X_g). The theta^d ^ theta^e component
    (d < e) is T_de - T_ed = -(i kappa [X_d, X_e] + 2 eps_deg X_g)
    = (kappa^2 - 2) eps_deg X_g. So omega takes no matrix product.
    """
    lam = (coords.kappa**2 - 2.0) / (8.0 * np.pi)
    return GradedForm(2, 1, coords.N, tuple(s * lam * coords.axis(c) for _, _, c, s in EPS_ROWS))


def extract_coefficient(F, omega, sizes):
    """Least-squares scalar lambda with F ~ lambda * omega on each block of a
    ladder of the given ``sizes``, plus the residual of each block.

    lambda = <omega, F> / <omega, omega> over the Hilbert-Schmidt inner
    product summed across the three components; residual = |F - lambda
    omega| / |omega| in the same norm. Both are scalar-valued two-forms, and
    omega never vanishes: its lam = (kappa^2 - 2) / (8 pi) has kappa^2 <= 4/3.
    """
    denom = sum(hs_inner(w, w, sizes).real for w in omega.components)
    num = sum(hs_inner(w, f, sizes) for w, f in zip(omega.components, F.components))
    lam = num / denom
    residual = (F - omega.scale(lam.repeat(sizes))).norm(sizes) / omega.norm(sizes)
    return lam, residual


def gamma_formula(N, sign):
    """Closed-form fuzzy topological charge gamma_pm(N); sign is 1, -1,
    "plus" or "minus"."""
    s = 1.0 if sign in (1, "plus") else -1.0
    return (1.0 - 1.0 / N**2) ** 1.5 * (N + s * (N**2 - 2)) / (N**2 - 3)


def chern_number(projector, coords, omega, w=None):
    """The charge report of each block of a fuzzy projector built on
    ``coords``, whose volume form is ``omega`` and whose W = dQ ^ dQ is ``w``
    (see ``bundles.curvature``)."""
    F = module_trace(curvature(coords, projector, w))  # the degree-2 Chern character
    lam, residual = extract_coefficient(F, omega, coords.sizes)
    # c1 = lambda * tr_N(1) / (2 pi i), and the normalized trace tr_N(1) = N/N = 1
    c1 = lam / (2.0j * np.pi)
    sign, reports = projector.sign, []
    projector_residual = np.maximum(projector.idempotency, projector.selfadjointness)
    for N, c, res, ch0, p_res in zip(coords.sizes.tolist(), c1.tolist(), residual.tolist(),
                                     projector.ch0().real.tolist(), projector_residual.tolist()):
        at = "N=%d sign=%+d" % (N, sign)
        require("curvature", res, at)
        require("charge-imag", abs(c.imag), at)
        gamma = gamma_formula(N, sign)
        reports.append(ChernReport(
            N=N, sign="plus" if sign > 0 else "minus", ch0=ch0, c1_computed=c.real,
            gamma_formula=gamma, abs_error=abs(c.real - gamma), proportionality_residual=res,
            projector_residual=p_res))
    return reports


def _batch_reports(n_values, signs):
    """Reports for each N of one batch and each sign, from one set of stacked
    operators that is freed before the next batch is built."""
    coords = fuzzy_coordinates(*map(SpinLabel.from_dimension, n_values))
    omega, q, w = volume_form(coords), sigma_dot_x(coords), dq_wedge_dq(coords)
    per_sign = [chern_number(build_fuzzy_projector(coords, s, sigma_x=q), coords, omega, w)
                for s in signs]
    return [r for rows in zip(*per_sign) for r in rows]


def reports_for(n_values, signs=(1, -1)):
    """Reports for each N of the ladder n_values and each sign, ordered by N
    then sign. A batch holds consecutive N while their N sum to at most
    BATCH_DIM, and a larger N runs alone; each batch shares its coordinates,
    volume form, sigma.X and dQ ^ dQ across its N and signs."""
    batches = []
    for N in n_values:
        if not batches or sum(batches[-1]) + N > BATCH_DIM:
            batches.append([])
        batches[-1].append(N)
    return [r for batch in batches for r in _batch_reports(batch, signs)]


def report_for(N, sign):
    """The report for one (N, sign): a ladder of one."""
    return reports_for([N], (sign,))[0]


def sweep(n_values):
    """Reports for each N in n_values and both signs, ordered by N then sign."""
    return reports_for(n_values)
