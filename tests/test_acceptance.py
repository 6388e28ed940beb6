"""Acceptance gate: every criterion at its stated tolerance, one line each."""

import time

import numpy as np
import pytest

from fuzzychern.bundles import (
    PAULI,
    build_fuzzy_projector,
    projector_coefficients,
)
from fuzzychern.calculus import d0, d1, derive, scalar_form, wedge
from fuzzychern.chern import gamma_formula, report_for
from fuzzychern.sphere_oracle import (
    build_quadrature,
    chern_number_commutative,
    volume_check,
)
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates
import curvature_reference as reference
from dense_reference import dense_coordinates, frobenius_norm, max_entry
from oracle_reference import curvature_density

rng = np.random.default_rng(20240817)


def report(name, passed, detail=""):
    print("%s %-28s %s" % ("PASS" if passed else "FAIL", name, detail))
    assert passed, "%s: %s" % (name, detail)


def test_criterion_1_fuzzy_charge_reproduction():
    t0 = time.time()
    worst = 0.0
    for N in range(2, 33):
        for sign in (1, -1):
            worst = max(worst, report_for(N, sign).abs_error)
    elapsed = time.time() - t0
    report(
        "1 fuzzy charges N=2..32",
        worst <= 1e-9 and elapsed <= 10.0,
        "max |c1-gamma| %.2e, %.2fs" % (worst, elapsed),
    )


def test_criterion_2_curvature_proportionality():
    worst = max(
        report_for(N, sign).proportionality_residual
        for N in range(2, 33)
        for sign in (1, -1)
    )
    report("2 F proportional to omega", worst <= 1e-10, "max residual %.2e" % worst)


def test_criterion_3_projector_identities():
    worst = 0.0
    # the ladder N = 2..64 stacked as one banded operator; each block has its residuals
    coords = fuzzy_coordinates(*map(SpinLabel.from_dimension, range(2, 65)))
    for sign in (1, -1):
        p = build_fuzzy_projector(coords, sign)
        worst = max(
            worst,
            np.max(p.idempotency),
            np.max(p.selfadjointness),
            np.max(np.abs(p.ch0().real - (1.0 + sign / coords.sizes))),
        )
    report("3 projector identities N<=64", worst <= 1e-12, "max residual %.2e" % worst)


def test_criterion_4_idempotency_solve():
    ok = True
    detail = ""
    for N in (2, 3, 8, 32):
        kappa = SpinLabel.from_dimension(N).kappa
        nontrivial = [projector_coefficients(kappa, sign) for sign in (1, -1)]
        betas = sorted(beta for _, beta in nontrivial)
        expect = 1.0 / np.sqrt(4.0 + kappa**2)
        ok = ok and abs(betas[0] + expect) <= 1e-12 and abs(betas[1] - expect) <= 1e-12
        ok = ok and all(
            abs(alpha - (1.0 + beta * kappa) / 2.0) <= 1e-12 for alpha, beta in nontrivial
        )
        if not ok:
            detail = "failed at N=%d" % N
            break
    report("4 idempotency solve", ok, detail)


def test_criterion_5_calculus_laws():
    worst_d2 = worst_bracket = worst_sandwich = 0.0
    pairs = {(1, 2): (3, 1), (2, 3): (1, 1), (1, 3): (2, -1)}
    for N in (2, 3, 4, 8):
        coords = dense_coordinates(SpinLabel.from_dimension(N))
        for _ in range(20):
            f = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
            worst_d2 = max(
                worst_d2, max_entry(d1(coords, d0(coords, f))) / frobenius_norm(f)
            )
            for (a, b), (c, s) in pairs.items():
                res = (
                    derive(coords, a, derive(coords, b, f))
                    - derive(coords, b, derive(coords, a, f))
                    - 1j * s * derive(coords, c, f)
                )
                worst_bracket = max(worst_bracket, np.max(np.abs(res)))
        banded = fuzzy_coordinates(SpinLabel.from_dimension(N))
        for sign in (1, -1):
            p = build_fuzzy_projector(banded, sign).realization
            pform = scalar_form(p, module_rank=2, algebra_dim=N)
            worst_sandwich = max(
                worst_sandwich,
                max_entry(wedge(pform, wedge(reference.d0(banded, p), pform))),
            )
    # Bott projector: analytic chart derivatives (p is affine in x)
    worst_bott = 0.0
    for _ in range(100):
        theta = np.arccos(rng.uniform(-1.0, 1.0))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        st, ct = np.sin(theta), np.cos(theta)
        sp, cp = np.sin(phi), np.cos(phi)
        x = np.array([st * cp, st * sp, ct])
        for dx in (
            np.array([ct * cp, ct * sp, -st]),
            np.array([-st * sp, st * cp, 0.0]),
        ):
            p = np.eye(2, dtype=complex) / 2 + sum(x[a] * PAULI[a] for a in range(3)) / 2
            dp = sum(dx[a] * PAULI[a] for a in range(3)) / 2
            worst_bott = max(worst_bott, float(np.max(np.abs(p @ dp @ p))))
    ok = (
        worst_d2 <= 1e-12
        and worst_bracket <= 1e-12
        and worst_sandwich <= 1e-12
        and worst_bott <= 1e-12
    )
    report(
        "5 calculus laws",
        ok,
        "d2 %.1e bracket %.1e pdpp %.1e bott %.1e"
        % (worst_d2, worst_bracket, worst_sandwich, worst_bott),
    )


def test_criterion_6_commutative_oracle():
    t0 = time.time()
    grid = build_quadrature(64, 128)
    errs = {
        "c1": abs(chern_number_commutative(1, False, grid) - 1.0),
        "c1t": abs(chern_number_commutative(1, True, grid) + 1.0),
        "c2": abs(chern_number_commutative(2, False, grid) - 2.0),
        "c3": abs(chern_number_commutative(3, False, grid) - 3.0),
        "vol": abs(volume_check(grid) - 1.0),
    }
    elapsed = time.time() - t0
    ok = (
        errs["c1"] <= 1e-10
        and errs["c1t"] <= 1e-10
        and errs["c2"] <= 1e-8
        and errs["c3"] <= 1e-8
        and errs["vol"] <= 1e-12
        and elapsed <= 5.0
    )
    report(
        "6 commutative oracle",
        ok,
        "errors %s, %.2fs" % ({k: "%.1e" % v for k, v in errs.items()}, elapsed),
    )


def test_criterion_7_additivity():
    worst = 0.0
    for _ in range(50):
        theta = np.arccos(rng.uniform(-0.999, 0.999))
        phi = rng.uniform(0.0, 2.0 * np.pi)
        base = curvature_density(1, False, theta, phi)
        for k in (2, 3):
            worst = max(worst, abs(curvature_density(k, False, theta, phi) - k * base))
    report("7 density additivity", worst <= 1e-10, "max deviation %.2e" % worst)


def test_criterion_8_commutative_limit():
    ok = True
    for N in range(4, 129):
        for sign, target in (("plus", 1.0), ("minus", -1.0)):
            ok = ok and abs(gamma_formula(N, sign) - target) <= 2.0 / N
    for N in range(4, 33):
        for sign, target in (("plus", 1.0), ("minus", -1.0)):
            ok = ok and (
                abs(gamma_formula(2 * N, sign) - target)
                < abs(gamma_formula(N, sign) - target)
            )
    report("8 commutative limit", ok)


def test_criterion_9_special_values():
    formula_plus = gamma_formula(2, "plus")
    formula_minus = gamma_formula(2, "minus")
    pipe_plus = report_for(2, 1).c1_computed
    pipe_minus = report_for(2, -1).c1_computed
    target = 3.0 * np.sqrt(3.0) / 2.0
    ok = (
        abs(formula_plus - target) <= 1e-9
        and abs(formula_minus) <= 1e-9
        and abs(pipe_plus - target) <= 1e-9
        and abs(pipe_minus) <= 1e-9
    )
    report(
        "9 special values at N=2",
        ok,
        "plus %.10f minus %.2e" % (pipe_plus, abs(pipe_minus)),
    )
