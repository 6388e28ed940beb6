import math
import re

import pytest

from fuzzychern import bundles
from fuzzychern.invariants import BOUNDS, Check, InvariantError, check, require, worst
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates


def test_require_accepts_a_residual_at_its_bound():
    require("projector", BOUNDS["projector"])


@pytest.mark.parametrize("residual", [math.nan, 2e-12])
def test_require_rejects_nan_and_residuals_past_the_bound(residual):
    with pytest.raises(InvariantError, match=r"^projector residual \S+ exceeds 1e-12 at N=3$"):
        require("projector", residual, "N=3")


def test_check_records_the_stage_residual_bound_and_input():
    record = check("curvature", 2.5e-9, "N=3 sign=+1")
    assert record == Check("curvature", 2.5e-9, 1e-8, "N=3 sign=+1", True)
    assert record.passed is True
    assert check("curvature", 2e-8).passed is False
    assert check("curvature", 1e-8).passed is True
    assert check("curvature", 1e-8).at == ""


def test_check_does_not_pass_a_nan():
    record = check("projector", math.nan, "N=3")
    assert record.passed is False and math.isnan(record.residual)


@pytest.mark.parametrize("at, message", [
    ("N=8 sign=-1", "projector residual 2.000e-12 exceeds 1e-12 at N=8 sign=-1"),
    ("", "projector residual 2.000e-12 exceeds 1e-12"),
])
def test_require_message_names_stage_residual_bound_and_input(at, message):
    with pytest.raises(InvariantError) as info:
        require("projector", 2e-12, at)
    assert str(info.value) == message


def test_worst_puts_a_failing_record_before_a_larger_passing_one():
    small_fail = check("projector", 2e-12, "N=3")
    large_pass = check("chern-integration", 1e-10, "N=4")
    assert worst([large_pass, small_fail]) == small_fail
    assert worst([check("projector", 1e-13, "N=2"), check("projector", 1e-14, "N=5")]).at == "N=2"
    assert worst([check("projector", math.nan, "N=6"), large_pass]).at == "N=6"
    assert worst([]).passed is True


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_projector_from_a_wrong_kappa_fails_its_build_check(monkeypatch, stacked, sign):
    # coefficients from kappa * 1.05 make alpha + beta sigma.X fail p p = p; N = 4
    # alone or as the first block of a ladder, whose check names it first
    coefficients = bundles.projector_coefficients
    monkeypatch.setattr(bundles, "projector_coefficients",
                        lambda kappa, s: coefficients(kappa * 1.05, s))
    spins = [SpinLabel.from_dimension(N) for N in ((4, 2) if stacked else (4,))]
    coords = fuzzy_coordinates(*spins)
    at = re.escape(" at N=4 sign=%+d" % sign)
    with pytest.raises(InvariantError, match=r"^projector residual \S+ exceeds 1e-12%s$" % at):
        bundles.build_fuzzy_projector(coords, sign)
