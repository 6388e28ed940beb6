import math
import re

import pytest

from fuzzychern import bundles
from fuzzychern.invariants import BOUNDS, InvariantError, require
from fuzzychern.su2 import SpinLabel, fuzzy_coordinates


def test_require_accepts_a_residual_at_its_bound():
    require("projector", BOUNDS["projector"])


@pytest.mark.parametrize("residual", [math.nan, 2e-12])
def test_require_rejects_nan_and_residuals_past_the_bound(residual):
    with pytest.raises(InvariantError, match=r"^projector residual \S+ exceeds 1e-12 at N=3$"):
        require("projector", residual, "N=3")


@pytest.mark.parametrize("banded", [False, True])
@pytest.mark.parametrize("sign", [1, -1])
def test_projector_from_a_wrong_kappa_fails_its_build_check(monkeypatch, banded, sign):
    # coefficients from kappa * 1.05 make alpha + beta sigma.X fail p p = p
    coefficients = bundles.projector_coefficients
    monkeypatch.setattr(bundles, "projector_coefficients",
                        lambda kappa, s: coefficients(kappa * 1.05, s))
    coords = fuzzy_coordinates(SpinLabel.from_dimension(4), banded=banded)
    at = re.escape(" at N=4 sign=%+d" % sign)
    with pytest.raises(InvariantError, match=r"^projector residual \S+ exceeds 1e-12%s$" % at):
        bundles.build_fuzzy_projector(coords, sign)
