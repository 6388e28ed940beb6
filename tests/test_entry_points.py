"""The public entry points refuse bad arguments with ``ValueError``: each checks
its arguments once, and the helpers below it trust them."""

import pytest

from fuzzychern.chern import report_for, sweep
from fuzzychern.sphere_oracle import build_quadrature, chern_number_commutative

REFUSALS = {
    "report_for-N1": lambda: report_for(1, 1),
    "report_for-sign0": lambda: report_for(4, 0),
    "sweep-N1": lambda: sweep([1]),
    "commutative-k0": lambda: chern_number_commutative(0, False, build_quadrature(4, 8)),
    "commutative-k13": lambda: chern_number_commutative(13, False, build_quadrature(4, 8)),
    "quadrature-polar1": lambda: build_quadrature(1, 8),
}


@pytest.mark.parametrize("call", REFUSALS.values(), ids=REFUSALS.keys())
def test_entry_point_refuses_bad_arguments(call):
    with pytest.raises(ValueError):
        call()
