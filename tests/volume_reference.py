"""The fuzzy volume form built literally, eps_abc X_a dX_b ^ dX_c / (8 pi):
the tests' reference for the closed form of ``fuzzychern.chern.volume_form``.

Each term is a product of the coordinates with their differentials d0(X_b),
so the construction runs through ``derive`` and ``wedge`` on dense or
``Banded`` coordinates alike. ``zero_form`` is the dense zero of a degree.
"""

import numpy as np

from fuzzychern.calculus import N_COMPONENTS, GradedForm, d0, scalar_form, wedge

# eps_{abc} as (a, b, c, sign) over the nonzero entries
EPSILON = (
    (1, 2, 3, 1.0),
    (2, 3, 1, 1.0),
    (3, 1, 2, 1.0),
    (1, 3, 2, -1.0),
    (3, 2, 1, -1.0),
    (2, 1, 3, -1.0),
)


def zero_form(degree, module_rank, algebra_dim):
    dim = module_rank * algebra_dim
    comps = tuple(
        np.zeros((dim, dim), dtype=np.complex128) for _ in range(N_COMPONENTS[degree])
    )
    return GradedForm(degree, module_rank, algebra_dim, comps)


def derived_volume_form(coords):
    """omega = eps_abc X_a dX_b ^ dX_c / (8 pi), from six wedge products."""
    dx = {a: d0(coords, coords.axis(a)) for a in (1, 2, 3)}
    total = None
    for a, b, c, s in EPSILON:
        xa = scalar_form(coords.axis(a), module_rank=1, algebra_dim=coords.N)
        term = wedge(xa, wedge(dx[b], dx[c])).scale(s)
        total = term if total is None else total + term
    return total.scale(1.0 / (8.0 * np.pi))
