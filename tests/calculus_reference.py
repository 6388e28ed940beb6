"""The wedge product and d1 written out case by case: the tests' reference
for ``fuzzychern.calculus``, which reads both from its one table of the
exterior algebra (``BASIS`` and ``EPS_ROWS``) instead.

Each component is spelled out with its signs in the component order
theta^1, theta^2, theta^3 and theta^1^theta^2, theta^1^theta^3,
theta^2^theta^3, and every sum runs in the order written, so the table-driven
code must agree with it bit for bit.
"""

from fuzzychern.calculus import DegreeError, GradedForm, derive
from fuzzychern.linalg import ShapeError


def d1(coords, omega):
    """(d omega)_{ab} = e_a(omega_b) - e_b(omega_a) - i eps_{abc} omega_c."""
    if omega.degree != 1:
        raise DegreeError("d1 needs a one-form, got degree %d" % omega.degree)
    w1, w2, w3 = omega.components

    def e(a, f):
        return derive(coords, a, f)

    c12 = e(1, w2) - e(2, w1) - 1j * w3
    c13 = e(1, w3) - e(3, w1) + 1j * w2
    c23 = e(2, w3) - e(3, w2) - 1j * w1
    return GradedForm(2, 1, coords.N, (c12, c13, c23))


def wedge(alpha, beta):
    """Wedge product; coefficients multiply left-to-right, thetas anticommute."""
    if alpha.module_rank != beta.module_rank or alpha.algebra_dim != beta.algebra_dim:
        raise ShapeError("wedge needs matching module rank and algebra dimension")
    p, q = alpha.degree, beta.degree
    if p + q > 3:
        raise DegreeError("wedge degree overflow: %d + %d > 3" % (p, q))
    n, N = alpha.module_rank, alpha.algebra_dim

    if p == 0:
        f = alpha.components[0]
        return GradedForm(q, n, N, tuple(f @ c for c in beta.components))
    if q == 0:
        g = beta.components[0]
        return GradedForm(p, n, N, tuple(c @ g for c in alpha.components))
    if p == 1 and q == 1:
        a1, a2, a3 = alpha.components
        b1, b2, b3 = beta.components
        return GradedForm(
            2, n, N, (a1 @ b2 - a2 @ b1, a1 @ b3 - a3 @ b1, a2 @ b3 - a3 @ b2)
        )
    if p == 1 and q == 2:
        a1, a2, a3 = alpha.components
        b12, b13, b23 = beta.components
        return GradedForm(3, n, N, (a1 @ b23 - a2 @ b13 + a3 @ b12,))
    if p == 2 and q == 1:
        a12, a13, a23 = alpha.components
        b1, b2, b3 = beta.components
        return GradedForm(3, n, N, (a12 @ b3 - a13 @ b2 + a23 @ b1,))
    raise DegreeError("unsupported degree pair (%d, %d)" % (p, q))
