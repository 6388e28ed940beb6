"""Derivation-based graded differential calculus over the fuzzy algebra.

Forms of degree 0..3 carry coefficients in the basis one-forms theta^a dual
to the derivations e_a = (1/kappa) ad X_a; the operators take the
``FuzzyCoordinates`` X_a as ``coords``. ``derive``, ``d0`` and ``d1`` act on
elements of the coordinates' dimension; on coordinates X_a (x) 1_n, with
kappa repeated per module row, they act on the rank-n module. Coefficients
are ``Banded`` (n*N) x (n*N) matrices where n is the module rank (1 for
scalar forms, 2 for projector-valued ones); products keep the
noncommutative order.

``BASIS`` holds the component order: the theta indices of each component,
lexicographic in each degree, so degree 2 is theta^1^theta^2,
theta^1^theta^3, theta^2^theta^3. ``EPS_ROWS`` pairs each 2-form component
with eps_abc; ``wedge``, ``d1`` and the volume form read both.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import commutator, frobenius_norm, partial_trace

__all__ = [
    "BASIS",
    "N_COMPONENTS",
    "EPS_ROWS",
    "GradedForm",
    "derive",
    "d0",
    "d1",
    "wedge",
    "module_trace",
    "scalar_form",
]

BASIS = {0: ((),), 1: ((1,), (2,), (3,)), 2: ((1, 2), (1, 3), (2, 3)), 3: ((1, 2, 3),)}
N_COMPONENTS = {p: len(b) for p, b in BASIS.items()}


def _parity(indices):
    """+1 or -1: the sign of the permutation that sorts distinct indices."""
    return (-1) ** sum(a > b for i, a in enumerate(indices) for b in indices[i + 1:])


# (a, b, c, eps_abc) for the 2-form components theta^a^theta^b in BASIS order,
# with c the remaining index
EPS_ROWS = tuple((a, b, 6 - a - b, _parity((a, b, 6 - a - b))) for a, b in BASIS[2])

# (p, q) -> (i, j, k, sign): component i of a p-form times component j of a
# q-form lands on component k of the (p+q)-form; overlapping indices give 0.
# Listed with i, then j, ascending, so each k's first term is in sorted order
# (sign +1) and wedge starts each sum from it unnegated.
_PRODUCTS = {
    (p, q): [(i, j, BASIS[p + q].index(tuple(sorted(u + v))), _parity(u + v))
             for i, u in enumerate(BASIS[p]) for j, v in enumerate(BASIS[q]) if not set(u) & set(v)]
    for p in BASIS for q in BASIS if p + q in BASIS
}


@dataclass(frozen=True)
class GradedForm:
    degree: int
    module_rank: int
    algebra_dim: int
    components: tuple = field(repr=False)

    def __add__(self, other):
        pairs = zip(self.components, other.components)
        return replace(self, components=tuple(a + b for a, b in pairs))

    def __sub__(self, other):
        pairs = zip(self.components, other.components)
        return replace(self, components=tuple(a - b for a, b in pairs))

    def scale(self, c):
        return replace(self, components=tuple(c * comp for comp in self.components))

    def norm(self, sizes):
        """Hilbert-Schmidt norm of each block, summed over components."""
        return np.sqrt(sum(frobenius_norm(c, sizes) ** 2 for c in self.components))


def scalar_form(coeff, module_rank=1, algebra_dim=None):
    """Wrap a coefficient matrix as a degree-0 form."""
    if algebra_dim is None:
        algebra_dim = coeff.shape[0] // module_rank
    return GradedForm(0, module_rank, algebra_dim, (coeff,))


def derive(coords, axis, f):
    """e_a(f) = (1/kappa) [X_a, f], kappa taken per row."""
    return commutator(coords.axis(axis), f) / coords.kappa


def d0(coords, f):
    """Exterior derivative of a degree-0 element: df = e_a(f) theta^a."""
    return GradedForm(1, 1, coords.N, tuple(derive(coords, a, f) for (a,) in BASIS[1]))


def d1(coords, omega):
    """Exterior derivative of a one-form.

    (d omega)_{ab} = e_a(omega_b) - e_b(omega_a) - i eps_{abc} omega_c,
    the last term evaluating omega on the bracket [e_a, e_b] = i eps_abc e_c.
    """
    w = omega.components
    return GradedForm(2, 1, coords.N, tuple(
        derive(coords, a, w[b - 1]) - derive(coords, b, w[a - 1]) - 1j * s * w[c - 1]
        for a, b, c, s in EPS_ROWS))


def wedge(alpha, beta):
    """Wedge product of forms of one module rank and algebra dimension, degrees
    summing to at most 3; coefficients multiply left-to-right, thetas anticommute."""
    p, q = alpha.degree, beta.degree
    comps = [None] * N_COMPONENTS[p + q]
    for i, j, k, sign in _PRODUCTS[p, q]:
        term = alpha.components[i] @ beta.components[j]
        comps[k] = term if comps[k] is None else (comps[k] + term if sign > 0 else comps[k] - term)
    return GradedForm(p + q, alpha.module_rank, alpha.algebra_dim, tuple(comps))


def module_trace(eta):
    """Partial trace over the rank-n module factor, the right factor of
    C^N (x) C^n, leaving N x N coefficients."""
    n, N = eta.module_rank, eta.algebra_dim
    if n == 1:
        return eta
    comps = tuple(partial_trace(c, n) for c in eta.components)
    return GradedForm(eta.degree, 1, N, comps)
