"""Derivation-based graded differential calculus over the fuzzy algebra.

Forms of degree 0..3 carry coefficients in the basis one-forms theta^a dual
to the derivations e_a = (1/kappa) ad X_a; the operators take the
``FuzzyCoordinates`` X_a as ``coords``. ``derive``, ``d0`` and ``d1`` act on
N x N elements only. Coefficients are (n*N) x (n*N) matrices where n is the
module rank (1 for scalar forms, 2 for projector-valued ones); products keep
the noncommutative order. The coefficients are dense or ``Banded``, as the
coordinates are.

``BASIS`` holds the component order: the theta indices of each component,
lexicographic in each degree, so degree 2 is theta^1^theta^2,
theta^1^theta^3, theta^2^theta^3. ``EPS_ROWS`` pairs each 2-form component
with eps_abc; ``wedge``, ``d1`` and the volume form read both.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from .linalg import ShapeError, as_matrix, commutator, frobenius_norm, max_abs, partial_trace

__all__ = [
    "BASIS",
    "N_COMPONENTS",
    "EPS_ROWS",
    "DegreeError",
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


class DegreeError(ValueError):
    """Raised for form degrees outside 0..3 or products exceeding degree 3."""


@dataclass(frozen=True)
class GradedForm:
    degree: int
    module_rank: int
    algebra_dim: int
    components: tuple = field(repr=False)

    def __post_init__(self):
        if self.degree not in N_COMPONENTS:
            raise DegreeError("degree must be in 0..3, got %d" % self.degree)
        if len(self.components) != N_COMPONENTS[self.degree]:
            raise DegreeError(
                "degree %d needs %d components, got %d"
                % (self.degree, N_COMPONENTS[self.degree], len(self.components))
            )
        dim = self.module_rank * self.algebra_dim
        for c in self.components:
            if c.shape != (dim, dim):
                raise ShapeError(
                    "component shape %s, expected (%d, %d)" % (c.shape, dim, dim)
                )

    def __add__(self, other):
        self._check_compatible(other)
        pairs = zip(self.components, other.components)
        return replace(self, components=tuple(a + b for a, b in pairs))

    def __sub__(self, other):
        self._check_compatible(other)
        pairs = zip(self.components, other.components)
        return replace(self, components=tuple(a - b for a, b in pairs))

    def scale(self, c):
        return replace(self, components=tuple(c * comp for comp in self.components))

    def norm(self):
        """Hilbert-Schmidt norm summed over components."""
        return float(np.sqrt(sum(frobenius_norm(c) ** 2 for c in self.components)))

    def max_entry(self):
        return max(max_abs(c) for c in self.components)

    def _check_compatible(self, other):
        if (
            self.degree != other.degree
            or self.module_rank != other.module_rank
            or self.algebra_dim != other.algebra_dim
        ):
            raise ShapeError("incompatible forms")


def scalar_form(coeff, module_rank=1, algebra_dim=None):
    """Wrap a coefficient matrix as a degree-0 form."""
    coeff = as_matrix(coeff)
    if algebra_dim is None:
        algebra_dim = coeff.shape[0] // module_rank
    return GradedForm(0, module_rank, algebra_dim, (coeff,))


def derive(coords, axis, f):
    """e_a(f) = (1/kappa) [X_a, f] on an N x N element f."""
    return commutator(coords.axis(axis), f) / coords.kappa


def d0(coords, f):
    """Exterior derivative of a degree-0 element: df = e_a(f) theta^a."""
    return GradedForm(1, 1, coords.N, tuple(derive(coords, a, f) for (a,) in BASIS[1]))


def d1(coords, omega):
    """Exterior derivative of a one-form.

    (d omega)_{ab} = e_a(omega_b) - e_b(omega_a) - i eps_{abc} omega_c,
    the last term evaluating omega on the bracket [e_a, e_b] = i eps_abc e_c.
    """
    if omega.degree != 1:
        raise DegreeError("d1 needs a one-form, got degree %d" % omega.degree)
    w = omega.components
    return GradedForm(2, 1, coords.N, tuple(
        derive(coords, a, w[b - 1]) - derive(coords, b, w[a - 1]) - 1j * s * w[c - 1]
        for a, b, c, s in EPS_ROWS))


def wedge(alpha, beta):
    """Wedge product; coefficients multiply left-to-right, thetas anticommute."""
    if alpha.module_rank != beta.module_rank or alpha.algebra_dim != beta.algebra_dim:
        raise ShapeError("wedge needs matching module rank and algebra dimension")
    p, q = alpha.degree, beta.degree
    if p + q > 3:
        raise DegreeError("wedge degree overflow: %d + %d > 3" % (p, q))
    comps = [None] * N_COMPONENTS[p + q]
    for i, j, k, sign in _PRODUCTS[p, q]:
        term = alpha.components[i] @ beta.components[j]
        comps[k] = term if comps[k] is None else (comps[k] + term if sign > 0 else comps[k] - term)
    return GradedForm(p + q, alpha.module_rank, alpha.algebra_dim, tuple(comps))


def module_trace(eta):
    """Partial trace over the rank-n module factor, leaving N x N coefficients."""
    n, N = eta.module_rank, eta.algebra_dim
    if n == 1:
        return eta
    comps = tuple(partial_trace(c, n) for c in eta.components)
    return GradedForm(eta.degree, 1, N, comps)
