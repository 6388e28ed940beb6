"""Derivation-based graded differential calculus over the fuzzy algebra.

Forms of degree 0..3 carry coefficients in the basis one-forms theta^a dual
to the derivations e_a = (1/kappa) ad X_a. Coefficients are (n*N) x (n*N)
matrices where n is the module rank (1 for scalar forms, 2 for
projector-valued forms); products keep the noncommutative order. The
coefficients are dense or ``Banded``, as the coordinates are.

Component ordering is fixed once and for all:
degree 1 -> theta^1, theta^2, theta^3;
degree 2 -> theta^1^theta^2, theta^1^theta^3, theta^2^theta^3;
degree 3 -> theta^1^theta^2^theta^3.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import ShapeError, as_matrix, frobenius_norm, kron, max_abs, partial_trace

__all__ = [
    "GradedForm",
    "CalculusContext",
    "derive",
    "d0",
    "d1",
    "wedge",
    "module_trace",
    "zero_form",
    "scalar_form",
]

N_COMPONENTS = {0: 1, 1: 3, 2: 3, 3: 1}


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
        return GradedForm(
            self.degree,
            self.module_rank,
            self.algebra_dim,
            tuple(a + b for a, b in zip(self.components, other.components)),
        )

    def __sub__(self, other):
        self._check_compatible(other)
        return GradedForm(
            self.degree,
            self.module_rank,
            self.algebra_dim,
            tuple(a - b for a, b in zip(self.components, other.components)),
        )

    def scale(self, c):
        return GradedForm(
            self.degree,
            self.module_rank,
            self.algebra_dim,
            tuple(c * comp for comp in self.components),
        )

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


def zero_form(degree, module_rank, algebra_dim):
    dim = module_rank * algebra_dim
    comps = tuple(
        np.zeros((dim, dim), dtype=np.complex128) for _ in range(N_COMPONENTS[degree])
    )
    return GradedForm(degree, module_rank, algebra_dim, comps)


def scalar_form(coeff, module_rank=1, algebra_dim=None):
    """Wrap a coefficient matrix as a degree-0 form."""
    coeff = as_matrix(coeff)
    if algebra_dim is None:
        algebra_dim = coeff.shape[0] // module_rank
    return GradedForm(0, module_rank, algebra_dim, (coeff,))


@dataclass(frozen=True)
class CalculusContext:
    """Holds the fuzzy coordinates that define the three derivations."""

    coords: object  # FuzzyCoordinates

    @property
    def N(self):
        return self.coords.N

    @property
    def kappa(self):
        return self.coords.kappa

    def generator(self, axis, module_rank=1):
        """X_a lifted to the rank-n module: I_n (x) X_a."""
        x = self.coords.axis(axis)
        if module_rank == 1:
            return x
        return kron(np.eye(module_rank), x)


def derive(ctx, axis, f, module_rank=None):
    """e_a(f) = (1/kappa) [X_a, f], acting blockwise on rank-n elements."""
    f = as_matrix(f)
    if f.shape[0] != f.shape[1]:
        raise ShapeError("derive needs a square matrix, got %s" % (f.shape,))
    if module_rank is None:
        if f.shape[0] % ctx.N != 0:
            raise ShapeError(
                "dimension %d not a multiple of algebra dimension %d"
                % (f.shape[0], ctx.N)
            )
        module_rank = f.shape[0] // ctx.N
    x = ctx.generator(axis, module_rank)
    return (x @ f - f @ x) / ctx.kappa


def d0(ctx, f):
    """Exterior derivative of a degree-0 element: df = e_a(f) theta^a."""
    f = as_matrix(f)
    if f.shape[0] != f.shape[1] or f.shape[0] % ctx.N != 0:
        raise ShapeError("d0 needs a square n*N matrix, got %s" % (f.shape,))
    n = f.shape[0] // ctx.N
    comps = tuple(derive(ctx, a, f, module_rank=n) for a in (1, 2, 3))
    return GradedForm(1, n, ctx.N, comps)


def d1(ctx, omega):
    """Exterior derivative of a one-form.

    (d omega)_{ab} = e_a(omega_b) - e_b(omega_a) - i eps_{abc} omega_c,
    the last term evaluating omega on the bracket [e_a, e_b] = i eps_abc e_c.
    """
    if omega.degree != 1:
        raise DegreeError("d1 needs a one-form, got degree %d" % omega.degree)
    n = omega.module_rank
    w1, w2, w3 = omega.components

    def e(a, f):
        return derive(ctx, a, f, module_rank=n)

    c12 = e(1, w2) - e(2, w1) - 1j * w3
    c13 = e(1, w3) - e(3, w1) + 1j * w2
    c23 = e(2, w3) - e(3, w2) - 1j * w1
    return GradedForm(2, n, omega.algebra_dim, (c12, c13, c23))


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


def module_trace(eta):
    """Partial trace over the rank-n module factor, leaving N x N coefficients."""
    n, N = eta.module_rank, eta.algebra_dim
    if n == 1:
        return eta
    comps = tuple(partial_trace(c, n) for c in eta.components)
    return GradedForm(eta.degree, 1, N, comps)
