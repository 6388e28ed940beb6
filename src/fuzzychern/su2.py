"""Irreducible spin-j representation of su(2) and the fuzzy coordinates.

The spin is stored as the integer 2j so half-integer values never touch
floating point. The coordinates are X_a = kappa * J_a with
kappa = 1/sqrt(j(j+1)); they satisfy [X_a, X_b] = i kappa eps_abc X_c and
sum_a X_a^2 = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import Banded

__all__ = ["SpinLabel", "FuzzyCoordinates", "build_irrep", "fuzzy_coordinates"]


class DegenerateRepresentationError(ValueError):
    """j = 0 gives the one-dimensional algebra; rejected."""


@dataclass(frozen=True)
class SpinLabel:
    """Half-integer spin j encoded as twice_j = 2j."""

    twice_j: int

    def __post_init__(self):
        if self.twice_j < 1:
            raise DegenerateRepresentationError(
                "twice_j must be >= 1, got %d" % self.twice_j
            )

    @property
    def j(self):
        return self.twice_j / 2.0

    @property
    def N(self):
        return self.twice_j + 1

    @property
    def kappa(self):
        return 1.0 / np.sqrt(self.j * (self.j + 1.0))

    @classmethod
    def from_dimension(cls, N):
        """Spin label for the algebra of N x N matrices (N = 2j + 1)."""
        return cls(twice_j=N - 1)


def build_irrep(spin, banded=False):
    """Return (J1, J2, J3) of the irreducible spin-j representation.

    J3 is diagonal with entries j, j-1, ..., -j; ladder matrix elements use
    the Condon-Shortley convention <m+1|J+|m> = sqrt(j(j+1) - m(m+1)).
    With ``banded`` the matrices are ``Banded``, otherwise dense.
    """
    j = spin.j
    N = spin.N
    m = j - np.arange(N)  # j, j-1, ..., -j
    # J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>; row index m+1 sits above row m
    ladder = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    if banded:
        jz = Banded.from_diagonals(N, {0: m})
        jplus = Banded.from_diagonals(N, {1: ladder})
    else:
        jz = np.diag(m.astype(np.complex128))
        jplus = np.zeros((N, N), dtype=np.complex128)
        jplus[np.arange(N - 1), np.arange(1, N)] = ladder
    jminus = jplus.conj().T
    j1 = (jplus + jminus) / 2.0
    j2 = (jplus - jminus) / 2.0j
    return j1, j2, jz


@dataclass(frozen=True)
class FuzzyCoordinates:
    """The three coordinates X_a = kappa * J_a of the fuzzy sphere, as dense
    ndarrays or as ``Banded`` matrices."""

    spin: SpinLabel
    X1: object = field(repr=False)
    X2: object = field(repr=False)
    X3: object = field(repr=False)

    @property
    def kappa(self):
        return self.spin.kappa

    @property
    def N(self):
        return self.spin.N

    def axis(self, a):
        """Coordinate along axis a in {1, 2, 3}."""
        return (self.X1, self.X2, self.X3)[a - 1]


def fuzzy_coordinates(spin, banded=False):
    """Build the fuzzy coordinates for the given spin, dense or ``banded``."""
    j1, j2, j3 = build_irrep(spin, banded)
    k = spin.kappa
    return FuzzyCoordinates(spin=spin, X1=k * j1, X2=k * j2, X3=k * j3)
