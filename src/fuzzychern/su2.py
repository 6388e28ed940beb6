"""Irreducible spin-j representation of su(2) and the fuzzy coordinates.

The spin is stored as the integer 2j so half-integer values never touch
floating point. The coordinates are X_a = kappa * J_a with
kappa = 1/sqrt(j(j+1)); they satisfy [X_a, X_b] = i kappa eps_abc X_c and
sum_a X_a^2 = 1.
"""

from dataclasses import dataclass, field

import numpy as np

from .linalg import Banded

__all__ = ["DegenerateRepresentationError", "SpinLabel", "FuzzyCoordinates", "build_irrep",
           "fuzzy_coordinates"]


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


def build_irrep(*spins):
    """Return (J1, J2, J3) of the irreducible spin-j representation of each
    spin, stacked block-diagonally in order, as ``Banded`` matrices.

    J3 is diagonal with entries j, j-1, ..., -j; ladder matrix elements use
    the Condon-Shortley convention <m+1|J+|m> = sqrt(j(j+1) - m(m+1)), which
    is 0 between blocks, where m+1 is the next block's top m = j.
    """
    sizes = np.array([s.N for s in spins])
    j = ((sizes - 1) / 2.0).repeat(sizes)
    m = j - (np.arange(len(j)) - (np.add.accumulate(sizes) - sizes).repeat(sizes))  # j, ..., -j
    N = len(m)
    # J+ |m> = sqrt(j(j+1) - m(m+1)) |m+1>; row index m+1 sits above row m
    ladder = np.sqrt(j[1:] * (j[1:] + 1.0) - m[1:] * (m[1:] + 1.0))
    jz = Banded.from_diagonals(N, {0: m})
    jplus = Banded.from_diagonals(N, {1: ladder})
    jminus = jplus.conj().T
    j1 = (jplus + jminus) / 2.0
    j2 = (jplus - jminus) / 2.0j
    return j1, j2, jz


@dataclass(frozen=True)
class FuzzyCoordinates:
    """The three coordinates X_a = kappa * J_a of the fuzzy sphere of each
    spin, stacked block-diagonally in the order of ``spins``, as ``Banded``
    matrices. ``kappa`` holds the kappa of each row's block, so a vector of
    one value per row scales each block by its own."""

    spins: tuple
    kappa: object = field(repr=False)
    X1: object = field(repr=False)
    X2: object = field(repr=False)
    X3: object = field(repr=False)

    @property
    def N(self):
        """The stacked dimension: the sum of the blocks' N."""
        return len(self.kappa)

    @property
    def sizes(self):
        """Each block's N, in order."""
        return np.array([s.N for s in self.spins])

    def axis(self, a):
        """Coordinate along axis a in {1, 2, 3}."""
        return (self.X1, self.X2, self.X3)[a - 1]


def fuzzy_coordinates(*spins):
    """Build the fuzzy coordinates of the given spins."""
    kappa = np.array([s.kappa for s in spins]).repeat([s.N for s in spins])
    j1, j2, j3 = build_irrep(*spins)
    return FuzzyCoordinates(spins, kappa, kappa * j1, kappa * j2, kappa * j3)
