"""The dense backend that ``fuzzychern`` no longer has: the tests' reference
for its ``Banded`` irrep, reductions and calculus.

``dense_coordinates`` builds the coordinates of one spin as ndarrays, writing
the ladder matrix elements into a zero matrix rather than through
``Banded.from_diagonals``. ``derive``, ``d0``, ``d1`` and ``wedge`` of
``fuzzychern.calculus`` run unchanged on them, so the random-input checks of
the calculus use them. The reductions take a dense or a ``Banded`` matrix as
one block, with the arithmetic the program's scalar reductions had before
every reduction became per block; ``extract_coefficient`` is the scalar
least-squares fit of one N built on them.
"""

import numpy as np

from fuzzychern.linalg import Banded
from fuzzychern.su2 import FuzzyCoordinates


def dense_irrep(spin):
    """(J1, J2, J3) of one spin as dense complex ndarrays, Condon-Shortley."""
    N, j = spin.N, spin.j
    m = j - np.arange(N)  # j, ..., -j
    jz = np.diag(m.astype(np.complex128))
    jplus = np.zeros((N, N), dtype=np.complex128)
    jplus[np.arange(N - 1), np.arange(1, N)] = np.sqrt(j * (j + 1.0) - m[1:] * (m[1:] + 1.0))
    jminus = jplus.conj().T
    return (jplus + jminus) / 2.0, (jplus - jminus) / 2.0j, jz


def dense_coordinates(spin):
    """The ``FuzzyCoordinates`` of one spin with dense X_a = kappa J_a."""
    kappa = np.full(spin.N, spin.kappa)
    return FuzzyCoordinates((spin,), kappa, *(spin.kappa * j for j in dense_irrep(spin)))


def _entries(a):
    return a.data if isinstance(a, Banded) else a


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a^dagger b) of two dense matrices."""
    return complex(np.add.reduce(np.conj(a) * b, axis=None))


def frobenius_norm(a):
    """sqrt(sum |a_ij|^2) of a whole matrix, by elementwise sums."""
    x = np.ascontiguousarray(_entries(a)).view(np.float64)
    return float(np.sqrt(np.add.reduce(x * x, axis=None)))


def max_abs(a):
    """Largest entry modulus of a whole matrix."""
    return float(np.maximum.reduce(np.abs(_entries(a)), axis=None, initial=0.0))


def max_entry(form):
    """Largest entry modulus over the components of a form."""
    return max(max_abs(c) for c in form.components)


def form_norm(form):
    """Hilbert-Schmidt norm of a form, summed over its components."""
    return np.sqrt(sum(frobenius_norm(c) ** 2 for c in form.components))


def extract_coefficient(F, omega):
    """Scalar lambda with F ~ lambda omega for dense two-forms of one N, and
    the residual |F - lambda omega| / |omega|."""
    denom = sum(hs_inner(w, w).real for w in omega.components)
    lam = sum(hs_inner(w, f) for w, f in zip(omega.components, F.components)) / denom
    return lam, form_norm(F - omega.scale(lam)) / form_norm(omega)
