"""Complex linear algebra helpers on dense and banded matrices.

Thin wrappers around numpy that fix the conventions used everywhere else:
complex128 storage, Hilbert-Schmidt inner products, normalized traces.
Every helper takes either a dense ndarray or a ``Banded`` matrix and returns
the same kind, so the calculus built on them runs unchanged on both. The
helpers trust their callers on shapes; only ``kron`` coerces other input.
"""

import numpy as np

__all__ = [
    "Banded",
    "as_matrix",
    "identity_like",
    "kron",
    "commutator",
    "normalized_trace",
    "hs_inner",
    "frobenius_norm",
    "max_abs",
    "partial_trace",
]


class Banded:
    """Square complex matrix stored by its diagonals.

    ``offsets`` is a sorted integer array and row k of ``data`` is the
    diagonal at ``offsets[k]``, aligned by row: ``data[k, i] = A[i, i + o]``.
    Entries whose column falls outside the matrix are zero, so products and
    sums need no masking. Diagonals that come out exactly zero are dropped:
    products, sums, multiples by zero, ``kron`` and the partial trace scan for
    them, while negation, multiples by a nonzero scalar, ``/``, ``conj`` and
    ``.T`` keep their operand's (a product that underflows to zero stays).
    Scalars combine with ``*`` and ``/``; other matrices must be ``Banded``.
    Traces, inner products, norms, ``kron`` and the module partial trace are
    the functions of this module, which take dense and banded operands.
    """

    __array_ufunc__ = None  # ndarray (op) Banded raises TypeError, never broadcasts

    def __init__(self, offsets, data):
        offsets = np.asarray(offsets, dtype=np.int64)
        data = np.asarray(data, dtype=np.complex128)
        keep = np.logical_or.reduce(data, axis=1)  # ufuncs: no numpy._methods wrapper
        if not np.logical_and.reduce(keep):
            offsets, data = offsets[keep], data[keep]
        self.offsets, self.data, self.shape = offsets, data, (data.shape[1],) * 2

    @classmethod
    def _nonzero(cls, offsets, data):
        """A Banded whose diagonals are known to be nonzero: no zero scan."""
        self = cls.__new__(cls)
        self.offsets, self.data, self.shape = offsets, data, (data.shape[1],) * 2
        return self

    @classmethod
    def from_diagonals(cls, n, diagonals):
        """n x n matrix from {offset: entries}, as ``np.diagonal(A, offset)`` lists them."""
        offsets = sorted(diagonals)
        data = np.zeros((len(offsets), n), dtype=np.complex128)
        for row, o in zip(data, offsets):
            row[max(0, -o):n - max(0, o)] = diagonals[o]
        return cls(offsets, data)

    def _combine(self, other, op):
        if not isinstance(other, Banded):
            return NotImplemented
        n = self.shape[0]
        ours, theirs = self.offsets.tolist(), other.offsets.tolist()
        if ours == theirs:
            return Banded(self.offsets, op(self.data, other.data))
        offsets = np.array(sorted({*ours, *theirs}), dtype=np.int64)
        data = np.zeros((len(offsets), n), dtype=np.complex128)
        data[np.searchsorted(offsets, self.offsets)] = self.data
        for k, row in zip(np.searchsorted(offsets, other.offsets).tolist(), other.data):
            op(data[k], row, out=data[k])
        return Banded(offsets, data)

    def __add__(self, other):
        return self._combine(other, np.add)

    def __sub__(self, other):
        # a - b is a + (-b) exactly in IEEE arithmetic, without the -b temporary
        return self._combine(other, np.subtract)

    def __neg__(self):
        return Banded._nonzero(self.offsets, -self.data)

    def __mul__(self, c):
        if isinstance(c, Banded) or np.ndim(c) != 0:
            return NotImplemented
        return (Banded._nonzero if c != 0 else Banded)(self.offsets, c * self.data)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, Banded) or np.ndim(c) != 0:
            return NotImplemented
        return Banded._nonzero(self.offsets, self.data / c)

    def __matmul__(self, other):
        # (AB)[i, i + a + b] = A[i, i + a] B[i + a, i + a + b], summed over the
        # pairs (a, b) in a-major order; diagonals at |a + b| >= n are empty
        if not isinstance(other, Banded):
            return NotImplemented
        n = self.shape[0]
        pairs = [(a, b, row, col) for a, row in zip(self.offsets.tolist(), self.data)
                 for b, col in zip(other.offsets.tolist(), other.data) if abs(a + b) < n]
        offsets = sorted({a + b for a, b, _, _ in pairs})
        target = {o: k for k, o in enumerate(offsets)}
        data = np.zeros((len(offsets), n), dtype=np.complex128)
        for a, b, row, col in pairs:
            # the rows i where both column i + a and column i + a + b exist
            low, high = (a, a + b) if b > 0 else (a + b, a)
            lo, hi = -low if low < 0 else 0, n - high if high > 0 else n
            dst = data[target[a + b], lo:hi]  # a view: add in place, no write-back
            np.add(dst, row[lo:hi] * col[lo + a:hi + a], out=dst)
        return Banded(offsets, data)

    def conj(self):
        return Banded._nonzero(self.offsets, self.data.conj())

    @property
    def T(self):
        # A^T[i, i - o] = A[i - o, i]: diagonal o becomes -o, shifted by o rows
        n = self.shape[0]
        data = np.zeros_like(self.data)
        for row, o, d in zip(data, self.offsets[::-1], self.data[::-1]):
            if o >= 0:
                row[o:] = d[:n - o]
            else:
                row[:n + o] = d[-o:]
        return Banded._nonzero(-self.offsets[::-1], data)


def as_matrix(a):
    """Coerce input to a complex128 ndarray; a Banded matrix passes through."""
    if isinstance(a, Banded):
        return a
    return np.asarray(a, dtype=np.complex128)


def identity_like(a, n):
    """The n x n identity, stored like a (dense or banded)."""
    if isinstance(a, Banded):
        return Banded.from_diagonals(n, {0: 1.0})
    return np.eye(n, dtype=np.complex128)


def kron(a, b):
    """Kronecker product with complex128 output.

    ``b`` may be Banded when ``a`` is a small dense factor; the result is then
    Banded, in the same block ordering as the dense product.
    """
    a, b = as_matrix(a), as_matrix(b)
    r, N = a.shape[0], b.shape[0]
    if not isinstance(b, Banded):  # np.kron's products, without its overhead
        return (a[:, None, :, None] * b[None, :, None, :]).reshape(r * N, -1)
    # block (s, t) of the product is a[s, t] b, at offset (t - s) N
    pairs = [(s, t) for s in range(r) for t in range(r) if a[s, t] != 0]
    targets = [(t - s) * N + b.offsets for s, t in pairs]
    offsets = np.array(sorted({o for target in targets for o in target.tolist()}), dtype=np.int64)
    data = np.zeros((len(offsets), r * N), dtype=np.complex128)
    for (s, t), target in zip(pairs, targets):
        data[np.searchsorted(offsets, target), s * N:(s + 1) * N] += a[s, t] * b.data
    return Banded(offsets, data)


def commutator(a, b):
    """[a, b] = ab - ba for square matrices of equal dimension."""
    return a @ b - b @ a


def normalized_trace(a):
    """(1/N) tr a for a square N x N matrix."""
    if isinstance(a, Banded):
        return complex(np.add.reduce(a.data[a.offsets == 0], axis=None)) / a.shape[0]
    return complex(np.trace(a)) / a.shape[0]


def hs_inner(a, b):
    """Hilbert-Schmidt inner product tr(a^dagger b) of two dense or two Banded matrices."""
    if isinstance(a, Banded):
        # both offsets are sorted, so the common diagonals come in the same order
        common = set(a.offsets.tolist()) & set(b.offsets.tolist())
        a, b = (m.data[[o in common for o in m.offsets.tolist()]] for m in (a, b))
    return complex(np.add.reduce(np.conj(a) * b, axis=None))


def frobenius_norm(a):
    """sqrt(sum |a_ij|^2) by elementwise sums, not a BLAS dot: kernel-independent."""
    x = np.ascontiguousarray(a.data if isinstance(a, Banded) else a).view(np.float64)
    return float(np.sqrt(np.add.reduce(x * x, axis=None)))  # x holds re, im, re, ...


def max_abs(a):
    """Largest entry modulus."""
    return float(np.maximum.reduce(np.abs(a.data if isinstance(a, Banded) else a), axis=None,
                                   initial=0.0))


def partial_trace(a, r):
    """Trace over the C^r factor of C^r (x) C^N (block ordering of kron)."""
    N = a.shape[0] // r
    if not isinstance(a, Banded):
        return np.einsum("iaib->ab", a.reshape(r, N, r, N))
    # diagonal blocks only hold offsets below N; sum the r blocks row by row
    inside = np.abs(a.offsets) < N
    offsets = a.offsets[inside]
    data = a.data[inside].reshape(len(offsets), r, N).sum(axis=1)
    # entries whose column leaves the block belong to off-diagonal blocks
    cols = np.arange(N)[None, :] + offsets[:, None]
    data[(cols < 0) | (cols >= N)] = 0.0
    return Banded(offsets, data)
