"""Complex linear algebra on ``Banded`` matrices.

Thin wrappers around numpy that fix the conventions used everywhere else:
complex128 storage, Hilbert-Schmidt inner products, normalized traces.
Every operator is a ``Banded`` matrix; the only dense ones are the small
right factors of ``kron``. The helpers trust their callers on shapes.

A block-diagonal ``Banded`` matrix stacks several operators, one block
each. The trace, the inner product, the norm and the largest modulus take
the block ``sizes`` and reduce each block alone, with the same arithmetic
whatever the other blocks hold, and return one value per block.
"""

import numpy as np

__all__ = [
    "Banded",
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
    Scalars combine with ``*`` and ``/``, and so does a vector of scalars, one
    per row: ``c * A`` is diag(c) A, with A's diagonals kept, as a nonzero
    scalar keeps them. Other matrices must be ``Banded``.
    Traces, inner products, norms, ``kron`` and the module partial trace are
    the functions of this module.
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
        if isinstance(c, Banded):
            return NotImplemented
        return (Banded._nonzero if np.ndim(c) or c != 0 else Banded)(self.offsets, c * self.data)

    __rmul__ = __mul__

    def __truediv__(self, c):
        if isinstance(c, Banded):
            return NotImplemented
        return Banded._nonzero(self.offsets, self.data / c)

    def __matmul__(self, other):
        # (AB)[i, i + a + b] = A[i, i + a] B[i + a, i + a + b], summed over the
        # pairs (a, b) in a-major order; diagonals at |a + b| >= n are empty
        if not isinstance(other, Banded):
            return NotImplemented
        n, cols = self.shape[0], list(zip(other.offsets.tolist(), other.data))
        pairs = [(a, b, row, col) for a, row in zip(self.offsets.tolist(), self.data)
                 for b, col in cols if abs(a + b) < n]
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


def kron(a, b):
    """Kronecker product of a Banded ``a`` and a small dense square ``b``, Banded.

    Entry b[s, t] puts diagonal o of a at offset r o + (t - s), so the
    result's offsets follow from a's and not from its dimension.
    """
    r, n = b.shape[0], a.shape[0]
    # a[i, i + o] b[s, t] sits at row i r + s, column (i + o) r + t: each row s
    # and offset take at most one (t, o), so every entry is written once
    pairs = [(s, t) for s in range(r) for t in range(r) if b[s, t] != 0]
    targets = [r * a.offsets + (t - s) for s, t in pairs]
    offsets = np.array(sorted({o for target in targets for o in target.tolist()}), dtype=np.int64)
    data = np.zeros((len(offsets), n, r), dtype=np.complex128)
    for (s, t), target in zip(pairs, targets):
        data[offsets.searchsorted(target), :, s] = b[s, t] * a.data
    return Banded(offsets, data.reshape(len(offsets), n * r))


def commutator(a, b):
    """[a, b] = ab - ba for square matrices of equal dimension."""
    return a @ b - b @ a


def _block_sums(rows, sizes):
    """Sums of a stack of rows over consecutive column blocks of the given sizes:
    the rows added in order, then each block's columns in a reduction of their
    own, so a block's sum depends only on its own entries, whatever the other
    blocks hold or which rows are zero on it."""
    return np.add.reduceat(np.add.reduce(rows, axis=0), np.add.accumulate(sizes) - sizes)


def normalized_trace(a, sizes):
    """(1/N) tr of each N x N block of a."""
    return _block_sums(a.data[a.offsets == 0], sizes) / sizes


def hs_inner(a, b, sizes):
    """Hilbert-Schmidt inner product tr(a^dagger b) of each block."""
    ours, theirs = a.offsets.tolist(), b.offsets.tolist()
    # both offsets are sorted, so the common diagonals come in the same order
    common = set(ours) & set(theirs) if ours != theirs else None
    a, b = (m.data if common is None else m.data[[o in common for o in offs]]
            for m, offs in ((a, ours), (b, theirs)))
    return _block_sums(np.conj(a) * b, sizes)


def frobenius_norm(a, sizes):
    """sqrt(sum |a_ij|^2) of each block, by elementwise sums, not a BLAS dot:
    kernel-independent."""
    x = np.ascontiguousarray(a.data).view(np.float64)  # re, im, re, ...: two columns per row
    return np.sqrt(_block_sums(x * x, 2 * np.asarray(sizes)))


def max_abs(a, sizes):
    """Largest entry modulus of each block."""
    x = np.maximum.reduce(np.abs(a.data), axis=0, initial=0.0)
    return np.maximum.reduceat(x, np.add.accumulate(sizes) - sizes)


def partial_trace(a, r):
    """Trace of a Banded a over the C^r factor of C^N (x) C^r, the right factor
    of ``kron``."""
    # diagonal o of the trace sums the r rows of each r x r block of diagonal r o
    keep = a.offsets % r == 0
    data = a.data[keep]
    return Banded(a.offsets[keep] // r, sum((data[:, s::r] for s in range(1, r)), data[:, ::r]))
