"""The dense array of a ``Banded`` matrix: the tests' reference for every
banded operation, which the program itself never needs."""

import numpy as np


def toarray(m):
    """The n x n ndarray whose diagonal at ``m.offsets[k]`` is ``m.data[k]``."""
    n = m.shape[0]
    out = np.zeros(m.shape, dtype=np.complex128)
    for o, d in zip(m.offsets, m.data):
        rows = np.arange(max(0, -o), min(n, n - o))
        out[rows, rows + o] = d[rows]
    return out
