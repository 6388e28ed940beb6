"""Classical-sphere quadrature oracle for line-bundle Chern numbers.

Integrates the curvature of the rank-one projector (1 + sigma.x)/2, its
transpose, and its Kronecker tensor powers over S^2, reproducing the integer
charges +-1 and +-k. The projector is |psi><psi| with psi = (cos theta/2,
e^{i phi} sin theta/2); its transpose projects onto conj(psi), its k-th power
onto psi^{(x)k}. The Berry curvature of psi^{(x)k} needs only inner products,
and <a (x) b|c (x) d> = <a|c><b|d>, so the product rule runs on four of them
per node: O(k) time and O(1) memory per node, in blocks of at most
BLOCK_NODES nodes. Gauss-Legendre nodes in cos(theta) crossed with a uniform
trapezoidal rule in phi; chart derivatives are analytic.
"""

from dataclasses import dataclass, field

import numpy as np

from .invariants import require

__all__ = [
    "BLOCK_NODES",
    "MAX_TENSOR_POWER",
    "NODE_BYTES",
    "QuadratureGrid",
    "build_quadrature",
    "curvature_densities",
    "chern_number_commutative",
    "volume_check",
]

MAX_TENSOR_POWER = 12

# chern_number_commutative's peak bytes per node at any k, grid built in the
# trace (tracemalloc on 100x1000: 17.6 at every k; 16 B of it the weighted densities)
NODE_BYTES = 18

BLOCK_NODES = 1536  # a block's nine arrays at k >= 3 take 216 KiB, under 64 heap pages


@dataclass(frozen=True)
class QuadratureGrid:
    """The tensor-product rule by its 1-D factors: node (i, j) sits at polar_angles[i]
    and azimuths[j], with solid-angle weight polar_weights[i] * 2 pi / n_azimuthal."""

    n_polar: int
    n_azimuthal: int
    polar_angles: np.ndarray = field(repr=False)  # (n_polar,)
    polar_weights: np.ndarray = field(repr=False)  # (n_polar,) Gauss weights in cos(theta)
    azimuths: np.ndarray = field(repr=False)  # (n_azimuthal,)

    def integrate(self, values):
        """Weighted sum of a solid-angle density sampled on the nodes, shaped
        (n_polar, n_azimuthal) or raveled in C order; summed in C order."""
        weights = self.polar_weights[:, None] * (2.0 * np.pi / self.n_azimuthal)
        return np.sum((weights * np.reshape(values, (self.n_polar, self.n_azimuthal))).ravel())


def _gauss_legendre(n):
    """Gauss-Legendre nodes, ascending, and weights on [-1, 1] in O(n) memory and
    O(n^2) time: Newton's method on the positive half, P_n and P_{n-1} from the
    three-term recurrence (Golub-Welsch, Math. Comp. 23 (1969) 221)."""
    x = np.cos(np.pi * (np.arange(1, (n + 1) // 2 + 1) - 0.25) / (n + 0.5))
    for _ in range(100):  # 4 or 5 passes for n from 2 to 4000
        p0, p1, s = 1.0, x, 1.0
        for j in range(1, n):  # p0, p1 = P_{j-1}, P_j -> P_j, P_{j+1}
            s = s + (2 * j + 1) * (p1 * p1)
            p0, p1 = p1, x * p1 * ((2 * j + 1) / (j + 1)) - p0 * (j / (j + 1))
        dx = p1 * (1.0 - x * x) / (n * (p0 - x * p1))  # P_n / P_n'
        x = x - dx
        if np.abs(dx).max() <= 4e-16:  # the steps are rounding noise
            break
    x[n // 2:] = 0.0  # odd n: the middle node, which Newton leaves near 1e-80
    # Christoffel weights 2 / sum_{j<n} (2j+1) P_j^2: about 1e-16 from the exact
    # weights, where 2 (1 - x^2) / (n P_{n-1})^2 is 1e-14 off at n = 128
    w = np.concatenate((2.0 / s, 2.0 / s[n // 2 - 1::-1]))
    return np.concatenate((-x, x[n // 2 - 1::-1])), w * (2.0 / w.sum())


def build_quadrature(n_polar, n_azimuthal):
    """Gauss-Legendre x uniform-phi grid with solid-angle weights (sum 4 pi)."""
    if n_polar < 2:
        raise ValueError("n_polar must be >= 2, got %d" % n_polar)
    if n_azimuthal < 4:
        raise ValueError("n_azimuthal must be >= 4, got %d" % n_azimuthal)
    u, w = _gauss_legendre(n_polar)
    return QuadratureGrid(n_polar, n_azimuthal, polar_angles=np.arccos(u), polar_weights=w,
                          azimuths=np.arange(n_azimuthal) * (2.0 * np.pi / n_azimuthal))


def _projectors_and_derivatives(k, transpose, theta, phi):
    """<psi_k|psi_k>, <d_theta psi_k|psi_k>, <psi_k|d_phi psi_k> and
    <d_theta psi_k|d_phi psi_k>, shaped as theta and phi broadcast; p_k = psi_k psi_k^dagger."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    # psi = (c, e s), d_theta psi = (-s/2, e c/2), d_phi psi = (0, i e s); no BLAS
    # call: <a|b> = conj(a_0) b_0 + conj(a_1) b_1 elementwise, i taken out of gsp, gtp
    es, ec = e * s, e * (c / 2.0)
    x, y = es.conj() * es, ec.conj() * es
    gss, gts, gsp, gtp = c * c + x, (-s / 2.0) * c + y, 1j * x, 1j * y
    del c, s, e, es, ec, x, y  # 64 B per node that the loop would hold at its peak
    if transpose:  # p^T = conj(p) projects onto conj(psi): conjugate entries
        gss, gts, gsp, gtp = gss.conj(), gts.conj(), gsp.conj(), gtp.conj()
    ss, ts, sp, tp = gss, gts, gsp, gtp
    # d(psi_k (x) psi) = d psi_k (x) psi + psi_k (x) d psi, contracted term by
    # term with <a (x) b|c (x) d> = <a|c><b|d>, each sum accumulated in place
    for _ in range(k - 1):
        tp = tp * gss
        tp += ts * gsp
        tp += sp * gts
        tp += ss * gtp
        ts = ts * gss
        ts += ss * gts
        sp = sp * gss
        sp += ss * gsp
        ss = ss * gss
    return ss, ts, sp, tp


def curvature_densities(k, transpose, theta, phi):
    """F_tp at each node, with tr p_k (dp_k)(dp_k) = F_tp dtheta ^ dphi."""
    if not 1 <= k <= MAX_TENSOR_POWER:
        raise ValueError("k must be in 1..%d, got %d" % (MAX_TENSOR_POWER, k))
    _, ts, sp, tp = _projectors_and_derivatives(k, transpose, theta, phi)
    # F_tp = a - conj(a), a = <dt psi|dp psi> - <dt psi|psi><psi|dp psi>
    a = tp - ts * sp
    return a - a.conj()


def chern_number_commutative(k, transpose, grid):
    """(1/2 pi i) integral of the curvature of p_k over the sphere."""
    # blocks of whole polar rows, or of part of one row when n_azimuthal > BLOCK_NODES
    theta, vals = grid.polar_angles[:, None], np.empty((grid.n_polar, grid.n_azimuthal), complex)
    rows, cols = max(1, BLOCK_NODES // grid.n_azimuthal), min(grid.n_azimuthal, BLOCK_NODES)
    for i in range(0, grid.n_polar, rows):
        t = theta[i:i + rows]
        for j in range(0, grid.n_azimuthal, cols):
            # density vanishes like sin(theta) at the poles; Gauss nodes are
            # interior, with sin(theta) > 1.6 / n_polar (2.4e-3 at n_polar = 1000)
            block = np.divide(curvature_densities(k, transpose, t, grid.azimuths[None, j:j + cols]),
                              np.sin(t), out=vals[i:i + rows, j:j + cols])
            block *= grid.polar_weights[i:i + rows, None] * (2.0 * np.pi / grid.n_azimuthal)
    total = np.sum(vals.ravel()) / (2.0j * np.pi)  # grid.integrate's sum, products in place
    require("quadrature-imag", abs(total.imag))
    return float(total.real)


def volume_check(grid):
    """Integral of eps_abc x_a dx_b ^ dx_c / (8 pi); equals 1 on any grid."""
    # the two-form equals (1/4 pi) sin(theta) dtheta ^ dphi
    return float(grid.integrate(np.full((grid.n_polar, grid.n_azimuthal), 1.0 / (4.0 * np.pi))))
