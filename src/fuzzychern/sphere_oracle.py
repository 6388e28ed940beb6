"""Classical-sphere quadrature oracle for line-bundle Chern numbers.

Integrates the curvature of the rank-one projector (1 + sigma.x)/2, its
transpose, and its Kronecker tensor powers over S^2, reproducing the
integer charges +-1 and +-k. Gauss-Legendre nodes in cos(theta) crossed
with a uniform trapezoidal rule in phi; derivatives of the projector are
analytic (it is affine in x). Grid evaluation is batched over the nodes.
"""

from dataclasses import dataclass, field

import numpy as np

from .bundles import MAX_TENSOR_POWER, PAULI
from .invariants import require

__all__ = [
    "QuadratureGrid",
    "build_quadrature",
    "curvature_density",
    "chern_number_commutative",
    "volume_check",
]


# chern_number_commutative peaks at about this many node stacks of 4^k complex
# entries: +480 MB from k = 4 to 5 on 64x128, where one stack grows by 101 MB
ORACLE_STACKS = 5


@dataclass(frozen=True)
class QuadratureGrid:
    n_polar: int
    n_azimuthal: int
    # parallel arrays: polar angle, azimuth, solid-angle weight per node
    thetas: np.ndarray = field(repr=False)
    phis: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    def integrate(self, values):
        """Weighted sum of a solid-angle density sampled on the nodes."""
        return np.sum(self.weights * np.asarray(values))


def build_quadrature(n_polar, n_azimuthal):
    """Gauss-Legendre x uniform-phi grid with solid-angle weights (sum 4 pi)."""
    if n_polar < 2:
        raise ValueError("n_polar must be >= 2, got %d" % n_polar)
    if n_azimuthal < 4:
        raise ValueError("n_azimuthal must be >= 4, got %d" % n_azimuthal)
    u, w = np.polynomial.legendre.leggauss(n_polar)
    theta = np.arccos(u)
    phi = np.arange(n_azimuthal) * (2.0 * np.pi / n_azimuthal)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    ww = np.outer(w, np.full(n_azimuthal, 2.0 * np.pi / n_azimuthal))
    return QuadratureGrid(
        n_polar=n_polar,
        n_azimuthal=n_azimuthal,
        thetas=tt.ravel(),
        phis=pp.ravel(),
        weights=ww.ravel(),
    )


def _batched_kron(a, b):
    """Kronecker product over the trailing two axes of stacked matrices."""
    m = a.shape[0]
    out = np.einsum("mij,mkl->mikjl", a, b)
    return out.reshape(m, a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def _projectors_and_derivatives(k, transpose, theta, phi):
    """Stacked p_k, d_theta p_k, d_phi p_k at each (theta, phi) node."""
    st, ct = np.sin(theta), np.cos(theta)
    sp, cp = np.sin(phi), np.cos(phi)
    x = np.stack([st * cp, st * sp, ct], axis=-1)
    dx_dt = np.stack([ct * cp, ct * sp, -st], axis=-1)
    dx_dp = np.stack([-st * sp, st * cp, np.zeros_like(st)], axis=-1)

    sigma = np.stack(PAULI)  # (3, 2, 2)
    if transpose:
        sigma = np.transpose(sigma, (0, 2, 1))

    def affine(v):
        return np.einsum("ma,aij->mij", v, sigma) / 2.0

    p = np.eye(2, dtype=np.complex128) / 2.0 + affine(x)
    pt = affine(dx_dt)
    pp = affine(dx_dp)
    big, d_theta, d_phi = p, pt, pp
    # product rule, one Kronecker factor at a time
    for _ in range(k - 1):
        d_theta = _batched_kron(d_theta, p) + _batched_kron(big, pt)
        d_phi = _batched_kron(d_phi, p) + _batched_kron(big, pp)
        big = _batched_kron(big, p)
    return big, d_theta, d_phi


def curvature_densities(k, transpose, theta, phi):
    """F_tp at each node, with tr p_k (dp_k)(dp_k) = F_tp dtheta ^ dphi."""
    if not 1 <= k <= MAX_TENSOR_POWER:
        raise ValueError("k must be in 1..%d, got %d" % (MAX_TENSOR_POWER, k))
    p, dt, dp = _projectors_and_derivatives(k, transpose, theta, phi)
    return np.einsum("mij,mji->m", p, dt @ dp - dp @ dt)


def curvature_density(k, transpose, theta, phi):
    """Pointwise curvature-form coefficient in the (theta, phi) chart."""
    return complex(curvature_densities(k, transpose, [theta], [phi])[0])


def chern_number_commutative(k, transpose, grid):
    """(1/2 pi i) integral of the curvature of p_k over the sphere."""
    dens = curvature_densities(k, transpose, grid.thetas, grid.phis)
    # density vanishes like sin(theta) at the poles; Gauss nodes are interior,
    # with sin(theta) > 1.6 / n_polar (2.4e-3 at n_polar = 1000)
    vals = dens / np.sin(grid.thetas)
    total = grid.integrate(vals) / (2.0j * np.pi)
    require("quadrature-imag", abs(total.imag))
    return float(total.real)


def volume_check(grid):
    """Integral of eps_abc x_a dx_b ^ dx_c / (8 pi); equals 1 on any grid."""
    # the two-form equals (1/4 pi) sin(theta) dtheta ^ dphi
    return float(grid.integrate(np.full(len(grid.thetas), 1.0 / (4.0 * np.pi))))
