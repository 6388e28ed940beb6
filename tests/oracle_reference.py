"""The classical oracle on 2^k state vectors and on 4^k projector matrices:
the tests' references for the inner-product path of
``fuzzychern.sphere_oracle``.

psi_k, d_theta psi_k and d_phi psi_k are built as Kronecker products of the
state vector psi = (cos theta/2, e^{i phi} sin theta/2) and its analytic chart
derivatives, and p_k, d_theta p_k and d_phi p_k as Kronecker products of the
2x2 projector (1 + sigma.x)/2 and its derivatives, both by the product rule
that ``sphere_oracle`` runs on inner products. The matrix curvature density is
tr p_k (dt dp - dp dt). The projector itself is also built pointwise, from a
checked point of the unit sphere, and ``curvature_density`` reads the
inner-product path at one point. ``node_arrays`` and the ``per_node_``
functions evaluate the oracle the way it ran before the grid kept only its
1-D factors: every input at every node, then one ``np.sum``.
"""

from dataclasses import dataclass

import numpy as np

from fuzzychern.bundles import PAULI
from fuzzychern.sphere_oracle import (
    MAX_TENSOR_POWER,
    build_quadrature,
    chern_number_commutative,
    curvature_densities,
    volume_check,
)


class OffSphereError(ValueError):
    """Point does not lie on the unit sphere."""


@dataclass(frozen=True)
class PointOnSphere:
    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        r = np.sqrt(self.x1**2 + self.x2**2 + self.x3**2)
        if abs(r - 1.0) > 1e-10:
            raise OffSphereError("|x| = %.12g, expected 1" % r)

    @classmethod
    def from_angles(cls, theta, phi):
        return cls(
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        )

    def as_array(self):
        return np.array([self.x1, self.x2, self.x3])


def bott_projector(point):
    """(1 + sigma.x)/2 at a point of the unit sphere."""
    x = point.as_array()
    p = np.eye(2, dtype=np.complex128)
    for a in range(3):
        p += x[a] * PAULI[a]
    return p / 2.0


def tensor_power_projector(point, k):
    """k-fold Kronecker power of the rank-one projector at the point."""
    if not 1 <= k <= MAX_TENSOR_POWER:
        raise ValueError("k must be in 1..%d, got %d" % (MAX_TENSOR_POWER, k))
    p = bott_projector(point)
    out = p
    for _ in range(k - 1):
        out = np.kron(out, p)
    return out


def curvature_density(k, transpose, theta, phi):
    """Pointwise curvature-form coefficient in the (theta, phi) chart."""
    return complex(curvature_densities(k, transpose, np.array([theta]), np.array([phi]))[0])


def power_projector(k, transpose, theta, phi):
    pk = tensor_power_projector(PointOnSphere.from_angles(theta, phi), k)
    return pk.T if transpose else pk


def state_vector_stacks(k, transpose, theta, phi):
    """Stacked psi_k, d_theta psi_k, d_phi psi_k, each (m, 2**k); p_k = psi_k psi_k^dagger."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    psi = np.stack([c + 0j, e * s], axis=-1)
    pt = np.stack([-s / 2.0 + 0j, e * c / 2.0], axis=-1)
    pp = np.stack([np.zeros_like(psi[:, 0]), 1j * e * s], axis=-1)
    if transpose:  # p^T = conj(p) projects onto conj(psi)
        psi, pt, pp = psi.conj(), pt.conj(), pp.conj()

    def kron(a, b):
        return (a[:, :, None] * b[:, None, :]).reshape(len(a), -1)

    big, d_theta, d_phi = psi, pt, pp
    for _ in range(k - 1):
        d_theta = kron(d_theta, psi) + kron(big, pt)
        d_phi = kron(d_phi, psi) + kron(big, pp)
        big = kron(big, psi)
    return big, d_theta, d_phi


def state_vector_densities(k, transpose, theta, phi):
    """F_tp at each node from the state-vector stacks."""
    psi, dt, dp = state_vector_stacks(k, transpose, theta, phi)

    def inner(x, y):  # <x|y> per node, an elementwise sum: no BLAS kernel's rounding
        return np.sum(x.conj() * y, axis=-1)

    # F_tp = a - conj(a), a = <dt psi|dp psi> - <dt psi|psi><psi|dp psi>
    a = inner(dt, dp) - inner(dt, psi) * inner(psi, dp)
    return a - a.conj()


def batched_kron(a, b):
    """Kronecker product over the trailing two axes of stacked matrices."""
    m = a.shape[0]
    out = np.einsum("mij,mkl->mikjl", a, b)
    return out.reshape(m, a.shape[1] * b.shape[1], a.shape[2] * b.shape[2])


def matrix_projectors_and_derivatives(k, transpose, theta, phi):
    """Stacked p_k, d_theta p_k, d_phi p_k, each (m, 2**k, 2**k)."""
    theta, phi = np.asarray(theta, dtype=float), np.asarray(phi, dtype=float)
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
    for _ in range(k - 1):
        d_theta = batched_kron(d_theta, p) + batched_kron(big, pt)
        d_phi = batched_kron(d_phi, p) + batched_kron(big, pp)
        big = batched_kron(big, p)
    return big, d_theta, d_phi


def matrix_curvature_densities(k, transpose, theta, phi):
    """F_tp at each node from the projector matrices."""
    p, dt, dp = matrix_projectors_and_derivatives(k, transpose, theta, phi)
    return np.einsum("mij,mji->m", p, dt @ dp - dp @ dt)


def outer(a, b):
    """|a><b| for each row of the stacks a and b."""
    return a[:, :, None] * b[:, None, :].conj()


def node_arrays(grid):
    """Polar angle, azimuth and solid-angle weight at each node, in C order."""
    tt, pp = np.meshgrid(grid.polar_angles, grid.azimuths, indexing="ij")
    ww = np.outer(grid.polar_weights, np.full(grid.n_azimuthal, 2.0 * np.pi / grid.n_azimuthal))
    return tt.ravel(), pp.ravel(), ww.ravel()


def per_node_densities(k, transpose, grid):
    thetas, phis, _ = node_arrays(grid)
    return curvature_densities(k, transpose, thetas, phis)


def per_node_chern_number(k, transpose, grid):
    """``chern_number_commutative`` with cos, sin and exp at every node."""
    thetas, _, weights = node_arrays(grid)
    vals = per_node_densities(k, transpose, grid) / np.sin(thetas)
    return float((np.sum(weights * vals) / (2.0j * np.pi)).real)


def per_node_volume(grid):
    _, _, weights = node_arrays(grid)
    return float(np.sum(weights * np.full(len(weights), 1.0 / (4.0 * np.pi))))


# 33x70 ends in a short block of rows; 3x5000 splits each row into blocks
IDENTITY_GRIDS = ((64, 128), (33, 70), (4, 8), (3, 5000))


def factor_path_mismatches(grids=IDENTITY_GRIDS):
    """Every (grid, k, transpose) at which the factor evaluation and the
    per-node path differ in any bit, of the densities, the charge or the
    volume; an empty list when none does."""
    out = []
    for n_polar, n_azimuthal in grids:
        g = build_quadrature(n_polar, n_azimuthal)
        if volume_check(g) != per_node_volume(g):
            out.append("%dx%d volume" % (n_polar, n_azimuthal))
        theta, phi = g.polar_angles[:, None], g.azimuths[None, :]
        for k in range(1, MAX_TENSOR_POWER + 1):
            for transpose in (False, True):
                dens = curvature_densities(k, transpose, theta, phi).ravel()
                if not (np.array_equal(dens, per_node_densities(k, transpose, g))
                        and chern_number_commutative(k, transpose, g)
                        == per_node_chern_number(k, transpose, g)):
                    out.append("%dx%d k=%d transpose=%s" % (n_polar, n_azimuthal, k, transpose))
    return out
