"""The classical oracle on 4^k projector matrices: the tests' reference for
the state-vector path of ``fuzzychern.sphere_oracle``.

p_k, d_theta p_k and d_phi p_k are built as Kronecker products of the 2x2
projector (1 + sigma.x)/2 and its analytic chart derivatives, by the same
product rule, and the curvature density is tr p_k (dt dp - dp dt).
"""

import numpy as np

from fuzzychern.bundles import PAULI, PointOnSphere, tensor_power_projector


def power_projector(k, transpose, theta, phi):
    pk = tensor_power_projector(PointOnSphere.from_angles(theta, phi), k)
    return pk.T if transpose else pk


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
