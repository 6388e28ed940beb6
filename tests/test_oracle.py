import dataclasses
import functools
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from fuzzychern import sphere_oracle
from fuzzychern.chern import gamma_formula
from fuzzychern.sphere_oracle import (
    build_quadrature,
    chern_number_commutative,
    volume_check,
)
from oracle_reference import (
    PointOnSphere,
    curvature_density,
    factor_path_mismatches,
    matrix_curvature_densities,
    matrix_projectors_and_derivatives,
    node_arrays,
    outer,
    power_projector,
    state_vector_densities,
    state_vector_stacks,
)

rng = np.random.default_rng(4242)


@pytest.fixture(scope="module")
def grid():
    return build_quadrature(64, 128)


def random_angles(n, gen=rng):
    # stay away from the poles so 1/sin(theta) is tame
    theta = np.arccos(gen.uniform(-0.999, 0.999, n))
    phi = gen.uniform(0.0, 2.0 * np.pi, n)
    return theta, phi


def test_grid_weights_sum_to_solid_angle(grid):
    assert node_arrays(grid)[2].sum() == pytest.approx(4.0 * np.pi, rel=1e-12)


def test_grid_moments(grid):
    x3 = np.cos(node_arrays(grid)[0])
    assert abs(grid.integrate(np.ones_like(x3)) - 4.0 * np.pi) <= 1e-10
    assert abs(grid.integrate(x3)) <= 1e-12
    assert grid.integrate(x3**2) == pytest.approx(4.0 * np.pi / 3.0, rel=1e-12)


def test_grid_bounds():
    with pytest.raises(ValueError):
        build_quadrature(1, 8)
    with pytest.raises(ValueError):
        build_quadrature(4, 3)


def test_density_equator_value():
    # (i/4) eps_abc x_a dx_b ^ dx_c = (i/2) sin(theta) dtheta ^ dphi
    assert curvature_density(1, False, np.pi / 2.0, 0.0) == pytest.approx(0.5j, abs=1e-13)


def test_density_additivity():
    theta, phi = random_angles(50)
    for t, p in zip(theta, phi):
        base = curvature_density(1, False, t, p)
        for k in (2, 3):
            assert abs(curvature_density(k, False, t, p) - k * base) <= 1e-10


def test_density_transpose_negates():
    theta, phi = random_angles(20)
    for t, p in zip(theta, phi):
        a = curvature_density(2, False, t, p)
        b = curvature_density(2, True, t, p)
        assert abs(a + b) <= 1e-12


@pytest.mark.parametrize("shape", [(64, 128), (33, 70), (4, 8), (7, 2049), (100, 1000),
                                   (2, 4), (3, 5000)])
def test_quadrature_imag_residual_is_exactly_zero(shape, monkeypatch):
    # the density a - conj(a) has real part x - x = 0, and the weights are real
    residuals = []
    monkeypatch.setattr(sphere_oracle, "require",
                        lambda stage, residual, at="": residuals.append((stage, residual)))
    grid = build_quadrature(*shape)
    for k in range(1, 13):
        for transpose in (False, True):
            chern_number_commutative(k, transpose, grid)
    assert residuals == [("quadrature-imag", 0.0)] * 24


def test_charge_one(grid):
    assert abs(chern_number_commutative(1, False, grid) - 1.0) <= 1e-10


def test_charge_transposed(grid):
    assert abs(chern_number_commutative(1, True, grid) + 1.0) <= 1e-10


@pytest.mark.parametrize("k", [2, 3])
def test_higher_charges(grid, k):
    assert abs(chern_number_commutative(k, False, grid) - k) <= 1e-8
    assert abs(chern_number_commutative(k, True, grid) + k) <= 1e-8


def test_volume_normalization():
    for n_polar, n_azimuthal in ((2, 4), (8, 8), (64, 128)):
        g = build_quadrature(n_polar, n_azimuthal)
        assert abs(volume_check(g) - 1.0) <= 1e-12


def test_nodes_match_leggauss():
    # leggauss eigen-solves the n x n companion matrix; its own weights are up
    # to 6e-14 from the exact ones at n <= 1000
    for n in list(range(2, 129)) + [200, 1000]:
        u, w = sphere_oracle._gauss_legendre(n)
        ref_u, ref_w = leggauss(n)
        assert np.max(np.abs(u - ref_u)) <= 2e-16
        assert np.max(np.abs(w - ref_w)) <= (1e-14 if n <= 128 else 1e-13)
        # leggauss's sums are within 8.9e-16 of 2, these within 4.4e-16
        assert abs(w.sum() - 2.0) <= 2 * np.spacing(2.0)
        assert np.all(np.diff(u) > 0)
        assert np.array_equal(u, -u[::-1]) and np.array_equal(w, w[::-1])


def exact_gauss_legendre(n):
    """The positive half of the rule, descending, to 34 digits: Newton on the
    recurrence in mpmath, from the float nodes, whose steps then fall below 1e-33."""
    mpmath = pytest.importorskip("mpmath")
    nodes, weights = [], []
    with mpmath.workdps(34):
        for start in sphere_oracle._gauss_legendre(n)[0][n // 2:][::-1]:
            x = mpmath.mpf(float(start))
            for _ in range(3):
                p0, p1 = mpmath.mpf(1), x  # P_{j-1}, P_j up to P_{n-1}, P_n
                for j in range(1, n):
                    p0, p1 = p1, ((2 * j + 1) * x * p1 - j * p0) / (j + 1)
                x -= p1 * (1 - x * x) / (n * (p0 - x * p1))
            nodes.append(float(x))
            weights.append(float(2 * (1 - x * x) / (n * p0) ** 2))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [64, 65, 128, 200])
def test_nodes_and_weights_are_within_rounding_of_the_exact_rule(n):
    # the weights 2 (1 - x^2) / (n P_{n-1})^2 were 6.2e-15 off at n = 64 and
    # 1.4e-14 at 128; the Christoffel sum measured at most 1.0e-16
    nodes, weights = exact_gauss_legendre(n)
    u, w = sphere_oracle._gauss_legendre(n)
    assert np.max(np.abs(u[n // 2:][::-1] - nodes)) <= np.spacing(1.0)
    assert np.max(np.abs(w[n // 2:][::-1] - weights)) <= 4e-16


def test_nodes_take_linear_memory():
    # leggauss traced 8.1 MB at n_polar = 1000 and 72 MB at 3000; the Newton
    # nodes measured 45.0 and 44.2 B per n_polar at 1000 and 4000, grid included
    build_quadrature(4, 4)
    for n_polar in (1000, 4000):
        tracemalloc.start()
        try:
            build_quadrature(n_polar, 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 48 * n_polar


def finite_difference_density(k, theta, phi, h=1e-5, transpose=False):
    """Independent check: central differences of the projector itself."""
    proj = functools.partial(power_projector, k, transpose)
    p = proj(theta, phi)
    dt = (proj(theta + h, phi) - proj(theta - h, phi)) / (2.0 * h)
    dp = (proj(theta, phi + h) - proj(theta, phi - h)) / (2.0 * h)
    return complex(np.trace(p @ (dt @ dp - dp @ dt)))


def test_finite_difference_cross_check():
    theta, phi = random_angles(25)
    for t, p in zip(theta, phi):
        for k in (1, 2, 3, 4):
            for transpose in (False, True):
                analytic = curvature_density(k, transpose, t, p)
                fd = finite_difference_density(k, t, p, transpose=transpose)
                assert abs(analytic - fd) <= 1e-6


def test_chart_derivatives_match_finite_differences():
    # the curvature alone cannot see every wrong derivative: p dp p = 0 hides
    # a misplaced tensor factor, so compare the matrices themselves
    h = 1e-5
    theta, phi = np.array([0.3, 1.2, 2.5]), np.array([0.1, 2.0, 4.4])
    for k in (1, 2, 3, 4):
        for transpose in (False, True):
            psi, dt, dp = state_vector_stacks(k, transpose, theta, phi)
            p = outer(psi, psi)
            d_theta = outer(dt, psi) + outer(psi, dt)
            d_phi = outer(dp, psi) + outer(psi, dp)
            pk = functools.partial(power_projector, k, transpose)
            for m, (t, f) in enumerate(zip(theta, phi)):
                assert np.max(np.abs(p[m] - pk(t, f))) <= 1e-14
                fd_t = (pk(t + h, f) - pk(t - h, f)) / (2.0 * h)
                fd_p = (pk(t, f + h) - pk(t, f - h)) / (2.0 * h)
                assert np.max(np.abs(d_theta[m] - fd_t)) <= 1e-8
                assert np.max(np.abs(d_phi[m] - fd_p)) <= 1e-8


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12])
def test_product_rule_returns_three_state_vector_stacks(k):
    # the reference the Gram entries are checked against builds the 2^k vectors
    # themselves, so it shares no factorization with the path it checks
    theta, phi = random_angles(5, np.random.default_rng(k))
    stacks = state_vector_stacks(k, False, theta, phi)
    assert [s.shape for s in stacks] == [(5, 2**k)] * 3


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 12])
def test_product_rule_returns_four_gram_entries(k):
    theta, phi = random_angles(5, np.random.default_rng(k))
    entries = sphere_oracle._projectors_and_derivatives(k, False, theta, phi)
    assert [e.shape for e in entries] == [(5,)] * 4
    # ss = <psi_k|psi_k>, which the density formula takes to be 1
    assert np.max(np.abs(entries[0] - 1.0)) <= 1e-14


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_state_vectors_match_the_matrix_reference(k, transpose):
    theta, phi = random_angles(40, np.random.default_rng(10 * k + transpose))
    psi, _, _ = state_vector_stacks(k, transpose, theta, phi)
    p, _, _ = matrix_projectors_and_derivatives(k, transpose, theta, phi)
    assert np.max(np.abs(outer(psi, psi) - p)) <= 1e-14
    dens = sphere_oracle.curvature_densities(k, transpose, theta, phi)
    assert np.max(np.abs(dens - matrix_curvature_densities(k, transpose, theta, phi))) <= 1e-13


@pytest.mark.parametrize("transpose", [False, True])
def test_gram_densities_match_the_state_vectors(transpose):
    theta, phi = random_angles(40, np.random.default_rng(7 + transpose))
    for k in range(1, 13):
        # <d_theta psi|psi> = 0 in this gauge, so the densities alone cannot see
        # the d_theta and d_phi terms of tp trade places; the entries can
        psi, dt, dp = state_vector_stacks(k, transpose, theta, phi)
        pairs = ((psi, psi), (dt, psi), (psi, dp), (dt, dp))
        entries = sphere_oracle._projectors_and_derivatives(k, transpose, theta, phi)
        for got, (a, b) in zip(entries, pairs):
            assert np.max(np.abs(got - np.sum(a.conj() * b, axis=-1))) <= 1e-13
        dens = sphere_oracle.curvature_densities(k, transpose, theta, phi)
        assert np.max(np.abs(dens - state_vector_densities(k, transpose, theta, phi))) <= 1e-13


def test_densities_of_a_slice_are_that_slice_of_the_densities():
    thetas, phis, _ = node_arrays(build_quadrature(16, 32))
    whole = sphere_oracle.curvature_densities(5, True, thetas, phis)
    for part in (slice(0, 1), slice(3, 10), slice(None, None, 7), slice(500, None)):
        sliced = sphere_oracle.curvature_densities(5, True, thetas[part], phis[part])
        assert np.array_equal(sliced, whole[part])


def test_densities_take_constant_memory_per_node():
    # a 2^k-entry array per node would be 64 KB at k = 12
    theta, phi = random_angles(4096, np.random.default_rng(12))
    tracemalloc.start()
    try:
        sphere_oracle.curvature_densities(12, False, theta, phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(theta) < 400


def test_node_bytes_covers_the_peak_of_a_call():
    # cmd_commutative refuses grids by NODE_BYTES per node, grid built in the
    # trace; a warm-up call keeps numpy's one-time allocations out of it
    chern_number_commutative(1, False, build_quadrature(4, 8))
    for k in (1, 4, 12):
        for transpose in (False, True):
            tracemalloc.start()
            try:
                chern_number_commutative(k, transpose, build_quadrature(100, 1000))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= sphere_oracle.NODE_BYTES * 100 * 1000
            # the estimate is the measured ceiling, not a stale larger figure
            if k > 1:
                assert peak >= 0.95 * sphere_oracle.NODE_BYTES * 100 * 1000


@pytest.mark.parametrize("n_polar, n_azimuthal", [(64, 128), (33, 70), (2, 1536), (3, 5000)])
def test_blocks_cover_every_node_once_within_block_nodes(monkeypatch, n_polar, n_azimuthal):
    g = build_quadrature(n_polar, n_azimuthal)
    expected = chern_number_commutative(4, True, g)
    sizes, densities = [], sphere_oracle.curvature_densities

    def recording(k, transpose, theta, phi):
        sizes.append(theta.size * phi.size)
        return densities(k, transpose, theta, phi)

    monkeypatch.setattr(sphere_oracle, "curvature_densities", recording)
    assert chern_number_commutative(4, True, g) == expected
    assert max(sizes) <= sphere_oracle.BLOCK_NODES
    assert sum(sizes) == n_polar * n_azimuthal


FAULTS_SCRIPT = """
import json, resource
from fuzzychern.sphere_oracle import build_quadrature, chern_number_commutative
grid = build_quadrature(64, 128)
for _ in range(20):
    chern_number_commutative(4, False, grid)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(200):
    chern_number_commutative(4, False, grid)
print(json.dumps((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 200))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="counts glibc's heap trimming")
def test_repeated_charges_do_not_fault_their_memory_back_in():
    # glibc gives the free top of its heap back to the OS beyond a threshold
    # and keeps a 128 KiB pad, so a call faults in at most what it needs beyond
    # the pad: on the whole 64x128 grid, a dozen 128 KiB temporaries, 320-416
    # faults per call; in blocks, nine 24 KiB temporaries, 54 faults at most
    root = Path(__file__).parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", FAULTS_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) < 64


@pytest.mark.parametrize("n_polar, n_azimuthal, k",
                         [(16, 32, k) for k in range(1, 13)] + [(4, 8, k) for k in range(1, 9)])
def test_integer_charges_up_to_max_tensor_power(n_polar, n_azimuthal, k):
    g = build_quadrature(n_polar, n_azimuthal)
    assert abs(chern_number_commutative(k, False, g) - k) <= 1e-8
    assert abs(chern_number_commutative(k, True, g) + k) <= 1e-8


def test_grid_holds_its_factors_not_per_node_arrays():
    g = build_quadrature(1000, 2000)
    arrays = [getattr(g, f.name) for f in dataclasses.fields(g)]
    nbytes = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
    assert nbytes == 8 * (2 * 1000 + 2000)


def test_factor_evaluation_equals_the_per_node_path():
    # trig on the grid's factors, broadcast, gives every node's bits, and the
    # weighted sum adds them in the same order
    assert factor_path_mismatches() == []


# numpy's dispatch targets above X86_V3, then X86_V3: each level disables its
# group and the groups before it
SIMD_GROUPS = {"no-avx512": ("X86_V4", "AVX512_ICL", "AVX512_SPR"), "no-x86-v3": ("X86_V3",)}


def simd_disabled(level):
    """NPY_DISABLE_CPU_FEATURES for the level: only features numpy reports
    as found; None when the host lacks the level's own group."""
    if platform.machine().lower() not in ("x86_64", "amd64"):
        return None
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as cpu
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__ as cpu
    names = list(SIMD_GROUPS)
    groups = [[f for f in SIMD_GROUPS[n] if cpu.get(f)] for n in names[:names.index(level) + 1]]
    return " ".join(sum(groups, [])) if groups[-1] else None


SIMD_SCRIPT = """
import json
from numpy._core._multiarray_umath import __cpu_features__ as cpu
from oracle_reference import factor_path_mismatches
print(json.dumps([sorted(f for f, on in cpu.items() if on), factor_path_mismatches()]))
"""


@pytest.mark.parametrize("level", list(SIMD_GROUPS))
def test_factor_evaluation_equals_the_per_node_path_under_each_simd_level(level):
    # with a stride-0 operand numpy may pick another inner loop than on
    # contiguous arrays, and its fused complex multiply decides bits
    disabled = simd_disabled(level)
    if disabled is None:
        pytest.skip("this host has none of %s" % " ".join(SIMD_GROUPS[level]))
    root = Path(__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), str(root / "tests"), env.get("PYTHONPATH")]))
    env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run([sys.executable, "-c", SIMD_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    enabled, mismatches = json.loads(proc.stdout)
    assert not set(disabled.split()) & set(enabled)
    assert mismatches == []


def test_finite_difference_charge():
    g = build_quadrature(32, 64)
    thetas, phis, _ = node_arrays(g)
    vals = np.array(
        [finite_difference_density(1, t, p) for t, p in zip(thetas, phis)]
    ) / np.sin(thetas)
    c1 = (g.integrate(vals) / (2.0j * np.pi)).real
    assert abs(c1 - chern_number_commutative(1, False, g)) <= 1e-6


def test_bott_projector_flatness_along_sphere():
    # p (dp) p = 0 pointwise for the rank-one projector, both chart directions
    from oracle_reference import bott_projector

    theta, phi = random_angles(100)
    h = 1e-6
    for t, p in zip(theta, phi):
        pr = bott_projector(PointOnSphere.from_angles(t, p))
        dt = (
            bott_projector(PointOnSphere.from_angles(t + h, p))
            - bott_projector(PointOnSphere.from_angles(t - h, p))
        ) / (2.0 * h)
        dphi = (
            bott_projector(PointOnSphere.from_angles(t, p + h))
            - bott_projector(PointOnSphere.from_angles(t, p - h))
        ) / (2.0 * h)
        assert np.max(np.abs(pr @ dt @ pr)) <= 1e-9
        assert np.max(np.abs(pr @ dphi @ pr)) <= 1e-9


def test_fuzzy_commutative_bridge():
    assert abs(gamma_formula(64, "plus") - 1.0) <= 0.032
    assert abs(gamma_formula(64, "minus") + 1.0) <= 0.032
