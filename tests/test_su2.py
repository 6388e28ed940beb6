import numpy as np
import pytest

from fuzzychern.linalg import Banded, commutator, max_abs, normalized_trace
from fuzzychern.su2 import (
    DegenerateRepresentationError,
    SpinLabel,
    build_irrep,
    fuzzy_coordinates,
)
from banded_reference import toarray
from dense_reference import dense_coordinates, dense_irrep

PAULI = [
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]]),
    np.diag([1.0 + 0j, -1.0]),
]

EPS = {(0, 1): (2, 1), (1, 2): (0, 1), (0, 2): (1, -1)}


def test_spin_label_fields():
    s = SpinLabel(3)  # j = 3/2
    assert s.j == 1.5
    assert s.N == 4
    assert s.kappa**2 * s.j * (s.j + 1) == pytest.approx(1.0, rel=1e-14)


def test_spin_label_rejects_j_zero():
    with pytest.raises(DegenerateRepresentationError):
        SpinLabel(0)


def test_from_dimension_roundtrip():
    for N in range(2, 10):
        assert SpinLabel.from_dimension(N).N == N


def test_spin_half_is_pauli_over_two():
    js = build_irrep(SpinLabel(1))
    for ja, sigma in zip(js, PAULI):
        assert np.allclose(toarray(ja), sigma / 2.0)


def test_spin_one_casimir():
    j1, j2, j3 = build_irrep(SpinLabel(2))
    assert np.allclose(toarray(j1 @ j1 + j2 @ j2 + j3 @ j3), 2.0 * np.eye(3))


def test_spin_three_half():
    j1, j2, j3 = build_irrep(SpinLabel(3))
    assert np.allclose(toarray(j3).diagonal(), [1.5, 0.5, -0.5, -1.5])
    js = [j1, j2, j3]
    for (p, q), (r, s) in EPS.items():
        res = commutator(js[p], js[q]) - 1j * s * js[r]
        assert max_abs(res, [4]) <= 1e-14


@pytest.mark.parametrize("twice_j", [1, 2, 3, 5, 10, 31, 63])
def test_irrep_commutation(twice_j):
    js = build_irrep(SpinLabel(twice_j))
    for (p, q), (r, s) in EPS.items():
        res = commutator(js[p], js[q]) - 1j * s * js[r]
        assert max_abs(res, [twice_j + 1]) <= 1e-12
    # the Banded irrep is the dense reference's, entry for entry
    for banded, dense in zip(js, dense_irrep(SpinLabel(twice_j))):
        assert np.array_equal(toarray(banded), dense)


def test_kappa_values():
    assert SpinLabel(1).kappa == pytest.approx(2.0 / np.sqrt(3.0))  # j = 1/2
    assert SpinLabel(2).kappa == pytest.approx(1.0 / np.sqrt(2.0))  # j = 1


def test_spin_half_coordinates_are_scaled_pauli():
    coords = fuzzy_coordinates(SpinLabel(1))
    for x, sigma in zip((coords.X1, coords.X2, coords.X3), PAULI):
        assert np.allclose(toarray(x), sigma / np.sqrt(3.0))


@pytest.mark.parametrize("twice_j", range(1, 64))
def test_coordinate_relations(twice_j):
    coords = fuzzy_coordinates(SpinLabel(twice_j))
    xs = [coords.X1, coords.X2, coords.X3]
    k, sizes = coords.kappa, coords.sizes
    for (p, q), (r, s) in EPS.items():
        res = commutator(xs[p], xs[q]) - 1j * k * s * xs[r]
        assert max_abs(res, sizes) <= 1e-12
    one = Banded.from_diagonals(coords.N, {0: 1.0})
    assert max_abs(xs[0] @ xs[0] + xs[1] @ xs[1] + xs[2] @ xs[2] - one, sizes) <= 1e-12
    for x, dense in zip(xs, (dense_coordinates(SpinLabel(twice_j)).axis(a) for a in (1, 2, 3))):
        assert np.allclose(toarray(x), toarray(x.conj().T))
        assert abs(normalized_trace(x, sizes)) <= 1e-13
        assert np.array_equal(toarray(x), dense)


def test_x3_spectrum_is_kappa_ladder():
    coords = fuzzy_coordinates(SpinLabel(4))  # j = 2
    expected = coords.kappa * np.array([2.0, 1.0, 0.0, -1.0, -2.0])
    assert np.allclose(toarray(coords.X3).diagonal(), expected)


def test_a_ladder_of_spins_stacks_each_irrep_and_coordinate_alone():
    # between blocks J+ would take the next block's top m = j to m + 1, with
    # sqrt(j(j+1) - m(m+1)) = 0 exactly, so each block is its spin's own
    # representation and coordinates bit for bit, and nothing couples blocks
    spins = [SpinLabel(t) for t in (1, 4, 2, 9)]
    coords = fuzzy_coordinates(*spins)
    assert coords.sizes.tolist() == [2, 5, 3, 10] and coords.N == 20
    stacked = [toarray(m) for m in build_irrep(*spins)]
    stacked_x = [toarray(coords.axis(a)) for a in (1, 2, 3)]
    start = 0
    for spin in spins:
        block = slice(start, start + spin.N)
        alone = fuzzy_coordinates(spin)
        assert np.array_equal(coords.kappa[block], np.full(spin.N, spin.kappa))
        for a in range(3):
            assert np.array_equal(stacked[a][block, block], dense_irrep(spin)[a])
            assert np.array_equal(stacked_x[a][block, block], toarray(alone.axis(a + 1)))
            assert not stacked[a][block, start + spin.N:].any()
        start += spin.N
