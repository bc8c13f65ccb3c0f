import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (
    ATOL,
    ATOL_COMPOSED,
    axis_rotation,
    conjugate,
    hermitian_eigenvalues,
    is_density_matrix,
    is_unitary,
    pauli,
    random_density,
    random_unitary,
)
from qrl.agent import IDENTITY


class TestPauli:
    def test_x(self):
        np.testing.assert_array_equal(pauli("X"), [[0, 1], [1, 0]])

    def test_z(self):
        np.testing.assert_array_equal(pauli("Z"), [[1, 0], [0, -1]])

    def test_involution(self):
        for axis in "XYZ":
            np.testing.assert_allclose(pauli(axis) @ pauli(axis), IDENTITY, atol=ATOL)

    def test_hermitian_unitary(self):
        for axis in "XYZ":
            p = pauli(axis)
            np.testing.assert_array_equal(p, p.conj().T)
            assert is_unitary(p)

    def test_unknown_axis(self):
        with pytest.raises(ValueError, match="Pauli axis"):
            pauli("W")


class TestAxisRotation:
    def test_zero_angle_is_identity(self):
        for axis in "XYZ":
            np.testing.assert_array_equal(axis_rotation(axis, 0.0), IDENTITY)

    def test_full_turn_is_minus_identity(self):
        np.testing.assert_allclose(axis_rotation("Z", 2 * math.pi), -IDENTITY, atol=ATOL)

    def test_x_half_turn(self):
        # exp(-i pi X / 2) = -i X, from the matrix exponential
        np.testing.assert_allclose(axis_rotation("X", math.pi), -1j * pauli("X"), atol=ATOL)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(5)
        for axis in "XYZ":
            for angle in rng.uniform(-2 * math.pi, 2 * math.pi, size=20):
                oracle = expm(-0.5j * angle * pauli(axis))
                np.testing.assert_allclose(axis_rotation(axis, angle), oracle, atol=1e-13)

    def test_inverse_pairs(self):
        rng = np.random.default_rng(6)
        for axis in "XYZ":
            for angle in rng.uniform(-8, 8, size=10):
                product = axis_rotation(axis, angle) @ axis_rotation(axis, -angle)
                np.testing.assert_allclose(product, IDENTITY, atol=ATOL)

    def test_always_unitary(self):
        rng = np.random.default_rng(7)
        for axis in "XYZ":
            for angle in rng.uniform(-20, 20, size=10):
                assert is_unitary(axis_rotation(axis, angle))


class TestConjugate:
    def test_identity(self):
        rho = random_density(np.random.default_rng(0))
        np.testing.assert_allclose(conjugate(IDENTITY, rho), rho, atol=ATOL)

    def test_bit_flip(self):
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        one = np.array([[0, 0], [0, 1]], dtype=complex)
        np.testing.assert_allclose(conjugate(pauli("X"), zero), one, atol=ATOL)

    def test_half_y_rotation_makes_plus_state(self):
        # exp(-i pi Y/4) |0><0| exp(+i pi Y/4) is the projector onto
        # (|0> + |1>)/sqrt(2); expected value from a brute-force product.
        rotation = axis_rotation("Y", math.pi / 2)
        zero = np.array([[1, 0], [0, 0]], dtype=complex)
        expected = np.full((2, 2), 0.5, dtype=complex)
        np.testing.assert_allclose(conjugate(rotation, zero), expected, atol=ATOL)

    def test_composition(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            u, v = random_unitary(rng), random_unitary(rng)
            rho = random_density(rng)
            np.testing.assert_allclose(
                conjugate(u @ v, rho), conjugate(u, conjugate(v, rho)), atol=ATOL_COMPOSED
            )

    def test_preserves_density_invariants(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            out = conjugate(random_unitary(rng), random_density(rng))
            assert is_density_matrix(out, atol=1e-10)


class TestValidators:
    def test_eigenvalues_match_numpy(self):
        rng = np.random.default_rng(25)
        for _ in range(100):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            h = a + a.conj().T
            low, high = hermitian_eigenvalues(h)
            np.testing.assert_allclose([low, high], np.linalg.eigvalsh(h), atol=1e-10)

    def test_density_checks(self):
        assert is_density_matrix(np.eye(2) / 2)
        assert not is_density_matrix(np.eye(2))  # trace 2
        assert not is_density_matrix(np.array([[1, 1], [0, 0]], dtype=complex))  # not Hermitian
        assert not is_density_matrix(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue

    def test_unitary_checks(self):
        assert is_unitary(IDENTITY)
        assert not is_unitary(np.full((2, 2), 0.5, dtype=complex))
