import math

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import axis_rotation, is_unitary, pauli
from qrl.agent import IDENTITY
from qrl.channels import ATOL


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
