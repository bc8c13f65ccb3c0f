import math

import numpy as np

from oracles import (
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
from qrl.channels import ATOL


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
