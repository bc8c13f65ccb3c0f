import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from qrl.linalg import (
    ATOL,
    ATOL_COMPOSED,
    IDENTITY,
    axis_rotation,
    conjugate,
    density_from_pure,
    hermitian_eigenvalues,
    is_density_matrix,
    is_normalized,
    is_unitary,
    overlap_magnitude,
    pauli,
)

EXCITED = np.array([0.5, math.sqrt(3) / 2], dtype=complex)
GROUND = np.array([-math.sqrt(3) / 2, 0.5], dtype=complex)


def random_unitary(rng):
    """Haar-ish 2x2 unitary from a QR decomposition of a Gaussian matrix."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


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
    def test_letters_stack_single_rotations(self):
        angles = np.array([[0.3, -math.pi], [1.1, 0.0], [math.pi, -2.5]])
        stack = axis_rotation("XYZ", angles)
        assert stack.shape == (3, 2, 2, 2)
        for rotation, axis, angle in zip(stack, "XYZ", angles):
            assert rotation.tobytes() == axis_rotation(axis, angle).tobytes()
        assert axis_rotation("ZX", [0.4, -0.9]).tobytes() == np.array(
            [axis_rotation("Z", 0.4), axis_rotation("X", -0.9)]
        ).tobytes()
        with pytest.raises(ValueError, match="Pauli axis"):
            axis_rotation("XW", [0.1, 0.2])

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


class TestDensityFromPure:
    def test_basis_states(self):
        np.testing.assert_array_equal(
            density_from_pure(np.array([1, 0], dtype=complex)), [[1, 0], [0, 0]]
        )
        np.testing.assert_array_equal(
            density_from_pure(np.array([0, 1], dtype=complex)), [[0, 0], [0, 1]]
        )

    def test_plus_state(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        np.testing.assert_allclose(density_from_pure(plus), np.full((2, 2), 0.5), atol=ATOL)

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            assert is_normalized(psi)
            assert is_density_matrix(density_from_pure(psi))


class TestOverlapMagnitude:
    def test_energy_basis_components(self):
        assert overlap_magnitude(EXCITED, IDENTITY, 0) == pytest.approx(0.5, abs=ATOL)
        assert overlap_magnitude(GROUND, IDENTITY, 0) == pytest.approx(math.sqrt(3) / 2, abs=ATOL)
        assert overlap_magnitude(EXCITED, IDENTITY, 1) == pytest.approx(math.sqrt(3) / 2, abs=ATOL)

    def test_completeness_over_orthonormal_targets(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            u = random_unitary(rng)
            total = overlap_magnitude(EXCITED, u, 0) ** 2 + overlap_magnitude(GROUND, u, 0) ** 2
            assert total == pytest.approx(1.0, abs=ATOL_COMPOSED)

    def test_rejects_bad_bit(self):
        with pytest.raises(ValueError, match="basis_bit"):
            overlap_magnitude(EXCITED, IDENTITY, 2)
        with pytest.raises(ValueError, match="basis_bit"):
            overlap_magnitude(np.array([EXCITED, GROUND]), IDENTITY, [0, 2])

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        stack=st.sampled_from([(), (1,), (7,), (3, 5)]),
        bits=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    )
    def test_target_stack_equals_single_calls(self, seed, stack, bits):
        rng = np.random.default_rng(seed)
        unitaries = rng.normal(size=(*stack, 2, 2)) + 1j * rng.normal(size=(*stack, 2, 2))
        targets = rng.normal(size=(len(bits), 2)) + 1j * rng.normal(size=(len(bits), 2))
        values = overlap_magnitude(targets, unitaries, bits)
        assert values.shape == (*stack, len(bits))
        for j, (target, bit) in enumerate(zip(targets, bits)):
            single = np.asarray(overlap_magnitude(target, unitaries, bit))
            assert values[..., j].tobytes() == single.tobytes()

    def test_stack_keeps_scalar_modulus_bits(self):
        # Array np.abs can differ from scalar abs in the last bit; the
        # stacked readout must not.
        rng = np.random.default_rng(26)
        stack = np.array([random_unitary(rng) for _ in range(37)])
        for target in (EXCITED, GROUND):
            for bit in (0, 1):
                values = overlap_magnitude(target, stack, bit)
                expected = [abs(np.vdot(target, u[:, bit])) for u in stack]
                assert values.tolist() == expected


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
