"""Reference checks on 2x2 states and gates that the tests use and ``qrl`` does not.

Pauli matrices, conjugation, the unitarity and density-matrix checks and
the random state and gate samplers sit here, next to the tests, so that
the package exports only what it runs.
"""

from __future__ import annotations

import numpy as np

from qrl.linalg import ATOL, IDENTITY, _pauli

# Looser tolerance for products of several operations.
ATOL_COMPOSED = 1e-10


def pauli(axis: str) -> np.ndarray:
    """A writable copy of the Pauli matrix for ``axis`` in {'X', 'Y', 'Z'}."""
    return _pauli(axis).copy()


def conjugate(unitary: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: rho -> U rho U^dagger."""
    return unitary @ rho @ unitary.conj().T


def is_unitary(matrix: np.ndarray, atol: float = ATOL) -> bool:
    """Whether U^dagger U = I entrywise within tolerance."""
    return bool(np.all(np.abs(matrix.conj().T @ matrix - IDENTITY) <= atol))


def hermitian_eigenvalues(matrix: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of a 2x2 Hermitian matrix, by closed form."""
    a = matrix[0, 0].real
    c = matrix[1, 1].real
    half_trace = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), abs(matrix[0, 1]))
    return half_trace - radius, half_trace + radius


def is_density_matrix(rho: np.ndarray, atol: float = ATOL) -> bool:
    """Whether rho is Hermitian, unit-trace and PSD within tolerance."""
    rho = np.asarray(rho)
    if rho.shape != (2, 2):
        return False
    if not np.all(np.abs(rho - rho.conj().T) <= atol):
        return False
    if abs(float(np.trace(rho).real) - 1.0) > atol:
        return False
    low, _ = hermitian_eigenvalues(rho)
    return low >= -atol


def random_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-ish 2x2 unitary from a QR decomposition of a Gaussian matrix."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator) -> np.ndarray:
    """A full-rank density matrix A A^dagger / Tr(A A^dagger), A complex Gaussian."""
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real
