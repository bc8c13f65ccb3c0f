"""Fixed-size complex linear algebra for single-qubit states and gates.

Everything here works on plain numpy values: pure states are unit-norm
complex vectors of shape (2,), density matrices and unitaries are complex
arrays of shape (2, 2), all in the computational basis. Functions never
mutate their inputs and always return fresh arrays. Stacks with leading
axes, e.g. (n, 2, 2), get the same bits per element as single calls.
"""

from __future__ import annotations

import numpy as np

# Entrywise tolerance for invariant checks on directly constructed objects.
ATOL = 1e-12
# Looser tolerance for products of several operations.
ATOL_COMPOSED = 1e-10

IDENTITY = np.eye(2, dtype=complex)

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

for _m in _PAULI.values():
    _m.setflags(write=False)
IDENTITY.setflags(write=False)


def _pauli_ref(axis: str) -> np.ndarray:
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'X', 'Y' or 'Z'") from None


def pauli(axis: str) -> np.ndarray:
    """Return the Pauli matrix for ``axis`` in {'X', 'Y', 'Z'}."""
    return _pauli_ref(axis).copy()


def axis_rotation(axes: str, angle: float | np.ndarray) -> np.ndarray:
    """Rotation exp(-i*angle*P/2) about the Pauli axis ``axes``, or one per letter of ``axes``.

    Uses the closed form cos(angle/2)*I - i*sin(angle/2)*P, which is exact
    for 2x2 Pauli generators. An array of angles gives a stack of shape
    ``angle.shape + (2, 2)``; with several letters, e.g. ``"XYZ"``, the
    leading axis of ``angle`` runs over the letters.
    """
    half = 0.5 * np.asarray(angle)[..., None, None]
    paulis = np.array([_pauli_ref(axis) for axis in axes])
    generator = paulis[0] if len(axes) == 1 else paulis.reshape(-1, *[1] * (half.ndim - 3), 2, 2)
    return np.cos(half) * IDENTITY - 1j * np.sin(half) * generator


def conjugate(unitary: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Conjugate a density matrix: rho -> U rho U^dagger."""
    return unitary @ rho @ unitary.conj().T


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state (or a stack of them)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def overlap_magnitude(target: np.ndarray, unitary: np.ndarray, basis_bit) -> float | np.ndarray:
    """|<target| U |b>| for a computational basis bit b in {0, 1}, per unitary of a stack.

    Stacked targets (m, 2) with m basis bits add a trailing axis: entry j reads target j, bit j.
    """
    bits = np.asarray(basis_bit)
    if not ((bits == 0) | (bits == 1)).all():
        raise ValueError(f"basis_bit must be 0 or 1, got {basis_bit}")
    columns = unitary[..., bits].swapaxes(-1, -2) if bits.ndim else unitary[..., :, basis_bit]
    amplitude = np.vecdot(target, columns)
    # hypot is what scalar abs(complex) computes; np.abs of arrays can differ.
    return np.hypot(amplitude.real, amplitude.imag)


def is_normalized(psi: np.ndarray, atol: float = ATOL) -> bool:
    """Whether |amp0|^2 + |amp1|^2 = 1 within tolerance."""
    psi = np.asarray(psi)
    return abs(float(np.vdot(psi, psi).real) - 1.0) <= atol


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
