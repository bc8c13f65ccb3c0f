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

IDENTITY = np.eye(2, dtype=complex)

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

for _m in _PAULI.values():
    _m.setflags(write=False)
IDENTITY.setflags(write=False)


def _pauli(axis: str) -> np.ndarray:
    """The read-only Pauli matrix for ``axis`` in {'X', 'Y', 'Z'}."""
    try:
        return _PAULI[axis]
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'X', 'Y' or 'Z'") from None


def axis_rotation(axes: str, angle: float | np.ndarray) -> np.ndarray:
    """Rotation exp(-i*angle*P/2) about the Pauli axis ``axes``, or one per letter of ``axes``.

    Uses the closed form cos(angle/2)*I - i*sin(angle/2)*P, which is exact
    for 2x2 Pauli generators. An array of angles gives a stack of shape
    ``angle.shape + (2, 2)``; with several letters, e.g. ``"XYZ"``, the
    leading axis of ``angle`` runs over the letters.
    """
    half = 0.5 * np.asarray(angle)[..., None, None]
    paulis = np.array([_pauli(axis) for axis in axes])
    generator = paulis[0] if len(axes) == 1 else paulis.reshape(-1, *[1] * (half.ndim - 3), 2, 2)
    return np.cos(half) * IDENTITY - 1j * np.sin(half) * generator


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state (or a stack of them)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


def overlap_magnitude(target: np.ndarray, unitary: np.ndarray, basis_bit) -> float | np.ndarray:
    """|<target| U |b>| for a computational basis bit b in {0, 1}, per unitary of a stack.

    Stacked targets (m, 2) with m basis bits add a trailing axis: entry j reads target j, bit j.
    """
    bits = np.asarray(basis_bit)
    columns = unitary[..., bits].swapaxes(-1, -2) if bits.ndim else unitary[..., :, basis_bit]
    amplitude = np.vecdot(target, columns)
    # hypot is what scalar abs(complex) computes; np.abs of arrays can differ.
    return np.hypot(amplitude.real, amplitude.imag)
