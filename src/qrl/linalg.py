"""The identity, projectors of pure states and overlap readouts of single-qubit unitaries.

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
IDENTITY.setflags(write=False)


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
