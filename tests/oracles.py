"""Reference code that the tests use and ``qrl`` does not.

Pauli matrices, single-axis rotations, conjugation, the unitarity and
density-matrix checks and the random state and gate samplers sit here,
next to the tests, so that the package exports only what it runs. So does
the scalar learning loop (``AgentState``, ``step`` and ``run_realization``):
one realization, one iteration at a time, with P(0) from the density
matrix through ``measurement_prob_zero`` and each kick built from three
``axis_rotation`` calls. It shares no loop and no rotation code with
``qrl.agent.run_lockstep``, the package's one engine, and the tests check
that engine against it bit for bit. From the package it takes the
parameters, records and ``IDENTITY`` of ``qrl.agent`` and, from
``qrl.channels``, the eigenstates, ``ATOL``, the projector
``density_from_pure`` and the readout ``overlap_magnitude``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qrl.agent import IDENTITY, AlgorithmParams, IterationRecord
from qrl.channels import ATOL, EXCITED, GROUND, Channel, density_from_pure, measurement_prob_zero, overlap_magnitude

# Looser tolerance for products of several operations.
ATOL_COMPOSED = 1e-10

_PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """A writable copy of the Pauli matrix for ``axis`` in {'X', 'Y', 'Z'}."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValueError(f"unknown Pauli axis {axis!r}, expected 'X', 'Y' or 'Z'") from None


def axis_rotation(axis: str, angle: float | np.ndarray) -> np.ndarray:
    """Rotation exp(-i*angle*P/2) about the Pauli axis ``axis``; an array of angles gives a stack.

    Uses the closed form cos(angle/2)*I - i*sin(angle/2)*P, which is exact
    for 2x2 Pauli generators; the stack has shape ``angle.shape + (2, 2)``.
    """
    half = 0.5 * np.asarray(angle)[..., None, None]
    return np.cos(half) * IDENTITY - 1j * np.sin(half) * pauli(axis)


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


@dataclass
class AgentState:
    """Mutable loop state: accumulated unitary, exploration parameter, step; fresh by default."""

    transform: np.ndarray = field(default_factory=lambda: IDENTITY.copy())
    w: float = 1.0
    k: int = 0


def step(
    state: AgentState,
    channel: Channel,
    params: AlgorithmParams,
    rng: np.random.Generator,
) -> tuple[AgentState, IterationRecord]:
    """Advance the loop by one iteration.

    Returns the successor state and the record of this iteration. The
    record's fidelities describe the post-update transform, i.e. the
    state the next iteration will prepare.
    """
    rho = density_from_pure(state.transform[:, 0])
    p_zero = measurement_prob_zero(channel, rho)
    chi = rng.uniform(0.0, 1.0)

    if chi <= p_zero:
        outcome = 0
        w_next = params.reward_rate * state.w
        transform_next = state.transform
    else:
        outcome = 1
        w_next = min(params.punish_rate * state.w, 1.0)
        # Angles alpha, beta, gamma, drawn in that order from the pre-update interval.
        half_width = state.w * math.pi
        alpha, beta, gamma = [rng.uniform(-half_width, half_width) for _ in range(3)]
        kick = axis_rotation("Y", beta) @ axis_rotation("Z", gamma) @ axis_rotation("X", alpha)
        transform_next = state.transform @ kick

    f_e = overlap_magnitude(EXCITED, transform_next, 0)
    f_g = overlap_magnitude(GROUND, transform_next, 0)
    record = IterationRecord(
        k=state.k + 1,
        outcome=outcome,
        w=w_next,
        f_e=f_e,
        f_g=f_g,
        f_max=max(f_e, f_g),
        p_zero=p_zero,
    )
    return AgentState(transform_next, w_next, state.k + 1), record


def run_realization(
    channel: Channel,
    params: AlgorithmParams,
    seed: int,
    *,
    dual_basis: bool = False,
) -> list[IterationRecord]:
    """Run one full realization with ``step`` and return its iteration records.

    Fully deterministic for a given seed. With ``dual_basis`` the records
    also carry the fidelities of the state prepared from the flipped
    basis bit 1.
    """
    rng = np.random.default_rng(seed)
    state = AgentState()
    records = []
    for _ in range(params.iterations):
        state, record = step(state, channel, params, rng)
        if dual_basis:
            record.f_e_b1 = overlap_magnitude(EXCITED, state.transform, 1)
            record.f_g_b1 = overlap_magnitude(GROUND, state.transform, 1)
        records.append(record)
    return records
