"""Reference code that the tests use and ``qrl`` does not.

The dense reference physics lives here, so that the package ships only
what it runs: the projector ``density_from_pure``, the propagator
``hamiltonian_unitary``, the Kraus pair ``kraus_pair``, the density-matrix
evolution ``apply_channel`` and the measured probability
``measurement_prob_zero``. ``qrl`` evaluates P(0) only in closed form
(``Channel.prob_zero_terms`` and ``pure_prob_zero``); nothing here calls
that code, so the tests check it against an independent evaluation.

The Pauli matrices, single-axis rotations, conjugation, the unitarity and
density-matrix checks and the random state and gate samplers live here
too, and so does the scalar learning loop (``AgentState``, ``step`` and
``run_realization``): one realization, one iteration at a time, with P(0)
from the density matrix through ``measurement_prob_zero``, each kick built
from three ``axis_rotation`` calls and each fidelity read by
``overlap_magnitude``. It shares no loop, no rotation and no readout code
with ``qrl.agent.run_lockstep``, the package's one engine, and the tests
check that engine against it bit for bit. It shares no arithmetic with
``qrl`` either: it has its own identity ``IDENTITY`` and evaluates the
damping factor exp(-tau/t_dec) itself from a channel's fields. From the
package it takes only data and the number rule: the parameters and
records ``AlgorithmParams`` and ``IterationRecord`` of ``qrl.agent`` and,
from ``qrl.channels``, ``Channel`` (for its fields, never its methods), the
eigenstates and ``_number``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from qrl.agent import AlgorithmParams, IterationRecord
from qrl.channels import EXCITED, GROUND, Channel, _number

# The oracle's own read-only identity, so that a fault in the engine's ``qrl.agent.IDENTITY`` shows.
IDENTITY = np.eye(2, dtype=complex)
IDENTITY.setflags(write=False)
# Entrywise tolerance for invariant checks on directly constructed objects.
ATOL = 1e-12
# Looser tolerance for products of several operations.
ATOL_COMPOSED = 1e-10


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state (or a stack of them)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


# The eigenstates' projectors and the eigenbasis-to-computational map.
_EXCITED_PROJ = density_from_pure(EXCITED)
_GROUND_PROJ = density_from_pure(GROUND)
_EIG_TO_COMP = np.column_stack([EXCITED, GROUND])
for _m in (_EXCITED_PROJ, _GROUND_PROJ, _EIG_TO_COMP):
    _m.setflags(write=False)


def hamiltonian_unitary(tau: float) -> np.ndarray:
    """Propagator exp(-i H tau) in the computational basis.

    Evaluates exp(-i*tau/2)|e><e| + exp(+i*tau/2)|g><g|; tau is any finite real, 0 included.
    """
    phase = np.exp(-0.5j * _number("tau", tau, float, "that is finite", math.isfinite))
    return phase * _EXCITED_PROJ + phase.conj() * _GROUND_PROJ


def kraus_pair(channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators (E0, E1) of the channel's noise part.

    For both damping kinds E0 = |g><g| + exp(-tau/t_dec)|e><e|; phase
    damping has E1 = sqrt(1 - exp(-2 tau/t_dec)) |e><e| while amplitude
    damping has E1 = sqrt(1 - exp(-2 tau/t_dec)) |g><e|. A noiseless
    channel returns (I, 0) by convention. The pair always satisfies
    E0^dag E0 + E1^dag E1 = I.
    """
    survive = math.exp(-channel.tau / channel.t_dec)
    jump = math.sqrt(1.0 - survive * survive)
    first = _GROUND_PROJ + survive * _EXCITED_PROJ
    if channel.kind == "adn":
        second = jump * np.outer(GROUND, EXCITED.conj())
    else:
        # noiseless degenerates to jump = 0 here, i.e. (I, 0)
        second = jump * _EXCITED_PROJ
    return first, second


def apply_channel(channel: Channel, rho: np.ndarray) -> np.ndarray:
    """Evolve a density matrix through one step of the channel.

    Closed-form evaluation in the energy eigenbasis, an independent target
    for the Kraus form U(tau) [E0 rho E0^dag + E1 rho E1^dag] U(tau)^dag;
    assumes ``rho`` is a valid unit-trace density matrix.
    """
    rho_eig = _EIG_TO_COMP.conj().T @ rho @ _EIG_TO_COMP

    survive = math.exp(-channel.tau / channel.t_dec)
    rotation = np.exp(-1j * channel.tau)
    off = survive * rotation * rho_eig[0, 1]
    excited_pop = rho_eig[0, 0].real
    if channel.kind == "adn":
        excited_pop *= survive * survive
        ground_pop = 1.0 - excited_pop
    else:
        ground_pop = rho_eig[1, 1].real

    evolved_eig = np.array([[excited_pop, off], [off.conj(), ground_pop]], dtype=complex)
    return _EIG_TO_COMP @ evolved_eig @ _EIG_TO_COMP.conj().T


def measurement_prob_zero(channel: Channel, rho: np.ndarray) -> float:
    """Probability of outcome 0 when the protocol measures after evolution.

    Returns Tr[rho * apply_channel(channel, rho)], clamped into [0, 1].
    A raw value outside [-1e-12, 1 + 1e-12] indicates a broken channel or
    an invalid state and raises instead of being clamped.
    """
    evolved = apply_channel(channel, rho)
    # Tr[rho evolved] as a conjugated elementwise sum; rho is Hermitian.
    raw = np.vdot(rho, evolved).real
    if raw < -ATOL or raw > 1.0 + ATOL:
        raise ValueError(
            f"measurement probability {raw!r} outside tolerance band; "
            "channel or input state is invalid"
        )
    return min(max(raw, 0.0), 1.0)


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


def overlap_magnitude(target: np.ndarray, unitary: np.ndarray, bit: int) -> float:
    """|<target| U |bit>| for a computational basis bit in {0, 1}."""
    return abs(np.vdot(target, unitary[:, bit]))


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
    state the next iteration will prepare, and the ``*_b1`` ones the state
    it would prepare from the flipped basis bit 1.
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
        f_e_b1=overlap_magnitude(EXCITED, transform_next, 1),
        f_g_b1=overlap_magnitude(GROUND, transform_next, 1),
    )
    return AgentState(transform_next, w_next, state.k + 1), record


def run_realization(channel: Channel, params: AlgorithmParams, seed: int) -> list[IterationRecord]:
    """Run one full realization with ``step`` and return its iteration records.

    Fully deterministic for a given seed.
    """
    rng = np.random.default_rng(seed)
    state = AgentState()
    records = []
    for _ in range(params.iterations):
        state, record = step(state, channel, params, rng)
        records.append(record)
    return records
