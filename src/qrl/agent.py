"""The reinforcement-learning loop: a lockstep engine and its scalar oracle.

The agent owns a unitary ``transform`` (the accumulated preparation
operator) and an exploration parameter ``w``. Each iteration prepares
rho = transform |b><b| transform^dag from a computational basis bit b,
evolves it through the channel, and simulates the protocol's
invert-and-measure step analytically through the outcome probability
P(0) = Tr[rho * E(rho)]. Outcome 0 rewards the agent (w shrinks by the
reward rate, transform unchanged); outcome 1 punishes it (w grows by the
punishment rate, capped at 1) and kicks the transform by a random
rotation whose Euler angles are uniform on [-w*pi, w*pi].

Random draws come from a numpy Generator and are consumed in a frozen,
documented order so that seeded runs are reproducible: one uniform on
[0, 1] for the measurement, then, only on punishment, the three angles
alpha (X), beta (Y), gamma (Z) in that order, each uniform on
[-w*pi, w*pi] with the pre-update w.

``run_lockstep``, the engine of the ensemble, advances many realizations
together (closed-form P(0), streamed draws, one rotation and one readout
call per step for all kicks); ``step`` and ``run_realization`` are the
scalar reference it reproduces bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Channel, measurement_prob_zero, pure_prob_zero
from .linalg import IDENTITY, axis_rotation, density_from_pure, overlap_magnitude

BLOCK = 64  # iterations per trajectory block of ``run_lockstep``


@dataclass
class AlgorithmParams:
    """Learning-rule parameters of a realization.

    ``reward_rate`` in (0, 1) shrinks w on outcome 0, a finite ``punish_rate`` > 1
    grows it on outcome 1, ``iterations`` is the number of loop steps and
    ``basis_bit`` the computational basis state the preparation starts
    from. The reward/punishment rates are not fixed by the protocol; the
    defaults (0.9, 1.5) are this package's own choice.
    """

    reward_rate: float = 0.9
    punish_rate: float = 1.5
    iterations: int = 500
    basis_bit: int = 0

    def __post_init__(self):
        if not 0.0 < self.reward_rate < 1.0:
            raise ValueError(f"reward_rate must be in (0, 1), got {self.reward_rate}")
        if not (self.punish_rate > 1.0 and math.isfinite(self.punish_rate)):
            raise ValueError(f"punish_rate must be finite and > 1, got {self.punish_rate}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.basis_bit not in (0, 1):
            raise ValueError(f"basis_bit must be 0 or 1, got {self.basis_bit}")


@dataclass
class AgentState:
    """Mutable loop state: accumulated unitary, exploration parameter, step count."""

    transform: np.ndarray = field(default_factory=lambda: IDENTITY.copy())
    w: float = 1.0
    k: int = 0


@dataclass
class IterationRecord:
    """Per-iteration observables, indexed by the post-update step count k.

    ``f_e`` and ``f_g`` are the overlap magnitudes of the prepared state
    with the excited and ground eigenstates, ``f_max`` their maximum, and
    ``p_zero`` the outcome-0 probability the measurement draw used. The
    ``*_b1`` fidelities describe the state prepared from the flipped
    basis bit and are filled only when a run asks for them.
    """

    k: int
    outcome: int
    w: float
    f_e: float
    f_g: float
    f_max: float
    p_zero: float
    f_e_b1: float | None = None
    f_g_b1: float | None = None


def init_agent() -> AgentState:
    """Fresh agent: identity transform, exploration parameter 1, step 0."""
    return AgentState()


def _rotation(angles) -> np.ndarray:
    """Kick Ry(beta) Rz(gamma) Rx(alpha) from (alpha, beta, gamma); (3, ...) arrays give a stack."""
    rx, ry, rz = axis_rotation("XYZ", angles)
    return ry @ rz @ rx


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
    rho = density_from_pure(state.transform[:, params.basis_bit])
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
        angles = [rng.uniform(-half_width, half_width) for _ in range(3)]
        transform_next = state.transform @ _rotation(angles)

    basis = channel.basis
    f_e = overlap_magnitude(basis.excited, transform_next, params.basis_bit)
    f_g = overlap_magnitude(basis.ground, transform_next, params.basis_bit)
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
    """Run one full realization and return its iteration records.

    Fully deterministic for a given seed. With ``dual_basis`` the records
    also carry the fidelities of the state prepared from the flipped
    basis bit.
    """
    rng = np.random.default_rng(seed)
    state = init_agent()
    flipped = 1 - params.basis_bit
    records = []
    for _ in range(params.iterations):
        state, record = step(state, channel, params, rng)
        if dual_basis:
            record.f_e_b1 = overlap_magnitude(channel.basis.excited, state.transform, flipped)
            record.f_g_b1 = overlap_magnitude(channel.basis.ground, state.transform, flipped)
        records.append(record)
    return records


def run_lockstep(
    channel: Channel, params: AlgorithmParams, seeds: list[int], fold, *, dual_basis: bool = False
) -> np.ndarray:
    """Run one realization per seed, all advanced together step by step.

    P(0) is ``pure_prob_zero`` of the tracked fidelities, both recomputed
    only for kicked realizations. Generators stream through buffers of
    ``4 * BLOCK`` uniforms (the most a block reads), which cursors read in
    the frozen order of ``step``; angles are ``lo + (hi - lo) * u`` as in
    ``Generator.uniform``. ``fold(k0, block)`` gets iterations k0:k0+b as a
    reused (n, columns, b) buffer, one (columns, b) trajectory block per
    realization, of w, f_e, f_g, f_max [, f_e_b1, f_g_b1], bit-equal to
    ``run_realization``. Returns the draws each realization used:
    iterations + 3 * punishments.
    """
    n = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = np.empty((n, 4 * BLOCK))
    flat, row_start = draws.reshape(-1), np.arange(n) * draws.shape[1]
    cursor = row_start + draws.shape[1]  # positions in ``flat``; the empty buffer counts as read
    used = np.zeros(n, dtype=np.intp)
    transform = np.repeat(IDENTITY[None], n, axis=0)
    state = np.ones((6 if dual_basis else 4, n))  # rows w, f_e, f_g, f_max [, f_e_b1, f_g_b1]
    w, p_zero = state[0], np.empty(n)
    # Overlap readouts: their state rows, targets and the basis bits they prepare from.
    rows = np.array([1, 2, 4, 5][: len(state) - 2])
    targets = np.array([channel.basis.excited, channel.basis.ground] * 2)[: len(rows)]
    bits = (np.array([0, 0, 1, 1]) ^ params.basis_bit)[: len(rows)]

    def refresh(at, unitaries):  # fidelities, f_max and P(0) of realizations ``at``
        fidelity = overlap_magnitude(targets, unitaries, bits).T
        state[rows[:, None], at] = fidelity
        state[3, at] = np.maximum(fidelity[0], fidelity[1])
        p_zero[at] = pure_prob_zero(channel, fidelity[0] ** 2, fidelity[1] ** 2)

    refresh(np.arange(n), transform)
    block = np.empty((n, len(state), BLOCK))
    for k0 in range(0, params.iterations, BLOCK):
        for row, rng, consumed in zip(draws, rngs, cursor - row_start):  # keep the unread tail
            row[: row.size - consumed] = row[consumed:]
            rng.random(out=row[row.size - consumed :])
        cursor[:] = row_start
        size = min(BLOCK, params.iterations - k0)
        for k in range(size):
            kicked = np.flatnonzero(flat[cursor] > p_zero)
            cursor += 1
            w_kicked = w[kicked]  # the pre-update w sets the kick's interval
            w *= params.reward_rate
            if kicked.size:
                at = cursor[kicked]  # alpha, beta, gamma follow the measurement draw
                half_width = w_kicked * math.pi
                angles = -half_width + (half_width + half_width) * flat[at + np.arange(3)[:, None]]
                transform[kicked] = kicked_transform = transform[kicked] @ _rotation(angles)
                cursor[kicked] = at + 3
                refresh(kicked, kicked_transform)
                w[kicked] = np.minimum(params.punish_rate * w_kicked, 1.0)
            block[..., k] = state.T
        used += cursor - row_start
        fold(k0, block[..., :size])
    return used
