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
together, with a closed-form P(0) and streamed draws; ``step`` and
``run_realization`` are the scalar reference it reproduces bit for bit.
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

    ``reward_rate`` in (0, 1) shrinks w on outcome 0, ``punish_rate`` > 1
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
        if not self.punish_rate > 1.0:
            raise ValueError(f"punish_rate must be > 1, got {self.punish_rate}")
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


def _rotation(alpha, beta, gamma) -> np.ndarray:
    """Kick Ry(beta) Rz(gamma) Rx(alpha); arrays of angles give a stack of kicks."""
    return axis_rotation("Y", beta) @ axis_rotation("Z", gamma) @ axis_rotation("X", alpha)


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
        alpha, beta, gamma = (rng.uniform(-half_width, half_width) for _ in range(3))
        transform_next = state.transform @ _rotation(alpha, beta, gamma)

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
    reused (b, columns, n) buffer of w, f_e, f_g, f_max [, f_e_b1, f_g_b1],
    bit-equal to ``run_realization``. Returns the draws each realization
    used: iterations + 3 * punishments.
    """
    n = len(seeds)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    draws = np.empty((n, 4 * BLOCK))
    cursor = np.full(n, 4 * BLOCK)  # the empty buffer counts as read
    used = np.zeros(n, dtype=np.intp)
    realizations = np.arange(n)
    transform = np.repeat(IDENTITY[None], n, axis=0)
    excited, ground = channel.basis.excited, channel.basis.ground
    bit, flipped = params.basis_bit, 1 - params.basis_bit
    readouts = [(1, excited, bit), (2, ground, bit), (4, excited, flipped), (5, ground, flipped)]
    state = np.ones((6 if dual_basis else 4, n))  # rows w, f_e, f_g, f_max [, f_e_b1, f_g_b1]
    w, p_zero = state[0], np.empty(n)

    def refresh(at):  # fidelities, f_max and P(0) of realizations ``at`` from their transforms
        for row, target, target_bit in readouts[: len(state) - 2]:
            state[row, at] = overlap_magnitude(target, transform[at], target_bit)
        state[3, at] = np.maximum(state[1, at], state[2, at])
        p_zero[at] = pure_prob_zero(channel, *state[1:3, at] ** 2)

    refresh(realizations)
    block = np.empty((BLOCK, *state.shape))
    for k0 in range(0, params.iterations, BLOCK):
        for row, rng, consumed in zip(draws, rngs, cursor):  # keep the unread tail, refill
            row[: row.size - consumed] = row[consumed:]
            rng.random(out=row[row.size - consumed :])
        cursor[:] = 0
        size = min(BLOCK, params.iterations - k0)
        for k in range(size):
            punished = draws[realizations, cursor] > p_zero
            cursor += 1
            kicked = np.flatnonzero(punished)
            if kicked.size:
                half_width = w[kicked] * math.pi
                at = cursor[kicked] + np.arange(3)[:, None]  # rows alpha, beta, gamma
                angles = -half_width + (half_width + half_width) * draws[kicked, at]
                transform[kicked] = transform[kicked] @ _rotation(*angles)
                cursor[kicked] += 3
                refresh(kicked)
            w[:] = np.where(punished, np.minimum(params.punish_rate * w, 1.0), params.reward_rate * w)
            block[k] = state
        used += cursor
        fold(k0, block[:size])
    return used
