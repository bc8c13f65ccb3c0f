"""The reinforcement-learning loop: a lockstep engine and its scalar oracle.

The agent owns a unitary ``transform`` (the accumulated preparation
operator) and an exploration parameter ``w``. Each iteration prepares
rho = transform |0><0| transform^dag from computational basis bit 0,
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

``run_lockstep`` is the one engine: it advances many realizations together
(closed-form P(0), streamed draws, one rotation and one readout call per
step for all kicks). The ensemble runs it over many seeds and
``run_realization`` over one. The scalar loop it reproduces bit for bit
lives in ``tests/oracles.py``, as the reference the tests check against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import EXCITED, GROUND, Channel, _store_numbers, overlap_magnitude, pure_prob_zero

BLOCK = 64  # iterations per trajectory block of ``run_lockstep``
# The read-only identity and Pauli X, Y, Z, stacked to broadcast against (3, m, 1, 1) half-angles,
# and the offsets of a kick's alpha, beta, gamma draws from the cursor past its measurement draw.
IDENTITY = np.eye(2, dtype=complex)
_XYZ = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)[:, None]
_ANGLE_OFFSETS = np.arange(3)[:, None]
for _m in (IDENTITY, _XYZ, _ANGLE_OFFSETS):
    _m.setflags(write=False)


@dataclass(frozen=True)
class AlgorithmParams:
    """Learning-rule parameters of a realization.

    ``reward_rate`` in (0, 1) shrinks w on outcome 0, a finite ``punish_rate`` > 1
    grows it on outcome 1 and ``iterations`` is the number of loop steps.
    The preparation always starts from basis bit 0. The reward/punishment
    rates are not fixed by the protocol; the defaults (0.9, 1.5) are this
    package's own choice.
    """

    reward_rate: float = 0.9
    punish_rate: float = 1.5
    iterations: int = 500

    def __post_init__(self):
        _store_numbers(self, float, "reward_rate", "punish_rate")
        _store_numbers(self, int, "iterations")
        if not 0.0 < self.reward_rate < 1.0:
            raise ValueError(f"reward_rate must be in (0, 1), got {self.reward_rate}")
        if not (self.punish_rate > 1.0 and math.isfinite(self.punish_rate)):
            raise ValueError(f"punish_rate must be finite and > 1, got {self.punish_rate}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")


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


def _rotation(angles: np.ndarray) -> np.ndarray:
    """Kicks Ry(beta) Rz(gamma) Rx(alpha) per column of (3, m) angles; Rp(t) = cos(t/2) I - i sin(t/2) P."""
    half = 0.5 * angles[..., None, None]
    rx, ry, rz = np.cos(half) * IDENTITY - 1j * np.sin(half) * _XYZ
    return ry @ rz @ rx


def run_lockstep(
    channels: list, params: AlgorithmParams, seeds: list[int], fold, *, dual_basis: bool = False
) -> np.ndarray:
    """Run one realization per seed, all advanced together step by step.

    ``channels`` holds (channel, count) runs that cover the seeds in order.
    P(0) is ``pure_prob_zero`` of the tracked fidelities and each
    realization's channel terms, both recomputed only for kicked
    realizations. Generators stream through buffers of ``4 * BLOCK``
    uniforms (the most a block reads), which cursors read in the frozen
    draw order; angles are ``lo + (hi - lo) * u`` as in
    ``Generator.uniform``. ``fold(k0, block, punished)`` gets iterations
    k0:k0+b as a reused (n, columns, b) buffer, one (columns, b) trajectory
    block per realization, of w, f_e, f_g, f_max [, f_e_b1, f_g_b1], bit-equal
    to the scalar oracle ``run_realization`` in ``tests/oracles.py``, and a
    reused (n, b) bool block of each step's outcome (True for a punishment).
    Returns the draws each realization used: iterations + 3 * punishments.
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
    targets = np.array([EXCITED, GROUND] * 2)[: len(rows)]
    bits = np.array([0, 0, 1, 1])[: len(rows)]
    # P(0) terms per realization: rows survival, coherence and adn (1.0 or 0.0).
    counts = [count for _, count in channels]
    terms = np.repeat(np.array([c.prob_zero_terms() for c, _ in channels]).T, counts, axis=1)

    def refresh(at, unitaries):  # fidelities, f_max and P(0) of realizations ``at``
        fidelity = overlap_magnitude(targets, unitaries, bits).T
        state[rows[:, None], at] = fidelity
        state[3, at] = np.maximum(fidelity[0], fidelity[1])
        p_zero[at] = pure_prob_zero(terms[:, at], fidelity[0] ** 2, fidelity[1] ** 2)

    refresh(np.arange(n), transform)
    block, punished = np.empty((n, len(state), BLOCK)), np.empty((BLOCK, n), dtype=bool)
    for k0 in range(0, params.iterations, BLOCK):
        for row, rng, consumed in zip(draws, rngs, cursor - row_start):  # keep the unread tail
            row[: row.size - consumed] = row[consumed:]
            rng.random(out=row[row.size - consumed :])
        cursor[:] = row_start
        size = min(BLOCK, params.iterations - k0)
        for k in range(size):
            kicked = np.flatnonzero(np.greater(flat[cursor], p_zero, out=punished[k]))
            cursor += 1
            w_kicked = w[kicked]  # the pre-update w sets the kick's interval
            w *= params.reward_rate
            if kicked.size:
                at = cursor[kicked]  # alpha, beta, gamma follow the measurement draw
                half_width = w_kicked * math.pi
                angles = -half_width + (half_width + half_width) * flat[at + _ANGLE_OFFSETS]
                transform[kicked] = kicked_transform = transform[kicked] @ _rotation(angles)
                cursor[kicked] = at + 3
                refresh(kicked, kicked_transform)
                w[kicked] = np.minimum(params.punish_rate * w_kicked, 1.0)
            block[..., k] = state.T
        used += cursor - row_start
        fold(k0, block[..., :size], punished[:size].T)
    return used


def run_realization(
    channel: Channel, params: AlgorithmParams, seed: int, *, dual_basis: bool = False
) -> list[IterationRecord]:
    """Run one full realization through ``run_lockstep`` and return its iteration records.

    Fully deterministic for a given seed. ``p_zero`` of step k is the engine's
    ``pure_prob_zero`` of the fidelities of record k - 1 (of the identity
    for k = 1), and ``outcome`` is the engine's punishment flag of step k.
    With ``dual_basis`` the records also carry the fidelities of the state
    prepared from the flipped basis bit 1.
    """
    blocks, flags = [], []

    def fold(k0, block, punished):  # copies: the engine reuses its buffers
        blocks.append(block[0].copy())
        flags.append(punished[0].copy())

    run_lockstep([(channel, 1)], params, [seed], fold, dual_basis=dual_basis)
    rows = np.concatenate(blocks, axis=1)  # w, f_e, f_g, f_max [, f_e_b1, f_g_b1] per iteration
    before = np.empty((2, params.iterations))  # f_e, f_g of the state each step prepares
    before[:, 0] = [overlap_magnitude(target, IDENTITY, 0) for target in (EXCITED, GROUND)]
    before[:, 1:] = rows[1:3, :-1]
    p_zero = pure_prob_zero(channel.prob_zero_terms(), before[0] ** 2, before[1] ** 2).tolist()
    outcomes = np.concatenate(flags).astype(int).tolist()
    return [IterationRecord(k, outcome, *values[:4], p, *values[4:])
            for k, (values, p, outcome) in enumerate(zip(rows.T.tolist(), p_zero, outcomes), start=1)]
