"""Monte Carlo harness over independent realizations.

Realization ``i`` of an ensemble runs with its own derived seed
``mix_seed(master_seed, i)`` so any single realization can be reproduced
in isolation. The realizations run in one process, in chunks that the
lockstep engine ``run_lockstep`` advances together and hands back block
by block of iterations. Aggregation is streaming: each block's running
means and scatter are updated realization by realization, always in
index order, so the result is bit-identical for any chunk or block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .agent import BLOCK, AlgorithmParams, run_lockstep
from .channels import Channel

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Bytes of the draw buffers and trajectory block of a chunk of realizations.
# It bounds peak memory; the chunk size never changes the output.
_CHUNK_BYTES = 1 << 20


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the per-realization seed, bit-exactly.

    This is the splitmix64 output function applied to the state
    ``master_seed + (index + 1) * 0x9E3779B97F4A7C15`` (all arithmetic
    mod 2**64):

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
    """
    if index < 0:
        raise ValueError(f"realization index must be >= 0, got {index}")
    z = (master_seed + (index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True, eq=False)
class EnsembleConfig:
    """One ensemble cell: channel, learning parameters, size and a seed in [0, 2**64)."""

    channel: Channel
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    n_realizations: int = 1000
    master_seed: int = 0
    dual_basis: bool = False

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if not 0 <= self.master_seed <= _MASK64:
            raise ValueError(f"master_seed must be in [0, 2**64), got {self.master_seed}")


@dataclass
class EnsembleStats:
    """Per-iteration ensemble means and their standard errors.

    All arrays share the run's iteration count and are indexed by
    iteration k-1. ``w`` is the mean exploration parameter; ``f_e``,
    ``f_g`` and ``f_max`` the mean fidelities of the state prepared from
    the configured basis bit. The ``*_b1`` arrays, present only for
    dual-basis runs, hold the fidelities of the state prepared from the
    flipped bit.
    """

    n_realizations: int
    w: np.ndarray
    f_e: np.ndarray
    f_g: np.ndarray
    f_max: np.ndarray
    se_w: np.ndarray
    se_f_e: np.ndarray
    se_f_g: np.ndarray
    se_f_max: np.ndarray
    f_e_b1: np.ndarray | None = None
    f_g_b1: np.ndarray | None = None
    se_f_e_b1: np.ndarray | None = None
    se_f_g_b1: np.ndarray | None = None

    @property
    def iterations(self) -> int:
        return len(self.w)


class _RunningMoments:
    """Streaming per-iteration mean and scatter (Welford update) of several columns.

    No iteration's recurrence reads another, so adding realizations in
    index order block by block of iterations gives the bits of adding
    whole trajectories. The mean is exact when all added vectors are
    equal, which keeps constant ensembles (e.g. the degenerate time) exact.
    """

    def __init__(self, columns: int, length: int):
        self.mean = np.zeros((columns, length))
        self._m2 = np.zeros((columns, length))

    def add_block(self, first: int, k0: int, block: np.ndarray) -> None:
        """Add realizations first, first + 1, ... from a (b, columns, n) block of iterations k0:k0+b."""
        at = slice(k0, k0 + len(block))
        mean, m2 = self.mean[:, at], self._m2[:, at]
        for count, values in enumerate(block.transpose(2, 1, 0), start=first + 1):
            delta = values - mean
            mean += delta / count
            m2 += delta * (values - mean)

    def standard_error(self, count: int) -> np.ndarray:
        if count < 2:
            return np.zeros_like(self.mean)
        variance = np.maximum(self._m2, 0.0) / (count - 1)
        return np.sqrt(variance / count)


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run all realizations of a cell and aggregate their statistics.

    The output depends only on the configuration (including
    ``master_seed``), never on how the realizations are chunked.
    """
    n = cfg.n_realizations
    n_columns = 6 if cfg.dual_basis else 4
    moments = _RunningMoments(n_columns, cfg.params.iterations)
    chunk = max(1, _CHUNK_BYTES // (8 * BLOCK * (4 + n_columns)))
    for start in range(0, n, chunk):
        seeds = [mix_seed(cfg.master_seed, i) for i in range(start, min(start + chunk, n))]
        fold = partial(moments.add_block, start)
        run_lockstep(cfg.channel, cfg.params, seeds, fold, dual_basis=cfg.dual_basis)

    # EnsembleStats field order: means, then errors, of w, f_e, f_g, f_max; then of the *_b1 pair.
    errors = moments.standard_error(n)
    return EnsembleStats(n, *moments.mean[:4], *errors[:4], *moments.mean[4:], *errors[4:])
