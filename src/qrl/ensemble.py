"""Monte Carlo harness over independent realizations.

Realization ``i`` of an ensemble runs with its own derived seed
``mix_seed(master_seed, i)`` so any single realization can be reproduced
in isolation. The realizations run in one process, in chunks that the
lockstep engine ``run_lockstep`` advances together and yields in blocks
of iterations, one row block per realization; one chunk may hold
several narrow cells (``run_ensembles``). Aggregation streams: each block's
running means and scatter are updated realization by realization in index
order, so the bits never depend on chunk or block size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .agent import AlgorithmParams, run_lockstep
from .channels import Channel, _instances, _seed, _store

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Realizations per lockstep chunk, whatever its column count: its draw buffers and
# trajectory block take 4 MiB at 4 columns and 5 MiB at 6, and a cell of up to 1024
# realizations runs as one chunk. The moments of the cells that share a chunk stay
# within _CHUNK_BYTES. Neither size ever changes the output.
_CHUNK_REALIZATIONS = 1024
_CHUNK_BYTES = 4 << 20


def mix_seed(master_seed: int, index: int) -> int:
    """Derive the seed of realization ``index`` from ``master_seed``, bit-exactly.

    Both are integers in [0, 2**64), not bools, as is ``run_realization``'s
    seed. This is the splitmix64 output function applied to the state
    ``master_seed + (index + 1) * 0x9E3779B97F4A7C15`` (all arithmetic mod 2**64):

        z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
        z ^= z >> 27;  z *= 0x94D049BB133111EB
        z ^= z >> 31
    """
    z = (_seed("master_seed", master_seed) + (_seed("realization index", index) + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class EnsembleConfig:
    """One ensemble cell: channel, learning parameters, size and a seed in [0, 2**64)."""

    channel: Channel
    params: AlgorithmParams = field(default_factory=AlgorithmParams)
    n_realizations: int = 1000
    master_seed: int = 0
    dual_basis: bool = False

    def __post_init__(self):
        _instances(channel=(self.channel, Channel), params=(self.params, AlgorithmParams))
        if not isinstance(self.dual_basis, (bool, np.bool_)):
            raise ValueError(f"dual_basis must be a bool, got {self.dual_basis!r}")
        object.__setattr__(self, "dual_basis", bool(self.dual_basis))
        _store(self, "n_realizations", int, ">= 1", lambda v: v >= 1)
        object.__setattr__(self, "master_seed", _seed("master_seed", self.master_seed))


@dataclass
class EnsembleStats:
    """Per-iteration ensemble means and their standard errors.

    All arrays share the run's iteration count and are indexed by
    iteration k-1. ``w`` is the mean exploration parameter; ``f_e``,
    ``f_g`` and ``f_max`` the mean fidelities of the state prepared from
    basis bit 0. The ``*_b1`` arrays, present only for dual-basis runs,
    hold the fidelities of the state prepared from the flipped bit 1.
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
    Each scatter term multiplies two factors of one sign (rounding never
    carries the new mean past the value), so the scatter is never negative.
    """

    def __init__(self, columns: int, length: int):
        self.mean = np.zeros((columns, length))
        self._m2 = np.zeros((columns, length))

    def add_block(self, first: int, k0: int, block: np.ndarray) -> None:
        """Add realizations first, first + 1, ... from (n, columns, b) iterations k0:k0+b."""
        at = slice(k0, k0 + block.shape[2])
        # Contiguous working copies and buffers: no temporaries per realization.
        mean, m2 = self.mean[:, at].copy(), self._m2[:, at].copy()
        delta, scratch = np.empty_like(mean), np.empty_like(mean)
        for count, values in enumerate(block, start=first + 1):
            np.subtract(values, mean, out=delta)  # delta = values - mean
            mean += np.divide(delta, count, out=scratch)
            m2 += np.multiply(delta, np.subtract(values, mean, out=scratch), out=scratch)
        self.mean[:, at], self._m2[:, at] = mean, m2

    def stats(self, count: int) -> EnsembleStats:
        errors = np.zeros_like(self.mean)
        if count >= 2:
            errors = np.sqrt(self._m2 / (count - 1) / count)
        # EnsembleStats field order: means, then errors, of w, f_e, f_g, f_max; then the *_b1 pair.
        return EnsembleStats(count, *self.mean[:4], *errors[:4], *self.mean[4:], *errors[4:])


def run_ensembles(cfgs: list[EnsembleConfig]) -> Iterator[EnsembleStats]:
    """Run cells in order, yielding each one's stats as soon as its last chunk is folded.

    A cell joins the open chunk whole if it shares the chunk's params, the
    chunk stays within ``_CHUNK_REALIZATIONS``, whatever its column count, and
    the moments of all its cells fit in ``_CHUNK_BYTES``, so narrow cells pay
    each step's fixed cost once per chunk. A chunk with any dual-basis cell
    runs dual-basis and each cell folds only its own columns: a flipped-bit
    readout never touches the others. Any other cell starts a new chunk and is
    split as it would be alone. Each cell's stats depend only on its
    configuration, never on the chunks: they equal ``run_ensemble``.
    """

    def run(chunk):  # segments (cfg, moments, first realization, seeds)
        cells = [(cfg.channel, seeds) for cfg, *_, seeds in chunk]
        bounds = np.cumsum([len(seeds) for *_, seeds in chunk])[:-1]
        dual = any(cfg.dual_basis for cfg, *_ in chunk)
        for k0, block, *_ in run_lockstep(cells, chunk[0][0].params, dual_basis=dual):
            # each segment's rows and columns into its moments, in index order
            for (_, moments, first, _), rows in zip(chunk, np.split(block, bounds)):
                moments.add_block(first, k0, rows[:, : len(moments.mean)])
        return [moments.stats(cfg.n_realizations)
                for cfg, moments, first, seeds in chunk if first + len(seeds) == cfg.n_realizations]

    chunk, lanes, held = [], 0, 0  # segments; their realizations and moment bytes
    for cfg in cfgs:
        moments = _RunningMoments(6 if cfg.dual_basis else 4, cfg.params.iterations)
        cell_bytes = moments.mean.nbytes * 2  # its mean and scatter
        for first in range(0, cfg.n_realizations, _CHUNK_REALIZATIONS):
            last = min(first + _CHUNK_REALIZATIONS, cfg.n_realizations)
            seeds = [mix_seed(cfg.master_seed, i) for i in range(first, last)]
            if chunk and (cfg.params != chunk[0][0].params or held + cell_bytes > _CHUNK_BYTES
                          or lanes + len(seeds) > _CHUNK_REALIZATIONS):
                yield from run(chunk)
                chunk, lanes, held = [], 0, 0
            chunk.append((cfg, moments, first, seeds))
            lanes, held = lanes + len(seeds), held + cell_bytes
    yield from run(chunk) if chunk else ()


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run all realizations of a cell and aggregate their statistics: ``run_ensembles`` of one."""
    return next(run_ensembles([cfg]))
