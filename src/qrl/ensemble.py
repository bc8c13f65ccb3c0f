"""Monte Carlo harness over independent realizations.

Realization ``i`` of an ensemble runs with its own derived seed
``mix_seed(master_seed, i)`` so any single realization can be reproduced
in isolation. Aggregation is streaming: per-iteration running means and
scatter are updated realization by realization, always in realization
index order, so the result is bit-identical no matter how many worker
processes produced the raw trajectories. The worker count is taken from
the ``QRL_THREADS`` environment variable (0 or unset means one worker
per CPU).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .agent import AlgorithmParams, run_realization
from .channels import Channel

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


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
    """Streaming per-iteration mean and scatter (Welford update).

    The incremental mean is exact when every added vector is identical,
    which keeps analytically constant ensembles (e.g. the degenerate
    evolution time) bit-exact in the aggregate output.
    """

    def __init__(self, length: int):
        self.count = 0
        self.mean = np.zeros(length)
        self._m2 = np.zeros(length)

    def add(self, values: np.ndarray) -> None:
        self.count += 1
        delta = values - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (values - self.mean)

    def standard_error(self) -> np.ndarray:
        if self.count < 2:
            return np.zeros_like(self.mean)
        variance = np.maximum(self._m2, 0.0) / (self.count - 1)
        return np.sqrt(variance / self.count)


def _realization_arrays(cfg: EnsembleConfig, index: int) -> tuple[np.ndarray, ...]:
    """Raw per-iteration trajectories of realization ``index``."""
    records = run_realization(
        cfg.channel, cfg.params, mix_seed(cfg.master_seed, index), dual_basis=cfg.dual_basis
    )
    n = len(records)
    w = np.fromiter((r.w for r in records), dtype=float, count=n)
    f_e = np.fromiter((r.f_e for r in records), dtype=float, count=n)
    f_g = np.fromiter((r.f_g for r in records), dtype=float, count=n)
    if not cfg.dual_basis:
        return w, f_e, f_g
    f_e_b1 = np.fromiter((r.f_e_b1 for r in records), dtype=float, count=n)
    f_g_b1 = np.fromiter((r.f_g_b1 for r in records), dtype=float, count=n)
    return w, f_e, f_g, f_e_b1, f_g_b1


def worker_count(n_tasks: int) -> int:
    """Worker processes to use, honoring the QRL_THREADS environment variable."""
    raw = os.environ.get("QRL_THREADS", "0").strip() or "0"
    try:
        requested = int(raw)
    except ValueError:
        raise ValueError(f"QRL_THREADS must be an integer, got {raw!r}") from None
    if requested < 0:
        raise ValueError(f"QRL_THREADS must be >= 0, got {requested}")
    if requested == 0:
        requested = os.cpu_count() or 1
    return max(1, min(requested, n_tasks))


def run_ensemble(cfg: EnsembleConfig) -> EnsembleStats:
    """Run all realizations of a cell and aggregate their statistics.

    The output depends only on the configuration (including
    ``master_seed``), never on the worker count or completion order.
    """
    n = cfg.n_realizations
    length = cfg.params.iterations
    n_columns = 5 if cfg.dual_basis else 3
    moments = [_RunningMoments(length) for _ in range(n_columns + 1)]  # + f_max

    workers = worker_count(n)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, n // (workers * 8))
            results = pool.map(partial(_realization_arrays, cfg), range(n), chunksize=chunksize)
            _reduce(moments, results)
    else:
        _reduce(moments, (_realization_arrays(cfg, i) for i in range(n)))

    stats = EnsembleStats(
        n_realizations=n,
        w=moments[0].mean,
        f_e=moments[1].mean,
        f_g=moments[2].mean,
        f_max=moments[3].mean,
        se_w=moments[0].standard_error(),
        se_f_e=moments[1].standard_error(),
        se_f_g=moments[2].standard_error(),
        se_f_max=moments[3].standard_error(),
    )
    if cfg.dual_basis:
        stats.f_e_b1 = moments[4].mean
        stats.f_g_b1 = moments[5].mean
        stats.se_f_e_b1 = moments[4].standard_error()
        stats.se_f_g_b1 = moments[5].standard_error()
    return stats


def _reduce(moments: list[_RunningMoments], results) -> None:
    """Fold raw trajectories into the running moments, in arrival order.

    ``results`` must yield realizations in index order (both the serial
    generator and ``ProcessPoolExecutor.map`` guarantee that).
    """
    for arrays in results:
        w, f_e, f_g = arrays[0], arrays[1], arrays[2]
        moments[0].add(w)
        moments[1].add(f_e)
        moments[2].add(f_g)
        moments[3].add(np.maximum(f_e, f_g))
        for extra, values in zip(moments[4:], arrays[3:]):
            extra.add(values)
