"""Seedable simulator of a single-qubit quantum reinforcement-learning protocol.

A learning agent iteratively builds a unitary that prepares a stationary
state of an unknown two-level Hamiltonian, guided only by rewards and
punishments from simulated measurements. The environment evolution can be
noiseless, phase damping or amplitude damping; a Monte Carlo harness
aggregates learning curves over many seeded realizations. Importing qrl
before numpy pins OpenBLAS to one thread unless OPENBLAS_NUM_THREADS is set.
"""

import os

# Every BLAS call in qrl is a 2x2 product or a short dot product, so an OpenBLAS thread
# pool never helps, and starting one is about half of numpy's import, which comes next.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
from .agent import AlgorithmParams, IterationRecord, run_realization
from .channels import Channel
from .ensemble import EnsembleConfig, EnsembleStats, mix_seed, run_ensemble
from .output import emit_csv, emit_svg, read_csv

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams",
    "Channel",
    "EnsembleConfig",
    "EnsembleStats",
    "IterationRecord",
    "emit_csv",
    "emit_svg",
    "mix_seed",
    "read_csv",
    "run_ensemble",
    "run_realization",
]
