"""Seedable simulator of a single-qubit quantum reinforcement-learning protocol.

A learning agent iteratively builds a unitary that prepares a stationary
state of an unknown two-level Hamiltonian, guided only by rewards and
punishments from simulated measurements. The environment evolution can be
noiseless, phase damping or amplitude damping; a Monte Carlo harness
aggregates learning curves over many seeded realizations.
"""

from .agent import AgentState, AlgorithmParams, IterationRecord, init_agent, run_realization, step
from .channels import (
    Channel,
    EnergyBasis,
    apply_channel,
    default_energy_basis,
    hamiltonian_unitary,
    kraus_pair,
    measurement_prob_zero,
)
from .ensemble import EnsembleConfig, EnsembleStats, mix_seed, run_ensemble
from .linalg import (
    axis_rotation,
    conjugate,
    density_from_pure,
    is_density_matrix,
    is_normalized,
    is_unitary,
    overlap_magnitude,
    pauli,
)
from .output import emit_csv, emit_svg, read_csv

__version__ = "0.1.0"

__all__ = [
    "AgentState",
    "AlgorithmParams",
    "Channel",
    "EnergyBasis",
    "EnsembleConfig",
    "EnsembleStats",
    "IterationRecord",
    "apply_channel",
    "axis_rotation",
    "conjugate",
    "default_energy_basis",
    "density_from_pure",
    "emit_csv",
    "emit_svg",
    "hamiltonian_unitary",
    "init_agent",
    "is_density_matrix",
    "is_normalized",
    "is_unitary",
    "kraus_pair",
    "measurement_prob_zero",
    "mix_seed",
    "overlap_magnitude",
    "pauli",
    "read_csv",
    "run_ensemble",
    "run_realization",
    "step",
]
