"""Qubit evolution channels: unitary, phase-damping and amplitude-damping.

A :class:`Channel` bundles the evolution kind, the dimensionless evolution
time ``tau`` and the dimensionless decoherence time ``t_dec``. The
two-level Hamiltonian is fixed, H = (sqrt(3) X - Z) / 4 = (|e><e| - |g><g|) / 2,
with eigenstates ``EXCITED`` |e> = (|0> + sqrt(3)|1>)/2 and ``GROUND``
|g> = (-sqrt(3)|0> + |1>)/2, in units where hbar and the level splitting
are 1, so that every time is dimensionless.

The channel map is

    rho -> U(tau) [E0 rho E0^dag + E1 rho E1^dag] U(tau)^dag

with U(tau) the Hamiltonian propagator and {E0, E1} the Kraus pair of the
noise kind. :func:`apply_channel` evaluates the equivalent closed form
componentwise in the energy eigenbasis, which is both cheaper and an
independent target for the Kraus-form evaluation used in the tests:

    phase damping:      diagonal preserved,
                        off-diagonal gains exp(-tau/t_dec) * exp(-+i*tau)
    amplitude damping:  excited population decays by exp(-2*tau/t_dec),
                        same off-diagonal factor
    noiseless:          the t_dec = inf limit of either

The states' projectors come from :func:`density_from_pure`; all arrays
are in the computational basis.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("noiseless", "pdn", "adn")

# Entrywise tolerance for invariant checks on directly constructed objects.
ATOL = 1e-12


def _store_numbers(owner, kind: type, *names: str) -> None:
    """Store fields ``names`` of the frozen ``owner`` as ``kind``, int or float, or raise naming one."""
    for name in names:
        value = getattr(owner, name)  # numpy scalars pass and are stored as Python numbers; a bool fails
        if isinstance(value, bool) or not isinstance(value, numbers.Integral if kind is int else numbers.Real):
            what = "an integer" if kind is int else "a real number"
            raise ValueError(f"{name} must be {what}, got {value!r}")
        object.__setattr__(owner, name, kind(value))


def _seed(name: str, value) -> int:
    """``value`` by ``operator.index``; ValueError naming ``name`` if it is a bool or outside [0, 2**64)."""
    if isinstance(value, bool) or not 0 <= operator.index(value) < 2**64:
        raise ValueError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return operator.index(value)


def density_from_pure(psi: np.ndarray) -> np.ndarray:
    """Rank-1 projector |psi><psi| of a normalized pure state (or a stack of them)."""
    psi = np.asarray(psi, dtype=complex)
    return psi[..., :, None] * psi.conj()[..., None, :]


# The read-only energy eigenstates, their projectors and the eigenbasis-to-computational map.
_HALF_ROOT3 = math.sqrt(3.0) / 2.0
EXCITED = np.array([0.5, _HALF_ROOT3], dtype=complex)
GROUND = np.array([-_HALF_ROOT3, 0.5], dtype=complex)
_EXCITED_PROJ = density_from_pure(EXCITED)
_GROUND_PROJ = density_from_pure(GROUND)
_EIG_TO_COMP = np.column_stack([EXCITED, GROUND])
for _m in (EXCITED, GROUND, _EXCITED_PROJ, _GROUND_PROJ, _EIG_TO_COMP):
    _m.setflags(write=False)


@dataclass(frozen=True)
class Channel:
    """Immutable evolution descriptor.

    ``kind`` is one of 'noiseless' (the default), 'pdn' (phase damping) or
    'adn' (amplitude damping), stored as ``str``. ``tau`` is the dimensionless
    evolution time per step (> 0, default 1) and ``t_dec`` the dimensionless
    decoherence time (> 0, default ``math.inf``, always inf when noiseless);
    a damping kind with ``t_dec = inf`` behaves identically to the noiseless one.
    """

    kind: str = "noiseless"
    tau: float = 1.0
    t_dec: float = math.inf

    def __post_init__(self):
        if self.kind not in NOISE_KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}, expected one of {NOISE_KINDS}")
        object.__setattr__(self, "kind", str(self.kind))
        _store_numbers(self, float, "tau", "t_dec")
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if math.isnan(self.t_dec) or self.t_dec <= 0.0:
            raise ValueError(f"t_dec must be positive (inf allowed), got {self.t_dec}")
        if self.kind == "noiseless":
            object.__setattr__(self, "t_dec", math.inf)

    def decay_factor(self) -> float:
        """Coherence survival exp(-tau/t_dec) over one evolution step."""
        return math.exp(-self.tau / self.t_dec)

    def prob_zero_terms(self) -> tuple[float, float, bool]:
        """Coefficients (pe'/pe, 2*s*cos(tau), is adn) of :func:`pure_prob_zero`; s: decay factor."""
        survive, adn = self.decay_factor(), self.kind == "adn"
        return (survive * survive if adn else 1.0), 2.0 * survive * math.cos(self.tau), adn


def hamiltonian_unitary(tau: float) -> np.ndarray:
    """Propagator exp(-i H tau) in the computational basis.

    Evaluates exp(-i*tau/2)|e><e| + exp(+i*tau/2)|g><g| by
    eigen-decomposition; tau may be any finite real, including 0.
    """
    if not math.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    phase = np.exp(-0.5j * tau)
    return phase * _EXCITED_PROJ + phase.conj() * _GROUND_PROJ


def kraus_pair(channel: Channel) -> tuple[np.ndarray, np.ndarray]:
    """Kraus operators (E0, E1) of the channel's noise part.

    For both damping kinds E0 = |g><g| + exp(-tau/t_dec)|e><e|; phase
    damping has E1 = sqrt(1 - exp(-2 tau/t_dec)) |e><e| while amplitude
    damping has E1 = sqrt(1 - exp(-2 tau/t_dec)) |g><e|. A noiseless
    channel returns (I, 0) by convention. The pair always satisfies
    E0^dag E0 + E1^dag E1 = I.
    """
    survive = channel.decay_factor()
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

    Closed-form evaluation in the energy eigenbasis; assumes ``rho`` is a
    valid unit-trace density matrix.
    """
    rho_eig = _EIG_TO_COMP.conj().T @ rho @ _EIG_TO_COMP

    survive = channel.decay_factor()
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


def pure_prob_zero(terms, excited_pop, ground_pop):
    """:func:`measurement_prob_zero` of pure states from their energy populations pe, pg.

    As |rho_eg|^2 = pe*pg, P(0) = pe*pe' + pg*pg' + 2*s*cos(tau)*pe*pg
    with evolved populations pe', pg' and decay factor s, clamped into [0, 1].
    ``terms`` are :meth:`Channel.prob_zero_terms`, or arrays of them, one per population.
    """
    survival, coherence, adn = terms
    excited_out = excited_pop * survival
    ground_out = np.where(adn, 1.0 - excited_out, ground_pop)
    raw = excited_pop * excited_out + ground_pop * ground_out + coherence * excited_pop * ground_pop
    return np.minimum(np.maximum(raw, 0.0), 1.0)
