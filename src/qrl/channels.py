"""Qubit evolution channels and the closed-form P(0) the learning loop measures.

A :class:`Channel` bundles the evolution kind, the dimensionless evolution
time ``tau`` and the dimensionless decoherence time ``t_dec``. The
two-level Hamiltonian is fixed, H = (sqrt(3) X - Z) / 4 = (|e><e| - |g><g|) / 2,
with eigenstates ``EXCITED`` |e> = (|0> + sqrt(3)|1>)/2 and ``GROUND``
|g> = (-sqrt(3)|0> + |1>)/2, in units where hbar and the level splitting
are 1, so that every time is dimensionless.

The channel map is

    rho -> U(tau) [E0 rho E0^dag + E1 rho E1^dag] U(tau)^dag

with U(tau) the Hamiltonian propagator and {E0, E1} the Kraus pair of the
noise kind. In the energy eigenbasis it acts componentwise:

    phase damping:      diagonal preserved,
                        off-diagonal gains exp(-tau/t_dec) * exp(-+i*tau)
    amplitude damping:  excited population decays by exp(-2*tau/t_dec),
                        same off-diagonal factor
    noiseless:          the t_dec = inf limit of either

The loop needs only P(0) = Tr[rho * channel(rho)] of a pure state, which
depends only on its energy populations: :meth:`Channel.prob_zero_terms`
and :func:`pure_prob_zero` evaluate that closed form. The Kraus and
density-matrix forms it is checked against live in the tests' oracle.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

NOISE_KINDS = ("noiseless", "pdn", "adn")


def _number(name: str, value, kind: type, rule: str, within) -> int | float:
    """``kind(value)`` if ``value`` is an integer (a real for ``kind`` float), not a bool, and ``within`` holds."""
    of_kind = not isinstance(value, bool) and isinstance(value, numbers.Integral if kind is int else numbers.Real)
    try:
        if of_kind and within(number := kind(value)):
            return number  # a Python number, also for a numpy scalar
    except OverflowError:  # an int too large for a float fails the rule
        pass
    raise ValueError(f"{name} must be {'an integer' if kind is int else 'a real number'} {rule}, got {value!r}")


def _store(owner, name: str, kind: type, rule: str, within) -> None:
    """Store field ``name`` of the frozen ``owner`` as the ``_number`` of its value."""
    object.__setattr__(owner, name, _number(name, getattr(owner, name), kind, rule, within))


def _seed(name: str, value) -> int:
    """``value`` under the seed rule: ``_number`` of an integer in [0, 2**64)."""
    return _number(name, value, int, "in [0, 2**64)", lambda v: 0 <= v < 2**64)


def _instances(**fields: tuple) -> None:
    """ValueError naming the first of ``fields``, each a (value, type) pair, whose value is not of its type."""
    for name, (value, kind) in fields.items():
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")


# The read-only energy eigenstates.
_HALF_ROOT3 = math.sqrt(3.0) / 2.0
EXCITED = np.array([0.5, _HALF_ROOT3], dtype=complex)
GROUND = np.array([-_HALF_ROOT3, 0.5], dtype=complex)
EXCITED.setflags(write=False)
GROUND.setflags(write=False)


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
        _store(self, "tau", float, "in (0, inf)", lambda v: 0.0 < v < math.inf)
        _store(self, "t_dec", float, "in (0, inf]", lambda v: v > 0.0)
        if self.kind == "noiseless":
            object.__setattr__(self, "t_dec", math.inf)

    def decay_factor(self) -> float:
        """Coherence survival exp(-tau/t_dec) over one evolution step."""
        return math.exp(-self.tau / self.t_dec)

    def prob_zero_terms(self) -> tuple[float, float, bool]:
        """Coefficients (pe'/pe, 2*s*cos(tau), is adn) of :func:`pure_prob_zero`; s: decay factor."""
        survive, adn = self.decay_factor(), self.kind == "adn"
        return (survive * survive if adn else 1.0), 2.0 * survive * math.cos(self.tau), adn


def pure_prob_zero(terms, excited_pop, ground_pop):
    """P(0) = Tr[rho * channel(rho)] of pure states rho from their energy populations pe, pg.

    As |rho_eg|^2 = pe*pg, P(0) = pe*pe' + pg*pg' + 2*s*cos(tau)*pe*pg
    with evolved populations pe', pg' and decay factor s, clamped into [0, 1].
    ``terms`` are :meth:`Channel.prob_zero_terms`, or arrays of them, one per population.
    """
    survival, coherence, adn = terms
    excited_out = excited_pop * survival
    ground_out = np.where(adn, 1.0 - excited_out, ground_pop)
    raw = excited_pop * excited_out + ground_pop * ground_out + coherence * excited_pop * ground_pop
    return np.minimum(np.maximum(raw, 0.0), 1.0)
