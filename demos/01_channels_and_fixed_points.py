"""Evolution channels and their stationary states.

Builds the three channel kinds over the fixed Hamiltonian's eigenbasis and
shows the structure the learning protocol exploits: under phase damping
both eigenprojectors are fixed points, under amplitude damping only the
ground state survives, and at the degenerate evolution time 2*pi the
noiseless propagator cannot distinguish states at all.
"""

import math

import numpy as np

from qrl import (
    Channel,
    apply_channel,
    density_from_pure,
    hamiltonian_unitary,
    kraus_pair,
    measurement_prob_zero,
)
from qrl.channels import EXCITED, GROUND

excited = density_from_pure(EXCITED)
ground = density_from_pure(GROUND)

print("energy eigenbasis of H = (sqrt(3) X - Z) / 4 (computational components)")
print("  excited:", np.round(EXCITED, 6))
print("  ground: ", np.round(GROUND, 6))

print("\nKraus pair completeness, adn at tau=1, t_dec=2:")
channel = Channel(kind="adn", tau=1.0, t_dec=2.0)
first, second = kraus_pair(channel)
total = first.conj().T @ first + second.conj().T @ second
print("  max |E0+E0 + E1+E1 - I| =", np.max(np.abs(total - np.eye(2))))

print("\neigenprojector drift after one step (tau=1, t_dec=1):")
print("(zero drift = fixed point; adn visibly expels the excited state)")
for kind in ("pdn", "adn"):
    channel = Channel(kind=kind, tau=1.0, t_dec=1.0)
    drift_e = np.max(np.abs(apply_channel(channel, excited) - excited))
    drift_g = np.max(np.abs(apply_channel(channel, ground) - ground))
    print(f"  {kind}: |drift excited| = {drift_e:.2e}   |drift ground| = {drift_g:.2e}")

print("\nexcited population decay under adn (tau/t_dec = 0.5 per step):")
channel = Channel(kind="adn", tau=0.5, t_dec=1.0)
state = excited.copy()
for step_index in range(5):
    population = np.vdot(EXCITED, state @ EXCITED).real
    print(f"  after {step_index} steps: {population:.6f}"
          f"  (analytic {math.exp(-step_index):.6f})")
    state = apply_channel(channel, state)

print("\ndegenerate evolution time: U(2*pi) is minus the identity,")
print("so without noise every pure state looks stationary:")
rng = np.random.default_rng(1)
psi = rng.normal(size=2) + 1j * rng.normal(size=2)
psi /= np.linalg.norm(psi)
rho = density_from_pure(psi)
for kind, t_dec in (("noiseless", math.inf), ("pdn", 1.0)):
    channel = Channel(kind=kind, tau=2 * math.pi, t_dec=t_dec)
    print(f"  P(0) for a random pure state, {kind:9s}: "
          f"{measurement_prob_zero(channel, rho):.6f}")
print("  (phase damping keeps P(0) < 1 for non-stationary states, which")
print("   is exactly what lets the agent keep learning at tau = 2*pi)")

propagator = hamiltonian_unitary(2 * math.pi)
print("\n  max |U(2*pi) + I| =", np.max(np.abs(propagator + np.eye(2))))
