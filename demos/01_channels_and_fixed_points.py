"""Evolution channels and their stationary states.

Evaluates the closed-form outcome-0 probability P(0) that the learning
loop measures, from a pure state's energy populations pe, pg, and shows
the structure the protocol exploits: under phase damping both eigenstates
are fixed points (P(0) = 1), under amplitude damping only the ground state
is, and at the degenerate evolution time 2*pi the noiseless channel cannot
distinguish states at all.
"""

import math

import numpy as np

from qrl import Channel
from qrl.channels import EXCITED, GROUND, pure_prob_zero


def populations(psi):
    """Energy populations (pe, pg) of a pure state."""
    return abs(np.vdot(EXCITED, psi)) ** 2, abs(np.vdot(GROUND, psi)) ** 2


print("energy eigenbasis of H = (sqrt(3) X - Z) / 4 (computational components)")
print("  excited:", np.round(EXCITED, 6))
print("  ground: ", np.round(GROUND, 6))

print("\nP(0) of each eigenstate after one step (tau=1, t_dec=1):")
print("(P(0) = 1 marks a fixed point; adn leaves |e> with s^2 = exp(-2 tau/t_dec))")
for kind in ("noiseless", "pdn", "adn"):
    terms = Channel(kind=kind, tau=1.0, t_dec=1.0).prob_zero_terms()
    p_excited = pure_prob_zero(terms, *populations(EXCITED))
    p_ground = pure_prob_zero(terms, *populations(GROUND))
    print(f"  {kind:9s}: P(0) excited = {p_excited:.6f}   P(0) ground = {p_ground:.6f}")
print(f"  s^2 = {math.exp(-2.0):.6f}")

print("\nexcited population decay under adn, pe' = s^2 pe (tau/t_dec = 0.5 per step):")
survival = Channel(kind="adn", tau=0.5, t_dec=1.0).prob_zero_terms()[0]
population = 1.0
for step_index in range(5):
    print(f"  after {step_index} steps: {population:.6f}"
          f"  (analytic {math.exp(-step_index):.6f})")
    population *= survival

print("\ndegenerate evolution time: at tau = 2*pi the coherence term is 2*s,")
print("so without noise P(0) = (pe + pg)^2 = 1 and every pure state looks stationary:")
rng = np.random.default_rng(1)
psi = rng.normal(size=2) + 1j * rng.normal(size=2)
psi /= np.linalg.norm(psi)
for kind, t_dec in (("noiseless", math.inf), ("pdn", 1.0)):
    terms = Channel(kind=kind, tau=2 * math.pi, t_dec=t_dec).prob_zero_terms()
    print(f"  P(0) for a random pure state, {kind:9s}: "
          f"{pure_prob_zero(terms, *populations(psi)):.6f}")
print("  (phase damping keeps P(0) < 1 for non-stationary states, which")
print("   is exactly what lets the agent keep learning at tau = 2*pi)")
