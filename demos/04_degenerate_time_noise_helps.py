"""Noise as a resource: learning at the degenerate evolution time.

At tau = 2*pi the noiseless propagator is -I, every measurement returns
0, and the agent freezes at its initial fidelity sqrt(3)/2 forever. Add
damping noise and non-stationary states become detectable again: the
mean best fidelity climbs well above the noiseless plateau.
"""

import math
from pathlib import Path

from qrl import AlgorithmParams, Channel, EnsembleConfig, emit_svg, run_ensemble

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

N = 200
K = 400
TAU = 2 * math.pi

runs = [
    ("no noise", Channel(kind="noiseless", tau=TAU)),
    ("pdn, t_dec=1", Channel(kind="pdn", tau=TAU, t_dec=1.0)),
    ("adn, t_dec=1", Channel(kind="adn", tau=TAU, t_dec=1.0)),
]

series = []
for seed_offset, (label, channel) in enumerate(runs):
    cfg = EnsembleConfig(
        channel=channel,
        params=AlgorithmParams(iterations=K),
        n_realizations=N,
        master_seed=400 + seed_offset,
    )
    stats = run_ensemble(cfg)
    series.append((label, list(range(1, K + 1)), stats.f_max))
    print(f"{label:14s} F_max: start {stats.f_max[0]:.4f} -> end {stats.f_max[-1]:.4f}"
          f" +- {stats.se_f_max[-1]:.4f}   W_end = {stats.w[-1]:.2e}")

plateau = math.sqrt(3) / 2
print(f"\nnoiseless plateau is exactly sqrt(3)/2 = {plateau:.6f}: every")
print("measurement rewards, w collapses geometrically, nothing is learned.")
print("both damping kinds break the degeneracy and beat the plateau.")

chart = OUT / "degenerate_time.svg"
emit_svg(series, chart, y_label="F_max")
print(f"wrote {chart}")
