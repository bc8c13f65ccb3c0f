"""Ensemble learning curves across decoherence times.

Runs a reduced-size version of the main experiment grid at tau = 1:
mean best fidelity F_max over 200 realizations for several decoherence
times, for both noise kinds. Writes CSVs and an SVG chart per kind into
demo_out/.
"""

import math
from pathlib import Path

from qrl import AlgorithmParams, Channel, EnsembleConfig, emit_csv, emit_svg, run_ensemble

OUT = Path("demo_out")
OUT.mkdir(exist_ok=True)

N = 200
K = 300
T_DECS = (1.0, 10.0, 100.0)


def curve(kind, t_dec, seed, name, label):
    """Run one cell, write its CSV as curves_<name>.csv and return its chart series."""
    cfg = EnsembleConfig(
        channel=Channel(kind=kind, tau=1.0, t_dec=t_dec),
        params=AlgorithmParams(iterations=K),
        n_realizations=N,
        master_seed=seed,
    )
    stats = run_ensemble(cfg)
    emit_csv(stats, OUT / f"curves_{name}.csv")
    print(f"{name:8s} {label:20s} F_max at k={K}: {stats.f_max[-1]:.4f} "
          f"+- {stats.se_f_max[-1]:.4f}")
    return label, list(range(1, K + 1)), stats.f_max


# The noiseless curve is the same for both noise kinds, so it is run once and drawn in both charts.
noiseless = curve("noiseless", math.inf, 300 + len(T_DECS), "none", "t_dec=inf (no noise)")
for kind in ("pdn", "adn"):
    series = [curve(kind, t_dec, 300 + i, f"{kind}_{t_dec:g}", f"t_dec={t_dec:g}")
              for i, t_dec in enumerate(T_DECS)]
    chart = OUT / f"curves_{kind}.svg"
    emit_svg([*series, noiseless], chart, y_label="F_max")
    print(f"wrote {chart}\n")

print("at tau = 1 the curves barely depend on the decoherence time;")
print("the interesting regime is tau = 2*pi (see demo 04)")
