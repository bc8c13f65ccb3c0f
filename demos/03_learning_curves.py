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
T_DECS = (1.0, 10.0, 100.0, math.inf)

for kind in ("pdn", "adn"):
    series = []
    for seed_offset, t_dec in enumerate(T_DECS):
        effective_kind = "noiseless" if math.isinf(t_dec) else kind
        cfg = EnsembleConfig(
            channel=Channel(kind=effective_kind, tau=1.0, t_dec=t_dec),
            params=AlgorithmParams(iterations=K),
            n_realizations=N,
            master_seed=300 + seed_offset,
        )
        stats = run_ensemble(cfg)
        label = "t_dec=inf (no noise)" if math.isinf(t_dec) else f"t_dec={t_dec:g}"
        emit_csv(stats, OUT / f"curves_{kind}_{t_dec:g}.csv")
        series.append((label, list(range(1, K + 1)), stats.f_max))
        print(f"{kind} {label:20s} F_max at k={K}: {stats.f_max[-1]:.4f} "
              f"+- {stats.se_f_max[-1]:.4f}")
    chart = OUT / f"curves_{kind}.svg"
    emit_svg(series, chart, y_label="F_max")
    print(f"wrote {chart}\n")

print("at tau = 1 the curves barely depend on the decoherence time;")
print("the interesting regime is tau = 2*pi (see demo 04)")
