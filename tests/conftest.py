"""Fixtures shared by the test modules."""

import pytest

from qrl import agent, ensemble


@pytest.fixture
def engine_passes(monkeypatch):
    """Record each engine pass from here on as ([(channel kind, realizations) per cell], dual_basis)."""
    passes, engine = [], agent.run_lockstep

    def recorded(cells, params, *, dual_basis=False):
        passes.append(([(channel.kind, len(seeds)) for channel, seeds in cells], dual_basis))
        return engine(cells, params, dual_basis=dual_basis)

    for module in (agent, ensemble):  # run_realization's pass and run_ensembles' passes
        monkeypatch.setattr(module, "run_lockstep", recorded)
    return passes
