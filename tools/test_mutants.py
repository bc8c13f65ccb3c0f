"""Self-test of ``mutants.py``: every anchor is live, and a surviving mutant or a stale anchor fails the gate."""

import pytest

import mutants
from mutants import Mutant

READOUT = "tests/test_agent.py::TestReadout::test_energy_basis_components"


def test_every_listed_anchor_matches_once():
    for mutant in mutants.MUTANTS:
        assert mutants.mutate(mutant, mutants.ROOT) != (mutants.ROOT / mutant.path).read_text()
        assert bool(mutant.tests) != bool(mutant.equivalent), mutant.name


def test_a_killed_mutant_passes_the_gate(capsys):
    tie = next(m for m in mutants.MUTANTS if m.name == "a draw equal to P(0) punishes")
    assert mutants.gate([tie]) == 0
    assert capsys.readouterr().out.endswith("1 of 1 mutants killed, 0 marked equivalent, 0 stale\n")


def test_a_surviving_mutant_fails_the_gate(capsys):
    comment = Mutant("a comment reworded", "src/qrl/agent.py", "# hypot is what", "# np.hypot is what",
                     (READOUT,))
    assert mutants.gate([comment]) == 1
    out = capsys.readouterr().out
    assert out.startswith("SURVIVED   a comment reworded")
    assert out.endswith("0 of 1 mutants killed, 0 marked equivalent, 0 stale\n")


@pytest.mark.parametrize("anchor, found", [("no such text", 0), ("np.exp(", 2)])
def test_a_stale_anchor_fails_the_gate(anchor, found, capsys):
    # Only the equivalent entry is left to run, so the gate starts no pytest run.
    stale = Mutant("stale", "src/qrl/channels.py", anchor, "np.abs", (READOUT,))
    equivalent = Mutant("same", "src/qrl/channels.py", "ATOL = 1e-12", "ATOL = 1e-12", equivalent="reason")
    assert mutants.gate([stale, equivalent]) == 1
    assert capsys.readouterr().out == (
        f"stale      stale: anchor matches {found} times in src/qrl/channels.py\n"
        "equivalent same: reason\n"
        "0 of 0 mutants killed, 1 marked equivalent, 1 stale\n"
    )


def test_tests_that_fail_unmutated_fail_the_gate(capsys):
    mutant = Mutant("any", "src/qrl/agent.py", "# hypot is what", "# np.hypot is what",
                    ("tests/test_agent.py::TestNoSuchClass",))
    assert mutants.gate([mutant]) == 1
    assert capsys.readouterr().out == "the mutants' tests fail on the unmutated checkout\n"
