"""Check that each listed mutant of the program fails the tests expected to catch it.

Each entry of ``MUTANTS`` gives a file, an anchor text that must occur in it
exactly once, the anchor's replacement and the tests expected to kill the
mutant. The script copies the checkout into a temporary directory, applies
one mutant at a time, runs ``pytest -x`` over that mutant's tests and prints
killed/total. An entry marked ``equivalent`` cannot change the output, for
the reason it gives; only its anchor is checked. The gate fails when a mutant
survives or an anchor does not match exactly once, so a refactor carries its
mutants along. Run from anywhere (about a minute):

    python tools/mutants.py    # exit 1 unless every mutant is killed or marked equivalent

The self-test runs with ``python -m pytest tools/``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "figs", "pyproject.toml")  # what the tests read
TIMEOUT_S = 600  # a mutant whose tests hang counts as killed


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the checkout
    anchor: str
    replacement: str
    tests: tuple[str, ...] = ()
    equivalent: str | None = None  # why the mutant cannot change the output


LOCKSTEP = "tests/test_agent.py::TestRunLockstep"
GOLDEN = "tests/test_golden.py"
PLOT = "tests/test_cli.py::TestPlotCommand"

MUTANTS = (
    Mutant("readout modulus by np.abs", "src/qrl/agent.py",
           "return np.hypot(amplitude.real, amplitude.imag).T", "return np.abs(amplitude).T",
           ("tests/test_agent.py::TestReadout",)),
    Mutant("flipped-bit readouts read bit 0", "src/qrl/agent.py",
           "np.array([0, 0, 1, 1])", "np.array([0, 0, 0, 0])",
           (LOCKSTEP, f"{LOCKSTEP}::test_flipped_bit_readouts_mirror_bit_zero")),
    Mutant("coherence factor 2 dropped", "src/qrl/channels.py",
           "2.0 * survive * math.cos(self.tau)", "survive * math.cos(self.tau)",
           ("tests/test_channels.py::TestPureProbZero",)),
    Mutant("adn survival not squared", "src/qrl/channels.py",
           "(survive * survive if adn else 1.0)", "(survive if adn else 1.0)", (LOCKSTEP,)),
    Mutant("adn ground population kept", "src/qrl/channels.py",
           "np.where(adn, 1.0 - excited_out, ground_pop)", "np.where(adn, ground_pop, ground_pop)", (LOCKSTEP,)),
    Mutant("kick at full angle", "src/qrl/agent.py",
           "half = 0.5 * angles[..., None, None]", "half = angles[..., None, None]",
           ("tests/test_acceptance.py::test_criterion_11_first_kick_matches_quadrature",)),
    Mutant("kick product reassociated", "src/qrl/agent.py", "return ry @ rz @ rx", "return ry @ (rz @ rx)",
           (GOLDEN,)),
    Mutant("kick Paulis scaled by 1j first", "src/qrl/agent.py",
           "- 1j * np.sin(half) * _XYZ", "- np.sin(half) * (1j * _XYZ)", ("tests/test_agent.py::TestOnePassKick",)),
    Mutant("a draw equal to P(0) punishes", "src/qrl/agent.py",
           "np.greater(flat[cursor], p_zero", "np.greater_equal(flat[cursor], p_zero",
           (f"{LOCKSTEP}::test_a_draw_equal_to_p_zero_is_a_reward",)),
    Mutant("P(0) recorded after the kick", "src/qrl/agent.py",
           "refresh(kicked, kicked_transform)\n",
           "refresh(kicked, kicked_transform)\n                met[k] = p_zero\n",
           (f"{LOCKSTEP}::test_public_records_match_oracle",)),
    Mutant("kept draw tail dropped", "src/qrl/agent.py",
           "row[: row.size - consumed] = row[consumed:]\n            rng.random(out=row[row.size - consumed :])",
           "rng.random(out=row)", (LOCKSTEP,)),
    Mutant("draw buffer 2 short", "src/qrl/agent.py",
           "draws = np.empty((n, 4 * BLOCK))", "draws = np.empty((n, 4 * BLOCK - 2))", (LOCKSTEP,)),
    Mutant("post-update w in the punishment cap", "src/qrl/agent.py",
           "np.minimum(params.punish_rate * w_kicked, 1.0)", "np.minimum(params.punish_rate * w[kicked], 1.0)",
           (LOCKSTEP,)),
    Mutant("fold by multiplying with 1 / count", "src/qrl/ensemble.py",
           "np.divide(delta, count, out=scratch)", "np.multiply(delta, 1 / count, out=scratch)", (GOLDEN,)),
    Mutant("fold order reversed", "src/qrl/ensemble.py",
           "enumerate(block, start=first + 1)", "enumerate(block[::-1], start=first + 1)", (GOLDEN,)),
    Mutant("chunk budget doubled", "src/qrl/ensemble.py", "_CHUNK_BYTES = 4 << 20", "_CHUNK_BYTES = 8 << 20",
           equivalent="it trades peak memory for fewer engine passes; a cell's bytes never depend on its chunks"),
    Mutant("moments counted per realization", "src/qrl/ensemble.py",
           "held + cell_bytes\n", "held + len(seeds) * cell_bytes\n", ("tests/test_ensemble.py::TestRunEnsembles",)),
    Mutant("chunk realization bound dropped", "src/qrl/ensemble.py",
           "or lanes + len(seeds) > _CHUNK_REALIZATIONS)", "or False)", (GOLDEN,)),
    Mutant("a chunk that fits exactly is closed", "src/qrl/ensemble.py",
           "held + cell_bytes > _CHUNK_BYTES", "held + cell_bytes >= _CHUNK_BYTES",
           equivalent="it moves a chunk boundary only at exact equality, and chunks never change a cell's bytes"),
    Mutant("seed range check dropped", "src/qrl/channels.py", "lambda v: 0 <= v < 2**64", "lambda v: True",
           ("tests/test_ensemble.py::TestMixSeed::test_rejects_a_master_seed_outside_64_bits",)),
    Mutant("seed rule takes a bool", "src/qrl/channels.py",
           "not isinstance(value, bool) and", "not (isinstance(value, bool) and kind is float) and",
           ("tests/test_ensemble.py::TestMixSeed::test_takes_numpy_integers_and_refuses_a_bool",)),
    Mutant("mix_seed's index rule dropped", "src/qrl/ensemble.py", '_seed("realization index", index)', "int(index)",
           ("tests/test_ensemble.py::TestMixSeed::test_rejects_an_index_outside_64_bits_or_a_bool",)),
    Mutant("run_realization's seed unchecked", "src/qrl/agent.py", '[_seed("seed", seed)]', "[seed]",
           ("tests/test_agent.py::TestRunRealization::test_refuses_a_seed_mix_seed_cannot_return",)),
    Mutant("run_realization's type check dropped", "src/qrl/agent.py",
           "    _instances(channel=(channel, Channel), params=(params, AlgorithmParams))\n", "",
           ("tests/test_agent.py::TestRunRealization::test_refuses_a_seed_mix_seed_cannot_return",)),
    Mutant("reward range closed at 1", "src/qrl/agent.py", "0.0 < v < 1.0", "0.0 < v <= 1.0",
           ("tests/test_agent.py::TestAlgorithmParams::test_rejects_bad_reward",)),
    Mutant("t_dec admits zero", "src/qrl/channels.py", "v > 0.0", "v >= 0.0",
           ("tests/test_channels.py::TestChannelValidation::test_rejects_bad_t_dec",)),
    Mutant("a float overflow escapes the rule", "src/qrl/channels.py",
           "except OverflowError:", "except ZeroDivisionError:",
           ("tests/test_channels.py::TestChannelValidation::test_rejects_bad_tau",)),
    Mutant("standard errors need three realizations", "src/qrl/ensemble.py", "if count >= 2:", "if count > 2:",
           ("tests/test_ensemble.py::TestRunEnsemble::test_two_realizations_have_standard_errors",)),
    Mutant("clash check without following links", "src/qrl/cli.py",
           "writer.setdefault(os.path.realpath(base / out), j)",
           "writer.setdefault(os.path.abspath(base / out), j)",
           ("tests/test_cli.py",)),
    Mutant("plot's clash check without following links", "src/qrl/cli.py",
           "os.path.realpath(ns.out) in {os.path.realpath(path)",
           "os.path.abspath(ns.out) in {os.path.abspath(path)",
           (f"{PLOT}::test_out_linking_to_an_input_exits_2",)),
    Mutant("plot's destination check dropped", "src/qrl/cli.py",
           "    check_destination(ns.out)\n    for path in ns.csv:", "    for path in ns.csv:",
           ("tests/test_cli.py",)),
    Mutant("gc.freeze() dropped from the entry", "src/qrl/cli.py",
           "    gc.freeze()\n    return main()", "    return main()", ("tests/test_cli.py",)),
    Mutant("a bool taken as a number", "src/qrl/channels.py", "not isinstance(value, bool) and", "",
           ("tests/test_agent.py::TestAlgorithmParams::test_rejects_a_non_number_when_built",
            "tests/test_channels.py::TestChannelValidation::test_rejects_a_non_number_when_built",
            "tests/test_ensemble.py::TestConfig::test_rejects_a_non_integer_count_when_built")),
    Mutant("channel kind kept as given", "src/qrl/channels.py",
           '        object.__setattr__(self, "kind", str(self.kind))\n', "",
           ("tests/test_ensemble.py::TestConfig::test_numpy_scalars_are_stored_as_python_values",)),
    Mutant("channel default tau changed", "src/qrl/channels.py", "tau: float = 1.0", "tau: float = 2.0",
           ("tests/test_channels.py::TestChannelValidation::test_defaults_are_a_noiseless_unit_step",)),
    Mutant("a comment line ends a sweep block", "src/qrl/cli.py",
           "if current and not raw.strip():", "if current:", ("tests/test_cli.py::TestSweepText",)),
    Mutant("sweep's clash check dropped", "src/qrl/cli.py", ") != j:", ") != j and False:",
           ("tests/test_cli.py::TestSweepCommand",)),
    Mutant("sweep lines split at every line boundary", "src/qrl/cli.py", 'text.split("\\n")', "text.splitlines()",
           ("tests/test_cli.py::TestSweepText",)),
    Mutant("byte-order mark kept by read_text", "src/qrl/output.py",
           'encoding="utf-8-sig") as', 'encoding="utf-8") as',
           (f"{PLOT}::test_config_and_csv_with_a_byte_order_mark",)),
    Mutant("decode error without the path", "src/qrl/output.py",
           'raise ValueError(f"{path}: {exc}") from None', "raise",
           (f"{PLOT}::test_undecodable_csv_names_its_file",
            "tests/test_cli.py::TestSweepCommand::test_undecodable_config_names_its_file")),
    Mutant("empty-series check dropped", "src/qrl/output.py", "if len(x) == 0:", "if False:",
           (f"{PLOT}::test_header_only_csv_exits_1_naming_the_series",)),
    Mutant("chart's drawable-span check dropped", "src/qrl/output.py", "if not 0 < span < np.inf:", "if False:",
           ("tests/test_output.py::TestEmitSvg::test_refuses_a_range_it_cannot_draw",)),
    Mutant("one tick fewer per axis", "src/qrl/output.py", "for i in range(_TICKS + 1):", "for i in range(_TICKS):",
           ("tests/test_output.py::TestEmitSvg::test_chart_bytes_are_pinned",)),
    Mutant("csv.Error left uncaught by read_csv", "src/qrl/output.py",
           "    except csv.Error as exc:", "    except ZeroDivisionError as exc:",
           (f"{PLOT}::test_unreadable_field_names_path_and_line",)),
)


def mutate(mutant: Mutant, root: Path) -> str:
    """The text of ``mutant.path`` under ``root`` with its anchor replaced; ValueError unless it matches once."""
    text = (root / mutant.path).read_text()
    if (found := text.count(mutant.anchor)) != 1:
        raise ValueError(f"anchor matches {found} times in {mutant.path}")
    return text.replace(mutant.anchor, mutant.replacement)


def passes(tests, copy: Path) -> bool:
    """Whether ``pytest -x`` over ``tests`` passes in ``copy``; a run that hangs does not."""
    # No bytecode is written, so no cached module outlives the mutant that compiled it.
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        result = subprocess.run(command, cwd=copy, env=env, capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False
    return result.returncode == 0


def killed(mutant: Mutant, copy: Path) -> bool:
    """Whether the mutant's tests fail in ``copy`` with the mutant applied; the file is restored after."""
    target = copy / mutant.path
    original = target.read_text()
    target.write_text(mutate(mutant, copy))
    try:
        return not passes(mutant.tests, copy)
    finally:
        target.write_text(original)


def gate(mutants=MUTANTS, root: Path = ROOT) -> int:
    """Print one line per mutant and the killed/total count; 1 if any survives or has a stale anchor."""
    live, equivalent, stale = [], 0, 0
    for mutant in mutants:
        try:
            mutate(mutant, root)
        except ValueError as exc:
            print(f"stale      {mutant.name}: {exc}")
            stale += 1
            continue
        if mutant.equivalent:
            print(f"equivalent {mutant.name}: {mutant.equivalent}")
            equivalent += 1
        else:
            live.append(mutant)
    kills = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            if (root / name).is_dir():
                shutil.copytree(root / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(root / name, copy / name)
        # A kill counts only if the same tests pass without the mutant.
        if live and not passes(sorted({test for mutant in live for test in mutant.tests}), copy):
            print("the mutants' tests fail on the unmutated checkout")
            return 1
        for mutant in live:
            start = time.perf_counter()
            hit = killed(mutant, copy)
            kills += hit
            print(f"{'killed    ' if hit else 'SURVIVED  '} {mutant.name} ({time.perf_counter() - start:.1f} s)")
    print(f"{kills} of {len(live)} mutants killed, {equivalent} marked equivalent, {stale} stale")
    return 0 if kills == len(live) and not stale else 1


if __name__ == "__main__":
    sys.exit(gate())
