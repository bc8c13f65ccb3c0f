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

MUTANTS = (
    Mutant("readout modulus by np.abs", "src/qrl/channels.py",
           "return np.hypot(amplitude.real, amplitude.imag)", "return np.abs(amplitude)",
           ("tests/test_linalg.py::TestOverlapMagnitude",)),
    Mutant("coherence factor 2 dropped", "src/qrl/channels.py",
           "2.0 * survive * math.cos(self.tau)", "survive * math.cos(self.tau)",
           ("tests/test_channels.py::TestPureProbZero",)),
    Mutant("kick product reassociated", "src/qrl/agent.py", "return ry @ rz @ rx", "return ry @ (rz @ rx)",
           (GOLDEN,)),
    Mutant("kick Paulis scaled by 1j first", "src/qrl/agent.py",
           "- 1j * np.sin(half) * _XYZ", "- np.sin(half) * (1j * _XYZ)", ("tests/test_agent.py::TestOnePassKick",)),
    Mutant("a draw equal to P(0) punishes", "src/qrl/agent.py",
           "np.greater(flat[cursor], p_zero", "np.greater_equal(flat[cursor], p_zero",
           (f"{LOCKSTEP}::test_a_draw_equal_to_p_zero_is_a_reward",)),
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
           "held + cell_bytes\n", "held + count * cell_bytes\n", ("tests/test_ensemble.py::TestRunEnsembles",)),
    Mutant("clash check without following links", "src/qrl/cli.py",
           "seen.setdefault(os.path.realpath(base / path), j)", "seen.setdefault(os.path.abspath(base / path), j)",
           ("tests/test_cli.py",)),
    Mutant("plot's destination check dropped", "src/qrl/cli.py",
           "    check_destination(ns.out)\n    for path in ns.csv:", "    for path in ns.csv:",
           ("tests/test_cli.py",)),
    Mutant("gc.freeze() dropped from the entry", "src/qrl/cli.py",
           "    gc.freeze()\n    return main()", "    return main()", ("tests/test_cli.py",)),
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
