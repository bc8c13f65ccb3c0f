"""Seeded workload generators for the benchmark.

A workload is one ``qrl`` CLI invocation plus the CSV cells it must write.
Everything the program sees -- its flags and, for ``sweep-narrow``, the
sweep config text -- is derived from the benchmark seed here, so the same
seed always gives the same inputs. Why each workload exists is written
down in ``README.md`` next to this file.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

ITERATIONS = 500  # the paper's shape: w -> 0 freezing and the punish mix depend on it
WIDE_REALIZATIONS = 500  # a lockstep draw buffer (~32 B x 500 x 500 = 8 MB) overflows L2
NARROW_REALIZATIONS = 8

# The blocks of figs/fig1.sweep and figs/fig3.sweep as they stood when the
# benchmark was defined: (out name, noise, ttau, tdec, dual_basis). They are
# copied rather than read so that editing the figure recipes cannot change
# the workload.
SWEEP_BLOCKS = (
    ("fig1_pdn_tau1_td1.csv", "pdn", "1", "1", False),
    ("fig1_pdn_tau1_td10.csv", "pdn", "1", "10", False),
    ("fig1_pdn_tau1_td100.csv", "pdn", "1", "100", False),
    ("fig1_pdn_tau2pi_td1.csv", "pdn", "2pi", "1", False),
    ("fig1_pdn_tau2pi_td10.csv", "pdn", "2pi", "10", False),
    ("fig1_pdn_tau2pi_td100.csv", "pdn", "2pi", "100", False),
    ("fig1_adn_tau1_td1.csv", "adn", "1", "1", False),
    ("fig1_adn_tau1_td10.csv", "adn", "1", "10", False),
    ("fig1_adn_tau1_td100.csv", "adn", "1", "100", False),
    ("fig1_adn_tau2pi_td1.csv", "adn", "2pi", "1", False),
    ("fig1_adn_tau2pi_td10.csv", "adn", "2pi", "10", False),
    ("fig1_adn_tau2pi_td100.csv", "adn", "2pi", "100", False),
    ("fig1_none_tau1.csv", "none", "1", None, False),
    ("fig1_none_tau2pi.csv", "none", "2pi", None, False),
    ("fig3_adn_td1.csv", "adn", "1", "1", True),
    ("fig3_adn_td10.csv", "adn", "1", "10", True),
    ("fig3_adn_td100.csv", "adn", "1", "100", True),
    ("fig3_none.csv", "none", "1", None, True),
)

NAMES = ("cell-wide", "cell-dual", "sweep-narrow")


@dataclass(frozen=True)
class Cell:
    """One CSV the invocation must write, and how to check it."""

    name: str
    dual: bool
    realizations: int
    closed_form: bool = False  # noiseless ttau = 2pi: output known exactly


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    cells: tuple[Cell, ...]
    run_flags: tuple[str, ...] = ()  # for a single `qrl run` cell
    sweep_text: str | None = None  # for `qrl sweep`

    @property
    def steps(self) -> int:
        """Realization-steps the workload computes: sum of realizations x iterations."""
        return sum(cell.realizations for cell in self.cells) * ITERATIONS

    def argv(self, out_dir: Path) -> list[str]:
        """CLI arguments (after `qrl`) that write every cell into ``out_dir``.

        A sweep config is written next to ``out_dir``.
        """
        if self.sweep_text is None:
            return ["run", *self.run_flags, "--out", str(out_dir / self.cells[0].name)]
        config = out_dir.with_suffix(".sweep")
        config.write_text(self.sweep_text, encoding="utf-8")
        return ["sweep", "--config", str(config), "--out-dir", str(out_dir)]


def derive_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of cell ``index`` of ``workload``, a pure function of the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{workload}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def sweep_text(seed: int) -> str:
    """The sweep-narrow config: every figure block, few realizations, derived seeds."""
    blocks = []
    for index, (out, noise, ttau, tdec, dual) in enumerate(SWEEP_BLOCKS):
        lines = [f"noise = {noise}", f"ttau = {ttau}"]
        if tdec is not None:
            lines.append(f"tdec = {tdec}")
        if dual:
            lines.append("dual_basis = true")
        lines += [
            f"iters = {ITERATIONS}",
            f"realizations = {NARROW_REALIZATIONS}",
            f"seed = {derive_seed(seed, 'sweep-narrow', index)}",
            f"out = {out}",
        ]
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` at benchmark seed ``seed``."""
    if name == "sweep-narrow":
        cells = tuple(
            Cell(out, dual, NARROW_REALIZATIONS, closed_form=(noise == "none" and ttau == "2pi"))
            for out, noise, ttau, _, dual in SWEEP_BLOCKS
        )
        return Workload(name, seed, cells, sweep_text=sweep_text(seed))
    if name == "cell-wide":
        flags = ("--noise", "adn", "--ttau", "1", "--tdec", "1")
        dual = False
    elif name == "cell-dual":
        flags = ("--noise", "pdn", "--ttau", "2pi", "--tdec", "1", "--dual-basis")
        dual = True
    else:
        raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(NAMES)}")
    flags += (
        "--iters", str(ITERATIONS),
        "--realizations", str(WIDE_REALIZATIONS),
        "--seed", str(derive_seed(seed, name, 0)),
    )
    return Workload(name, seed, (Cell(f"{name}.csv", dual, WIDE_REALIZATIONS),), run_flags=flags)
