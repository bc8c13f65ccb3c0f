"""Command-line front end.

Subcommands:

* ``qrl run [flags]``          one ensemble cell, CSV out
* ``qrl sweep --config FILE``  many cells from a key = value config file
* ``qrl plot --csv FILE...``   line chart of a CSV column across files

Exit codes: 0 success, 1 runtime or I/O error, such as a cell too large to allocate, 2
usage error. The ``--seed`` range is [0, 2^64). Each output path passes
``output.check_destination`` and each input ``output.check_source`` before any cell
computes or any plot input is read: a link is followed (an output's target is replaced
atomically); an existing non-regular file, such as a FIFO, or a missing output parent
exits 1. Two sweep blocks whose ``out`` names one file, an ``out`` that names the config
file, or a plot ``--out`` that names one of its inputs exit 2; paths are compared after
joining ``--out-dir`` and following links. Charts come only from ``qrl plot``.

The run flags and sweep keys parse straight into the library's frozen ``EnsembleConfig``,
which validates them; a key left unset takes the library's default. The sweep config file,
UTF-8 with or without a byte-order mark, holds flat ``key = value`` lines with those keys;
blank lines separate run blocks and ``#`` starts a comment (a comment line ends no block).
Every block needs a non-empty ``out`` path for its CSV. Each block is checked where it ends,
so errors come in file order, and ``line N`` counts line feeds only. Narrow consecutive
blocks with equal learning parameters share one lockstep engine run, single- and dual-basis
alike, with unchanged bytes; each CSV is written once its block is known. A block that fails
to compute or write is reported and does not stop the others.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

from .agent import AlgorithmParams
from .channels import Channel
from .ensemble import EnsembleConfig, run_ensemble, run_ensembles
from .output import check_destination, check_source, emit_csv, emit_svg, read_csv, read_text

_KIND_BY_NOISE = {"none": "noiseless", "pdn": "pdn", "adn": "adn"}


class SweepFormatError(ValueError):
    """Malformed sweep configuration content."""


def _real(text: str) -> float:
    """A float, or the token ``2pi`` expanded to full double precision."""
    if text.strip() == "2pi":
        return 2.0 * math.pi
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _noise(text: str) -> str:
    """The channel kind a noise name selects."""
    if text not in _KIND_BY_NOISE:
        raise argparse.ArgumentTypeError(f"noise must be one of {', '.join(_KIND_BY_NOISE)}")
    return _KIND_BY_NOISE[text]


def _flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise argparse.ArgumentTypeError(f"invalid boolean {text!r}")


# Each ``qrl run`` flag (``--dual-basis`` for dual_basis) and sweep key: its converter,
# help text and the library field it sets. A key left unset takes the library's default.
_RUN_KEYS = {
    "noise": (_noise, "none, pdn or adn", "kind"),
    "ttau": (_real, "dimensionless evolution time; the token 2pi is accepted", "tau"),
    "tdec": (_real, "dimensionless decoherence time, or inf", "t_dec"),
    "reward": (_real, "reward rate in (0, 1)", "reward_rate"),
    "punish": (_real, "punishment rate > 1", "punish_rate"),
    "iters": (int, "iterations per realization", "iterations"),
    "realizations": (int, "number of Monte Carlo realizations", "n_realizations"),
    "seed": (int, "master seed in [0, 2^64)", "master_seed"),
    "dual_basis": (_flag, "also record fidelities of the flipped-bit preparation", "dual_basis"),
    "out": (str, "CSV output path (stdout when omitted)", None),
}


def _config(values: dict) -> EnsembleConfig:
    """The cell the given run keys set; ValueError on a bad parameter or an empty output path."""
    if values.get("out") == "":
        raise ValueError("out path must not be empty")
    given = {_RUN_KEYS[key][2]: value for key, value in values.items()}
    channel, params, cell = ({f.name: given[f.name] for f in fields(cls) if f.name in given}
                             for cls in (Channel, AlgorithmParams, EnsembleConfig))
    return EnsembleConfig(Channel(**channel), AlgorithmParams(**params), **cell)


def parse_args(argv=None) -> argparse.Namespace:
    """The parsed namespace, for ``run`` its ``config`` and ``out`` (exits 2 on usage errors)."""
    parser = argparse.ArgumentParser(prog="qrl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run one ensemble and write CSV", argument_default=argparse.SUPPRESS
    )
    for key, (convert, text, _) in _RUN_KEYS.items():
        if convert is _flag:
            run.add_argument(f"--{key.replace('_', '-')}", action="store_true", help=text)
        else:
            run.add_argument(f"--{key}", type=convert, help=text)

    swp = sub.add_parser("sweep", help="run every block of a sweep config file")
    swp.add_argument("--config", required=True, help="sweep config file")
    swp.add_argument("--out-dir", default=None, help="directory output paths resolve against")

    plot = sub.add_parser("plot", help="render CSV columns as an SVG line chart")
    plot.add_argument("--csv", nargs="+", required=True, help="input CSV files")
    plot.add_argument("--out", required=True, help="SVG output path")
    plot.add_argument("--column", default="F_max", help="CSV column to plot (default F_max)")

    ns = parser.parse_args(argv)
    if ns.command == "plot" and os.path.realpath(ns.out) in {os.path.realpath(path) for path in ns.csv}:
        parser.error(f"plot: out {ns.out!r} is one of the csv inputs")
    if ns.command != "run":
        return ns
    values = {key: value for key, value in vars(ns).items() if key != "command"}
    try:
        config = _config(values)
    except ValueError as exc:
        parser.error(f"run: {exc}")
    return argparse.Namespace(command="run", config=config, out=values.get("out"))


def parse_sweep_text(text: str) -> list[tuple[EnsembleConfig, str]]:
    """Parse and validate sweep config content: a (config, out) per block, paths unchecked."""
    cells = []
    current: dict = {}
    for lineno, raw in enumerate([*text.split("\n"), ""], start=1):  # "" ends the last block
        line = raw.split("#", 1)[0].strip()
        if not line:  # a blank line ends a block, which is checked here; a comment line does not
            if current and not raw.strip():
                try:
                    config = _config(current)
                except ValueError as exc:
                    raise SweepFormatError(f"block {len(cells) + 1}: {exc}") from None
                if "out" not in current:
                    raise SweepFormatError(f"block {len(cells) + 1}: missing 'out' path")
                cells.append((config, current["out"]))
                current = {}
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SweepFormatError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _RUN_KEYS:
            raise SweepFormatError(f"line {lineno}: unknown key {key!r}")
        if key in current:
            raise SweepFormatError(f"line {lineno}: duplicate key {key!r} in block")
        try:
            current[key] = _RUN_KEYS[key][0](value)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise SweepFormatError(f"line {lineno}: {exc}") from None
    if not cells:
        raise SweepFormatError("no run blocks found")
    return cells


def _cmd_sweep(ns: argparse.Namespace) -> int:
    base = Path(ns.out_dir or ".")
    cells = parse_sweep_text(read_text(ns.config))
    writer = {os.path.realpath(ns.config): 0}  # each real path's first writer; 0 is the config file
    for j, (_, out) in enumerate(cells, start=1):
        if (i := writer.setdefault(os.path.realpath(base / out), j)) != j:
            raise SweepFormatError(f"blocks {i} and {j} both write {cells[i - 1][1]!r}" if i
                                   else f"block {j}: out names the config file {ns.config!r}")
    base.mkdir(parents=True, exist_ok=True)

    failed = []

    def attempt(i, action):
        try:
            return action()
        except Exception as exc:  # one failed block, compute or write, must not stop the rest
            failed.append(i)
            print(f"qrl: sweep block {i} ({cells[i - 1][1]!r}) failed: {exc}", file=sys.stderr)

    ready = [(i, config, out) for i, (config, out) in enumerate(cells, start=1)
             if attempt(i, lambda: check_destination(base / out))]
    try:
        for stats in run_ensembles([config for _, config, _ in ready]):
            i, _, out = ready.pop(0)
            attempt(i, lambda: emit_csv(stats, base / out))
    except Exception:  # a shared chunk failed: the blocks not yet written run one by one
        for i, config, out in ready:
            attempt(i, lambda: emit_csv(run_ensemble(config), base / out))
    return 1 if failed else 0


def _cmd_plot(ns: argparse.Namespace) -> int:
    check_destination(ns.out)
    for path in ns.csv:
        check_source(path)
    series = []
    for path in ns.csv:
        columns = read_csv(path)
        for name in ("k", ns.column):
            if name not in columns:
                raise ValueError(f"{path}: no column {name!r} (available: {', '.join(columns)})")
        series.append((Path(path).stem, columns["k"], columns[ns.column]))
    emit_svg(series, ns.out, y_label=ns.column)
    return 0


def main(argv=None) -> int:
    ns = parse_args(argv)
    try:
        if ns.command == "run":
            out = sys.stdout if ns.out is None else check_destination(ns.out)
            emit_csv(run_ensemble(ns.config), out)
            return 0
        if ns.command == "sweep":
            return _cmd_sweep(ns)
        return _cmd_plot(ns)
    except SweepFormatError as exc:
        print(f"qrl: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: a cell too large to allocate
        print(f"qrl: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """``main`` as a program: frozen import-time objects are left uncollected at exit."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(entry())
