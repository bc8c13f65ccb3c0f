"""Command-line front end.

Subcommands:

* ``qrl run [flags]``          one ensemble cell, CSV (and optional SVG) out
* ``qrl sweep --config FILE``  many cells from a key = value config file
* ``qrl plot --csv FILE...``   line chart of a CSV column across files

Exit codes: 0 success, 1 runtime or I/O error, 2 usage error. The
``--seed`` range is [0, 2^64). Output destinations are checked before any
cell computes.

The sweep config file holds flat ``key = value`` lines with the same keys
as the run flags; blank lines separate run blocks and ``#`` starts a
comment. Every block needs an ``out`` path for its CSV, and two blocks
naming the same output file is a usage error. A block that fails to
compute or write is reported and does not stop the others.
"""

from __future__ import annotations

import argparse
import errno
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .agent import AlgorithmParams
from .channels import Channel
from .ensemble import EnsembleConfig, run_ensemble
from .output import emit_csv, emit_svg, read_csv

_NOISE_CHOICES = ("none", "pdn", "adn")
_KIND_BY_NOISE = {"none": "noiseless", "pdn": "pdn", "adn": "adn"}


class SweepFormatError(ValueError):
    """Malformed sweep configuration content."""


def _number(text: str) -> float:
    """A float, or the token ``2pi`` expanded to full double precision."""
    if text.strip() == "2pi":
        return 2.0 * math.pi
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number {text!r}") from None


def _integer(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


def _noise(text: str) -> str:
    if text not in _NOISE_CHOICES:
        raise argparse.ArgumentTypeError(f"noise must be one of {', '.join(_NOISE_CHOICES)}")
    return text


def _flag(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise argparse.ArgumentTypeError(f"invalid boolean {text!r}")


@dataclass
class RunSpec:
    """One resolved run: channel, learning parameters, sizes and outputs."""

    noise: str = "none"
    ttau: float = 1.0
    tdec: float = math.inf
    reward: float = 0.9
    punish: float = 1.5
    iters: int = 500
    realizations: int = 1000
    seed: int = 0
    dual_basis: bool = False
    out: str | None = None
    svg: str | None = None

    def to_config(self) -> EnsembleConfig:
        """The ensemble cell; ValueError on a bad parameter or a CSV and SVG on one path."""
        if self.out and self.svg and os.path.normpath(self.out) == os.path.normpath(self.svg):
            raise ValueError(f"out and svg both write {self.out!r}")
        return EnsembleConfig(
            channel=Channel(kind=_KIND_BY_NOISE[self.noise], tau=self.ttau, t_dec=self.tdec),
            params=AlgorithmParams(
                reward_rate=self.reward, punish_rate=self.punish, iterations=self.iters
            ),
            n_realizations=self.realizations,
            master_seed=self.seed,
            dual_basis=self.dual_basis,
        )

    def label(self) -> str:
        return f"{self.noise} ttau={self.ttau:g} tdec={self.tdec:g}"


@dataclass
class SweepSpec:
    config: str
    out_dir: str | None = None


@dataclass
class PlotSpec:
    csv: list[str]
    out: str
    column: str = "F_max"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qrl", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one ensemble and write CSV")
    run.add_argument("--noise", type=_noise, default="none", help="none, pdn or adn")
    run.add_argument("--ttau", type=_number, default=1.0,
                     help="dimensionless evolution time; the token 2pi is accepted")
    run.add_argument("--tdec", type=_number, default=math.inf,
                     help="dimensionless decoherence time, or inf")
    run.add_argument("--reward", type=_number, default=0.9, help="reward rate in (0, 1)")
    run.add_argument("--punish", type=_number, default=1.5, help="punishment rate > 1")
    run.add_argument("--iters", type=_integer, default=500, help="iterations per realization")
    run.add_argument("--realizations", type=_integer, default=1000,
                     help="number of Monte Carlo realizations")
    run.add_argument("--seed", type=_integer, default=0, help="master seed in [0, 2^64)")
    run.add_argument("--dual-basis", action="store_true",
                     help="also record fidelities of the flipped-bit preparation")
    run.add_argument("--out", default=None, help="CSV output path (stdout when omitted)")
    run.add_argument("--svg", default=None, help="optional SVG chart of F_max")

    swp = sub.add_parser("sweep", help="run every block of a sweep config file")
    swp.add_argument("--config", required=True, help="sweep config file")
    swp.add_argument("--out-dir", default=None, help="directory output paths resolve against")

    plot = sub.add_parser("plot", help="render CSV columns as an SVG line chart")
    plot.add_argument("--csv", nargs="+", required=True, help="input CSV files")
    plot.add_argument("--out", required=True, help="SVG output path")
    plot.add_argument("--column", default="F_max", help="CSV column to plot (default F_max)")

    return parser


def parse_args(argv=None) -> RunSpec | SweepSpec | PlotSpec:
    """Parse CLI arguments into a command spec (exits with code 2 on usage errors)."""
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "run":
        spec = RunSpec(**{key: value for key, value in vars(ns).items() if key != "command"})
        try:
            spec.to_config()
        except ValueError as exc:
            parser.error(f"run: {exc}")
        return spec
    if ns.command == "sweep":
        return SweepSpec(config=ns.config, out_dir=ns.out_dir)
    return PlotSpec(csv=list(ns.csv), out=ns.out, column=ns.column)


_SWEEP_CONVERTERS = {
    "noise": _noise,
    "ttau": _number,
    "tdec": _number,
    "reward": _number,
    "punish": _number,
    "iters": _integer,
    "realizations": _integer,
    "seed": _integer,
    "dual_basis": _flag,
    "out": str,
    "svg": str,
}


def parse_sweep_text(text: str) -> list[RunSpec]:
    """Parse and validate sweep config content into run specs, one per block."""
    blocks: list[dict] = []
    current: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            if current:
                blocks.append(current)
                current = {}
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SweepFormatError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _SWEEP_CONVERTERS:
            raise SweepFormatError(f"line {lineno}: unknown key {key!r}")
        if key in current:
            raise SweepFormatError(f"line {lineno}: duplicate key {key!r} in block")
        try:
            current[key] = _SWEEP_CONVERTERS[key](value)
        except argparse.ArgumentTypeError as exc:
            raise SweepFormatError(f"line {lineno}: {exc}") from None
    if current:
        blocks.append(current)
    if not blocks:
        raise SweepFormatError("no run blocks found")
    specs = [RunSpec(**block) for block in blocks]
    writers: dict[str, int] = {}
    for i, spec in enumerate(specs, start=1):
        try:
            spec.to_config()
        except ValueError as exc:
            raise SweepFormatError(f"block {i}: {exc}") from None
        if spec.out is None:
            raise SweepFormatError(f"block {i}: missing 'out' path")
        for path in filter(None, (spec.out, spec.svg)):
            first = writers.setdefault(os.path.normpath(path), i)
            if first != i:
                raise SweepFormatError(f"blocks {first} and {i} both write {path!r}")
    return specs


def _check_destination(path: Path) -> None:
    """Raise OSError unless ``path`` is a non-directory inside an existing directory."""
    if path.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
    if not path.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(path.parent))


def _run_cell(spec: RunSpec, base: Path) -> None:
    """Check the destinations under ``base``, then compute one cell and write it."""
    out = None if spec.out is None else base / spec.out
    svg = None if spec.svg is None else base / spec.svg
    for path in (out, svg):
        if path is not None:
            _check_destination(path)
    stats = run_ensemble(spec.to_config())
    emit_csv(stats, sys.stdout if out is None else out)
    if svg is not None:
        k = range(1, stats.iterations + 1)
        emit_svg([(spec.label(), list(k), stats.f_max)], svg, y_label="F_max")


def _cmd_sweep(spec: SweepSpec) -> int:
    runs = parse_sweep_text(Path(spec.config).read_text(encoding="utf-8"))
    base = Path(spec.out_dir or ".")
    base.mkdir(parents=True, exist_ok=True)

    failures = 0
    for i, run in enumerate(runs, start=1):
        try:
            _run_cell(run, base)
        except Exception as exc:  # one failed block, compute or write, must not stop the rest
            failures += 1
            print(f"qrl: sweep block {i} ({run.out!r}) failed: {exc}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_plot(spec: PlotSpec) -> int:
    series = []
    for path in spec.csv:
        columns = read_csv(path)
        if spec.column not in columns:
            available = ", ".join(columns)
            raise ValueError(f"{path}: no column {spec.column!r} (available: {available})")
        series.append((Path(path).stem, columns["k"], columns[spec.column]))
    emit_svg(series, spec.out, y_label=spec.column)
    return 0


def main(argv=None) -> int:
    spec = parse_args(argv)
    try:
        if isinstance(spec, RunSpec):
            _run_cell(spec, Path("."))
            return 0
        if isinstance(spec, SweepSpec):
            return _cmd_sweep(spec)
        return _cmd_plot(spec)
    except SweepFormatError as exc:
        print(f"qrl: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"qrl: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
