"""CSV and SVG serialization of ensemble statistics.

The CSV layout is the package's canonical, diff-able output format: header
``k,W,F_e,F_g,F_max[,F_e_b1,F_g_b1],se_W,se_F_e,se_F_g,se_F_max``, one row per
iteration with k counting from 1, floats printed with 12 significant digits,
LF line endings, UTF-8. The SVG emitter renders a self-contained static line
chart (SVG 1.1, no external assets). The one writer, ``_emit``, follows a link
and replaces its target atomically; an existing directory, FIFO, device or
socket, or a missing parent directory, is an OSError, and nothing is written.
The one reader, ``read_text``, refuses a FIFO with an OSError, not a read that
blocks, and a file that is not UTF-8 with a ValueError naming it.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from html import escape
from pathlib import Path
from typing import Iterable, Sequence, TextIO

import numpy as np

from .ensemble import EnsembleStats

# CSV columns after k; each name lowercased is its EnsembleStats field (*_b1: dual-basis only).
_COLUMNS = ("W", "F_e", "F_g", "F_max", "F_e_b1", "F_g_b1", "se_W", "se_F_e", "se_F_g", "se_F_max")


def check_source(path: str | Path) -> Path:
    """``path`` with links followed; OSError naming it if that exists and is not a regular file."""
    real = Path(os.path.realpath(path))
    if real.is_symlink() or real.exists() and not real.is_file():  # a link left is a loop
        raise OSError(f"{path}: exists and is not a regular file")
    return real


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, a leading byte-order mark dropped, read through ``check_source``."""
    with open(check_source(path), encoding="utf-8-sig") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def check_destination(path: str | Path) -> Path:
    """``path`` with links followed; OSError unless that is a regular file, or absent in a directory."""
    real = check_source(path)
    if not real.parent.is_dir():
        raise FileNotFoundError(f"{path}: parent is not a directory")
    return real


def _emit(destination: str | Path | TextIO, lines: Iterable[str]) -> None:
    """Write ``lines`` to a stream, or to a temporary file that replaces the path only if every line is written."""
    if hasattr(destination, "write"):
        destination.writelines(lines)
        return
    destination = check_destination(destination)
    temporary = destination.with_name(f".{destination.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        os.replace(temporary, destination)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_csv(stats: EnsembleStats, destination: str | Path | TextIO) -> None:
    """Write ensemble statistics as CSV to a text stream, or atomically to a path."""
    names = [name for name in _COLUMNS if getattr(stats, name.lower()) is not None]
    columns = [getattr(stats, name.lower()).tolist() for name in names]
    row = "%d" + ",%.12g" * len(names) + "\n"  # '%.12g' % v is format(v, '.12g'), byte for byte
    # strict: ragged stats raise ValueError at their first missing row, so the old file is kept.
    rows = zip(range(1, stats.iterations + 1), *columns, strict=True)
    _emit(destination, itertools.chain([",".join(["k", *names]) + "\n"], (row % values for values in rows)))


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read an emitted CSV through ``read_text`` into column arrays keyed by header name."""
    reader = csv.reader(io.StringIO(read_text(path)))
    try:
        header = next(reader)
        # A quoted field may span lines: zip reads the line count before each row, so a row
        # is numbered by the line it starts on.
        rows = list(zip(iter(lambda: reader.line_num + 1, None), reader))
    except StopIteration:
        raise ValueError(f"{path}: empty CSV") from None
    except csv.Error as exc:  # a field over the csv module's size limit
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None
    parsers = [np.int64 if name == "k" else float for name in header]
    values = []
    for line, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, header has {len(header)}")
        try:
            values.append([parse(field) for parse, field in zip(parsers, row)])
        except (ValueError, OverflowError) as exc:  # OverflowError: a k outside int64
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return {name: np.array([row[j] for row in values], dtype=parse)
            for j, (name, parse) in enumerate(zip(header, parsers))}


_PALETTE = ("#c0392b", "#2b6cb0", "#2f855a", "#1a1a1a", "#b7791f", "#6b46c1", "#c05621", "#4a5568")

_WIDTH, _HEIGHT = 760, 480
_LEFT, _TOP, _PLOT_W, _PLOT_H = 66, 42, 670, 386  # the plot box inside the chart
_BOTTOM = _TOP + _PLOT_H
_TICKS = 5  # intervals per axis
_FONT = 'font-family="sans-serif" font-size'


def emit_svg(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    destination: str | Path | TextIO,
    *,
    y_label: str = "mean",
) -> None:
    """Render labeled (x, y) series as a static SVG line chart, x labeled ``k``.

    ``series`` is a sequence of (label, x values, y values) triples;
    at least one series with at least one point, all finite, is required,
    and each axis's padded range must have a positive finite width.
    """
    if not series:
        raise ValueError("emit_svg needs at least one series")
    for label, x, y in series:
        if len(x) != len(y):
            raise ValueError(f"series {label!r}: x and y lengths differ")
        if len(x) == 0:
            raise ValueError(f"series {label!r} is empty")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"series {label!r} contains non-finite values")

    # The whole document is built before the write opens its temporary file.
    (x_lo, x_span), (y_lo, y_span) = _axis([x for _, x, _ in series]), _axis([y for _, _, y in series])

    def sx(v: float) -> float:
        return _LEFT + (v - x_lo) / x_span * _PLOT_W

    def sy(v: float) -> float:
        return _BOTTOM - (v - y_lo) / y_span * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" '
        f'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    for i in range(_TICKS + 1):
        fx, fy = x_lo + x_span * i / _TICKS, y_lo + y_span * i / _TICKS
        px, py = sx(fx), sy(fy)
        parts += [
            f'<line x1="{px:.2f}" y1="{_BOTTOM}" x2="{px:.2f}" y2="{_BOTTOM + 5}" stroke="#333"/>',
            f'<text x="{px:.2f}" y="{_BOTTOM + 18}" text-anchor="middle" {_FONT}="11">{fx:.6g}</text>',
            f'<line x1="{_LEFT - 5}" y1="{py:.2f}" x2="{_LEFT}" y2="{py:.2f}" stroke="#333"/>',
            f'<text x="{_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" {_FONT}="11">{fy:.6g}</text>',
        ]
    mid = _TOP + _PLOT_H / 2
    parts += [
        f'<text x="{_LEFT + _PLOT_W / 2:g}" y="{_HEIGHT - 12}" text-anchor="middle" {_FONT}="13">k</text>',
        f'<text x="16" y="{mid:g}" text-anchor="middle" {_FONT}="13" '
        f'transform="rotate(-90 16 {mid:g})">{escape(y_label)}</text>',
    ]

    legend, lx = [], _LEFT + _PLOT_W - 170  # legend entries, top-right inside the box, follow every line
    for idx, (label, x, y) in enumerate(series):
        color, ly = _PALETTE[idx % len(_PALETTE)], _TOP + 12 + idx * 18
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>')
        legend += [
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 24}" y2="{ly}" stroke="{color}" stroke-width="2"/>',
            f'<text x="{lx + 30}" y="{ly + 4}" {_FONT}="12">{escape(str(label))}</text>',
        ]
    text = "\n".join([*parts, *legend, "</svg>"]) + "\n"
    _emit(destination, [text])


def _axis(columns: Sequence[np.ndarray]) -> tuple[float, float]:
    """The low end and the width of an axis over ``columns``, padded; ValueError unless the width is drawable."""
    lo, hi = min(float(np.min(c)) for c in columns), max(float(np.max(c)) for c in columns)
    pad = (0.5 if lo == 0 else abs(lo) * 0.1) if lo == hi else (hi - lo) * 0.05
    span = (hi + pad) - (lo - pad)
    if not 0 < span < np.inf:
        raise ValueError(f"cannot draw the range {lo:.6g} to {hi:.6g}: its padded width is {span:g}")
    return lo - pad, span
