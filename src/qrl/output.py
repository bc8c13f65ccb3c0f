"""CSV and SVG serialization of ensemble statistics.

The CSV layout is the package's canonical, diff-able output format:
header ``k,W,F_e,F_g,F_max[,F_e_b1,F_g_b1],se_W,se_F_e,se_F_g,se_F_max``,
one row per iteration with k counting from 1, floats printed with 12
significant digits, LF line endings, UTF-8. The SVG emitter renders a
self-contained static line chart (SVG 1.1, no external assets). Every path
is written through ``check_destination``: a link is followed and its target
replaced atomically; an existing directory, FIFO, device or socket, or a
missing parent directory, is an OSError, and nothing is written. Every path
is read through ``check_source``: a FIFO is an OSError, not a read that blocks.
"""

from __future__ import annotations

import csv
import os
from html import escape
from pathlib import Path
from typing import Callable, Sequence, TextIO

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
    """The UTF-8 text of the file at ``path``, read through ``check_source``."""
    with open(check_source(path), encoding="utf-8") as handle:
        return handle.read()


def check_destination(path: str | Path) -> Path:
    """``path`` with links followed; OSError unless that is a regular file, or absent in a directory."""
    real = check_source(path)
    if not real.parent.is_dir():
        raise FileNotFoundError(f"{path}: parent is not a directory")
    return real


def _emit(destination: str | Path | TextIO, write: Callable[[TextIO], object]) -> None:
    """Run ``write`` on a stream, or on a temporary file that replaces the path only if it succeeds."""
    if hasattr(destination, "write"):
        write(destination)
        return
    destination = check_destination(destination)
    temporary = destination.with_name(f".{destination.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            write(handle)
        os.replace(temporary, destination)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def emit_csv(stats: EnsembleStats, destination: str | Path | TextIO) -> None:
    """Write ensemble statistics as CSV to a text stream, or atomically to a path."""
    _emit(destination, lambda handle: _write_csv(stats, handle))


def _write_csv(stats: EnsembleStats, handle: TextIO) -> None:
    names = [name for name in _COLUMNS if getattr(stats, name.lower()) is not None]
    columns = [getattr(stats, name.lower()).tolist() for name in names]
    row = "%d" + ",%.12g" * len(names) + "\n"  # '%.12g' % v is format(v, '.12g'), byte for byte
    handle.write(",".join(["k", *names]) + "\n")
    # strict: ragged stats raise ValueError at their first missing row.
    rows = zip(range(1, stats.iterations + 1), *columns, strict=True)
    handle.writelines(row % values for values in rows)


def read_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read an emitted CSV back into column arrays keyed by header name."""
    with open(check_source(path), encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty CSV") from None
        rows = list(reader)
    parsers = [int if name == "k" else float for name in header]
    values = []
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise ValueError(f"{path}: line {line} has {len(row)} fields, header has {len(header)}")
        try:
            values.append([parse(field) for parse, field in zip(parsers, row)])
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    return {name: np.array([row[j] for row in values], dtype=parse)
            for j, (name, parse) in enumerate(zip(header, parsers))}


_PALETTE = ("#c0392b", "#2b6cb0", "#2f855a", "#1a1a1a", "#b7791f", "#6b46c1", "#c05621", "#4a5568")

_WIDTH, _HEIGHT = 760, 480
_MARGIN_LEFT, _MARGIN_RIGHT, _MARGIN_TOP, _MARGIN_BOTTOM = 66, 24, 42, 52


def emit_svg(
    series: Sequence[tuple[str, np.ndarray, np.ndarray]],
    destination: str | Path | TextIO,
    *,
    y_label: str = "mean",
) -> None:
    """Render labeled (x, y) series as a static SVG line chart, x labeled ``k``.

    ``series`` is a sequence of (label, x values, y values) triples;
    at least one series with at least one point, all finite, is required.
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
    x_lo, x_hi = _axis_range(
        min(float(np.min(x)) for _, x, _ in series),
        max(float(np.max(x)) for _, x, _ in series),
    )
    y_lo, y_hi = _axis_range(
        min(float(np.min(y)) for _, _, y in series),
        max(float(np.max(y)) for _, _, y in series),
    )

    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(v: float) -> float:
        return _MARGIN_LEFT + (v - x_lo) / (x_hi - x_lo) * plot_w

    def sy(v: float) -> float:
        return _MARGIN_TOP + plot_h - (v - y_lo) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]

    # Frame and ticks.
    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts.append(
        f'<rect x="{x0}" y="{_MARGIN_TOP}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#333" stroke-width="1"/>'
    )
    n_ticks = 5
    for i in range(n_ticks + 1):
        fx = x_lo + (x_hi - x_lo) * i / n_ticks
        px = sx(fx)
        parts.append(f'<line x1="{px:.2f}" y1="{y0}" x2="{px:.2f}" y2="{y0 + 5}" stroke="#333"/>')
        parts.append(
            f'<text x="{px:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{fx:.6g}</text>'
        )
        fy = y_lo + (y_hi - y_lo) * i / n_ticks
        py = sy(fy)
        parts.append(f'<line x1="{x0 - 5}" y1="{py:.2f}" x2="{x0}" y2="{py:.2f}" stroke="#333"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{py + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{fy:.6g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT + plot_w / 2:g}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">k</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_TOP + plot_h / 2:g}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {_MARGIN_TOP + plot_h / 2:g})">{escape(y_label)}</text>'
    )

    for idx, (label, x, y) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        points = " ".join(f"{sx(float(a)):.2f},{sy(float(b)):.2f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{points}"/>'
        )

    # Legend, top-right inside the frame.
    legend_x = _MARGIN_LEFT + plot_w - 170
    legend_y = _MARGIN_TOP + 12
    for idx, (label, _, _) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        ly = legend_y + idx * 18
        parts.append(
            f'<line x1="{legend_x}" y1="{ly}" x2="{legend_x + 24}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{legend_x + 30}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{escape(str(label))}</text>'
        )

    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    _emit(destination, lambda handle: handle.write(text))


def _axis_range(lo: float, hi: float) -> tuple[float, float]:
    if lo == hi:
        pad = 0.5 if lo == 0 else abs(lo) * 0.1
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.05
    return lo - pad, hi + pad
