"""Correctness gate for the CSV cells a workload writes.

A cell fails when its CSV breaks the frozen schema (header, one row per
iteration, finite values, fidelities and W in [0, 1], non-negative
standard errors), when its SHA-256 differs from the digest frozen in
``golden.json`` (checked at the default seed only), or, for the noiseless
ttau = 2pi block, when any row differs from the closed form.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

from workloads import ITERATIONS, Cell

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

_BASE = ("W", "F_e", "F_g", "F_max")
_DUAL = ("F_e_b1", "F_g_b1")
_SE = ("se_W", "se_F_e", "se_F_g", "se_F_max")
_REWARD_RATE = 0.9  # the CLI default, which no workload overrides


def header(dual: bool) -> list[str]:
    return ["k", *_BASE, *(_DUAL if dual else ()), *_SE]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def golden_digests(workload: str, seed: int) -> dict[str, str]:
    """Frozen digests of ``workload``'s CSVs, or {} away from the default seed."""
    if seed != DEFAULT_SEED or not GOLDEN_PATH.is_file():
        return {}
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload, {})


def closed_form_rows(dual: bool, rows: int = ITERATIONS) -> list[str]:
    """Exact CSV rows of a noiseless ttau = 2pi cell.

    Every step is rewarded, so W_k is the iterated reward product, the
    transform stays the identity and every realization is identical:
    F_e = 1/2, F_g = sqrt(3)/2 and every standard error is 0.
    """
    half, root = format(0.5, ".12g"), format(math.sqrt(3.0) / 2.0, ".12g")
    w = 1.0
    out = []
    for k in range(1, rows + 1):
        w = _REWARD_RATE * w
        fields = [str(k), format(w, ".12g"), half, root, root]
        if dual:
            fields += [root, half]
        out.append(",".join(fields + ["0"] * len(_SE)))
    return out


def check_csv(path: Path, cell: Cell, digest: str | None = None,
              rows: int = ITERATIONS) -> list[str]:
    """Problems found in one cell's CSV; an empty list means the cell passed."""
    try:
        data = path.read_bytes()
        lines = data.decode("utf-8").split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        return [f"{path.name}: unreadable: {exc}"]
    if digest is not None and hashlib.sha256(data).hexdigest() != digest:
        return [f"{path.name}: SHA-256 differs from the frozen digest"]
    if lines[-1] != "":
        return [f"{path.name}: missing final newline"]
    lines.pop()
    expected = header(cell.dual)
    if lines[:1] != [",".join(expected)]:
        return [f"{path.name}: header {lines[:1]} != {expected}"]
    body = lines[1:]
    if len(body) != rows:
        return [f"{path.name}: {len(body)} rows, expected {rows}"]
    if cell.closed_form:
        for k, (got, want) in enumerate(zip(body, closed_form_rows(cell.dual, rows)), start=1):
            if got != want:
                return [f"{path.name}: row {k} {got!r} != closed form {want!r}"]
    for k, line in enumerate(body, start=1):
        problem = _check_row(line, k, expected)
        if problem:
            return [f"{path.name}: row {k}: {problem}"]
    return []


def _check_row(line: str, k: int, names: list[str]) -> str | None:
    fields = line.split(",")
    if len(fields) != len(names):
        return f"{len(fields)} fields, expected {len(names)}"
    if fields[0] != str(k):
        return f"k = {fields[0]!r}"
    for name, text in zip(names[1:], fields[1:]):
        try:
            value = float(text)
        except ValueError:
            return f"{name} = {text!r} is not a number"
        if not math.isfinite(value):
            return f"{name} = {text} is not finite"
        if name.startswith("se_"):
            if value < 0.0:
                return f"{name} = {text} is negative"
        elif not 0.0 <= value <= 1.0:
            return f"{name} = {text} outside [0, 1]"
    return None
