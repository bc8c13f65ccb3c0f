"""Self-tests of the benchmark's correctness gate and workload generator.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import workloads
from run import ROOT, Runner

FIRST_BLOCK = workloads.build("sweep-narrow", gate.DEFAULT_SEED).cells[0]
CLOSED_FORM = next(c for c in workloads.build("sweep-narrow", 0).cells if c.closed_form)


def _write_cells(seed: int, names: set[str], out_dir: Path) -> None:
    """Run the sweep-narrow blocks named ``names`` at ``seed`` through the qrl CLI."""
    blocks = workloads.sweep_text(seed).split("\n\n")
    text = "\n\n".join(b for b in blocks if b.rsplit("out = ", 1)[1].strip() in names)
    config = out_dir.with_suffix(".sweep")
    config.write_text(text + "\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), QRL_THREADS="1")
    subprocess.run([sys.executable, "-m", "qrl.cli", "sweep", "--config", str(config),
                    "--out-dir", str(out_dir)], env=env, check=True, timeout=120)


def _corrupt(path: Path, keep_number: bool) -> None:
    """Change the last byte of a middle row: to another digit, or to a letter."""
    data = bytearray(path.read_bytes())
    i = data.index(b"\n", len(data) // 2) - 1
    assert chr(data[i]).isdigit()
    data[i] = ord("0" if data[i] != ord("0") else "1") if keep_number else ord("x")
    path.write_bytes(bytes(data))


def _failed(seed: int, out_dir: Path, cell: workloads.Cell) -> int:
    runner = Runner(workloads.build("sweep-narrow", seed), seconds=1.0)
    runner.check(out_dir, 0, cells=(cell,))
    return runner.failed


def test_sweep_generator_is_deterministic(tmp_path):
    assert workloads.sweep_text(7) == workloads.sweep_text(7)
    assert workloads.sweep_text(7) != workloads.sweep_text(8)
    first = workloads.build("sweep-narrow", 7).argv(tmp_path / "a")
    second = workloads.build("sweep-narrow", 7).argv(tmp_path / "b")
    assert Path(first[2]).read_bytes() == Path(second[2]).read_bytes()
    assert workloads.build("cell-wide", 7).run_flags == workloads.build("cell-wide", 7).run_flags


def test_sweep_covers_every_figure_block():
    text = workloads.sweep_text(0)
    assert text.count("out = ") == 18
    assert text.count("dual_basis = true") == 4
    assert workloads.build("sweep-narrow", 0).steps == 18 * 8 * 500


@pytest.fixture(scope="module")
def golden_cells(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "cells"
    out.mkdir()
    _write_cells(gate.DEFAULT_SEED, {FIRST_BLOCK.name}, out)
    return out


def test_golden_cell_passes(golden_cells):
    assert gate.golden_digests("sweep-narrow", gate.DEFAULT_SEED)[FIRST_BLOCK.name]
    assert _failed(gate.DEFAULT_SEED, golden_cells, FIRST_BLOCK) == 0


def test_one_changed_byte_is_a_failed_cell(golden_cells, tmp_path):
    copy = tmp_path / "copy"
    shutil.copytree(golden_cells, copy)
    _corrupt(copy / FIRST_BLOCK.name, keep_number=True)
    assert gate.check_csv(copy / FIRST_BLOCK.name, FIRST_BLOCK) == []  # schema alone passes
    assert _failed(gate.DEFAULT_SEED, copy, FIRST_BLOCK) == 1  # the frozen digest catches it
    assert _failed(gate.DEFAULT_SEED, golden_cells, FIRST_BLOCK) == 0  # original untouched


def test_schema_catches_corruption_away_from_default_seed(tmp_path):
    out = tmp_path / "cells"
    out.mkdir()
    _write_cells(5, {FIRST_BLOCK.name, CLOSED_FORM.name}, out)
    assert _failed(5, out, FIRST_BLOCK) == 0
    assert _failed(5, out, CLOSED_FORM) == 0
    _corrupt(out / FIRST_BLOCK.name, keep_number=False)
    assert _failed(5, out, FIRST_BLOCK) == 1
    _corrupt(out / CLOSED_FORM.name, keep_number=True)
    assert _failed(5, out, CLOSED_FORM) == 1  # closed form catches a still-valid number


def test_missing_csv_and_nonzero_exit_are_failed_cells(tmp_path):
    runner = Runner(workloads.build("sweep-narrow", 5), seconds=1.0)
    runner.check(tmp_path, 0, cells=(FIRST_BLOCK,))
    runner.check(tmp_path, 1, cells=(FIRST_BLOCK,))
    assert (runner.attempted, runner.failed) == (2, 2)


def test_closed_form_rows():
    rows = gate.closed_form_rows(dual=False)
    assert len(rows) == workloads.ITERATIONS
    assert rows[0] == "1,0.9,0.5,0.866025403784,0.866025403784,0,0,0,0"
    assert rows[1].startswith("2,0.81,")
