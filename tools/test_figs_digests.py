"""Self-test of ``figs_digests.py``: the figs CSVs match the frozen table, and a changed digest fails the check."""

import json

import pytest

import figs_digests


@pytest.fixture(scope="module")
def current(tmp_path_factory):
    """Digests of one run of the figs sweep."""
    return figs_digests.run_sweeps(tmp_path_factory.mktemp("figs"))


@pytest.fixture
def table(tmp_path, monkeypatch, current):
    """A writable table path for ``main``, whose sweeps return ``current`` without rerunning."""
    path = tmp_path / "figs_digests.json"
    monkeypatch.setattr(figs_digests, "TABLE", path)
    monkeypatch.setattr(figs_digests, "run_sweeps", lambda out_dir: current)
    return path


def test_figs_match_the_frozen_table(current):
    frozen = json.loads(figs_digests.TABLE.read_text())
    assert len(frozen) == 14
    assert figs_digests.mismatches(frozen, current) == []


def test_freeze_then_check_passes(table, current, capsys):
    assert figs_digests.main(["--freeze"]) == 0
    assert json.loads(table.read_text()) == current
    assert figs_digests.main([]) == 0
    assert capsys.readouterr().out.endswith("14 of 14 CSVs equal to the frozen table\n")


def test_one_changed_digest_fails_the_check(table, current, capsys):
    name = sorted(current)[3]
    table.write_text(json.dumps({**current, name: "0" * 64}))
    assert figs_digests.main([]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"differs: {name}: frozen {'0' * 64}, now {current[name]}\n")
    assert out.endswith("13 of 14 CSVs equal to the frozen table\n")


def test_a_missing_or_extra_csv_fails_the_check(current):
    name = sorted(current)[0]
    fewer = {key: value for key, value in current.items() if key != name}
    assert figs_digests.mismatches(fewer, current) == [name]
    assert figs_digests.mismatches(current, fewer) == [name]
