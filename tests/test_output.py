import hashlib
import io
import math
import os
import re

import numpy as np
import pytest

from qrl.ensemble import EnsembleStats
from qrl.output import emit_csv, emit_svg, read_csv


def make_stats(values, dual=False):
    arrays = {name: np.asarray(col, dtype=float) for name, col in values.items()}
    length = len(next(iter(arrays.values())))
    zeros = np.zeros(length)
    stats = EnsembleStats(
        n_realizations=3,
        w=arrays.get("w", zeros.copy()),
        f_e=arrays.get("f_e", zeros.copy()),
        f_g=arrays.get("f_g", zeros.copy()),
        f_max=arrays.get("f_max", zeros.copy()),
        se_w=arrays.get("se_w", zeros.copy()),
        se_f_e=zeros.copy(),
        se_f_g=zeros.copy(),
        se_f_max=zeros.copy(),
    )
    if dual:
        stats.f_e_b1 = arrays.get("f_e_b1", zeros.copy())
        stats.f_g_b1 = arrays.get("f_g_b1", zeros.copy())
        stats.se_f_e_b1 = zeros.copy()
        stats.se_f_g_b1 = zeros.copy()
    return stats


class TestEmitCsv:
    def test_header_and_row_count(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(make_stats({"w": [0.9, 0.81]}), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "k,W,F_e,F_g,F_max,se_W,se_F_e,se_F_g,se_F_max"
        assert len(lines) == 3
        assert lines[1].startswith("1,") and lines[2].startswith("2,")

    def test_dual_basis_header(self, tmp_path):
        path = tmp_path / "dual.csv"
        emit_csv(make_stats({"w": [0.9]}, dual=True), path)
        header = path.read_text(encoding="utf-8").splitlines()[0]
        assert header == "k,W,F_e,F_g,F_max,F_e_b1,F_g_b1,se_W,se_F_e,se_F_g,se_F_max"

    def test_twelve_significant_digits(self):
        buffer = io.StringIO()
        emit_csv(make_stats({"f_max": [math.sqrt(3) / 2], "w": [1.0 / 3.0]}), buffer)
        row = buffer.getvalue().splitlines()[1].split(",")
        assert row[1] == "0.333333333333"
        assert row[4] == "0.866025403784"

    def test_lf_endings_and_utf8(self, tmp_path):
        path = tmp_path / "lf.csv"
        emit_csv(make_stats({"w": [0.5, 0.25, 0.125]}), path)
        blob = path.read_bytes()
        assert b"\r" not in blob
        blob.decode("utf-8")

    def test_repeat_emission_is_byte_identical(self, tmp_path):
        stats = make_stats({"w": [0.9, 0.81], "f_e": [0.2, 0.4]})
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(stats, a)
        emit_csv(stats, b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("ending", [b"\n", b"\r\n", b"\r"], ids=["lf", "crlf", "cr"])
    def test_read_back_roundtrip(self, ending, tmp_path):
        # Emitted CSVs end lines with LF; one saved by another tool may use CRLF or CR alone.
        path = tmp_path / "roundtrip.csv"
        stats = make_stats({"w": [0.9, 0.81], "f_g": [0.7, 0.75], "se_w": [0.01, 0.02]})
        emit_csv(stats, path)
        path.write_bytes(path.read_bytes().replace(b"\n", ending))
        columns = read_csv(path)
        assert list(columns) == ["k", "W", "F_e", "F_g", "F_max", "se_W", "se_F_e", "se_F_g", "se_F_max"]
        np.testing.assert_array_equal(columns["k"], [1, 2])
        np.testing.assert_allclose(columns["W"], stats.w, rtol=1e-11)
        np.testing.assert_allclose(columns["F_g"], stats.f_g, rtol=1e-11)
        np.testing.assert_allclose(columns["se_W"], stats.se_w, rtol=1e-11)
        path.write_bytes(b"k,W" + ending + b"1,0.5" + ending + ending)  # a trailing blank line
        with pytest.raises(ValueError, match="line 3 has 0 fields, header has 2"):
            read_csv(path)

    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.csv"
        path.write_bytes(b"old bytes\n")
        broken = make_stats({"w": [0.9] * 500})
        broken.f_e = broken.f_e[:300]  # the writer raises at row 301, past several buffer flushes
        with pytest.raises(ValueError, match="shorter"):
            emit_csv(broken, path)
        assert path.read_bytes() == b"old bytes\n"
        assert list(tmp_path.iterdir()) == [path]
        emit_csv(make_stats({"w": [0.9]}), path)
        assert path.read_text(encoding="utf-8").startswith("k,W,")
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("make", [os.mkfifo, os.mkdir, lambda path: os.symlink(path.name, path)],
                             ids=["fifo", "directory", "link-loop"])
    def test_refuses_what_is_not_a_regular_file_and_keeps_it(self, make, tmp_path):
        path = tmp_path / "out.csv"
        make(path)
        mode = os.lstat(path).st_mode
        with pytest.raises(OSError, match=re.escape(f"{path}: exists and is not a regular file")):
            emit_csv(make_stats({"w": [0.9]}), path)
        assert os.lstat(path).st_mode == mode
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("make", [os.mkdir, lambda path: os.symlink(path.name, path)],
                             ids=["directory", "link-loop"])
    def test_read_refuses_what_is_not_a_regular_file(self, make, tmp_path):
        path = tmp_path / "in.csv"
        make(path)
        with pytest.raises(OSError, match=re.escape(f"{path}: exists and is not a regular file")):
            read_csv(path)

    def test_read_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_csv(path)


class TestEmitSvg:
    def test_flat_series_is_horizontal_polyline(self, tmp_path):
        # A level of 0 has no relative pad, so its axis takes a fixed one.
        path = tmp_path / "flat.svg"
        k = np.arange(1, 11)
        for value in (math.sqrt(3) / 2, 0.0):
            emit_svg([("flat", k, np.full(10, value))], path)
            text = path.read_text(encoding="utf-8")
            polylines = re.findall(r"<polyline[^>]*points=\"([^\"]+)\"", text)
            assert len(polylines) == 1
            y_coords = {point.split(",")[1] for point in polylines[0].split()}
            assert len(y_coords) == 1

    def test_four_series_get_legend_entries(self, tmp_path):
        path = tmp_path / "four.svg"
        k = np.arange(1, 6)
        labels = ["td=1", "td=10", "td=100", "td=inf"]
        series = [(label, k, k * 0.1 + i * 0.05) for i, label in enumerate(labels)]
        emit_svg(series, path)
        text = path.read_text(encoding="utf-8")
        assert text.count("<polyline") == 4
        for label in labels:
            assert f">{label}</text>" in text

    def test_self_contained_svg(self, tmp_path):
        path = tmp_path / "plain.svg"
        emit_svg([("s", np.arange(3), np.arange(3) * 0.5)], path)
        text = path.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert 'version="1.1"' in text
        assert 'xmlns="http://www.w3.org/2000/svg"' in text
        # no external references besides the namespace declaration
        assert "<image" not in text and "href" not in text

    def test_rejects_empty_series_list(self, tmp_path):
        with pytest.raises(ValueError, match="at least one series"):
            emit_svg([], tmp_path / "never.svg")

    def test_rejects_length_mismatch(self, tmp_path):
        with pytest.raises(ValueError, match="lengths differ"):
            emit_svg([("bad", np.arange(3), np.arange(4))], tmp_path / "never.svg")

    def test_non_finite_values_write_nothing(self, tmp_path):
        # The document is rendered before the atomic write opens its temporary file.
        for x, y in ((np.arange(2), np.array([0.5, math.nan])), (np.array([0.0, math.nan]), np.array([0.5, 0.6]))):
            series = [("finite", np.arange(2), np.array([0.5, 0.6])), ("second", x, y)]
            with pytest.raises(ValueError, match="series 'second' contains non-finite values"):
                emit_svg(series, tmp_path / "never.svg")
            assert list(tmp_path.iterdir()) == []

    def test_escapes_labels(self):
        buffer = io.StringIO()
        emit_svg([("a<b>&c", np.arange(2), np.arange(2.0))], buffer, y_label="t<&>")
        text = buffer.getvalue()
        assert "a&lt;b&gt;&amp;c" in text
        assert "t&lt;&amp;&gt;" in text

    def test_chart_bytes_are_pinned(self):
        # Frozen from the chart writer before its rewrite: a flat, a falling negative and a rising series.
        k = np.arange(1, 8)
        series = [("flat", k, np.full(7, 0.75)), ('neg <&> "q"', k, -0.3 * k + 0.1), ("curve", k, np.sqrt(k) / 3)]
        buffer = io.StringIO()
        emit_svg(series, buffer, y_label="F_max <&>")
        digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
        assert digest == "bfc41288a0d3a6ad244320f193072656c08d61500be6055083521a76de179f34"

    @pytest.mark.parametrize("values, width", [([1e308, -1e308], "inf"), ([5e-324, 5e-324], "0")],
                             ids=["too-wide", "too-narrow"])
    def test_refuses_a_range_it_cannot_draw(self, values, width, tmp_path):
        with pytest.raises(ValueError, match=f"cannot draw the range .* padded width is {width}$"):
            emit_svg([("s", np.arange(2), np.array(values))], tmp_path / "never.svg")
        assert list(tmp_path.iterdir()) == []
