import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrl.cli import (
    PlotSpec,
    RunSpec,
    SweepSpec,
    main,
    parse_args,
    parse_sweep_text,
    SweepFormatError,
)
from qrl.ensemble import run_ensemble

FIGS_DIR = Path(__file__).resolve().parent.parent / "figs"


def must_not_compute(cfg):
    pytest.fail("a cell was computed")


def write_sweep(tmp_path, blocks):
    """Write a sweep config of small adn cells, block ``i`` seeded ``i`` with extra lines."""
    config = tmp_path / "grid.sweep"
    config.write_text("\n".join(
        f"noise = adn\nttau = 1\ntdec = 1\niters = 10\nrealizations = 3\nseed = {i}\n{extra}\n"
        for i, extra in enumerate(blocks, start=1)
    ))
    return config


def format_sweep(specs):
    """Sweep text with one block per spec: every key with its value, ``svg`` when set."""
    blocks = []
    for spec in specs:
        lines = [
            f"noise = {spec.noise}", f"ttau = {spec.ttau!r}", f"tdec = {spec.tdec!r}",
            f"reward = {spec.reward!r}", f"punish = {spec.punish!r}", f"iters = {spec.iters}",
            f"realizations = {spec.realizations}", f"seed = {spec.seed}",
            f"dual_basis = {spec.dual_basis}", f"out = {spec.out}",
        ]
        if spec.svg is not None:
            lines.append(f"svg = {spec.svg}")
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)


names = st.text("abcxyz019_-", min_size=1, max_size=8)


@st.composite
def run_specs(draw, index):
    """A valid RunSpec whose output paths carry the block index, so no two blocks share one."""
    positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    return RunSpec(
        noise=draw(st.sampled_from(["none", "pdn", "adn"])),
        ttau=draw(positive | st.just(2 * math.pi)),
        tdec=draw(positive | st.just(math.inf)),
        reward=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
        punish=draw(st.floats(1.0, 1e3, exclude_min=True)),
        iters=draw(st.integers(1, 10**6)),
        realizations=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        dual_basis=draw(st.booleans()),
        out=f"{index}-{draw(names)}.csv",
        svg=draw(st.none() | names.map(lambda name: f"{index}-{name}.svg")),
    )


class TestParseArgs:
    def test_run_flag_mapping(self):
        spec = parse_args(
            ["run", "--noise", "adn", "--ttau", "6.283185307", "--tdec", "1",
             "--seed", "42", "--out", "fig1_br.csv"]
        )
        assert isinstance(spec, RunSpec)
        assert spec.noise == "adn"
        assert spec.ttau == 6.283185307
        assert spec.tdec == 1.0
        assert spec.seed == 42
        assert spec.out == "fig1_br.csv"

    def test_defaults(self):
        spec = parse_args(["run"])
        assert spec == RunSpec()
        assert (spec.reward, spec.punish, spec.iters, spec.realizations) == (0.9, 1.5, 500, 1000)
        assert spec.noise == "none" and spec.ttau == 1.0 and math.isinf(spec.tdec)
        assert spec.seed == 0 and spec.dual_basis is False

    def test_tdec_inf_token_means_noiseless(self):
        spec = parse_args(["run", "--tdec", "inf"])
        assert math.isinf(spec.tdec)
        assert spec.to_config().channel.kind == "noiseless"

    def test_two_pi_token_expands_to_double_precision(self):
        spec = parse_args(["run", "--ttau", "2pi"])
        assert spec.ttau == 2.0 * math.pi

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--reward", "1.5"],
            ["run", "--reward", "0"],
            ["run", "--punish", "1.0"],
            ["run", "--ttau", "-3"],
            ["run", "--ttau", "bogus"],
            ["run", "--tdec", "0"],
            ["run", "--iters", "0"],
            ["run", "--realizations", "0"],
            ["run", "--seed", "-1"],
            ["run", "--noise", "depolarizing"],
            ["run", "--no-such-flag"],
            ["frobnicate"],
            ["run", "--seed", str(2**64)],
            ["run", "--punish", "inf"],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.strip()

    def test_accepts_largest_seed(self):
        assert parse_args(["run", "--seed", str(2**64 - 1)]).seed == 2**64 - 1

    def test_sweep_and_plot_specs(self):
        assert parse_args(["sweep", "--config", "f.sweep"]) == SweepSpec(config="f.sweep")
        spec = parse_args(["plot", "--csv", "a.csv", "b.csv", "--out", "x.svg"])
        assert spec == PlotSpec(csv=["a.csv", "b.csv"], out="x.svg", column="F_max")

    def test_plot_requires_csv(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(["plot", "--out", "x.svg"])
        assert excinfo.value.code == 2


class TestSweepText:
    def test_blocks_comments_and_defaults(self):
        text = """
        # grid header comment
        noise = adn
        ttau = 2pi   # degenerate evolution time
        tdec = 1
        out = a.csv

        noise = none
        dual-basis = true
        out = b.csv
        """
        specs = parse_sweep_text("\n".join(line.strip() for line in text.splitlines()))
        assert len(specs) == 2
        assert specs[0].noise == "adn" and specs[0].ttau == 2 * math.pi
        assert specs[0].reward == 0.9  # default fills unset keys
        assert specs[1].dual_basis is True and specs[1].out == "b.csv"

    @pytest.mark.parametrize(
        "content,message",
        [
            ("noise adn", "expected 'key = value'"),
            ("frequency = 3", "unknown key"),
            ("noise = adn\nnoise = pdn", "duplicate key"),
            ("reward = 2", "reward_rate"),
            ("seed = 18446744073709551616\nout = a.csv", "master_seed"),
            ("out = a.csv\n\nout = ./a.csv", "blocks 1 and 2 both write"),
            ("out = a.csv\nsvg = ./a.csv", "block 1: out and svg both write 'a.csv'"),
            ("dual_basis = perhaps", "boolean"),
            ("# only a comment", "no run blocks"),
        ],
    )
    def test_format_errors(self, content, message):
        with pytest.raises(SweepFormatError, match=message):
            parse_sweep_text(content)

    def test_round_trip(self):
        text = (
            "noise = adn\nttau = 2pi\ntdec = 10\nreward = 0.75\npunish = 2\niters = 50\n"
            "realizations = 20\nseed = 5\ndual_basis = true\nout = x.csv\nsvg = x.svg\n"
            "\n"
            "noise = pdn\nttau = 1.5\nout = y.csv\n"
        )
        assert parse_sweep_text(text) == [
            RunSpec(noise="adn", ttau=2 * math.pi, tdec=10.0, reward=0.75, punish=2.0, iters=50,
                    realizations=20, seed=5, dual_basis=True, out="x.csv", svg="x.svg"),
            RunSpec(noise="pdn", ttau=1.5, out="y.csv"),
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(run_specs(i) for i in range(n)))))
    def test_round_trip_property(self, specs):
        assert parse_sweep_text(format_sweep(specs)) == list(specs)


class TestRunCommand:
    def test_writes_csv_deterministically(self, tmp_path):
        args = ["run", "--noise", "adn", "--ttau", "1", "--tdec", "1",
                "--iters", "20", "--realizations", "5", "--seed", "9"]
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().splitlines()
        assert lines[0] == "k,W,F_e,F_g,F_max,se_W,se_F_e,se_F_g,se_F_max"
        assert len(lines) == 21

    def test_stdout_when_out_omitted(self, capsys):
        assert main(["run", "--iters", "3", "--realizations", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("k,W,F_e,F_g,F_max")
        assert len(out.splitlines()) == 4

    def test_degenerate_run_produces_exact_cells(self, tmp_path):
        path = tmp_path / "degenerate.csv"
        assert main(["run", "--ttau", "2pi", "--iters", "10", "--realizations", "4",
                     "--seed", "3", "--out", str(path)]) == 0
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert all(row[4] == "0.866025403784" for row in rows)
        w = 1.0
        for row in rows:
            w *= 0.9
            assert row[1] == format(w, ".12g")

    def test_svg_output(self, tmp_path):
        csv_path, svg_path = tmp_path / "r.csv", tmp_path / "r.svg"
        assert main(["run", "--iters", "5", "--realizations", "2",
                     "--out", str(csv_path), "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().count("<polyline") == 1

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert main(["run", "--iters", "2", "--realizations", "2", "--out", str(target)]) == 1
        assert "qrl:" in capsys.readouterr().err

    def test_unwritable_destination_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        assert main(["run", "--out", str(tmp_path / "missing-dir" / "x.csv")]) == 1
        assert main(["run", "--out", str(tmp_path / "x.csv"), "--svg", str(tmp_path)]) == 1
        assert capsys.readouterr().err.count("qrl:") == 2
        assert not (tmp_path / "x.csv").exists()

    def test_csv_and_svg_on_one_path_exit_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        path = str(tmp_path / "x")
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", path, "--svg", str(tmp_path / "." / "x")])
        assert excinfo.value.code == 2
        assert f"out and svg both write {path!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    def test_runs_all_blocks(self, tmp_path):
        config = tmp_path / "grid.sweep"
        config.write_text(
            "noise = adn\nttau = 1\ntdec = 1\niters = 10\nrealizations = 3\nseed = 1\nout = one.csv\n"
            "\n"
            "noise = none\nttau = 2pi\niters = 10\nrealizations = 3\nseed = 2\nout = two.csv\n"
        )
        out_dir = tmp_path / "out"
        assert main(["sweep", "--config", str(config), "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "one.csv").exists() and (out_dir / "two.csv").exists()
        again = tmp_path / "again"
        assert main(["sweep", "--config", str(config), "--out-dir", str(again)]) == 0
        assert (again / "one.csv").read_bytes() == (out_dir / "one.csv").read_bytes()

    def test_block_matches_run_command(self, tmp_path):
        config = write_sweep(tmp_path, ["out = block.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        assert main(["run", "--noise", "adn", "--ttau", "1", "--tdec", "1", "--iters", "10",
                     "--realizations", "3", "--seed", "1", "--out", str(tmp_path / "run.csv")]) == 0
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()

    def test_preserves_order_and_reproduces(self, tmp_path, monkeypatch):
        seeds = []

        def recording(cfg):
            seeds.append(cfg.master_seed)
            return run_ensemble(cfg)

        monkeypatch.setattr("qrl.cli.run_ensemble", recording)
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", "--config", str(config), "--out-dir", str(first)]) == 0
        assert main(["sweep", "--config", str(config), "--out-dir", str(second)]) == 0
        assert seeds == [1, 2, 3, 1, 2, 3]
        for name in ("b1.csv", "b2.csv", "b3.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "b1.csv").read_bytes() != (first / "b2.csv").read_bytes()

    def test_failed_compute_does_not_stop_other_blocks(self, tmp_path, monkeypatch, capsys):
        def fail_second(cfg):
            if cfg.master_seed == 2:
                raise RuntimeError("synthetic cell failure")
            return run_ensemble(cfg)

        monkeypatch.setattr("qrl.cli.run_ensemble", fail_second)
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "block 2 ('b2.csv') failed: synthetic cell failure" in err
        assert [(tmp_path / f"b{i}.csv").exists() for i in (1, 2, 3)] == [True, False, True]

    def test_failed_write_does_not_stop_other_blocks(self, tmp_path, capsys):
        (tmp_path / "b2.csv").mkdir()
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        assert "block 2 ('b2.csv') failed" in capsys.readouterr().err
        assert (tmp_path / "b1.csv").is_file() and (tmp_path / "b3.csv").is_file()

    def test_duplicate_outputs_exit_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv\nsvg = f.svg", "out = b.csv\nsvg = f.svg"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "blocks 1 and 2 both write 'f.svg'" in capsys.readouterr().err

    def test_csv_and_svg_on_one_path_exit_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", "out = b.csv\nsvg = b.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "block 2: out and svg both write 'b.csv'" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.sweep")]) == 1
        assert "qrl:" in capsys.readouterr().err

    def test_bad_config_content_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.sweep"
        config.write_text("voltage = 9\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_block_without_out_exits_2(self, tmp_path, capsys):
        config = tmp_path / "noout.sweep"
        config.write_text("noise = adn\nttau = 1\ntdec = 1\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "missing 'out'" in capsys.readouterr().err


class TestPlotCommand:
    @pytest.fixture()
    def csv_files(self, tmp_path):
        paths = []
        for i, seed in enumerate((4, 5)):
            path = tmp_path / f"series{i}.csv"
            main(["run", "--noise", "pdn", "--tdec", "2", "--iters", "8",
                  "--realizations", "3", "--seed", str(seed), "--out", str(path)])
            paths.append(path)
        return paths

    def test_plots_column_across_files(self, tmp_path, csv_files):
        out = tmp_path / "chart.svg"
        assert main(["plot", "--csv", *map(str, csv_files), "--out", str(out)]) == 0
        text = out.read_text()
        assert text.count("<polyline") == 2
        assert "series0" in text and "series1" in text

    def test_missing_column_exits_1(self, tmp_path, csv_files, capsys):
        out = tmp_path / "chart.svg"
        code = main(["plot", "--csv", str(csv_files[0]), "--column", "F_e_b1",
                     "--out", str(out)])
        assert code == 1
        assert "no column" in capsys.readouterr().err

    def test_missing_csv_exits_1(self, tmp_path, capsys):
        code = main(["plot", "--csv", str(tmp_path / "ghost.csv"), "--out",
                     str(tmp_path / "x.svg")])
        assert code == 1

    def test_ragged_csv_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,W\n1,0.5\n2\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qrl: {bad}: line 3 has 1 fields, header has 2\n"
        assert not out.exists()


class TestCheckedInSweeps:
    def test_fig1_covers_the_grid(self):
        specs = parse_sweep_text((FIGS_DIR / "fig1.sweep").read_text())
        cells = {(s.noise, round(s.ttau, 9), s.tdec) for s in specs}
        assert len(specs) == 14
        for noise in ("pdn", "adn"):
            for ttau in (1.0, round(2 * math.pi, 9)):
                for tdec in (1.0, 10.0, 100.0):
                    assert (noise, ttau, tdec) in cells
        assert ("none", 1.0, math.inf) in cells
        assert ("none", round(2 * math.pi, 9), math.inf) in cells
        assert len({s.out for s in specs}) == 14

    def test_fig2_covers_tau_one(self):
        specs = parse_sweep_text((FIGS_DIR / "fig2.sweep").read_text())
        assert len(specs) == 7
        assert all(s.ttau == 1.0 for s in specs)
        assert {s.noise for s in specs} == {"pdn", "adn", "none"}

    def test_fig3_is_dual_basis_adn(self):
        specs = parse_sweep_text((FIGS_DIR / "fig3.sweep").read_text())
        assert len(specs) == 4
        assert all(s.dual_basis for s in specs)
        assert {s.tdec for s in specs if s.noise == "adn"} == {1.0, 10.0, 100.0}
