import dataclasses
import gc
import io
import math
import os
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qrl import AlgorithmParams, Channel, EnsembleConfig, emit_csv, run_ensemble
from qrl.cli import SweepFormatError, main, parse_args, parse_sweep_text
from qrl.ensemble import run_ensembles

ROOT = Path(__file__).resolve().parent.parent
FIGS_DIR = ROOT / "figs"
NOISE_BY_KIND = {"noiseless": "none", "pdn": "pdn", "adn": "adn"}


def must_not_compute(cfg):
    pytest.fail("a cell was computed")


def is_fifo(path):
    return stat.S_ISFIFO(os.lstat(path).st_mode)


def run_cli(args, cwd):
    """Exit code and stderr of the CLI in a subprocess, so that a read which blocks fails the test."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-m", "qrl.cli", *args], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=30)
    return result.returncode, result.stderr


def write_sweep(tmp_path, blocks):
    """Write a sweep config of small adn cells, block ``i`` seeded ``i`` with extra lines."""
    config = tmp_path / "grid.sweep"
    config.write_text("\n".join(
        f"noise = adn\nttau = 1\ntdec = 1\niters = 10\nrealizations = 3\nseed = {i}\n{extra}\n"
        for i, extra in enumerate(blocks, start=1)
    ))
    return config


def format_sweep(cells):
    """Sweep text with one block per (config, out) pair: every key with its value."""
    return "\n".join(
        f"noise = {NOISE_BY_KIND[cfg.channel.kind]}\nttau = {cfg.channel.tau!r}\n"
        f"tdec = {cfg.channel.t_dec!r}\nreward = {cfg.params.reward_rate!r}\n"
        f"punish = {cfg.params.punish_rate!r}\niters = {cfg.params.iterations}\n"
        f"realizations = {cfg.n_realizations}\nseed = {cfg.master_seed}\n"
        f"dual_basis = {cfg.dual_basis}\nout = {out}\n"
        for cfg, out in cells
    )


def plot_commands(text):
    """The ``qrl plot`` commands in the comment lines of a sweep config, each split into its arguments."""
    comments = "\n".join(line[1:] for line in text.splitlines() if line.startswith("#"))
    return [shlex.split(command) for command in comments.replace("\\\n", " ").splitlines()
            if command.strip().startswith("qrl plot")]


names = st.text("abcxyz019_-", min_size=1, max_size=8)


@st.composite
def sweep_cells(draw, index):
    """A valid (config, out) pair whose out path carries the block index, so no two blocks share one."""
    positive = st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False)
    config = EnsembleConfig(
        Channel(
            kind=draw(st.sampled_from(["noiseless", "pdn", "adn"])),
            tau=draw(positive | st.just(2 * math.pi)),
            t_dec=draw(positive | st.just(math.inf)),
        ),
        AlgorithmParams(
            reward_rate=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
            punish_rate=draw(st.floats(1.0, 1e3, exclude_min=True)),
            iterations=draw(st.integers(1, 10**6)),
        ),
        n_realizations=draw(st.integers(1, 10**6)),
        master_seed=draw(st.integers(0, 2**64 - 1)),
        dual_basis=draw(st.booleans()),
    )
    return config, f"{index}-{draw(names)}.csv"


class TestParseArgs:
    def test_run_flag_mapping(self):
        ns = parse_args(
            ["run", "--noise", "adn", "--ttau", "6.283185307", "--tdec", "1",
             "--seed", "42", "--out", "fig1_br.csv"]
        )
        assert ns.command == "run"
        assert ns.config.channel.kind == "adn"
        assert ns.config.channel.tau == 6.283185307
        assert ns.config.channel.t_dec == 1.0
        assert ns.config.master_seed == 42
        assert ns.out == "fig1_br.csv"

    def test_defaults(self):
        ns = parse_args(["run"])
        assert ns.config == EnsembleConfig(Channel(kind="noiseless", tau=1.0)) and ns.out is None
        config, params = ns.config, ns.config.params
        assert (params.reward_rate, params.punish_rate, params.iterations,
                config.n_realizations) == (0.9, 1.5, 500, 1000)
        assert config.channel.kind == "noiseless" and config.channel.tau == 1.0
        assert math.isinf(config.channel.t_dec)
        assert config.master_seed == 0 and config.dual_basis is False

    def test_tdec_inf_token_means_noiseless(self):
        channel = parse_args(["run", "--tdec", "inf"]).config.channel
        assert math.isinf(channel.t_dec)
        assert channel.kind == "noiseless"

    def test_two_pi_token_expands_to_double_precision(self):
        for token in ("2pi", " 2pi "):
            assert parse_args(["run", "--ttau", token]).config.channel.tau == 2.0 * math.pi

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
            [],
        ],
    )
    def test_usage_errors_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            parse_args(argv)
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.strip()

    def test_empty_output_path_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--iters", "2", "--realizations", "2", "--out", ""])
        assert excinfo.value.code == 2
        assert "out path must not be empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_accepts_largest_seed(self):
        assert parse_args(["run", "--seed", str(2**64 - 1)]).config.master_seed == 2**64 - 1

    def test_sweep_and_plot_specs(self):
        sweep = parse_args(["sweep", "--config", "f.sweep"])
        assert vars(sweep) == {"command": "sweep", "config": "f.sweep", "out_dir": None}
        plot = parse_args(["plot", "--csv", "a.csv", "b.csv", "--out", "x.svg"])
        assert vars(plot) == {"command": "plot", "csv": ["a.csv", "b.csv"], "out": "x.svg",
                              "column": "F_max"}

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
        # a comment line inside a block does not end it
        tdec = 1
        out = a.csv

        noise = none
        dual-basis = true
        out = b.csv
        """
        cells = parse_sweep_text("\n".join(line.strip() for line in text.splitlines()))
        assert len(cells) == 2
        (first, _), (second, second_out) = cells
        assert first.channel.kind == "adn" and first.channel.tau == 2 * math.pi and first.channel.t_dec == 1.0
        assert first.params.reward_rate == 0.9  # default fills unset keys
        assert second.dual_basis is True and second_out == "b.csv"
        for spelling, dual in [("yes", True), ("1", True), ("On", True),
                               ("false", False), ("no", False), ("0", False), ("OFF", False)]:
            [(cell, _)] = parse_sweep_text(f"dual_basis = {spelling}\nout = b.csv")
            assert cell.dual_basis is dual, spelling

    @pytest.mark.parametrize(
        "content,message",
        [
            ("noise adn", "expected 'key = value'"),
            ("frequency = 3", "unknown key"),
            ("noise = adn\nnoise = pdn", "duplicate key"),
            ("reward = 2", "reward_rate"),
            ("seed = 18446744073709551616\nout = a.csv", "master_seed"),
            ("iters = 1.5", r"line 1: invalid literal for int\(\) with base 10: '1.5'"),
            ("out = a.csv\nsvg = a.svg", "unknown key 'svg'"),
            ("dual_basis = perhaps", "boolean"),
            ("# only a comment", "no run blocks"),
            ("reward = 2\nout = a.csv\n\nnoise adn", "block 1: reward_rate"),
            ("noise = adn\nout = a.csv\n\f\nbogus", "line 4: expected"),
        ],
    )
    def test_format_errors(self, content, message):
        with pytest.raises(SweepFormatError, match=message):
            parse_sweep_text(content)

    def test_outputs_are_left_to_the_sweep_command(self):
        assert [out for _, out in parse_sweep_text("out = a.csv\n\nout = a.csv")] == ["a.csv", "a.csv"]

    def test_round_trip(self):
        text = (
            "noise = adn\nttau = 2pi\ntdec = 10\nreward = 0.75\npunish = 2\niters = 50\n"
            "realizations = 20\nseed = 5\ndual_basis = true\nout = x.csv\n"
            "\n"
            "noise = pdn\nttau = 1.5\nout = y.csv\n"
        )
        assert parse_sweep_text(text) == [
            (EnsembleConfig(Channel(kind="adn", tau=2 * math.pi, t_dec=10.0),
                            AlgorithmParams(reward_rate=0.75, punish_rate=2.0, iterations=50),
                            n_realizations=20, master_seed=5, dual_basis=True), "x.csv"),
            (EnsembleConfig(Channel(kind="pdn", tau=1.5)), "y.csv"),
        ]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(*(sweep_cells(i) for i in range(n)))))
    def test_round_trip_property(self, cells):
        assert parse_sweep_text(format_sweep(cells)) == list(cells)


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

    def test_out_then_plot(self, tmp_path):
        csv_path, svg_path = tmp_path / "r.csv", tmp_path / "r.svg"
        assert main(["run", "--iters", "5", "--realizations", "2", "--out", str(csv_path)]) == 0
        assert main(["plot", "--csv", str(csv_path), "--out", str(svg_path)]) == 0
        assert svg_path.read_text().count("<polyline") == 1

    def test_bare_run_is_the_library_default_cell(self, tmp_path):
        path = tmp_path / "r.csv"
        assert main(["run", "--iters", "40", "--realizations", "30", "--out", str(path)]) == 0
        expected = io.StringIO()
        emit_csv(run_ensemble(EnsembleConfig(Channel(), AlgorithmParams(iterations=40), 30)), expected)
        assert path.read_bytes() == expected.getvalue().encode()

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "x.csv"
        assert main(["run", "--iters", "2", "--realizations", "2", "--out", str(target)]) == 1
        assert "qrl:" in capsys.readouterr().err

    def test_unallocatable_cell_exits_1(self, tmp_path, capsys):
        # 4 x 10^16 doubles (284 PiB) exceed any 64-bit address space, so the allocation fails at once.
        out = tmp_path / "x.csv"
        assert main(["run", "--iters", str(10**16), "--realizations", "2", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qrl: Unable to allocate") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_destination_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        assert main(["run", "--out", str(tmp_path / "missing-dir" / "x.csv")]) == 1
        assert main(["run", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err.count("qrl:") == 2
        assert list(tmp_path.iterdir()) == []

    def test_fifo_out_exits_1_before_computing(self, tmp_path, monkeypatch, capsys):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        assert main(["run", "--out", str(fifo)]) == 1
        assert capsys.readouterr().err == f"qrl: {fifo}: exists and is not a regular file\n"
        assert is_fifo(fifo)

    def test_link_out_replaces_its_target(self, tmp_path):
        args = ["run", "--noise", "pdn", "--tdec", "2", "--iters", "6", "--realizations", "3"]
        target, link, direct = tmp_path / "target.csv", tmp_path / "link.csv", tmp_path / "direct.csv"
        target.write_text("old\n")
        link.symlink_to(target.name)
        assert main(args + ["--out", str(link)]) == 0
        assert main(args + ["--out", str(direct)]) == 0
        assert link.is_symlink() and os.readlink(link) == target.name
        assert target.read_bytes() == direct.read_bytes()
        assert sorted(tmp_path.iterdir()) == [direct, link, target]

    def test_svg_flag_exits_2_before_computing(self, tmp_path, monkeypatch, capsys):
        # Charts come from ``qrl plot``; ``run`` writes only the CSV.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qrl.cli.run_ensemble", must_not_compute)
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--out", "a.csv", "--svg", "x.svg"])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --svg" in capsys.readouterr().err
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
        again = tmp_path / "nested" / "again"
        assert main(["sweep", "--config", str(config), "--out-dir", str(again)]) == 0
        assert (again / "one.csv").read_bytes() == (out_dir / "one.csv").read_bytes()

    def test_block_matches_run_command(self, tmp_path):
        config = write_sweep(tmp_path, ["out = block.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        assert main(["run", "--noise", "adn", "--ttau", "1", "--tdec", "1", "--iters", "10",
                     "--realizations", "3", "--seed", "1", "--out", str(tmp_path / "run.csv")]) == 0
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "run.csv").read_bytes()

    def check_blocks_match_run_command(self, tmp_path, blocks, iters):
        """Sweep ``blocks`` (key -> value) seeded 1, 2, ..., then check each CSV against ``qrl run``."""
        config = tmp_path / "grid.sweep"
        config.write_text("\n".join(
            "".join(f"{key} = {value}\n" for key, value in block.items())
            + f"iters = {iters}\nrealizations = 3\nseed = {i}\nout = b{i}.csv\n"
            for i, block in enumerate(blocks, start=1)
        ))
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        for i, block in enumerate(blocks, start=1):
            flags = [arg for key, value in block.items()
                     for arg in (["--dual-basis"] if key == "dual_basis" else [f"--{key}", value])]
            alone = tmp_path / f"alone{i}.csv"
            assert main(["run", *flags, "--iters", str(iters), "--realizations", "3", "--seed", str(i),
                         "--out", str(alone)]) == 0
            assert (tmp_path / f"b{i}.csv").read_bytes() == alone.read_bytes()

    def test_batched_blocks_match_run_command(self, tmp_path):
        # Blocks 1-4 share one engine run, dual-basis block 4 included; block 5 has its own rates.
        blocks = [{"noise": "adn", "tdec": "1"}, {"noise": "pdn", "tdec": "10"},
                  {"noise": "none", "ttau": "2pi"}, {"noise": "adn", "dual_basis": "true"},
                  {"noise": "pdn", "reward": "0.8"}]
        self.check_blocks_match_run_command(tmp_path, blocks, iters=10)

    def test_mixed_basis_figure_blocks_make_one_engine_run(self, tmp_path, engine_passes):
        # Narrow single-basis blocks, then dual-basis ones like figure 3's.
        blocks = [{"noise": "pdn", "ttau": "1", "tdec": "10"}, {"noise": "adn", "ttau": "2pi", "tdec": "1"},
                  {"noise": "none", "ttau": "2pi"}, {"noise": "adn", "ttau": "1", "tdec": "1", "dual_basis": "true"},
                  {"noise": "none", "ttau": "1", "dual_basis": "true"}]
        self.check_blocks_match_run_command(tmp_path, blocks, iters=70)
        # One engine run for the sweep, then one per block run alone.
        assert [dual for _, dual in engine_passes] == [True] + ["dual_basis" in b for b in blocks]

    def test_preserves_order_and_reproduces(self, tmp_path, monkeypatch):
        seeds = []

        def recording(cfgs):
            for cfg, stats in zip(cfgs, run_ensembles(cfgs)):
                seeds.append(cfg.master_seed)
                yield stats

        monkeypatch.setattr("qrl.cli.run_ensembles", recording)
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", "--config", str(config), "--out-dir", str(first)]) == 0
        assert main(["sweep", "--config", str(config), "--out-dir", str(second)]) == 0
        assert seeds == [1, 2, 3, 1, 2, 3]
        for name in ("b1.csv", "b2.csv", "b3.csv"):
            assert (first / name).read_bytes() == (second / name).read_bytes()
        assert (first / "b1.csv").read_bytes() != (first / "b2.csv").read_bytes()

    def test_failed_compute_does_not_stop_other_blocks(self, tmp_path, monkeypatch, capsys):
        calls = []

        def fail_second(cfgs):  # a shared run fails at block 2, and so does block 2 alone
            calls.append([cfg.master_seed for cfg in cfgs])
            for cfg, stats in zip(cfgs, run_ensembles(cfgs)):
                if cfg.master_seed == 2:
                    raise RuntimeError("synthetic cell failure")
                yield stats

        monkeypatch.setattr("qrl.cli.run_ensembles", fail_second)
        monkeypatch.setattr("qrl.cli.run_ensemble", lambda cfg: next(fail_second([cfg])))  # the reruns
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "block 2 ('b2.csv') failed: synthetic cell failure" in err
        assert calls == [[1, 2, 3], [2], [3]]  # the blocks not yet written rerun one by one
        assert [(tmp_path / f"b{i}.csv").exists() for i in (1, 2, 3)] == [True, False, True]

    def test_failed_write_does_not_stop_other_blocks(self, tmp_path, capsys):
        (tmp_path / "b2.csv").mkdir()
        config = write_sweep(tmp_path, ["out = b1.csv", "out = b2.csv", "out = b3.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        assert "block 2 ('b2.csv') failed" in capsys.readouterr().err
        assert (tmp_path / "b1.csv").is_file() and (tmp_path / "b3.csv").is_file()

    def test_duplicate_outputs_exit_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", "out = b.csv", "out = a.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "blocks 1 and 3 both write 'a.csv'" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()

    def test_one_file_named_two_ways_exits_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", "out = ./a.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "blocks 1 and 2 both write 'a.csv'" in capsys.readouterr().err

    def test_fifo_block_fails_before_computing(self, tmp_path, monkeypatch, capsys):
        seeds = []

        def recording(cfgs):
            seeds.extend(cfg.master_seed for cfg in cfgs)
            return run_ensembles(cfgs)

        os.mkfifo(tmp_path / "fifo")
        monkeypatch.setattr("qrl.cli.run_ensembles", recording)
        config = write_sweep(tmp_path, ["out = fifo", "out = b2.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 1
        assert "block 1 ('fifo') failed" in capsys.readouterr().err
        assert seeds == [2]
        assert is_fifo(tmp_path / "fifo") and (tmp_path / "b2.csv").is_file()

    def test_link_and_its_target_exit_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        (tmp_path / "link.csv").symlink_to("a.csv")
        config = write_sweep(tmp_path, ["out = a.csv", "out = link.csv"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "blocks 1 and 2 both write 'a.csv'" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_out_naming_the_config_exits_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", "out = grid.sweep"])
        before = config.read_bytes()
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "block 2: out names the config file" in capsys.readouterr().err
        assert config.read_bytes() == before
        assert not (tmp_path / "a.csv").exists()

    def test_svg_key_exits_2_before_computing(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", "out = b.csv\nsvg = a.svg"])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "unknown key 'svg'" in capsys.readouterr().err
        assert not (tmp_path / "a.csv").exists()

    def test_outputs_compared_under_out_dir(self, tmp_path, monkeypatch, capsys):
        # Block 2 names block 1's file by its absolute path under --out-dir.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a2.csv", f"out = {tmp_path / 'o' / 'a2.csv'}"])
        assert main(["sweep", "--config", str(config), "--out-dir", "o"]) == 2
        assert "blocks 1 and 2 both write 'a2.csv'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_config_file_exits_1(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path / "nope.sweep")]) == 1
        assert "qrl:" in capsys.readouterr().err

    def test_fifo_config_exits_1(self, tmp_path):
        fifo = tmp_path / "grid.sweep"
        os.mkfifo(fifo)
        assert run_cli(["sweep", "--config", str(fifo)], tmp_path) == (
            1, f"qrl: {fifo}: exists and is not a regular file\n")
        assert is_fifo(fifo)

    def test_undecodable_config_names_its_file(self, tmp_path, capsys):
        config = tmp_path / "latin1.sweep"
        config.write_bytes(b"noise = adn\n# r\xe9glage\nout = a.csv\n")
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith(f"qrl: {config}: 'utf-8' codec can't decode byte 0xe9")
        assert not (tmp_path / "o").exists()

    def test_bad_config_content_exits_2(self, tmp_path, capsys):
        config = tmp_path / "bad.sweep"
        config.write_text("voltage = 9\n")
        assert main(["sweep", "--config", str(config)]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["out =", "out = # the comment leaves no path"])
    def test_empty_output_path_exits_2(self, line, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr("qrl.cli.run_ensembles", must_not_compute)
        config = write_sweep(tmp_path, ["out = a.csv", line])
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path / "o")]) == 2
        assert "block 2: out path must not be empty" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

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
        out = tmp_path / "x.svg"
        # The second row follows a quoted field that spans lines 2 to 4.
        for text, line, fields in [("k,W\n1,0.5\n2\n", 3, 1), ('k,W\n1,"0.5\n\n"\n2,0.4,9\n', 5, 3)]:
            bad.write_text(text)
            assert main(["plot", "--csv", str(bad), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"qrl: {bad}: line {line} has {fields} fields, header has 2\n"
            assert not out.exists()

    def test_undecodable_csv_names_its_file(self, tmp_path, csv_files, capsys):
        # With several inputs, only the path says which one is bad.
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"k,W\n1,\xff\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(csv_files[0]), str(bad), "--column", "W", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"qrl: {bad}: 'utf-8' codec can't decode byte 0xff in position 6")
        assert not out.exists()

    def test_non_finite_value_names_its_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,W\n1,nan\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--column", "W", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "qrl: series 'bad' contains non-finite values\n"
        assert not out.exists()

    def test_header_only_csv_exits_1_naming_the_series(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("k,W\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(empty), "--column", "W", "--out", str(out)]) == 1
        assert "series 'empty' is empty" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_csv_exits_1_naming_its_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_bytes(b"")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(empty), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qrl: {empty}: empty CSV\n"
        assert not out.exists()

    def test_csv_without_k_column_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "nok.csv"
        bad.write_text("W,F_max\n0.5,0.9\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"qrl: {bad}: no column 'k' (available: W, F_max)\n"
        assert not out.exists()

    def test_unparsable_field_names_path_and_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("k,F_max\n1,0.5\n1.5,0.9\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qrl: {bad}: line 3: invalid literal for int()") and "'1.5'" in err
        assert not out.exists()

    @pytest.mark.parametrize("text, line", [("k,W\n1,0.5\n100000000000000000000000000000,0.6\n", 3),
                                            ("k,W\n1," + "5" * 131073 + "\n", 2),
                                            ('k,W\n1,"0.5\n"\nx,0.3\n', 4),
                                            ('k,W\n1,"0\n.\n5"\n', 2)],
                             ids=["k-outside-int64", "field-over-the-csv-limit", "row-after-a-quoted-line-break",
                                  "field-with-line-breaks"])
    def test_unreadable_field_names_path_and_line(self, text, line, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--column", "W", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qrl: {bad}: line {line}: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("values", ["1e308\n2,-1e308", "5e-324\n2,5e-324"], ids=["too-wide", "too-narrow"])
    def test_range_it_cannot_draw_exits_1(self, values, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"k,W\n1,{values}\n")
        out = tmp_path / "x.svg"
        assert main(["plot", "--csv", str(bad), "--column", "W", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("qrl: cannot draw the range ") and err.count("\n") == 1
        assert not out.exists()

    def test_out_equal_to_an_input_exits_2(self, tmp_path, csv_files, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        before = csv_files[1].read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "--csv", str(csv_files[0]), "series1.csv", "--out", str(csv_files[1])])
        assert excinfo.value.code == 2
        assert "is one of the csv inputs" in capsys.readouterr().err
        assert csv_files[1].read_bytes() == before

    def test_unwritable_out_exits_1_before_reading(self, tmp_path, csv_files, monkeypatch, capsys):
        def must_not_read(path):
            pytest.fail("an input was read")

        monkeypatch.setattr("qrl.cli.read_csv", must_not_read)
        out = tmp_path / "missing-dir" / "x.svg"
        assert main(["plot", "--csv", *map(str, csv_files), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(out) in err and ".tmp" not in err

    def test_fifo_out_exits_1_before_reading(self, tmp_path, csv_files, monkeypatch, capsys):
        def must_not_read(path):
            pytest.fail("an input was read")

        monkeypatch.setattr("qrl.cli.read_csv", must_not_read)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        assert main(["plot", "--csv", *map(str, csv_files), "--out", str(fifo)]) == 1
        assert str(fifo) in capsys.readouterr().err
        assert is_fifo(fifo)

    def test_fifo_csv_exits_1_before_any_input_is_read(self, tmp_path):
        # Reading the FIFO would block; reading the bad CSV before it would name that file instead.
        bad, fifo, out = tmp_path / "bad.csv", tmp_path / "fifo.csv", tmp_path / "chart.svg"
        bad.write_text("k,W\n1,0.5\n2\n")
        os.mkfifo(fifo)
        assert run_cli(["plot", "--csv", str(bad), str(fifo), "--out", str(out)], tmp_path) == (
            1, f"qrl: {fifo}: exists and is not a regular file\n")
        assert is_fifo(fifo) and not out.exists()

    def test_config_and_csv_with_a_byte_order_mark(self, tmp_path):
        # Windows editors and Excel's "CSV UTF-8" start a file with the UTF-8 byte-order mark.
        config = write_sweep(tmp_path, ["out = a.csv"])
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert main(["sweep", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "a.csv").read_bytes())
        for name in ("a", "marked"):
            assert main(["plot", "--csv", str(tmp_path / f"{name}.csv"), "--out", str(tmp_path / f"{name}.svg")]) == 0
        assert (tmp_path / "marked.svg").read_text() == (tmp_path / "a.svg").read_text().replace(">a<", ">marked<")

    def test_out_linking_to_an_input_exits_2(self, tmp_path, csv_files, capsys):
        link = tmp_path / "chart.svg"
        link.symlink_to(csv_files[1])
        before = csv_files[1].read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", "--csv", *map(str, csv_files), "--out", str(link)])
        assert excinfo.value.code == 2
        assert "is one of the csv inputs" in capsys.readouterr().err
        assert csv_files[1].read_bytes() == before and link.is_symlink()


class TestProgramEntry:
    # The program entry freezes import-time objects, so its exit does not collect them.
    def test_module_entry_freezes_gc(self, tmp_path):
        script = ("import gc, runpy\ntry:\n    runpy.run_module('qrl.cli', run_name='__main__')\n"
                  "except SystemExit as exit:\n    print(exit.code, gc.get_freeze_count())\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        args = ["run", "--iters", "3", "--realizations", "2", "--out", "a.csv"]
        result = subprocess.run([sys.executable, "-c", script, *args], cwd=tmp_path, env=env,
                                capture_output=True, text=True, timeout=30)
        assert result.returncode == 0, result.stderr
        code, frozen = map(int, result.stdout.split())
        assert code == 0 and frozen > 0
        assert main([*args[:-1], str(tmp_path / "b.csv")]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_main_in_process_leaves_gc_as_it_was(self, tmp_path):
        before = gc.get_freeze_count()
        assert main(["run", "--iters", "3", "--realizations", "2", "--out", str(tmp_path / "a.csv")]) == 0
        assert gc.get_freeze_count() == before

    def test_console_script_is_the_entry(self):
        assert 'qrl = "qrl.cli:entry"' in (ROOT / "pyproject.toml").read_text()


class TestCheckedInSweeps:
    def test_fig1_covers_the_grid(self):
        cells = parse_sweep_text((FIGS_DIR / "fig1.sweep").read_text())
        grid = {(c.channel.kind, round(c.channel.tau, 9), c.channel.t_dec) for c, _ in cells}
        assert len(cells) == 14
        for kind in ("pdn", "adn"):
            for ttau in (1.0, round(2 * math.pi, 9)):
                for tdec in (1.0, 10.0, 100.0):
                    assert (kind, ttau, tdec) in grid
        assert ("noiseless", 1.0, math.inf) in grid
        assert ("noiseless", round(2 * math.pi, 9), math.inf) in grid
        assert len({out for _, out in cells}) == 14
        # Figure 3 reads the flipped-bit columns of the adn and noiseless ttau = 1 cells.
        dual = {(c.channel.kind, round(c.channel.tau, 9), c.channel.t_dec) for c, _ in cells if c.dual_basis}
        assert dual == {("adn", 1.0, 1.0), ("adn", 1.0, 10.0), ("adn", 1.0, 100.0), ("noiseless", 1.0, math.inf)}

    def test_fig1_plot_commands_draw_from_its_csvs(self, tmp_path, monkeypatch):
        text = (FIGS_DIR / "fig1.sweep").read_text()
        small = [(dataclasses.replace(cfg, n_realizations=2, params=dataclasses.replace(cfg.params, iterations=2)),
                  out) for cfg, out in parse_sweep_text(text)]
        config = tmp_path / "small.sweep"
        config.write_text(format_sweep(small))
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--config", str(config), "--out-dir", "out"]) == 0
        commands = plot_commands(text)
        assert len(commands) == 6  # one figure 1 panel, four figure 2 charts, figure 3
        for argv in commands:
            args = []
            for arg in argv[2:]:
                matches = sorted(map(str, Path().glob(arg))) if arg.startswith("out/") else [arg]
                assert matches, arg
                args += matches
            assert main(["plot", *args]) == 0, argv
