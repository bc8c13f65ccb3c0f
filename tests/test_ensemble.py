import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import overlap_magnitude
from qrl import ensemble, run_realization
from qrl.agent import BLOCK, AlgorithmParams
from qrl.channels import EXCITED, GROUND, Channel
from qrl.ensemble import EnsembleConfig, mix_seed, run_ensemble, run_ensembles

STAT_NAMES = ("w", "f_e", "f_g", "f_max", "se_w", "se_f_e", "se_f_g", "se_f_max",
              "f_e_b1", "f_g_b1", "se_f_e_b1", "se_f_g_b1")
SQRT3_HALF = math.sqrt(3) / 2


def small_config(kind="adn", tau=1.0, t_dec=1.0, n=20, iters=60, seed=0, dual=False):
    return EnsembleConfig(
        channel=Channel(kind=kind, tau=tau, t_dec=t_dec),
        params=AlgorithmParams(iterations=iters),
        n_realizations=n,
        master_seed=seed,
        dual_basis=dual,
    )


class TestMixSeed:
    def test_splitmix64_vectors(self):
        # Published splitmix64 outputs for the all-zero initial state.
        assert mix_seed(0, 0) == 0xE220A8397B1DCDAF
        assert mix_seed(0, 1) == 0x6E789E6AA1B965F4
        assert mix_seed(0, 2) == 0x06C45D188009454F

    def test_distinct_and_stable(self):
        seeds = [mix_seed(99, i) for i in range(1000)]
        assert len(set(seeds)) == 1000
        assert seeds == [mix_seed(99, i) for i in range(1000)]
        assert all(0 <= s < 2**64 for s in seeds)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="index"):
            mix_seed(0, -1)

    def test_rejects_a_master_seed_outside_64_bits(self):
        # Reduced mod 2**64, -1 would alias 2**64 - 1 and 2**64 would alias 0.
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match=r"master_seed must be an integer in \[0, 2\*\*64\)"):
                mix_seed(seed, 0)
        assert mix_seed(2**64 - 1, 0) == 16490336266968443936

    def test_takes_numpy_integers_and_refuses_a_bool(self):
        # What EnsembleConfig takes as a master seed: numpy integers stand for their value, a bool for none.
        assert mix_seed(np.int64(5), np.int64(1)) == mix_seed(np.uint64(5), np.uint8(1)) == mix_seed(5, 1)
        assert mix_seed(np.uint64(2**63), 1) == mix_seed(2**63, 1)
        for seed in (True, False, 1.5, "3"):
            with pytest.raises(ValueError, match=r"master_seed must be an integer in \[0, 2\*\*64\), got "):
                mix_seed(seed, 0)

    def test_rejects_an_index_outside_64_bits_or_a_bool(self):
        # Reduced mod 2**64, 2**64 would replay realization 0, and True would replay realization 1.
        for index in (2**64, True, 1.5):
            with pytest.raises(ValueError, match=r"realization index must be an integer in \[0, 2\*\*64\)"):
                mix_seed(0, index)
        assert mix_seed(0, 2**64 - 1) == 0  # the state 2**64 * 0x9E37... wraps to splitmix64's fixed point 0


class TestConfig:
    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="n_realizations must be an integer >= 1, got 0"):
            small_config(n=0)

    @pytest.mark.parametrize("value", [10.0, "10", None, True, False])
    @pytest.mark.parametrize("field, arg", [("iterations", "iters"), ("n_realizations", "n"), ("master_seed", "seed")])
    def test_rejects_a_non_integer_count_when_built(self, field, arg, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_config(**{arg: value})

    def test_numpy_integer_counts_are_stored_as_ints(self):
        config = small_config(n=np.int32(3), iters=np.int64(5), seed=np.int64(7))
        plain = small_config(n=3, iters=5, seed=7)
        assert config == plain
        assert {type(v) for v in (config.n_realizations, config.master_seed, config.params.iterations)} == {int}
        assert run_ensemble(config).f_max.tobytes() == run_ensemble(plain).f_max.tobytes()

    @pytest.mark.parametrize("field, value", [
        ("channel", "adn"), ("channel", None), ("params", None), ("params", {"iterations": 5}),
        ("dual_basis", "false"), ("dual_basis", 1), ("dual_basis", None),
    ])
    def test_rejects_a_field_of_the_wrong_type_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be"):
            dataclasses.replace(small_config(), **{field: value})

    def test_numpy_scalars_are_stored_as_python_values(self):
        config = EnsembleConfig(Channel(np.str_("adn"), np.float32(0.5), np.float64(2.0)),
                                AlgorithmParams(np.float64(0.75), np.float32(1.25), 60), 3, dual_basis=np.True_)
        plain = EnsembleConfig(Channel("adn", 0.5, 2.0), AlgorithmParams(0.75, 1.25, 60), 3, dual_basis=True)
        assert config == plain
        values = (config.channel.tau, config.channel.t_dec, config.params.reward_rate, config.params.punish_rate)
        assert {type(v) for v in values} == {float} and type(config.dual_basis) is bool
        assert type(config.channel.kind) is str

    def test_seed_range_is_64_bit(self):
        assert small_config(seed=2**64 - 1).master_seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                small_config(seed=seed)

    def test_equal_fields_give_equal_configs(self):
        assert small_config() == small_config()
        assert hash(small_config()) == hash(small_config())
        assert small_config(kind="noiseless", t_dec=5.0) == small_config(kind="noiseless", t_dec=1.0)
        assert small_config(dual=True) != small_config()
        assert small_config(seed=1) != small_config()


class TestRunEnsemble:
    def test_degenerate_time_is_exact(self):
        # Every realization is identical at tau = 2 pi, so the means are
        # bit-exact constants and the standard errors vanish.
        cfg = small_config(kind="noiseless", tau=2 * math.pi, t_dec=math.inf, n=25, iters=40)
        stats = run_ensemble(cfg)
        assert np.all(stats.f_max == SQRT3_HALF)
        expected_w, reward = [], 1.0
        for _ in range(40):
            reward *= cfg.params.reward_rate
            expected_w.append(reward)
        assert stats.w.tolist() == expected_w
        assert np.all(stats.se_w == 0.0)
        assert np.all(stats.se_f_max == 0.0)

    def test_single_realization_equals_its_records(self):
        cfg = small_config(n=1, seed=31)
        stats = run_ensemble(cfg)
        records = run_realization(cfg.channel, cfg.params, mix_seed(31, 0))
        assert stats.w.tolist() == [r.w for r in records]
        assert stats.f_e.tolist() == [r.f_e for r in records]
        assert stats.f_max.tolist() == [r.f_max for r in records]
        assert np.all(stats.se_w == 0.0)

    def test_chunk_size_does_not_change_bits(self, monkeypatch):
        for dual in (False, True):
            # Two full blocks of iterations and a partial third.
            cfg = small_config(n=30, iters=2 * BLOCK + 22, seed=8, dual=dual)
            whole = run_ensemble(cfg)  # one chunk
            # Chunks of 1, 7 and 29 realizations; the last chunk of 7 and of 29 is partial.
            for chunk in (1, 7, 29):
                monkeypatch.setattr(ensemble, "_CHUNK_REALIZATIONS", chunk)
                chunked = run_ensemble(cfg)
                for name in STAT_NAMES:
                    np.testing.assert_array_equal(getattr(chunked, name), getattr(whole, name))
            monkeypatch.undo()

    def test_means_and_errors_match_batch_formulas(self):
        # Streaming moments against plain numpy mean/std over the full
        # realization matrix.
        cfg = small_config(n=15, iters=30, seed=4)
        stats = run_ensemble(cfg)
        rows = [
            [r.w for r in run_realization(cfg.channel, cfg.params, mix_seed(4, i))]
            for i in range(15)
        ]
        matrix = np.array(rows)
        np.testing.assert_allclose(stats.w, matrix.mean(axis=0), atol=1e-13)
        np.testing.assert_allclose(
            stats.se_w, matrix.std(axis=0, ddof=1) / math.sqrt(15), atol=1e-13
        )

    def test_two_realizations_have_standard_errors(self):
        # The smallest ensemble with a spread, over two iteration blocks.
        for dual in (False, True):
            cfg = small_config(n=2, iters=BLOCK + 6, seed=6, dual=dual)
            stats = run_ensemble(cfg)
            records = [run_realization(cfg.channel, cfg.params, mix_seed(6, i)) for i in range(2)]
            names = ("w", "f_e", "f_g", "f_max", "f_e_b1", "f_g_b1")[: 6 if dual else 4]
            for name in names:
                x = np.array([[getattr(r, name) for r in realization] for realization in records])
                expected = np.std(x, axis=0, ddof=1) / math.sqrt(2)
                np.testing.assert_allclose(getattr(stats, f"se_{name}"), expected, rtol=1e-12)
            assert any(np.any(getattr(stats, f"se_{name}") > 0) for name in names)

    def test_stats_bounds_and_lengths(self):
        cfg = small_config(kind="pdn", n=10, iters=25, dual=True)
        stats = run_ensemble(cfg)
        assert stats.iterations == 25
        for name in ("w", "f_e", "f_g", "f_max", "f_e_b1", "f_g_b1"):
            values = getattr(stats, name)
            assert len(values) == 25
            assert np.all((0.0 <= values) & (values <= 1.0))
        assert stats.se_f_e_b1 is not None

    def test_plain_run_has_no_dual_columns(self):
        stats = run_ensemble(small_config(n=5, iters=10))
        assert stats.f_e_b1 is None and stats.se_f_g_b1 is None


class TestRunningMoments:
    @settings(max_examples=300, deadline=None)
    @given(base=st.floats(-1.0, 1.0), ulps=st.lists(st.lists(st.integers(-4, 4), min_size=6, max_size=6),
                                                    min_size=2, max_size=30), split=st.integers(0, 30))
    def test_scatter_of_nearly_equal_values_is_never_negative(self, base, ulps, split):
        # Values a few ulps apart: the case where a rounded mean could overshoot a value.
        block = (base + np.array(ulps) * np.spacing(base)).reshape(len(ulps), 2, 3)  # (n, columns, b)
        moments = ensemble._RunningMoments(2, 3)
        split = min(split, len(ulps))
        moments.add_block(0, 0, block[:split])
        moments.add_block(split, 0, block[split:])
        assert np.all(moments._m2 >= 0) and not np.signbit(moments._m2).any()


def raw_bytes(stats):
    """Every array of ``stats``, in field order, as raw bytes."""
    return [getattr(stats, name).tobytes() for name in STAT_NAMES if getattr(stats, name) is not None]


class TestRunEnsembles:
    # Cells of one sweep batched through shared lockstep chunks, against
    # ``run_ensemble`` of each cell alone, by raw bytes.
    CHANNELS = [
        ("noiseless", 1.0, math.inf), ("pdn", 2 * math.pi, 1.0), ("adn", 0.37, 10.0),
        ("adn", 1.0, math.inf), ("pdn", 0.37, 10.0), ("noiseless", 2 * math.pi, math.inf),
        ("adn", 2 * math.pi, 1.0), ("pdn", 1.0, math.inf), ("adn", 1.0, 1.0),
    ]
    SIZES = [1, 5, 37, 2, 13, 1, 30, 7, 20]

    def cells(self, dual, iters=BLOCK + 6):  # a full block of iterations and a partial one
        return [
            small_config(kind, tau, t_dec, n=n, iters=iters, seed=100 + i, dual=dual)
            for i, ((kind, tau, t_dec), n) in enumerate(zip(self.CHANNELS, self.SIZES))
        ]

    def run_recorded(self, cfgs, monkeypatch, engine_passes, chunk, moment_bytes=None):
        """Stats of ``cfgs`` batched in chunks of ``chunk`` realizations, and the cells of each chunk."""
        monkeypatch.setattr(ensemble, "_CHUNK_REALIZATIONS", chunk)
        if moment_bytes is not None:
            monkeypatch.setattr(ensemble, "_CHUNK_BYTES", moment_bytes)
        engine_passes.clear()  # the passes of the cells run alone
        stats = list(run_ensembles(cfgs))
        monkeypatch.undo()
        return stats, [cells for cells, _ in engine_passes]

    @pytest.mark.parametrize("dual", [False, True])
    def test_batched_cells_equal_cells_alone(self, dual, monkeypatch, engine_passes):
        cfgs = self.cells(dual)
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=16)
        assert [raw_bytes(s) for s in stats] == alone
        # Whole cells pack while they fit; a cell wider than the room left starts
        # a new chunk, and one wider than a chunk is split, its last part left open.
        assert [[count for _, count in runs] for runs in chunks] == [
            [1, 5], [16], [16], [5, 2], [13, 1], [16], [14], [7], [16], [4],
        ]
        assert chunks[0] == [("noiseless", 1), ("pdn", 5)] and chunks[3] == [("adn", 5), ("adn", 2)]

    def test_cells_wider_than_a_chunk_are_split_as_alone(self, monkeypatch, engine_passes):
        cfgs = [small_config("adn", n=9, seed=1), small_config("pdn", n=3, seed=2),
                small_config("noiseless", n=4, seed=3)]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=4)
        assert [raw_bytes(s) for s in stats] == alone
        assert chunks == [[("adn", 4)], [("adn", 4)], [("adn", 1), ("pdn", 3)], [("noiseless", 4)]]

    def test_cells_that_differ_in_params_do_not_share_a_chunk(self, monkeypatch, engine_passes):
        cfgs = [small_config(n=3, seed=1), small_config(n=3, seed=2, dual=True),
                small_config(n=3, seed=3, iters=61), small_config(n=3, seed=4, iters=61),
                EnsembleConfig(channel=Channel(kind="adn", tau=1.0, t_dec=1.0), n_realizations=3,
                               params=AlgorithmParams(punish_rate=2.0, iterations=61))]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=100)
        assert [raw_bytes(s) for s in stats] == alone
        assert [[count for _, count in runs] for runs in chunks] == [[3, 3], [3, 3], [3]]

    @pytest.mark.parametrize("order", [1, -1])
    def test_single_and_dual_basis_cells_share_a_chunk(self, order, engine_passes):
        # A dual-basis chunk: the single-basis cells fold only their 4 columns, with their own bits.
        cfgs = [small_config("pdn", n=37, iters=BLOCK + 6, seed=1, dual=True),
                small_config("adn", n=200, iters=BLOCK + 6, seed=2),
                small_config("noiseless", n=5, iters=BLOCK + 6, seed=3, dual=True),
                small_config("adn", tau=2 * math.pi, n=300, iters=BLOCK + 6, seed=4)][::order]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        engine_passes.clear()  # the passes of the cells run alone
        assert [raw_bytes(s) for s in run_ensembles(cfgs)] == alone
        assert [([count for _, count in cells], dual) for cells, dual in engine_passes] == [
            ([37, 200, 5, 300][::order], True)
        ]

    def test_dual_cells_count_against_the_same_capacity(self, monkeypatch, engine_passes):
        # Chunks hold 10 realizations whatever their column count, with a dual cell or without.
        cfgs = [small_config(n=9, seed=1), small_config(n=1, seed=2, dual=True),
                small_config(n=7, seed=3), small_config(n=1, seed=4), small_config(n=2, seed=5, dual=True)]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=10)
        assert [raw_bytes(s) for s in stats] == alone
        assert [[count for _, count in runs] for runs in chunks] == [[9, 1], [7, 1, 2]]

    def test_default_size_dual_cells_run_whole(self, engine_passes):
        # Two 1000-realization dual-basis cells: one engine pass each at the default sizes.
        cfgs = [EnsembleConfig(channel=Channel(kind="adn", tau=1.0, t_dec=1.0), master_seed=seed,
                               params=AlgorithmParams(iterations=2), dual_basis=True) for seed in (1, 2)]
        assert [stats.n_realizations for stats in run_ensembles(cfgs)] == [1000, 1000]
        assert engine_passes == [([("adn", 1000)], True)] * 2  # six columns do not shrink a chunk

    def test_cells_share_a_chunk_only_while_their_moments_fit(self, monkeypatch, engine_passes):
        # At 700 iterations a cell's mean and scatter take 44 800 bytes, so a
        # budget of 110 592 bytes leaves room for two cells' moments.
        cfgs = [small_config(n=2, iters=700, seed=i) for i in range(5)]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=27, moment_bytes=110_592)
        assert [raw_bytes(s) for s in stats] == alone
        assert [[count for _, count in runs] for runs in chunks] == [[2, 2], [2, 2], [2]]

    def test_moments_count_each_cell_at_its_own_columns(self, monkeypatch, engine_passes):
        # At 700 iterations a cell's mean and scatter take 44 800 bytes at 4 columns and 67 200
        # at 6, so a budget of 138 240 bytes holds the moments of a dual cell and one plain
        # cell, or of three plain cells, but not of a dual and two plain.
        cfgs = [small_config(n=2, iters=700, seed=i, dual=i in (0, 4)) for i in range(5)]
        alone = [raw_bytes(run_ensemble(cfg)) for cfg in cfgs]
        stats, chunks = self.run_recorded(cfgs, monkeypatch, engine_passes, chunk=27, moment_bytes=138_240)
        assert [raw_bytes(s) for s in stats] == alone
        assert [[count for _, count in runs] for runs in chunks] == [[2, 2], [2, 2], [2]]

    def test_yields_each_cell_once_its_last_chunk_is_folded(self, monkeypatch, engine_passes):
        cfgs = [small_config(n=2, seed=1), small_config(n=2, seed=2), small_config(n=9, seed=3)]
        monkeypatch.setattr(ensemble, "_CHUNK_REALIZATIONS", 4)
        results = run_ensembles(cfgs)
        assert next(results).n_realizations == 2 and len(engine_passes) == 1  # first chunk: cells 1 and 2
        assert next(results).n_realizations == 2 and len(engine_passes) == 1
        assert next(results).n_realizations == 9 and len(engine_passes) == 4  # cell 3 in chunks of 4, 4, 1
        assert list(results) == []

    def test_no_cells_yield_nothing_and_run_no_pass(self, engine_passes):
        assert list(run_ensembles([])) == []
        assert engine_passes == []


class TestDualBasisFidelities:
    def test_identity_components(self):
        # Noiseless tau = 2 pi always rewards, so the transform stays the identity.
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        records = run_realization(channel, AlgorithmParams(iterations=5), seed=0)
        for record in records:
            assert record.f_e_b1 == pytest.approx(SQRT3_HALF, abs=1e-12)
            assert record.f_g_b1 == pytest.approx(0.5, abs=1e-12)

    def test_ground_preparation_flips_to_excited(self):
        transform = np.column_stack([GROUND, EXCITED])
        assert overlap_magnitude(EXCITED, transform, 1) == pytest.approx(1.0, abs=1e-12)
        assert overlap_magnitude(GROUND, transform, 1) == pytest.approx(0.0, abs=1e-12)
