import math

import numpy as np
import pytest

from qrl.agent import BLOCK, AlgorithmParams, run_realization
from qrl.channels import Channel, default_energy_basis
from qrl import ensemble
from qrl.ensemble import EnsembleConfig, mix_seed, run_ensemble
from qrl.linalg import overlap_magnitude

BASIS = default_energy_basis()
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


class TestConfig:
    def test_rejects_empty_ensemble(self):
        with pytest.raises(ValueError, match="n_realizations"):
            small_config(n=0)

    def test_seed_range_is_64_bit(self):
        assert small_config(seed=2**64 - 1).master_seed == 2**64 - 1
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="master_seed"):
                small_config(seed=seed)


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
        names = ("w", "f_e", "f_g", "f_max", "se_w", "se_f_e", "se_f_g", "se_f_max",
                 "f_e_b1", "f_g_b1", "se_f_e_b1", "se_f_g_b1")
        for dual, columns in ((False, 4), (True, 6)):
            # Two full blocks of iterations and a partial third.
            cfg = small_config(n=30, iters=2 * BLOCK + 22, seed=8, dual=dual)
            whole = run_ensemble(cfg)  # one chunk
            # Chunks of 1, 7 and 29 realizations; the last chunk of 7 and of 29 is partial.
            for chunk in (1, 7, 29):
                monkeypatch.setattr(ensemble, "_CHUNK_BYTES", chunk * 8 * BLOCK * (4 + columns))
                chunked = run_ensemble(cfg)
                for name in names:
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


class TestDualBasisFidelities:
    def test_identity_components(self):
        # Noiseless tau = 2 pi always rewards, so the transform stays the identity.
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        records = run_realization(channel, AlgorithmParams(iterations=5), seed=0, dual_basis=True)
        for record in records:
            assert record.f_e_b1 == pytest.approx(SQRT3_HALF, abs=1e-12)
            assert record.f_g_b1 == pytest.approx(0.5, abs=1e-12)

    def test_ground_preparation_flips_to_excited(self):
        transform = np.column_stack([BASIS.ground, BASIS.excited])
        assert overlap_magnitude(BASIS.excited, transform, 1) == pytest.approx(1.0, abs=1e-12)
        assert overlap_magnitude(BASIS.ground, transform, 1) == pytest.approx(0.0, abs=1e-12)
