import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from oracles import (ATOL, ATOL_COMPOSED, AgentState, axis_rotation, density_from_pure, is_unitary,
                     measurement_prob_zero, overlap_magnitude, pauli, random_unitary, step)
from qrl import agent
from qrl.agent import (BLOCK, IDENTITY, AlgorithmParams, _BITS, _TARGETS, _readout, _rotation, run_lockstep,
                       run_realization)
from qrl.channels import EXCITED, GROUND, Channel

SQRT3_HALF = math.sqrt(3) / 2

# Frame and expected rotation for the seeded golden test below; the
# expected matrix was generated once from scipy.linalg.expm with the
# draws of np.random.default_rng(12345) and frozen.
GOLDEN_SEED = 12345
GOLDEN_FRAME = np.array(
    [
        [0.5938466846931758 + 0.7483407796811309j, -0.23148893021650244 - 0.18369830628609554j],
        [0.23148893021650238 - 0.1836983062860955j, 0.5938466846931758 - 0.7483407796811309j],
    ]
)
GOLDEN_ROTATION = np.array(
    [
        [-0.0041610822889462 - 0.6202636988453221j, -0.5572419984307966 + 0.5520298764322054j],
        [0.5572419984307968 + 0.5520298764322056j, -0.00416108228894619 + 0.620263698845322j],
    ]
)


class StubRng:
    """Scripted uniform() source that records every requested interval.

    Once the script runs out, draws come from the generator ``then``.
    """

    def __init__(self, values, then=None):
        self.values = list(values)
        self.then = then
        self.calls = []

    def uniform(self, low, high):
        self.calls.append((low, high))
        if self.values:
            return self.values.pop(0)
        return self.then.uniform(low, high)


def punished_transform(transform, w, rng):
    """Transform after one step whose measurement draw ``rng`` scripts as 1.0, a punishment."""
    state = AgentState(transform=transform, w=w, k=0)
    new_state, record = step(state, Channel(kind="noiseless", tau=1.0), AlgorithmParams(), rng)
    assert record.outcome == 1
    return new_state.transform


class TestAlgorithmParams:
    def test_defaults(self):
        params = AlgorithmParams()
        assert (params.reward_rate, params.punish_rate) == (0.9, 1.5)
        assert params.iterations == 500

    @pytest.mark.parametrize("reward", [0.0, 1.0, -0.2, 1.7, math.nan, pytest.param(10**400, id="1e400")])
    def test_rejects_bad_reward(self, reward):
        with pytest.raises(ValueError, match=r"reward_rate must be a real number in \(0, 1\), got "):
            AlgorithmParams(reward_rate=reward)

    @pytest.mark.parametrize("punish", [1.0, 0.5, -3.0, math.inf, math.nan, pytest.param(10**400, id="1e400")])
    def test_rejects_bad_punish(self, punish):
        with pytest.raises(ValueError, match=r"punish_rate must be a real number in \(1, inf\), got "):
            AlgorithmParams(punish_rate=punish)

    @pytest.mark.parametrize("field, value", [("reward_rate", None), ("reward_rate", "0.9"), ("reward_rate", False),
                                              ("punish_rate", "1.5"), ("punish_rate", None), ("punish_rate", 2j),
                                              ("punish_rate", True)])
    def test_rejects_a_non_number_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            AlgorithmParams(**{field: value})

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError, match="iterations must be an integer >= 1, got -1"):
            AlgorithmParams(iterations=-1)

    def test_fields_are_frozen(self):
        # The constructor is the one validator, so no field changes after it.
        with pytest.raises(dataclasses.FrozenInstanceError):
            AlgorithmParams().iterations = 0


class TestInitAgent:
    def test_initial_values(self):
        state = AgentState()
        np.testing.assert_array_equal(state.transform, IDENTITY)
        assert state.w == 1.0
        assert state.k == 0

    def test_initial_fidelities(self):
        state = AgentState()
        f_e = overlap_magnitude(EXCITED, state.transform, 0)
        f_g = overlap_magnitude(GROUND, state.transform, 0)
        assert f_e == pytest.approx(0.5, abs=1e-12)
        assert f_g == pytest.approx(SQRT3_HALF, abs=1e-12)
        assert max(f_e, f_g) == pytest.approx(SQRT3_HALF, abs=1e-12)


class TestRandomRotation:
    # A punished step right-multiplies the transform T by the kick, which
    # equals conjugating the kick into T's frame and applying it on the left.
    def test_zero_exploration_is_identity(self):
        kicked = punished_transform(GOLDEN_FRAME, 0.0, StubRng([1.0], np.random.default_rng(0)))
        np.testing.assert_allclose(kicked, GOLDEN_FRAME, atol=1e-12)

    def test_golden_value(self):
        stub = StubRng([1.0], np.random.default_rng(GOLDEN_SEED))
        kicked = punished_transform(GOLDEN_FRAME, 1.0, stub)
        np.testing.assert_allclose(kicked, GOLDEN_ROTATION @ GOLDEN_FRAME, atol=1e-12)

    def test_always_unitary(self):
        rng = np.random.default_rng(50)
        for w in (0.05, 0.3, 1.0):
            for _ in range(10):
                kicked = punished_transform(GOLDEN_FRAME, w, StubRng([1.0], rng))
                assert is_unitary(kicked, atol=1e-12)

    def test_draw_to_axis_assignment(self):
        # First angle draw rotates about X, second about Y, third about Z,
        # multiplied as Ry Rz Rx; oracle from the matrix exponential.
        stub = StubRng([1.0, 0.3, -0.7, 1.1])
        kicked = punished_transform(GOLDEN_FRAME, 1.0, stub)
        oracle = (
            expm(-0.5j * -0.7 * pauli("Y"))
            @ expm(-0.5j * 1.1 * pauli("Z"))
            @ expm(-0.5j * 0.3 * pauli("X"))
        )
        np.testing.assert_allclose(kicked, GOLDEN_FRAME @ oracle, atol=1e-13)
        assert stub.calls == [(0.0, 1.0)] + [(-math.pi, math.pi)] * 3


# Kick angles: the interval edges, zeros of both signs, and anything in [-2pi, 2pi].
KICK_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi, -math.pi]), st.floats(-2 * math.pi, 2 * math.pi)
)


class TestOnePassKick:
    # The kick builds Rx, Ry and Rz from one cos and one sin over the
    # stacked angles and the constant Pauli stack; it must keep the bits
    # of the oracle's three separate rotations.
    @staticmethod
    def three_rotations(alpha, beta, gamma):
        return axis_rotation("Y", beta) @ axis_rotation("Z", gamma) @ axis_rotation("X", alpha)

    @settings(max_examples=200, deadline=None)
    @given(triples=st.lists(st.tuples(*[KICK_ANGLES] * 3), min_size=1, max_size=40))
    def test_equals_three_axis_rotations(self, triples):
        angles = np.array(triples).T  # rows alpha, beta, gamma
        stacked = _rotation(angles)
        assert stacked.tobytes() == self.three_rotations(*angles).tobytes()
        for kick, triple in zip(stacked, triples):  # scalar angles, as ``step`` passes them
            assert kick.tobytes() == self.three_rotations(*triple).tobytes()


class TestReadout:
    # The oracle's scalar readout, and the engine's stacked one against it bit for bit:
    # array np.abs can differ from scalar abs in the last bit, and the engine must not.
    def test_energy_basis_components(self):
        assert overlap_magnitude(EXCITED, IDENTITY, 0) == pytest.approx(0.5, abs=ATOL)
        assert overlap_magnitude(GROUND, IDENTITY, 0) == pytest.approx(SQRT3_HALF, abs=ATOL)
        assert overlap_magnitude(EXCITED, IDENTITY, 1) == pytest.approx(SQRT3_HALF, abs=ATOL)

    def test_completeness_over_orthonormal_targets(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            u = random_unitary(rng)
            total = overlap_magnitude(EXCITED, u, 0) ** 2 + overlap_magnitude(GROUND, u, 0) ** 2
            assert total == pytest.approx(1.0, abs=ATOL_COMPOSED)

    @pytest.mark.parametrize("m", [2, 4])
    def test_stack_keeps_scalar_modulus_bits(self, m):
        rng = np.random.default_rng(26)
        stack = np.array([random_unitary(rng) for _ in range(37)])
        values = _readout(stack, m)
        assert values.shape == (m, len(stack))
        for row, target, bit in zip(values, _TARGETS[:m], _BITS[:m], strict=True):
            assert row.tolist() == [overlap_magnitude(target, u, bit) for u in stack]


class TestStep:
    def test_degenerate_time_always_rewards(self):
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        params = AlgorithmParams()
        rng = np.random.default_rng(51)
        state = AgentState()
        expected_w = 1.0
        for k in range(1, 201):
            state, record = step(state, channel, params, rng)
            expected_w *= params.reward_rate
            assert record.outcome == 0
            assert record.w == expected_w
            assert record.f_max == SQRT3_HALF
            assert record.k == k
        np.testing.assert_array_equal(state.transform, IDENTITY)

    def test_ground_preparation_rewards_certainly(self):
        # A transform sending |0> to the ground state hits the amplitude
        # damping fixed point, so the outcome-0 probability is 1.
        transform = np.column_stack([GROUND, EXCITED])
        state = AgentState(transform=transform, w=0.7, k=0)
        channel = Channel(kind="adn", tau=1.0, t_dec=1.0)
        _, record = step(state, channel, AlgorithmParams(), np.random.default_rng(52))
        assert record.p_zero == pytest.approx(1.0, abs=1e-12)
        assert record.outcome == 0

    def test_punishment_caps_w_and_uses_pre_update_interval(self):
        channel = Channel(kind="noiseless", tau=1.0)
        state = AgentState(transform=IDENTITY.copy(), w=0.5, k=3)
        stub = StubRng([0.999, 0.1, -0.2, 0.05])  # chi above P(0) ~ 0.83 forces outcome 1
        new_state, record = step(state, channel, AlgorithmParams(punish_rate=2.0), stub)
        assert record.outcome == 1
        assert record.w == 1.0  # min(2 * 0.5, 1)
        assert record.k == 4
        # chi drawn from [0, 1]; the three angles from the pre-update +-w*pi
        half = 0.5 * math.pi
        assert stub.calls == [(0.0, 1.0), (-half, half), (-half, half), (-half, half)]
        assert is_unitary(new_state.transform, atol=1e-12)

    def test_draw_equal_to_probability_rewards(self):
        # Outcome 0 is chi <= P(0): a tie rewards, the next double up punishes.
        channel = Channel(kind="noiseless", tau=1.0)
        p_zero = measurement_prob_zero(channel, density_from_pure(IDENTITY[:, 0]))
        tie = StubRng([p_zero])
        _, record = step(AgentState(), channel, AlgorithmParams(), tie)
        assert record.outcome == 0 and record.p_zero == p_zero
        assert tie.calls == [(0.0, 1.0)]
        above = StubRng([np.nextafter(p_zero, 2.0), 0.1, -0.2, 0.05])
        _, record = step(AgentState(), channel, AlgorithmParams(), above)
        assert record.outcome == 1
        assert above.calls == [(0.0, 1.0)] + [(-math.pi, math.pi)] * 3

    def test_reward_keeps_transform_object(self):
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        state = AgentState()
        new_state, record = step(state, channel, AlgorithmParams(), np.random.default_rng(53))
        assert record.outcome == 0
        assert new_state.transform is state.transform

    def test_record_probability_matches_channel(self):
        channel = Channel(kind="adn", tau=1.0, t_dec=2.0)
        state = AgentState()
        _, record = step(state, channel, AlgorithmParams(), np.random.default_rng(54))
        rho = density_from_pure(state.transform[:, 0])
        assert record.p_zero == measurement_prob_zero(channel, rho)


class TestRunRealization:
    def test_zero_iterations(self):
        with pytest.raises(ValueError, match="iterations"):
            AlgorithmParams(iterations=0)

    def test_deterministic_for_equal_seeds(self):
        channel = Channel(kind="adn", tau=1.0, t_dec=1.0)
        params = AlgorithmParams(iterations=100)
        first = run_realization(channel, params, seed=77)
        second = run_realization(channel, params, seed=77)
        assert first == second
        with pytest.raises(dataclasses.FrozenInstanceError):  # records are built whole and stay so
            first[0].w = 0.0

    def test_degenerate_time_run(self):
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        params = AlgorithmParams(iterations=100)
        records = run_realization(channel, params, seed=9)
        assert all(record.outcome == 0 for record in records)
        assert all(record.f_max == SQRT3_HALF for record in records)
        expected_w = 1.0
        for record in records:
            expected_w *= params.reward_rate
        assert records[-1].w == expected_w

    def test_reward_punishment_algebra(self):
        channel = Channel(kind="adn", tau=1.0, t_dec=1.0)
        params = AlgorithmParams(iterations=300)
        previous = 1.0
        for record in run_realization(channel, params, seed=13):
            rewarded = params.reward_rate * previous
            punished = min(params.punish_rate * previous, 1.0)
            assert record.w in (rewarded, punished)
            assert 0.0 <= record.w <= 1.0
            assert (record.w == rewarded) == (record.outcome == 0)
            previous = record.w

    def test_orthogonality_duality_along_run(self):
        channel = Channel(kind="adn", tau=1.0, t_dec=1.0)
        params = AlgorithmParams()
        rng = np.random.default_rng(55)
        state = AgentState()
        for _ in range(200):
            state, _ = step(state, channel, params, rng)
            total = (
                overlap_magnitude(GROUND, state.transform, 0) ** 2
                + overlap_magnitude(GROUND, state.transform, 1) ** 2
            )
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_refuses_a_seed_mix_seed_cannot_return(self):
        # mix_seed returns ints in [0, 2**64); True would replay seed 1 and 2**64 no realization at all.
        channel, params = Channel(kind="adn", tau=1.0, t_dec=1.0), AlgorithmParams(iterations=5)
        for seed in (True, False, -1, 2**64, 1.5, "3"):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
                run_realization(channel, params, seed)
        with pytest.raises(ValueError, match="channel must be of type Channel, got 'adn'"):
            run_realization("adn", params, 7)
        with pytest.raises(ValueError, match="params must be of type AlgorithmParams"):
            run_realization(channel, {"iterations": 5}, 7)
        assert run_realization(channel, params, np.uint64(7)) == run_realization(channel, params, 7)
        assert len(run_realization(channel, params, 2**64 - 1)) == 5

    def test_dual_basis_records(self):
        channel = Channel(kind="adn", tau=1.0, t_dec=1.0)
        params = AlgorithmParams(iterations=50)
        records = run_realization(channel, params, seed=21)
        for record in records:
            # D|0> and D|1> are orthogonal, so the fidelities complement.
            assert record.f_e**2 + record.f_e_b1**2 == pytest.approx(1.0, abs=1e-10)
            assert record.f_g**2 + record.f_g_b1**2 == pytest.approx(1.0, abs=1e-10)

    def test_vanishing_w_freezes_transform(self):
        # Once w is tiny, punishments can only nudge the transform by a
        # comparably tiny rotation.
        channel = Channel(kind="noiseless", tau=1.0)
        params = AlgorithmParams(reward_rate=0.5, punish_rate=1.01)
        rng = np.random.default_rng(56)
        state = AgentState()
        small_punishments = 0
        for _ in range(400):
            before = state
            state, record = step(state, channel, params, rng)
            if record.outcome == 1 and before.w < 1e-6:
                small_punishments += 1
                distance = np.linalg.norm(state.transform - before.transform)
                assert distance < 1e-5
        assert small_punishments >= 3

    def test_measurement_frequency_matches_probability(self):
        channel = Channel(kind="noiseless", tau=1.0)
        params = AlgorithmParams()
        state = AgentState()
        rho = density_from_pure(state.transform[:, 0])
        prob = measurement_prob_zero(channel, rho)
        rng = np.random.default_rng(57)
        draws = 20_000
        zeros = 0
        for _ in range(draws):
            _, record = step(state, channel, params, rng)  # state never advanced
            zeros += record.outcome == 0
        stderr = math.sqrt(prob * (1 - prob) / draws)
        assert abs(zeros / draws - prob) < 3 * stderr


class TestRunLockstep:
    # The lockstep engine against the scalar oracle, realization by
    # realization and bit for bit.
    CASES = [
        (Channel(kind="adn", tau=1.0, t_dec=1.0), AlgorithmParams(iterations=80), True),
        (Channel(kind="pdn", tau=2 * math.pi, t_dec=3.0),
         AlgorithmParams(reward_rate=0.7, punish_rate=2.5, iterations=60), True),
        (Channel(kind="noiseless", tau=0.37),
         AlgorithmParams(reward_rate=0.95, punish_rate=1.2, iterations=70), False),
        (Channel(kind="adn", tau=5.0, t_dec=10.0), AlgorithmParams(iterations=50), False),
        # Three full blocks of iterations and a partial fourth.
        (Channel(kind="pdn", tau=1.0, t_dec=2.0), AlgorithmParams(iterations=3 * BLOCK + 9), True),
        # w underflows to 0.0 and stays there through later punishments.
        (Channel(kind="adn", tau=1.0, t_dec=1.0), AlgorithmParams(reward_rate=0.1, iterations=600), False),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_run_realization(self, case):
        channel, params, dual = self.CASES[case]
        seeds = [1000 * case + i for i in range(13)]
        blocks, flags = [], []
        for k0, block, punished, _ in run_lockstep([(channel, seeds)], params, dual_basis=dual):
            assert k0 == sum(b.shape[2] for b in blocks) and 1 <= block.shape[2] <= BLOCK
            assert punished.shape == (len(seeds), block.shape[2]) and punished.dtype == bool
            blocks.append(block.copy())  # the engine reuses its buffers
            flags.append(punished.copy())
        trajectories, punished = np.concatenate(blocks, axis=2), np.concatenate(flags, axis=1)
        assert trajectories.shape == (len(seeds), 6 if dual else 4, params.iterations)
        names = ("w", "f_e", "f_g", "f_max", "f_e_b1", "f_g_b1")[: trajectories.shape[1]]
        for j, seed in enumerate(seeds):
            records = oracles.run_realization(channel, params, seed)
            for column, name in enumerate(names):
                assert trajectories[j, column].tolist() == [getattr(r, name) for r in records]
            assert punished[j].tolist() == [r.outcome == 1 for r in records]
        assert punished.any()

    def test_every_step_punished_reads_whole_blocks(self, monkeypatch):
        # The worst case the draw buffer is sized for: 4 draws a step, 4 * BLOCK a full block.
        refills, make = [], np.random.default_rng

        class Counted:  # a generator that records the size of every refill
            def __init__(self, seed):
                self.rng = make(seed)

            def random(self, out):
                refills.append(out.size)
                return self.rng.random(out=out)

        monkeypatch.setattr(np.random, "default_rng", Counted)
        monkeypatch.setattr(agent, "pure_prob_zero", lambda terms, pe, pg: np.zeros_like(pe))
        blocks, flags = [], []
        seeds, iterations = list(range(5)), 2 * BLOCK + 9  # two full blocks and a partial third
        cells = [(Channel(kind="adn", tau=1.0, t_dec=1.0), seeds)]
        for _, block, punished, _ in run_lockstep(cells, AlgorithmParams(iterations=iterations), dual_basis=True):
            blocks.append(block[:, 0].copy())  # w
            flags.append(punished.copy())
        # The initial fill, then a refill after each full block of what it read.
        assert refills == [4 * BLOCK] * (3 * len(seeds))
        assert np.concatenate(flags, axis=1).all()
        assert np.all(np.concatenate(blocks, axis=1) == 1.0)

    def test_a_draw_equal_to_p_zero_is_a_reward(self, monkeypatch):
        tie = 0.375  # every P(0) and every draw

        class Tied:  # a generator whose every uniform is the tie
            def __init__(self, seed):
                pass

            def random(self, out):
                out[...] = tie

        monkeypatch.setattr(np.random, "default_rng", Tied)
        monkeypatch.setattr(agent, "pure_prob_zero", lambda terms, pe, pg: np.full_like(pe, tie))
        ws, flags, p_zeros = [], [], []
        params = AlgorithmParams(reward_rate=0.8, iterations=BLOCK + 5)
        cells = [(Channel(kind="pdn", tau=1.0, t_dec=2.0), [0, 1, 2])]
        for _, block, punished, p_zero in run_lockstep(cells, params):
            ws.append(block[:, 0].copy())
            flags.append(punished.copy())
            p_zeros.append(p_zero.copy())
        assert not np.concatenate(flags, axis=1).any()
        assert np.concatenate(p_zeros, axis=1).tolist() == [[tie] * params.iterations] * 3
        expected, w = [], 1.0
        for _ in range(params.iterations):
            w *= params.reward_rate
            expected.append(w)
        assert np.concatenate(ws, axis=1).tolist() == [expected] * 3

    def test_flipped_bit_readouts_mirror_bit_zero(self):
        # For any 2x2 unitary U and the real orthonormal eigenstates, |<e|U|1>| = |<g|U|0>| and
        # |<g|U|1>| = |<e|U|0>|; the engine reads the flipped-bit rows with dot products of their own.
        for channel, params, dual in self.CASES:
            if not dual:
                continue
            for _, block, *_ in run_lockstep([(channel, list(range(200)))], params, dual_basis=True):
                assert np.abs(block[:, 4] - block[:, 2]).max() <= 1e-14
                assert np.abs(block[:, 5] - block[:, 1]).max() <= 1e-14

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_public_records_match_oracle(self, case, engine_passes):
        # qrl.run_realization rebuilds the oracle's records from one engine run;
        # only p_zero may differ, as the closed form against the density matrix.
        channel, params, _ = self.CASES[case]
        for j, seed in enumerate(1000 * case + i for i in range(13)):
            records = run_realization(channel, params, seed)
            expected = oracles.run_realization(channel, params, seed)
            assert len(engine_passes) == j + 1
            pairs = list(zip(records, expected, strict=True))
            assert [dataclasses.replace(r, p_zero=e.p_zero) for r, e in pairs] == expected
            assert max(abs(r.p_zero - e.p_zero) for r, e in pairs) <= 1e-15
