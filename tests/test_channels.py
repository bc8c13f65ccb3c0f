"""Tests of ``qrl.channels`` and of the dense reference physics in ``tests/oracles.py``.

``TestEnergyBasis``, ``TestChannelValidation`` and ``TestPureProbZero`` test the package's
eigenstates, ``Channel`` and closed-form P(0); the other classes test the oracle's projector,
propagator, Kraus pair, density-matrix evolution and measured P(0), which that closed form
is checked against.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oracles import (
    ATOL,
    apply_channel,
    density_from_pure,
    hamiltonian_unitary,
    is_density_matrix,
    kraus_pair,
    measurement_prob_zero,
    pauli,
    random_density,
)
from qrl.agent import IDENTITY, _BITS, _TARGETS, _XYZ
from qrl.channels import NOISE_KINDS, EXCITED, GROUND, Channel, pure_prob_zero

EXCITED_PROJ = density_from_pure(EXCITED)
GROUND_PROJ = density_from_pure(GROUND)


def random_channel(rng, kind=None):
    kind = kind or rng.choice(["pdn", "adn"])
    return Channel(kind=kind, tau=rng.uniform(1e-6, 10.0), t_dec=rng.uniform(0.1, 100.0))


def kraus_form(channel, rho):
    """Independent evaluation of the full noisy evolution from its pieces:
    U(tau) [E0 rho E0^dag + E1 rho E1^dag] U(tau)^dag."""
    first, second = kraus_pair(channel)
    propagator = hamiltonian_unitary(channel.tau)
    noisy = first @ rho @ first.conj().T + second @ rho @ second.conj().T
    return propagator @ noisy @ propagator.conj().T


class TestEnergyBasis:
    def test_default_components(self):
        np.testing.assert_allclose(EXCITED, [0.5, math.sqrt(3) / 2], atol=1e-15)
        np.testing.assert_allclose(GROUND, [-math.sqrt(3) / 2, 0.5], atol=1e-15)

    def test_orthonormal(self):
        assert abs(np.vdot(EXCITED, GROUND)) < 1e-12
        assert abs(np.linalg.norm(EXCITED) - 1) < 1e-12

    def test_states_are_read_only(self):
        for state in (EXCITED, GROUND):
            with pytest.raises(ValueError):
                state[0] = 9.0

    def test_kick_paulis_are_read_only(self):
        np.testing.assert_array_equal(_XYZ[:, 0], [pauli(axis) for axis in "XYZ"])
        np.testing.assert_array_equal(_TARGETS, [EXCITED, GROUND, EXCITED, GROUND])
        assert _BITS.tolist() == [0, 0, 1, 1]
        for constant, index in ((_XYZ, (2, 0, 1, 1)), (_TARGETS, (3, 0)), (_BITS, 2)):
            with pytest.raises(ValueError):
                constant[index] = 9


class TestDensityFromPure:
    def test_basis_states(self):
        np.testing.assert_array_equal(
            density_from_pure(np.array([1, 0], dtype=complex)), [[1, 0], [0, 0]]
        )
        np.testing.assert_array_equal(
            density_from_pure(np.array([0, 1], dtype=complex)), [[0, 0], [0, 1]]
        )

    def test_plus_state(self):
        plus = np.array([1, 1], dtype=complex) / math.sqrt(2)
        np.testing.assert_allclose(density_from_pure(plus), np.full((2, 2), 0.5), atol=ATOL)

    def test_output_is_valid_density(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            assert abs(np.vdot(psi, psi).real - 1.0) <= ATOL
            assert is_density_matrix(density_from_pure(psi))


class TestChannelValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Channel(kind="thermal", tau=1.0)

    @pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, math.nan, pytest.param(10**400, id="1e400")])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match=r"tau must be a real number in \(0, inf\), got "):
            Channel(kind="pdn", tau=tau, t_dec=1.0)

    @pytest.mark.parametrize("t_dec", [0.0, -2.0, math.nan, pytest.param(10**400, id="1e400")])
    def test_rejects_bad_t_dec(self, t_dec):
        with pytest.raises(ValueError, match=r"t_dec must be a real number in \(0, inf\], got "):
            Channel(kind="adn", tau=1.0, t_dec=t_dec)

    @pytest.mark.parametrize("field, value", [("tau", "1"), ("tau", None), ("tau", 1j), ("t_dec", "inf"),
                                              ("t_dec", None), ("t_dec", [1.0]), ("tau", True), ("t_dec", True)])
    def test_rejects_a_non_number_when_built(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            Channel(**{"kind": "adn", "tau": 1.0, "t_dec": 1.0, field: value})

    def test_defaults_are_a_noiseless_unit_step(self):
        assert Channel() == Channel(kind="noiseless", tau=1.0, t_dec=math.inf)

    def test_noiseless_forces_infinite_t_dec(self):
        assert Channel(kind="noiseless", tau=1.0, t_dec=3.0).t_dec == math.inf

    def test_equal_fields_give_equal_channels(self):
        assert Channel("noiseless", 1.0, 5.0) == Channel("noiseless", 1.0)
        assert hash(Channel("noiseless", 1.0, 5.0)) == hash(Channel("noiseless", 1.0))
        assert Channel("adn", 2.0, 10.0) == Channel(kind="adn", tau=2.0, t_dec=10.0)
        assert Channel("adn", 2.0, 10.0) != Channel("pdn", 2.0, 10.0)


class TestHamiltonianUnitary:
    def test_zero_time_is_identity(self):
        np.testing.assert_allclose(hamiltonian_unitary(0.0), IDENTITY, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degenerate_times(self, n):
        # At tau = 2 pi n the propagator collapses to (-1)^n times identity.
        u = hamiltonian_unitary(2 * math.pi * n)
        np.testing.assert_allclose(u, (-1) ** n * IDENTITY, atol=1e-12)

    def test_eigenstate_phase(self):
        u = hamiltonian_unitary(math.pi)
        np.testing.assert_allclose(u @ EXCITED, -1j * EXCITED, atol=1e-12)

    def test_matches_exponential_of_concrete_hamiltonian(self):
        # EXCITED and GROUND diagonalize H = (sqrt(3) X - Z) / 4.
        hamiltonian = (math.sqrt(3) * pauli("X") - pauli("Z")) / 4.0
        rng = np.random.default_rng(31)
        for tau in rng.uniform(-10, 10, size=25):
            oracle = expm(-1j * hamiltonian * tau)
            np.testing.assert_allclose(hamiltonian_unitary(tau), oracle, atol=1e-12)

    def test_rejects_infinite_tau(self):
        # True is not a time, and 10**400 has no float.
        for tau in (math.inf, math.nan, True, "1", 10**400):
            with pytest.raises(ValueError, match="tau must be a real number that is finite, got "):
                hamiltonian_unitary(tau)


class TestKrausPair:
    def test_noiseless_convention(self):
        first, second = kraus_pair(Channel(kind="noiseless", tau=1.0))
        np.testing.assert_allclose(first, IDENTITY, atol=1e-12)
        np.testing.assert_array_equal(second, np.zeros((2, 2)))

    def test_pdn_strong_damping_limit(self):
        first, second = kraus_pair(Channel(kind="pdn", tau=100.0, t_dec=1.0))
        np.testing.assert_allclose(first, GROUND_PROJ, atol=1e-12)
        np.testing.assert_allclose(second, EXCITED_PROJ, atol=1e-12)

    def test_adn_no_decay_at_infinite_t_dec(self):
        first, second = kraus_pair(Channel(kind="adn", tau=1.0, t_dec=math.inf))
        np.testing.assert_allclose(first, IDENTITY, atol=1e-12)
        np.testing.assert_allclose(second, np.zeros((2, 2)), atol=1e-12)

    def test_adn_jump_amplitude(self):
        # sqrt(1 - exp(-2 * tau/t_dec)) at tau/t_dec = 1/2
        first, second = kraus_pair(Channel(kind="adn", tau=0.5, t_dec=1.0))
        jump = np.outer(GROUND, EXCITED.conj())
        np.testing.assert_allclose(second, 0.7950600976206501 * jump, atol=1e-12)
        np.testing.assert_allclose(first, GROUND_PROJ + math.exp(-0.5) * EXCITED_PROJ, atol=1e-12)

    def test_completeness(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            first, second = kraus_pair(random_channel(rng))
            total = first.conj().T @ first + second.conj().T @ second
            np.testing.assert_allclose(total, IDENTITY, atol=1e-12)


class TestApplyChannel:
    def test_ground_state_fixed_for_both_kinds(self):
        rng = np.random.default_rng(33)
        for kind in ("pdn", "adn"):
            for _ in range(25):
                channel = random_channel(rng, kind)
                np.testing.assert_allclose(
                    apply_channel(channel, GROUND_PROJ), GROUND_PROJ, atol=1e-12
                )

    def test_excited_state_fixed_under_pdn(self):
        rng = np.random.default_rng(34)
        for _ in range(25):
            channel = random_channel(rng, "pdn")
            np.testing.assert_allclose(
                apply_channel(channel, EXCITED_PROJ), EXCITED_PROJ, atol=1e-12
            )

    def test_adn_excited_population_decay(self):
        channel = Channel(kind="adn", tau=0.5, t_dec=1.0)
        evolved = apply_channel(channel, EXCITED_PROJ)
        decayed = math.exp(-1.0)  # exp(-2 tau / t_dec)
        expected = decayed * EXCITED_PROJ + (1.0 - decayed) * GROUND_PROJ
        np.testing.assert_allclose(evolved, expected, atol=1e-12)
        assert np.vdot(EXCITED, evolved @ EXCITED).real == pytest.approx(
            0.36787944117144233, abs=1e-12
        )
        # cross-check against the Kraus-form evaluation
        np.testing.assert_allclose(evolved, kraus_form(channel, EXCITED_PROJ), atol=1e-12)

    def test_adn_strictly_contracts_excited_population(self):
        rng = np.random.default_rng(35)
        for _ in range(25):
            channel = random_channel(rng, "adn")
            rho = random_density(rng)
            pop = np.vdot(EXCITED, rho @ EXCITED).real
            pop_after = np.vdot(EXCITED, apply_channel(channel, rho) @ EXCITED).real
            assert pop_after < pop or pop == pytest.approx(0.0, abs=1e-12)

    def test_matches_kraus_oracle(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            channel = random_channel(rng)
            rho = random_density(rng)
            np.testing.assert_allclose(
                apply_channel(channel, rho), kraus_form(channel, rho), atol=1e-10
            )

    def test_noiseless_is_unitary_conjugation(self):
        rng = np.random.default_rng(37)
        for tau in rng.uniform(0.1, 10, size=20):
            channel = Channel(kind="noiseless", tau=tau)
            rho = random_density(rng)
            propagator = hamiltonian_unitary(tau)
            np.testing.assert_allclose(
                apply_channel(channel, rho),
                propagator @ rho @ propagator.conj().T,
                atol=1e-12,
            )

    def test_output_is_valid_density_matrix(self):
        rng = np.random.default_rng(38)
        for _ in range(200):
            out = apply_channel(random_channel(rng), random_density(rng))
            assert is_density_matrix(out, atol=1e-12)

    def test_noiseless_limit_of_large_t_dec(self):
        rng = np.random.default_rng(39)
        for kind in ("pdn", "adn"):
            for _ in range(10):
                tau = rng.uniform(0.1, 10)
                rho = random_density(rng)
                nearly = apply_channel(Channel(kind=kind, tau=tau, t_dec=1e12), rho)
                exact = apply_channel(Channel(kind="noiseless", tau=tau), rho)
                assert np.max(np.abs(nearly - exact)) < 1e-8

    def test_pdn_never_increases_purity(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            channel = random_channel(rng, "pdn")
            rho = random_density(rng)
            evolved = apply_channel(channel, rho)
            purity_before = np.trace(rho @ rho).real
            purity_after = np.trace(evolved @ evolved).real
            assert purity_after <= purity_before + 1e-12


class TestMeasurementProbZero:
    def test_ground_state_gives_one(self):
        rng = np.random.default_rng(41)
        for kind in ("noiseless", "pdn", "adn"):
            channel = random_channel(rng, kind) if kind != "noiseless" else Channel(kind, tau=1.0)
            assert measurement_prob_zero(channel, GROUND_PROJ) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_time_gives_one_for_pure_states(self):
        rng = np.random.default_rng(42)
        channel = Channel(kind="noiseless", tau=2 * math.pi)
        for _ in range(25):
            psi = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi /= np.linalg.norm(psi)
            prob = measurement_prob_zero(channel, density_from_pure(psi))
            assert prob == pytest.approx(1.0, abs=1e-12)

    def test_balanced_superposition(self):
        # |<phi|U(tau)|phi>|^2 = cos^2(tau/2) for phi = (e + g)/sqrt(2)
        phi = (EXCITED + GROUND) / math.sqrt(2)
        channel = Channel(kind="noiseless", tau=1.0)
        prob = measurement_prob_zero(channel, density_from_pure(phi))
        assert prob == pytest.approx(0.7701511529340699, abs=1e-12)

    def test_stays_in_unit_interval(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            prob = measurement_prob_zero(random_channel(rng), random_density(rng))
            assert 0.0 <= prob <= 1.0

    def test_rejects_invalid_state(self):
        channel = Channel(kind="pdn", tau=1.0, t_dec=1.0)
        with pytest.raises(ValueError, match="tolerance band"):
            measurement_prob_zero(channel, 2.0 * GROUND_PROJ)


channels = st.builds(
    Channel,
    kind=st.sampled_from(NOISE_KINDS),
    tau=st.floats(1e-6, 10.0) | st.just(2 * math.pi),
    t_dec=st.floats(0.1, 100.0) | st.just(math.inf),
)


@st.composite
def densities(draw):
    """A density matrix A A^dag / Tr(A A^dag)."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    a = parts[:4].reshape(2, 2) + 1j * parts[4:].reshape(2, 2)
    rho = a @ a.conj().T
    trace = np.trace(rho).real
    assume(trace > 1e-6)
    return rho / trace


class TestChannelProperties:
    @settings(max_examples=200, deadline=None)
    @given(channel=channels, rho=densities())
    def test_maps_density_matrices_to_density_matrices(self, channel, rho):
        evolved = apply_channel(channel, rho)
        assert is_density_matrix(evolved, atol=1e-12)
        np.testing.assert_allclose(evolved, kraus_form(channel, rho), atol=1e-12)
        assert 0.0 <= measurement_prob_zero(channel, rho) <= 1.0


@st.composite
def pure_states(draw):
    """A normalized complex vector of shape (2,)."""
    parts = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
    psi = parts[:2] + 1j * parts[2:]
    norm = np.linalg.norm(psi)
    assume(norm > 1e-3)
    return psi / norm


class TestPureProbZero:
    @settings(max_examples=300, deadline=None)
    @given(channel=channels, psi=pure_states())
    def test_matches_matrix_form(self, channel, psi):
        excited = abs(np.vdot(EXCITED, psi)) ** 2
        ground = abs(np.vdot(GROUND, psi)) ** 2
        prob = pure_prob_zero(channel.prob_zero_terms(), excited, ground)
        assert 0.0 <= prob <= 1.0
        assert abs(prob - measurement_prob_zero(channel, density_from_pure(psi))) <= 1e-14

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(channels, pure_states()), min_size=1, max_size=12))
    def test_per_realization_terms_equal_each_channel_bit_for_bit(self, pairs):
        # One population pair per channel, evaluated together with per-realization
        # term arrays as the lockstep engine does for a chunk of several cells.
        excited = np.array([abs(np.vdot(EXCITED, psi)) ** 2 for c, psi in pairs])
        ground = np.array([abs(np.vdot(GROUND, psi)) ** 2 for c, psi in pairs])
        terms = np.array([channel.prob_zero_terms() for channel, _ in pairs]).T
        together = pure_prob_zero(terms, excited, ground)
        alone = [pure_prob_zero(c.prob_zero_terms(), excited[j : j + 1], ground[j : j + 1])
                 for j, (c, _) in enumerate(pairs)]
        assert together.tobytes() == np.concatenate(alone).tobytes()
        scalar = [pure_prob_zero(c.prob_zero_terms(), float(excited[j]), float(ground[j]))
                  for j, (c, _) in enumerate(pairs)]
        assert together.tobytes() == np.array(scalar).tobytes()
