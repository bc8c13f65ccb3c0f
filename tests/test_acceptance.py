"""Acceptance suite: one test per criterion, each printing a PASS line.

The ensemble-scale criteria share full-size cells (1000 realizations x
500 iterations) through a lazy module cache, so each cell is computed
once per session. Run with ``pytest tests/test_acceptance.py -v`` (add
``-s`` to see the per-criterion PASS lines as they happen).
"""

import math
import time

import numpy as np

from oracles import (apply_channel, density_from_pure, hamiltonian_unitary, hermitian_eigenvalues, kraus_pair,
                     measurement_prob_zero, random_density)
from qrl import ensemble, run_realization
from qrl.agent import IDENTITY, AlgorithmParams, run_lockstep
from qrl.channels import EXCITED, GROUND, Channel
from qrl.cli import main
from qrl.ensemble import EnsembleConfig, run_ensemble

TAU1 = 1.0
TAU2PI = 2.0 * math.pi

# Full-size cells used by the ensemble criteria, with fixed master seeds.
FULL_N = 1000
FULL_K = 500
CELL_SEEDS = {
    ("pdn", TAU1, 1.0): 101, ("pdn", TAU1, 10.0): 102, ("pdn", TAU1, 100.0): 103,
    ("pdn", TAU2PI, 1.0): 104, ("pdn", TAU2PI, 10.0): 105, ("pdn", TAU2PI, 100.0): 106,
    ("adn", TAU1, 1.0): 111, ("adn", TAU1, 10.0): 112, ("adn", TAU1, 100.0): 113,
    ("adn", TAU2PI, 1.0): 114, ("adn", TAU2PI, 10.0): 115, ("adn", TAU2PI, 100.0): 116,
    ("noiseless", TAU1, math.inf): 120, ("noiseless", TAU2PI, math.inf): 121,
}
# Cells whose stats also carry the flipped-bit fidelity columns.
DUAL_CELLS = {("adn", TAU1, 1.0), ("adn", TAU1, 10.0)}

_cell_cache: dict[tuple, tuple] = {}


def cell(kind: str, tau: float, t_dec: float):
    """Stats and wall time of a full-size ensemble cell (cached)."""
    key = (kind, tau, t_dec)
    if key not in _cell_cache:
        cfg = EnsembleConfig(
            channel=Channel(kind=kind, tau=tau, t_dec=t_dec),
            params=AlgorithmParams(iterations=FULL_K),
            n_realizations=FULL_N,
            master_seed=CELL_SEEDS[key],
            dual_basis=key in DUAL_CELLS,
        )
        start = time.perf_counter()
        stats = run_ensemble(cfg)
        _cell_cache[key] = (stats, time.perf_counter() - start)
    return _cell_cache[key]


def combined_se(a: float, b: float) -> float:
    return math.hypot(a, b)


def report(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d} PASS  {detail}")


def test_criterion_01_closed_form_matches_kraus_oracle():
    """Closed-form evolution equals the Kraus-form evaluation, 1e-10, < 1 s."""
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        kind = ("pdn", "adn")[int(rng.integers(2))]
        channel = Channel(kind=kind, tau=rng.uniform(1e-9, 10.0), t_dec=rng.uniform(0.1, 100.0))
        rho = random_density(rng)
        first, second = kraus_pair(channel)
        propagator = hamiltonian_unitary(channel.tau)
        oracle = propagator @ (
            first @ rho @ first.conj().T + second @ rho @ second.conj().T
        ) @ propagator.conj().T
        worst = max(worst, float(np.max(np.abs(apply_channel(channel, rho) - oracle))))
        assert worst <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(1, f"worst entrywise gap {worst:.2e} over 1000 samples in {elapsed:.2f}s")


def test_criterion_02_kraus_completeness_and_cptp():
    """E0+E0 + E1+E1 = I and channel outputs stay valid states, 1e-12, < 1 s."""
    rng = np.random.default_rng(2002)
    start = time.perf_counter()
    for _ in range(1000):
        kind = ("pdn", "adn")[int(rng.integers(2))]
        channel = Channel(kind=kind, tau=rng.uniform(1e-9, 10.0), t_dec=rng.uniform(0.1, 100.0))
        first, second = kraus_pair(channel)
        total = first.conj().T @ first + second.conj().T @ second
        assert np.max(np.abs(total - IDENTITY)) <= 1e-12
        evolved = apply_channel(channel, random_density(rng))
        assert np.max(np.abs(evolved - evolved.conj().T)) <= 1e-12
        assert abs(np.trace(evolved).real - 1.0) <= 1e-12
        assert hermitian_eigenvalues(evolved)[0] >= -1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(2, f"1000 random channels CPTP-clean in {elapsed:.2f}s")


def test_criterion_03_fixed_point_structure():
    """PDN fixes both eigenprojectors; ADN fixes ground and decays excited."""
    excited_proj = density_from_pure(EXCITED)
    ground_proj = density_from_pure(GROUND)
    rng = np.random.default_rng(2003)
    for _ in range(100):
        tau = rng.uniform(1e-6, 10.0)
        t_dec = rng.uniform(0.1, 100.0)
        pdn = Channel(kind="pdn", tau=tau, t_dec=t_dec)
        assert np.max(np.abs(apply_channel(pdn, excited_proj) - excited_proj)) <= 1e-12
        assert np.max(np.abs(apply_channel(pdn, ground_proj) - ground_proj)) <= 1e-12
        adn = Channel(kind="adn", tau=tau, t_dec=t_dec)
        assert np.max(np.abs(apply_channel(adn, ground_proj) - ground_proj)) <= 1e-12
        evolved = apply_channel(adn, excited_proj)
        population = np.vdot(EXCITED, evolved @ EXCITED).real
        assert abs(population - math.exp(-2.0 * tau / t_dec)) <= 1e-12
    report(3, "fixed points exact to 1e-12 over 100 random (tau, t_dec)")


def test_criterion_04_degenerate_time_exactness(tmp_path):
    """At ttau = 2pi every step rewards; CSV carries the analytic values bit-exactly."""
    start = time.perf_counter()

    channel = Channel(kind="noiseless", tau=TAU2PI)
    params = AlgorithmParams(iterations=FULL_K)
    for seed in range(15):
        assert all(r.outcome == 0 for r in run_realization(channel, params, seed))

    csv_path = tmp_path / "degenerate.csv"
    assert main(["run", "--ttau", "2pi", "--iters", str(FULL_K), "--realizations", "40",
                 "--seed", "17", "--out", str(csv_path)]) == 0
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    assert len(rows) == FULL_K
    w = 1.0
    for row in rows:
        w *= 0.9
        assert row[1] == format(w, ".12g")  # W_k = r^k, bit-exact
        assert row[4] == "0.866025403784"   # F_max = sqrt(3)/2 to 12 digits

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"degenerate run analytic and bit-exact in CSV, {elapsed:.2f}s")


def test_criterion_05_noise_helps_at_degenerate_time():
    """For ttau = 2pi, strong damping beats the noiseless run by > 5 SE."""
    noiseless, _ = cell("noiseless", TAU2PI, math.inf)
    details = []
    for kind in ("pdn", "adn"):
        noisy, elapsed = cell(kind, TAU2PI, 1.0)
        assert elapsed < 30.0
        gap = noisy.f_max[-1] - noiseless.f_max[-1]
        bar = 5.0 * combined_se(noisy.se_f_max[-1], noiseless.se_f_max[-1])
        assert gap > bar
        details.append(f"{kind}: gap {gap:.3f} > {bar:.4f}")
    report(5, "; ".join(details))


def test_criterion_06_amplitude_damping_asymmetry():
    """ADN drives F_g above F_e and above the noiseless F_g; PDN stays symmetric."""
    adn, _ = cell("adn", TAU1, 1.0)
    pdn, _ = cell("pdn", TAU1, 1.0)
    noiseless, _ = cell("noiseless", TAU1, math.inf)

    adn_gap = adn.f_g[-1] - adn.f_e[-1]
    bar = 5.0 * combined_se(adn.se_f_g[-1], adn.se_f_e[-1])
    assert adn_gap > bar
    assert adn.f_g[-1] > noiseless.f_g[-1]
    pdn_gap = abs(pdn.f_e[-1] - pdn.f_g[-1])
    assert pdn_gap < adn_gap
    report(6, f"adn F_g-F_e {adn_gap:.3f} > {bar:.4f}; pdn gap {pdn_gap:.3f} smaller")


def test_criterion_07_dual_basis_duality():
    """Flipped-bit excited fidelity tracks the bit-0 ground fidelity."""
    details = []
    for t_dec in (1.0, 10.0):
        stats, _ = cell("adn", TAU1, t_dec)
        diff = abs(stats.f_e_b1[-1] - stats.f_g[-1])
        bar = 2.0 * combined_se(stats.se_f_e_b1[-1], stats.se_f_g[-1])
        assert diff <= bar
        details.append(f"t_dec={t_dec:g}: |diff| {diff:.1e} <= {bar:.4f}")
    report(7, "; ".join(details))


# Upper bounds frozen from the pilot run (observed W_500 times a ~2.5x
# safety margin); the headline requirement is W_500 < 0.1.
W500_BOUNDS = {
    ("pdn", TAU1, 1.0): 5e-3,
    ("pdn", TAU1, 10.0): 1.2e-3,
    ("pdn", TAU1, 100.0): 3e-4,
    ("pdn", TAU2PI, 1.0): 2e-5,
    ("pdn", TAU2PI, 10.0): 1e-3,
    ("pdn", TAU2PI, 100.0): 1.5e-19,
    ("adn", TAU1, 1.0): 5e-5,
    ("adn", TAU1, 10.0): 1e-2,
    ("adn", TAU1, 100.0): 1.5e-3,
    ("adn", TAU2PI, 1.0): 6e-5,
    ("adn", TAU2PI, 10.0): 4e-4,
    ("adn", TAU2PI, 100.0): 1.5e-13,
}


def test_criterion_08_exploration_parameter_converges():
    """W_500 < 0.1 on every noisy cell, within the frozen regression bounds."""
    worst = 0.0
    for (kind, tau, t_dec), bound in W500_BOUNDS.items():
        stats, _ = cell(kind, tau, t_dec)
        final = stats.w[-1]
        assert final < 0.1
        assert final <= bound
        worst = max(worst, final)
    report(8, f"12 noisy cells converged; worst W_500 = {worst:.2e}")


def test_criterion_09_byte_identical_output_across_chunk_sizes(tmp_path, monkeypatch, engine_passes):
    """Same master seed gives byte-identical CSV for chunks of 1, 7 and all 60 realizations."""
    args = ["run", "--noise", "adn", "--ttau", "1", "--tdec", "1",
            "--iters", "120", "--realizations", "60", "--seed", "4242"]
    default_size, blobs = ensemble._CHUNK_REALIZATIONS, []
    # The last run keeps the default size, which also runs all 60 realizations as one chunk.
    for size, expected in ((1, [1] * 60), (7, [7] * 8 + [4]), (60, [60]), (default_size, [60])):
        monkeypatch.setattr(ensemble, "_CHUNK_REALIZATIONS", size)
        engine_passes.clear()
        path = tmp_path / f"{len(blobs)}.csv"
        assert main(args + ["--out", str(path)]) == 0
        assert engine_passes == [([("adn", n)], False) for n in expected]
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1] == blobs[2] == blobs[3]
    report(9, f"chunks of 1, 7, 60 and default: {len(blobs[0])} bytes each, all identical")


def test_criterion_10_measurement_statistics():
    """Empirical outcome-0 frequency matches P(0) within 3 SE, 20 random pairs."""
    rng = np.random.default_rng(2010)
    draws = 100_000
    for _ in range(20):
        kind = ("noiseless", "pdn", "adn")[int(rng.integers(3))]
        t_dec = math.inf if kind == "noiseless" else rng.uniform(0.1, 100.0)
        channel = Channel(kind=kind, tau=rng.uniform(0.1, 10.0), t_dec=t_dec)
        rho = random_density(rng)
        prob = measurement_prob_zero(channel, rho)
        frequency = float(np.count_nonzero(rng.uniform(0.0, 1.0, size=draws) <= prob)) / draws
        stderr = math.sqrt(prob * (1.0 - prob) / draws)
        assert abs(frequency - prob) <= 3.0 * stderr + 1e-12
    report(10, f"20 pairs x {draws} draws, all within 3 standard errors")


# The test's own Pauli X, Y, Z, for a kick built without the engine's or the oracle's rotation code.
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def mean_kicked_excited_fidelity(half_width: float, angle_scale: float, points: int = 48) -> float:
    """Mean |<e| Ry(beta) Rz(gamma) Rx(alpha) |0>| over angles uniform on [-half_width, half_width]^3.

    R_P(t) = cos(s t) I - i sin(s t) P with s = ``angle_scale`` (1/2 for half angles, 1 for
    full ones), by a ``points``^3 midpoint grid.
    """
    angles = half_width * ((np.arange(points) + 0.5) * 2.0 / points - 1.0)
    scaled = angle_scale * angles[:, None, None]
    rx, ry, rz = (np.cos(scaled) * np.eye(2) - 1j * np.sin(scaled) * pauli for pauli in PAULIS)
    _, vectors = np.linalg.eigh((math.sqrt(3.0) * PAULIS[0] - PAULIS[2]) / 4.0)
    excited = vectors[:, 1]  # eigh sorts eigenvalues in ascending order
    column = np.einsum("bij,gjk,ak->bgai", ry, rz, rx[:, :, 0])  # K|0> per (beta, gamma, alpha)
    return float(np.abs(column @ excited.conj()).mean())


def test_criterion_11_first_kick_matches_quadrature():
    """Step-1 reward share is P(0) of |0>; one kick of half-width 0.1 pi gives the half-angle mean f_e."""
    channel = Channel(kind="noiseless", tau=TAU1)
    params = AlgorithmParams(reward_rate=0.1, iterations=2)
    rewarded, one_kick = 0, []
    for start in range(0, 40_000, 1000):  # 1000 seeds per engine call keeps its draw buffer small
        for _, block, punished, _ in run_lockstep([(channel, list(range(start, start + 1000)))], params):
            rewarded += np.count_nonzero(~punished[:, 0])
            # Rewarded at step 1, so step 2 kicks |0> with the post-reward w = reward_rate.
            one_kick.append(block[~punished[:, 0] & punished[:, 1], 1, 1])  # f_e after step 2
    p0 = measurement_prob_zero(channel, density_from_pure(np.array([1.0, 0.0], dtype=complex)))
    share = rewarded / 40_000
    z_share = (share - p0) / math.sqrt(p0 * (1.0 - p0) / 40_000)
    f_e = np.concatenate(one_kick)
    mean, se = f_e.mean(), f_e.std(ddof=1) / math.sqrt(f_e.size)
    half = mean_kicked_excited_fidelity(params.reward_rate * math.pi, 0.5)
    full = mean_kicked_excited_fidelity(params.reward_rate * math.pi, 1.0)
    z_half, z_full = (mean - half) / se, (mean - full) / se
    assert abs(z_share) <= 3.0 and abs(z_half) <= 3.0
    assert abs(z_full) > 5.0  # the check tells half from full angles
    report(11, f"reward share {share:.4f} vs P0 {p0:.4f} (z = {z_share:.2f}); {f_e.size} one-kick f_e "
               f"{mean:.5f} vs half-angle {half:.5f} (z = {z_half:.2f}), full-angle {full:.5f} (z = {z_full:.2f})")
