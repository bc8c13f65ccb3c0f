"""Golden lock: SHA-256 digests of the CSV bytes of small ensemble cells.

The digests were frozen from the per-realization engine (one
``run_realization`` per realization, folded in index order), before the
lockstep engine replaced it in ``run_ensemble``. A change that moves one
output byte of any cell fails here. The cells cover the three noise
kinds, tau in {1, 2pi}, dual-basis on and off, basis bit 1 with
non-default rates, and one 45 x 500 dual-basis cell that the lockstep
engine runs as a 1 MiB chunk of 26 realizations and a partial chunk of 19.
"""

import hashlib
import io
import math

import pytest

from qrl.agent import AlgorithmParams
from qrl.channels import Channel
from qrl.ensemble import EnsembleConfig, run_ensemble
from qrl.output import emit_csv

TAU2PI = 2.0 * math.pi

# name: ((kind, tau, t_dec), rates, realizations, iterations, seed, dual_basis, digest)
CELLS = {
    "noiseless-1": (
        ("noiseless", 1.0, math.inf), {}, 8, 60, 1, False,
        "2ea71647be0ec4dabc2854398a2428b4640aea6fadbd99244418a4924afaf2d9",
    ),
    "noiseless-2pi-dual": (
        ("noiseless", TAU2PI, math.inf), {}, 8, 60, 2, True,
        "32031743b264ea5ab73bcd38314de8a4ab2abe8e4325c3498c1aff7f4613e4b4",
    ),
    "pdn-1": (
        ("pdn", 1.0, 1.0), {}, 8, 60, 3, False,
        "40c610c5c1c28ef30188840538d16c02150f08c4335cbd4fe4d8b683c73589db",
    ),
    "pdn-2pi-dual": (
        ("pdn", TAU2PI, 10.0), {}, 8, 60, 4, True,
        "44bbb57aa24dcb13d16b2354b48ef87fa824269edc8f296ec4ae2a407a0d8575",
    ),
    "adn-1": (
        ("adn", 1.0, 10.0), {}, 8, 60, 5, False,
        "edaeb16d661ddc0930577718ffbb74bcbcd38e4d9ba4e54cb700b2a04172ce30",
    ),
    "adn-2pi": (
        ("adn", TAU2PI, 1.0), {}, 8, 60, 6, False,
        "33a3db52ca524f30038d7398b58c6999299825e475f415089109ef1c0e768fb6",
    ),
    "adn-1-bit1": (
        ("adn", 1.0, 1.0), dict(reward_rate=0.8, punish_rate=2.0, basis_bit=1), 8, 60, 7, True,
        "0936be85435c32f844f602efc3da63454e7caa628016c6de7bcbfbc62de2297c",
    ),
    "adn-1-dual-chunks": (
        ("adn", 1.0, 1.0), {}, 45, 500, 8, True,
        "bc3f9112dbb9629529b0a936385d681f8cb6be68d9fc3277c99198fad4981368",
    ),
}


@pytest.mark.parametrize("name", CELLS)
def test_csv_digest(name):
    (kind, tau, t_dec), rates, n, iterations, seed, dual, digest = CELLS[name]
    cfg = EnsembleConfig(
        channel=Channel(kind=kind, tau=tau, t_dec=t_dec),
        params=AlgorithmParams(iterations=iterations, **rates),
        n_realizations=n,
        master_seed=seed,
        dual_basis=dual,
    )
    buffer = io.StringIO()
    emit_csv(run_ensemble(cfg), buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest
