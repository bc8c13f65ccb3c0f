"""Golden lock: SHA-256 digests of small ensemble cells.

Each cell has two digests: one of its CSV bytes and one of the raw bytes
of every ``EnsembleStats`` array (``tobytes()`` in field order). The CSV
prints 12 significant digits, so only the raw digest sees a last-bit
change in a mean or standard error. The CSV digests were frozen from the
per-realization engine (one ``run_realization`` per realization, folded
in index order) and the raw digests from the first lockstep engine, each
before the engine that followed replaced it. The cells cover the three
noise kinds, tau in {1, 2pi}, dual-basis on and off, a 45 x 500
dual-basis cell, and a 300 x 150 dual-basis cell with non-default rates
that spans three iteration blocks, ends in a partial one and runs
as three chunks of realizations, the last one partial (its chunk size is
forced, since the default would run it as one chunk).
"""

import dataclasses
import hashlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrl import ensemble
from qrl.agent import AlgorithmParams
from qrl.channels import Channel
from qrl.ensemble import EnsembleConfig, run_ensemble
from qrl.output import emit_csv

TAU2PI = 2.0 * math.pi

# name: ((kind, tau, t_dec), rates, realizations, iterations, seed, dual_basis,
#        CSV digest, raw digest)
CELLS = {
    "noiseless-1": (
        ("noiseless", 1.0, math.inf), {}, 8, 60, 1, False,
        "2ea71647be0ec4dabc2854398a2428b4640aea6fadbd99244418a4924afaf2d9",
        "1b950829ff2031b81801c5d1c9abb50a821c91e33fb205ec624d49bdc953e17f",
    ),
    "noiseless-2pi-dual": (
        ("noiseless", TAU2PI, math.inf), {}, 8, 60, 2, True,
        "32031743b264ea5ab73bcd38314de8a4ab2abe8e4325c3498c1aff7f4613e4b4",
        "36883059438b2ab4b7762cab470e5a4d8b1fd8d31aa0711db09c449ef41bf9de",
    ),
    "pdn-1": (
        ("pdn", 1.0, 1.0), {}, 8, 60, 3, False,
        "40c610c5c1c28ef30188840538d16c02150f08c4335cbd4fe4d8b683c73589db",
        "882f9461ae0d174486ae373c929c7e36e6b2a960752a5f9c614572d5cafbbfb6",
    ),
    "pdn-2pi-dual": (
        ("pdn", TAU2PI, 10.0), {}, 8, 60, 4, True,
        "44bbb57aa24dcb13d16b2354b48ef87fa824269edc8f296ec4ae2a407a0d8575",
        "68cbb926cc12c4ea856de2dc0e7a6af1886342a64b5e88360e14352c40ea2fbe",
    ),
    "adn-1": (
        ("adn", 1.0, 10.0), {}, 8, 60, 5, False,
        "edaeb16d661ddc0930577718ffbb74bcbcd38e4d9ba4e54cb700b2a04172ce30",
        "2ba4d5f7ef060ec42b4d9c9e1d47d07ff5ebe18fd020e824e9dc04de16d6d5ca",
    ),
    "adn-2pi": (
        ("adn", TAU2PI, 1.0), {}, 8, 60, 6, False,
        "33a3db52ca524f30038d7398b58c6999299825e475f415089109ef1c0e768fb6",
        "d5b0d99233f0e99b7e2632e86ff5bd6681ce0de9da1ee3c9cb5995a1d5f8ce0b",
    ),
    "adn-1-dual-chunks": (
        ("adn", 1.0, 1.0), {}, 45, 500, 8, True,
        "bc3f9112dbb9629529b0a936385d681f8cb6be68d9fc3277c99198fad4981368",
        "91b776ef7c67010cdd43aa5e94532636c966d3a728491818ff2d844eb797a1e7",
    ),
    "adn-1-dual-blocks": (
        ("adn", 1.0, 10.0), dict(reward_rate=0.8, punish_rate=2.0), 300, 150, 9, True,
        "dca060b6bd18400b1f96cc069a6295cd3dc29c469d740c3339c30d0eb1037e08",
        "4c10691122da08120c7ece9b5b19d5800932063313df5ed9c2d366ce3c1a83c0",
    ),
}


# Realizations per chunk forced on a cell, so that it runs as several chunks.
CHUNKS = {"adn-1-dual-blocks": 128}


def _run(name, monkeypatch):
    (kind, tau, t_dec), rates, n, iterations, seed, dual, *_ = CELLS[name]
    cfg = EnsembleConfig(
        channel=Channel(kind=kind, tau=tau, t_dec=t_dec),
        params=AlgorithmParams(iterations=iterations, **rates),
        n_realizations=n,
        master_seed=seed,
        dual_basis=dual,
    )
    chunks = []
    if name in CHUNKS:
        monkeypatch.setattr(ensemble, "_CHUNK_REALIZATIONS", CHUNKS[name])
        engine = ensemble.run_lockstep

        def counted(channel, params, seeds, fold, **kwargs):
            chunks.append(len(seeds))
            return engine(channel, params, seeds, fold, **kwargs)

        monkeypatch.setattr(ensemble, "run_lockstep", counted)
    stats = run_ensemble(cfg)
    assert name not in CHUNKS or chunks == [128, 128, 44]
    return stats


@pytest.mark.parametrize("name", CELLS)
def test_csv_digest(name, monkeypatch):
    buffer = io.StringIO()
    emit_csv(_run(name, monkeypatch), buffer)
    assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == CELLS[name][-2]


def raw_digest(stats):
    digest = hashlib.sha256()
    for field in dataclasses.fields(stats):
        value = getattr(stats, field.name)
        if isinstance(value, np.ndarray):
            digest.update(value.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", CELLS)
def test_raw_digest(name, monkeypatch):
    assert raw_digest(_run(name, monkeypatch)) == CELLS[name][-1]


def test_raw_digest_ignores_blas_threads():
    # qrl keeps OpenBLAS to one thread unless told otherwise; a pool of two must give the same bits.
    name = "adn-1-dual-chunks"
    assert name not in CHUNKS  # _run needs no monkeypatch
    here = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([str(here.parent / "src"), str(here)]))
    code = f"import test_golden as g; print(g.raw_digest(g._run({name!r}, None)))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                            timeout=60, check=True)
    assert result.stdout.strip() == CELLS[name][-1]
