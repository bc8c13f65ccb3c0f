"""Check that the three ``figs/*.sweep`` configs still write the frozen CSV bytes.

Runs ``figs/fig1.sweep``, ``fig2.sweep`` and ``fig3.sweep`` with this
checkout's ``src`` into a temporary directory and compares each CSV's
SHA-256 with the table in ``figs_digests.json`` next to this file. Run from
anywhere:

    python tools/figs_digests.py            # exit 1 when any CSV differs
    python tools/figs_digests.py --freeze   # rewrite the table from this checkout

A change that means to alter output bytes re-freezes the table and says so.
The self-test runs with ``python -m pytest tools/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).with_name("figs_digests.json")
SWEEPS = ("fig1", "fig2", "fig3")


def run_sweeps(out_dir: Path) -> dict[str, str]:
    """SHA-256 of each CSV the figs sweeps write into ``out_dir``, by file name."""
    search = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(search))
    for name in SWEEPS:
        config = ROOT / "figs" / f"{name}.sweep"
        subprocess.run([sys.executable, "-m", "qrl.cli", "sweep", "--config", str(config), "--out-dir", str(out_dir)],
                       env=env, check=True)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(out_dir.glob("*.csv"))}


def mismatches(frozen: dict[str, str], current: dict[str, str]) -> list[str]:
    """Names whose digest differs, or that only one of the two tables has, sorted."""
    return sorted(name for name in frozen.keys() | current.keys() if frozen.get(name) != current.get(name))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--freeze", action="store_true", help="rewrite the table instead of checking it")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        current = run_sweeps(Path(tmp))
    if args.freeze:
        TABLE.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        print(f"froze {len(current)} digests into {TABLE.name}")
        return 0
    frozen = json.loads(TABLE.read_text())
    bad = mismatches(frozen, current)
    for name in bad:
        print(f"differs: {name}: frozen {frozen.get(name)}, now {current.get(name)}")
    print(f"{len(frozen.keys() - set(bad))} of {len(frozen)} CSVs equal to the frozen table")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
