"""Write golden.json: the SHA-256 of every CSV each workload writes at the default seed.

    python3 bench/freeze_golden.py

Run it only for a change that is meant to alter output bytes, and say
why in that change. Each CSV must still pass the schema checks.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import workloads
from run import WORK, Runner, run_process


def main() -> int:
    golden = {}
    for name in workloads.NAMES:
        runner = Runner(workloads.build(name, gate.DEFAULT_SEED), seconds=0.0)
        runner.golden = {}
        try:
            out = runner.fresh_dir("freeze")
            argv = runner.workload.argv(out)
            proc = run_process([sys.executable, "-m", "qrl.cli", *argv], runner.env, runner.work,
                               timeout=runner.remaining())
            runner.check(out, proc.returncode)
        finally:
            shutil.rmtree(runner.work, ignore_errors=True)
        if runner.failed:
            print("\n".join(runner.problems), proc.stderr, file=sys.stderr)
            return 1
        golden[name] = runner.reference
    try:
        WORK.rmdir()
    except OSError:
        pass
    gate.GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
