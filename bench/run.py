"""Benchmark of the qrl simulator: one workload, one run, one JSON result.

    python3 bench/run.py --workload cell-wide --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout. ``--trace 0`` drives the ``qrl``
CLI in fresh interpreters (``PYTHONPATH=src python -m qrl.cli``) and
reports the end-to-end metrics named in ``BENCHMARK.json``: set-up time,
wall and CPU time, peak resident set and realization-steps per second.
``--trace 1`` runs the same CLI ``main`` in this process, pooled, serial
and traced (see ``tracing.py``), and reports the per-layer metrics.

Every CSV a run writes goes through the correctness gate in ``gate.py``;
a cell that fails it counts in ``failed``. The second-to-last line of
standard output records the run (machine, versions, commit, seed,
workers, digests, problems found), the last line is the result object.
The exit code is 1, with no result, when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import workloads
from workloads import Cell, Workload

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".bench_work"
RUN_LIMIT_S = 170.0  # the whole run, set-up included, must end within 180 s
SETUP_PROBES = 11
POOL_PROBES = 5

# Imports qrl, parses the workload's arguments (and sweep file) the way
# `qrl` does, and prints when it got there; the parent subtracts its own
# clock reading from before the process started. CLOCK_MONOTONIC is
# shared by all processes of the machine.
PROBE = r"""
import json, platform, sys, time
from pathlib import Path
import qrl.cli as cli
argv = sys.argv[1:]
specs = [cli.parse_args(argv)]
if argv[0] == "sweep":
    specs = cli.parse_sweep_text(Path(argv[2]).read_text(encoding="utf-8"))
parsed = time.monotonic()
import numpy
info = {"parsed": parsed, "python": platform.python_version(), "numpy": numpy.__version__,
        "qrl_file": cli.__file__}
try:
    from qrl.ensemble import worker_count
    info["workers"] = max(worker_count(spec.realizations) for spec in specs)
except (ImportError, AttributeError, TypeError, ValueError):
    info["workers"] = None
print(json.dumps(info))
"""


class ProgramMissing(RuntimeError):
    """The qrl program cannot be imported or parse its arguments."""


@dataclass
class Process:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_process(cmd: list[str], env: dict, cwd: Path, timeout: float) -> Process:
    """Run ``cmd`` to completion; CPU and peak RSS include its reaped children."""
    out_path, err_path = cwd / "stdout.txt", cwd / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            except ProcessLookupError:
                pass

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            killer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        with open(err_path, "a", encoding="utf-8") as err:
            err.write(f"killed after {timeout:.0f} s\n")
    result = Process(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )
    out_path.unlink()
    err_path.unlink()
    return result


class Runner:
    """State of one benchmark run: workload, scratch directory, gate tallies."""

    def __init__(self, workload: Workload, seconds: float):
        self.workload = workload
        self.seconds = seconds
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = WORK / f"{workload.name}-{workload.seed}-{os.getpid()}"
        self.env = {k: v for k, v in os.environ.items() if k != "QRL_THREADS"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.golden = gate.golden_digests(workload.name, workload.seed)
        self.reference: dict[str, str] = {}  # cell -> digest of its first run
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}
        self._dirs = 0

    def fresh_dir(self, label: str) -> Path:
        self._dirs += 1
        path = self.work / f"{self._dirs:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def check(self, out_dir: Path, returncode: int, cells=None, rows=workloads.ITERATIONS) -> None:
        """Gate every cell of one invocation; identical inputs must give identical bytes."""
        for cell in cells or self.workload.cells:
            self.attempted += 1
            path = out_dir / cell.name
            if returncode != 0:
                found = [f"{cell.name}: qrl exited with code {returncode}"]
            else:
                found = gate.check_csv(path, cell, self.golden.get(cell.name), rows=rows)
            if not found:
                digest = gate.sha256(path)
                if self.reference.setdefault(cell.name, digest) != digest:
                    found = [f"{cell.name}: bytes differ from an earlier run of the same inputs"]
            if found:
                self.failed += 1
                self.problems.extend(found)

    # -- set-up ---------------------------------------------------------

    def probe_setup(self) -> float:
        """One fresh interpreter: import qrl and parse the workload's arguments."""
        out = self.fresh_dir("setup")
        argv = self.workload.argv(out)
        start = time.monotonic()
        proc = run_process([sys.executable, "-c", PROBE, *argv], self.env, self.work,
                           timeout=max(5.0, self.remaining()))
        shutil.rmtree(out)
        try:
            info = json.loads(proc.stdout.strip().splitlines()[-1])
            setup = info.pop("parsed") - start
            if not Path(info.pop("qrl_file")).resolve().is_relative_to(ROOT / "src"):
                raise ValueError("qrl was imported from outside this checkout")
        except (IndexError, ValueError, KeyError) as exc:
            raise ProgramMissing(
                f"qrl from {ROOT / 'src'} could not import or parse its arguments "
                f"(exit {proc.returncode}, {exc!r}):\n{proc.stderr.strip()}"
            ) from None
        self.info.update(info)
        return setup

    # -- end-to-end -----------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        self.probe_setup()  # warm-up: byte-compiles once, as a user's first run does
        setups, walls, cpus, rss = [], [], [], []
        while True:
            # Set-up probes alternate with the CLI runs so both sample the same moments.
            setups.append(self.probe_setup())
            out = self.fresh_dir("cli")
            argv = self.workload.argv(out)
            proc = run_process([sys.executable, "-m", "qrl.cli", *argv], self.env, self.work,
                               timeout=max(5.0, self.remaining()))
            if proc.returncode != 0:
                self.problems.append(proc.stderr.strip()[-500:])
            self.check(out, proc.returncode)
            shutil.rmtree(out)
            walls.append(proc.wall_s)
            cpus.append(proc.cpu_s)
            rss.append(proc.peak_rss_mb)
            if sum(walls) >= self.seconds or self.remaining() < 2.0 * proc.wall_s + 5.0:
                break
        while len(setups) < SETUP_PROBES:
            setups.append(self.probe_setup())
        setup = statistics.median(setups)
        wall = statistics.median(walls)
        self.info.update(reps=len(walls), setup_s_all=setups, wall_s_all=walls)
        return {
            "setup_s": setup,
            "wall_s": wall,
            "steps_per_s": self.workload.steps / (wall - setup),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(rss),
        }

    # -- traced ---------------------------------------------------------

    def call_main(self, cli, argv: list[str], threads: str | None, tracer=None) -> tuple[int, float]:
        """Run the CLI's ``main`` in this process; return its exit code and wall time."""
        if threads is None:
            os.environ.pop("QRL_THREADS", None)
        else:
            os.environ["QRL_THREADS"] = threads
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crashing cell is a failed cell, not a crashed benchmark
            self.problems.append(f"qrl main raised {exc!r}")
            code = 1
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
            os.environ.pop("QRL_THREADS", None)
        return code, wall

    def pass_over(self, cli, label: str, threads: str | None, tracer=None) -> tuple[float, int, int]:
        """One in-process pass over the workload: wall time, CSV rows and bytes."""
        out = self.fresh_dir(label)
        code, wall = self.call_main(cli, self.workload.argv(out), threads, tracer)
        self.check(out, code)
        paths = [out / cell.name for cell in self.workload.cells if (out / cell.name).is_file()]
        rows = sum(path.read_bytes().count(b"\n") - 1 for path in paths)
        size = sum(path.stat().st_size for path in paths)
        shutil.rmtree(out)
        return wall, rows, size

    def traced(self) -> dict[str, float]:
        self.probe_setup()
        sys.path.insert(0, str(ROOT / "src"))
        import qrl.cli as cli
        from tracing import Tracer, layer_metrics

        # Pool start-up: a 2-realization, 1-iteration cell pooled minus serial.
        probe_cell = (Cell("pool-probe.csv", False, 2),)
        timings: dict[str | None, list[float]] = {None: [], "1": []}
        for _ in range(POOL_PROBES):
            for threads, sink in timings.items():
                out = self.fresh_dir("pool-probe")
                argv = ["run", "--realizations", "2", "--iters", "1",
                        "--out", str(out / probe_cell[0].name)]
                code, wall = self.call_main(cli, argv, threads)
                self.check(out, code, cells=probe_cell, rows=1)
                shutil.rmtree(out)
                sink.append(wall)
        pool_startup = statistics.median(timings[None]) - statistics.median(timings["1"])

        # Each ratio compares adjacent passes, and the traced pass sits between
        # two untraced ones, so a slow drift of the machine's speed cancels.
        pooled, _, _ = self.pass_over(cli, "pooled", None)
        serial, _, _ = self.pass_over(cli, "serial", "1")
        tracer = Tracer()
        traced, rows, size = self.pass_over(cli, "traced", "1", tracer)
        serial_after, _, _ = self.pass_over(cli, "serial", "1")

        try:
            from qrl.ensemble import worker_count
            workers = max(worker_count(cell.realizations) for cell in self.workload.cells)
        except ImportError:
            workers = 1
        realizations = sum(cell.realizations for cell in self.workload.cells)
        metrics = layer_metrics(tracer, traced, realizations, rows, size)
        metrics.update({
            "ensemble.workers": workers,
            "ensemble.pool_startup_s": pool_startup,
            "ensemble.pool_speedup": serial / pooled,
            "trace.overhead": traced / statistics.fmean((serial, serial_after)),
        })
        origin = tracer.spans[0]["start_s"] if tracer.spans else 0.0
        for span in tracer.spans:
            span["start_s"] = span.get("start_s", origin) - origin
        self.info.update(
            workers=workers, pooled_s=pooled, serial_s=[serial, serial_after], traced_s=traced,
            pool_probe_s={"pooled": timings[None], "serial": timings["1"]},
            layers=tracer.table(), spans=tracer.spans,
        )
        return metrics


def machine() -> dict:
    """nproc, CPU model and cache sizes of this machine, as far as they can be read."""
    info = {"nproc": os.cpu_count(), "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    info["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    return info


def source_identity() -> dict:
    """The git commit when the checkout has one, and a digest of src/ always."""
    commit = "unknown"
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (ROOT / ".git" / head[5:]).read_text().strip()
        commit = head
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="end-to-end: keep repeating the workload until this much wall time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_metrics(bool(args.trace))
    runner = Runner(workloads.build(args.workload, args.seed), args.seconds)
    try:
        values = runner.traced() if args.trace else runner.end_to_end()
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    missing = sorted(set(units) - set(values))
    if missing:
        print(f"bench: metrics declared but not measured: {missing}", file=sys.stderr)
        return 1

    run_info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "steps": runner.workload.steps,
        "fail_ratio": runner.failed / runner.attempted,
        "machine": machine(),
        **source_identity(),
        **runner.info,
        "digests": runner.reference,
        "problems": runner.problems[:20],
    }
    print(json.dumps({"run_info": run_info}))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
