"""In-process tracing of qrl's public functions, for the per-layer metrics.

``Tracer.install`` replaces every public function that a qrl module holds
as a global -- the exact place its callers look the name up, whether the
function was defined there or imported with ``from .x import f`` -- by a
wrapper that counts calls and accumulates total and self time (duration
minus the time of wrapped callees). The CLI entry point and each ensemble
cell are also kept as spans. Nothing under ``src/`` is edited, and
``uninstall`` puts the original functions back.

A name the program no longer has, or never calls, simply reads 0 calls.
"""

from __future__ import annotations

import importlib
import inspect
import time
from functools import update_wrapper

LAYERS = ("cli", "output", "ensemble", "agent", "channels", "linalg")
SPAN_NAMES = ("cli.main", "ensemble.run_ensemble")


def _punishment(result) -> int:
    """1 when an ``agent.step`` result records outcome 1 (a kick), else 0."""
    try:
        return int(result[1].outcome == 1)
    except (AttributeError, IndexError, TypeError):
        return 0


class Tracer:
    """Call counts, total and self time per wrapped name, plus cell and CLI spans."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.punishments = 0
        self.spans: list[dict] = []
        self._children = [0.0]  # wrapped-callee time of each open call
        self._open_spans: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"qrl.{layer}")
            except ImportError:
                continue
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                owner = value.__module__ or ""
                if not owner.startswith("qrl."):
                    continue
                name = f"{owner.rpartition('.')[2]}.{value.__name__}"
                self._patched.append((module, attr, value))
                setattr(module, attr, self._wrap(name, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        children = self._children
        clock = time.perf_counter
        is_span = name in SPAN_NAMES
        is_step = name == "agent.step"

        def wrapper(*args, **kwargs):
            if is_span:
                self._open_span(name)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                children[-1] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - inner
                if is_span:
                    self._close_span(start, duration)
            if is_step:
                self.punishments += _punishment(result)
            return result

        return update_wrapper(wrapper, fn)

    def _open_span(self, name: str) -> None:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"name": name, "parent": parent})
        self._open_spans.append(len(self.spans) - 1)

    def _close_span(self, start: float, duration: float) -> None:
        span = self.spans[self._open_spans.pop()]
        span["start_s"] = start
        span["duration_s"] = duration

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0.0, 0.0))[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, (0, 0.0, 0.0))[2]

    def per_call_us(self, name: str, self_time: bool = False) -> float:
        calls = self.calls(name)
        if not calls:
            return 0.0
        spent = self.self_s(name) if self_time else self.total_s(name)
        return spent / calls * 1e6

    def layer_self_s(self, layer: str) -> float:
        return sum(s[2] for name, s in self.stats.items() if name.startswith(layer + "."))

    def table(self) -> dict[str, dict]:
        """Calls, total and self seconds per wrapped name (0 calls included)."""
        return {
            name: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
            for name, s in sorted(self.stats.items())
        }


def layer_metrics(tracer: Tracer, traced_wall_s: float, realizations: int,
                  csv_rows: int, csv_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced serial pass over a workload."""
    steps = tracer.calls("agent.step")
    punishments = tracer.punishments
    ensemble_self = tracer.layer_self_s("ensemble")
    emit = tracer.total_s("output.emit_csv")
    metrics = {
        "agent.steps": steps,
        "agent.punishments": punishments,
        "agent.punish_ratio": punishments / steps if steps else 0.0,
        "agent.draws": steps + 3 * punishments,
        "agent.step_self_us": tracer.per_call_us("agent.step", self_time=True),
        "agent.run_realization_self_us": tracer.per_call_us("agent.run_realization", self_time=True),
        "channels.apply_channel_us": tracer.per_call_us("channels.apply_channel"),
        "channels.prob_zero_self_us": tracer.per_call_us("channels.measurement_prob_zero", self_time=True),
        "channels.calls": sum(s[0] for n, s in tracer.stats.items() if n.startswith("channels.")),
        "linalg.density_from_pure_us": tracer.per_call_us("linalg.density_from_pure"),
        "linalg.overlap_us": tracer.per_call_us("linalg.overlap_magnitude"),
        "linalg.overlap_calls": tracer.calls("linalg.overlap_magnitude"),
        "linalg.axis_rotation_us": tracer.per_call_us("linalg.axis_rotation"),
        "ensemble.self_s": ensemble_self,
        "ensemble.fold_us_per_realization": ensemble_self / realizations * 1e6,
        "output.emit_csv_s": emit,
        "output.emit_csv_us_per_row": emit / csv_rows * 1e6 if csv_rows else 0.0,
        "output.csv_bytes": csv_bytes,
        "cli.parse_s": tracer.total_s("cli.parse_args") + tracer.total_s("cli.parse_sweep_text"),
        "cli.self_s": tracer.layer_self_s("cli"),
    }
    shares = {f"share.{layer}": tracer.layer_self_s(layer) / traced_wall_s for layer in LAYERS}
    shares["share.other"] = 1.0 - sum(shares.values())
    metrics.update(shares)
    return metrics
