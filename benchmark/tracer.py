"""In-memory spans around the public functions of the ghzforge modules.

The program itself is not changed: inside a ``with tracer.installed():``
block every public module-level function of each layer module is
replaced by a wrapper that records a span, in every ghzforge namespace
that holds the function (``propagate`` is imported by name into ``cli``
and ``fullmodel``, ``exp_map`` into ``synthesis``).

A span is ``[id, parent_id, job, layer, name, start, end, counts]``.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import os
import sys
import time

LAYERS = ("cli", "synthesis", "propagate", "fullmodel", "dynamics", "unitary", "algebra")
CLI_IO = ("read_schedule_csv", "write_schedule_csv", "write_json")


def _output_bytes(path) -> int:
    return os.path.getsize(path) if path is not None else 0


def _probe_propagate(bound, result) -> dict:
    requested = bound.arguments["steps"]
    return {
        "steps_final": result.steps,
        "steps_integrated": 2 * result.steps - requested,
        "passes": 1 + round(math.log2(result.steps / requested)),
    }


# Counts taken from a call's arguments and result, keyed by (layer, function).
PROBES = {
    ("propagate", "propagate"): _probe_propagate,
    ("fullmodel", "validate_reduction"): lambda bound, result: {"steps": result.steps},
    ("synthesis", "rabi_schedule"): lambda bound, result: {"rows": len(result.times)},
    ("synthesis", "solve_endpoints"): lambda bound, result: {"solve_endpoints_calls": 1},
    ("cli", "read_schedule_csv"):
        lambda bound, result: {"bytes_read": os.path.getsize(bound.arguments["path"])},
    ("cli", "write_schedule_csv"):
        lambda bound, result: {"bytes_written": _output_bytes(bound.arguments["out"])},
    ("cli", "write_json"):
        lambda bound, result: {"bytes_written": _output_bytes(bound.arguments["out"])},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.job: int | None = None
        self._stack: list[list] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        """Record spans of calls made inside the with block."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    def _install(self) -> None:
        modules = {name: sys.modules[f"ghzforge.{name}"] for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(obj)] = self._wrap(layer, name, obj, PROBES.get((layer, name)))
        for module in [sys.modules["ghzforge"], *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[id(obj)])

    def _uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, layer, name, fn, probe):
        signature = inspect.signature(fn) if probe else None
        stack = self._stack
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.job, layer, name,
                    0.0, 0.0, None]
            spans.append(span)
            stack.append(span)
            span[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[7] = probe(bound, result)
            return result

        return traced


UNITS = {
    "cli.bytes_read": "B",
    "cli.bytes_written": "B",
    "cli.read_mb_per_s": "MB/s",
    "propagate.useful_step_frac": "ratio",
    "propagate.us_per_step": "us",
    "fullmodel.us_per_step": "us",
}


def unit(name: str) -> str:
    return UNITS.get(name, "s" if name.endswith("_s") else "count")


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer self times, counts and ratios, per pass over the job list."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[1] is not None:
            child_time[span[1]] += span[6] - span[5]

    totals: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        totals[key] = totals.get(key, 0.0) + value

    for layer in LAYERS:
        add(f"{layer}.self_s", 0.0)
        add(f"{layer}.calls", 0.0)
    for span in spans:
        _, parent, _, layer, name, start, end, counts = span
        if layer == "cli" and name in CLI_IO:
            add(f"cli.{name}_s", end - start)
        else:
            add(f"{layer}.self_s", end - start - child_time[span[0]])
        if parent is None or spans[parent][3] != layer:
            add(f"{layer}.calls", 1)
        for key, value in (counts or {}).items():
            add(f"{layer}.{key}", value)

    metrics = {key: value / passes for key, value in totals.items()}
    get = metrics.get

    def ratio(num: float, den: float, scale: float = 1.0) -> float:
        return scale * num / den if den else 0.0

    read_s = get("cli.read_schedule_csv_s", 0.0)
    integrated = get("propagate.steps_integrated", 0.0)
    return {
        "cli.self_s": get("cli.self_s"),
        "cli.read_schedule_csv_s": read_s,
        "cli.write_schedule_csv_s": get("cli.write_schedule_csv_s", 0.0),
        "cli.write_json_s": get("cli.write_json_s", 0.0),
        "cli.bytes_read": get("cli.bytes_read", 0.0),
        "cli.bytes_written": get("cli.bytes_written", 0.0),
        "cli.read_mb_per_s": ratio(get("cli.bytes_read", 0.0), read_s, 1e-6),
        "propagate.self_s": get("propagate.self_s"),
        "propagate.calls": get("propagate.calls"),
        "propagate.passes": get("propagate.passes", 0.0),
        "propagate.steps_final": get("propagate.steps_final", 0.0),
        "propagate.steps_integrated": integrated,
        "propagate.useful_step_frac": ratio(get("propagate.steps_final", 0.0), integrated),
        "propagate.us_per_step": ratio(get("propagate.self_s"), integrated, 1e6),
        "fullmodel.self_s": get("fullmodel.self_s"),
        "fullmodel.calls": get("fullmodel.calls"),
        "fullmodel.steps": get("fullmodel.steps", 0.0),
        "fullmodel.us_per_step": ratio(get("fullmodel.self_s"), get("fullmodel.steps", 0.0), 1e6),
        "synthesis.self_s": get("synthesis.self_s"),
        "synthesis.solve_endpoints_calls": get("synthesis.solve_endpoints_calls", 0.0),
        "synthesis.rows_sampled": get("synthesis.rows", 0.0),
        "dynamics.self_s": get("dynamics.self_s"),
        "dynamics.calls": get("dynamics.calls"),
        "unitary.self_s": get("unitary.self_s"),
        "unitary.calls": get("unitary.calls"),
        "algebra.self_s": get("algebra.self_s"),
        "algebra.calls": get("algebra.calls"),
    }
