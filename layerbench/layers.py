"""Per-layer measurement from outside the program.

``Tracer`` replaces every public function of each ``movant.*`` module, in
every ``movant`` module that binds it, with a timing wrapper, and restores
the originals on ``uninstall``. Wrapping each binding matters because
``scheduling`` imports ``optimize_positions`` by name and ``harness``
imports ``achievable_rate`` by name. Spans keep a name, start, end, parent
and the operation they belong to; kernel and scenario calls are too many
to keep one by one, so they are counted and timed in aggregate only.
"""

import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict

import numpy as np

import reference as ref

LAYERS = ("kernels", "positioning", "scheduling", "channel", "gradients",
          "stationarity", "harness", "scenario", "cli")
SCENARIO_METHODS = ("direction_vectors", "amplitudes", "region_bounds", "with_")
AGGREGATE_ONLY = {"kernels", "scenario"}
SOLVE = "positioning.optimize_positions"
SEARCHES = {"scheduling.general_search", "scheduling.fitting_method"}
KERNELS = ("channel_matrix", "trace_at", "trace_and_grad", "project_deployment")

# (name, unit, better) of every per-layer metric, in output order
PER_LAYER = [
    *[
        row
        for k in KERNELS
        for row in (
            (f"kernels.{k}.calls", "count", "lower"),
            (f"kernels.{k}.s", "s", "lower"),
            (f"kernels.{k}.us_n5", "us", "lower"),
            (f"kernels.{k}.us_n10", "us", "lower"),
        )
    ],
    ("positioning.optimize_positions.calls", "count", "lower"),
    ("positioning.optimize_positions.s", "s", "lower"),
    ("positioning.self_s", "s", "lower"),
    ("positioning.separate_anchors.calls", "count", "lower"),
    ("positioning.separate_anchors.s", "s", "lower"),
    ("positioning.inner_iters", "count", "lower"),
    ("positioning.outer_iters", "count", "lower"),
    ("positioning.line_search_trials", "count", "lower"),
    ("positioning.step_accept_ratio", "ratio", "higher"),
    ("positioning.unconverged", "count", "lower"),
    ("scheduling.general_search.s", "s", "lower"),
    ("scheduling.fitting_method.s", "s", "lower"),
    ("scheduling.fit_rate_model.s", "s", "lower"),
    ("scheduling.solves_per_search", "count", "lower"),
    ("scheduling.self_s", "s", "lower"),
    ("channel.achievable_rate.calls", "count", "lower"),
    ("channel.s", "s", "lower"),
    ("gradients.grad_rate.calls", "count", "lower"),
    ("gradients.s", "s", "lower"),
    ("stationarity.speed_threshold.s", "s", "lower"),
    ("harness.run_scheme.s", "s", "lower"),
    ("harness.self_s", "s", "lower"),
    ("scenario.calls", "count", "lower"),
    ("scenario.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]
UNITS = {name: unit for name, unit, _ in PER_LAYER}


class Tracer:
    def __init__(self):
        self.modules = {layer: importlib.import_module(f"movant.{layer}") for layer in LAYERS}
        self.package = importlib.import_module("movant")
        self._solve_signature = inspect.signature(self.modules["positioning"].optimize_positions)
        self._patches = []
        self.reset()

    def reset(self, op=None):
        self.op = op
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_total = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self._stack = []
        self._depth = defaultdict(int)
        self._next_id = 0

    # -- installing ---------------------------------------------------------
    def install(self):
        owners = [self.package, *self.modules.values()]
        for layer, module in self.modules.items():
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name, None)
                if not callable(fn) or isinstance(fn, type) or hasattr(fn, "__wrapped__"):
                    continue
                wrapper = self._wrap(layer, name, fn)
                for owner in owners:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        scenario_cls = self.modules["scenario"].Scenario
        for name in SCENARIO_METHODS:
            fn = vars(scenario_cls).get(name)
            if fn is not None:
                self._patch(scenario_cls, name, self._wrap("scenario", f"Scenario.{name}", fn))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        keep_span = layer not in AGGREGATE_ONLY
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            tracer._next_id += 1
            frame = [key, 0.0, tracer._next_id, 0]  # name, child time, span id, trials
            stack.append(frame)
            tracer._depth[layer] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer._depth[layer] -= 1
                elapsed = end - start
                tracer.calls[key] += 1
                tracer.total[key] += elapsed
                tracer.self_time[key] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
                if tracer._depth[layer] == 0:
                    tracer.layer_total[layer] += elapsed
                if keep_span:
                    tracer.spans.append(
                        (frame[2], parent[2] if parent else 0, tracer.op, key, start, end)
                    )
            tracer._observe(key, frame, parent, result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _restarts(self, args, kwargs) -> int:
        """The restart count of an ``optimize_positions`` call."""
        bound = self._solve_signature.bind(*args, **kwargs)
        config = bound.arguments.get("config") or self.modules["positioning"].PenaltyConfig()
        return int(getattr(config, "restarts", 1))

    def _observe(self, key, frame, parent, result, args, kwargs):
        counts = self.counts
        if key == SOLVE:
            inner = int(getattr(result, "inner_iterations", 0))
            counts["inner_iters"] += inner
            counts["outer_iters"] += int(getattr(result, "outer_iterations", 0))
            counts["unconverged"] += not getattr(result, "converged", True)
            if any(f[0] in SEARCHES for f in self._stack):
                counts["solves_in_search"] += 1
            # the outcome's iterations are those of the winning restart only,
            # so the accept ratio is taken over single-restart solves
            if self._restarts(args, kwargs) == 1:
                counts["accepted_steps"] += inner
                counts["accept_trials"] += frame[3]
        elif key == "kernels.trace_at" and parent is not None and parent[0] == SOLVE:
            counts["line_search_trials"] += 1
            parent[3] += 1
        elif key in SEARCHES and not any(frame[0] in SEARCHES for frame in self._stack):
            counts["searches"] += 1

    # -- reading ------------------------------------------------------------
    def layer_self(self, layer: str) -> float:
        return sum((v for k, v in self.self_time.items() if k.startswith(layer + ".")), 0.0)

    def round_metrics(self) -> tuple[dict, dict]:
        """(counts, times) of the round traced since the last ``reset``."""
        c, t = self.counts, self.total
        counts = {}
        times = {}
        for k in KERNELS:
            counts[f"kernels.{k}.calls"] = self.calls[f"kernels.{k}"]
            times[f"kernels.{k}.s"] = t[f"kernels.{k}"]
        counts["positioning.optimize_positions.calls"] = self.calls[SOLVE]
        times["positioning.optimize_positions.s"] = t[SOLVE]
        times["positioning.self_s"] = self.layer_self("positioning")
        counts["positioning.separate_anchors.calls"] = self.calls["positioning.separate_anchors"]
        times["positioning.separate_anchors.s"] = t["positioning.separate_anchors"]
        for name in ("inner_iters", "outer_iters", "line_search_trials", "unconverged"):
            counts[f"positioning.{name}"] = c[name]
        counts["positioning.step_accept_ratio"] = (
            c["accepted_steps"] / c["accept_trials"] if c["accept_trials"] else 0.0
        )
        for name in ("general_search", "fitting_method", "fit_rate_model"):
            times[f"scheduling.{name}.s"] = t[f"scheduling.{name}"]
        counts["scheduling.solves_per_search"] = (
            c["solves_in_search"] / c["searches"] if c["searches"] else 0.0
        )
        times["scheduling.self_s"] = self.layer_self("scheduling")
        counts["channel.achievable_rate.calls"] = self.calls["channel.achievable_rate"]
        times["channel.s"] = self.layer_total["channel"]
        counts["gradients.grad_rate.calls"] = self.calls["gradients.grad_rate"]
        times["gradients.s"] = self.layer_total["gradients"]
        times["stationarity.speed_threshold.s"] = t["stationarity.speed_threshold"]
        times["harness.run_scheme.s"] = t["harness.run_scheme"]
        times["harness.self_s"] = self.layer_self("harness")
        counts["scenario.calls"] = sum(v for k, v in self.calls.items() if k.startswith("scenario."))
        times["scenario.s"] = self.layer_total["scenario"]
        return counts, times


def kernel_microtimings(kernels, scenario, blocks: int = 5, reps: int = 40) -> dict:
    """Microseconds per call of each kernel at fixed inputs: the scenario's
    users and 5 or 10 antennas at fixed points of a 10-wavelength square.
    Arguments are bound by parameter name, so a kernel that drops a
    parameter is still measured."""
    rng = np.random.default_rng(2024)
    out = {}
    for n in (5, 10):
        pos = np.ascontiguousarray(rng.uniform(2.0, 8.0, (n, 2)))
        named = {
            "positions": pos,
            "directions": np.ascontiguousarray(ref.directions(scenario)),
            "amplitudes": np.sqrt(np.asarray(scenario.fading_coeffs, dtype=float)),
            "wavenumber": 2.0 * math.pi / scenario.wavelength,
            "cond_limit": 1e12,
            "points": np.ascontiguousarray(pos + rng.normal(0.0, 1.0, (n, 2))),
            "centers": pos,
            "radius": 0.5,
            "lo": np.zeros(2),
            "hi": ref.region_upper(scenario),
            "tol": 1e-10,
            "max_iter": 20000,
        }
        for k in KERNELS:
            fn = getattr(kernels, k)
            params = inspect.signature(getattr(fn, "py_func", fn)).parameters
            args = [named[p] for p in params]
            fn(*args)
            samples = []
            for _ in range(blocks):
                start = time.perf_counter()
                for _ in range(reps):
                    fn(*args)
                samples.append((time.perf_counter() - start) / reps)
            out[f"kernels.{k}.us_n{n}"] = statistics.median(samples) * 1e6
    return out
