"""Span tracer that wraps gblab's layer entry points from outside the package.

``Tracer.install`` resolves every wrap point by name and replaces it with a
recording wrapper, in its defining module and in every gblab module that
imported it by name; ``Tracer.restore`` puts every original back.  A wrap
point that no longer exists is skipped and listed in ``missing``, so the
metrics that need it are left out instead of failing the run.

Spans (name, start, end, parent, run id) and the exact work counts are kept
in memory; ``layer_metrics`` turns one run's spans into per-layer numbers.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from collections import defaultdict

# model methods the stochastic layer asks for on each step
GEOMETRY_METHODS = ("geodesic_step", "boundary_distance", "collar_data", "log_frame",
                    "reflect", "boundary_data", "holonomy")

# (span name, module, attribute path); the span prefix names the layer
WRAP_POINTS = (
    ("cli.run", "gblab.cli", "run"),
    ("geometry.model_catalog", "gblab.geometry", "model_catalog"),
    ("estimator.estimate_chi", "gblab.estimator", "estimate_chi"),
    ("estimator.local_limit_check", "gblab.estimator", "local_limit_check"),
    ("estimator.supertrace_expectation", "gblab.estimator", "supertrace_expectation"),
    ("estimator.chi_chunk", "gblab.estimator", "_chi_chunk"),
    ("estimator.sample_points", "gblab.estimator", "_stratified_points"),
    ("exterior.calibrate", "gblab.estimator", "calibrate_constants"),
    ("kernels.heat_kernel_diag", "gblab.kernels", "heat_kernel_diag"),
    ("stochastic.simulate_bridges", "gblab.stochastic", "simulate_bridges"),
    ("stochastic.step_bridge", "gblab.stochastic", "step_bridge"),
    ("stochastic.bridge_drift", "gblab.stochastic", "bridge_drift"),
    ("stochastic.apply_increment", "gblab.stochastic", "_apply_increment"),
    ("stochastic.orthonormalize", "gblab.stochastic", "_orthonormalize"),
    ("stochastic.jump_update", "gblab.stochastic", "_jump_update"),
    ("stochastic.supertraces", "gblab.stochastic", "BridgeBatch.supertraces"),
) + tuple((f"geometry.{m}", "gblab.geometry", f"*.{m}") for m in GEOMETRY_METHODS)


def _count_bridges(args, result):
    paths = len(args["anchors"])
    contacts = result.contacts
    return {"paths": paths, "path_steps": paths * args["steps"], "steps": args["steps"],
            "contact_steps": int(contacts.sum()), "touched": int((contacts > 0).sum()),
            "alive": int(result.alive.sum())}


def _count_points(args, result):
    return {"points": len(result)}


def _count_supertraces(args, result):
    return {"supertrace_paths": len(result)}


# span name -> (work counts of one call from its bound arguments and result)
COUNTERS = {
    "stochastic.simulate_bridges": _count_bridges,
    "kernels.heat_kernel_diag": _count_points,
    "estimator.sample_points": lambda args, result: {"sample_points": args["count"]},
    "stochastic.supertraces": _count_supertraces,
}


def _resolve(module_name, path):
    """(owner, attribute, original) triples for one wrap point; [] if missing."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return []
    head, _, attr = path.rpartition(".")
    if head == "*":
        base = getattr(module, "ManifoldModel", None)
        if base is None:
            return []
        owners = [cls for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, base) and attr in vars(cls)]
        return [(cls, attr, vars(cls)[attr]) for cls in owners]
    owner = module
    for part in filter(None, head.split(".")):
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(original):
        return []
    return [(owner, attr, original)]


class Tracer:
    def __init__(self, wrap_points=WRAP_POINTS):
        self.wrap_points = wrap_points
        self.spans = []       # (name, start, end, parent index, run id)
        self.counts = []      # (span index, {count: value})
        self.run_id = 0
        self.missing = []
        self._stack = []
        self._patched = []    # (owner, attribute, original)

    # -- installation ----------------------------------------------------
    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "gblab" or name.startswith("gblab.")) and m is not None]
        self.missing = []
        for span_name, module_name, path in self.wrap_points:
            targets = _resolve(module_name, path)
            if not targets:
                self.missing.append(span_name)
                continue
            for owner, attr, original in targets:
                wrapper = self._wrap(span_name, original)
                self._patch(owner, attr, original, wrapper)
                if not isinstance(owner, type):
                    # rebind names other modules imported with "from x import f"
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original and module is not owner:
                                self._patch(module, name, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter is not None else None

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.counts.append((index, counter(bound.arguments, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output ------------------------------------------------------------
    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name,start,end,parent,run\n")
            for name, start, end, parent, run in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{run}\n")


def layer_metrics(spans, counts, run_id, missing=()) -> dict:
    """Per-layer metrics of one traced run.

    A layer's time is the inclusive time of its outermost spans; a self time
    subtracts the spans of wrapped callees.  Geometry calls and times count
    only calls made from outside the geometry layer, so a model method that
    calls another is not counted twice.  Metrics whose own wrap point is
    missing are left out.
    """
    chosen = {i for i, span in enumerate(spans) if span[4] == run_id}
    child_time = defaultdict(float)
    for i in chosen:
        _, start, end, parent, _ = spans[i]
        if parent in chosen:
            child_time[parent] += end - start
    inclusive = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    for i in chosen:
        name, start, end, parent, _ = spans[i]
        self_time[name] += end - start - child_time[i]
        if _outermost(spans, i):
            inclusive[name] += end - start
            calls[name] += 1
    total = defaultdict(int)
    for i, values in counts:
        if i in chosen and _outermost(spans, i):
            for key, value in values.items():
                total[key] += value

    def ratio(a, b):
        return a / b if b else 0.0

    path_steps = total["path_steps"]
    paths = total["paths"]
    estimator_spans = ("estimator.estimate_chi", "estimator.local_limit_check",
                       "estimator.supertrace_expectation", "estimator.chi_chunk")
    metrics = [
        ("kernels.diag_us_per_point", "kernels.heat_kernel_diag",
         1e6 * ratio(inclusive["kernels.heat_kernel_diag"], total["points"])),
        ("stochastic.path_steps", "stochastic.simulate_bridges", path_steps),
        ("stochastic.path_steps_per_s", "stochastic.simulate_bridges",
         ratio(path_steps, inclusive["stochastic.simulate_bridges"])),
        ("stochastic.drift_s", "stochastic.bridge_drift", inclusive["stochastic.bridge_drift"]),
        ("stochastic.step_self_s", "stochastic.step_bridge", self_time["stochastic.step_bridge"]),
        ("stochastic.increment_self_s", "stochastic.apply_increment",
         self_time["stochastic.apply_increment"]),
        ("stochastic.orthonormalize_s", "stochastic.orthonormalize",
         inclusive["stochastic.orthonormalize"]),
        ("stochastic.jump_s", "stochastic.jump_update", inclusive["stochastic.jump_update"]),
        ("stochastic.supertrace_us_per_path", "stochastic.supertraces",
         1e6 * ratio(inclusive["stochastic.supertraces"], total["supertrace_paths"])),
        ("stochastic.contact_fraction", "stochastic.simulate_bridges",
         ratio(total["contact_steps"], path_steps)),
        ("stochastic.touch_fraction", "stochastic.simulate_bridges", ratio(total["touched"], paths)),
        ("stochastic.alive_fraction", "stochastic.simulate_bridges", ratio(total["alive"], paths)),
    ]
    for m in GEOMETRY_METHODS:
        metrics.append((f"geometry.{m}_s", f"geometry.{m}", inclusive[f"geometry.{m}"]))
        metrics.append((f"geometry.{m}_calls_per_step", f"geometry.{m}",
                        ratio(calls[f"geometry.{m}"], total["steps"])))
    metrics += [
        ("estimator.sample_us_per_point", "estimator.sample_points",
         1e6 * ratio(inclusive["estimator.sample_points"], total["sample_points"])),
        ("estimator.self_s", "estimator.estimate_chi",
         sum(self_time[n] for n in estimator_spans)),
        ("exterior.calibrate_s", "exterior.calibrate", inclusive["exterior.calibrate"]),
        ("cli.self_s", "cli.run", self_time["cli.run"]),
    ]
    return {name: value for name, needs, value in metrics if needs not in missing}


def _outermost(spans, i) -> bool:
    """A geometry span called from outside geometry; any other span with no
    ancestor of the same name."""
    name, _, _, parent, _ = spans[i]
    if name.startswith("geometry."):
        return parent < 0 or not spans[parent][0].startswith("geometry.")
    while parent >= 0:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][3]
    return True
