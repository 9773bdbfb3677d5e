"""The benchmark tracer's wrap points still name real gblab entry points.

perfbench/tracer.py wraps gblab functions and model methods by name and
silently drops the metric of any wrap point that no longer resolves; this
test makes such a loss fail loudly instead.  Its work counters read
arguments and fields by name too (``anchors`` and ``steps`` of
simulate_bridges, ``contacts`` and ``alive`` of BridgeBatch, one supertrace
per path), so their contract is checked on a real batch.  The tracer is
only imported.
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from gblab import geometry as geo
from gblab import stochastic as st

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("span, module, path", tracer.WRAP_POINTS, ids=lambda v: str(v))
def test_wrap_point_resolves(span, module, path):
    assert tracer._resolve(module, path), f"{span}: {module}.{path} does not resolve"


@pytest.mark.parametrize("cls", [geo.SphereCap, geo.FlatBall], ids=lambda c: c.__name__)
@pytest.mark.parametrize("method", tracer.GEOMETRY_METHODS)
def test_geometry_method_is_wrapped(cls, method):
    # the tracer wraps the class in the model's MRO that defines the method
    owner = next((c for c in cls.__mro__ if method in vars(c)), None)
    assert owner is not None, f"{cls.__name__} has no {method}"
    owners = [o for o, _, _ in tracer._resolve("gblab.geometry", f"*.{method}")]
    assert owner in owners


def test_bridge_counters_read_a_real_batch():
    model = geo.model_catalog("hemisphere", dimension=2)
    anchors = model.sample_collar(np.random.default_rng(3), 12, 0.2)
    args = (model, anchors, 0.2, 10, st.RngStream(5))
    bound = inspect.signature(st.simulate_bridges).bind(*args)
    bound.apply_defaults()
    assert {"anchors", "steps"} <= bound.arguments.keys()
    assert {"contacts", "alive"} <= {f.name for f in dataclasses.fields(st.BridgeBatch)}
    batch = st.simulate_bridges(*args)
    counts = tracer._count_bridges(bound.arguments, batch)
    assert counts == {"paths": 12, "path_steps": 120, "steps": 10,
                      "contact_steps": int(batch.contacts.sum()),
                      "touched": int((batch.contacts > 0).sum()), "alive": 12}
    assert counts["contact_steps"] > 0
    supertraces = batch.supertraces()
    assert supertraces.shape == (12,)
    assert tracer._count_supertraces({}, supertraces) == {"supertrace_paths": 12}
