"""The benchmark tracer's wrap points still name real gblab entry points.

perfbench/tracer.py wraps gblab functions and model methods by name and
silently drops the metric of any wrap point that no longer resolves; this
test makes such a loss fail loudly instead.  The tracer is only imported.
"""

import importlib.util
from pathlib import Path

import pytest

from gblab import geometry as geo

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
