"""Model knowledge stays in the model classes.

Kernel, confinement and boundary-curvature data are methods of the catalog
models in gblab/geometry.py.  This test reads every other module of the
package and fails if one branches on a model's type, name or attributes
again, or imports a concrete model class; importing ManifoldModel for type
hints is fine.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gblab"
MODEL_CLASSES = ("FlatBall", "SphereCap", "SphereBall")
DISPATCH = re.compile(r"isinstance\(model|model\.name ==|hasattr\(model")
IMPORT = re.compile(r"^\s*(from\s+\S+\s+)?import\s+(\([^)]*\)|.*)$", re.MULTILINE)


def modules():
    return sorted(p for p in SRC.glob("*.py") if p.name != "geometry.py")


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_model_dispatch(path):
    text = path.read_text(encoding="utf-8")
    hits = [line.strip() for line in text.splitlines() if DISPATCH.search(line)]
    assert not hits, f"{path.name} dispatches on the model: {hits}"


@pytest.mark.parametrize("path", modules(), ids=lambda p: p.name)
def test_no_concrete_model_import(path):
    text = path.read_text(encoding="utf-8")
    for match in IMPORT.finditer(text):
        names = set(re.findall(r"\w+", match.group(0)))
        assert not names & set(MODEL_CLASSES), f"{path.name}: {match.group(0).strip()}"


def test_guard_sees_the_old_dispatch():
    # the patterns catch the forms the dispatch chains used to take
    assert DISPATCH.search("    if isinstance(model, FlatBall):")
    assert DISPATCH.search('    if model.name == "ball":')
    assert DISPATCH.search('point = model.interior_point() if hasattr(model, "interior_point") else None')
    imports = IMPORT.findall("from .geometry import (\n    FlatBall,\n    ManifoldModel,\n)\n")
    assert imports and "FlatBall" in imports[0][1]


DERIVED_HOOKS = ("sample_volume", "sample_boundary", "offset_from_boundary", "boundary_distance",
                 "distance", "frame_curvature")


def test_models_inherit_the_derived_hooks():
    # ManifoldModel derives these from sample_collar, collar_data and geodesic_step
    from gblab import geometry

    classes = geometry.ManifoldModel.__subclasses__()
    assert sorted(c.__name__ for c in classes) == sorted(MODEL_CLASSES)
    for cls in classes:
        assert not set(DERIVED_HOOKS) & set(vars(cls)), cls.__name__
