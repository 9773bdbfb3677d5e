"""Code in src/gblab has a caller in src/gblab.

Code that only tests call belongs in tests/ (see tests/oracles.py and
tests/polar_charts.py).  This test parses every module of the package,
collects its top-level functions and classes and their methods, and fails
when one of them is named nowhere in the package outside its own
definition: not as a variable, an attribute or an imported name.  Matching
is by name only, so a method counts as used when an attribute of that name
is read anywhere.  Dunder methods are called by Python itself and are not
checked.  ALLOWED lists the deliberate exceptions.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gblab"

ALLOWED = {
    # entry points of the public API that nothing inside the package calls
    "kernels.neumann_heat_kernel",
    # wrap points of the benchmark tracer (perfbench/tracer.py)
    "estimator.supertrace_expectation",
    # the exterior algebra's multivector surface, which the tests exercise
    "exterior.MultiVector",
    "exterior.MultiVector.basis",
    "exterior.MultiVector.wedge",
    "exterior.GradedOperator.apply",
    "exterior.wedge_operator",
    "exterior.contraction_operator",
    "exterior.boundary_projections",
    "exterior.shape_operator_extension",
    "exterior.parity",
}


def definitions(module: str, tree: ast.Module):
    """(qualified name, node) of the top-level functions and classes and their methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{module}.{node.name}.{item.name}", item


def references(tree: ast.Module):
    """(name, line) of every variable, attribute and imported name in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced(sources: dict) -> list:
    """Qualified names of the definitions no other code of the sources refers to.

    sources maps module names to source text.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)]
    found = []
    for module, tree in trees.items():
        for qualname, node in definitions(module, tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            if not any(name == node.name
                       and not (where == module and node.lineno <= line <= node.end_lineno)
                       for where, name, line in refs):
                found.append(qualname)
    return found


def package_sources():
    return {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}


def test_every_definition_is_referenced():
    found = [name for name in unreferenced(package_sources()) if name not in ALLOWED]
    assert not found, f"defined in src/gblab but only called from outside it: {found}"


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowed_names_exist(name):
    # a name deleted from the package leaves the list too
    defined = {qualname for module, text in package_sources().items()
               for qualname, _ in definitions(module, ast.parse(text))}
    assert name in defined


def test_scan_sees_an_unused_definition():
    sources = {
        "a": "def used():\n    pass\n\n\ndef recursive(n):\n    return recursive(n - 1)\n",
        "b": "from .a import used\n\n\nclass Box:\n    def __len__(self):\n        return 0\n\n"
             "    def size(self):\n        return used()\n\n    def unused(self):\n"
             "        return self.size()\n",
    }
    assert unreferenced(sources) == ["a.recursive", "b.Box", "b.Box.unused"]
