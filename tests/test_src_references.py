"""Code in src/gblab has a caller in src/gblab.

Code that only tests call belongs in tests/ (see tests/oracles.py and
tests/polar_charts.py).  This test parses every module of the package,
collects its top-level functions and classes and their methods, and fails
when one of them is read nowhere in the package outside its own
definition: not as a variable, an attribute or an imported name.  A
variable counts only where it is read (Load context) and not bound in an
enclosing function, lambda or comprehension, so a local variable that
shares a definition's name is no reference to it.  References made inside
definitions that are themselves unreferenced do not count either; the scan
repeats until nothing more drops out, so a chain of calls that starts in
unused code is found whole.  Matching is by name only, so a method counts
as used when an attribute of that name is read anywhere.  Dunder methods
are called by Python itself and are not checked.  ALLOWED lists the
deliberate exceptions.
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
    "exterior.MultiVector.scalar",
    "exterior.MultiVector.inner",
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


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ListComp, ast.SetComp,
          ast.DictComp, ast.GeneratorExp)


def own_nodes(scope):
    """The nodes of a scope that no scope nested in it owns."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, SCOPES):
            yield from own_nodes(child)


def bound_names(scope) -> set:
    """The names a function, lambda or comprehension binds in its own scope."""
    names = set()
    declared = set()
    if not isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        args = scope.args
        names |= {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    for node in own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared |= set(node.names)
    return names - declared


def references(tree: ast.Module):
    """(name, line) of every variable read, attribute read and imported name in a module.

    A variable bound in an enclosing function, lambda or comprehension is
    that scope's own and refers to no module-level definition.
    """
    def walk(node, local):
        if isinstance(node, SCOPES):
            local = local | bound_names(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load) and child.id not in local:
                    yield child.id, child.lineno
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr, child.lineno
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    yield alias.name, child.lineno
            yield from walk(child, local)

    yield from walk(tree, frozenset())


def unreferenced(sources: dict) -> list:
    """Qualified names of the definitions no other live code of the sources refers to.

    sources maps module names to source text.  A reference made inside an
    unreferenced definition is dead; the scan repeats until the set of
    unreferenced definitions stops growing.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    refs = [(module, name, line) for module, tree in trees.items()
            for name, line in references(tree)]
    defs = [(module, qualname, node) for module, tree in trees.items()
            for qualname, node in definitions(module, tree)
            if not (node.name.startswith("__") and node.name.endswith("__"))]

    def inside(node, where, module, line):
        return where == module and node.lineno <= line <= node.end_lineno

    found = []
    while True:
        dead = [(module, node) for module, qualname, node in defs if qualname in found]
        live = [(where, name, line) for where, name, line in refs
                if not any(inside(node, where, module, line) for module, node in dead)]
        now = [qualname for module, qualname, node in defs
               if not any(name == node.name and not inside(node, where, module, line)
                          for where, name, line in live)]
        if now == found:
            return found
        found = now


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
    # size has one reader, inside unused, and Box has none: all three drop out
    assert unreferenced(sources) == ["a.recursive", "b.Box", "b.Box.size", "b.Box.unused"]


def test_scan_ignores_a_local_variable_of_the_same_name():
    sources = {
        "a": "def parity(n):\n    return n % 2\n\n\n"
             "def tables(n):\n    parity = [n % 2]\n    return {'parity': parity}\n\n\n"
             "def signs(parity):\n    return [-p for p in parity]\n\n\n"
             "def squares(n):\n    return [parity * parity for parity in range(n)]\n",
        "b": "from .a import signs, squares, tables\n\nTABLES = tables(2), signs([1]), squares(3)\n",
    }
    assert unreferenced(sources) == ["a.parity"]
    # a global declaration makes the name the module's again
    sources["a"] += "\n\ndef reset():\n    global parity\n    return parity\n"
    sources["b"] += "from .a import reset\n"
    assert unreferenced(sources) == []


def test_scan_follows_a_chain_from_unreferenced_code():
    sources = {
        "a": "def leaf():\n    return 1\n\n\ndef middle():\n    return leaf()\n\n\n"
             "def top():\n    return middle()\n\n\ndef shared():\n    return 2\n",
        "b": "from . import a\n\n\nclass Unused:\n    def run(self):\n"
             "        return a.shared() + a.leaf()\n\n\nVALUE = a.shared()\n",
    }
    # top has no reader, so what only top reaches drops out with it; shared
    # keeps a live reader at module level, leaf none outside dead code
    assert unreferenced(sources) == ["a.leaf", "a.middle", "a.top", "b.Unused", "b.Unused.run"]
