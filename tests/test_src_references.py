"""Code in src/gblab has a caller in src/gblab, and an optional parameter one that sets it.

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
as used when an attribute of that name is read anywhere, except in an
attribute chain rooted at a name that ``import`` or an absolute
``from ... import`` binds: ``np.linalg.norm`` reads numpy's ``norm``, not
a package method of that name.  Dunder methods
are called by Python itself and are not checked.  ALLOWED lists the
deliberate exceptions.

The parameter scan fails on an optional parameter (one with a default) of a
top-level function or method that no call in the package sets, by keyword
or by position; a default that every caller keeps belongs in the code.
Calls match by name as above, ``ClassName(...)`` calls ``__init__``, the
first parameter of a method (not of a static method) is its instance or
class, and a call with ``*args`` or ``**kwargs`` counts as setting every
parameter.  ALLOWED_PARAMETERS lists the deliberate exceptions, each with
its reason.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gblab"

ALLOWED = {
    # wrap points of the benchmark tracer (perfbench/tracer.py)
    "estimator.supertrace_expectation",
}

ALLOWED_PARAMETERS = {
    "cli.main.argv": "the console script calls main() and argparse reads sys.argv",
    "estimator.calibrate_constants.models": "the guard-rail families tests calibrate on",
    "stochastic.simulate_path.pinned": "the reference route tests compare bridge batches with",
    "estimator.supertrace_expectation.steps": "a tracer wrap point (see ALLOWED) has no src caller",
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


def external_names(scope) -> set:
    """The names a scope binds by import or absolute from-import (outside modules)."""
    names = set()
    for node in own_nodes(scope):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom) and node.level == 0):
            names |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
    return names


def chain_root(node):
    """The innermost value of an attribute chain a.b.c (the node a)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def references(tree: ast.Module):
    """(name, line) of every variable read, attribute read and imported name in a module.

    A variable bound in an enclosing function, lambda or comprehension is
    that scope's own and refers to no module-level definition.  Attributes
    read off an outside module (a chain rooted at a name an absolute import
    binds in the innermost scope binding it) are that module's, not ours.
    """
    def walk(node, local, external):
        if isinstance(node, SCOPES):
            own = bound_names(node)
            local = local | own
            external = (external - own) | external_names(node)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                if isinstance(child.ctx, ast.Load) and child.id not in local:
                    yield child.id, child.lineno
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                root = chain_root(child)
                if not (isinstance(root, ast.Name) and root.id in external):
                    yield child.attr, child.lineno
            elif isinstance(child, ast.ImportFrom):
                for alias in child.names:
                    yield alias.name, child.lineno
            yield from walk(child, local, external)

    yield from walk(tree, frozenset(), frozenset(external_names(tree)))


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


def call_name(call: ast.Call):
    """The name a call is matched by: f of f(...) and of x.f(...); None for other callees."""
    if isinstance(call.func, ast.Name):
        return call.func.id
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def optional_parameters(module: str, tree: ast.Module):
    """(qualified name, name its calls go by, position or None, parameter) of each default.

    The position counts the arguments a call passes before it: the first
    parameter of a method is its instance or class.  A keyword-only
    parameter has no position.
    """
    for qualname, node in definitions(module, tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        owner = qualname.split(".")[1] if qualname.count(".") == 2 else None
        if node.name.startswith("__") and node.name != "__init__":
            continue
        called_as = owner if node.name == "__init__" else node.name
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if owner is not None and not static else 0
        first = len(positional) - len(node.args.defaults)
        for i, arg in enumerate(positional[first:], start=first):
            yield f"{qualname}.{arg.arg}", called_as, i - skip, arg.arg
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield f"{qualname}.{arg.arg}", called_as, None, arg.arg


def unset_parameters(sources: dict) -> list:
    """Qualified names of the optional parameters no call in the sources sets."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def sets(call, position, name):
        if any(isinstance(a, ast.Starred) for a in call.args):
            return True
        keywords = {k.arg for k in call.keywords}
        if None in keywords or name in keywords:
            return True
        return position is not None and len(call.args) > position

    return [qualname for module, tree in trees.items()
            for qualname, called_as, position, name in optional_parameters(module, tree)
            if not any(call_name(c) == called_as and sets(c, position, name) for c in calls)]


def test_every_optional_parameter_is_set():
    found = [name for name in unset_parameters(package_sources())
             if name not in ALLOWED_PARAMETERS]
    assert not found, f"optional parameters that no call in src/gblab sets: {found}"


@pytest.mark.parametrize("name", sorted(ALLOWED_PARAMETERS))
def test_allowed_parameters_exist(name):
    # a parameter deleted from the package leaves the list too
    assert name in unset_parameters(package_sources())


def test_scan_sees_an_unset_parameter():
    sources = {
        "a": "def f(x, y=1, *, z=2, w=3):\n    return x\n\n\n"
             "class Box:\n    def __init__(self, size=0, fill=None):\n        self.size = size\n\n"
             "    def get(self, key, default=None):\n        return default\n\n"
             "    @staticmethod\n    def make(kind=None):\n        return kind\n\n\n"
             "def g(a=1, b=2):\n    return a\n",
        "b": "from .a import Box, f, g\n\n\n"
             "VALUE = f(1, 2, w=4), Box(3).get('k'), Box.make(1), g(*[1])\n",
    }
    # y by position, w by keyword, size by position through Box(...), kind by
    # position of a static method, a and b through *args; z, fill and default
    # are never set (get's one argument is its key)
    assert unset_parameters(sources) == ["a.f.z", "a.Box.__init__.fill", "a.Box.get.default"]


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


def test_scan_ignores_attributes_of_an_outside_module():
    sources = {
        "a": "import numpy as np\n\n\ndef norm(v):\n    return np.linalg.norm(v)\n\n\n"
             "def total(v):\n    return v\n\n\ndef mean(v):\n    return v\n\n\n"
             "def fill(v):\n    return v\n",
        "b": "from . import a\nfrom scipy import special\n\n\n"
             "def run(np):\n    return np.mean(a.norm(1)) + special.total(2)\n\n\n"
             "def local():\n    import numpy\n    return numpy.fill(3)\n\n\n"
             "VALUE = run(None), local()\n",
    }
    # special.total and numpy.fill are scipy's and numpy's; np.mean reads a
    # parameter that shadows the module-level import, and a.norm is ours
    assert unreferenced(sources) == ["a.total", "a.fill"]
