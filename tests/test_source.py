"""Source-level checks on the package modules."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blocktoeplitz"
BENCH = Path(__file__).resolve().parents[1] / "bench"


def _defined_names(node):
    """The names a module-level statement defines: a function, a class or assigned names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _private_definitions(tree):
    """Module-level functions, classes and constants named with one leading underscore."""
    for node in tree.body:
        yield from (n for n in _defined_names(node) if n.startswith("_") and not n.startswith("__"))


def _public_definitions(tree):
    """(name, node) of each public module-level function, class and UPPER_CASE constant, and
    of each public method of a module-level class (as `Class.method`); dunders are exempt."""
    for node in tree.body:
        constant = isinstance(node, (ast.Assign, ast.AnnAssign))
        yield from ((n, node) for n in _defined_names(node)
                    if not n.startswith("_") and (n.isupper() or not constant))
        for fn in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                yield f"{node.name}.{fn.name}", fn


def _references(tree, strings=False):
    """How often each name is read (`name` or `x.name`) in the tree; with `strings`, string
    constants count too, a dotted one such as "operators.hankel_window" by its last part."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            uses[node.value.rsplit(".", 1)[-1]] += 1
    return uses


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_references(tree))
    dead = [(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree) if not uses[name]]
    assert len(trees) > 1
    assert dead == []


def test_every_public_name_has_a_caller():
    # the package's API is what the decision routes, the CLI and the benchmark call;
    # a public name that only tests reach belongs in tests/reference.py, or nowhere
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        uses.update(_references(tree))
    for path in sorted(BENCH.glob("*.py")):
        uses.update(_references(ast.parse(path.read_text()), strings=True))
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if uses[name] <= _references(node)[name]:  # only its own definition reads it
                unused.append(f"{module}.{qualname}")
    assert len(trees) > 1
    assert unused == []


DEFAULTS_CHECKED_IN = ("decide", "operators", "modelspace", "blaschke", "rational", "symbols", "suites")


def _defaulted_parameters(tree):
    """(name, [(index, param)]) of each function, method or __init__ with defaulted parameters.

    `index` counts positional slots after `self`/`cls` (None for keyword-only; the
    modules define no static methods); an `__init__` is reported under its class
    name, since that is what calls it.
    """
    def params(fn, bound):
        a = fn.args
        pos = a.posonlyargs + a.args
        out = [(i - bound, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
        out += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        return out

    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, params(node, 0)
        elif isinstance(node, ast.ClassDef):
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef):
                    yield node.name if fn.name == "__init__" else fn.name, params(fn, 1)


def _calls_by_name(trees):
    """Every call in the trees, keyed by the called name (`f(...)` or `x.f(...)`)."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, index, param):
    """Whether `call` passes `param` by keyword (or **) or by position `index`.

    Only the positional arguments before a `*` argument have a known position.
    """
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    known = next((i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)), len(call.args))
    return index is not None and known > index


def test_every_default_is_passed_somewhere():
    # a defaulted parameter that no call in the package sets is a threshold with two owners
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = _calls_by_name(trees.values())
    unset = []
    for module in DEFAULTS_CHECKED_IN:
        for name, params in _defaulted_parameters(trees[module]):
            if name not in calls:
                continue  # not called from the package: tests and reference helpers set these
            unset += [f"{module}.{name}({param})" for index, param in params
                      if not any(_passes(c, index, param) for c in calls[name])]
    assert unset == []
