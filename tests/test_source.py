"""Source-level checks on the package modules."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "blocktoeplitz"


def _private_definitions(tree):
    """Module-level functions, classes and constants named with one leading underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    uses = Counter()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
    dead = [(module, name) for module, tree in trees.items()
            for name in _private_definitions(tree) if not uses[name]]
    assert len(trees) > 1
    assert dead == []


DECISION_MODULES = ("decide", "operators", "modelspace", "blaschke", "rational", "symbols")


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
    for module in DECISION_MODULES:
        for name, params in _defaulted_parameters(trees[module]):
            if name not in calls:
                continue  # not called from the package: tests and reference helpers set these
            unset += [f"{module}.{name}({param})" for index, param in params
                      if not any(_passes(c, index, param) for c in calls[name])]
    assert unset == []
