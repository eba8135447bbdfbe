"""A guard on the engine's one routing rule: outside `engine`, no module
deposits a gradient or wires a graph node by hand. Every node goes through
`Tensor._node`, whose grad functions return their paths."""

import ast
from pathlib import Path

import pytest

import dfqgame

PACKAGE = Path(dfqgame.__file__).parent

# `quant.fake_quantize` builds its node by hand: perfbench/tracer.py counts
# that node in its fake_quantize hook, and one built by `Tensor._node` would
# be counted again at `Tensor._result`.
ALLOWED = {
    ("quant", "fake_quantize", "assigns _parents"),
    ("quant", "fake_quantize", "assigns _backward"),
    ("quant", "fake_quantize", "calls _accumulate"),
}

WIRING = ("_parents", "_backward")


def _targets(node):
    """The attribute names an assignment statement writes."""
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    for target in targets:
        for t in ast.walk(target):
            if isinstance(t, ast.Attribute):
                yield t.attr


def _offences(unit):
    for node in ast.walk(unit):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            yield from (f"assigns {a}" for a in _targets(node) if a in WIRING)
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "_accumulate":
            yield "calls _accumulate"
        if isinstance(func, ast.Attribute) and func.attr == "_result":
            backward = node.args[2:3] + [k.value for k in node.keywords
                                         if k.arg == "backward"]
            if any(not (isinstance(b, ast.Constant) and b.value is None)
                   for b in backward):
                yield "passes a backward to _result"
        if (isinstance(func, ast.Name) and func.id == "setattr"
                and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                and node.args[1].value in WIRING):
            yield f"assigns {node.args[1].value}"


def hand_routing(source: str) -> set[tuple[str, str]]:
    """(where, what) for each place in `source` that routes a gradient by
    hand; `where` is the top-level function, `Class.method` or `<module>`."""
    found = set()
    for top in ast.parse(source).body:
        if isinstance(top, ast.ClassDef):
            units = [(f"{top.name}.{getattr(d, 'name', '<body>')}", d) for d in top.body]
        else:
            units = [(getattr(top, "name", "<module>"), top)]
        for where, unit in units:
            found.update((where, what) for what in _offences(unit))
    return found


def test_only_engine_routes_gradients_by_hand():
    modules = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert {"engine", "quant", "nets", "adapt", "game"} <= set(modules)
    found = {(name, where, what) for name, source in modules.items()
             if name != "engine" for where, what in hand_routing(source)}
    assert found == ALLOWED, (
        "a grad function given to Tensor._node returns its paths (a tuple for "
        "several into one parent); only quant.fake_quantize wires its node by hand")


def test_the_guard_sees_the_engine_routing():
    found = hand_routing((PACKAGE / "engine.py").read_text())
    assert ("Tensor._node", "calls _accumulate") in found
    assert ("Tensor._result", "assigns _backward") in found


@pytest.mark.parametrize("source, what", [
    ("def f(t, g):\n    t._accumulate(g)", "calls _accumulate"),
    ("def f(d, ps, b):\n    return Tensor._result(d, ps, b)",
     "passes a backward to _result"),
    ("def f(d, ps, b):\n    return Tensor._result(d, ps, backward=b)",
     "passes a backward to _result"),
    ("def f(out, ps):\n    out._parents = ps", "assigns _parents"),
    ("class A:\n    def f(self, out, b):\n        out._backward: object = b",
     "assigns _backward"),
    ("def f(out, a, b):\n    out._parents, out._backward = a, b", "assigns _backward"),
    ("def f(out, b):\n    setattr(out, '_backward', b)", "assigns _backward"),
    ("x = Tensor(0.0)\nx._backward = print", "assigns _backward"),
])
def test_the_guard_flags_hand_routing(source, what):
    assert what in {w for _, w in hand_routing(source)}


@pytest.mark.parametrize("source", [
    "def f(d, ps):\n    return Tensor._node(d, ps, lambda g: (g, g))",
    "def f(d, ps):\n    return Tensor._result(d, ps, None)",
    "def f(t):\n    return t._parents, t._backward",
])
def test_the_guard_passes_the_one_rule(source):
    assert hand_routing(source) == set()
