"""No package code writes into a stored gradient in place.

`Tensor.backward` stores a node's first gradient contribution as it is, so one
array can be the `.grad` of several nodes at once (both parents of `x + y`,
the views that `concat`, `reshape` and `transpose` hand on). A closure adds
through `autodiff._accumulate`, out of place, and a closure that writes part
of a gradient writes into a buffer from `autodiff._writable`. Any in-place
write through `.grad` (`.grad += c`, `.grad[k] += c`, `.grad.__iadd__(c)`,
`np.add.at(x.grad, ...)`, `out=x.grad`) could change another node's gradient.
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "gesturegen"


def _is_grad(node) -> bool:
    """`<expr>.grad`, or a subscript of it."""
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def in_place_grad_writes(source: str) -> list:
    """Line numbers of the in-place writes through `.grad` in `source`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and _is_grad(node.target):
            found.append(node.lineno)
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr.startswith("__i") and _is_grad(fn.value):
                found.append(node.lineno)  # x.grad.__iadd__(c) and friends
            elif (isinstance(fn, ast.Attribute) and fn.attr == "at" and node.args
                  and _is_grad(node.args[0])):
                found.append(node.lineno)  # np.add.at(x.grad, key, c)
            elif any(k.arg == "out" and _is_grad(k.value) for k in node.keywords):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("snippet", [
    "x.grad += c", "x.grad[1:] += c", "x.grad[k][j] -= c", "x.grad.__iadd__(c)",
    "np.add.at(x.grad, key, c)", "np.multiply(a, b, out=x.grad)",
])
def test_guard_finds_each_kind_of_write(snippet):
    assert in_place_grad_writes(snippet) == [1]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_in_place_gradient_write(path):
    assert in_place_grad_writes(path.read_text()) == [], path.name
