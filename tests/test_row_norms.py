"""Row lengths and cross products of 3-vectors are taken one way in the
package: lengths as ``np.sqrt(row_dot(p, p))`` (``cloud.row_dot``), so
no module calls ``norm`` with an axis, since numpy's reduction over a
length-3 axis costs several times the elementwise sum and rounds the
same; cross products as ``cloud.row_cross``, so no module calls
``cross``, which copies both operands and rounds the same."""

import ast
from pathlib import Path

import pytest

import spheremesh

MODULES = sorted(Path(spheremesh.__file__).parent.glob("*.py"))


def norm_axis_calls(source):
    """``line: callee`` of every call of a function named ``norm`` (as
    ``np.linalg.norm``, ``linalg.norm`` or an imported ``norm``) that
    passes an axis, by keyword or as its third positional argument, and
    of every call of a function named ``cross`` (``np.cross``,
    ``numpy.cross`` or an imported ``cross``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "cross" or name == "norm" and (
                len(node.args) > 2 or any(k.arg == "axis" for k in node.keywords)):
            found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def test_norm_calls_with_an_axis_are_found():
    source = ("import numpy as np\nfrom numpy.linalg import norm\n"
              "np.linalg.norm(x, axis=1)\nnorm(x, axis=-1, keepdims=True)\n"
              "np.linalg.norm(x, None, 1)\nnp.linalg.norm(x)\nnorm(x - y, 2)\n"
              "np.sqrt(row_dot(x, x))\nnp.cross(x, y)\ncross(x, y, axis=0)\n"
              "row_cross(x, y)\n")
    assert norm_axis_calls(source) == ["3: np.linalg.norm", "4: norm", "5: np.linalg.norm",
                                       "9: np.cross", "10: cross"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_row_norm_by_reduction(path):
    assert norm_axis_calls(path.read_text()) == []
