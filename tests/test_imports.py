"""No module of the package imports another module's private names: a
name with a leading underscore is used only where it is defined."""

import ast
from pathlib import Path

import pytest

import spheremesh

MODULES = sorted(Path(spheremesh.__file__).parent.glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_imports(source):
    """``line: dotted.name`` of every import that names a private module
    or a private name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (f"{node.module}." if node.module else "")
            dotted = [prefix + alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in dotted
                  if any(_private(part) for part in name.lstrip(".").split("."))]
    return found


def test_private_imports_are_found():
    source = "from .laplacian import DEFAULT_K, _height_fit\nimport numpy._core\n"
    assert private_imports(source) == ["1: .laplacian._height_fit", "2: numpy._core"]
    assert private_imports("from .cloud import build_index\nimport numpy\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_imports_private_names(path):
    assert private_imports(path.read_text()) == []
