"""Every error class the package declares is raised somewhere in it."""

import ast
from pathlib import Path

import swarmdesk

PACKAGE = Path(swarmdesk.__file__).parent


def _raised_names() -> set[str]:
    """Names in ``raise X``, ``raise X(...)`` and ``raise errors.X(...)``."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
                elif isinstance(exc, ast.Attribute):
                    names.add(exc.attr)
    return names


def test_every_error_class_has_a_raise_site():
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {n.name for n in tree.body if isinstance(n, ast.ClassDef)} - {"SwarmError"}
    assert declared
    assert sorted(declared - _raised_names()) == []
