"""No private function, method or class of the package is left unreferenced.

A private definition (one underscore, not a dunder) in `src/lri/*.py`
counts as used when some module of the package names it, as a name or as
an attribute.  A refactor that stops calling a helper deletes it too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_every_private_definition_is_referenced():
    paths = sorted(ROOT.glob("src/lri/*.py"))
    assert paths
    defined = {}
    referenced = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, _DEFINITIONS) and _private(node.name):
                defined[node.name] = f"{path.relative_to(ROOT)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    assert defined
    orphans = [
        f"{where}: {name}"
        for name, where in sorted(defined.items())
        if name not in referenced
    ]
    assert orphans == []
