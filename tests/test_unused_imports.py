"""No module of the package or the test suite imports a name it never uses.

A name counts as used when it appears as a name (attribute chains included,
by their root), in `__all__`, or inside a string annotation.  Imports from
`__future__` are exempt.
"""

import ast
from pathlib import Path

import lri

ROOT = Path(__file__).resolve().parents[1]


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's imports, with their line numbers."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    used = {
        node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    for annotation in filter(None, _annotations(tree)):
        for item in ast.walk(annotation):
            if isinstance(item, ast.Constant) and isinstance(item.value, str):
                used |= _used(ast.parse(item.value, mode="eval"))
    return used


def test_no_unused_imports():
    paths = sorted(ROOT.glob("src/lri/*.py")) + sorted(ROOT.glob("tests/*.py"))
    assert paths
    unused = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        used = _used(tree)
        unused += [
            f"{path.relative_to(ROOT)}:{line}: {name}"
            for name, line in _imported(tree).items()
            if name not in used
        ]
    assert unused == []


def test_the_public_names_are_the_package_imports():
    """`lri.__all__` is sorted, repeats nothing and resolves on `lri`.

    It lists exactly the names `src/lri/__init__.py` imports, so a name the
    package no longer has cannot linger in it.
    """
    path = ROOT / "src" / "lri" / "__init__.py"
    names = lri.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(lri, n)] == []
    imported = _imported(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    assert set(names) == set(imported)
