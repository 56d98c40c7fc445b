"""The package's recursive walkers, listed by a scan of its source.

Each function in `src/lri` that calls itself by name, and each method that
calls `self.` with its own name, recurses once per level of the formula or
clause it walks, so a deep enough input ends in `RecursionError`.  ROADMAP
item 6 gives them explicit stacks one by one; this list shrinks as it does,
and grows only with a stated reason.

The scan reads syntax only.  It does not see recursion that runs through
other code: `_Node.__eq__` recurses through tuple comparison of its
children, and pickling a node recurses through `__reduce__`.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lri"

WALKERS = [
    "cnf.CnfBuilder.add",
    "formula._Parser.formula",
    "formula._Parser.unary",
    "formula.map_atoms",
    "formula.print_formula",
]


def _calls_itself(function: ast.FunctionDef, method: bool) -> bool:
    own = f"self.{function.name}" if method else function.name
    return any(
        isinstance(node, ast.Call) and ast.unparse(node.func) == own
        for node in ast.walk(function)
    )


def _walkers(node: ast.AST, prefix: str, in_class: bool) -> list[str]:
    found = []
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            continue
        name = f"{prefix}.{child.name}"
        is_class = isinstance(child, ast.ClassDef)
        if not is_class and _calls_itself(child, in_class):
            found.append(name)
        found += _walkers(child, name, is_class)
    return found


def recursive_walkers() -> list[str]:
    """Qualified names of the package's self-calling functions, sorted."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += _walkers(tree, path.stem, False)
    return sorted(found)


def test_the_recursive_walkers_are_the_listed_ones():
    assert recursive_walkers() == WALKERS


def test_the_scan_sees_both_kinds_of_self_call():
    source = (
        "def f(x):\n    return f(x)\n"
        "def g(x):\n    return h(x)\n"
        "class C:\n"
        "    def m(self):\n        return self.m()\n"
        "    def n(self):\n        return n()\n"
    )
    assert _walkers(ast.parse(source), "m", False) == ["m.f", "m.C.m"]
