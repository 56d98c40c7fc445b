"""Code lines of the package, per module and in total.

A code line holds at least one token that is neither a comment nor part of
a module, class or function docstring; blank lines, comment lines and
docstring lines do not count.  The count is the one number a change that
keeps behaviour and deletes lines can quote.

This module needs only the standard library:

    python tests/code_lines.py            # every module of src/lri, then the total
    python tests/code_lines.py FILE ...   # the named files instead
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "lri"
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in _NOT_CODE:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
