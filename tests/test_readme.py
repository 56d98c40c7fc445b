"""The README's library example runs and gives the values it states."""

import ast
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _stated_value(lines: list[str], statement: ast.stmt):
    """The literal in the statement's trailing or next-line comment, if any.

    Returns a one-element tuple holding the value, or () when the comment
    is prose or there is none.
    """
    last = lines[statement.end_lineno - 1]
    comment = last.partition("#")[2]
    if not comment and statement.end_lineno < len(lines):
        following = lines[statement.end_lineno].strip()
        comment = following[1:] if following.startswith("#") else ""
    try:
        return (ast.literal_eval(comment.strip()),)
    except (SyntaxError, ValueError):
        return ()


def test_library_example_gives_the_stated_values():
    block = _library_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = []
    for statement in ast.parse(block).body:
        stated = _stated_value(lines, statement)
        if stated and isinstance(statement, ast.Expr):
            source = ast.Expression(statement.value)
            value = eval(compile(source, "README.md", "eval"), namespace)
            assert value == stated[0], ast.unparse(statement)
            checked.append(value)
        else:
            module = ast.Module([statement], type_ignores=[])
            exec(compile(module, "README.md", "exec"), namespace)
    assert checked == [[[0, 1], [0, 2], [1, 2]], [[0]], False]
    assert sorted(namespace["witness"].chosen) == [0, 1]
