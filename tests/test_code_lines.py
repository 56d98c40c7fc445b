"""The code-line count: what it counts, and that the script runs on its own."""

import subprocess
import sys
from pathlib import Path

from code_lines import PACKAGE, code_lines

SCRIPT = Path(__file__).resolve().parent / "code_lines.py"

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment


class Thing:
    """Class docstring."""

    def method(self):
        """Function docstring."""
        text = """a string
that is not a docstring"""
        return text
'''


def test_only_lines_with_code_tokens_count(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE, encoding="utf-8")
    # import, class, def, the two lines of the string, return
    assert code_lines(sample) == 6


def test_the_script_prints_every_module_and_the_total():
    run = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True
    )
    rows = [line.split() for line in run.stdout.splitlines()]
    modules = sorted(path.name for path in PACKAGE.glob("*.py"))
    assert [name for _, name in rows] == modules + ["total"]
    counts = [int(count) for count, _ in rows]
    assert all(counts) and counts[-1] == sum(counts[:-1])
