"""What a command loads before it answers.

`python -m lri` runs once per command, so every module the package imports
is paid for on every call.  Plain records need none of the machinery that
`dataclasses` brings in with it.
"""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize")

# Runs `lri witness 2` as `python -m lri` does, then prints which of the
# unwanted modules were loaded.  `-S` leaves out `site`, so whatever the
# host's site-packages import does not count against the package.
PROGRAM = f"""
import runpy, sys
sys.argv = ["lri", "witness", "2"]
try:
    runpy.run_module("lri", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert not done.code, done.code
print(sorted(set({UNWANTED!r}) & sys.modules.keys()))
"""


def test_a_command_loads_no_dataclass_machinery():
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROGRAM],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert '"n": 2' in out
    assert out.splitlines()[-1] == "[]"
