"""What a command loads and builds before it answers.

`python -m lri` runs once per command, so every module the package imports
and every parser it builds is paid for on every call.  Plain records need
none of the machinery that `dataclasses` brings in with it, the document
writer needs none of the `json` package, and a command needs only its own
verb's parser.
"""

import functools
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNWANTED = ("dataclasses", "inspect", "ast", "dis", "tokenize", "json")

# Runs `lri witness 2` as `python -m lri` does, then prints how many
# argument parsers it built and which of the unwanted modules were loaded.
# `-S` leaves out `site`, so whatever the host's site-packages import does
# not count against the package.
PROGRAM = f"""
import argparse, runpy, sys
built = []
real_init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    real_init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init
sys.argv = ["lri", "witness", "2"]
try:
    runpy.run_module("lri", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert not done.code, done.code
print(built)
print(sorted(set({UNWANTED!r}) & sys.modules.keys()))
"""


@functools.cache
def _command_output() -> list[str]:
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROGRAM],
        cwd=SRC,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert '"n": 2' in out
    return out.splitlines()


def test_a_command_loads_no_dataclass_machinery():
    assert _command_output()[-1] == "[]"


def test_a_command_builds_only_its_verbs_parser():
    assert _command_output()[-2] == "['lri witness']"
