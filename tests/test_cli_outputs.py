"""Every verb's stdout, stderr, exit code and written files, byte for byte.

The expected results live in `tests/data/cli_outputs.json`; see
`tests/cli_outputs.py` for the cases and for re-recording them.
"""

import pytest

from cli_outputs import cases, load, replay

PINNED = load()


def test_pinned_cases_are_the_declared_cases():
    fields = ("group", "argv", "stdin", "inputs")
    assert [{k: c[k] for k in fields if k in c} for c in PINNED] == cases()


@pytest.mark.parametrize(
    "group", sorted(dict.fromkeys(c["group"] for c in PINNED))
)
def test_outputs_match_pinned(group):
    for case in PINNED:
        if case["group"] == group:
            assert dict(case, **replay(case)) == case, " ".join(case["argv"])
