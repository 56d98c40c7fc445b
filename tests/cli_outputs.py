"""Pinned command line outputs: the cases, their replay, and a stand-alone check.

Every case runs `lri.cli.main` in process, in a fresh empty working
directory, and records standard output, standard error, the exit code and
any file the run wrote there.  `tests/data/cli_outputs.json` holds the
recorded results; `tests/test_cli_outputs.py` replays them under pytest.

This module needs only the standard library, so the same comparison runs on
interpreters without pytest:

    python tests/cli_outputs.py           # compare, exit 1 on drift
    python tests/cli_outputs.py --write   # re-record every case

Compare mode names the cases that drifted and which of their results did;
`--write` says how many recorded cases it kept byte-identical, changed,
added and dropped, matching cases by group, argv, stdin and inputs.

Arguments beginning with `{root}/` name files of this checkout.
"""

from __future__ import annotations

import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "cli_outputs.json"
MARK = "{root}/"

# A session on the permit base that visits every command and every refusal.
PERMIT_SESSION = """\
positions
infer perm
infer -perm
justify -perm
justify
infer
infer perm &
context
context perm. -perm.
context perm. perm.
context perm
assert-hyp -act -> -perm
assert-hyp ex
assert-hyp act
assert-ax -ex | act
assert-ax -act
assert-ax
retract-hyp 2
retract-hyp 9
retract-hyp soon
retract-hyp
frobnicate now
save
save saved.lri
positions
# a comment, then a blank line

quit
positions
"""

# A session with no base file, growing one from nothing.
EMPTY_SESSION = """\
positions
retract-hyp 0
assert-hyp p
assert-hyp -p
assert-ax q
infer p
context p. q.
save grown.lri
"""

# A session on a base with a constants line and schematic statements.
GROUNDED_SESSION = """\
positions
infer may_vote(paul)
justify -may_vote(paul)
infer may_vote(X)
context may_vote(X).
assert-hyp adult(X) -> citizen(X)
assert-ax -minor(rita)
retract-hyp 1
positions
save grounded.lri
"""

PROBE = "perm.\n-perm.\nact.\nperm & -perm.\nmay_vote(paul).\n"

# The permit base's positions take no decision to find, but refuting the
# negation of this tautology over two atoms in no rule takes two.
SPLIT_PROBE = "perm.\n(x & y) | (x & -y) | (-x & y) | (-x & -y).\n"

# Sessions whose last question exceeds its budget, as it does when asked of
# a fresh load of the session's final base: an earlier question or edit
# leaves no trace in how the last one is numbered and searched.
EDIT_BASE = "hypotheses:\n    -e.\n    -b.\n    -d.\n"
EDIT_QUESTION = "(((d | -a) & -a) | ((-d <-> c) <-> --b))"
EDIT_SESSION = f"""\
infer ((e & -d) & (e -> -d))
assert-hyp -(-e -> -d)
infer {EDIT_QUESTION}
"""
ASK_BASE = """\
hypotheses:
    (-c & (-c -> e)).
    (--c <-> (-a -> c)).
    d.
    ((b | c) | (-e -> -b)).
"""
ASK_QUESTION = "(-d <-> ((d <-> -f) -> (f <-> -c)))"
ASK_SESSION = f"infer ((-g -> -c) <-> (g | f))\ninfer {ASK_QUESTION}\n"


def _inputs() -> list[str]:
    files = sorted((ROOT / "tests" / "data" / "golden").glob("*.lri"))
    files += sorted((ROOT / "samples").glob("*.lri"))
    return [MARK + str(f.relative_to(ROOT)) for f in files]


def _queries(path: str) -> list[str]:
    from lri import kb, print_formula

    base = kb.load(path.replace(MARK, str(ROOT) + "/"))
    return [print_formula(q) for q in base.queries]


def cases() -> list[dict]:
    """Every pinned run, in a fixed order; `group` names the test it is in."""
    out: list[dict] = []

    def add(group, argv, stdin=None, inputs=None):
        for pretty in (False, True):
            args = list(argv)
            if pretty:
                args.insert(1, "--pretty")
            case = {"group": group, "argv": args}
            if stdin is not None:
                case["stdin"] = stdin
            if inputs:
                case["inputs"] = inputs
            out.append(case)

    transcript = (ROOT / "tests" / "data" / "repl_transcript.txt").read_text(
        encoding="utf-8"
    )
    for path in _inputs():
        group = path[len(MARK):]
        add(group, ["check", path])
        add(group, ["positions", path])
        for query in _queries(path):
            add(group, ["infer", path, query])
            add(group, ["justify", path, query])
        add(group, ["context", path])
        add(group, ["variety", path])
        add(group, ["partition", path])
        add(group, ["compat", path, "0"])
        add(group, ["repl", path], stdin=transcript)

    permit = MARK + "tests/data/golden/permit.lri"
    grounded = MARK + "tests/data/golden/grounded_pairs.lri"
    add("witness", ["witness", "3"])
    add("witness", ["witness", "3", "--dot", "overlap.dot"])
    add("witness", ["witness", "1"])
    add("files", ["check", permit, "--dimacs", "clauses.cnf"])
    add("files", ["variety", permit, "--dot", "overlap.dot"])
    add("files", ["variety", permit, "--probe", "probe.lri"],
        inputs={"probe.lri": PROBE})
    add("files", ["variety", grounded, "--probe", "probe.lri"],
        inputs={"probe.lri": PROBE})
    add("files", ["partition", permit, "--dot", "parts.dot"])
    add("separator", ["infer", "--max-decisions", "1000", permit, "-perm"])
    add("separator", ["infer", "--max-decisions=1000", permit, "-perm"])
    add("separator", ["justify", "--max-decisions", "0", permit, "-perm"])
    add("separator", ["justify", "--max-decisions=0", permit, "-perm"])
    add("separator", ["context", permit, "-perm", "perm", "-ex"])
    add("separator", ["check", "--max-decisions", "2", "--", permit])
    add("errors", ["check", "absent.lri"])
    add("errors", ["infer", permit, "perm &"])
    add("errors", ["infer", permit, ""])
    add("errors", ["infer", grounded, "may_vote(X)"])
    add("errors", ["infer", grounded, "may_vote(zz)"])
    add("errors", ["context", permit, "perm", "perm"])
    add("errors", ["compat", permit, "0", "9"])
    add("errors", ["compat", permit, "0", "0"])
    add("errors", ["compat", permit, "x"])
    add("errors", ["positions", "broken.lri"],
        inputs={"broken.lri": "axioms:\n    p.\n    -p.\n"})
    add("sessions", ["repl", permit], stdin=PERMIT_SESSION)
    add("sessions", ["repl"], stdin=EMPTY_SESSION)
    add("sessions", ["repl", grounded], stdin=GROUNDED_SESSION)
    for budget in ("1", "2"):
        add("budget", ["variety", permit, "--probe", "split.lri",
                       "--max-decisions", budget],
            inputs={"split.lri": SPLIT_PROBE})
    add("budget", ["compat", permit, "0", "1", "--max-decisions", "0"])
    add("budget", ["witness", "6", "--max-decisions", "0"])
    add("budget", ["repl", "s.lri", "--max-decisions", "3"],
        stdin=EDIT_SESSION, inputs={"s.lri": EDIT_BASE})
    add("budget", ["infer", "--max-decisions", "3", "edited.lri",
                   EDIT_QUESTION],
        inputs={"edited.lri": EDIT_BASE + "    -(-e -> -d).\n"})
    add("budget", ["repl", "s2.lri", "--max-decisions", "6"],
        stdin=ASK_SESSION, inputs={"s2.lri": ASK_BASE})
    add("budget", ["infer", "--max-decisions", "6", "s2.lri", ASK_QUESTION],
        inputs={"s2.lri": ASK_BASE})
    # Answers counted, not listed: 2^30 positions, and a query refused by
    # its 30^4 instances before any is built.
    large = MARK + "tests/data/golden/large/"
    add("counted", ["check", large + "pairs_30.lri"])
    add("counted", ["infer", large + "constants_30.lri", "r(X, Y) & r(Z, W)"])
    return out


def replay(case: dict) -> dict:
    """Run one case and return what it printed, exited with and wrote."""
    from lri import cli

    argv = [a.replace(MARK, str(ROOT) + "/") for a in case["argv"]]
    saved = sys.stdin, sys.stdout, sys.stderr, os.getcwd()
    columns = os.environ.get("COLUMNS")
    with tempfile.TemporaryDirectory() as work:
        for name, text in case.get("inputs", {}).items():
            Path(work, name).write_text(text, encoding="utf-8")
        sys.stdin = io.StringIO(case.get("stdin", ""))
        sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
        os.chdir(work)
        # argparse wraps usage lines to the terminal width
        os.environ["COLUMNS"] = "80"
        try:
            try:
                code = cli.main(argv)
            except SystemExit as stop:
                code = stop.code
            stdout, stderr = sys.stdout.getvalue(), sys.stderr.getvalue()
        finally:
            os.chdir(saved[3])
            if columns is None:
                del os.environ["COLUMNS"]
            else:
                os.environ["COLUMNS"] = columns
            sys.stdin, sys.stdout, sys.stderr = saved[:3]
        files = {
            p.name: p.read_text(encoding="utf-8")
            for p in sorted(Path(work).iterdir())
            if p.name not in case.get("inputs", {})
        }
    result = {"stdout": stdout, "stderr": stderr, "code": code}
    if files:
        result["files"] = files
    return result


RESULTS = ("stdout", "stderr", "code", "files")


def load() -> list[dict]:
    return json.loads(PINNED.read_text(encoding="utf-8"))


def _key(case: dict) -> str:
    """What makes a case the case it is: group, argv, stdin and inputs."""
    return json.dumps(
        [case.get(f) for f in ("group", "argv", "stdin", "inputs")],
        sort_keys=True,
    )


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        old = {_key(case): case for case in load()} if PINNED.exists() else {}
        pinned = [dict(case, **replay(case)) for case in cases()]
        PINNED.write_text(
            json.dumps(pinned, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        kept = sum(old.get(_key(case)) == case for case in pinned)
        added = sum(_key(case) not in old for case in pinned)
        dropped = len(old.keys() - {_key(case) for case in pinned})
        print(f"wrote {len(pinned)} cases to {PINNED.relative_to(ROOT)}: "
              f"{kept} unchanged, {len(pinned) - kept - added} changed, "
              f"{added} added, {dropped} dropped")
        return 0
    drift = 0
    pinned = load()
    for case in pinned:
        got = dict(case, **replay(case))
        if got != case:
            drift += 1
            which = [f for f in RESULTS if got.get(f) != case.get(f)]
            print(f"differs ({', '.join(which)}):", " ".join(case["argv"]))
    print(f"{sys.version.split()[0]}: {len(pinned) - drift} of "
          f"{len(pinned)} cases as pinned")
    return 1 if drift else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
