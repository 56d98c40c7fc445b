"""Command line surface: documents, exit codes, and the interactive session."""

import argparse
import io
import itertools
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import lri.kb
from lri import cli, cnf, engine, print_formula, sat
from lri.cli import ReplSession
from lri.kb import load, loads

from bruteforce import make_atoms, random_formula
from conftest import record_solves
from families import paired_exception_rules, paired_exceptions

ROOT = Path(__file__).resolve().parents[1]
PERMIT_SAMPLE = str(ROOT / "samples/permit.lri")

PERMIT_TEXT = """\
axioms:
    act.
hypotheses:
    act -> perm.
    ex.
    ex -> -perm.
queries:
    perm.
    -perm.
"""

DOC_FIELDS = {
    "command",
    "input",
    "verdict",
    "positions",
    "justifications",
    "contexts",
    "diagnostics",
}


@pytest.fixture()
def permit_file(tmp_path):
    path = tmp_path / "permit.lri"
    path.write_text(PERMIT_TEXT, encoding="utf-8")
    return str(path)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    doc = json.loads(out)
    assert set(doc) == DOC_FIELDS
    return code, doc, err


# ---------------------------------------------------------------------------
# batch verbs


def test_check_reports_consistency(capsys, permit_file):
    code, doc, err = run_json(capsys, "check", permit_file)
    assert code == 0
    assert doc["command"] == "check"
    assert doc["verdict"] == {
        "axioms_consistent": True,
        "overall_consistent": False,
        "maximal_position_count": 3,
    }
    assert doc["diagnostics"] == {"axiom_count": 1, "hypothesis_count": 3}
    assert "inconsistent" in err


def test_check_pretty_swaps_streams(capsys, permit_file):
    code, out, err = run_cli(capsys, "check", "--pretty", permit_file)
    assert code == 0
    assert err == ""
    assert out.splitlines() == [
        "axioms: consistent",
        "axioms + hypotheses: inconsistent",
        "maximal positions: 3",
    ]


def test_check_writes_dimacs(capsys, permit_file, tmp_path):
    target = tmp_path / "clauses.cnf"
    code, doc, _ = run_json(
        capsys, "check", permit_file, "--dimacs", str(target)
    )
    assert code == 0
    lines = target.read_text(encoding="utf-8").splitlines()
    assert any(line.startswith("p cnf ") for line in lines)
    assert lines[0].startswith("c 1 = ")


def test_check_dimacs_makes_no_builder_once_its_domain_is_built(
    capsys, monkeypatch, permit_file, tmp_path
):
    """`--dimacs` lists the domain's own store; no rule is translated again."""
    built = []
    build = engine.DomainOfRules.__init__
    make = cnf.CnfBuilder.__init__

    def building(self, *args, **kwargs):
        build(self, *args, **kwargs)
        built.append(self)

    def making(self):
        assert not built, "a clause builder was made after the domain"
        make(self)

    monkeypatch.setattr(engine.DomainOfRules, "__init__", building)
    monkeypatch.setattr(cnf.CnfBuilder, "__init__", making)
    target = tmp_path / "clauses.cnf"
    code, _, _ = run_json(capsys, "check", permit_file, "--dimacs", str(target))
    assert code == 0
    assert len(built) == 1
    assert target.read_text(encoding="utf-8").startswith("c 1 = ")


def test_positions_lists_maximal_positions(capsys, permit_file):
    code, doc, _ = run_json(capsys, "positions", permit_file)
    assert code == 0
    assert doc["verdict"] == {"count": 3}
    assert [p["indices"] for p in doc["positions"]] == [
        [0, 1],
        [0, 2],
        [1, 2],
    ]
    assert doc["positions"][0]["hypotheses"] == ["(act -> perm)", "ex"]


def test_positions_builds_no_position(monkeypatch):
    """`positions` lists the join's index tuples; no `Position` is made."""
    axioms, hypotheses, positions, *_ = paired_exceptions(5)
    domain = engine.DomainOfRules(axioms, hypotheses)
    real = engine._proved

    def proved(cls, *fields):
        assert cls is not engine.Position, "a Position was built"
        return real(cls, *fields)

    monkeypatch.setattr(engine, "_proved", proved)
    doc = cli.positions_doc(None, domain)
    assert [p["indices"] for p in doc["positions"]] == positions
    assert doc["verdict"] == {"count": 32}


def test_infer_reasonable_formula(capsys, permit_file):
    code, doc, _ = run_json(capsys, "infer", permit_file, "perm")
    assert code == 0
    assert doc["verdict"] == "reasonable"
    assert [p["indices"] for p in doc["positions"]] == [[0, 1]]
    assert [j["indices"] for j in doc["justifications"]] == [[0]]
    assert doc["justifications"][0]["conclusion"] == "perm"


def test_infer_contradiction_not_reasonable(capsys, permit_file):
    code, doc, _ = run_json(capsys, "infer", permit_file, "perm & -perm")
    assert code == 0
    assert doc["verdict"] == "not-reasonable"
    assert doc["positions"] == []
    assert doc["justifications"] == []


def test_justify_lists_minimal_justifications(capsys, permit_file):
    code, doc, _ = run_json(capsys, "justify", permit_file, "-perm")
    assert code == 0
    assert doc["verdict"] == "reasonable"
    assert [j["indices"] for j in doc["justifications"]] == [[1, 2]]
    assert doc["justifications"][0]["hypotheses"] == ["ex", "(ex -> -perm)"]


def test_context_uses_file_queries_by_default(capsys, permit_file):
    code, doc, _ = run_json(capsys, "context", permit_file)
    assert code == 0
    assert doc["verdict"] == {"count": 2}
    shapes = [
        [(p["conclusion"], p["indices"]) for p in c["pairs"]]
        for c in doc["contexts"]
    ]
    assert shapes == [
        [("perm", [0])],
        [("-perm", [1, 2])],
    ]


def test_context_accepts_explicit_queries(capsys, permit_file):
    code, doc, _ = run_json(capsys, "context", permit_file, "perm", "ex")
    assert code == 0
    assert doc["verdict"] == {"count": 1}
    assert len(doc["contexts"][0]["pairs"]) == 2


@pytest.mark.parametrize(
    "options", [["--pretty"], ["--max-decisions", "50"], ["--max=50"]]
)
def test_context_takes_options_among_its_queries(capsys, permit_file, options):
    """An option may follow the file or a query, up to a negated query.

    argparse alone gives the queries nothing when an option comes between
    them and the file, and refuses `perm` in `context F --pretty perm`.
    """
    contested = run_cli(capsys, "context", *options, permit_file, "perm", "-perm")
    assert contested[0] == 0
    assert "unrecognized" not in contested[2]
    for argv in (
        [permit_file, *options, "perm", "-perm"],
        [permit_file, "perm", *options, "-perm"],
    ):
        assert run_cli(capsys, "context", *argv) == contested
    joint = run_cli(capsys, "context", *options, permit_file, "perm", "ex")
    assert joint[0] == 0
    for argv in (
        [permit_file, *options, "perm", "ex"],
        [permit_file, "perm", *options, "ex"],
        [permit_file, "perm", "ex", *options],
    ):
        assert run_cli(capsys, "context", *argv) == joint
    assert joint != contested


def test_context_for_impossible_query_is_empty(capsys, permit_file):
    code, doc, _ = run_json(capsys, "context", permit_file, "perm & -perm")
    assert code == 0
    assert doc["verdict"] == {"count": 1}
    assert doc["contexts"] == [{"pairs": []}]


def test_variety_reports_components(capsys, permit_file):
    code, doc, _ = run_json(capsys, "variety", permit_file)
    assert code == 0
    assert doc["verdict"] == {
        "component_count": 3,
        "discrete": False,
        "connected": True,
    }
    first = doc["positions"][0]
    assert first["component"] == 0
    assert first["axioms"] == ["act", "(act -> perm)", "ex"]
    assert first["indices"] == [0, 1]


def test_variety_probe_reports_upper_level(capsys, permit_file, tmp_path):
    probe = tmp_path / "probe.lri"
    probe.write_text(
        "perm.\n-perm.\nact.\nperm & -perm.\n", encoding="utf-8"
    )
    code, doc, _ = run_json(
        capsys, "variety", permit_file, "--probe", str(probe)
    )
    assert code == 0
    assert doc["verdict"]["upper_level"] == ["perm", "-perm", "act"]


def test_variety_writes_overlap_dot(capsys, permit_file, tmp_path):
    target = tmp_path / "overlap.dot"
    code, _, _ = run_json(
        capsys, "variety", permit_file, "--dot", str(target)
    )
    assert code == 0
    text = target.read_text(encoding="utf-8")
    assert text.startswith("graph components {")
    assert 'c0 -- c1 [label="2"];' in text


def test_compat_verdicts(capsys, permit_file):
    code, doc, _ = run_json(capsys, "compat", permit_file, "0")
    assert code == 0
    assert doc["verdict"] == {"compatible": True}
    code, doc, _ = run_json(capsys, "compat", permit_file, "0", "1")
    assert code == 0
    assert doc["verdict"] == {"compatible": False}
    assert doc["input"] == {"indices": [0, 1]}


def test_witness_reports_boundary(capsys):
    code, doc, _ = run_json(capsys, "witness", "3")
    assert code == 0
    assert doc["verdict"]["n"] == 3
    assert doc["verdict"]["connected"] is True
    matrix = doc["verdict"]["matrix"]
    assert [row["indices"] for row in matrix] == [
        [1, 2],
        [0, 2],
        [0, 1],
        [0, 1, 2],
    ]
    assert [row["compatible"] for row in matrix] == [True, True, True, False]


def test_partition_reports_clusters(capsys, tmp_path):
    path = tmp_path / "split.lri"
    path.write_text(
        "axioms:\n    p -> q.\nhypotheses:\n    q -> r.\n    s -> t.\n",
        encoding="utf-8",
    )
    code, doc, _ = run_json(capsys, "partition", str(path))
    assert code == 0
    assert doc["verdict"]["partition_count"] == 2
    first, second = doc["verdict"]["partitions"]
    assert first["formulas"] == ["(p -> q)", "(q -> r)"]
    assert first["atoms"] == ["p", "q", "r"]
    assert second["formulas"] == ["(s -> t)"]


def test_partition_writes_dot(capsys, tmp_path):
    path = tmp_path / "split.lri"
    path.write_text("axioms:\n    p.\n    q.\n", encoding="utf-8")
    target = tmp_path / "parts.dot"
    code, _, _ = run_json(capsys, "partition", str(path), "--dot", str(target))
    assert code == 0
    assert target.read_text(encoding="utf-8").startswith("graph partitions {")


def test_json_output_is_deterministic(capsys, permit_file):
    _, out1, _ = run_cli(capsys, "infer", permit_file, "perm")
    _, out2, _ = run_cli(capsys, "infer", permit_file, "perm")
    assert out1 == out2


# ---------------------------------------------------------------------------
# exit codes


def test_missing_file_exits_2(capsys, tmp_path):
    code, doc, _ = run_json(capsys, "check", str(tmp_path / "absent.lri"))
    assert code == 2
    assert doc["verdict"] == "error"
    assert doc["diagnostics"]["error"] == "InputError"


def test_syntax_error_exits_2(capsys, permit_file):
    code, doc, _ = run_json(capsys, "infer", permit_file, "perm &")
    assert code == 2
    assert doc["diagnostics"]["error"] == "FormulaSyntaxError"


def test_duplicate_context_queries_exit_2(capsys, permit_file):
    code, doc, _ = run_json(capsys, "context", permit_file, "perm", "perm")
    assert code == 2
    assert doc["diagnostics"]["error"] == "InputError"
    assert "duplicate" in doc["diagnostics"]["message"]


def test_too_many_context_queries_exit_2(capsys, permit_file):
    queries = [f"q{i}" for i in range(13)]
    code, doc, _ = run_json(capsys, "context", permit_file, *queries)
    assert code == 2
    assert doc["diagnostics"]["error"] == "InputError"
    assert "too many" in doc["diagnostics"]["message"]


def test_inconsistent_axioms_exit_3(capsys, tmp_path):
    path = tmp_path / "broken.lri"
    path.write_text(
        "axioms:\n    p.\n    -p.\nhypotheses:\n    q.\n", encoding="utf-8"
    )
    code, doc, _ = run_json(capsys, "positions", str(path))
    assert code == 3
    assert doc["diagnostics"]["error"] == "InconsistentAxioms"


def test_decision_budget_exit_4(capsys, tmp_path):
    path = tmp_path / "wide.lri"
    lines = ["axioms:"] + [f"    a{i} | b{i}." for i in range(6)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, doc, _ = run_json(
        capsys, "check", str(path), "--max-decisions", "2"
    )
    assert code == 4
    assert doc["diagnostics"]["error"] == "ResourceLimit"


@pytest.mark.parametrize("budget", [["--max", "5"], ["--max=5"]])
def test_unique_option_prefix_names_the_option(capsys, permit_file, budget):
    # a prefix naming one option is that option, as argparse reads it, and
    # the negated formula after it still gets its separator
    code, doc, _ = run_json(capsys, "infer", *budget, permit_file, "-perm")
    assert code == 0
    assert doc["verdict"] == "reasonable"
    full = run_json(
        capsys, "infer", "--max-decisions", "5", permit_file, "-perm"
    )
    assert (code, doc) == full[:2]


@pytest.mark.parametrize("budget", [["--max-decisions", "-1"], ["--max=-1"]])
def test_negative_budget_is_a_usage_error(capsys, permit_file, budget):
    with pytest.raises(SystemExit) as stop:
        cli.main(["check", *budget, permit_file])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: lri check")
    assert "argument --max-decisions: invalid budget value: '-1'" in err


def test_non_integer_budget_is_a_usage_error(capsys, permit_file):
    with pytest.raises(SystemExit) as stop:
        cli.main(["check", "--max-decisions", "x", permit_file])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert "argument --max-decisions: invalid budget value: 'x'" in err


# a deep nest of parentheses, and a disjunction too long to translate
DEEP_RULES = [
    "(" * 2000 + "p" + ")" * 2000,
    " | ".join(f"p{i}" for i in range(3000)),
]


@pytest.mark.parametrize("rule", DEEP_RULES, ids=["parentheses", "disjunction"])
def test_too_deep_a_formula_exits_2(capsys, tmp_path, rule):
    path = tmp_path / "deep.lri"
    path.write_text(f"hypotheses:\n    {rule}.\n", encoding="utf-8")
    for verb in ("check", "positions"):
        code, doc, _ = run_json(capsys, verb, str(path))
        assert code == 2
        assert doc["diagnostics"] == {
            "error": "InputError", "message": "formula nested too deeply",
        }


def test_multiple_groundings_exit_5(capsys, tmp_path):
    path = tmp_path / "pair.lri"
    path.write_text(
        "constants: a b\naxioms:\n    p(a).\n", encoding="utf-8"
    )
    code, doc, _ = run_json(capsys, "infer", str(path), "p(X)")
    assert code == 5
    assert doc["diagnostics"]["error"] == "MultipleGroundings"


LARGE = ROOT / "tests" / "data" / "golden" / "large"
MANY = {
    "r(X, Y) & r(Z, W)": 30**4,
    "r(X, Y) & r(Z, W) & s(V)": 30**5,
}


def _ungrounded(monkeypatch):
    def ground(schema, signature):
        raise AssertionError("a refused query was grounded")

    monkeypatch.setattr("lri.kb.ground", ground)


@pytest.mark.parametrize("query", MANY)
def test_a_many_instance_query_is_refused_before_grounding(
    capsys, monkeypatch, query
):
    """Over 30 constants, 4 and 5 variables give 30^4 and 30^5 instances:
    `infer` and `justify` refuse the query by that count, in batch and in a
    session, without building one instance."""
    base = load(str(LARGE / "constants_30.lri"))
    domain = base.domain()
    _ungrounded(monkeypatch)
    message = (
        f"{query!r} grounds to {MANY[query]} formulas; "
        "supply a single ground instance"
    )
    for handler in (cli.infer_doc, cli.justify_doc):
        start = time.perf_counter()
        with pytest.raises(lri.kb.MultipleGroundings) as refused:
            handler(base, domain, query)
        assert time.perf_counter() - start < 0.05
        assert str(refused.value) == message
    session = ReplSession(base)
    for verb in ("infer", "justify"):
        doc = session.handle(f"{verb} {query}")
        assert doc["diagnostics"] == {
            "error": "MultipleGroundings", "message": message,
        }
    monkeypatch.undo()  # loading the base grounds its rules
    code, doc, _ = run_json(
        capsys, "infer", str(LARGE / "constants_30.lri"), query
    )
    assert code == 5
    assert doc["diagnostics"]["message"] == message


def test_check_counts_the_positions_without_listing_them(monkeypatch):
    """30 islands of paired exceptions have 2^30 positions: `check` reports
    their number as the product of the islands' two, and lists none."""

    def listed(*args):
        raise AssertionError("check listed the positions")

    for owner in (cli, engine):
        monkeypatch.setattr(owner, "maximal_selections", listed)
    monkeypatch.setattr(engine, "maximal_positions", listed)
    monkeypatch.setattr(engine, "_join", listed, raising=False)
    start = time.perf_counter()
    domain = engine.DomainOfRules(*paired_exception_rules(30))
    verdict = cli.check_doc(None, domain, None)["verdict"]
    assert time.perf_counter() - start < 1.0
    assert verdict == {
        "axioms_consistent": True,
        "overall_consistent": False,
        "maximal_position_count": 2**30,
    }


def test_variety_lists_the_positions_once(capsys, monkeypatch):
    """The document's components are the variety's own selections."""
    joins = []
    real = engine._join

    def join(parts):
        joins.append(parts)
        return real(parts)

    monkeypatch.setattr(engine, "_join", join)
    path = ROOT / "tests" / "data" / "golden" / "paired_exceptions.lri"
    code, doc, _ = run_json(capsys, "variety", str(path))
    assert code == 0
    assert [p["indices"] for p in doc["positions"]] == [
        [2 * i + side for i, side in enumerate(sides)]
        for sides in itertools.product((0, 1), repeat=4)
    ]
    assert len(joins) == 1


def test_bad_component_indices_exit_6(capsys, permit_file):
    code, doc, _ = run_json(capsys, "compat", permit_file, "0", "9")
    assert code == 6
    assert doc["diagnostics"]["error"] == "InvalidComponents"
    code, doc, _ = run_json(capsys, "compat", permit_file, "0", "0")
    assert code == 6


def test_witness_needs_two_components(capsys):
    code, doc, _ = run_json(capsys, "witness", "1")
    assert code == 2
    assert doc["diagnostics"]["error"] == "InputError"


# ---------------------------------------------------------------------------
# one parser per verb and process


def test_later_commands_build_no_parser(capsys, monkeypatch, permit_file):
    later = [("check", permit_file), ("positions", permit_file),
             ("compat", permit_file, "0")]
    for argv in later:
        run_json(capsys, *argv)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in later:
        run_json(capsys, *argv)
    assert built == []


def test_parser_is_built_on_first_use_only():
    script = """\
import argparse
import io
import itertools
import json
import sys

built = []
real_init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(1)
    real_init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import lri.cli
counts = [len(built)]
sys.stdout = sys.stderr = io.StringIO()
for _ in range(2):
    lri.cli.main(["witness", "2"])
    counts.append(len(built))
sys.__stdout__.write(json.dumps(counts))
"""
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    on_import, first, second = json.loads(proc.stdout)
    assert on_import == 0
    assert first > 0
    assert second == first


def _help_texts(capsys, monkeypatch, columns):
    monkeypatch.setenv("COLUMNS", str(columns))
    texts = []
    for argv in (["--help"], ["context", "--help"]):
        with pytest.raises(SystemExit) as stop:
            cli.main(argv)
        assert stop.value.code == 0
        texts.append(capsys.readouterr().out)
    return texts


def test_help_follows_the_current_terminal_width(capsys, monkeypatch):
    wide = _help_texts(capsys, monkeypatch, 80)
    narrow = _help_texts(capsys, monkeypatch, 50)
    assert _help_texts(capsys, monkeypatch, 80) == wide
    for wide_text, narrow_text in zip(wide, narrow):
        # the same words, wrapped onto more lines
        assert narrow_text.split() == wide_text.split()
        assert len(narrow_text.splitlines()) > len(wide_text.splitlines())


def test_usage_error_leaves_the_parser_usable(capsys, permit_file):
    expected = run_cli(capsys, "compat", permit_file, "0", "1")
    with pytest.raises(SystemExit) as stop:
        cli.main(["compat", permit_file, "x"])
    assert stop.value.code == 2
    assert "invalid int value: 'x'" in capsys.readouterr().err
    assert run_cli(capsys, "compat", permit_file, "0", "1") == expected
    assert json.loads(expected[1])["input"] == {"indices": [0, 1]}


# The operands each command line verb parses with; no file is opened.
VERB_OPERANDS = {
    "check": ["base.lri"],
    "positions": ["base.lri"],
    "infer": ["base.lri", "q"],
    "justify": ["base.lri", "q"],
    "context": ["base.lri"],
    "variety": ["base.lri"],
    "compat": ["base.lri", "0"],
    "witness": ["2"],
    "partition": ["base.lri"],
    "repl": ["base.lri"],
}
ROUTED = (
    [["-h"], [], ["--help", "check"], ["assert-ax", "q"], ["chec", "base.lri"]]
    + [
        [verb, *tail]
        for verb, operands in VERB_OPERANDS.items()
        for tail in (
            ["-h"], [], [*operands, "extra"], ["--bogus"],
            ["--max-decisions", "-1"], ["--pret"],
        )
    ]
    + [["compat", "base.lri", "x"], ["witness", "x"]]
)


def test_every_verb_has_routed_operands():
    verbs = {name for name, verb in cli._VERBS.items() if verb.help}
    assert set(VERB_OPERANDS) == verbs


def _parsed(capsys, parse, argv):
    """What parsing `argv` returned or exited with, and what it printed."""
    try:
        outcome = parse(argv)
    except SystemExit as stop:
        outcome = stop.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


@pytest.mark.parametrize(
    "argv", ROUTED, ids=lambda argv: " ".join(["lri", *argv])
)
def test_main_parses_as_the_whole_parser_does(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    parsed = []
    monkeypatch.setattr(cli._Verb, "run", lambda verb, args: parsed.append(args))

    def through_main(argv):
        assert cli.main(argv) == 0
        return vars(parsed.pop())

    def whole(argv):
        return vars(cli._build_parser().parse_args(cli._insert_separator(argv)))

    assert _parsed(capsys, through_main, argv) == _parsed(capsys, whole, argv)


@pytest.mark.parametrize(
    "argv, separated",
    [
        # an option's value is not the verb's word
        (
            ["--max-decisions", "context", "context", "--pretty"],
            ["--max-decisions", "context", "context", "--pretty"],
        ),
        # a valued option with no value left stays where it is
        (
            ["infer", "F", "q", "--max-decisions"],
            ["infer", "F", "q", "--max-decisions"],
        ),
        # nothing after `--` is moved
        (
            ["context", "F", "q", "--", "--pretty", "-p"],
            ["context", "F", "q", "--", "--pretty", "-p"],
        ),
        # a prefix of one known option is that option
        (
            ["context", "F", "q", "--pre", "-p"],
            ["context", "--pre", "F", "q", "--", "-p"],
        ),
        # an `=` value travels with its option
        (
            ["context", "F", "q", "--max-decisions=3", "r", "--pretty", "-s"],
            ["context", "--max-decisions=3", "--pretty", "F", "q", "r"]
            + ["--", "-s"],
        ),
    ],
    ids=["option-value", "valued-last", "after-separator", "prefix", "equals"],
)
def test_separator_orders_options_before_positionals(argv, separated):
    """Known options after the first positional move ahead of the
    positionals, each with its value; `--` goes before an unknown dash
    token, and nothing from `--` on moves."""
    assert cli._insert_separator(argv) == separated


# ---------------------------------------------------------------------------
# interactive session


def _session(text=PERMIT_TEXT):
    return ReplSession(loads(text))


def test_repl_blank_and_comment_lines_ignored():
    session = _session()
    assert session.handle("") == {}
    assert session.handle("   # note") == {}


def test_repl_quit_ends_session():
    assert _session().handle("quit") is None


def test_repl_query_matches_batch_document(capsys, permit_file):
    _, batch, _ = run_cli(capsys, "infer", permit_file, "perm")
    doc = _session().handle("infer perm")
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == batch


def test_repl_error_document_differs_from_batch_only_in_its_input(
    capsys, permit_file
):
    """An error document is the one difference between the two surfaces: a
    batch error reports no input, the session's reports the line's text."""
    _, batch, _ = run_json(capsys, "infer", permit_file, "q(")
    doc = _session().handle("infer q(")
    assert (batch["input"], doc["input"]) == ({}, {"text": "q("})
    assert batch["diagnostics"]["error"] == "FormulaSyntaxError"
    assert {**doc, "input": {}} == batch


@pytest.mark.parametrize(
    "spaced, tabbed",
    [("infer perm", "infer\tperm"), ("retract-hyp 0", "retract-hyp \t 0")],
)
def test_repl_splits_a_command_at_any_whitespace(spaced, tabbed):
    assert _session().handle(tabbed) == _session().handle(spaced)


def test_repl_assert_hyp_appends_and_echoes():
    session = _session()
    doc = session.handle("assert-hyp -act -> -perm")
    assert doc["verdict"]["accepted"] is True
    listing = doc["verdict"]["hypotheses"]
    assert listing[-1] == {"index": 3, "formula": "(-act -> -perm)"}


def test_repl_assert_hyp_refuses_duplicates():
    session = _session()
    doc = session.handle("assert-hyp ex")
    assert doc["verdict"]["accepted"] is False
    assert "already a hypothesis" in doc["verdict"]["reason"]
    doc = session.handle("assert-hyp act")
    assert doc["verdict"]["accepted"] is False
    assert "already an axiom" in doc["verdict"]["reason"]


def test_repl_assert_ax_accepts_consistent_axiom():
    session = _session()
    doc = session.handle("assert-ax -ex | act")
    assert doc["verdict"]["accepted"] is True
    assert "(-ex | act)" in doc["verdict"]["axioms"]


def test_repl_assert_ax_refuses_conflicts():
    session = _session()
    doc = session.handle("assert-ax -act")
    assert doc["verdict"]["accepted"] is False
    assert sorted(doc["verdict"]["conflict"]) == ["-act", "act"]
    # the refused axiom left no trace
    assert session.handle("positions")["verdict"] == {"count": 3}


def test_repl_retract_hyp_reindexes():
    session = _session()
    doc = session.handle("retract-hyp 2")
    assert doc["verdict"]["removed"] == "(ex -> -perm)"
    assert [h["formula"] for h in doc["verdict"]["hypotheses"]] == [
        "(act -> perm)",
        "ex",
    ]
    # with the excusing rule gone the permission is no longer contested
    doc = session.handle("infer -perm")
    assert doc["verdict"] == "not-reasonable"


def test_repl_retract_hyp_validates_index():
    session = _session()
    doc = session.handle("retract-hyp 9")
    assert doc["verdict"] == "error"
    doc = session.handle("retract-hyp soon")
    assert doc["verdict"] == "error"


def test_repl_unknown_command_is_an_error_document():
    doc = _session().handle("frobnicate now")
    assert doc["verdict"] == "error"
    assert "unknown command" in doc["diagnostics"]["message"]


def test_repl_duplicate_context_queries_are_an_input_error():
    session = _session()
    doc = session.handle("context perm. perm.")
    assert doc["verdict"] == "error"
    assert doc["diagnostics"]["error"] == "InputError"
    assert "duplicate" in doc["diagnostics"]["message"]
    assert session.handle("context perm.")["verdict"] == {"count": 1}


def test_repl_refused_constant_leaves_the_session_usable(tmp_path):
    session = ReplSession(
        loads(
            "constants: a b\naxioms:\n    p(a).\n"
            "hypotheses:\n    p(X) -> q(X).\n"
        )
    )
    doc = session.handle("infer q(zz)")
    assert doc["diagnostics"] == {
        "error": "UnknownSymbol",
        "message": "constant 'zz' is not in the declared constants line",
    }
    assert session.handle("context q(zz).")["verdict"] == "error"
    assert session.handle("infer q(a)")["verdict"] == "reasonable"
    assert session.handle("assert-hyp r(a)")["verdict"]["accepted"] is True
    target = tmp_path / "out.lri"
    session.handle(f"save {target}")
    assert target.read_text(encoding="utf-8").splitlines()[0] == "constants: a b"


def test_repl_refused_query_leaves_an_open_base_as_it_was(tmp_path):
    session = ReplSession(
        loads("axioms:\n    p(a).\nhypotheses:\n    p(a) -> q(a).\n")
    )
    doc = session.handle("infer p(zz) & (")
    assert doc["diagnostics"]["error"] == "FormulaSyntaxError"
    assert session.handle("infer p(X)")["verdict"] == "reasonable"
    target = tmp_path / "out.lri"
    session.handle(f"save {target}")
    assert target.read_text(encoding="utf-8").splitlines()[0] == "constants: a"
    session = ReplSession(load(str(ROOT / "tests/data/golden/permit.lri")))
    assert session.handle("infer newp(a) & (")["verdict"] == "error"
    assert session.handle("infer newp")["verdict"] == "not-reasonable"


OPEN_BASE = "hypotheses:\n    p(a).\n    p(b) -> s.\n"


@pytest.mark.parametrize(
    "first, then",
    [
        ("infer q(c)", "infer p(X)"),
        ("infer p(X) & q(c)", "infer p(X)"),
        ("assert-ax zz & -zz", "infer zz(a)"),
    ],
    ids=["query", "refused-query", "refused-axiom"],
)
def test_repl_command_that_changes_nothing_declares_nothing(
    capsys, tmp_path, first, then
):
    """A query or a refused edit leaves the signature as it found it: the
    next command answers as the batch command on the base does, and `save`
    writes the constants line it wrote before."""
    path = tmp_path / "open.lri"
    path.write_text(OPEN_BASE, encoding="utf-8")
    _, batch, _ = run_json(capsys, "infer", str(path), then.split(None, 1)[1])
    session = ReplSession(load(str(path)))
    before, after = tmp_path / "before.lri", tmp_path / "after.lri"
    session.handle(f"save {before}")
    session.handle(first)
    session.handle(f"save {after}")
    doc = session.handle(then)
    if doc["verdict"] == "error":
        doc = {**doc, "input": {}}
    assert doc == batch
    for saved in (before, after):
        first_line = saved.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == "constants: a b"


def test_repl_accepted_edit_keeps_its_names(tmp_path):
    session = ReplSession(loads(OPEN_BASE))
    assert session.handle("assert-hyp r(c)")["verdict"]["accepted"] is True
    doc = session.handle("infer p(X)")
    assert "grounds to 3 formulas" in doc["diagnostics"]["message"]
    target = tmp_path / "out.lri"
    session.handle(f"save {target}")
    first_line = target.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "constants: a b c"


@pytest.mark.parametrize("line", ["positions foo", "quit now"])
def test_repl_refuses_an_operand_a_command_does_not_take(line):
    session = _session()
    assert session.handle(line)["diagnostics"] == {
        "error": "InputError",
        "message": f"unexpected operand {line.split()[1]!r}",
    }
    assert session.handle("positions")["verdict"] == {"count": 3}
    assert session.handle("retract-hyp")["diagnostics"]["message"] == (
        "retract-hyp needs an index, got ''"
    )


@pytest.mark.parametrize("rule", DEEP_RULES, ids=["parentheses", "disjunction"])
def test_repl_too_deep_a_formula_leaves_the_session_usable(rule):
    session = _session()
    for command in ("infer", "assert-ax", "assert-hyp"):
        doc = session.handle(f"{command} {rule}")
        assert doc["diagnostics"] == {
            "error": "InputError", "message": "formula nested too deeply",
        }
    assert session.handle("infer perm")["verdict"] == "reasonable"
    assert session.handle("positions")["verdict"] == {"count": 3}


def test_repl_errors_leave_state_intact():
    session = _session()
    session.handle("infer perm &")
    session.handle("assert-hyp")
    assert session.handle("positions")["verdict"] == {"count": 3}


def test_repl_save_round_trips(tmp_path):
    session = _session()
    target = tmp_path / "out.lri"
    doc = session.handle(f"save {target}")
    assert doc["verdict"] == {"path": str(target)}
    again = loads(target.read_text(encoding="utf-8"))
    assert [str(f) for f in again.hypotheses] == [
        str(f) for f in loads(PERMIT_TEXT).hypotheses
    ]


def test_repl_unwritable_save_is_an_error_document(
    capsys, monkeypatch, permit_file, tmp_path
):
    target = tmp_path / "missing" / "x.lri"
    script = io.StringIO(f"save {target}\npositions\n")
    monkeypatch.setattr(sys, "stdin", script)
    code, out, _ = run_cli(capsys, "repl", permit_file)
    assert code == 0
    docs = json.loads("[" + out.replace("}\n{", "},\n{") + "]")
    assert [d["command"] for d in docs] == ["save", "positions"]
    assert docs[0]["diagnostics"]["error"] == "InputError"
    assert docs[1]["verdict"] == {"count": 3}


# ---------------------------------------------------------------------------
# one domain per session between edits


@pytest.fixture()
def counts(monkeypatch):
    """Domain builds and SAT searches made from here on."""
    counts = {"builds": 0, "solves": 0}
    real_init, real_solve = engine.DomainOfRules.__init__, engine.sat.solve

    def counting_init(self, *args, **kwargs):
        counts["builds"] += 1
        real_init(self, *args, **kwargs)

    def counting_solve(*args, **kwargs):
        counts["solves"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(engine.DomainOfRules, "__init__", counting_init)
    monkeypatch.setattr(engine.sat, "solve", counting_solve)
    return counts


def _spent(counts, session, line):
    before = dict(counts)
    doc = session.handle(line)
    return doc, {key: counts[key] - before[key] for key in counts}


def test_repl_repeated_query_reuses_the_domain(counts, tmp_path):
    session = _session()
    first, spent_first = _spent(counts, session, "infer perm")
    again, spent_again = _spent(counts, session, "infer perm")
    assert again == first
    assert (spent_first["builds"], spent_again["builds"]) == (1, 0)
    # the domain keeps the latest conclusion's refutations
    assert spent_first["solves"] > 0 and spent_again["solves"] == 0
    assert _spent(counts, session, "positions")[1] == {"builds": 0, "solves": 0}
    _, spent = _spent(counts, session, f"save {tmp_path / 'out.lri'}")
    assert spent["builds"] == 0


def test_repl_accepted_axiom_keeps_its_domain(counts):
    session = _session()
    assert session.handle("assert-ax -ex")["verdict"]["accepted"] is True
    doc, spent = _spent(counts, session, "positions")
    assert spent["builds"] == 0
    assert doc["diagnostics"] == {"axiom_count": 2, "hypothesis_count": 3}


@pytest.mark.parametrize(
    "edit", ["assert-hyp -act -> -perm", "retract-hyp 2", "assert-ax -ex"]
)
def test_repl_edit_drops_the_answers_before_it(edit):
    kept = _session()
    for query in ("infer -perm", "positions"):
        kept.handle(query)
    assert kept.handle(edit)["verdict"] != "error"
    fresh = _session()
    fresh.handle(edit)
    for query in ("infer -perm", "positions", "justify perm", "context"):
        assert kept.handle(query) == fresh.handle(query)


def _random_session(seed):
    """Four distinct hypotheses over a-e, as a base without the last and
    with it, and two questions over a-g."""
    rng = random.Random(seed)
    hypotheses: list = []
    while len(hypotheses) < 4:
        formula = random_formula(rng, make_atoms(5))
        if formula not in hypotheses:
            hypotheses.append(formula)
    printed = [print_formula(f) for f in hypotheses]
    base = "hypotheses:\n" + "".join(f"    {f}.\n" for f in printed[:3])
    questions = [
        print_formula(random_formula(rng, make_atoms(7))) for _ in range(2)
    ]
    return base, base + f"    {printed[3]}.\n", printed[3], questions


def _searches(recorded, session, line):
    """Each search the command made: its problem, outcome and decisions."""
    recorded.clear()
    session.handle(line)
    cap = sat.DEFAULT_MAX_DECISIONS
    return [
        (p.assumptions, p.clauses, sat._search(p, cap)[:2]) for p in recorded
    ]


def test_a_question_after_an_edit_searches_as_on_a_fresh_load(monkeypatch):
    """The variables of a question or an edit do not outlive it, so the next
    question is numbered, and searched, as on a fresh load."""
    recorded = record_solves(monkeypatch)
    for seed in range(300):
        base, edited, added, (first, second) = _random_session(seed)
        session = ReplSession(loads(base))
        session.handle(f"infer {first}")
        assert session.handle(f"assert-hyp {added}")["verdict"]["accepted"]
        fresh = ReplSession(loads(edited))
        assert _searches(recorded, session, f"infer {second}") == _searches(
            recorded, fresh, f"infer {second}"
        ), seed


def test_a_second_question_answers_as_on_a_fresh_load_at_any_budget():
    """Under a budget too, an earlier question leaves no trace in the next."""
    for seed in range(100):
        _, base, _, (first, second) = _random_session(seed)
        for budget in range(8):
            session = ReplSession(loads(base), budget)
            session.handle(f"infer {first}")
            fresh = ReplSession(loads(base), budget)
            assert session.handle(f"infer {second}") == fresh.handle(
                f"infer {second}"
            ), (seed, budget)


def test_repl_failed_domain_build_is_not_kept(counts):
    session = _session("axioms:\n    p.\n    -p.\nhypotheses:\n    q.\n")
    first, second = session.handle("infer q"), session.handle("infer q")
    assert first == second
    assert first["diagnostics"]["error"] == "InconsistentAxioms"
    assert counts["builds"] == 2


@pytest.mark.parametrize(
    "argv,walks",
    [
        (["infer", PERMIT_SAMPLE, "perm"], 1),
        (["justify", PERMIT_SAMPLE, "-perm"], 1),
        (["context", PERMIT_SAMPLE], 2),
    ],
    ids=["infer", "justify", "context"],
)
def test_a_question_walks_its_conclusion_once(
    capsys, monkeypatch, argv, walks
):
    """The domain finds a conclusion's islands once, for every reader."""
    walked = []
    real = engine.atoms_of

    def counting(formula):
        walked.append(formula)
        return real(formula)

    monkeypatch.setattr(engine, "atoms_of", counting)
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert len(walked) == walks


@pytest.mark.parametrize(
    "verb,prints",
    [(["positions"], 10), (["context", "q_0", "q_1", "-q_1", "-q_0"], 8)],
    ids=["positions", "context"],
)
def test_a_document_prints_each_formula_once(
    capsys, monkeypatch, tmp_path, verb, prints
):
    """Five islands of paired exceptions: 32 positions over 10 hypotheses,
    and four queries each justified by one hypothesis."""
    islands = range(5)
    path = tmp_path / "paired.lri"
    path.write_text(
        "axioms:\n"
        + "".join(f"    p_{i} & e_{i}.\n" for i in islands)
        + "hypotheses:\n"
        + "".join(f"    p_{i} -> q_{i}.\n    e_{i} -> -q_{i}.\n" for i in islands),
        encoding="utf-8",
    )
    printed = []
    real = cli.print_formula

    def counting(formula):
        printed.append(formula)
        return real(formula)

    monkeypatch.setattr(cli, "print_formula", counting)
    assert cli.main([verb[0], str(path), *verb[1:]]) == 0
    capsys.readouterr()
    assert len(printed) == len(set(printed)) <= prints


def test_no_question_assembles_a_clause_set(
    capsys, monkeypatch, permit_file, tmp_path
):
    """Every search assumes literals over the domain's clause store."""

    def refuse(self, asserted):
        raise AssertionError("a question assembled a clause set")

    monkeypatch.setattr(cnf.CnfBuilder, "clause_set", refuse)
    probe = tmp_path / "probe.lri"
    probe.write_text("perm.\n-perm.\nact.\n", encoding="utf-8")
    for argv in (
        ["positions", permit_file],
        ["justify", permit_file, "perm"],
        ["context", permit_file, "perm", "-perm"],
        ["infer", permit_file, "-perm"],
        ["variety", permit_file, "--probe", str(probe)],
        ["compat", permit_file, "0", "1"],
    ):
        code, doc, _ = run_json(capsys, *argv)
        assert code == 0, (argv, doc["diagnostics"])
    doc = _session().handle("assert-ax -act")
    assert sorted(doc["verdict"]["conflict"]) == ["-act", "act"]


def test_repl_subprocess_session(permit_file):
    script = "positions\ninfer perm\nquit\n"
    proc = subprocess.run(
        [sys.executable, "-m", "lri", "repl", permit_file],
        input=script,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stderr.count("lri> ") == 3
    docs = json.loads("[" + proc.stdout.replace("}\n{", "},\n{") + "]")
    assert [d["command"] for d in docs] == ["positions", "infer"]
    assert docs[1]["verdict"] == "reasonable"
