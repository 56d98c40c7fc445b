"""Domains and the commands that use them are freed by reference counting.

Nothing a domain holds refers back to it, so neither a domain nor a command
leaves reference cycles behind for the cycle collector.  Each test runs with
the collector disabled, so a cycle shows as objects `gc.collect()` finds.
"""

import contextlib
import gc
import io
import weakref
from pathlib import Path

import pytest

from lri import cli, justifications, maximal_positions, parse_formula
from lri import reasonably_infers
from lri.kb import load

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
ISLANDS = str(GOLDEN / "paired_exceptions.lri")
GROUNDED = str(GOLDEN / "grounded_pairs.lri")

# The arguments of every command-line verb but `repl`.
VERB_ARGUMENTS = {
    "check": ["{base}"],
    "positions": ["{base}"],
    "infer": ["{base}", "{query}"],
    "justify": ["{base}", "{query}"],
    "context": ["{base}"],
    "variety": ["{base}", "--probe", "{probe}"],
    "compat": ["{base}", "0", "1"],
    "witness": ["3"],
    "partition": ["{base}", "--dot", "{dot}"],
}
QUERIES = {ISLANDS: "-q_1", GROUNDED: "may_vote(paul)"}


@contextlib.contextmanager
def _collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_every_verb_is_listed():
    verbs = {name for name, verb in cli._VERBS.items() if verb.help}
    assert set(VERB_ARGUMENTS) == verbs - {"repl"}


@pytest.mark.parametrize(
    "base", [ISLANDS, GROUNDED], ids=["islands", "grounded"]
)
@pytest.mark.parametrize("verb", VERB_ARGUMENTS)
def test_a_command_leaves_no_cyclic_garbage(verb, base, tmp_path):
    probe = tmp_path / "probe.lri"
    probe.write_text("q_0.\n-q_1.\nmay_vote(paul).\n", encoding="utf-8")
    names = {
        "base": base, "query": QUERIES[base], "probe": probe,
        "dot": tmp_path / "graph.dot",
    }
    argv = [verb] + [arg.format(**names) for arg in VERB_ARGUMENTS[verb]]
    cli._verb_parser(verb)  # built once per process, with argparse's own cycles
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with _collector_off():
            code = cli.main(argv)
            found = gc.collect()
    assert code == 0, err.getvalue()
    assert found == 0


def test_a_domain_is_freed_once_its_answers_are_dropped():
    base = load(ISLANDS)
    conclusion = parse_formula("q_0", base.signature)
    with _collector_off():
        domain = base.domain()
        assert len(maximal_positions(domain)) == 16
        assert len(justifications(domain, conclusion)) == 1
        assert reasonably_infers(domain, conclusion) is not None
        freed = weakref.ref(domain)
        del domain
        assert freed() is None
