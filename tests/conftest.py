import os
from pathlib import Path

import pytest

import lri.sat
from lri import DomainOfRules, Signature, maximal_consistent_contexts
from lri import parse_formula, print_formula
from lri.cnf import CnfBuilder

_ROOT = Path(__file__).resolve().parents[1]
# Every rule-base file in the checkout: the golden bases, then the samples.
RULE_FILES = sorted((_ROOT / "tests" / "data" / "golden").glob("*.lri"))
RULE_FILES += sorted((_ROOT / "samples").glob("*.lri"))

# Tests that start `python -m lri` need the checkout's package in the child
# too; pytest's `pythonpath` setting reaches only this process.
_SRC = str(_ROOT / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


def build_domain(axiom_texts, hypothesis_texts, max_decisions=None):
    """Parse statement texts into a fresh-signature domain of rules."""
    sig = Signature()
    axioms = [parse_formula(t, sig) for t in axiom_texts]
    hypotheses = [parse_formula(t, sig) for t in hypothesis_texts]
    return DomainOfRules(axioms, hypotheses, sig, max_decisions)


def context_pairs(domain, queries):
    """The domain's contexts as (query index, sorted selection) pairs.

    This is the form `bruteforce.DomainOracle.contexts` and the families in
    `tests/families.py` give them in.
    """
    index = {q: k for k, q in enumerate(queries)}
    return [
        sorted((index[q], sorted(j.position.chosen)) for q, j in c.pairs)
        for c in maximal_consistent_contexts(domain, queries)
    ]


def texts(formulas):
    """The printed form of each formula, in order."""
    return [print_formula(f) for f in formulas]


def solver_problem(formulas):
    """A fresh builder's `sat.Problem` asserting every formula."""
    builder = CnfBuilder()
    return builder.problem([builder.add(f) for f in formulas])


@pytest.fixture
def permit_domain():
    """The environmental-permit rule base used across the suite."""
    return build_domain(["act"], ["act -> perm", "ex", "ex -> -perm"])


def record_solves(monkeypatch):
    """Each `sat.Problem` passed to `lri.sat.solve` from now on, in call order.

    The real solver still answers.  A problem's `clauses` read its store as
    it is when they are read, so a test reads them before a later
    conclusion rolls the store back.
    """
    recorded = []
    real_solve = lri.sat.solve

    def recording_solve(problem, max_decisions=None):
        recorded.append(problem)
        return real_solve(problem, max_decisions)

    monkeypatch.setattr(lri.sat, "solve", recording_solve)
    return recorded


@pytest.fixture
def solves(monkeypatch):
    """The problems `lri.sat.solve` is asked in the test (`record_solves`)."""
    return record_solves(monkeypatch)
