import os
from pathlib import Path

import pytest

from lri import DomainOfRules, Signature, parse_formula
from lri.cnf import CnfBuilder

# Tests that start `python -m lri` need the checkout's package in the child
# too; pytest's `pythonpath` setting reaches only this process.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")])
)


def build_domain(axiom_texts, hypothesis_texts, max_decisions=None):
    """Parse statement texts into a fresh-signature domain of rules."""
    sig = Signature()
    axioms = [parse_formula(t, sig) for t in axiom_texts]
    hypotheses = [parse_formula(t, sig) for t in hypothesis_texts]
    return DomainOfRules(axioms, hypotheses, sig, max_decisions)


def solver_problem(formulas, signature):
    """A fresh builder's `sat.Problem` asserting every formula."""
    builder = CnfBuilder(signature)
    return builder.problem([builder.add(f) for f in formulas])


@pytest.fixture
def permit_domain():
    """The environmental-permit rule base used across the suite."""
    return build_domain(["act"], ["act -> perm", "ex", "ex -> -perm"])
