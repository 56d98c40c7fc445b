"""The immutable records: formulas, results, positions and the rest.

Every record compares by class and fields, hashes as the tuple of its
fields, prints as `Name(field=value, ...)` and refuses assignment and
deletion.  Field names are listed here, not read from the classes, so the
contract is checked from outside.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from lri import (
    And,
    Atom,
    Context,
    Iff,
    Implies,
    Justification,
    Not,
    Or,
    Position,
    Signature,
    parse_formula,
)
from lri.cnf import ClauseSet
from lri.formula import _Token
from lri.kb import KnowledgeBase
from lri.sat import SatResult
from lri.variety import DepthCheckResult, PartitionEdge, PartitionGraph, PartitionNode

from conftest import build_domain

P, Q = Atom("p", ("a",)), Atom("q")
SIGNATURE = Signature()
DOMAIN = build_domain(["act"], ["act -> perm", "ex", "ex -> -perm"])
PERM = parse_formula("perm", DOMAIN.signature)
NODE = PartitionNode(0, (P,), (P,))
EDGE = PartitionEdge(0, 1, (P,))

# (class, field names, field values); building twice gives equal records.
RECORDS = [
    (Atom, ("predicate", "args"), ("p", ("a",))),
    (Not, ("operand",), (P,)),
    (And, ("left", "right"), (P, Q)),
    (Or, ("left", "right"), (P, Q)),
    (Implies, ("left", "right"), (P, Not(Q))),
    (Iff, ("left", "right"), (And(P, Q), Q)),
    (_Token, ("kind", "text", "position"), ("IDENT", "p", 3)),
    (SatResult, ("satisfiable", "model", "decisions"), (False, None, 2)),
    (
        ClauseSet,
        ("clauses", "atoms", "aux"),
        ((frozenset({1, -2}),), {1: P, 2: Q}, frozenset()),
    ),
    (Position, ("domain", "chosen"), (DOMAIN, frozenset({0}))),
    (
        Justification,
        ("conclusion", "position"),
        (PERM, Position(DOMAIN, frozenset({0}))),
    ),
    (
        Context,
        ("pairs",),
        (frozenset({(PERM, Justification(PERM, Position(DOMAIN, frozenset({0}))))}),),
    ),
    (
        DepthCheckResult,
        ("holds", "failing_components", "counterexample"),
        (False, (0, 1), P),
    ),
    (PartitionNode, ("index", "formulas", "atoms"), (0, (P,), (P,))),
    (PartitionEdge, ("left", "right", "shared"), (0, 1, (P,))),
    (PartitionGraph, ("nodes", "edges"), ((NODE,), (EDGE,))),
    (
        KnowledgeBase,
        ("signature", "axioms", "hypotheses", "queries", "declared_constants"),
        (SIGNATURE, (P,), (Q,), (), None),
    ),
]
IDS = [cls.__name__ for cls, _, _ in RECORDS]


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_records_are_equal_by_class_and_fields(cls, fields, values):
    first, second = cls(*values), cls(*values)
    assert first is not second
    assert first == second and not first != second
    assert [getattr(first, f) for f in fields] == list(values)
    assert first != values
    # A clause set is told apart by its clauses alone.
    key = values[:1] if cls is ClauseSet else values
    assert hash(first) == hash(second) == hash(key)


def test_connectives_over_the_same_operands_differ():
    made = [kind(P, Q) for kind in (And, Or, Implies, Iff)]
    for i, left in enumerate(made):
        for j, right in enumerate(made):
            assert (left == right) == (i == j)
            assert hash(left) == hash(right) == hash((P, Q))


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, fields, values):
    record = cls(*values)
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, f) for f in fields] == list(values)


@pytest.mark.parametrize("cls, fields, values", RECORDS, ids=IDS)
def test_records_print_their_fields(cls, fields, values):
    shown = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__qualname__}({shown})"


def test_record_text_and_defaults():
    assert repr(Atom("p")) == "Atom(predicate='p', args=())"
    assert repr(Not(Atom("p"))) == "Not(operand=Atom(predicate='p', args=()))"
    assert Atom("p").args == ()
    assert Atom("p") == Atom(predicate="p", args=())
    result = DepthCheckResult(True)
    assert result.failing_components is None and result.counterexample is None
    assert result == DepthCheckResult(holds=True)
    base = KnowledgeBase(
        signature=SIGNATURE,
        axioms=(P,),
        hypotheses=(Q,),
        queries=(),
        declared_constants=None,
    )
    assert base == KnowledgeBase(SIGNATURE, (P,), (Q,), (), None)


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: Position(DOMAIN, frozenset({7})), IndexError),
        (lambda: Position(DOMAIN, frozenset({0, 1, 2})), ValueError),
        (
            lambda: Justification(PERM, Position(DOMAIN, frozenset({1}))),
            ValueError,
        ),
        (lambda: PartitionEdge(0, 1), TypeError),
        (lambda: PartitionEdge(0, 1, (), ()), TypeError),
        (lambda: PartitionEdge(0, 1, (), left=0), TypeError),
        (lambda: DepthCheckResult(True, colour=1), TypeError),
        (lambda: Atom("p", (), 3), TypeError),
    ],
    ids=[
        "index-out-of-range",
        "inconsistent-position",
        "not-entailed",
        "missing-field",
        "extra-field",
        "field-given-twice",
        "unknown-field",
        "extra-atom-field",
    ],
)
def test_construction_refuses_bad_fields(build, error):
    with pytest.raises(error):
        build()


def test_clause_set_equality_ignores_decoding_tables():
    clauses = (frozenset({1}), frozenset({-1, 2}))
    first = ClauseSet(clauses, {1: P, 2: Q}, frozenset())
    second = ClauseSet(clauses, {}, frozenset({2}))
    assert first == second and hash(first) == hash(second)
    assert first != ClauseSet(clauses[:1], {1: P}, frozenset())


def test_depth_check_result_is_falsy_when_it_fails():
    assert DepthCheckResult(True)
    assert not DepthCheckResult(False, (0, 1), P)


def test_formulas_copy_and_pickle():
    formula = parse_formula("(p(a) & -q) -> (r <-> p(b)) | q")
    for twin in (
        copy.copy(formula),
        copy.deepcopy(formula),
        pickle.loads(pickle.dumps(formula)),
    ):
        assert twin == formula and hash(twin) == hash(formula)
        assert {formula: 1}[twin] == 1


def test_a_formula_pickled_under_another_hash_seed_hashes_afresh():
    # String hashes differ between processes, so a formula's kept hash must
    # be computed again where it is loaded.
    text = "(p(a) & -q) -> (r <-> p(b)) | q"
    write = (
        "import pickle, sys; from lri import parse_formula; "
        f"sys.stdout.buffer.write(pickle.dumps(parse_formula({text!r})))"
    )
    read = (
        "import pickle, sys; from lri import parse_formula; "
        f"f = pickle.loads(sys.stdin.buffer.read()); g = parse_formula({text!r}); "
        "assert f == g and hash(f) == hash(g) and {g: 1}[f] == 1"
    )
    data = subprocess.run(
        [sys.executable, "-c", write],
        env=dict(os.environ, PYTHONHASHSEED="1"),
        capture_output=True,
        check=True,
    ).stdout
    subprocess.run(
        [sys.executable, "-c", read],
        env=dict(os.environ, PYTHONHASHSEED="2"),
        input=data,
        check=True,
    )


def test_replace_builds_a_changed_copy():
    base = KnowledgeBase(SIGNATURE, (P,), (Q,), (), None)
    changed = base.replace(axioms=(Q,), queries=(P,))
    assert changed == KnowledgeBase(SIGNATURE, (Q,), (Q,), (P,), None)
    assert base.axioms == (P,)
    assert Atom("p").replace(args=("a",)) == P
    assert hash(Atom("p").replace(args=("a",))) == hash(P)
    with pytest.raises(ValueError):
        Position(DOMAIN, frozenset({0})).replace(chosen=frozenset({0, 1, 2}))
    with pytest.raises(TypeError):
        base.replace(colour=1)
