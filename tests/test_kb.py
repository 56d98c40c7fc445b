"""Knowledge-base files: parsing, constants, grounding, and round-trips."""

from collections import Counter

import pytest

import lri.formula
import lri.kb
from lri import (
    ArityMismatch,
    Atom,
    EmptyDomain,
    FormulaSyntaxError,
    Not,
    UnknownSymbol,
    parse_formula,
    print_formula,
)
from lri.formula import walk
from lri.kb import dump_domain, dumps, load, loads, save

from conftest import RULE_FILES, texts

PERMIT_TEXT = """\
# environmental permit scenario
axioms:
    act.
hypotheses:
    act -> perm.   # granted by default
    ex.
    ex -> -perm.
queries:
    perm.
    -perm.
"""


def test_load_permit_scenario():
    kb = loads(PERMIT_TEXT)
    assert texts(kb.axioms) == ["act"]
    assert texts(kb.hypotheses) == ["(act -> perm)", "ex", "(ex -> -perm)"]
    assert texts(kb.queries) == ["perm", "-perm"]
    assert kb.declared_constants is None


def test_hypothesis_indices_follow_file_order():
    kb = loads(PERMIT_TEXT)
    domain = kb.domain()
    assert texts(domain.hypotheses) == texts(kb.hypotheses)
    ex = parse_formula("ex", kb.signature)
    assert domain.hypotheses[1] == ex


def test_sections_may_be_omitted():
    kb = loads("axioms:\n    p.\n")
    assert texts(kb.axioms) == ["p"]
    assert kb.hypotheses == ()
    assert kb.queries == ()


def test_empty_text_is_an_empty_base():
    kb = loads("")
    assert kb.axioms == kb.hypotheses == kb.queries == ()
    assert kb.domain().consistent(frozenset())


def test_sections_in_any_order():
    kb = loads("queries:\n    q.\nhypotheses:\n    h.\naxioms:\n    a.\n")
    assert texts(kb.axioms) == ["a"]
    assert texts(kb.hypotheses) == ["h"]
    assert texts(kb.queries) == ["q"]


def test_comments_and_blank_lines_ignored():
    text = (
        "# preamble note\n\n"
        "axioms:\n"
        "    # nothing yet\n"
        "    p.  # trailing\n\n"
        "hypotheses:\n"
    )
    kb = loads(text)
    assert texts(kb.axioms) == ["p"]


def test_text_before_first_header_rejected():
    with pytest.raises(FormulaSyntaxError) as exc:
        loads("p.\naxioms:\n    q.\n")
    assert "before the first section" in str(exc.value)


def test_duplicate_section_rejected():
    with pytest.raises(FormulaSyntaxError) as exc:
        loads("axioms:\n    p.\naxioms:\n    q.\n")
    assert "duplicate section" in str(exc.value)


def test_syntax_errors_report_section_and_absolute_position():
    text = "axioms:\n    p.\nhypotheses:\n    q & .\n"
    with pytest.raises(FormulaSyntaxError) as exc:
        loads(text)
    assert "in hypotheses section" in str(exc.value)
    assert text[exc.value.position] == "."


def test_a_name_clash_points_at_the_clashing_atom():
    text = "constants: a\naxioms:\n    p(a).\nhypotheses:\n    q.\n    a.\n"
    with pytest.raises(FormulaSyntaxError, match="'a' is already a") as exc:
        loads(text)
    assert exc.value.position == 54 and text[54:56] == "a."


# ---------------------------------------------------------------------------
# constants and grounding


def test_constants_fix_grounding_order():
    text = (
        "constants: rita paul\n"
        "axioms:\n"
        "    likes(X).\n"
    )
    kb = loads(text)
    assert texts(kb.axioms) == ["likes(rita)", "likes(paul)"]
    assert kb.declared_constants == ("rita", "paul")


def test_two_variable_statement_grounds_as_product():
    text = (
        "constants: a b\n"
        "hypotheses:\n"
        "    r(X, Y).\n"
    )
    kb = loads(text)
    assert texts(kb.hypotheses) == [
        "r(a, a)", "r(a, b)", "r(b, a)", "r(b, b)"
    ]


def test_constants_line_allows_trailing_comment():
    kb = loads("constants: a b  # the agents\naxioms:\n    p(a).\n")
    assert kb.declared_constants == ("a", "b")


def test_constants_line_may_end_the_text():
    kb = loads("hypotheses:\n    p(X).\nconstants: a b")
    assert kb.declared_constants == ("a", "b")
    assert texts(kb.hypotheses) == ["p(a)", "p(b)"]


def test_statement_after_constants_line_rejected():
    with pytest.raises(FormulaSyntaxError):
        loads("constants: a\n    p(a).\naxioms:\n")


def test_invalid_constant_name_rejected():
    with pytest.raises(FormulaSyntaxError):
        loads("constants: a Bad\naxioms:\n")


def test_duplicate_constant_rejected():
    with pytest.raises(FormulaSyntaxError):
        loads("constants: a a\naxioms:\n")


def test_undeclared_constant_in_formula_rejected():
    text = "constants: a\naxioms:\n    p(b).\n"
    with pytest.raises(UnknownSymbol):
        loads(text)


def test_formulas_may_introduce_constants_without_declaration():
    kb = loads("axioms:\n    p(somebody).\n")
    assert texts(kb.axioms) == ["p(somebody)"]


def test_parse_query_accepts_new_predicates():
    kb = loads(PERMIT_TEXT)
    (query,) = kb.parse_query("perm & -revoked")
    assert print_formula(query) == "(perm & -revoked)"


def test_parse_query_grounds_over_declared_constants():
    kb = loads("constants: a b\naxioms:\n    p(a).\n")
    queries = kb.parse_query("p(X)")
    assert texts(queries) == ["p(a)", "p(b)"]


def test_parse_query_rejects_new_constants_when_declared():
    kb = loads("constants: a\naxioms:\n    p(a).\n")
    with pytest.raises(UnknownSymbol):
        kb.parse_query("p(newcomer)")


def test_rejected_constant_leaves_the_signature_unchanged():
    kb = loads("constants: a\naxioms:\n    p(a).\n")
    with pytest.raises(UnknownSymbol, match="constant 'zz' is not"):
        kb.parse_query("q(zz)")
    with pytest.raises(UnknownSymbol, match="constant 'zz' is not"):
        kb.ground_statements("r(a). s(zz).")
    assert kb.signature.constants == ("a",)
    assert "q" not in dict(kb.signature.predicates)
    assert texts(kb.ground_statements("q(X). r(a).")) == ["q(a)", "r(a)"]


def test_a_refused_statement_leaves_an_open_signature_unchanged():
    """Without a constants line a refused statement declares nothing either.

    Bad syntax after a new constant or predicate, a clashing arity and a
    schema with nothing to ground over are each refused before the
    signature sees the statement.
    """
    kb = loads("axioms:\n    p(a).\nhypotheses:\n    p(a) -> q(a).\n")
    with pytest.raises(FormulaSyntaxError):
        kb.parse_query("p(zz) & (")
    with pytest.raises(FormulaSyntaxError):
        kb.ground_statements("r(a). s(zz) & (.")
    with pytest.raises(ArityMismatch):
        kb.parse_query("t(a) & p(a, zz)")
    assert kb.signature.constants == ("a",)
    for name in ("r", "s", "t"):
        assert name not in dict(kb.signature.predicates)
    assert texts(kb.parse_query("p(X)")) == ["p(a)"]
    empty = loads("axioms:\n    p.\n")
    with pytest.raises(EmptyDomain):
        empty.parse_query("r(X)")
    assert "r" not in dict(empty.signature.predicates)
    assert texts(empty.parse_query("r")) == ["r"]


_DEEP = "fresh(zz) & " + "-" * 5000 + "q"
# Bases with and without a constants line, and with and without constants.
_REFUSALS = {
    "axioms:\n    p(a).\nhypotheses:\n    p(a) -> q.\n": [
        ("fresh(zz) & (", FormulaSyntaxError),
        ("fresh(zz) & q(zz, zz)", ArityMismatch),
        (_DEEP, RecursionError),
    ],
    "constants: a\naxioms:\n    p(a).\nhypotheses:\n    p(a) -> q.\n": [
        ("fresh(zz) & (", FormulaSyntaxError),
        ("fresh(zz) & q(zz, zz)", ArityMismatch),
        ("fresh(a) & p(zz)", UnknownSymbol),
        ("fresh(X) -> p(X) | p(zz)", UnknownSymbol),
        (_DEEP, RecursionError),
    ],
    "axioms:\n    q.\n": [
        ("fresh & r(X)", EmptyDomain),
        ("fresh(zz) & (", FormulaSyntaxError),
        (_DEEP, RecursionError),
    ],
    "constants:\naxioms:\n    q.\n": [
        ("fresh & r(X)", EmptyDomain),
        ("fresh(zz)", UnknownSymbol),
        (_DEEP, RecursionError),
    ],
}


@pytest.mark.parametrize("text", _REFUSALS)
def test_a_refused_statement_is_rolled_back(text):
    """A refused query or statement leaves no name and no atom node behind."""
    kb = loads(text)
    signature = kb.signature

    def declared():
        return (
            signature.predicates,
            signature.constants,
            list(signature._nodes.items()),
        )

    before = declared()
    for query, error in _REFUSALS[text]:
        with pytest.raises(error):
            kb.parse_query(query)
        assert declared() == before, query
        with pytest.raises(error):
            kb.ground_statements("q. " + query + ".")
        assert declared() == before, query


def test_a_query_over_its_limit_is_refused_by_its_count(monkeypatch):
    """|constants| ^ |variables| instances over the limit are refused,
    after the refusals of a bad statement, and the signature rolls back."""
    kb = loads("constants: a b c\naxioms:\n    p(a).\n")
    before = kb.signature.mark()
    refusals = [
        ("fresh(X, Y) & (", FormulaSyntaxError),
        ("fresh(X, Y) & p(X, Y)", ArityMismatch),
        ("fresh(X, Y) & p(zz)", UnknownSymbol),
        ("fresh(X, Y) & p(X)", lri.kb.MultipleGroundings),
    ]
    real = lri.kb.ground
    monkeypatch.setattr("lri.kb.ground", None)
    for query, error in refusals:
        with pytest.raises(error):
            kb.parse_query(query, 8)
        assert kb.signature.mark() == before, query
    with pytest.raises(lri.kb.MultipleGroundings) as refused:
        kb.parse_query(" p(X) ", 1)
    assert str(refused.value).startswith("'p(X)' grounds to 3 formulas; ")
    monkeypatch.setattr("lri.kb.ground", real)
    assert len(kb.parse_query("fresh(X, Y)", 9)) == 9
    assert texts(kb.parse_query("p(a) & -q", 1)) == ["(p(a) & -q)"]
    with pytest.raises(EmptyDomain):
        loads("axioms:\n    q.\n").parse_query("r(X, Y)", 1)


def test_a_query_is_read_in_one_lexer_pass(monkeypatch):
    passes = []
    real = lri.formula._tokenize

    def counted(text):
        passes.append(text)
        return real(text)

    monkeypatch.setattr(lri.formula, "_tokenize", counted)
    kb = loads("constants: a b\naxioms:\n    p(a).\n")
    passes.clear()
    assert texts(kb.parse_query("p(X) & -q")) == ["(p(a) & -q)", "(p(b) & -q)"]
    assert passes == ["p(X) & -q"]
    passes.clear()
    assert texts(kb.ground_statements("q. p(X).")) == ["q", "p(a)", "p(b)"]
    assert passes == ["q. p(X)."]


# ---------------------------------------------------------------------------
# round-trips


def test_dumps_round_trips_loaded_base():
    kb = loads(PERMIT_TEXT)
    text = dumps(kb.axioms, kb.hypotheses, kb.queries, kb.signature)
    again = loads(text)
    assert again.axioms == kb.axioms
    assert again.hypotheses == kb.hypotheses
    assert again.queries == kb.queries


def test_dump_output_is_canonical_fixed_point():
    kb = loads(PERMIT_TEXT)
    text = dumps(kb.axioms, kb.hypotheses, kb.queries, kb.signature)
    again = loads(text)
    assert dumps(again.axioms, again.hypotheses, again.queries,
                 again.signature) == text


def test_dump_emits_constants_line():
    kb = loads("constants: a b\naxioms:\n    p(X).\n")
    text = dumps(kb.axioms, kb.hypotheses, signature=kb.signature)
    assert text.splitlines()[0] == "constants: a b"
    assert loads(text).declared_constants == ("a", "b")


def test_save_and_load_domain(tmp_path):
    kb = loads(PERMIT_TEXT)
    domain = kb.domain()
    path = tmp_path / "permit.lri"
    save(str(path), domain, kb.queries)
    again = load(str(path))
    assert again.axioms == kb.axioms
    assert again.hypotheses == kb.hypotheses
    assert again.queries == kb.queries
    assert again.domain() == domain


def test_dump_domain_matches_dumps():
    kb = loads(PERMIT_TEXT)
    domain = kb.domain()
    assert dump_domain(domain, kb.queries) == dumps(
        kb.axioms, kb.hypotheses, kb.queries, kb.signature
    )


def test_domain_passes_decision_budget():
    kb = loads(PERMIT_TEXT)
    domain = kb.domain(max_decisions=123)
    assert domain.max_decisions == 123


# ---------------------------------------------------------------------------
# Shared atoms and the cost of loading
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("path", RULE_FILES, ids=lambda p: p.name)
def test_equal_atoms_are_the_signatures_one_node(path):
    base = load(str(path))
    for formula in base.axioms + base.hypotheses + base.queries:
        for node in walk(formula):
            if isinstance(node, Atom):
                assert base.signature.atom(node.predicate, node.args) is node


def _atoms_left_first(formula):
    if isinstance(formula, Atom):
        return [formula]
    if isinstance(formula, Not):
        return _atoms_left_first(formula.operand)
    return _atoms_left_first(formula.left) + _atoms_left_first(formula.right)


@pytest.mark.parametrize("path", RULE_FILES, ids=lambda p: p.name)
def test_rule_atoms_are_registered_in_stated_order_left_first(path):
    base = load(str(path))
    domain = base.domain()
    expected = tuple(dict.fromkeys(
        atom
        for rule in domain.axioms + domain.hypotheses
        for atom in _atoms_left_first(rule)
    ))
    names = domain._builder.store.names
    assert tuple(names[: len(expected)]) == expected
    assert names[len(expected):] == [
        f"${n}" for n in range(len(names) - len(expected))
    ]


def test_a_ground_base_loads_and_builds_in_one_walk_per_rule(monkeypatch):
    calls: Counter = Counter()
    for name in ("walk", "variables_of"):
        real = getattr(lri.formula, name)

        def counted(formula, _real=real, _name=name):
            calls[_name] += 1
            return _real(formula)

        monkeypatch.setattr(lri.formula, name, counted)
    text = "axioms:\n" + "".join(f"  p{i} & e{i}.\n" for i in range(5))
    text += "hypotheses:\n" + "".join(
        f"  p{i} -> q{i}.\n  e{i} -> -q{i}.\n" for i in range(5)
    )
    text += "queries:\n  q0.\n  -q1 | q2.\n"
    domain = loads(text).domain()
    assert len(domain.axioms + domain.hypotheses) == 15
    assert calls["variables_of"] == 0
    assert 0 < calls["walk"] <= 15
