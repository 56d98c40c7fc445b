"""Reasonable inference: positions, justifications, and contexts."""

import itertools
import random
from pathlib import Path

import pytest

from lri import (
    Atom,
    AxiomHypothesisOverlap,
    Calculus,
    Context,
    DomainOfRules,
    DuplicateHypothesis,
    InconsistentAxioms,
    Justification,
    MixedDomains,
    Not,
    Position,
    ProbeUniverse,
    Signature,
    in_reasonable_theory,
    is_consistent_context,
    justifications,
    maximal_consistent_contexts,
    maximal_positions,
    new_domain,
    parse_formula,
    print_formula,
    reasonably_infers,
)
from lri.formula import _Node, walk
from lri.kb import load

from bruteforce import DomainOracle, random_domain, random_formula
from conftest import build_domain, texts

PAIRED = Path(__file__).resolve().parent / "data" / "golden" / "paired_exceptions.lri"


def _index_sets(positions):
    return [sorted(p.chosen) for p in positions]


def _oracle_pair(rng, **kwargs):
    axioms, hypotheses = random_domain(rng, **kwargs)
    domain = new_domain(axioms, hypotheses)
    return axioms, hypotheses, domain, DomainOracle(axioms, hypotheses)


# ---------------------------------------------------------------------------
# construction


def test_duplicate_hypotheses_rejected():
    with pytest.raises(DuplicateHypothesis):
        build_domain([], ["p", "q", "p"])


def test_axiom_repeated_as_hypothesis_rejected():
    with pytest.raises(AxiomHypothesisOverlap):
        build_domain(["p -> q"], ["p -> q", "r"])


def test_inconsistent_axioms_rejected():
    with pytest.raises(InconsistentAxioms):
        build_domain(["p", "-p"], ["q"])


def test_duplicate_axioms_collapse():
    domain = build_domain(["p", "p"], ["q"])
    assert len(domain.axioms) == 1
    domain = build_domain(["p", "q", "p"], ["r"])
    assert texts(domain.axioms) == ["p", "q"]


def test_a_built_domain_hashes_no_rule(monkeypatch):
    """A domain's hash is taken once, when it is built: hashing it again
    asks none of its 12 rules for theirs."""
    domain = load(str(PAIRED)).domain()
    hashed = []
    real = _Node.__hash__

    def counted(node):
        hashed.append(node)
        return real(node)

    monkeypatch.setattr(_Node, "__hash__", counted)
    assert hash(domain) == hash(domain)
    assert hashed == []


def test_two_loads_of_a_file_give_equal_domains_with_equal_hashes():
    first, second = load(str(PAIRED)).domain(), load(str(PAIRED)).domain()
    assert first is not second
    assert first == second and hash(first) == hash(second)


def test_non_ground_rules_rejected():
    sig = Signature(constants=("alice",))
    open_formula = parse_formula("acts(X)", sig)
    with pytest.raises(ValueError):
        new_domain([open_formula], [], sig)


def test_every_groundness_check_names_its_role(permit_domain):
    sig = permit_domain.signature
    schema = parse_formula("acts(X)", sig)
    position = maximal_positions(permit_domain)[0]
    checks = [
        ("axiom", lambda: new_domain([schema], [], sig)),
        ("hypothesis", lambda: new_domain([], [schema], sig)),
        ("conclusion", lambda: reasonably_infers(permit_domain, schema)),
        ("conclusion", lambda: justifications(permit_domain, schema)),
        ("conclusion", lambda: position.entails(schema)),
        ("query", lambda: maximal_consistent_contexts(permit_domain, [schema])),
        ("calculus axiom", lambda: Calculus([schema], sig)),
        ("probe formula", lambda: ProbeUniverse([schema])),
    ]
    for role, check in checks:
        with pytest.raises(ValueError, match=rf"^{role} not ground: acts\(X\)$"):
            check()


def test_selection_entails_refuses_a_schema(permit_domain):
    schema = parse_formula("acts(X)", permit_domain.signature)
    with pytest.raises(ValueError, match=r"^conclusion not ground: acts\(X\)$"):
        permit_domain.selection_entails(frozenset({0}), schema)


def test_empty_hypothesis_list_allowed():
    domain = build_domain(["p"], [])
    assert _index_sets(maximal_positions(domain)) == [[]]
    assert reasonably_infers(domain, parse_formula("p", domain.signature))


# ---------------------------------------------------------------------------
# the permission domain, values frozen by hand


def test_permit_maximal_positions(permit_domain):
    assert _index_sets(maximal_positions(permit_domain)) == [
        [0, 1],
        [0, 2],
        [1, 2],
    ]


@pytest.mark.parametrize(
    "query, expected",
    [
        ("perm", True),
        ("-perm", True),
        ("perm & -perm", False),
        ("act", True),
        ("ex", True),
        ("-act", False),
    ],
)
def test_permit_inferences(permit_domain, query, expected):
    formula = parse_formula(query, permit_domain.signature)
    witness = reasonably_infers(permit_domain, formula)
    assert (witness is not None) is expected
    if witness is not None:
        assert witness.entails(formula)
    assert in_reasonable_theory(permit_domain, formula) is expected


@pytest.mark.parametrize(
    "query, expected_sets",
    [
        ("perm", [[0]]),
        ("-perm", [[1, 2]]),
        ("act", [[]]),
        ("perm & -perm", []),
    ],
)
def test_permit_justifications(permit_domain, query, expected_sets):
    formula = parse_formula(query, permit_domain.signature)
    found = justifications(permit_domain, formula)
    assert [sorted(j.position.chosen) for j in found] == expected_sets


def test_permit_conflicting_queries_split_contexts(permit_domain):
    queries = [
        parse_formula("perm", permit_domain.signature),
        parse_formula("-perm", permit_domain.signature),
    ]
    contexts = maximal_consistent_contexts(permit_domain, queries)
    shapes = [
        sorted(
            (print_formula(conclusion), sorted(just.position.chosen))
            for conclusion, just in ctx.pairs
        )
        for ctx in contexts
    ]
    assert shapes == [
        [("perm", [0])],
        [("-perm", [1, 2])],
    ]
    for ctx in contexts:
        assert is_consistent_context(ctx)


def test_permit_compatible_queries_share_context(permit_domain):
    queries = [
        parse_formula("perm", permit_domain.signature),
        parse_formula("ex", permit_domain.signature),
    ]
    contexts = maximal_consistent_contexts(permit_domain, queries)
    assert len(contexts) == 1
    assert len(contexts[0].pairs) == 2


# ---------------------------------------------------------------------------
# positions and justifications as objects


def test_position_validates_indices(permit_domain):
    with pytest.raises(IndexError):
        Position(permit_domain, frozenset({7}))


def test_position_validates_consistency(permit_domain):
    with pytest.raises(ValueError):
        Position(permit_domain, frozenset({0, 1, 2}))


def test_position_formulas_include_axioms(permit_domain):
    position = Position(permit_domain, frozenset({2, 0}))
    assert texts(position.formulas) == [
        "act",
        "(act -> perm)",
        "(ex -> -perm)",
    ]


def test_justification_requires_entailment(permit_domain):
    perm = parse_formula("perm", permit_domain.signature)
    with pytest.raises(ValueError):
        Justification(perm, Position(permit_domain, frozenset({1})))
    good = Justification(perm, Position(permit_domain, frozenset({0})))
    assert good.position.entails(perm)


def test_contexts_refuse_mixed_domains(permit_domain):
    other = build_domain(["act"], ["act -> perm"])
    perm = parse_formula("perm", permit_domain.signature)
    just_a = Justification(perm, Position(permit_domain, frozenset({0})))
    just_b = Justification(perm, Position(other, frozenset({0})))
    context = Context(frozenset({(perm, just_a), (perm, just_b)}))
    with pytest.raises(MixedDomains):
        is_consistent_context(context)


def test_context_query_cap(permit_domain):
    sig = permit_domain.signature
    queries = [parse_formula(f"q{i}", sig) for i in range(13)]
    with pytest.raises(ValueError):
        maximal_consistent_contexts(permit_domain, queries)


def test_context_duplicate_queries_rejected(permit_domain):
    perm = parse_formula("perm", permit_domain.signature)
    with pytest.raises(ValueError):
        maximal_consistent_contexts(permit_domain, [perm, perm])


def test_a_long_lived_domain_keeps_its_size(permit_domain):
    """A domain keeps the clause definitions of its latest question only.

    After each question it holds as many definitions as a new domain asked
    that question alone, and it has numbered and named the same variables:
    the rules' and that question's own.
    """
    names = permit_domain._builder.store.names
    atoms = [Atom(name) for name in ("act", "perm", "ex")]
    rng = random.Random(8)
    asked: set = set()
    while len(asked) < 1000:
        phi = random_formula(rng, atoms, depth=5)
        if phi in asked:
            continue
        asked.add(phi)
        reasonably_infers(permit_domain, phi)
        alone = new_domain(permit_domain.axioms, permit_domain.hypotheses)
        rules = len(alone._builder._defs)
        reasonably_infers(alone, phi)
        own = len(alone._builder._defs) - rules
        assert len(permit_domain._builder._defs) == rules + own
        assert names == alone._builder.store.names


def test_a_long_lived_store_holds_the_rules_and_one_question(permit_domain):
    """The clause store keeps the rules' clauses and the latest question's.

    After each question the store holds exactly the clauses it held when
    the domain was built plus the clauses a new domain adds for that
    question alone, and its occurrence lists list those clauses only.
    """
    store = permit_domain._builder.store
    rules = len(store.clauses)
    atoms = [Atom(name) for name in ("act", "perm", "ex")]
    rng = random.Random(9)
    asked: set = set()
    while len(asked) < 1000:
        phi = random_formula(rng, atoms, depth=5)
        if phi in asked:
            continue
        asked.add(phi)
        reasonably_infers(permit_domain, phi)
        alone = new_domain(permit_domain.axioms, permit_domain.hypotheses)
        reasonably_infers(alone, phi)
        own = len(alone._builder.store.clauses) - rules
        assert len(store.clauses) == rules + own
        listed = sum(map(len, store.occurrences.values()))
        assert listed == sum(map(len, store.clauses))


def test_entailment_searches_once_per_part_of_the_latest_conclusion(solves):
    """Refutations are kept for the latest conclusion, by touched part.

    Two islands, {p, p -> q} and {r | s, -r, -s}: a conclusion over q
    depends only on the selection's part in the first island (and on the
    second part's consistency, known from the sweep), so the four parts of
    sixteen selections cost four searches, asking again costs none, and
    another conclusion in between drops what was kept.
    """
    domain = build_domain(["r | s"], ["p", "p -> q", "-r", "-s"])
    maximal_positions(domain)
    solves.clear()
    q = Atom("q")
    selections = [
        frozenset(s)
        for size in range(5)
        for s in itertools.combinations(range(4), size)
    ]
    answers = [domain.selection_entails(s, q) for s in selections]
    assert answers == [{0, 1} <= s or {2, 3} <= s for s in selections]
    assert len(solves) == 4
    assert len(domain._countered) == 4
    assert [domain.selection_entails(s, q) for s in selections] == answers
    assert len(solves) == 4
    assert not domain.selection_entails(frozenset({3}), Not(q))
    assert len(domain._countered) == 1
    assert [domain.selection_entails(s, q) for s in selections] == answers
    assert len(solves) == 4 + 1 + 4


def test_a_long_lived_domain_keeps_cones_of_the_rules_and_one_question(
    permit_domain,
):
    """Cones are kept for the rules' variables and the latest question's.

    Many questions mention an atom no rule or earlier question mentions, some
    as their whole conclusion, so the variables dropped with a question
    include atoms as well as defining atoms whose numbers the next question
    reuses.
    """
    builder = permit_domain._builder
    names = builder.store.names
    rule_vars = {abs(lit) for lit in builder._literal.values()}
    translated = set(builder._literal)
    named = len(names)
    assert rule_vars == set(range(1, named + 1))
    rules = [Atom(name) for name in ("act", "perm", "ex")]
    rng = random.Random(10)
    asked: set = set()
    while len(asked) < 1000:
        fresh = Atom(f"z{len(asked)}")
        if len(asked) % 4:
            phi = random_formula(rng, rules + [fresh], depth=4)
        else:
            phi = rng.choice([fresh, Not(fresh)])
        if phi in asked:
            continue
        asked.add(phi)
        reasonably_infers(permit_domain, phi)
        # one variable per atom and connective the rules did not translate
        own = {n for n in walk(phi) if not isinstance(n, Not)} - translated
        assert len(names) == named + len(own)
        question_vars = set(range(named + 1, len(names) + 1))
        assert set(builder._cones) <= rule_vars | question_vars
        assert abs(builder._literal[phi]) in builder._cones


# ---------------------------------------------------------------------------
# laws on random domains (small samples; the acceptance suite scales up)


def test_maximal_positions_form_antichain():
    rng = random.Random(11)
    for _ in range(40):
        _, _, domain, _ = _oracle_pair(rng)
        found = [frozenset(p.chosen) for p in maximal_positions(domain)]
        for a in found:
            for b in found:
                assert a == b or not a <= b


def test_every_position_extends_to_a_maximal_one():
    rng = random.Random(12)
    for _ in range(25):
        _, hypotheses, domain, oracle = _oracle_pair(rng)
        maximal = [frozenset(p.chosen) for p in maximal_positions(domain)]
        n = len(hypotheses)
        for mask in oracle.consistent_selections:
            selection = frozenset(i for i in range(n) if mask >> i & 1)
            assert any(selection <= m for m in maximal)


def test_positions_against_oracle():
    """A domain built without a signature makes its own and answers alike."""
    rng = random.Random(13)
    for _ in range(40):
        axioms, hypotheses, domain, oracle = _oracle_pair(rng)
        bare = DomainOfRules(axioms, hypotheses)
        assert bare.signature is not domain.signature
        for built in (domain, bare):
            assert _index_sets(maximal_positions(built)) == [
                sorted(fs) for fs in oracle.maximal_positions()
            ]


def test_inference_never_explodes():
    rng = random.Random(14)
    for _ in range(30):
        _, _, domain, _ = _oracle_pair(rng, overall="inconsistent")
        probe = parse_formula("zz9 & -zz9", domain.signature)
        assert not reasonably_infers(domain, probe)


def test_inference_conservative_when_consistent():
    rng = random.Random(15)
    for _ in range(30):
        _, hypotheses, domain, _ = _oracle_pair(rng, overall="consistent")
        # with A and H jointly consistent the single maximal position is
        # all of H, so reasonable inference collapses to entailment
        assert _index_sets(maximal_positions(domain)) == [
            list(range(len(hypotheses)))
        ]


def test_justifications_minimal_and_entailing():
    rng = random.Random(16)
    samples = 0
    while samples < 25:
        _, hypotheses, domain, oracle = _oracle_pair(rng)
        query = hypotheses[rng.randrange(len(hypotheses))]
        found = justifications(domain, query)
        expected = oracle.ordered_justifications(query)
        assert [sorted(j.position.chosen) for j in found] == expected
        for j in found:
            assert j.position.entails(query)
        samples += 1


def test_proved_answers_pass_the_public_checks():
    """Answers made without asking again equal the checked constructors'."""
    rng = random.Random(17)
    for _ in range(25):
        _, hypotheses, domain, _ = _oracle_pair(rng)
        query = hypotheses[rng.randrange(len(hypotheses))]
        answers = maximal_positions(domain)
        witness = reasonably_infers(domain, query)
        if witness is not None:
            answers.append(witness)
        for position in answers:
            assert Position(domain, position.chosen) == position
        for j in justifications(domain, query):
            checked = Position(domain, j.position.chosen)
            assert Justification(query, checked) == j


def test_tautology_justified_by_empty_position(permit_domain):
    taut = parse_formula("act | -act", permit_domain.signature)
    found = justifications(permit_domain, taut)
    assert [sorted(j.position.chosen) for j in found] == [[]]


def test_fresh_atom_never_inferred(permit_domain):
    fresh = parse_formula("unseen_before", permit_domain.signature)
    assert not reasonably_infers(permit_domain, fresh)
    assert justifications(permit_domain, fresh) == []


def test_empty_context_is_vacuously_consistent():
    assert is_consistent_context(Context(frozenset()))


def test_context_union_is_consistent():
    rng = random.Random(17)
    checked = 0
    while checked < 15:
        _, hypotheses, domain, _ = _oracle_pair(rng, max_hypotheses=5)
        if len(hypotheses) < 2:
            continue
        queries = hypotheses[:2]
        contexts = maximal_consistent_contexts(domain, queries)
        for ctx in contexts:
            assert is_consistent_context(ctx)
        checked += 1
