"""Domains made of several atom-disjoint islands, checked against the oracle.

Each corpus concatenates a few seeded random domains whose atoms were renamed
apart, then shuffles the hypotheses so that islands interleave in the index
order.  The engine answers per island; the oracle sweeps the whole domain.
"""

import itertools
import random

import pytest

import lri.engine
from bruteforce import DomainOracle, random_formula, selection_mask
from bruteforce import glued_corpus as _corpus
from bruteforce import reference_depth
from conftest import context_pairs
from families import paired_exceptions
from lri import (
    And,
    Atom,
    Formula,
    Implies,
    Not,
    Or,
    ProbeUniverse,
    ResourceLimit,
    check_variety_depth,
    discretize,
    in_reasonable_theory,
    is_compatible,
    justifications,
    maximal_positions,
    new_domain,
    partition_graph,
    print_formula,
    reasonably_infers,
    upper_level,
    variety_of,
)

SEEDS = range(30)


def _queries(rng: random.Random, island_atoms) -> list[Formula]:
    """Queries inside one island, across two, over fresh atoms, tautologies."""
    first, second = island_atoms[0], island_atoms[1]
    fresh = [Atom("fresh0"), Atom("fresh1")]
    out = [
        random_formula(rng, first, depth=2),
        random_formula(rng, second, depth=2),
        Or(random_formula(rng, first, 1), random_formula(rng, second, 1)),
        And(random_formula(rng, first, 1), random_formula(rng, second, 1)),
        Implies(random_formula(rng, second, 1), random_formula(rng, first, 1)),
        fresh[0],
        Or(fresh[0], Not(fresh[1])),
        Or(first[0], Not(first[0])),
        Implies(fresh[1], fresh[1]),
        Or(And(first[0], second[0]), Not(And(first[0], second[0]))),
    ]
    return list(dict.fromkeys(out))


@pytest.mark.parametrize("seed", SEEDS)
def test_multi_island_answers_match_oracle(seed):
    axioms, hypotheses, island_atoms, rng = _corpus(seed)
    queries = _queries(rng, island_atoms)
    domain = new_domain(axioms, hypotheses)
    oracle = DomainOracle(axioms, hypotheses, extra=queries)

    positions = [sorted(p.chosen) for p in maximal_positions(domain)]
    expected_positions = [sorted(s) for s in oracle.maximal_positions()]
    assert positions == expected_positions

    for phi in queries:
        found = [sorted(j.position.chosen) for j in justifications(domain, phi)]
        assert found == oracle.ordered_justifications(phi), print_formula(phi)

        witness = reasonably_infers(domain, phi)
        first = next(
            (
                p for p in expected_positions
                if oracle.entails(selection_mask(p), phi)
            ),
            None,
        )
        assert oracle.reasonable(phi) is (witness is not None)
        assert (sorted(witness.chosen) if witness else None) == first

    picked = queries[:4]
    assert context_pairs(domain, picked) == oracle.contexts(picked)


@pytest.mark.parametrize("seed", SEEDS)
def test_contexts_of_queries_across_islands_match_oracle(seed):
    """Six hypotheses, which the shuffle spreads over the islands, a query
    across two islands and one inside the last, asked together."""
    axioms, hypotheses, island_atoms, rng = _corpus(seed)
    first, second, last = island_atoms[0], island_atoms[1], island_atoms[-1]
    picked = list(dict.fromkeys(hypotheses[:6] + [
        Or(random_formula(rng, first, 1), random_formula(rng, second, 1)),
        random_formula(rng, last, 2),
    ]))
    domain = new_domain(axioms, hypotheses)
    oracle = DomainOracle(axioms, hypotheses, extra=picked)
    assert context_pairs(domain, picked) == oracle.contexts(picked)


def test_partitions_are_the_islands():
    """`partition_graph` of a domain's rules gives one node per island.

    Each node holds one island's axioms and hypotheses, in island order,
    and no two nodes share an atom, so a partition graph has no edges.
    """
    for seed in range(100):
        axioms, hypotheses, _, _ = _corpus(seed)
        domain = new_domain(axioms, hypotheses)
        nodes = partition_graph(domain.axioms + domain.hypotheses)
        index = {h: i for i, h in enumerate(domain.hypotheses)}
        assert [
            (
                sum(f not in index for f in node.formulas),
                tuple(index[f] for f in node.formulas if f in index),
            )
            for node in nodes
        ] == [
            (len(island.axiom_tops), island.hypotheses)
            for island in domain._islands
        ], seed
        for left, right in itertools.combinations(nodes, 2):
            assert not set(left.atoms) & set(right.atoms), seed


def test_budget_is_summed_over_islands():
    # Each `a_i | b_i` island needs one decision to satisfy.
    hypotheses = [Or(Atom(f"a{i}"), Atom(f"b{i}")) for i in range(2)]
    assert new_domain([], hypotheses, max_decisions=1).consistent(
        frozenset({0})
    )
    assert new_domain([], hypotheses, max_decisions=1).consistent(
        frozenset({1})
    )
    with pytest.raises(ResourceLimit, match="exceeded 1 decisions"):
        new_domain([], hypotheses, max_decisions=1).consistent(
            frozenset({0, 1})
        )
    with pytest.raises(ResourceLimit, match="exceeded 1 decisions"):
        new_domain(hypotheses, [], max_decisions=1)


def test_islands_without_axioms_need_no_search_at_construction(solves):
    p, q, r, s = (Atom(name) for name in "pqrs")
    domain = new_domain((), [p, q, Or(r, s)])
    assert solves == []
    assert [sorted(m.chosen) for m in maximal_positions(domain)] == [[0, 1, 2]]


def test_generated_multi_island_base_hits_small_budget():
    axioms, hypotheses, _, _ = _corpus(9)
    with pytest.raises(ResourceLimit, match="exceeded 3 decisions"):
        maximal_positions(new_domain(axioms, hypotheses, max_decisions=3))
    assert maximal_positions(new_domain(axioms, hypotheses, max_decisions=1000))


def test_query_definitions_do_not_pile_up(permit_domain, solves):
    probe = Atom("perm")

    def check_size() -> int:
        solves.clear()
        permit_domain.selection_entails(frozenset({0}), probe)
        assert len(solves) == 1
        return len(solves[0].clauses)

    before = check_size()
    rng = random.Random(5)
    atoms = [Atom("act"), Atom("perm"), Atom("ex")]
    queries: set[Formula] = set()
    while len(queries) < 300:
        queries.add(random_formula(rng, atoms, depth=4))
    for phi in sorted(queries, key=print_formula):
        reasonably_infers(permit_domain, phi)
    assert check_size() == before


def test_interleaved_query_groups_join_in_the_documented_order():
    """Island i's group covers `w_i` and then `x_i | y_i` two ways.

    The groups interleave in the query order, so the joined contexts
    come out in the documented order only once they are sorted.
    """
    axioms, hypotheses = [], []
    for i in range(2):
        w, x, y = (Atom(f"{name}{i}") for name in "wxy")
        axioms.append(And(Not(And(x, y)), Or(w, Not(w))))
        hypotheses += [w, x, y]
    queries = [
        Atom("w0"), Atom("w1"),
        Or(Atom("x1"), Atom("y1")), Or(Atom("x0"), Atom("y0")),
    ]
    domain = new_domain(axioms, hypotheses)
    oracle = DomainOracle(axioms, hypotheses, extra=queries)
    expected = oracle.contexts(queries)
    assert len(expected) == 4
    assert context_pairs(domain, queries) == expected


def test_contexts_cost_grows_with_the_islands_not_their_product(monkeypatch):
    """`q_i` and `-q_i` for 6 islands: each pair is settled on its island.

    Island i's context covers `q_i` by hypothesis 2i or `-q_i` by 2i + 1,
    `q_i` first, so the 64 contexts are the product of the islands' two.
    """
    axioms, hypotheses, _, _, queries, expected = paired_exceptions(6)
    domain = new_domain(axioms, hypotheses)
    calls: list[frozenset[int]] = []
    real_consistent = lri.engine.DomainOfRules.consistent

    def counting_consistent(self, chosen):
        calls.append(chosen)
        return real_consistent(self, chosen)

    monkeypatch.setattr(
        lri.engine.DomainOfRules, "consistent", counting_consistent
    )
    assert len(expected) == 64
    assert context_pairs(domain, queries) == expected
    assert len(calls) < 200


def _variety_bases():
    for seed in SEEDS:
        axioms, hypotheses, island_atoms, rng = _corpus(seed)
        atoms = [a for group in island_atoms for a in group]
        probe = hypotheses[:2] + [
            random_formula(rng, atoms, depth=2) for _ in range(6)
        ]
        yield f"corpus {seed}", axioms, hypotheses, probe
    for k in (4, 8):
        axioms, hypotheses, *_ = paired_exceptions(k)
        q = [Atom(f"q{i}") for i in range(k)]
        probe = [
            q[0], Not(q[1]), And(q[0], q[1]), Or(q[2], Not(q[3])),
            And(q[0], Not(q[0])), Atom("fresh"), Or(Atom("p0"), q[k - 1]),
        ]
        yield f"paired {k}", axioms, hypotheses, probe


def test_domain_upper_level_searches_no_more_than_reasonable_inference(
    solves,
):
    """The upper level of a domain's variety asks once per island part.

    Each probe formula is asked of every position, yet the domain searches
    once per distinct part of a position in the islands the formula
    touches, up to the first entailing one, which is no more than
    `in_reasonable_theory` searches for the same answer.  Both domains are
    swept before counting.
    """
    for name, axioms, hypotheses, probe in _variety_bases():
        by_positions = new_domain(axioms, hypotheses)
        v = variety_of(by_positions)
        by_inference = new_domain(axioms, hypotheses)
        maximal_positions(by_inference)
        solves.clear()
        level = upper_level(v, probe)
        asked_level = len(solves)
        solves.clear()
        expected = tuple(
            phi for phi in ProbeUniverse(probe)
            if in_reasonable_theory(by_inference, phi)
        )
        assert level == expected, name
        assert asked_level <= len(solves), (name, asked_level, len(solves))


def test_a_domains_variety_reads_no_position_formulas(monkeypatch):
    """A domain's variety holds its positions' selections, not their
    formulas: building it, discretizing it and asking it every variety
    question reads no `Position.formulas`, and its components' axioms are
    still their positions' formulas.  Checked on paired exceptions, k = 3.
    """
    axioms, hypotheses, *_ = paired_exceptions(3)
    domain = new_domain(axioms, hypotheses)
    formulas = [p.formulas for p in maximal_positions(domain)]

    def unread(position):
        raise AssertionError("Position.formulas was read")

    monkeypatch.setattr(lri.engine.Position, "formulas", property(unread))
    v = variety_of(domain)
    d = discretize(v)
    q0, q1 = Atom("q0"), Atom("q1")
    probe = [q0, Not(q1), Atom("r"), Or(q0, q1)]
    assert upper_level(d, probe) == (q0, Not(q1), Or(q0, q1))
    # Distinct components differ in some island, whose two hypotheses clash.
    assert is_compatible(v, [3]) and not is_compatible(v, [0, 1])
    # Components 2 and 4 select hypotheses (0, 3, 4) and (1, 2, 4): each
    # holds q0 | q1, and their common hypothesis 4 does not.
    depth = check_variety_depth(d, 2, probe)
    assert depth == reference_depth(d, 2, probe)
    assert (depth.failing_components, depth.counterexample) == (
        (2, 4), Or(q0, q1)
    )
    assert [v.renamed_axioms(i) for i in range(len(v))] == formulas


@pytest.mark.parametrize("seed", SEEDS)
def test_positions_are_counted_and_listed_as_the_oracle_lists_them(seed):
    """`maximal_selections` lists the oracle's positions as ascending index
    tuples, in its order, and `position_count` is their number."""
    axioms, hypotheses, _, _ = _corpus(seed)
    domain = new_domain(axioms, hypotheses)
    oracle = DomainOracle(axioms, hypotheses)
    expected = [tuple(sorted(s)) for s in oracle.maximal_positions()]
    assert lri.engine.maximal_selections(domain) == expected
    assert lri.engine.position_count(domain) == len(expected)


def test_a_domains_variety_builds_no_position(monkeypatch):
    """`variety_of` holds the join's index tuples; no `Position` is made."""
    axioms, hypotheses, positions, *_ = paired_exceptions(4)
    domain = new_domain(axioms, hypotheses)
    real = lri.engine._proved

    def proved(cls, *fields):
        assert cls is not lri.engine.Position, "a Position was built"
        return real(cls, *fields)

    monkeypatch.setattr(lri.engine, "_proved", proved)
    v = variety_of(domain)
    assert v._selections == tuple(map(tuple, positions))
