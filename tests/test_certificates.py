"""Certificates for the engine's answers, at sizes no truth table reaches.

Positions.  A list of consistent selections is exactly the maximal
positions of a base when

- no selection on it stays consistent with one more hypothesis added, and
- every minimal hitting set of their complements is inconsistent.

The first makes each listed selection maximal.  The second makes the list
complete: a consistent selection inside no listed one meets every
complement, so it contains a minimal hitting set of them, and that set
would be consistent too (Reiter, *AI* 1987; Gunopulos et al., *ACM TODS*
2003).

Justifications.  Given the maximal positions, a list of selections is
exactly the justifications of a conclusion when

- each one is consistent and entails the conclusion,
- none still entails it with one hypothesis removed, and
- for every position P and every minimal hitting set T of the listed
  selections inside P, P minus T does not entail the conclusion.

A justification J missing from the list lies inside some position P and
contains no listed selection, so P minus J meets every listed selection
inside P, and some minimal hitting set T of them lies in P minus J.  Then
P minus T holds J and entails the conclusion.

Contexts.  The pairs are every (query, justification) pair, and a context
is a set of them.  A list of contexts is exactly the maximal consistent
contexts when

- each one holds at most one pair per query, the union of its selections
  is consistent, and no pair of a query it leaves out can join it with the
  union staying consistent, and
- every minimal hitting set of their complements in the pairs holds two
  pairs of one query or has an inconsistent union.

This is the positions argument over the pairs: a subset of a valid context
is valid.

Hitting sets come from Berge's algorithm below.  The certificates ask only
`DomainOfRules.consistent` and `selection_entails`, of a domain built
afresh, so no answer comes from the enumeration they check.
"""

from __future__ import annotations

import random
from functools import cache

import pytest

from bruteforce import make_atoms, random_formula
from conftest import context_pairs
from families import exclusions
from lri import DomainOfRules, Formula, Or, justifications, maximal_positions


def minimal_hitting_sets(sets) -> list[frozenset[int]]:
    """The minimal sets meeting every one of the given sets (Berge, 1989).

    The sets are taken one at a time: a hitting set of the earlier ones
    that misses the next grows by each of its elements, and the
    non-minimal results are dropped.  An empty set in the input leaves no
    hitting set; no sets leave the empty one.
    """
    hitting = [frozenset()]
    for current in sets:
        grown = set()
        for chosen in hitting:
            if chosen & current:
                grown.add(chosen)
            else:
                grown.update(chosen | {item} for item in current)
        hitting = [h for h in grown if not any(o < h for o in grown)]
    return sorted(hitting, key=sorted)


def certifies_positions(
    axioms: list[Formula],
    hypotheses: list[Formula],
    selections: list[frozenset[int]],
) -> bool:
    """Whether the selections are exactly the base's maximal positions."""
    domain = DomainOfRules(axioms, hypotheses)
    everything = frozenset(range(len(hypotheses)))
    if len(set(selections)) != len(selections):
        return False
    for chosen in selections:
        if not domain.consistent(chosen) or any(
            domain.consistent(chosen | {extra}) for extra in everything - chosen
        ):
            return False
    complements = [everything - chosen for chosen in selections]
    return not any(map(domain.consistent, minimal_hitting_sets(complements)))


def certifies_justifications(
    axioms: list[Formula],
    hypotheses: list[Formula],
    positions: list[frozenset[int]],
    conclusion: Formula,
    selections: list[frozenset[int]],
) -> bool:
    """Whether the selections are exactly the conclusion's justifications.

    The positions must be the base's maximal positions, as
    `certifies_positions` checks.
    """
    domain = DomainOfRules(axioms, hypotheses)

    def entails(chosen: frozenset[int]) -> bool:
        return domain.selection_entails(chosen, conclusion)

    if len(set(selections)) != len(selections):
        return False
    for chosen in selections:
        if not (domain.consistent(chosen) and entails(chosen)) or any(
            entails(chosen - {i}) for i in chosen
        ):
            return False
    return not any(
        entails(position - hitting)
        for position in positions
        for hitting in minimal_hitting_sets(
            [chosen for chosen in selections if chosen <= position]
        )
    )


def certifies_contexts(
    axioms: list[Formula],
    hypotheses: list[Formula],
    lists: list[list[frozenset[int]]],
    contexts: list[frozenset[int]],
) -> bool:
    """Whether the contexts are exactly the maximal consistent contexts.

    `lists` holds each query's justifications.  The pairs are numbered
    query by query in that order, and a context is the set of its pairs'
    numbers.
    """
    domain = DomainOfRules(axioms, hypotheses)
    pairs = [(k, chosen) for k, listed in enumerate(lists) for chosen in listed]

    def valid(held: frozenset[int]) -> bool:
        queries = [pairs[p][0] for p in held]
        return len(set(queries)) == len(queries) and domain.consistent(
            frozenset().union(*(pairs[p][1] for p in held))
        )

    if len(set(contexts)) != len(contexts):
        return False
    for held in contexts:
        covered = {pairs[p][0] for p in held}
        if not valid(held) or any(
            valid(held | {p}) for p, (k, _) in enumerate(pairs)
            if k not in covered
        ):
            return False
    everything = frozenset(range(len(pairs)))
    complements = [everything - held for held in contexts]
    return not any(map(valid, minimal_hitting_sets(complements)))


def _random_hypotheses(rng: random.Random, count: int) -> list[Formula]:
    """`count` distinct random formulas over twelve atoms."""
    atoms = make_atoms(12)
    hypotheses: list[Formula] = []
    while len(hypotheses) < count:
        candidate = random_formula(rng, atoms, depth=2)
        if candidate not in hypotheses:
            hypotheses.append(candidate)
    return hypotheses


def _engine_positions(domain: DomainOfRules) -> list[frozenset[int]]:
    return [p.chosen for p in maximal_positions(domain)]


def _engine_justifications(
    domain: DomainOfRules, conclusion: Formula
) -> list[frozenset[int]]:
    return [j.position.chosen for j in justifications(domain, conclusion)]


def _disjunction(rng: random.Random, hypotheses) -> Formula:
    """The disjunction of two hypotheses drawn at random.

    Each hypothesis that is consistent on its own justifies it, so the
    conclusion has justifications to drop.
    """
    return Or(*rng.sample(list(hypotheses), 2))


@cache
def _random_case(seed: int) -> tuple[DomainOfRules, list[frozenset[int]]]:
    """Fourteen distinct random hypotheses over twelve atoms, no axioms.

    The engine's domain of them comes with its maximal positions, found
    once per seed.
    """
    domain = DomainOfRules([], _random_hypotheses(random.Random(seed), 14))
    return domain, _engine_positions(domain)


@cache
def _random_justifications(seed: int) -> tuple[Formula, list[frozenset[int]]]:
    """A seeded conclusion of the seed's case and the engine's justifications.

    They are asked of the domain that found the positions, so its islands
    are enumerated once.
    """
    domain, _ = _random_case(seed)
    conclusion = _disjunction(random.Random(seed), domain.hypotheses)
    return conclusion, _engine_justifications(domain, conclusion)


@cache
def _path_case() -> tuple[DomainOfRules, list[frozenset[int]]]:
    """The path of exclusions at n = 14, with the engine's positions."""
    axioms, hypotheses, *_ = exclusions(14)
    domain = DomainOfRules(axioms, hypotheses)
    return domain, _engine_positions(domain)


@cache
def _context_case(seed: int):
    """Ten random hypotheses, three seeded queries and the engine's answers.

    Returns the hypotheses, the positions, the queries, each query's
    justifications and the contexts as sets of pair numbers, numbered as
    `certifies_contexts` numbers them.
    """
    rng = random.Random(seed)
    hypotheses = _random_hypotheses(rng, 10)
    queries: list[Formula] = []
    while len(queries) < 3:
        query = _disjunction(rng, hypotheses)
        if query not in queries:
            queries.append(query)
    domain = DomainOfRules([], hypotheses)
    lists = [_engine_justifications(domain, q) for q in queries]
    numbers: dict[tuple[int, tuple[int, ...]], int] = {}
    for k, listed in enumerate(lists):
        for chosen in listed:
            numbers[k, tuple(sorted(chosen))] = len(numbers)
    contexts = [
        frozenset(numbers[k, tuple(chosen)] for k, chosen in pairs)
        for pairs in context_pairs(domain, queries)
    ]
    return hypotheses, _engine_positions(domain), queries, lists, contexts


def _sets(lists) -> list[frozenset[int]]:
    return [frozenset(items) for items in lists]


def _without_each(answers: list) -> list[list]:
    return [answers[:i] + answers[i + 1:] for i in range(len(answers))]


def test_berge_finds_the_minimal_hitting_sets():
    assert minimal_hitting_sets([]) == [frozenset()]
    assert minimal_hitting_sets(_sets([[0, 1], []])) == []
    assert minimal_hitting_sets(_sets([[0, 1], [1, 2]])) == _sets([[0, 2], [1]])
    assert minimal_hitting_sets(_sets([[0, 1], [2, 3], [0, 3]])) == _sets(
        [[0, 2], [0, 3], [1, 3]]
    )


SEEDS = range(20)
JUSTIFICATION_SEEDS = range(5)
CONTEXT_SEEDS = range(10)


@pytest.mark.parametrize("seed", SEEDS)
def test_random_positions_are_certified(seed):
    domain, positions = _random_case(seed)
    assert certifies_positions([], domain.hypotheses, positions)


def test_path_positions_are_certified():
    domain, positions = _path_case()
    assert [sorted(p) for p in positions] == exclusions(14).positions
    assert certifies_positions(domain.axioms, domain.hypotheses, positions)


@pytest.mark.parametrize("seed", SEEDS)
def test_dropping_any_position_fails_the_certificate(seed):
    domain, positions = _random_case(seed)
    for rest in _without_each(positions):
        assert not certifies_positions([], domain.hypotheses, rest)


def test_a_non_maximal_or_repeated_selection_fails_the_certificate():
    axioms, hypotheses, expected, *_ = exclusions(8)
    positions = [frozenset(p) for p in expected]
    assert certifies_positions(axioms, hypotheses, positions)
    assert not certifies_positions(axioms, hypotheses, positions + positions[:1])
    shrunk = [positions[0] - {min(positions[0])}] + positions[1:]
    assert not certifies_positions(axioms, hypotheses, shrunk)
    assert not certifies_positions(axioms, hypotheses, [])


@pytest.mark.parametrize("seed", JUSTIFICATION_SEEDS)
def test_random_justifications_are_certified(seed):
    domain, positions = _random_case(seed)
    conclusion, found = _random_justifications(seed)
    assert found
    assert certifies_justifications(
        [], domain.hypotheses, positions, conclusion, found
    )


def test_path_justifications_are_certified():
    domain, positions = _path_case()
    (conclusion, ends), = exclusions(14).justifications.items()
    found = _engine_justifications(domain, conclusion)
    assert [sorted(j) for j in found] == ends == [[0], [13]]
    assert certifies_justifications(
        domain.axioms, domain.hypotheses, positions, conclusion, found
    )


@pytest.mark.parametrize("seed", JUSTIFICATION_SEEDS)
def test_dropping_any_justification_fails_the_certificate(seed):
    domain, positions = _random_case(seed)
    conclusion, found = _random_justifications(seed)
    for rest in _without_each(found):
        assert not certifies_justifications(
            [], domain.hypotheses, positions, conclusion, rest
        )


def test_a_non_minimal_or_repeated_justification_fails_the_certificate():
    axioms, hypotheses, expected, justified, *_ = exclusions(8)
    positions = _sets(expected)
    (conclusion, ends), = justified.items()
    found = _sets(ends)
    assert certifies_justifications(
        axioms, hypotheses, positions, conclusion, found
    )
    for wrong in (found + found[:1], [found[0] | {2}] + found[1:], []):
        assert not certifies_justifications(
            axioms, hypotheses, positions, conclusion, wrong
        )


@pytest.mark.parametrize("seed", CONTEXT_SEEDS)
def test_random_contexts_are_certified(seed):
    hypotheses, positions, queries, lists, contexts = _context_case(seed)
    assert certifies_positions([], hypotheses, positions)
    for query, found in zip(queries, lists):
        assert certifies_justifications([], hypotheses, positions, query, found)
    assert certifies_contexts([], hypotheses, lists, contexts)


@pytest.mark.parametrize("seed", CONTEXT_SEEDS)
def test_dropping_any_context_fails_the_certificate(seed):
    hypotheses, _, _, lists, contexts = _context_case(seed)
    for rest in _without_each(contexts):
        assert not certifies_contexts([], hypotheses, lists, rest)


def test_an_overfull_or_non_maximal_context_fails_the_certificate():
    axioms, hypotheses, *_, expected = exclusions(8)
    assert expected == [[(0, [0])], [(0, [7])]]
    ends = _sets([[0], [7]])
    assert certifies_contexts(axioms, hypotheses, [ends], _sets([[0], [1]]))
    for wrong in (_sets([[0, 1]]), _sets([[0]]), _sets([[0], [1], []])):
        assert not certifies_contexts(axioms, hypotheses, [ends], wrong)
